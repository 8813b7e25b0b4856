//! Every workload must compute bit-identical (or fp-tolerant) results in
//! all three execution modes: the decomposed byte layout, the serialized
//! cache, and the heap object graphs are three representations of the same
//! data, and the "code transformation" must be semantics-preserving.

mod util;

use deca_apps::{concomp, kmeans, logreg, pagerank, sql, wordcount};
use deca_engine::ExecutionMode;

use util::TestDir;

#[test]
fn wordcount_checksums_agree() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let mut p = wordcount::WcParams::small(mode);
        p.words = 30_000;
        p.distinct = 700;
        results.push(wordcount::run_local(&p, 1).checksum);
    }
    assert_eq!(results[0], results[1]);
    td.cleanup();
}

#[test]
fn logreg_weights_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = logreg::LrParams::small(mode);
        p.points = 4_000;
        p.iterations = 4;
        results.push(logreg::run_local(&p, 1).checksum);
    }
    assert!((results[0] - results[1]).abs() < 1e-12);
    assert!((results[1] - results[2]).abs() < 1e-12);
    td.cleanup();
}

#[test]
fn kmeans_centroids_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = kmeans::KmParams::small(mode);
        p.points = 4_000;
        p.iterations = 3;
        results.push(kmeans::run_local(&p, 1).checksum);
    }
    assert!((results[0] - results[1]).abs() < 1e-9);
    assert!((results[1] - results[2]).abs() < 1e-9);
    td.cleanup();
}

#[test]
fn pagerank_ranks_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = pagerank::PrParams::small(mode);
        p.vertices = 800;
        p.edges = 6_000;
        p.iterations = 3;
        results.push(pagerank::run_local(&p, 1).checksum);
    }
    assert!((results[0] - results[1]).abs() < 1e-9);
    assert!((results[1] - results[2]).abs() < 1e-9);
    td.cleanup();
}

#[test]
fn connected_components_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        let mut p = concomp::CcParams::small(mode);
        p.vertices = 600;
        p.edges = 3_000;
        results.push(concomp::run(&p).checksum);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
    td.cleanup();
}

#[test]
fn sql_queries_agree_across_systems() {
    let td = TestDir::executor_default();
    let mut q1 = Vec::new();
    let mut q2 = Vec::new();
    for system in sql::SqlSystem::ALL {
        let mut p = sql::SqlParams::small(system);
        p.rankings_rows = 8_000;
        p.uservisits_rows = 12_000;
        q1.push(sql::run_query1(&p).checksum);
        q2.push(sql::run_query2(&p).checksum);
    }
    assert_eq!(q1[0], q1[1]);
    assert_eq!(q1[1], q1[2]);
    assert!((q2[0] - q2[1]).abs() < 1e-6);
    assert!((q2[1] - q2[2]).abs() < 1e-6);
    td.cleanup();
}
