//! Every workload must compute bit-identical (or fp-tolerant) results in
//! all three execution modes: the decomposed byte layout, the serialized
//! cache, and the heap object graphs are three representations of the same
//! data, and the "code transformation" must be semantics-preserving.
//!
//! Every row also runs under each of Table 4's three collectors, which
//! reclaim memory and never compute.

mod util;

use deca_apps::{concomp, kmeans, logreg, pagerank, run_job_local, sql, wordcount};
use deca_engine::ExecutionMode;
use deca_heap::GcAlgorithm;

use util::TestDir;

/// Every `(collector, mode)` checksum lies within `tol` of the first.
fn assert_all_agree(app: &str, results: &[(GcAlgorithm, ExecutionMode, f64)], tol: f64) {
    let (_, _, reference) = results[0];
    for &(gc, mode, checksum) in results {
        assert!(
            (checksum - reference).abs() <= tol,
            "{app} under {gc:?}, {mode}: {checksum} vs {reference}"
        );
    }
}

#[test]
fn wordcount_checksums_agree() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let mut p = wordcount::WcParams::small(mode);
        p.words = 30_000;
        p.distinct = 700;
        let job = wordcount::job(&p);
        for gc in GcAlgorithm::ALL {
            let report = run_job_local(&job, wordcount::wc_config(&p).gc_algorithm(gc), 1);
            results.push((gc, mode, report.checksum));
        }
    }
    assert_all_agree("WC", &results, 0.0);
    td.cleanup();
}

#[test]
fn logreg_weights_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        for gc in GcAlgorithm::ALL {
            let mut p = logreg::LrParams::small(mode);
            p.points = 4_000;
            p.iterations = 4;
            p.gc_algorithm = gc;
            results.push((gc, mode, logreg::run_local(&p, 1).checksum));
        }
    }
    assert_all_agree("LR", &results, 1e-12);
    td.cleanup();
}

#[test]
fn kmeans_centroids_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        for gc in GcAlgorithm::ALL {
            let mut p = kmeans::KmParams::small(mode);
            p.points = 4_000;
            p.iterations = 3;
            p.gc_algorithm = gc;
            results.push((gc, mode, kmeans::run_local(&p, 1).checksum));
        }
    }
    assert_all_agree("KMeans", &results, 1e-9);
    td.cleanup();
}

#[test]
fn pagerank_ranks_agree_across_modes() {
    let td = TestDir::executor_default();
    let mut results = Vec::new();
    for mode in ExecutionMode::ALL {
        for gc in GcAlgorithm::ALL {
            let mut p = pagerank::PrParams::small(mode);
            p.vertices = 800;
            p.edges = 6_000;
            p.iterations = 3;
            p.gc_algorithm = gc;
            results.push((gc, mode, pagerank::run_local(&p, 1).checksum));
        }
    }
    assert_all_agree("PR", &results, 1e-9);
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
        let job = concomp::job(&p);
        for gc in GcAlgorithm::ALL {
            let report = run_job_local(&job, concomp::cc_config(&p).gc_algorithm(gc), 1);
            results.push((gc, mode, report.checksum));
        }
    }
    assert_all_agree("CC", &results, 0.0);
    td.cleanup();
}

#[test]
fn sql_queries_agree_across_systems() {
    let td = TestDir::executor_default();
    for query in sql::SqlQuery::ALL {
        let mut results = Vec::new();
        for system in sql::SqlSystem::ALL {
            let mut p = sql::SqlParams::small(system);
            p.rankings_rows = 8_000;
            p.uservisits_rows = 12_000;
            let job = sql::job(&p, query);
            for gc in GcAlgorithm::ALL {
                let report = run_job_local(&job, sql::sql_config(&p).gc_algorithm(gc), 1);
                results.push((gc, report.mode, report.checksum));
            }
        }
        // Q1 counts agree exactly, Q2's sums to 1e-6, the join's larger
        // sums to 1e-6 of their size.
        let tol = match query {
            sql::SqlQuery::Filter => 0.0,
            sql::SqlQuery::GroupBy => 1e-6,
            sql::SqlQuery::Join => 1e-6 * results[0].2.abs(),
        };
        assert_all_agree(query.name(), &results, tol);
    }
    td.cleanup();
}

/// The Deca kernels decode fields straight from page bytes; a rewrite of
/// a page walk or a field decoder must leave every floating-point sum
/// bit-for-bit where it was, which the tolerances above cannot see. The
/// pinned bits are the checksums these sizes produced before the kernels
/// read their records a page at a time.
#[test]
fn deca_checksums_are_pinned_bit_for_bit() {
    let td = TestDir::executor_default();
    let deca = ExecutionMode::Deca;
    let mut lr = logreg::LrParams::small(deca);
    lr.points = 4_000;
    lr.iterations = 4;
    let mut km = kmeans::KmParams::small(deca);
    km.points = 4_000;
    km.iterations = 3;
    let mut pr = pagerank::PrParams::small(deca);
    pr.vertices = 800;
    pr.edges = 6_000;
    pr.iterations = 3;
    let mut cc = concomp::CcParams::small(deca);
    cc.vertices = 600;
    cc.edges = 3_000;
    let mut q = sql::SqlParams::small(sql::SqlSystem::Deca);
    q.rankings_rows = 8_000;
    q.uservisits_rows = 12_000;
    let got = [
        ("LR", logreg::run_local(&lr, 1).checksum),
        ("KMeans", kmeans::run_local(&km, 1).checksum),
        ("PR", pagerank::run_local(&pr, 1).checksum),
        ("CC", concomp::run_local(&cc, 1).checksum),
        ("SQL q1", sql::run_local(&q, sql::SqlQuery::Filter, 1).checksum),
        ("SQL q2", sql::run_local(&q, sql::SqlQuery::GroupBy, 1).checksum),
        ("SQL q3", sql::run_local(&q, sql::SqlQuery::Join, 1).checksum),
    ];
    let want: [u64; 7] = [
        0x3ffc_86c0_e196_e8d2,
        0x403e_3ed3_f04d_8979,
        0x4086_98f9_e86a_4fd7,
        0x40b5_b700_0000_0000,
        0x4087_5000_62c4_5698,
        0x40e3_30f1_3e2a_c95b,
        0x4124_1e49_d9e9_0359,
    ];
    for ((app, checksum), bits) in got.into_iter().zip(want) {
        assert_eq!(checksum.to_bits(), bits, "{app}: {checksum} is {:#018x}", checksum.to_bits());
    }
    td.cleanup();
}
