//! A job description owns its dataset: the input is generated once, when
//! the description is built, and every later use of the description reads
//! the same shared partitions. So one description run three times on a
//! private cluster, and a `clone()` of it submitted twice to a
//! `DecaServer`, must return one bit pattern — and that pattern is the one
//! `run_local` produced when each run still generated its own input
//! (recorded below from the commit before the data moved into the
//! description), so moving the data changed nothing a job computes.

mod util;

use deca_apps::concomp::{self, CcParams};
use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::run_job_local;
use deca_apps::sql::{self, SqlParams, SqlQuery, SqlSystem};
use deca_apps::wordcount::{self, WcParams};
use deca_engine::{AppJob, DecaServer, ExecutionMode, ExecutorConfig, JobSpec};

use util::TestDir;

const EXECUTORS: usize = 2;

fn wc_params(mode: ExecutionMode) -> WcParams {
    let mut p = WcParams::small(mode);
    p.words = 30_000;
    p.distinct = 700;
    p
}

fn wc(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let p = wc_params(mode);
    (wordcount::job(&p), wordcount::wc_config(&p))
}

fn wc_text(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let p = wc_params(mode);
    (wordcount::text_job(&p), wordcount::wc_config(&p))
}

fn lr(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = LrParams::small(mode);
    p.points = 4_000;
    p.iterations = 4;
    (logreg::job(&p), logreg::lr_config(&p))
}

fn km(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = KmParams::small(mode);
    p.points = 4_000;
    p.iterations = 3;
    (kmeans::job(&p), kmeans::km_config(&p))
}

fn pr(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = PrParams::small(mode);
    p.vertices = 800;
    p.edges = 6_000;
    p.iterations = 3;
    (pagerank::job(&p), pagerank::pr_config(&p))
}

fn cc(mode: ExecutionMode) -> (AppJob, ExecutorConfig) {
    let mut p = CcParams::small(mode);
    p.vertices = 600;
    p.edges = 3_000;
    (concomp::job(&p), concomp::cc_config(&p))
}

/// One description, five uses, one checksum: `want` is `run_local`'s value
/// (as `f64::to_bits`), which at these sizes is the same in all three modes.
fn every_use_reads_the_same_data(build: fn(ExecutionMode) -> (AppJob, ExecutorConfig), want: u64) {
    let td = TestDir::executor_default();
    for mode in ExecutionMode::ALL {
        let (app, config) = build(mode);
        let mut got: Vec<u64> = (0..3)
            .map(|_| run_job_local(&app, config.clone(), EXECUTORS).checksum.to_bits())
            .collect();
        let server = DecaServer::new(EXECUTORS, config);
        for _ in 0..2 {
            let handle = server.submit(JobSpec::new("t").app(app.clone())).expect("admitted");
            got.push(handle.wait().expect("served job").checksum.to_bits());
        }
        assert_eq!(got, [want; 5], "{} in {mode} mode (checksums as f64 bits)", app.name());
    }
    td.cleanup();
}

#[test]
fn wordcount_description_is_reusable() {
    every_use_reads_the_same_data(wc, 0x415b_5046_8000_0000);
}

#[test]
fn text_wordcount_description_is_reusable() {
    every_use_reads_the_same_data(wc_text, 0x413a_9764_0000_0000);
}

#[test]
fn logreg_description_is_reusable() {
    every_use_reads_the_same_data(lr, 0x3ffc_86c0_e196_e8d2);
}

#[test]
fn kmeans_description_is_reusable() {
    every_use_reads_the_same_data(km, 0x403e_3ed3_f04d_8979);
}

#[test]
fn pagerank_description_is_reusable() {
    every_use_reads_the_same_data(pr, 0x4086_98f9_e86a_4fd7);
}

#[test]
fn connected_components_description_is_reusable() {
    every_use_reads_the_same_data(cc, 0x40b5_b700_0000_0000);
}

/// A CC job and a SQL Q2 job submitted to a `DecaServer` return the
/// checksums their local runs return, in every mode and system.
#[test]
fn served_cc_and_sql_jobs_match_their_local_runs() {
    let td = TestDir::executor_default();
    let served = |app: &AppJob, config: ExecutorConfig| {
        let server = DecaServer::new(EXECUTORS, config);
        let handle = server.submit(JobSpec::new("t").app(app.clone())).expect("admitted");
        handle.wait().expect("served job").checksum
    };
    for mode in ExecutionMode::ALL {
        let (app, config) = cc(mode);
        let want = run_job_local(&app, config.clone(), 1).checksum;
        assert_eq!(served(&app, config).to_bits(), want.to_bits(), "CC in {mode} mode");
    }
    for system in SqlSystem::ALL {
        let mut p = SqlParams::small(system);
        (p.rankings_rows, p.uservisits_rows) = (8_000, 12_000);
        let (app, config) = (sql::job(&p, SqlQuery::GroupBy), sql::sql_config(&p));
        let want = run_job_local(&app, config.clone(), 1).checksum;
        assert_eq!(served(&app, config).to_bits(), want.to_bits(), "SQL Q2 on {}", system.name());
    }
    td.cleanup();
}
