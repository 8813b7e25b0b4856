//! ConnectedComponents (§6.3, Figure 10b): label propagation over the
//! cached adjacency, with a min-aggregated message shuffle per iteration.
//!
//! CC is PageRank's job with a different message: it reuses PageRank's
//! adjacency-build stage and lineage rebuild ([`crate::pagerank`]), and
//! each iteration is the same map/exchange/reduce shuffle job, sending
//! labels along every edge both ways and combining them with `min` instead
//! of `+`. Iteration stops when no label changes (or at the iteration cap,
//! as in the paper's 10-iteration runs). Labels are exact `i64`s, so the
//! result is the same for every executor count and combine order.
//!
//! Every edge sends both ways in every iteration, so each Deca combine
//! table holds the same keys as the iteration before, and starts at the
//! size that table reached (see [`crate::pagerank`]): only iteration 0
//! grows one.
//!
//! The description owns its input: [`job`] generates the edge list once,
//! when it is called (see the crate docs).

use deca_engine::{AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx};

use crate::datagen;
use crate::pagerank::{exchange_messages, partition_edges, Adjacency, Messages};
use crate::report::AppReport;
use crate::Partitioned;

/// Parameters of one ConnectedComponents run.
#[derive(Clone, Debug)]
pub struct CcParams {
    pub vertices: usize,
    pub edges: usize,
    pub max_iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub storage_fraction: f64,
    pub seed: u64,
}

impl CcParams {
    pub fn small(mode: ExecutionMode) -> CcParams {
        CcParams {
            vertices: 5_000,
            edges: 60_000,
            max_iterations: 10,
            partitions: 4,
            heap_bytes: 32 << 20,
            mode,
            storage_fraction: 0.4,
            seed: 20160905,
        }
    }
}

/// The executor configuration ConnectedComponents runs under.
pub fn cc_config(params: &CcParams) -> ExecutorConfig {
    ExecutorConfig::new(params.mode, params.heap_bytes).storage_fraction(params.storage_fraction)
}

/// Run ConnectedComponents across `executors` parallel executors.
pub fn run_local(params: &CcParams, executors: usize) -> AppReport {
    crate::run_job_local(&job(params), cc_config(params), executors)
}

/// The ConnectedComponents job description: consumed by
/// `DecaServer::submit` (via `JobSpec::app`) and by [`run_local`].
pub fn job(params: &CcParams) -> AppJob {
    let params = params.clone();
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let parts = partition_edges(&edges, params.partitions);
    AppJob::new("CC", move |job_ctx| run_cc(&params, &parts, job_ctx))
}

/// A CC iteration's messages: both ends of every edge learn the other's
/// label, so components converge; a vertex keeps the smallest it hears.
struct Labels<'a>(&'a [i64]);

impl Messages for Labels<'_> {
    type V = i64;
    type Edge = [(i64, i64); 2];

    fn sends(&self, vertex: u32) -> i64 {
        self.0[vertex as usize]
    }

    fn edge(&self, vertex: u32, label: i64, dst: u32) -> [(i64, i64); 2] {
        [(dst as i64, label), (vertex as i64, self.0[dst as usize])]
    }

    fn combine(a: i64, b: i64) -> i64 {
        a.min(b)
    }
}

fn run_cc(
    params: &CcParams,
    parts: &Partitioned<(u32, u32)>,
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    let adj = Adjacency::build(job_ctx, parts, params.mode)?;
    let mut labels: Vec<i64> = (0..params.vertices as i64).collect();
    for iter in 0..params.max_iterations {
        if cc_iteration(job_ctx, iter, &adj, &mut labels)? == 0 {
            break;
        }
    }
    Ok(labels.iter().map(|&l| l as f64).sum())
}

/// Iteration `iter`: lower each label to the smallest one its vertex hears,
/// and return how many changed.
fn cc_iteration(
    job_ctx: &mut JobCtx,
    iter: usize,
    adj: &Adjacency,
    labels: &mut [i64],
) -> Result<usize, EngineError> {
    let mins = exchange_messages(job_ctx, &format!("cc-iter{iter}"), adj, &Labels(labels))?;
    let mut changed = 0usize;
    for (vertex, min) in mins {
        let label = &mut labels[vertex as usize];
        if min < *label {
            *label = min;
            changed += 1;
        }
    }
    Ok(changed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_engine::ClusterSession;

    fn tiny(mode: ExecutionMode) -> CcParams {
        CcParams {
            vertices: 300,
            edges: 1_500,
            max_iterations: 10,
            partitions: 2,
            heap_bytes: 24 << 20,
            mode,
            storage_fraction: 0.4,
            seed: 9,
        }
    }

    #[test]
    fn all_modes_agree() {
        let spark = run_local(&tiny(ExecutionMode::Spark), 1);
        let ser = run_local(&tiny(ExecutionMode::SparkSer), 1);
        let deca = run_local(&tiny(ExecutionMode::Deca), 1);
        assert_eq!(spark.checksum, deca.checksum);
        assert_eq!(ser.checksum, deca.checksum);
    }

    #[test]
    fn labels_decrease_monotonically() {
        let r = run_local(&tiny(ExecutionMode::Deca), 1);
        // Components exist: the checksum is well below the no-propagation
        // sum of 0..V.
        let v = 300f64;
        assert!(r.checksum < v * (v - 1.0) / 2.0);
        assert!(r.checksum >= 0.0);
    }

    #[test]
    fn executor_count_does_not_change_labels() {
        for mode in ExecutionMode::ALL {
            let one = run_local(&tiny(mode), 1);
            for executors in [2, 4] {
                let wide = run_local(&tiny(mode), executors);
                assert_eq!(one.checksum.to_bits(), wide.checksum.to_bits(), "{mode} x{executors}");
            }
        }
    }

    /// A graph whose map partitions and reducers each combine more keys
    /// than a one-page table holds (2 867 at the 0.7 load threshold).
    fn paged(mode: ExecutionMode) -> CcParams {
        CcParams { vertices: 16_000, edges: 24_000, ..tiny(mode) }
    }

    #[test]
    fn deca_tables_grow_only_in_iteration_0_and_labels_match_spark_bit_for_bit() {
        let p = paged(ExecutionMode::Deca);
        let edges = datagen::power_law_graph(p.vertices, p.edges, p.seed);
        let parts = partition_edges(&edges, p.partitions);
        for executors in [1, 2] {
            let mut session = ClusterSession::new(executors, cc_config(&p));
            let mut ctx = JobCtx::local(&mut session);
            let adj = Adjacency::build(&mut ctx, &parts, p.mode).unwrap();
            let mut labels: Vec<i64> = (0..p.vertices as i64).collect();
            let mut grows = Vec::new();
            for iter in 0..p.max_iterations {
                let changed = cc_iteration(&mut ctx, iter, &adj, &mut labels).unwrap();
                grows.push(adj.table_grows());
                if changed == 0 {
                    break;
                }
            }
            let (map, reduce) = grows[0];
            assert!(map > 0 && reduce > 0, "iteration 0 outgrows one page: {grows:?}");
            assert!(grows.len() > 2, "labels propagate for a few iterations: {grows:?}");
            assert!(grows.iter().all(|&g| g == grows[0]), "no later table grows: {grows:?}");
            let spark = run_local(&paged(ExecutionMode::Spark), executors).checksum.to_bits();
            let sum: f64 = labels.iter().map(|&l| l as f64).sum();
            assert_eq!(sum.to_bits(), spark, "x{executors}");
            assert_eq!(run_local(&p, executors).checksum.to_bits(), spark, "x{executors}");
        }
    }

    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(ExecutionMode::Deca);
        crate::assert_description_owns_its_input(|| job(&p), cc_config(&p), 1);
    }
}
