//! KMeans (§6.2, Figure 9c): two stages, many jobs, static cache,
//! aggregated shuffle.
//!
//! The cached vectors behave exactly as LR's; the per-iteration map emits
//! `(closestCenter, point)` pairs whose temporaries churn the young
//! generation in Spark mode, and cluster sums are eagerly aggregated.
//!
//! Like LR, the job is described once as an [`AppJob`] ([`job`]) and runs
//! through the cluster driver: a `km-load` stage caches partition `p`'s
//! points on executor `p % E`, then each iteration is one `km-iter{i}`
//! stage whose tasks return partial `(sums, counts)` the driver folds in
//! task order — so the f64 addition sequence, and hence the centroids,
//! are bit-identical for any executor count, standalone or on a
//! [`deca_engine::DecaServer`]. A retried or stolen task that lands on an
//! executor without its block recaches it from its input partition first
//! (lineage recompute).
//!
//! The description owns its input: [`job`] generates the points once, when
//! it is called, and the load stage, every lineage recompute and every
//! later run of the description borrow partition `p` from that shared
//! buffer (see the crate docs).

use deca_engine::record::HeapRecord;
use deca_engine::{AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx};

use crate::cached::{CachedDataset, Repr};
use crate::datagen;
use crate::records::LabeledPointRec;
use crate::report::AppReport;
use crate::Partitioned;

/// Parameters of one KMeans run.
#[derive(Clone, Debug)]
pub struct KmParams {
    pub points: usize,
    pub dims: usize,
    pub clusters: usize,
    pub iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub storage_fraction: f64,
    pub mode: ExecutionMode,
    /// Deca page size override (None = executor default). High-dimensional
    /// records need larger pages to bound tail waste (§4.3.1).
    pub page_size: Option<usize>,
    pub gc_algorithm: deca_heap::GcAlgorithm,
    pub seed: u64,
}

impl KmParams {
    pub fn small(mode: ExecutionMode) -> KmParams {
        KmParams {
            points: 20_000,
            dims: 10,
            clusters: 8,
            iterations: 8,
            partitions: 8,
            heap_bytes: 32 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 20160903,
        }
    }
}

/// Run KMeans across `executors` parallel executors and report metrics,
/// cache size, and the final-centroids checksum. The centroids are
/// bit-identical for any executor count: task `p` always scans its own
/// cached partition and the driver folds partial sums in task order.
pub fn run_local(params: &KmParams, executors: usize) -> AppReport {
    crate::run_job_local(&job(params), km_config(params), executors)
}

/// The executor configuration KMeans runs under (public so equivalence
/// tests can build sessions with the exact same memory split, then vary
/// retry policy and scheduler mode).
pub fn km_config(params: &KmParams) -> ExecutorConfig {
    let mut config = ExecutorConfig::new(params.mode, params.heap_bytes)
        .storage_fraction(params.storage_fraction)
        .gc_algorithm(params.gc_algorithm);
    if let Some(page) = params.page_size {
        config = config.page_size(page);
    }
    config
}

/// The KMeans job description: consumed by `DecaServer::submit` (via
/// `JobSpec::app`) and by the local shims above.
pub fn job(params: &KmParams) -> AppJob {
    let params = params.clone();
    let parts = Partitioned::split(
        datagen::labeled_vectors(params.points, params.dims, params.seed),
        params.partitions,
    );
    AppJob::new("KMeans", move |job_ctx| run_kmeans(&params, &parts, job_ctx))
}

/// One iteration task's contribution: per-cluster coordinate sums and
/// member counts for its partition, in partition point order.
type KmPartial = (Vec<Vec<f64>>, Vec<usize>);

fn run_kmeans(
    params: &KmParams,
    parts: &Partitioned<LabeledPointRec>,
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    let d = params.dims;
    let k = params.clusters;

    // KMeans caches LR's points through LR's loading map, so the optimizer
    // plans the container from LR's program.
    let repr = crate::logreg::points_repr(params.mode, crate::records::lr_plan_input, d)?;
    let points = CachedDataset::load(job_ctx, "km-load", params.partitions, repr, |e, p, repr| {
        repr.put(e, parts.part(p))
    })?;

    // Deterministic initial centroids from the data.
    let mut centroids: Vec<Vec<f64>> = parts
        .records()
        .iter()
        .step_by((params.points / k).max(1))
        .take(k)
        .map(|p| p.features.clone())
        .collect();
    while centroids.len() < k {
        centroids.push(vec![0.0; d]);
    }

    // ------------------------------------------------------ iterations
    for iter in 0..params.iterations {
        let centroids_now = &centroids;
        let points = &points;
        let partials: Vec<KmPartial> =
            job_ctx.run_stage(&format!("km-iter{iter}"), params.partitions, |ctx, e| {
                let block = points.block(ctx, e)?;
                let mut sums = vec![vec![0.0f64; d]; k];
                let mut counts = vec![0usize; k];
                match points.repr() {
                    Repr::Objects => spark_assign(e, block, centroids_now, &mut sums, &mut counts)?,
                    Repr::Serialized => {
                        let classes = LabeledPointRec::register(&mut e.heap);
                        sparkser_assign(e, block, &classes, centroids_now, &mut sums, &mut counts)?
                    }
                    Repr::Pages { .. } => {
                        deca_assign(e, block, centroids_now, &mut sums, &mut counts)?
                    }
                }
                Ok((sums, counts))
            })?;
        // Fold partials in task order (each partial is itself the
        // partition's in-order point sum), then move the centroids — the
        // f64 addition sequence never depends on where tasks ran.
        let mut sums = vec![vec![0.0f64; d]; k];
        let mut counts = vec![0usize; k];
        for (psums, pcounts) in &partials {
            for c in 0..k {
                counts[c] += pcounts[c];
                for j in 0..d {
                    sums[c][j] += psums[c][j];
                }
            }
        }
        for c in 0..k {
            if counts[c] > 0 {
                for j in 0..d {
                    centroids[c][j] = sums[c][j] / counts[c] as f64;
                }
            }
        }
    }
    Ok(centroids.iter().flatten().map(|v| v.abs()).sum())
}

/// Nearest centroid by squared euclidean distance, shared by every kernel
/// so assignments agree bit-for-bit across modes. The Spark kernels pass
/// a heap reader behind `dyn`.
fn assign(features: &dyn Fn(usize) -> f64, centroids: &[Vec<f64>], d: usize) -> usize {
    nearest(features, centroids, d)
}

/// [`assign`]'s body, generic so the Deca kernel's field read is a static
/// call the compiler inlines, whatever it decides about inlining `assign`.
#[allow(clippy::needless_range_loop)] // kernels index like the paper's code
fn nearest(features: impl Fn(usize) -> f64, centroids: &[Vec<f64>], d: usize) -> usize {
    let mut best = 0;
    let mut best_d = f64::INFINITY;
    for (c, cent) in centroids.iter().enumerate() {
        let mut dist = 0.0;
        for j in 0..d {
            let diff = features(j) - cent[j];
            dist += diff * diff;
        }
        if dist < best_d {
            best_d = dist;
            best = c;
        }
    }
    best
}

/// Spark kernel: walk the heap object graphs; per point, allocate the
/// map's temporary `(closestCenter, 1.0)` pair which dies after the
/// aggregation consumes it. A full heap there is a memory-pressure error
/// the stage engine spills and re-runs on, not a panic.
#[allow(clippy::needless_range_loop)]
fn spark_assign(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    centroids: &[Vec<f64>],
    sums: &mut [Vec<f64>],
    counts: &mut [usize],
) -> Result<(), EngineError> {
    let d = centroids[0].len();
    let pair_classes = <(i64, f64) as HeapRecord>::register(&mut e.heap);
    let (root, len) = e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
    for i in 0..len {
        let arr = e.heap.root_ref(root);
        let lp = e.heap.array_get_ref(arr, i);
        let dv = e.heap.read_ref(lp, 1);
        let data_arr = e.heap.read_ref(dv, 0);
        let heap = &e.heap;
        let best = assign(&|j| heap.array_get_f64(data_arr, j), centroids, d);
        // The map's temporary (closest, 1.0) pair.
        let tmp = (best as i64, 1.0f64).store(&mut e.heap, &pair_classes)?;
        let ts = e.heap.push_stack(tmp);
        let (c, w) = <(i64, f64) as HeapRecord>::load(&e.heap, &pair_classes, e.heap.stack_ref(ts));
        e.heap.truncate_stack(ts);
        counts[c as usize] += w as usize;
        let arr = e.heap.root_ref(root);
        let lp = e.heap.array_get_ref(arr, i);
        let dv = e.heap.read_ref(lp, 1);
        let data_arr = e.heap.read_ref(dv, 0);
        for j in 0..d {
            sums[c as usize][j] += e.heap.array_get_f64(data_arr, j);
        }
    }
    Ok(())
}

/// SparkSer kernel: deserialize each point (Kryo cost), materialise it as
/// temporary heap objects, then compute as the Spark kernel does.
#[allow(clippy::needless_range_loop)]
fn sparkser_assign(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    classes: &<LabeledPointRec as HeapRecord>::Classes,
    centroids: &[Vec<f64>],
    sums: &mut [Vec<f64>],
    counts: &mut [usize],
) -> Result<(), EngineError> {
    let d = centroids[0].len();
    let mut recs: Vec<LabeledPointRec> = Vec::new();
    e.cache.iter_serialized(block, &mut e.heap, &mut e.kryo, &mut e.mm, |r| recs.push(r))?;
    for rec in recs {
        let lp = rec.store(&mut e.heap, classes)?;
        let ls = e.heap.push_stack(lp);
        let lp = e.heap.stack_ref(ls);
        let dv = e.heap.read_ref(lp, 1);
        let data_arr = e.heap.read_ref(dv, 0);
        let heap = &e.heap;
        let best = assign(&|j| heap.array_get_f64(data_arr, j), centroids, d);
        counts[best] += 1;
        for j in 0..d {
            sums[best][j] += e.heap.array_get_f64(data_arr, j);
        }
        e.heap.truncate_stack(ls);
    }
    Ok(())
}

/// Deca kernel — the transformed code: features at fixed offsets inside
/// the page bytes, accumulation into preallocated arrays; no objects.
/// Each record is split into its fields once.
fn deca_assign(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    centroids: &[Vec<f64>],
    sums: &mut [Vec<f64>],
    counts: &mut [usize],
) -> Result<(), EngineError> {
    let d = centroids[0].len();
    let heap = &mut e.heap;
    let mm = &mut e.mm;
    let block = e.cache.deca_block(block);
    block.scan_bytes(
        mm,
        heap,
        |bytes| {
            let (_, features) = LabeledPointRec::fields(bytes);
            let best = nearest(|j| f64::from_le_bytes(features[j]), centroids, d);
            counts[best] += 1;
            for (s, &x) in sums[best].iter_mut().zip(features) {
                *s += f64::from_le_bytes(x);
            }
        },
        |_| {},
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: ExecutionMode) -> KmParams {
        KmParams {
            points: 3_000,
            dims: 6,
            clusters: 4,
            iterations: 3,
            partitions: 3,
            heap_bytes: 16 << 20,
            storage_fraction: 0.6,
            mode,
            page_size: None,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            seed: 5,
        }
    }

    #[test]
    fn all_modes_agree() {
        let spark = run_local(&tiny(ExecutionMode::Spark), 1);
        let ser = run_local(&tiny(ExecutionMode::SparkSer), 1);
        let deca = run_local(&tiny(ExecutionMode::Deca), 1);
        assert!((spark.checksum - deca.checksum).abs() < 1e-9);
        assert!((ser.checksum - deca.checksum).abs() < 1e-9);
        assert!(deca.checksum > 0.0);
    }

    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(ExecutionMode::Deca);
        crate::assert_description_owns_its_input(|| job(&p), km_config(&p), 1);
    }

    #[test]
    fn cluster_width_never_changes_centroids() {
        // The unified-job migration's invariant: the same KmParams produce
        // bit-identical centroids on 1, 2, and 4 executors, in every mode
        // (driver folds partials in task order; stolen tasks recache).
        for mode in ExecutionMode::ALL {
            let reference = run_local(&tiny(mode), 1).checksum;
            for width in [2usize, 4] {
                let got = run_local(&tiny(mode), width).checksum;
                assert_eq!(got.to_bits(), reference.to_bits(), "{mode} x{width}");
            }
        }
    }
}
