//! KMeans (§6.2, Figure 9c): two stages, many jobs, static cache,
//! aggregated shuffle.
//!
//! The cached vectors behave exactly as LR's; the per-iteration map emits
//! `(closestCenter, point)` pairs whose temporaries churn the young
//! generation in Spark mode, and cluster sums are eagerly aggregated, by
//! one UDF (`Nearest`) over a view of a point however it is cached.
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

use deca_engine::record::{ArrayKind, Elements, HeapArray, HeapRecord, OnHeap, PairClasses};
use deca_engine::{AppJob, EngineError, ExecutionMode, ExecutorConfig, JobCtx};
use deca_heap::{Heap, ObjRef, OomError};

use crate::cached::{CachedDataset, Udf};
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
                let nearest = Nearest {
                    centroids: centroids_now,
                    sums: vec![vec![0.0f64; d]; k],
                    counts: vec![0usize; k],
                    pair: <(i64, f64)>::register(&mut e.heap),
                };
                let Nearest { sums, counts, .. } = points.scan(ctx, e, nearest)?;
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

/// KMeans's UDF: the map emits each point's nearest centroid as a
/// `(center, 1.0)` pair, and the fold adds the point to that cluster's sum
/// and the pair's weight to its count.
struct Nearest<'a> {
    centroids: &'a [Vec<f64>],
    sums: Vec<Vec<f64>>,
    counts: Vec<usize>,
    pair: PairClasses,
}

impl Udf<LabeledPointRec> for Nearest<'_> {
    type Out = (i64, f64);

    /// Nearest centroid by squared euclidean distance.
    #[inline]
    fn map<K: ArrayKind>(&self, p: &LabeledPointRec<K::Array<'_, f64>>) -> (i64, f64) {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (c, cent) in self.centroids.iter().enumerate() {
            let mut dist = 0.0;
            for (j, y) in cent.iter().enumerate() {
                let diff = p.features.get(j) - y;
                dist += diff * diff;
            }
            if dist < best_d {
                best_d = dist;
                best = c;
            }
        }
        (best as i64, 1.0)
    }

    #[inline]
    fn fold<K: ArrayKind>(&mut self, p: LabeledPointRec<K::Array<'_, f64>>, (c, w): (i64, f64)) {
        self.counts[c as usize] += w as usize;
        for (s, x) in self.sums[c as usize].iter_mut().zip(p.features.iter()) {
            *s += x;
        }
    }

    /// Spark's map output: the pair as a `Tuple2` of boxes, dead once the
    /// fold has read it.
    fn store_out(
        &self,
        pair: (i64, f64),
        heap: &mut Heap,
        _: &<LabeledPointRec as HeapRecord>::Classes,
        _: impl Fn(&Heap) -> ObjRef,
    ) -> Result<Option<ObjRef>, OomError> {
        pair.store(heap, &self.pair).map(Some)
    }

    fn fold_back(
        &mut self,
        p: LabeledPointRec<HeapArray<f64>>,
        _: (i64, f64),
        heap: &Heap,
        pair: ObjRef,
    ) {
        let pair = <(i64, f64)>::load(heap, &self.pair, pair);
        self.fold::<OnHeap>(p, pair);
    }
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
