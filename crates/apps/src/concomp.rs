//! ConnectedComponents (§6.3, Figure 10b): label propagation over the
//! cached adjacency, with a min-aggregated message shuffle per iteration.
//!
//! Shares the grouping/caching machinery with PageRank; the combine is
//! `min` instead of `+`, and iteration stops when no label changes (or at
//! the iteration cap, as in the paper's 10-iteration runs).

use deca_core::DecaHashShuffle;
use deca_engine::record::{HeapRecord, PairClasses};
use deca_engine::{ExecutionMode, Executor, ExecutorConfig, SparkHashShuffle};

use crate::datagen;
use crate::pagerank::{build_adjacency, partition_edges};
use crate::records::AdjListRec;
use crate::report::AppReport;

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

pub fn run(params: &CcParams) -> AppReport {
    let config = ExecutorConfig::new(params.mode, params.heap_bytes)
        .storage_fraction(params.storage_fraction);
    let mut exec = Executor::new(config);
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let pair_classes = <(i64, i64) as HeapRecord>::register(&mut exec.heap);

    let parts = partition_edges(&edges, params.partitions);
    let blocks = build_adjacency(&mut exec, &parts, params.mode);
    exec.finish_job();
    let cache_bytes = exec.job.cache_bytes + exec.job.swapped_cache_bytes;

    let mut labels: Vec<i64> = (0..params.vertices as i64).collect();
    for iter in 0..params.max_iterations {
        let mut spark_mins: Option<SparkHashShuffle<i64, i64>> = match params.mode {
            ExecutionMode::Deca => None,
            _ => Some(SparkHashShuffle::new(&mut exec.heap).expect("buffer")),
        };
        let mut deca_mins: Option<DecaHashShuffle> = match params.mode {
            ExecutionMode::Deca => Some(DecaHashShuffle::new(&mut exec.mm, 8, 8)),
            _ => None,
        };

        for (pi, &block) in blocks.iter().enumerate() {
            exec.run_task(format!("cc-iter{iter}-{pi}"), |e| match params.mode {
                ExecutionMode::Spark => {
                    let buf = spark_mins.as_mut().expect("spark buffer");
                    let (root, len) = e
                        .cache
                        .objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)
                        .expect("cache access");
                    // Walk the cached graph in place. Every message
                    // allocates, and a collection may move the graph, so
                    // each vertex is re-read through the root.
                    for i in 0..len {
                        let vertex_obj =
                            |e: &Executor| e.heap.array_get_ref(e.heap.root_ref(root), i);
                        let v = vertex_obj(e);
                        let vertex = e.heap.read_word(v, 0) as u32;
                        let n = e.heap.array_len(e.heap.read_ref(v, 1));
                        for j in 0..n {
                            let edges = e.heap.read_ref(vertex_obj(e), 1);
                            let dst = e.heap.array_get_i32(edges, j) as u32;
                            send_both_ways(e, buf, &pair_classes, &labels, vertex, dst);
                        }
                    }
                }
                ExecutionMode::SparkSer => {
                    let buf = spark_mins.as_mut().expect("spark buffer");
                    let mut adj: Vec<AdjListRec> = Vec::new();
                    e.cache
                        .iter_serialized(block, &mut e.heap, &mut e.kryo, &mut e.mm, |r| {
                            adj.push(r)
                        })
                        .expect("cache access");
                    for a in adj {
                        for &dst in &a.neighbors {
                            send_both_ways(e, buf, &pair_classes, &labels, a.vertex, dst);
                        }
                    }
                }
                ExecutionMode::Deca => {
                    let buf = deca_mins.as_mut().expect("deca buffer");
                    let heap = &mut e.heap;
                    let mm = &mut e.mm;
                    let mut msgs: Vec<(i64, i64)> = Vec::new();
                    let block = e.cache.deca_block(block);
                    block
                        .scan_bytes(
                            mm,
                            heap,
                            |bytes| {
                                let (vertex, neighbors) = AdjListRec::fields(bytes);
                                let l = labels[vertex as usize];
                                for &dst in neighbors {
                                    let dst = u32::from_le_bytes(dst) as usize;
                                    msgs.push((dst as i64, l));
                                    msgs.push((vertex as i64, labels[dst]));
                                }
                            },
                            |_| {},
                        )
                        .expect("cache scan");
                    let msgs = msgs.iter().map(|(k, v)| (k.to_le_bytes(), v.to_le_bytes()));
                    buf.insert_all(mm, heap, msgs, |acc, add| {
                        let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
                        let b = i64::from_le_bytes(add[..8].try_into().unwrap());
                        acc[..8].copy_from_slice(&a.min(b).to_le_bytes());
                    })
                    .expect("combine");
                }
            });
        }

        let changed = exec.run_task(format!("cc-update{iter}"), |e| {
            let mut changed = 0usize;
            if let Some(buf) = &spark_mins {
                buf.for_each(&e.heap, |k, v| {
                    let k = k as usize;
                    if v < labels[k] {
                        labels[k] = v;
                        changed += 1;
                    }
                });
            }
            if let Some(buf) = &mut deca_mins {
                buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                    let k = i64::from_le_bytes(k[..8].try_into().unwrap()) as usize;
                    let v = i64::from_le_bytes(v[..8].try_into().unwrap());
                    if v < labels[k] {
                        labels[k] = v;
                        changed += 1;
                    }
                })
                .expect("scan");
            }
            if let Some(mut buf) = spark_mins.take() {
                buf.release(&mut e.heap);
            }
            if let Some(mut buf) = deca_mins.take() {
                buf.release(&mut e.mm, &mut e.heap);
            }
            changed
        });
        if changed == 0 {
            break;
        }
    }

    exec.finish_job();
    let checksum: f64 = labels.iter().map(|&l| l as f64).sum();
    AppReport {
        app: "CC".into(),
        mode: params.mode,
        metrics: exec.job.clone(),
        timeline: exec.timeline.clone(),
        checksum,
        cache_bytes,
        objects_traced: exec.heap.stats().objects_traced,
        minor_gcs: exec.heap.stats().minor_collections,
        full_gcs: exec.heap.stats().full_collections,
        slowest_task: exec.slowest_task().cloned(),
    }
}

/// The Spark kernels' messages for one edge `vertex → dst`, both ways so
/// components converge: each is a temporary `(vertex, label)` tuple on the
/// heap, then an eager min-combine.
fn send_both_ways(
    e: &mut Executor,
    buf: &mut SparkHashShuffle<i64, i64>,
    pair_classes: &PairClasses,
    labels: &[i64],
    vertex: u32,
    dst: u32,
) {
    let (vertex, dst) = (vertex as usize, dst as usize);
    for (k, v) in [(dst as i64, labels[vertex]), (vertex as i64, labels[dst])] {
        let tmp = (k, v).store(&mut e.heap, pair_classes).expect("temp msg");
        let ts = e.heap.push_stack(tmp);
        let (k, v) = <(i64, i64) as HeapRecord>::load(&e.heap, pair_classes, e.heap.stack_ref(ts));
        e.heap.truncate_stack(ts);
        buf.insert(&mut e.heap, &k, v, |a, b| a.min(b)).expect("combine");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let spark = run(&tiny(ExecutionMode::Spark));
        let ser = run(&tiny(ExecutionMode::SparkSer));
        let deca = run(&tiny(ExecutionMode::Deca));
        assert_eq!(spark.checksum, deca.checksum);
        assert_eq!(ser.checksum, deca.checksum);
    }

    #[test]
    fn labels_decrease_monotonically() {
        let r = run(&tiny(ExecutionMode::Deca));
        // Components exist: the checksum is well below the no-propagation
        // sum of 0..V.
        let v = 300f64;
        assert!(r.checksum < v * (v - 1.0) / 2.0);
        assert!(r.checksum >= 0.0);
    }
}
