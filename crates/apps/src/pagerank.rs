//! PageRank (§6.3, Figure 10a): multiple stages and jobs, a static cached
//! adjacency RDD built by `groupByKey`, and an aggregated message shuffle
//! every iteration.
//!
//! The adjacency build is the §4.3.3 partially-decomposable scenario
//! (Figure 7b): while grouping, the value lists are VSTs (heap objects in
//! *every* mode, including Deca), but the output copied into the cache is
//! an RFST which Deca decomposes into framed page segments. The dying
//! grouping buffer is then reclaimed wholesale.
//!
//! The job is described once as an [`AppJob`] ([`job`]) driving the
//! paper's stage structure: an adjacency-build stage caches partition
//! `p`'s block on executor `p % E` (tasks are pinned round-robin, so every
//! iteration's map task `p` finds its block executor-local), then each
//! iteration is a map/exchange/reduce shuffle job over the rank messages.
//! The same description runs standalone ([`run_local`]) or submitted to a
//! [`deca_engine::DecaServer`].
//!
//! The description owns its input: [`job`] generates the edge list once,
//! when it is called, and derives from it the two things that depend on
//! the input alone — the source-hash edge partitions and the out-degree
//! table. The adjacency-build stage, every lineage rebuild of a lost block
//! and every later run of the description borrow edge partition `p` from
//! that shared buffer (see the crate docs).

use std::collections::HashMap;
use std::sync::Mutex;

use deca_core::optimizer::ContainerDecision;
use deca_core::{DecaHashShuffle, Optimizer};
use deca_engine::record::HeapRecord;
use deca_engine::{
    AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx, MapOutputs,
    ShufflePayload, SparkGroupShuffle, SparkHashShuffle,
};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::datagen;
use crate::records::AdjListRec;
use crate::report::AppReport;
use crate::Partitioned;

/// Parameters of one PageRank run.
#[derive(Clone, Debug)]
pub struct PrParams {
    pub vertices: usize,
    pub edges: usize,
    pub iterations: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub mode: ExecutionMode,
    pub gc_algorithm: deca_heap::GcAlgorithm,
    pub storage_fraction: f64,
    pub seed: u64,
}

impl PrParams {
    pub fn small(mode: ExecutionMode) -> PrParams {
        PrParams {
            vertices: 5_000,
            edges: 60_000,
            iterations: 5,
            partitions: 4,
            heap_bytes: 32 << 20,
            mode,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            storage_fraction: 0.4,
            seed: 20160904,
        }
    }
}

/// Partition edges by source vertex, as Spark's hash partitioner would.
pub(crate) fn partition_edges(edges: &[(u32, u32)], partitions: usize) -> Partitioned<(u32, u32)> {
    Partitioned::by_key(edges, partitions, |&(s, _)| s as usize)
}

/// Group one partition's edges into sorted adjacency lists and copy them
/// into the executor's cache in the mode's representation (the §4.3.3
/// scenario: VST grouping buffer, decompose-on-copy cache output).
fn build_adjacency_block(
    e: &mut Executor,
    part: &[(u32, u32)],
    mode: ExecutionMode,
    adj_classes: &crate::records::AdjClasses,
) -> Result<deca_engine::cache::BlockId, EngineError> {
    // The grouping buffer holds heap objects in every mode — its content
    // is a VST while being built (§4.3.3).
    let mut buf: SparkGroupShuffle<u32, i64> = SparkGroupShuffle::new(&mut e.heap);
    for &(s, d) in part {
        buf.append(&mut e.heap, s, d as i64)?;
    }
    let mut adj: Vec<AdjListRec> = Vec::new();
    buf.for_each_group(&e.heap, |&vertex, values| {
        adj.push(AdjListRec { vertex, neighbors: values.into_iter().map(|v| v as u32).collect() });
    });
    adj.sort_by_key(|a| a.vertex);
    // Copy into the cache in the mode's representation, then release the
    // dying buffer.
    let block = match mode {
        ExecutionMode::Spark => {
            e.cache.put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, adj_classes, &adj)?
        }
        ExecutionMode::SparkSer => {
            e.cache.put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, &adj)?
        }
        ExecutionMode::Deca => e.cache.put_deca(&mut e.heap, &mut e.mm, &adj)?,
    };
    buf.release(&mut e.heap);
    Ok(block)
}

/// Build the adjacency cache (grouping stage) on one executor from
/// source-partitioned edges and return its block ids (ConnectedComponents'
/// single-executor path).
pub(crate) fn build_adjacency(
    exec: &mut Executor,
    parts: &Partitioned<(u32, u32)>,
    mode: ExecutionMode,
) -> Vec<deca_engine::cache::BlockId> {
    let adj_classes = AdjListRec::register(&mut exec.heap);
    parts
        .iter()
        .enumerate()
        .map(|(pi, part)| {
            exec.run_task(format!("adj-build-{pi}"), |e| {
                build_adjacency_block(e, part, mode, &adj_classes).expect("adjacency build")
            })
        })
        .collect()
}

/// Generate and aggregate one iteration's rank messages from one block.
/// Cache accesses propagate errors (rather than panicking) because the
/// cold-read path is fault-instrumented: an injected `SpillRead` kill
/// must surface as a failed task attempt the driver can retry. The Spark
/// arms' heap allocations and the Deca arm's page budget propagate theirs
/// too: a full heap is a memory-pressure error the stage engine spills and
/// re-runs on.
#[allow(clippy::too_many_arguments)] // one parameter per shuffle representation
fn messages_from_block(
    e: &mut Executor,
    block: deca_engine::cache::BlockId,
    mode: ExecutionMode,
    ranks: &[f64],
    degrees: &[u32],
    spark_sums: &mut Option<SparkHashShuffle<i64, f64>>,
    deca_sums: &mut Option<DecaHashShuffle>,
    pair_classes: &deca_engine::record::PairClasses,
) -> Result<(), EngineError> {
    match mode {
        ExecutionMode::Spark | ExecutionMode::SparkSer => {
            let buf = spark_sums.as_mut().expect("spark buffer");
            match mode {
                ExecutionMode::Spark => {
                    let (root, len) =
                        e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
                    for i in 0..len {
                        let arr = e.heap.root_ref(root);
                        let v = e.heap.array_get_ref(arr, i);
                        let vertex = e.heap.read_word(v, 0) as u32;
                        let edges_arr = e.heap.read_ref(v, 1);
                        let deg = degrees[vertex as usize].max(1) as f64;
                        let contrib = ranks[vertex as usize] / deg;
                        let n = e.heap.array_len(edges_arr);
                        for j in 0..n {
                            let arr = e.heap.root_ref(root);
                            let v = e.heap.array_get_ref(arr, i);
                            let edges_arr = e.heap.read_ref(v, 1);
                            let dst = e.heap.array_get_i32(edges_arr, j) as i64;
                            // Temporary message tuple, then eager combine.
                            let tmp = (dst, contrib).store(&mut e.heap, pair_classes)?;
                            let ts = e.heap.push_stack(tmp);
                            let (k, val) = <(i64, f64) as HeapRecord>::load(
                                &e.heap,
                                pair_classes,
                                e.heap.stack_ref(ts),
                            );
                            e.heap.truncate_stack(ts);
                            buf.insert(&mut e.heap, &k, val, |a, b| a + b)?;
                        }
                    }
                }
                _ => {
                    // SparkSer: deserialize adjacency, then emit as Spark.
                    let mut adj: Vec<AdjListRec> = Vec::new();
                    e.cache.iter_serialized(block, &mut e.heap, &mut e.kryo, &mut e.mm, |r| {
                        adj.push(r)
                    })?;
                    for a in adj {
                        let deg = degrees[a.vertex as usize].max(1) as f64;
                        let contrib = ranks[a.vertex as usize] / deg;
                        for &dst in &a.neighbors {
                            let tmp = (dst as i64, contrib).store(&mut e.heap, pair_classes)?;
                            let ts = e.heap.push_stack(tmp);
                            let (k, val) = <(i64, f64) as HeapRecord>::load(
                                &e.heap,
                                pair_classes,
                                e.heap.stack_ref(ts),
                            );
                            e.heap.truncate_stack(ts);
                            buf.insert(&mut e.heap, &k, val, |x, y| x + y)?;
                        }
                    }
                }
            }
        }
        ExecutionMode::Deca => {
            let buf = deca_sums.as_mut().expect("deca buffer");
            let heap = &mut e.heap;
            let mm = &mut e.mm;
            // Two-phase borrow: collect the (dst, contrib) stream from the
            // scan, then insert (the scan holds the cache borrow).
            let mut msgs: Vec<(i64, f64)> = Vec::new();
            let block = e.cache.deca_block(block);
            block.scan_bytes(
                mm,
                heap,
                |bytes| {
                    let vertex = u32::from_le_bytes(bytes[..4].try_into().unwrap());
                    let n = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
                    let deg = degrees[vertex as usize].max(1) as f64;
                    let contrib = ranks[vertex as usize] / deg;
                    for j in 0..n {
                        let dst =
                            u32::from_le_bytes(bytes[8 + j * 4..12 + j * 4].try_into().unwrap())
                                as i64;
                        msgs.push((dst, contrib));
                    }
                },
                |_| {},
            )?;
            let msgs = msgs.iter().map(|(dst, contrib)| (dst.to_le_bytes(), contrib.to_le_bytes()));
            buf.insert_all(mm, heap, msgs, add_f64_bytes)?;
        }
    }
    Ok(())
}

fn add_f64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = f64::from_le_bytes(acc[..8].try_into().unwrap());
    let b = f64::from_le_bytes(add[..8].try_into().unwrap());
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

/// Assert the Deca optimizer reproduces the §4.3.3 plan (VST grouping
/// buffer kept on the heap, adjacency cache decomposed on copy) before the
/// engine follows it. Driver-side, once per job.
fn assert_deca_plan() {
    let analysis = deca_udt::fixtures::group_by_program();
    let opt = Optimizer::new(&analysis.registry, &analysis.program);
    let phases = JobPhases::new()
        .phase("combine", analysis.build_entry)
        .phase("iterate", analysis.read_entry);
    let shuffle = deca_core::ContainerInfo {
        id: ContainerId(0),
        kind: ContainerKind::ShuffleBuffer,
        created_seq: 0,
        content: TypeRef::Udt(analysis.group),
        write_phase: 0,
    };
    let cache = deca_core::ContainerInfo {
        id: ContainerId(1),
        kind: ContainerKind::CachedRdd,
        created_seq: 1,
        content: TypeRef::Udt(analysis.group),
        write_phase: 0,
    };
    let plan = opt.plan(&phases, &[shuffle, cache], &[]);
    assert!(
        matches!(plan.decision(ContainerId(0)), ContainerDecision::Keep(_)),
        "the grouping buffer must stay on the heap (VST while combining)"
    );
    assert_eq!(
        plan.decision(ContainerId(1)),
        &ContainerDecision::DecomposeOnCopy,
        "the adjacency cache decomposes when the dying shuffle's output is copied"
    );
}

/// The executor configuration PageRank runs under (public so the
/// scheduler-equivalence tests can build sessions with the exact same
/// memory split, then vary retry policy and scheduler mode).
pub fn pr_config(params: &PrParams) -> ExecutorConfig {
    ExecutorConfig::new(params.mode, params.heap_bytes)
        .storage_fraction(params.storage_fraction)
        .gc_algorithm(params.gc_algorithm)
}

/// Run PageRank across `executors` parallel executors. The rank vector is
/// identical for any executor count: map task `p` always scans block `p`
/// (cached on executor `p % E`), and each reduce task combines mapper
/// subtotals in map-task order, so the f64 addition sequence per vertex
/// never depends on the cluster shape.
pub fn run_local(params: &PrParams, executors: usize) -> AppReport {
    crate::run_job_local(&job(params), pr_config(params), executors)
}

/// The PageRank job description: consumed by `DecaServer::submit` (via
/// `JobSpec::app`) and by the local shims above.
///
/// The adjacency cache is tracked per `(executor, partition)`: with the
/// static round-robin pinning every iteration's map task finds its block
/// executor-local, but a retried task that migrated rebuilds the block
/// deterministically from its edge partition first — Spark's lineage
/// story (§6.1) — so the scanned bytes, and hence the f64 message
/// sequence, are identical wherever the task lands.
pub fn job(params: &PrParams) -> AppJob {
    let params = params.clone();
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let parts = partition_edges(&edges, params.partitions);
    let mut degrees = vec![0u32; params.vertices];
    for &(s, _) in &edges {
        degrees[s as usize] += 1;
    }
    AppJob::new("PR", move |job_ctx| run_pagerank(&params, &parts, &degrees, job_ctx))
}

fn run_pagerank(
    params: &PrParams,
    parts: &Partitioned<(u32, u32)>,
    degrees: &[u32],
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    if params.mode == ExecutionMode::Deca {
        assert_deca_plan();
    }
    let mode = params.mode;

    // Grouping stage: partition p's adjacency block is cached on executor
    // p % E, where iteration map task p (same pinning) will scan it.
    let blocks: Mutex<HashMap<(usize, usize), deca_engine::cache::BlockId>> =
        Mutex::new(HashMap::new());
    {
        let blocks_now = &blocks;
        job_ctx.run_stage("adj-build", params.partitions, |ctx, e| {
            let adj_classes = AdjListRec::register(&mut e.heap);
            let block = build_adjacency_block(e, parts.part(ctx.task), mode, &adj_classes)?;
            blocks_now.lock().unwrap().insert((ctx.executor, ctx.task), block);
            Ok(())
        })?;
    }
    job_ctx.note_cache_bytes();

    let reducers = params.partitions;
    let mut ranks = vec![1.0f64; params.vertices];
    for iter in 0..params.iterations {
        let ranks_now = &ranks;
        let blocks_now = &blocks;
        let updates = job_ctx.run_shuffle_job(
            &format!("pr-iter{iter}"),
            params.partitions,
            reducers,
            // Map: scan the executor-local adjacency block, emit and
            // eagerly combine rank messages, then write per-reducer
            // runs (serialized in Spark modes, raw bytes in Deca).
            |ctx, e| {
                // A crash restart may have wiped the block the map built
                // (restart-in-place rehydrates only manifest-verified cold
                // blocks), so the handle is only trusted if the cache
                // still holds it — otherwise lineage recompute, exactly as
                // for a migrated attempt.
                let cached = blocks_now
                    .lock()
                    .unwrap()
                    .get(&(ctx.executor, ctx.task))
                    .copied()
                    .filter(|b| e.cache.contains(*b));
                let block = match cached {
                    Some(b) => b,
                    // Lineage recompute: this attempt migrated to an
                    // executor that never built partition `task`.
                    None => {
                        let adj_classes = AdjListRec::register(&mut e.heap);
                        let b = build_adjacency_block(e, parts.part(ctx.task), mode, &adj_classes)?;
                        blocks_now.lock().unwrap().insert((ctx.executor, ctx.task), b);
                        b
                    }
                };
                let pair_classes = <(i64, f64) as HeapRecord>::register(&mut e.heap);
                let mut spark_sums: Option<SparkHashShuffle<i64, f64>> = match mode {
                    ExecutionMode::Deca => None,
                    _ => Some(SparkHashShuffle::new(&mut e.heap)?),
                };
                let mut deca_sums: Option<DecaHashShuffle> = match mode {
                    ExecutionMode::Deca => Some(DecaHashShuffle::new(&mut e.mm, 8, 8)),
                    _ => None,
                };
                // Message emission + eager combining is the shuffle
                // write.
                e.shuffle_write_scope(|e| {
                    messages_from_block(
                        e,
                        block,
                        mode,
                        ranks_now,
                        degrees,
                        &mut spark_sums,
                        &mut deca_sums,
                        &pair_classes,
                    )
                })?;
                let out = e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                    // Spark modes serialize into pooled byte buffers
                    // (~2-byte tag + varint key + 8-byte f64 per record);
                    // Deca writes fixed 16-byte records into arena pages
                    // and hands them over without a copy.
                    if let Some(mut buf) = spark_sums.take() {
                        let cap = 16 * buf.len().div_ceil(reducers);
                        let mut out: Vec<Vec<u8>> =
                            (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                        let pairs = buf.drain(&e.heap);
                        e.kryo.time_ser(|kr| {
                            for (k, v) in pairs {
                                let r = (k as u64 % reducers as u64) as usize;
                                kr.serialize(&(k, v), &mut out[r]);
                            }
                        });
                        buf.release(&mut e.heap);
                        return Ok(out.into_iter().map(ShufflePayload::from).collect());
                    }
                    let mut buf = deca_sums.take().expect("one mode buffer exists");
                    let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                    let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                    buf.for_each(mm, heap, |k, v| {
                        let dst = i64::from_le_bytes(k[..8].try_into().unwrap());
                        let r = (dst as u64 % reducers as u64) as usize;
                        runs[r].push_parts(arena, &[k, v]);
                    })?;
                    buf.release(&mut e.mm, &mut e.heap);
                    Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
                })?;
                Ok(out)
            },
            // Reduce: sum per-destination subtotals in map-task order,
            // then apply the damped update for the received vertices.
            |_ctx, e, bufs| {
                let mut updates: Vec<(u32, f64)> = Vec::new();
                match mode {
                    ExecutionMode::Deca => {
                        let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
                        e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                            // 16-byte records never span pages; chunk
                            // concatenation is the exact flat sequence.
                            let recs = bufs
                                .iter()
                                .flat_map(|p| p.chunks())
                                .flat_map(|b| b.chunks_exact(16))
                                .map(|r| r.split_at(8));
                            buf.insert_all(&mut e.mm, &mut e.heap, recs, add_f64_bytes)?;
                            Ok(())
                        })?;
                        buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                            let dst = i64::from_le_bytes(k[..8].try_into().unwrap()) as u32;
                            let sum = f64::from_le_bytes(v[..8].try_into().unwrap());
                            updates.push((dst, 0.15 + 0.85 * sum));
                        })?;
                        buf.release(&mut e.mm, &mut e.heap);
                    }
                    _ => {
                        let mut buf: SparkHashShuffle<i64, f64> =
                            SparkHashShuffle::new(&mut e.heap)?;
                        e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                            for payload in bufs {
                                let bytes = payload.contiguous();
                                let pairs: Vec<(i64, f64)> = e.kryo.deserialize_all(&bytes);
                                for (k, v) in pairs {
                                    buf.insert(&mut e.heap, &k, v, |a, b| a + b)?;
                                }
                            }
                            Ok(())
                        })?;
                        buf.for_each(&e.heap, |k, v| {
                            updates.push((k as u32, 0.15 + 0.85 * v));
                        });
                        buf.release(&mut e.heap);
                    }
                }
                Ok(updates)
            },
        )?;

        // Damped update: vertices with no in-messages keep the 0.15 base.
        let mut next = vec![0.15f64; params.vertices];
        for task_updates in updates {
            for (dst, rank) in task_updates {
                next[dst as usize] = rank;
            }
        }
        ranks = next;
    }

    Ok(ranks.iter().sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(mode: ExecutionMode) -> PrParams {
        PrParams {
            vertices: 500,
            edges: 4_000,
            iterations: 3,
            partitions: 2,
            heap_bytes: 24 << 20,
            mode,
            gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
            storage_fraction: 0.4,
            seed: 3,
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
        crate::assert_description_owns_its_input(|| job(&p), pr_config(&p));
    }

    #[test]
    fn ranks_sum_is_conserved_reasonably() {
        // With damping 0.15/0.85 and dangling mass leakage, the sum stays
        // within sane bounds of |V|.
        let r = run_local(&tiny(ExecutionMode::Deca), 1);
        assert!(r.checksum > 0.15 * 500.0);
        assert!(r.checksum < 2.0 * 500.0);
    }

    #[test]
    fn executor_count_does_not_change_ranks() {
        for mode in ExecutionMode::ALL {
            let one = run_local(&tiny(mode), 1);
            let two = run_local(&tiny(mode), 2);
            assert_eq!(one.checksum, two.checksum, "{mode}: ranks must be bit-identical");
        }
    }
}
