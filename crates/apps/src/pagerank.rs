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
//! The adjacency stage and the iteration's shuffle job are shared with
//! ConnectedComponents ([`crate::concomp`]): `Adjacency` owns the cached
//! blocks and their lineage rebuild, and `exchange_messages` runs one
//! iteration for any `Messages` — rank contributions summed here, labels
//! min-ed there.
//!
//! The cached adjacency never changes, so every iteration's map task `p`
//! combines the same destinations, and every reducer the same vertices, as
//! the iteration before. `Adjacency` remembers how many keys each Deca
//! combine table held, and the next iteration's table for the same index
//! starts at that size ([`DecaHashShuffle::with_keys`]): only iteration 0
//! grows its tables page group by page group. The results stay
//! bit-identical, since a reducer combines each vertex's subtotals in
//! map-task order whatever the table order.
//!
//! The description owns its input: [`job`] generates the edge list once,
//! when it is called, and derives from it the two things that depend on
//! the input alone — the source-hash edge partitions and the out-degree
//! table. The adjacency-build stage, every lineage rebuild of a lost block
//! and every later run of the description borrow edge partition `p` from
//! that shared buffer (see the crate docs).

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use deca_core::optimizer::ContainerDecision;
use deca_core::{DecaHashShuffle, Optimizer};
use deca_engine::cache::BlockId;
use deca_engine::record::{HeapRecord, KryoRecord, PairClasses, Record};
use deca_engine::{
    AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx, MapOutputs,
    ShufflePayload, SparkGroupShuffle, SparkHashShuffle,
};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::cached::{CachedDataset, Repr};
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
/// into the executor's cache in `repr` (the §4.3.3 scenario: VST grouping
/// buffer, decompose-on-copy cache output).
fn build_adjacency_block(
    e: &mut Executor,
    part: &[(u32, u32)],
    repr: Repr,
) -> Result<BlockId, EngineError> {
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
    // Copy into the cache, then release the dying buffer.
    let block = repr.put(e, &adj)?;
    buf.release(&mut e.heap);
    Ok(block)
}

/// Deca's plan for the adjacency cache (§4.3.3): a group is a VST while the
/// grouping buffer builds it and fixed once copied out of the dying buffer,
/// so the cache decomposes on copy. Driver-side, once per job, over the
/// record the cache stores.
fn adjacency_decision() -> Result<ContainerDecision, EngineError> {
    let analysis = crate::records::adjacency_analysis()?;
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
    Ok(opt.plan(&phases, &[shuffle, cache], &[]).decision(ContainerId(1)).clone())
}

/// A graph job's cached adjacency, one block per edge partition (see
/// [`CachedDataset`]), the mode its message kernels run in, and the sizes
/// its Deca combine tables reached.
pub(crate) struct Adjacency<'a> {
    blocks: CachedDataset<'a>,
    mode: ExecutionMode,
    partitions: usize,
    map_tables: TableSizes,
    reduce_tables: TableSizes,
}

/// The distinct keys each map partition's (or each reducer's) Deca combine
/// table held when its task last completed. The next iteration's task for
/// the same index builds its table for that many keys. The count belongs
/// to the index, not to an executor, so a stolen, retried or speculative
/// attempt reads and writes the same value. A count is only a size hint
/// and publishes no other data, so the atomics are relaxed.
struct TableSizes {
    keys: Vec<AtomicUsize>,
    /// Growths of every recorded table.
    grows: AtomicU64,
}

impl TableSizes {
    fn new(tasks: usize) -> TableSizes {
        TableSizes {
            keys: (0..tasks).map(|_| AtomicUsize::new(0)).collect(),
            grows: AtomicU64::new(0),
        }
    }

    /// Task `index`'s table of 8-byte keys and values, sized for the keys
    /// its last run held.
    fn table(&self, e: &mut Executor, index: usize) -> DecaHashShuffle {
        DecaHashShuffle::with_keys(&mut e.mm, 8, 8, self.keys[index].load(Ordering::Relaxed))
    }

    /// Remember task `index`'s filled table for the next iteration.
    fn record(&self, index: usize, table: &DecaHashShuffle) {
        self.keys[index].store(table.len(), Ordering::Relaxed);
        self.grows.fetch_add(table.grows, Ordering::Relaxed);
    }
}

impl<'a> Adjacency<'a> {
    /// The grouping stage.
    pub(crate) fn build(
        job_ctx: &mut JobCtx,
        parts: &'a Partitioned<(u32, u32)>,
        mode: ExecutionMode,
    ) -> Result<Adjacency<'a>, EngineError> {
        let repr = Repr::plan(mode, adjacency_decision, None)?;
        let blocks =
            CachedDataset::load(job_ctx, "adj-build", parts.parts(), repr, |e, p, repr| {
                build_adjacency_block(e, parts.part(p), repr)
            })?;
        let partitions = parts.parts();
        Ok(Adjacency {
            blocks,
            mode,
            partitions,
            map_tables: TableSizes::new(partitions),
            reduce_tables: TableSizes::new(partitions),
        })
    }

    /// Growths of the recorded `(map, reduce)` Deca combine tables so far.
    #[cfg(test)]
    pub(crate) fn table_grows(&self) -> (u64, u64) {
        let grows = |t: &TableSizes| t.grows.load(Ordering::Relaxed);
        (grows(&self.map_tables), grows(&self.reduce_tables))
    }
}

/// A message value: 8 little-endian bytes in Deca's pages, a boxed scalar
/// in the Spark modes' `Tuple2` messages.
pub(crate) trait MsgValue: Record + Copy + Sync {
    fn to_bytes(self) -> [u8; 8];
    fn from_bytes(bytes: &[u8]) -> Self;
}

impl MsgValue for f64 {
    fn to_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> f64 {
        f64::from_le_bytes(bytes.as_chunks::<8>().0[0])
    }
}

impl MsgValue for i64 {
    fn to_bytes(self) -> [u8; 8] {
        self.to_le_bytes()
    }

    fn from_bytes(bytes: &[u8]) -> i64 {
        i64::from_le_bytes(bytes.as_chunks::<8>().0[0])
    }
}

/// What one iteration of a graph job sends along the cached edges, and how
/// the messages bound for one vertex combine.
pub(crate) trait Messages: Sync {
    type V: MsgValue;
    /// The `(destination, value)` messages of one edge.
    type Edge: IntoIterator<Item = (i64, Self::V)>;
    /// What `vertex` sends along each of its edges, computed once per
    /// adjacency list.
    fn sends(&self, vertex: u32) -> Self::V;
    /// The messages of the edge `vertex → dst`, `sent` being
    /// `self.sends(vertex)`.
    fn edge(&self, vertex: u32, sent: Self::V, dst: u32) -> Self::Edge;
    fn combine(a: Self::V, b: Self::V) -> Self::V;
}

fn combine_bytes<M: Messages>(acc: &mut [u8], add: &[u8]) {
    let combined = M::combine(M::V::from_bytes(acc), M::V::from_bytes(add));
    acc[..8].copy_from_slice(&combined.to_bytes());
}

/// A task's per-destination combine buffer in the mode's representation:
/// boxed objects on the heap (Spark, SparkSer) or page bytes (Deca).
enum Combiner<V: MsgValue> {
    Heap(SparkHashShuffle<i64, V>),
    Pages(DecaHashShuffle),
}

impl<V: MsgValue> Combiner<V> {
    /// Task `index`'s buffer; Deca sizes its table from `tables`.
    fn new(
        e: &mut Executor,
        mode: ExecutionMode,
        tables: &TableSizes,
        index: usize,
    ) -> Result<Combiner<V>, EngineError> {
        Ok(match mode {
            ExecutionMode::Deca => Combiner::Pages(tables.table(e, index)),
            _ => Combiner::Heap(SparkHashShuffle::new(&mut e.heap)?),
        })
    }
}

/// One Spark-mode message: a temporary `(dst, value)` tuple on the heap,
/// then an eager combine into the buffer.
fn send<M: Messages>(
    e: &mut Executor,
    buf: &mut SparkHashShuffle<i64, M::V>,
    pair_classes: &PairClasses,
    (dst, value): (i64, M::V),
) -> Result<(), EngineError>
where
    (i64, M::V): HeapRecord<Classes = PairClasses>,
{
    let tmp = (dst, value).store(&mut e.heap, pair_classes)?;
    let ts = e.heap.push_stack(tmp);
    let (k, v) = <(i64, M::V) as HeapRecord>::load(&e.heap, pair_classes, e.heap.stack_ref(ts));
    e.heap.truncate_stack(ts);
    buf.insert(&mut e.heap, &k, v, M::combine)?;
    Ok(())
}

/// Generate and combine one iteration's messages from one block. Cache
/// accesses propagate errors (rather than panicking) because the cold-read
/// path is fault-instrumented: an injected `SpillRead` kill must surface as
/// a failed task attempt the driver can retry. The Spark arms' heap
/// allocations and the Deca arm's page budget propagate theirs too: a full
/// heap is a memory-pressure error the stage engine spills and re-runs on.
fn messages_from_block<M: Messages>(
    e: &mut Executor,
    block: BlockId,
    mode: ExecutionMode,
    msgs: &M,
    combiner: &mut Combiner<M::V>,
) -> Result<(), EngineError>
where
    (i64, M::V): HeapRecord<Classes = PairClasses>,
{
    match combiner {
        Combiner::Heap(buf) if mode == ExecutionMode::Spark => {
            let pair_classes = <(i64, M::V) as HeapRecord>::register(&mut e.heap);
            let (root, len) = e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            // Walk the cached graph in place. Every message allocates, and
            // a collection may move the graph, so each edge is re-read
            // through the root.
            for i in 0..len {
                let v = e.heap.array_get_ref(e.heap.root_ref(root), i);
                let vertex = e.heap.read_word(v, 0) as u32;
                let sent = msgs.sends(vertex);
                let n = e.heap.array_len(e.heap.read_ref(v, 1));
                for j in 0..n {
                    let v = e.heap.array_get_ref(e.heap.root_ref(root), i);
                    let dst = e.heap.array_get_i32(e.heap.read_ref(v, 1), j) as u32;
                    for m in msgs.edge(vertex, sent, dst) {
                        send::<M>(e, buf, &pair_classes, m)?;
                    }
                }
            }
        }
        Combiner::Heap(buf) => {
            // SparkSer: deserialize the adjacency, then emit as Spark.
            let pair_classes = <(i64, M::V) as HeapRecord>::register(&mut e.heap);
            let mut adj: Vec<AdjListRec> = Vec::new();
            e.cache.iter_serialized(block, &mut e.heap, &mut e.kryo, &mut e.mm, |r| adj.push(r))?;
            for a in adj {
                let sent = msgs.sends(a.vertex);
                for &dst in &a.neighbors {
                    for m in msgs.edge(a.vertex, sent, dst) {
                        send::<M>(e, buf, &pair_classes, m)?;
                    }
                }
            }
        }
        Combiner::Pages(buf) => {
            let heap = &mut e.heap;
            let mm = &mut e.mm;
            // Two-phase borrow: collect the message stream from the scan,
            // then insert (the scan holds the cache borrow).
            let mut out: Vec<(i64, M::V)> = Vec::new();
            let block = e.cache.deca_block(block);
            block.scan_bytes(
                mm,
                heap,
                |bytes| {
                    let (vertex, neighbors) = AdjListRec::fields(bytes);
                    let sent = msgs.sends(vertex);
                    for &dst in neighbors {
                        out.extend(msgs.edge(vertex, sent, u32::from_le_bytes(dst)));
                    }
                },
                |_| {},
            )?;
            let pairs = out.iter().map(|(dst, v)| (dst.to_le_bytes(), v.to_bytes()));
            buf.insert_all(mm, heap, pairs, combine_bytes::<M>)?;
        }
    }
    Ok(())
}

/// One iteration of a graph job as the shuffle job `name`. Each map task
/// scans its adjacency block, emits `msgs`' messages and combines them per
/// destination, then writes per-reducer runs (Kryo-serialized in the Spark
/// modes, raw 16-byte records handed over without a copy in Deca). Each
/// reduce task combines its destinations' subtotals in map-task order, so
/// the combine sequence per vertex never depends on the cluster shape.
/// Returns every destination that received a message with its combined
/// value.
pub(crate) fn exchange_messages<M: Messages>(
    job_ctx: &mut JobCtx,
    name: &str,
    adj: &Adjacency,
    msgs: &M,
) -> Result<Vec<(u32, M::V)>, EngineError>
where
    (i64, M::V): HeapRecord<Classes = PairClasses> + KryoRecord,
{
    let (mode, reducers) = (adj.mode, adj.partitions);
    let combined = job_ctx.run_shuffle_job(
        name,
        reducers,
        reducers,
        |ctx, e| {
            let block = adj.blocks.block(ctx, e)?;
            let mut combiner = Combiner::new(e, mode, &adj.map_tables, ctx.task)?;
            // Message emission + eager combining is the shuffle write.
            e.shuffle_write_scope(|e| messages_from_block(e, block, mode, msgs, &mut combiner))?;
            e.shuffle_write_scope(|e| -> Result<MapOutputs, EngineError> {
                match combiner {
                    // Pooled byte buffers: ~2-byte tag + varint key +
                    // value per record.
                    Combiner::Heap(mut buf) => {
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
                        Ok(out.into_iter().map(ShufflePayload::from).collect())
                    }
                    Combiner::Pages(buf) => {
                        adj.map_tables.record(ctx.task, &buf);
                        let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                        let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                        buf.for_each(mm, heap, |k, v| {
                            let r = (<i64 as MsgValue>::from_bytes(k) as u64 % reducers as u64)
                                as usize;
                            runs[r].push_parts(arena, &[k, v]);
                        })?;
                        buf.release(&mut e.mm, &mut e.heap);
                        Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
                    }
                }
            })
        },
        |ctx, e, bufs| {
            let mut out: Vec<(u32, M::V)> = Vec::new();
            match Combiner::new(e, mode, &adj.reduce_tables, ctx.task)? {
                Combiner::Pages(mut buf) => {
                    e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                        // 16-byte records never span pages; chunk
                        // concatenation is the exact flat sequence.
                        let recs = bufs
                            .iter()
                            .flat_map(|p| p.chunks())
                            .flat_map(|b| b.chunks_exact(16))
                            .map(|r| r.split_at(8));
                        buf.insert_all(&mut e.mm, &mut e.heap, recs, combine_bytes::<M>)?;
                        Ok(())
                    })?;
                    adj.reduce_tables.record(ctx.task, &buf);
                    buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                        out.push((<i64 as MsgValue>::from_bytes(k) as u32, M::V::from_bytes(v)));
                    })?;
                    buf.release(&mut e.mm, &mut e.heap);
                }
                Combiner::Heap(mut buf) => {
                    e.shuffle_read_scope(|e| -> Result<(), EngineError> {
                        for payload in bufs {
                            let bytes = payload.contiguous();
                            let pairs: Vec<(i64, M::V)> = e.kryo.deserialize_all(&bytes);
                            for (k, v) in pairs {
                                buf.insert(&mut e.heap, &k, v, M::combine)?;
                            }
                        }
                        Ok(())
                    })?;
                    buf.for_each(&e.heap, |k, v| out.push((k as u32, v)));
                    buf.release(&mut e.heap);
                }
            }
            Ok(out)
        },
    )?;
    Ok(combined.into_iter().flatten().collect())
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
pub fn job(params: &PrParams) -> AppJob {
    let params = params.clone();
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let parts = partition_edges(&edges, params.partitions);
    let degrees = out_degrees(&edges, params.vertices);
    AppJob::new("PR", move |job_ctx| run_pagerank(&params, &parts, &degrees, job_ctx))
}

/// Each vertex's out-degree.
fn out_degrees(edges: &[(u32, u32)], vertices: usize) -> Vec<u32> {
    let mut degrees = vec![0u32; vertices];
    for &(s, _) in edges {
        degrees[s as usize] += 1;
    }
    degrees
}

/// A PageRank iteration's messages: each vertex sends its rank divided by
/// its out-degree along every out-edge, and a vertex's messages sum.
struct Contributions<'a> {
    ranks: &'a [f64],
    degrees: &'a [u32],
}

impl Messages for Contributions<'_> {
    type V = f64;
    type Edge = [(i64, f64); 1];

    fn sends(&self, vertex: u32) -> f64 {
        self.ranks[vertex as usize] / self.degrees[vertex as usize].max(1) as f64
    }

    fn edge(&self, _vertex: u32, contrib: f64, dst: u32) -> [(i64, f64); 1] {
        [(dst as i64, contrib)]
    }

    fn combine(a: f64, b: f64) -> f64 {
        a + b
    }
}

fn run_pagerank(
    params: &PrParams,
    parts: &Partitioned<(u32, u32)>,
    degrees: &[u32],
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    let adj = Adjacency::build(job_ctx, parts, params.mode)?;
    let mut ranks = vec![1.0f64; params.vertices];
    for iter in 0..params.iterations {
        ranks = pagerank_iteration(job_ctx, iter, &adj, degrees, &ranks)?;
    }
    Ok(ranks.iter().sum())
}

/// Iteration `iter`: the ranks that follow `ranks`.
fn pagerank_iteration(
    job_ctx: &mut JobCtx,
    iter: usize,
    adj: &Adjacency,
    degrees: &[u32],
    ranks: &[f64],
) -> Result<Vec<f64>, EngineError> {
    let msgs = Contributions { ranks, degrees };
    let sums = exchange_messages(job_ctx, &format!("pr-iter{iter}"), adj, &msgs)?;
    // Damped update: vertices with no in-messages keep the 0.15 base.
    let mut next = vec![0.15f64; ranks.len()];
    for (dst, sum) in sums {
        next[dst as usize] = 0.15 + 0.85 * sum;
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_engine::ClusterSession;

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
        crate::assert_description_owns_its_input(|| job(&p), pr_config(&p), 1);
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

    /// A graph whose map partitions and reducers each combine more keys
    /// than a one-page table holds (4 096 slots of a 64 KiB page, 2 867 at
    /// the 0.7 load threshold).
    fn paged(mode: ExecutionMode) -> PrParams {
        PrParams { vertices: 16_000, edges: 40_000, ..tiny(mode) }
    }

    #[test]
    fn deca_tables_grow_only_in_iteration_0_and_ranks_match_spark_bit_for_bit() {
        let p = paged(ExecutionMode::Deca);
        let edges = datagen::power_law_graph(p.vertices, p.edges, p.seed);
        let (parts, degrees) =
            (partition_edges(&edges, p.partitions), out_degrees(&edges, p.vertices));
        for executors in [1, 2] {
            let mut session = ClusterSession::new(executors, pr_config(&p));
            let mut ctx = JobCtx::local(&mut session);
            let adj = Adjacency::build(&mut ctx, &parts, p.mode).unwrap();
            let mut ranks = vec![1.0f64; p.vertices];
            let mut grows = Vec::new();
            for iter in 0..p.iterations {
                ranks = pagerank_iteration(&mut ctx, iter, &adj, &degrees, &ranks).unwrap();
                grows.push(adj.table_grows());
            }
            let (map, reduce) = grows[0];
            assert!(map > 0 && reduce > 0, "iteration 0 outgrows one page: {grows:?}");
            assert!(grows.iter().all(|&g| g == grows[0]), "no later table grows: {grows:?}");
            let spark = run_local(&paged(ExecutionMode::Spark), executors).checksum.to_bits();
            assert_eq!(ranks.iter().sum::<f64>().to_bits(), spark, "x{executors}");
            assert_eq!(run_local(&p, executors).checksum.to_bits(), spark, "x{executors}");
        }
    }

    /// PageRank's Deca combine tables grow as recorded under `pr-pressure`'s
    /// storage budget on one executor (the shape `tests/deca_memory_cost.rs`
    /// pins the job's pages for; the counter is crate-private, so its pin
    /// lives here). Values recorded from the commit before the app records
    /// became one declaration each.
    #[test]
    fn spilling_tables_grow_as_recorded() {
        let mut p = PrParams::small(ExecutionMode::Deca);
        (p.vertices, p.edges, p.iterations, p.heap_bytes) = (2_000, 20_000, 3, 8 << 20);
        p.storage_fraction = 0.0001;
        let edges = datagen::power_law_graph(p.vertices, p.edges, p.seed);
        let (parts, degrees) =
            (partition_edges(&edges, p.partitions), out_degrees(&edges, p.vertices));
        let mut session = ClusterSession::new(1, pr_config(&p));
        let mut ctx = JobCtx::local(&mut session);
        let adj = Adjacency::build(&mut ctx, &parts, p.mode).unwrap();
        let mut ranks = vec![1.0f64; p.vertices];
        let mut grows = Vec::new();
        for iter in 0..p.iterations {
            ranks = pagerank_iteration(&mut ctx, iter, &adj, &degrees, &ranks).unwrap();
            grows.push(adj.table_grows());
        }
        assert_eq!(grows, [(0, 0); 3]);
    }
}
