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
//! Each iteration's messages go through the combine-by-key shuffle
//! ([`crate::combine`]) with integer keys: the map reads its block as the
//! plan stored it (heap objects, Kryo bytes or pages) and the table, picked
//! by the mode, combines what it emits.
//!
//! The cached adjacency never changes, so every iteration's map task `p`
//! combines the same destinations, and every reducer the same vertices, as
//! the iteration before. `Adjacency` remembers how many keys each Deca
//! combine table held ([`TableSizes`]), and the next iteration's table for
//! the same index starts at that size: only iteration 0 grows its tables
//! page group by page group. The results stay bit-identical, since a
//! reducer combines each vertex's subtotals in map-task order whatever the
//! table order.
//!
//! The description owns its input: [`job`] generates the edge list once,
//! when it is called, and derives from it the two things that depend on
//! the input alone — the source-hash edge partitions and the out-degree
//! table. The adjacency-build stage, every lineage rebuild of a lost block
//! and every later run of the description borrow edge partition `p` from
//! that shared buffer (see the crate docs).

use std::marker::PhantomData;

use deca_core::optimizer::ContainerDecision;
use deca_core::Optimizer;
use deca_engine::cache::BlockId;
use deca_engine::{
    AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx, SparkGroupShuffle,
    TaskContext,
};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::cached::{CachedDataset, Repr};
use crate::combine::{self, IntKeys, Shuffle, TableSizes, Value};
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
    let grouped = part.iter().try_for_each(|&(s, d)| buf.append(&mut e.heap, s, d as i64));
    let block = grouped.map_err(EngineError::from).and_then(|()| {
        let mut adj: Vec<AdjListRec> = Vec::new();
        buf.for_each_group(&e.heap, |&vertex, values| {
            let neighbors = values.into_iter().map(|v| v as u32).collect();
            adj.push(AdjListRec { vertex, neighbors });
        });
        adj.sort_by_key(|a| a.vertex);
        // Copy into the cache before the buffer dies.
        repr.put(e, &adj)
    });
    // The dying buffer is released on every exit.
    buf.release(&mut e.heap);
    block
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

/// Decides Deca's layout of the adjacency cache; an error is the plan's.
pub(crate) type Decide = fn() -> Result<ContainerDecision, EngineError>;

/// A graph job's cached adjacency, one block per edge partition (see
/// [`CachedDataset`]), the mode its message shuffles run in, and the sizes
/// its Deca combine tables reached.
pub(crate) struct Adjacency<'a> {
    blocks: CachedDataset<'a>,
    mode: ExecutionMode,
    partitions: usize,
    tables: TableSizes,
}

impl<'a> Adjacency<'a> {
    /// The grouping stage, its cache planned as [`adjacency_decision`]
    /// decides.
    pub(crate) fn build(
        job_ctx: &mut JobCtx,
        parts: &'a Partitioned<(u32, u32)>,
        mode: ExecutionMode,
    ) -> Result<Adjacency<'a>, EngineError> {
        Adjacency::planned_by(job_ctx, parts, mode, adjacency_decision)
    }

    /// The grouping stage, its cache planned as `decide` decides.
    pub(crate) fn planned_by(
        job_ctx: &mut JobCtx,
        parts: &'a Partitioned<(u32, u32)>,
        mode: ExecutionMode,
        decide: Decide,
    ) -> Result<Adjacency<'a>, EngineError> {
        let repr = Repr::plan(mode, decide, None)?;
        let blocks =
            CachedDataset::load(job_ctx, "adj-build", parts.parts(), repr, |e, p, repr| {
                build_adjacency_block(e, parts.part(p), repr)
            })?;
        let partitions = parts.parts();
        Ok(Adjacency { blocks, mode, partitions, tables: TableSizes::new(partitions) })
    }

    /// Growths of the recorded `(map, reduce)` Deca combine tables so far.
    #[cfg(test)]
    pub(crate) fn table_grows(&self) -> (u64, u64) {
        self.tables.grows()
    }
}

/// What one iteration of a graph job sends along the cached edges, and how
/// the messages bound for one vertex combine.
pub(crate) trait Messages: Sync {
    type V: Value;
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

/// One iteration's messages from partition `ctx.task`'s block, read as the
/// block stores them. Cache accesses propagate errors (rather than
/// panicking) because the cold-read path is fault-instrumented: an
/// injected `SpillRead` kill must surface as a failed task attempt the
/// driver can retry.
fn messages<M: Messages>(
    ctx: &TaskContext,
    e: &mut Executor,
    adj: &Adjacency,
    msgs: &M,
) -> Result<Vec<(i64, M::V)>, EngineError> {
    let block = adj.blocks.block(ctx, e)?;
    let mut out: Vec<(i64, M::V)> = Vec::new();
    match adj.blocks.repr() {
        Repr::Objects => {
            // Walk the cached graph in place; nothing allocates meanwhile.
            let (root, len) = e.cache.objects_root(block, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            let heap = &e.heap;
            let lists = heap.root_ref(root);
            for i in 0..len {
                let list = heap.array_get_ref(lists, i);
                let neighbors = heap.read_ref(list, 1);
                let dsts =
                    (0..heap.array_len(neighbors)).map(|j| heap.array_get_i32(neighbors, j) as u32);
                send(msgs, &mut out, heap.read_word(list, 0) as u32, dsts);
            }
        }
        Repr::Serialized => {
            e.cache.iter_serialized(
                block,
                &mut e.heap,
                &mut e.kryo,
                &mut e.mm,
                |a: AdjListRec| send(msgs, &mut out, a.vertex, a.neighbors.iter().copied()),
            )?;
        }
        Repr::Pages { .. } => {
            let (heap, mm) = (&mut e.heap, &mut e.mm);
            e.cache.deca_block(block).scan_bytes(
                mm,
                heap,
                |bytes| {
                    let (vertex, neighbors) = AdjListRec::fields(bytes);
                    let dsts = neighbors.iter().map(|&dst| u32::from_le_bytes(dst));
                    send(msgs, &mut out, vertex, dsts);
                },
                |_| {},
            )?;
        }
    }
    Ok(out)
}

/// The messages `vertex` sends to its `neighbors`, appended to `out`.
fn send<M: Messages>(
    msgs: &M,
    out: &mut Vec<(i64, M::V)>,
    vertex: u32,
    neighbors: impl Iterator<Item = u32>,
) {
    let sent = msgs.sends(vertex);
    for dst in neighbors {
        out.extend(msgs.edge(vertex, sent, dst));
    }
}

/// One iteration of a graph job as the combine-by-key shuffle `name`. Each
/// map task reads its adjacency block, emits `msgs`' messages and combines
/// them per destination. Each reduce task combines its destinations'
/// subtotals in map-task order, so the combine sequence per vertex never
/// depends on the cluster shape. Returns every destination that received a
/// message with its combined value.
pub(crate) fn exchange_messages<M: Messages>(
    job_ctx: &mut JobCtx,
    name: &str,
    adj: &Adjacency,
    msgs: &M,
) -> Result<Vec<(u32, M::V)>, EngineError> {
    let shuffle = Shuffle {
        name,
        keys: PhantomData::<IntKeys>,
        mode: adj.mode,
        partitions: adj.partitions,
        partition: combine::modulo,
        combine: M::combine,
        sizes: Some(&adj.tables),
    };
    let combined = shuffle.run(
        job_ctx,
        |ctx, e, table| {
            let sent = messages(ctx, e, adj, msgs)?;
            table.insert_all(e, sent)
        },
        |out: &mut Vec<(u32, M::V)>, dst: i64, v: M::V| out.push((dst as u32, v)),
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
    job_planned_by(params, adjacency_decision)
}

/// [`job`] with the adjacency cache planned by `decide` instead of the
/// job's own analysis.
pub(crate) fn job_planned_by(params: &PrParams, decide: Decide) -> AppJob {
    let params = params.clone();
    let edges = datagen::power_law_graph(params.vertices, params.edges, params.seed);
    let parts = partition_edges(&edges, params.partitions);
    let degrees = out_degrees(&edges, params.vertices);
    AppJob::new("PR", move |job_ctx| run_pagerank(&params, &parts, &degrees, decide, job_ctx))
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
    decide: Decide,
    job_ctx: &mut JobCtx,
) -> Result<f64, EngineError> {
    let adj = Adjacency::planned_by(job_ctx, parts, params.mode, decide)?;
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

    /// The map reads a block as the plan stored it, and the combine table
    /// follows the mode: a Deca job whose adjacency plan keeps heap objects
    /// walks object blocks, combines in pages, and ranks as Spark does.
    #[test]
    fn a_kept_adjacency_is_read_as_objects_and_combined_in_pages() {
        use deca_core::optimizer::KeepReason;
        let p = tiny(ExecutionMode::Deca);
        let keep: Decide = || Ok(ContainerDecision::Keep(KeepReason::Variable));
        let mut session = ClusterSession::new(2, pr_config(&p));
        let (checksum, _) = crate::run_job_on(&job_planned_by(&p, keep), &mut session).unwrap();
        let spark = run_local(&tiny(ExecutionMode::Spark), 2).checksum;
        assert_eq!(checksum.to_bits(), spark.to_bits(), "ranks drifted");
        let mut stored = 0;
        for e in &mut session.cluster_mut().executors {
            for b in e.cache.blocks_of_job(0) {
                let (_, len) =
                    e.cache.objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm).unwrap();
                assert!(len > 0, "an empty object block");
                stored += 1;
            }
        }
        // A stolen task caches its own copy of the block it reads.
        assert!(stored >= p.partitions, "an object block per partition");
        let maps: Vec<_> = session.stages().iter().filter(|s| s.name.ends_with("-map")).collect();
        assert_eq!(maps.len(), p.iterations);
        assert!(maps.iter().all(|s| s.shuffle_pages > 0), "map outputs are page runs");
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
