//! The exploratory SQL queries of §6.6 (Table 6), over synthetic
//! `rankings` and `uservisits` tables:
//!
//! ```sql
//! -- Query 1
//! SELECT pageURL, pageRank FROM rankings WHERE pageRank > 100;
//! -- Query 2
//! SELECT SUBSTR(sourceIP,1,5), SUM(adRevenue) FROM uservisits
//! GROUP BY SUBSTR(sourceIP,1,5);
//! ```
//!
//! plus the suite's join query (an *extension*: the paper reports Q1/Q2
//! but discusses the join pathology in §6.5):
//!
//! ```sql
//! -- Query 3
//! SELECT SUBSTR(sourceIP,1,5), SUM(adRevenue), AVG(pageRank)
//! FROM uservisits UV JOIN rankings R ON UV.urlId = R.urlId
//! GROUP BY SUBSTR(sourceIP,1,5);
//! ```
//!
//! Three systems, as in the paper: hand-written RDD programs on **Spark**
//! (row objects on the heap) and **Deca** (decomposed rows), plus a
//! **Spark SQL** simulation — serialized column-oriented in-memory tables
//! (project Tungsten-style), scanned without materialising row objects and
//! aggregated in a serialized hash buffer.
//!
//! A query is a two-stage job ([`job`]): a load stage caches the tables'
//! partitions, then a query stage scans them and aggregates. Each stage is
//! one task, so it runs on lane 0 and the floating-point sums of Q2 and Q3
//! keep one order. Table 6 times the query stage alone
//! ([`SqlQuery::stage`]). The query is the tables' last use: it releases
//! the blocks it read. An attempt that finds its blocks gone — it migrated,
//! or a crash wiped them — rebuilds them from the description's tables
//! first, as PageRank's map rebuilds its adjacency.

use std::collections::HashMap;
use std::sync::Mutex;

use deca_core::{DecaHashShuffle, DecaRecord};
use deca_engine::cache::{BlockId, CacheManager};
use deca_engine::record::{HeapRecord, OnHeap, Page, Record, View};
use deca_engine::{
    AppJob, EngineError, ExecutionMode, Executor, ExecutorConfig, JobCtx, SparkHashShuffle,
};

use crate::datagen;
use crate::records::{JoinAggRec, RankingRec, UserVisitRec};
use crate::report::AppReport;
use crate::Partitioned;

/// Which system executes the query.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SqlSystem {
    Spark,
    SparkSql,
    Deca,
}

impl SqlSystem {
    pub fn name(self) -> &'static str {
        match self {
            SqlSystem::Spark => "Spark",
            SqlSystem::SparkSql => "Spark SQL",
            SqlSystem::Deca => "Deca",
        }
    }

    pub const ALL: [SqlSystem; 3] = [SqlSystem::Spark, SqlSystem::SparkSql, SqlSystem::Deca];

    fn engine_mode(self) -> ExecutionMode {
        match self {
            SqlSystem::Spark => ExecutionMode::Spark,
            // SparkSql's columnar chunks are byte blocks; the engine mode
            // only sizes the heap.
            SqlSystem::SparkSql => ExecutionMode::SparkSer,
            SqlSystem::Deca => ExecutionMode::Deca,
        }
    }
}

/// The query a job runs.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SqlQuery {
    /// Query 1: a filter on `rankings`.
    Filter,
    /// Query 2: a group-by aggregation on `uservisits`.
    GroupBy,
    /// Query 3: `uservisits` joined with `rankings`, then grouped.
    Join,
}

impl SqlQuery {
    pub const ALL: [SqlQuery; 3] = [SqlQuery::Filter, SqlQuery::GroupBy, SqlQuery::Join];

    /// The job's name.
    pub fn name(self) -> &'static str {
        match self {
            SqlQuery::Filter => "SQL-Q1",
            SqlQuery::GroupBy => "SQL-Q2",
            SqlQuery::Join => "SQL-Q3",
        }
    }

    /// The query stage's name; Table 6 reports this stage's times.
    pub fn stage(self) -> &'static str {
        match self {
            SqlQuery::Filter => "q1-filter",
            SqlQuery::GroupBy => "q2-groupby",
            SqlQuery::Join => "q3-join",
        }
    }

    fn load_stage(self) -> &'static str {
        match self {
            SqlQuery::Filter => "q1-cache",
            SqlQuery::GroupBy => "q2-cache",
            SqlQuery::Join => "q3-cache",
        }
    }
}

/// Parameters of the SQL experiment.
#[derive(Clone, Debug)]
pub struct SqlParams {
    pub rankings_rows: usize,
    pub uservisits_rows: usize,
    pub groups: usize,
    pub partitions: usize,
    pub heap_bytes: usize,
    pub system: SqlSystem,
    pub seed: u64,
}

impl SqlParams {
    pub fn small(system: SqlSystem) -> SqlParams {
        SqlParams {
            rankings_rows: 50_000,
            uservisits_rows: 100_000,
            groups: 2_000,
            partitions: 4,
            heap_bytes: 48 << 20,
            system,
            seed: 20160906,
        }
    }
}

/// The executor configuration the SQL queries run under.
pub fn sql_config(params: &SqlParams) -> ExecutorConfig {
    ExecutorConfig::new(params.system.engine_mode(), params.heap_bytes)
}

/// Run one query across `executors` executors (its two stages are one
/// task each, so the extra executors stay idle).
pub fn run_local(params: &SqlParams, query: SqlQuery, executors: usize) -> AppReport {
    crate::run_job_local(&job(params, query), sql_config(params), executors)
}

/// The job description of one query: consumed by `DecaServer::submit`
/// (via `JobSpec::app`) and by [`run_local`]. It generates the tables the
/// query reads, once, when it is called.
pub fn job(params: &SqlParams, query: SqlQuery) -> AppJob {
    let rankings = || {
        Partitioned::split(datagen::rankings(params.rankings_rows, params.seed), params.partitions)
    };
    let visits = |url_space: Option<i64>| {
        let mut rows = datagen::uservisits(params.uservisits_rows, params.groups, params.seed + 1);
        if let Some(urls) = url_space {
            // The generator draws visit urls from 0..1M; the join needs
            // them to hit the rankings' urls.
            rows.iter_mut().for_each(|v| v.url_id %= urls);
        }
        Partitioned::split(rows, params.partitions)
    };
    let system = params.system;
    let tables = match query {
        SqlQuery::Filter => {
            Tables { system, rankings: Some(rankings()), visits: None, urls: false }
        }
        SqlQuery::GroupBy => {
            Tables { system, rankings: None, visits: Some(visits(None)), urls: false }
        }
        SqlQuery::Join => Tables {
            system,
            rankings: Some(rankings()),
            visits: Some(visits(Some(params.rankings_rows as i64))),
            urls: true,
        },
    };
    AppJob::new(query.name(), move |job_ctx| run_query(&tables, query, job_ctx))
}

/// The tables one query reads, generated when its description is built.
struct Tables {
    system: SqlSystem,
    rankings: Option<Partitioned<RankingRec>>,
    visits: Option<Partitioned<UserVisitRec>>,
    /// The visits' columnar chunks carry the `urlId` column (the join
    /// reads it; the group-by does not).
    urls: bool,
}

/// One executor's cached copy of the tables: a block per partition.
#[derive(Clone, Default)]
struct Cached {
    rankings: Vec<BlockId>,
    visits: Vec<BlockId>,
}

impl Cached {
    fn blocks(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.rankings.iter().chain(&self.visits).copied()
    }

    fn release(&self, e: &mut Executor) {
        for b in self.blocks() {
            if e.cache.contains(b) {
                e.cache.release(b, &mut e.heap, &mut e.mm);
            }
        }
    }
}

impl Tables {
    /// Cache every partition of every table in the system's representation:
    /// row objects (Spark), decomposed rows (Deca) or one byte block of
    /// columns per partition (Spark SQL).
    fn load(&self, e: &mut Executor) -> Result<Cached, EngineError> {
        let mut cached = Cached::default();
        if let Some(parts) = &self.rankings {
            for p in parts.iter() {
                cached.rankings.push(self.put(e, p, rank_columns)?);
            }
        }
        if let Some(parts) = &self.visits {
            for p in parts.iter() {
                cached.visits.push(self.put(e, p, |rows| visit_columns(rows, self.urls))?);
            }
        }
        Ok(cached)
    }

    fn put<T: Record + 'static>(
        &self,
        e: &mut Executor,
        rows: &[T],
        columns: impl Fn(&[T]) -> Vec<u8>,
    ) -> Result<BlockId, EngineError>
    where
        T::Classes: 'static,
    {
        Ok(match self.system {
            SqlSystem::Spark => {
                let classes = T::register(&mut e.heap);
                e.cache.put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, rows)?
            }
            SqlSystem::Deca => e.cache.put_deca(&mut e.heap, &mut e.mm, rows)?,
            SqlSystem::SparkSql => {
                let chunk = columns(rows);
                e.cache.put_bytes(&mut e.heap, &mut e.kryo, &mut e.mm, &chunk, rows.len())?
            }
        })
    }
}

/// A `rankings` columnar chunk: the url column (i64), then the rank column
/// (i32).
fn rank_columns(rows: &[RankingRec]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(12 * rows.len());
    buf.extend(rows.iter().flat_map(|r| r.url_id.to_le_bytes()));
    buf.extend(rows.iter().flat_map(|r| r.page_rank.to_le_bytes()));
    buf
}

/// A `uservisits` columnar chunk: the ip column, the url column if `urls`,
/// then the revenue column (8 bytes each).
fn visit_columns(rows: &[UserVisitRec], urls: bool) -> Vec<u8> {
    let mut buf = Vec::with_capacity(24 * rows.len());
    buf.extend(rows.iter().flat_map(|v| v.ip_prefix.to_le_bytes()));
    if urls {
        buf.extend(rows.iter().flat_map(|v| v.url_id.to_le_bytes()));
    }
    buf.extend(rows.iter().flat_map(|v| v.ad_revenue.to_le_bytes()));
    buf
}

fn run_query(tables: &Tables, query: SqlQuery, job_ctx: &mut JobCtx) -> Result<f64, EngineError> {
    let cached: Mutex<HashMap<usize, Cached>> = Mutex::default();
    job_ctx.run_stage(query.load_stage(), 1, |ctx, e| {
        let loaded = tables.load(e)?;
        crate::lock(&cached).insert(ctx.executor, loaded);
        Ok(())
    })?;
    job_ctx.note_cache_bytes();
    let checksum = job_ctx.run_stage(query.stage(), 1, |ctx, e| {
        let found = crate::lock(&cached).get(&ctx.executor).cloned();
        let tables_here = match found {
            Some(c) if c.blocks().all(|b| e.cache.contains(b)) => c,
            stale => {
                // Lineage recompute: this attempt migrated, or a crash
                // wiped some of the blocks (the survivors go too).
                if let Some(c) = stale {
                    c.release(e);
                }
                let loaded = tables.load(e)?;
                crate::lock(&cached).insert(ctx.executor, loaded.clone());
                loaded
            }
        };
        let checksum = match query {
            SqlQuery::Filter => filter(e, tables.system, &tables_here)?,
            SqlQuery::GroupBy => group_by(e, tables.system, &tables_here)?,
            SqlQuery::Join => join(e, tables.system, &tables_here)?,
        };
        crate::lock(&cached).remove(&ctx.executor);
        tables_here.release(e);
        Ok(checksum)
    })?;
    Ok(checksum[0])
}

fn add_f64_bytes(acc: &mut [u8], add: &[u8]) {
    let sum = f64_at(acc, 0) + f64_at(add, 0);
    acc[..8].copy_from_slice(&sum.to_le_bytes());
}

fn f64_at(bytes: &[u8], i: usize) -> f64 {
    f64::from_le_bytes(bytes.as_chunks::<8>().0[i])
}

fn i64_at(bytes: &[u8], i: usize) -> i64 {
    i64::from_le_bytes(bytes.as_chunks::<8>().0[i])
}

/// A group's weight in the Q2/Q3 checksums.
fn group_weight(ip: i64) -> f64 {
    (ip as f64 + 1.0).ln_1p()
}

/// A join group's value in the Q3 checksum: revenue plus average rank.
fn join_value(a: &JoinAggRec) -> f64 {
    a.revenue + a.rank_sum / a.count.max(1) as f64
}

/// Sum a page-backed aggregate's groups, each weighted by its key, and
/// release it.
fn sum_groups(
    e: &mut Executor,
    agg: DecaHashShuffle,
    value: impl Fn(&[u8]) -> f64,
) -> Result<f64, EngineError> {
    let mut sum = 0.0;
    agg.for_each(&mut e.mm, &mut e.heap, |k, v| sum += group_weight(i64_at(k, 0)) * value(v))?;
    agg.release(&mut e.mm, &mut e.heap);
    Ok(sum)
}

/// Each row of a row-store block of `R`s (Spark's heap objects, Deca's
/// pages), read through its view: a row is its own view.
fn each_row<R>(
    e: &mut Executor,
    system: SqlSystem,
    b: BlockId,
    mut f: impl FnMut(R),
) -> Result<(), EngineError>
where
    for<'a> R: View<Fields<'a, OnHeap> = R> + View<Fields<'a, Page> = R>,
{
    if system == SqlSystem::Deca {
        let (heap, mm) = (&mut e.heap, &mut e.mm);
        return Ok(e.cache.deca_block(b).scan_bytes(mm, heap, |row| f(R::fields(row)), |_| {})?);
    }
    let cls = R::register(&mut e.heap);
    let (root, len) = e.cache.objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
    for i in 0..len {
        f(R::heap_fields(&e.heap, &cls, CacheManager::object(&e.heap, root, i)));
    }
    Ok(())
}

/// Query 1: count the rankings above 100 and sum their ranks.
fn filter(e: &mut Executor, system: SqlSystem, c: &Cached) -> Result<f64, EngineError> {
    let (mut count, mut ranksum) = (0u64, 0i64);
    let mut keep = |rank: i32| {
        if rank > 100 {
            count += 1;
            ranksum += rank as i64;
        }
    };
    for &b in &c.rankings {
        if system != SqlSystem::SparkSql {
            each_row(e, system, b, |r: RankingRec| keep(r.page_rank))?;
            continue;
        }
        let (chunk, n) = e.cache.read_bytes(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
        for &rank in chunk[8 * n..].as_chunks::<4>().0 {
            keep(i32::from_le_bytes(rank));
        }
    }
    Ok(count as f64 + ranksum as f64 / 1e9)
}

/// Query 2: sum revenue per ip prefix.
fn group_by(e: &mut Executor, system: SqlSystem, c: &Cached) -> Result<f64, EngineError> {
    if system == SqlSystem::Spark {
        // Row objects -> temp pair per row -> heap hash agg with
        // boxed-Double combine churn.
        let cls = UserVisitRec::register(&mut e.heap);
        let pair_classes = <(i64, f64) as HeapRecord>::register(&mut e.heap);
        let mut agg: SparkHashShuffle<i64, f64> = SparkHashShuffle::new(&mut e.heap)?;
        for &b in &c.visits {
            let (root, len) = e.cache.objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            for i in 0..len {
                let row = CacheManager::object(&e.heap, root, i);
                let visit = UserVisitRec::heap_fields(&e.heap, &cls, row);
                let tmp = (visit.ip_prefix, visit.ad_revenue).store(&mut e.heap, &pair_classes)?;
                let ts = e.heap.push_stack(tmp);
                let (k, v) =
                    <(i64, f64) as HeapRecord>::load(&e.heap, &pair_classes, e.heap.stack_ref(ts));
                e.heap.truncate_stack(ts);
                agg.insert(&mut e.heap, &k, v, |a, b| a + b)?;
            }
        }
        let mut sum = 0.0;
        agg.for_each(&e.heap, |k, v| sum += group_weight(k) * v);
        agg.release(&mut e.heap);
        return Ok(sum);
    }
    // Deca's decomposed rows and Spark SQL's columns both aggregate in a
    // page-backed hash buffer (it models Tungsten's serialized shuffle
    // state well).
    let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 8);
    for &b in &c.visits {
        if system == SqlSystem::Deca {
            let mut pairs: Vec<(i64, f64)> = Vec::new();
            each_row(e, system, b, |v: UserVisitRec| pairs.push((v.ip_prefix, v.ad_revenue)))?;
            let pairs = pairs.iter().map(|(ip, rev)| (ip.to_le_bytes(), rev.to_le_bytes()));
            agg.insert_all(&mut e.mm, &mut e.heap, pairs, add_f64_bytes)?;
        } else {
            let (chunk, n) = e.cache.read_bytes(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            let (ips, revs) = chunk.split_at(8 * n);
            let rows = ips.chunks_exact(8).zip(revs.chunks_exact(8));
            agg.insert_all(&mut e.mm, &mut e.heap, rows, add_f64_bytes)?;
        }
    }
    sum_groups(e, agg, |v| f64_at(v, 0))
}

/// Query 3: build url → pageRank from `rankings`, probe it per visit, and
/// aggregate revenue, rank sum and count per ip prefix. The aggregate is a
/// 24-byte SFST value per group. In Spark every probe's output materialises
/// a temporary aggregate object and every combine allocates a new one;
/// Deca and the columnar engine combine in place.
fn join(e: &mut Executor, system: SqlSystem, c: &Cached) -> Result<f64, EngineError> {
    let mut build: HashMap<i64, i32> = HashMap::new();
    for &b in &c.rankings {
        if system != SqlSystem::SparkSql {
            each_row(e, system, b, |r: RankingRec| {
                build.insert(r.url_id, r.page_rank);
            })?;
            continue;
        }
        let (chunk, n) = e.cache.read_bytes(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
        let (urls, ranks) = chunk.split_at(8 * n);
        for (url, rank) in urls.as_chunks::<8>().0.iter().zip(ranks.as_chunks::<4>().0) {
            build.insert(i64::from_le_bytes(*url), i32::from_le_bytes(*rank));
        }
    }
    let delta = |rev: f64, rank: i32| JoinAggRec { revenue: rev, rank_sum: rank as f64, count: 1 };

    if system == SqlSystem::Spark {
        let cls = UserVisitRec::register(&mut e.heap);
        let agg_classes = JoinAggRec::register(&mut e.heap);
        let mut agg: SparkHashShuffle<i64, JoinAggRec> = SparkHashShuffle::new(&mut e.heap)?;
        for &b in &c.visits {
            let (root, len) = e.cache.objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            for i in 0..len {
                let row = CacheManager::object(&e.heap, root, i);
                let v = UserVisitRec::heap_fields(&e.heap, &cls, row);
                if let Some(&rank) = build.get(&v.url_id) {
                    // Probe output materialises a temp aggregate.
                    let tmp = delta(v.ad_revenue, rank).store(&mut e.heap, &agg_classes)?;
                    let ts = e.heap.push_stack(tmp);
                    let d = JoinAggRec::load(&e.heap, &agg_classes, e.heap.stack_ref(ts));
                    e.heap.truncate_stack(ts);
                    agg.insert(&mut e.heap, &v.ip_prefix, d, JoinAggRec::merge)?;
                }
            }
        }
        let mut sum = 0.0;
        agg.for_each(&e.heap, |k, v| sum += group_weight(k) * join_value(&v));
        agg.release(&mut e.heap);
        return Ok(sum);
    }
    let agg_bytes = |ip: i64, d: JoinAggRec| {
        let mut bytes = [0u8; 24];
        d.encode(&mut bytes);
        (ip.to_le_bytes(), bytes)
    };
    let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 24);
    for &b in &c.visits {
        if system == SqlSystem::Deca {
            let mut deltas: Vec<(i64, JoinAggRec)> = Vec::new();
            each_row(e, system, b, |v: UserVisitRec| {
                if let Some(&rank) = build.get(&v.url_id) {
                    deltas.push((v.ip_prefix, delta(v.ad_revenue, rank)));
                }
            })?;
            let deltas = deltas.iter().map(|&(ip, d)| agg_bytes(ip, d));
            agg.insert_all(&mut e.mm, &mut e.heap, deltas, JoinAggRec::combine_bytes)?;
        } else {
            let (chunk, n) = e.cache.read_bytes(b, &mut e.heap, &mut e.kryo, &mut e.mm)?;
            let (ips, rest) = chunk.split_at(8 * n);
            let (urls, revs) = rest.split_at(8 * n);
            let deltas = (0..n).filter_map(|i| {
                let &rank = build.get(&i64_at(urls, i))?;
                Some(agg_bytes(i64_at(ips, i), delta(f64_at(revs, i), rank)))
            });
            agg.insert_all(&mut e.mm, &mut e.heap, deltas, JoinAggRec::combine_bytes)?;
        }
    }
    sum_groups(e, agg, |v| join_value(&JoinAggRec::decode(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_engine::ClusterSession;

    fn tiny(system: SqlSystem) -> SqlParams {
        SqlParams {
            rankings_rows: 5_000,
            uservisits_rows: 10_000,
            groups: 200,
            partitions: 2,
            heap_bytes: 24 << 20,
            system,
            seed: 77,
        }
    }

    fn across_systems(query: SqlQuery) -> [f64; 3] {
        SqlSystem::ALL.map(|system| run_local(&tiny(system), query, 1).checksum)
    }

    #[test]
    fn query1_agrees_across_systems() {
        let [a, b, c] = across_systems(SqlQuery::Filter);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert!(a > 0.0);
    }

    #[test]
    fn query2_agrees_across_systems() {
        let [a, b, c] = across_systems(SqlQuery::GroupBy);
        assert!((a - c).abs() < 1e-6);
        assert!((b - c).abs() < 1e-6);
    }

    #[test]
    fn query3_join_agrees_across_systems() {
        let [a, b, c] = across_systems(SqlQuery::Join);
        assert!((a - c).abs() < 1e-6 * c.abs().max(1.0));
        assert!((b - c).abs() < 1e-6 * c.abs().max(1.0));
        assert!(c > 0.0);
    }

    #[test]
    fn row_cache_is_larger_than_columnar_and_deca() {
        let [spark, sql, deca] =
            SqlSystem::ALL.map(|system| run_local(&tiny(system), SqlQuery::GroupBy, 1));
        assert!(spark.cache_bytes > sql.cache_bytes, "Table 6: Spark cache largest");
        assert!(spark.cache_bytes > deca.cache_bytes);
        assert!(sql.cache_bytes > 0, "the columnar chunks are cached blocks");
    }

    #[test]
    fn executor_count_does_not_change_results() {
        for system in SqlSystem::ALL {
            for query in SqlQuery::ALL {
                let one = run_local(&tiny(system), query, 1).checksum;
                for executors in [2, 4] {
                    let wide = run_local(&tiny(system), query, executors).checksum;
                    assert_eq!(one.to_bits(), wide.to_bits(), "{query:?} {system:?} x{executors}");
                }
            }
        }
    }

    #[test]
    fn the_description_generates_its_input_once_and_runs_never_do() {
        let p = tiny(SqlSystem::Deca);
        for (query, tables) in [(SqlQuery::Filter, 1), (SqlQuery::GroupBy, 1), (SqlQuery::Join, 2)]
        {
            crate::assert_description_owns_its_input(|| job(&p, query), sql_config(&p), tables);
        }
    }

    #[test]
    fn a_sparksql_query_leaves_no_heap_roots_behind() {
        let p = tiny(SqlSystem::SparkSql);
        let app = job(&p, SqlQuery::GroupBy);
        let mut session = ClusterSession::new(1, sql_config(&p));
        let roots = |s: &ClusterSession| s.executor(0).heap.root_count();
        crate::run_job_on(&app, &mut session).unwrap();
        let after_first = roots(&session);
        crate::run_job_on(&app, &mut session).unwrap();
        assert_eq!(roots(&session), after_first, "the second run's chunks were dropped too");
    }
}
