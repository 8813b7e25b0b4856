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
//! Three systems, as in the paper: hand-written RDD programs on **Spark**
//! (row objects on the heap) and **Deca** (decomposed rows), plus a
//! **Spark SQL** simulation — serialized column-oriented in-memory tables
//! (project Tungsten-style), scanned without materialising row objects and
//! aggregated in a serialized hash buffer.

use deca_core::{DecaHashShuffle, DecaRecord};
use deca_engine::record::HeapRecord;
use deca_engine::{ExecutionMode, Executor, ExecutorConfig, SparkHashShuffle};
use deca_heap::FieldKind;

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
            // SparkSql's columnar store is modelled separately; the engine
            // mode only sizes the heap.
            SqlSystem::SparkSql => ExecutionMode::SparkSer,
            SqlSystem::Deca => ExecutionMode::Deca,
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

/// Columnar table chunks for the Spark SQL simulation: each column is one
/// heap `byte[]` (few objects; typed scans at fixed strides).
struct ColumnarRankings {
    roots: Vec<(deca_heap::RootId, usize)>, // (byte[] root, rows)
}

struct ColumnarVisits {
    roots: Vec<(deca_heap::RootId, usize)>,
}

fn byte_array_class(heap: &mut deca_heap::Heap) -> deca_heap::ClassId {
    match heap.registry().by_name("byte[]") {
        Some(c) => c,
        None => heap.define_array_class("byte[]", FieldKind::I8),
    }
}

fn add_f64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = f64::from_le_bytes(acc[..8].try_into().unwrap());
    let b = f64::from_le_bytes(add[..8].try_into().unwrap());
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

/// A join aggregate's 24 decomposed bytes, as the aggregation buffer
/// stores them.
fn agg_bytes(delta: &JoinAggRec) -> [u8; 24] {
    let mut bytes = [0u8; 24];
    delta.encode(&mut bytes);
    bytes
}

/// Result of one query run.
pub struct SqlReport {
    pub report: AppReport,
}

/// Run Query 1 (filter on `rankings`).
pub fn run_query1(params: &SqlParams) -> AppReport {
    let mut exec =
        Executor::new(ExecutorConfig::new(params.system.engine_mode(), params.heap_bytes));
    let parts =
        Partitioned::split(datagen::rankings(params.rankings_rows, params.seed), params.partitions);
    let classes = RankingRec::register(&mut exec.heap);

    // ------------------------------------------------------------ cache
    enum Cached {
        Blocks(Vec<deca_engine::cache::BlockId>),
        Columnar(ColumnarRankings),
    }
    let cached = exec.run_task("q1-cache", |e| match params.system {
        SqlSystem::Spark => Cached::Blocks(
            parts
                .iter()
                .map(|p| {
                    e.cache
                        .put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, p)
                        .expect("cache put")
                })
                .collect(),
        ),
        SqlSystem::Deca => Cached::Blocks(
            parts
                .iter()
                .map(|p| e.cache.put_deca(&mut e.heap, &mut e.mm, p).expect("cache put"))
                .collect(),
        ),
        SqlSystem::SparkSql => {
            // Column-oriented serialized chunks: url i64 col + rank i32 col.
            let cls = byte_array_class(&mut e.heap);
            let roots = parts
                .iter()
                .map(|p| {
                    let bytes = 12 * p.len();
                    let arr = e.heap.alloc_array(cls, bytes).expect("column chunk");
                    let mut buf = vec![0u8; bytes];
                    for (i, r) in p.iter().enumerate() {
                        buf[i * 8..i * 8 + 8].copy_from_slice(&r.url_id.to_le_bytes());
                        let off = 8 * p.len() + i * 4;
                        buf[off..off + 4].copy_from_slice(&r.page_rank.to_le_bytes());
                    }
                    e.heap.byte_array_write(arr, 0, &buf);
                    (e.heap.add_root(arr), p.len())
                })
                .collect();
            Cached::Columnar(ColumnarRankings { roots })
        }
    });
    exec.finish_job();
    let cache_bytes = match &cached {
        Cached::Blocks(_) => exec.job.cache_bytes,
        Cached::Columnar(c) => c.roots.iter().map(|&(_, n)| n * 12 + 16).sum(),
    };
    exec.job = Default::default();

    // ------------------------------------------------------------ query
    let checksum = exec.run_task("q1-filter", |e| {
        let mut count = 0u64;
        let mut ranksum = 0i64;
        match &cached {
            Cached::Blocks(blocks) => {
                for &b in blocks {
                    match params.system {
                        SqlSystem::Spark => {
                            let (root, len) = e
                                .cache
                                .objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)
                                .expect("cache access");
                            for i in 0..len {
                                let arr = e.heap.root_ref(root);
                                let row = e.heap.array_get_ref(arr, i);
                                let rank = e.heap.read_word(row, 1) as u32 as i32;
                                if rank > 100 {
                                    count += 1;
                                    ranksum += rank as i64;
                                }
                            }
                        }
                        SqlSystem::Deca => {
                            let heap = &mut e.heap;
                            let mm = &mut e.mm;
                            let block = e.cache.deca_block(b);
                            block
                                .scan_bytes(
                                    mm,
                                    heap,
                                    |bytes| {
                                        // `pageRank` is the third 4-byte word.
                                        let rank = i32::from_le_bytes(bytes.as_chunks::<4>().0[2]);
                                        if rank > 100 {
                                            count += 1;
                                            ranksum += rank as i64;
                                        }
                                    },
                                    |_| {},
                                )
                                .expect("scan");
                        }
                        SqlSystem::SparkSql => unreachable!(),
                    }
                }
            }
            Cached::Columnar(c) => {
                for &(root, n) in &c.roots {
                    let arr = e.heap.root_ref(root);
                    let mut col = vec![0u8; 4 * n];
                    e.heap.byte_array_read(arr, 8 * n, &mut col);
                    for i in 0..n {
                        let rank = i32::from_le_bytes(col[i * 4..i * 4 + 4].try_into().unwrap());
                        if rank > 100 {
                            count += 1;
                            ranksum += rank as i64;
                        }
                    }
                }
            }
        }
        count as f64 + ranksum as f64 / 1e9
    });

    exec.finish_job();
    AppReport {
        app: "SQL-Q1".into(),
        mode: params.system.engine_mode(),
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

/// Run Query 2 (group-by aggregation on `uservisits`).
pub fn run_query2(params: &SqlParams) -> AppReport {
    let mut exec =
        Executor::new(ExecutorConfig::new(params.system.engine_mode(), params.heap_bytes));
    let parts = Partitioned::split(
        datagen::uservisits(params.uservisits_rows, params.groups, params.seed + 1),
        params.partitions,
    );
    let classes = UserVisitRec::register(&mut exec.heap);
    let pair_classes = <(i64, f64) as HeapRecord>::register(&mut exec.heap);

    enum Cached {
        Blocks(Vec<deca_engine::cache::BlockId>),
        Columnar(ColumnarVisits),
    }
    let cached = exec.run_task("q2-cache", |e| match params.system {
        SqlSystem::Spark => Cached::Blocks(
            parts
                .iter()
                .map(|p| {
                    e.cache
                        .put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, p)
                        .expect("cache put")
                })
                .collect(),
        ),
        SqlSystem::Deca => Cached::Blocks(
            parts
                .iter()
                .map(|p| e.cache.put_deca(&mut e.heap, &mut e.mm, p).expect("cache put"))
                .collect(),
        ),
        SqlSystem::SparkSql => {
            let cls = byte_array_class(&mut e.heap);
            let roots = parts
                .iter()
                .map(|p| {
                    // ip col (i64) + revenue col (f64)
                    let bytes = 16 * p.len();
                    let arr = e.heap.alloc_array(cls, bytes).expect("column chunk");
                    let mut buf = vec![0u8; bytes];
                    for (i, r) in p.iter().enumerate() {
                        buf[i * 8..i * 8 + 8].copy_from_slice(&r.ip_prefix.to_le_bytes());
                        let off = 8 * p.len() + i * 8;
                        buf[off..off + 8].copy_from_slice(&r.ad_revenue.to_le_bytes());
                    }
                    e.heap.byte_array_write(arr, 0, &buf);
                    (e.heap.add_root(arr), p.len())
                })
                .collect();
            Cached::Columnar(ColumnarVisits { roots })
        }
    });
    exec.finish_job();
    let cache_bytes = match &cached {
        Cached::Blocks(_) => exec.job.cache_bytes,
        Cached::Columnar(c) => c.roots.iter().map(|&(_, n)| n * 16 + 16).sum(),
    };
    exec.job = Default::default();

    let checksum = exec.run_task("q2-groupby", |e| {
        match &cached {
            Cached::Blocks(blocks) => match params.system {
                SqlSystem::Spark => {
                    // Row objects -> temp pair per row -> heap hash agg
                    // with boxed-Double combine churn.
                    let mut agg: SparkHashShuffle<i64, f64> =
                        SparkHashShuffle::new(&mut e.heap).expect("agg buffer");
                    for &b in blocks {
                        let (root, len) = e
                            .cache
                            .objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)
                            .expect("cache access");
                        for i in 0..len {
                            let arr = e.heap.root_ref(root);
                            let row = e.heap.array_get_ref(arr, i);
                            let ip = e.heap.read_i64(row, 0);
                            let rev = e.heap.read_f64(row, 2);
                            let tmp = (ip, rev).store(&mut e.heap, &pair_classes).expect("temp");
                            let ts = e.heap.push_stack(tmp);
                            let (k, v) = <(i64, f64) as HeapRecord>::load(
                                &e.heap,
                                &pair_classes,
                                e.heap.stack_ref(ts),
                            );
                            e.heap.truncate_stack(ts);
                            agg.insert(&mut e.heap, &k, v, |a, b| a + b).expect("combine");
                        }
                    }
                    let mut sum = 0.0;
                    agg.for_each(&e.heap, |k, v| sum += (k as f64 + 1.0).ln_1p() * v);
                    agg.release(&mut e.heap);
                    sum
                }
                SqlSystem::Deca => {
                    let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 8);
                    for &b in blocks {
                        let heap = &mut e.heap;
                        let mm = &mut e.mm;
                        let mut pairs: Vec<(i64, f64)> = Vec::new();
                        let block = e.cache.deca_block(b);
                        block
                            .scan_bytes(
                                mm,
                                heap,
                                |bytes| {
                                    let (words, _) = bytes.as_chunks::<8>();
                                    let ip = i64::from_le_bytes(words[0]);
                                    pairs.push((ip, f64::from_le_bytes(words[2])));
                                },
                                |_| {},
                            )
                            .expect("scan");
                        let pairs =
                            pairs.iter().map(|(ip, rev)| (ip.to_le_bytes(), rev.to_le_bytes()));
                        agg.insert_all(mm, heap, pairs, add_f64_bytes).expect("combine");
                    }
                    let mut sum = 0.0;
                    agg.for_each(&mut e.mm, &mut e.heap, |k, v| {
                        let ip = i64::from_le_bytes(k[..8].try_into().unwrap());
                        let rev = f64::from_le_bytes(v[..8].try_into().unwrap());
                        sum += (ip as f64 + 1.0).ln_1p() * rev;
                    })
                    .expect("scan");
                    agg.release(&mut e.mm, &mut e.heap);
                    sum
                }
                SqlSystem::SparkSql => unreachable!(),
            },
            Cached::Columnar(c) => {
                // Tungsten-style: columnar scan + serialized agg buffer
                // (a Deca page-backed hash buffer models Tungsten's
                // serialized shuffle state well).
                let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 8);
                for &(root, n) in &c.roots {
                    let arr = e.heap.root_ref(root);
                    let mut buf = vec![0u8; 16 * n];
                    e.heap.byte_array_read(arr, 0, &mut buf);
                    let (ips, revs) = buf.split_at(8 * n);
                    let rows = ips.chunks_exact(8).zip(revs.chunks_exact(8));
                    agg.insert_all(&mut e.mm, &mut e.heap, rows, add_f64_bytes).expect("combine");
                }
                let mut sum = 0.0;
                agg.for_each(&mut e.mm, &mut e.heap, |k, v| {
                    let ip = i64::from_le_bytes(k[..8].try_into().unwrap());
                    let rev = f64::from_le_bytes(v[..8].try_into().unwrap());
                    sum += (ip as f64 + 1.0).ln_1p() * rev;
                })
                .expect("scan");
                agg.release(&mut e.mm, &mut e.heap);
                sum
            }
        }
    });

    exec.finish_job();
    AppReport {
        app: "SQL-Q2".into(),
        mode: params.system.engine_mode(),
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

/// Run Query 3 — the join query of the same exploratory benchmark suite
/// (an *extension*: the paper reports Q1/Q2 but discusses the join
/// pathology in §6.5):
///
/// ```sql
/// SELECT SUBSTR(sourceIP,1,5), SUM(adRevenue), AVG(pageRank)
/// FROM uservisits UV JOIN rankings R ON UV.urlId = R.urlId
/// GROUP BY SUBSTR(sourceIP,1,5);
/// ```
///
/// The build side (rankings) is probed per visit; the aggregate buffer
/// holds a 24-byte SFST value per group. In Spark mode every probe's
/// output materialises a temporary aggregate object and every combine
/// allocates a new one; Deca and the columnar engine combine in place.
pub fn run_query3(params: &SqlParams) -> AppReport {
    let mut exec =
        Executor::new(ExecutorConfig::new(params.system.engine_mode(), params.heap_bytes));
    // url space must overlap: rankings urls are 0..rankings_rows, and the
    // generator draws visit urls from 0..1M — restrict for join hits.
    let rankings: Vec<RankingRec> = datagen::rankings(params.rankings_rows, params.seed);
    let visits: Vec<UserVisitRec> =
        datagen::uservisits(params.uservisits_rows, params.groups, params.seed + 1)
            .into_iter()
            .map(|mut v| {
                v.url_id %= params.rankings_rows as i64;
                v
            })
            .collect();
    let rank_parts = Partitioned::split(rankings, params.partitions);
    let visit_parts = Partitioned::split(visits, params.partitions);
    let r_classes = RankingRec::register(&mut exec.heap);
    let v_classes = UserVisitRec::register(&mut exec.heap);
    let agg_classes = JoinAggRec::register(&mut exec.heap);

    enum Cached {
        Blocks { rank: Vec<deca_engine::cache::BlockId>, visit: Vec<deca_engine::cache::BlockId> },
        Columnar { rank: Vec<(deca_heap::RootId, usize)>, visit: Vec<(deca_heap::RootId, usize)> },
    }
    let cached = exec.run_task("q3-cache", |e| match params.system {
        SqlSystem::Spark => Cached::Blocks {
            rank: rank_parts
                .iter()
                .map(|p| {
                    e.cache
                        .put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &r_classes, p)
                        .expect("cache put")
                })
                .collect(),
            visit: visit_parts
                .iter()
                .map(|p| {
                    e.cache
                        .put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &v_classes, p)
                        .expect("cache put")
                })
                .collect(),
        },
        SqlSystem::Deca => Cached::Blocks {
            rank: rank_parts
                .iter()
                .map(|p| e.cache.put_deca(&mut e.heap, &mut e.mm, p).expect("cache put"))
                .collect(),
            visit: visit_parts
                .iter()
                .map(|p| e.cache.put_deca(&mut e.heap, &mut e.mm, p).expect("cache put"))
                .collect(),
        },
        SqlSystem::SparkSql => {
            let cls = byte_array_class(&mut e.heap);
            let mut pack = |rows: &[Vec<u8>]| -> Vec<(deca_heap::RootId, usize)> {
                rows.iter()
                    .map(|buf| {
                        let arr = e.heap.alloc_array(cls, buf.len()).expect("column chunk");
                        e.heap.byte_array_write(arr, 0, buf);
                        (e.heap.add_root(arr), buf.len())
                    })
                    .collect()
            };
            // rankings: url col (i64) + rank col (i32); visits: ip col +
            // url col (i64) + revenue col (f64).
            let rank_chunks: Vec<Vec<u8>> = rank_parts
                .iter()
                .map(|p| {
                    let mut buf = vec![0u8; 12 * p.len()];
                    for (i, r) in p.iter().enumerate() {
                        buf[i * 8..i * 8 + 8].copy_from_slice(&r.url_id.to_le_bytes());
                        let off = 8 * p.len() + i * 4;
                        buf[off..off + 4].copy_from_slice(&r.page_rank.to_le_bytes());
                    }
                    buf
                })
                .collect();
            let visit_chunks: Vec<Vec<u8>> = visit_parts
                .iter()
                .map(|p| {
                    let mut buf = vec![0u8; 24 * p.len()];
                    for (i, v) in p.iter().enumerate() {
                        buf[i * 8..i * 8 + 8].copy_from_slice(&v.ip_prefix.to_le_bytes());
                        let off = 8 * p.len() + i * 8;
                        buf[off..off + 8].copy_from_slice(&v.url_id.to_le_bytes());
                        let off = 16 * p.len() + i * 8;
                        buf[off..off + 8].copy_from_slice(&v.ad_revenue.to_le_bytes());
                    }
                    buf
                })
                .collect();
            Cached::Columnar { rank: pack(&rank_chunks), visit: pack(&visit_chunks) }
        }
    });
    exec.finish_job();
    let cache_bytes = exec.job.cache_bytes
        + match &cached {
            Cached::Columnar { rank, visit } => {
                rank.iter().chain(visit).map(|&(_, n)| n + 16).sum()
            }
            _ => 0,
        };
    exec.job = Default::default();

    let checksum = exec.run_task("q3-join", |e| {
        // Build side: url -> pageRank.
        let mut build: std::collections::HashMap<i64, i32> = std::collections::HashMap::new();
        match &cached {
            Cached::Blocks { rank, .. } => {
                for &b in rank {
                    match params.system {
                        SqlSystem::Spark => {
                            let (root, len) = e
                                .cache
                                .objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)
                                .expect("cache access");
                            for i in 0..len {
                                let arr = e.heap.root_ref(root);
                                let row = e.heap.array_get_ref(arr, i);
                                build.insert(
                                    e.heap.read_i64(row, 0),
                                    e.heap.read_word(row, 1) as u32 as i32,
                                );
                            }
                        }
                        SqlSystem::Deca => {
                            let heap = &mut e.heap;
                            let mm = &mut e.mm;
                            let block = e.cache.deca_block(b);
                            block
                                .scan_bytes(
                                    mm,
                                    heap,
                                    |bytes| {
                                        let r = RankingRec::decode(bytes);
                                        build.insert(r.url_id, r.page_rank);
                                    },
                                    |_| {},
                                )
                                .expect("scan");
                        }
                        SqlSystem::SparkSql => unreachable!(),
                    }
                }
            }
            Cached::Columnar { rank, .. } => {
                for &(root, bytes) in rank {
                    let n = bytes / 12;
                    let arr = e.heap.root_ref(root);
                    let mut buf = vec![0u8; bytes];
                    e.heap.byte_array_read(arr, 0, &mut buf);
                    for i in 0..n {
                        let url = i64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
                        let off = 8 * n + i * 4;
                        let rank = i32::from_le_bytes(buf[off..off + 4].try_into().unwrap());
                        build.insert(url, rank);
                    }
                }
            }
        }

        // Probe + aggregate per ip group.
        match (&cached, params.system) {
            (Cached::Blocks { visit, .. }, SqlSystem::Spark) => {
                let mut agg: SparkHashShuffle<i64, JoinAggRec> =
                    SparkHashShuffle::new(&mut e.heap).expect("agg buffer");
                for &b in visit {
                    let (root, len) = e
                        .cache
                        .objects_root(b, &mut e.heap, &mut e.kryo, &mut e.mm)
                        .expect("cache access");
                    for i in 0..len {
                        let arr = e.heap.root_ref(root);
                        let row = e.heap.array_get_ref(arr, i);
                        let ip = e.heap.read_i64(row, 0);
                        let url = e.heap.read_i64(row, 1);
                        let rev = e.heap.read_f64(row, 2);
                        if let Some(&rank) = build.get(&url) {
                            // Probe output materialises a temp aggregate.
                            let delta =
                                JoinAggRec { revenue: rev, rank_sum: rank as f64, count: 1 };
                            let tmp = delta.store(&mut e.heap, &agg_classes).expect("temp agg");
                            let ts = e.heap.push_stack(tmp);
                            let delta =
                                JoinAggRec::load(&e.heap, &agg_classes, e.heap.stack_ref(ts));
                            e.heap.truncate_stack(ts);
                            agg.insert(&mut e.heap, &ip, delta, JoinAggRec::merge)
                                .expect("combine");
                        }
                    }
                }
                let mut sum = 0.0;
                agg.for_each(&e.heap, |k, v| {
                    sum +=
                        (k as f64 + 1.0).ln_1p() * (v.revenue + v.rank_sum / v.count.max(1) as f64);
                });
                agg.release(&mut e.heap);
                sum
            }
            (Cached::Blocks { visit, .. }, SqlSystem::Deca) => {
                let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 24);
                for &b in visit {
                    let heap = &mut e.heap;
                    let mm = &mut e.mm;
                    let mut deltas: Vec<(i64, JoinAggRec)> = Vec::new();
                    let block = e.cache.deca_block(b);
                    block
                        .scan_bytes(
                            mm,
                            heap,
                            |bytes| {
                                let v = UserVisitRec::decode(bytes);
                                if let Some(&rank) = build.get(&v.url_id) {
                                    deltas.push((
                                        v.ip_prefix,
                                        JoinAggRec {
                                            revenue: v.ad_revenue,
                                            rank_sum: rank as f64,
                                            count: 1,
                                        },
                                    ));
                                }
                            },
                            |_| {},
                        )
                        .expect("scan");
                    let deltas =
                        deltas.iter().map(|(ip, delta)| (ip.to_le_bytes(), agg_bytes(delta)));
                    agg.insert_all(mm, heap, deltas, JoinAggRec::combine_bytes).expect("combine");
                }
                let mut sum = 0.0;
                agg.for_each(&mut e.mm, &mut e.heap, |k, v| {
                    let ip = i64::from_le_bytes(k[..8].try_into().unwrap());
                    let a = JoinAggRec::decode(v);
                    sum += (ip as f64 + 1.0).ln_1p()
                        * (a.revenue + a.rank_sum / a.count.max(1) as f64);
                })
                .expect("scan");
                agg.release(&mut e.mm, &mut e.heap);
                sum
            }
            (Cached::Columnar { visit, .. }, _) => {
                let mut agg = DecaHashShuffle::new(&mut e.mm, 8, 24);
                for &(root, bytes) in visit {
                    let n = bytes / 24;
                    let arr = e.heap.root_ref(root);
                    let mut buf = vec![0u8; bytes];
                    e.heap.byte_array_read(arr, 0, &mut buf);
                    let deltas = (0..n).filter_map(|i| {
                        let ip = i64::from_le_bytes(buf[i * 8..i * 8 + 8].try_into().unwrap());
                        let url = i64::from_le_bytes(
                            buf[8 * n + i * 8..8 * n + i * 8 + 8].try_into().unwrap(),
                        );
                        let rev = f64::from_le_bytes(
                            buf[16 * n + i * 8..16 * n + i * 8 + 8].try_into().unwrap(),
                        );
                        let &rank = build.get(&url)?;
                        let delta = JoinAggRec { revenue: rev, rank_sum: rank as f64, count: 1 };
                        Some((ip.to_le_bytes(), agg_bytes(&delta)))
                    });
                    agg.insert_all(&mut e.mm, &mut e.heap, deltas, JoinAggRec::combine_bytes)
                        .expect("combine");
                }
                let mut sum = 0.0;
                agg.for_each(&mut e.mm, &mut e.heap, |k, v| {
                    let ip = i64::from_le_bytes(k[..8].try_into().unwrap());
                    let a = JoinAggRec::decode(v);
                    sum += (ip as f64 + 1.0).ln_1p()
                        * (a.revenue + a.rank_sum / a.count.max(1) as f64);
                })
                .expect("scan");
                agg.release(&mut e.mm, &mut e.heap);
                sum
            }
            _ => unreachable!(),
        }
    });

    exec.finish_job();
    AppReport {
        app: "SQL-Q3".into(),
        mode: params.system.engine_mode(),
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

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn query1_agrees_across_systems() {
        let a = run_query1(&tiny(SqlSystem::Spark));
        let b = run_query1(&tiny(SqlSystem::SparkSql));
        let c = run_query1(&tiny(SqlSystem::Deca));
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(b.checksum, c.checksum);
        assert!(a.checksum > 0.0);
    }

    #[test]
    fn query2_agrees_across_systems() {
        let a = run_query2(&tiny(SqlSystem::Spark));
        let b = run_query2(&tiny(SqlSystem::SparkSql));
        let c = run_query2(&tiny(SqlSystem::Deca));
        assert!((a.checksum - c.checksum).abs() < 1e-6);
        assert!((b.checksum - c.checksum).abs() < 1e-6);
    }

    #[test]
    fn query3_join_agrees_across_systems() {
        let a = run_query3(&tiny(SqlSystem::Spark));
        let b = run_query3(&tiny(SqlSystem::SparkSql));
        let c = run_query3(&tiny(SqlSystem::Deca));
        assert!((a.checksum - c.checksum).abs() < 1e-6 * c.checksum.abs().max(1.0));
        assert!((b.checksum - c.checksum).abs() < 1e-6 * c.checksum.abs().max(1.0));
        assert!(c.checksum > 0.0);
    }

    #[test]
    fn row_cache_is_larger_than_columnar_and_deca() {
        let spark = run_query2(&tiny(SqlSystem::Spark));
        let sql = run_query2(&tiny(SqlSystem::SparkSql));
        let deca = run_query2(&tiny(SqlSystem::Deca));
        assert!(spark.cache_bytes > sql.cache_bytes, "Table 6: Spark cache largest");
        assert!(spark.cache_bytes > deca.cache_bytes);
    }
}
