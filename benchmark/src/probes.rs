//! Per-layer probes: the benchmark calls one layer's public functions
//! directly, on inputs shaped like the workload the layer matters to, and
//! reports work-units per second (or time per operation).
//!
//! A probe is evidence about a layer, never an end-to-end number: a faster
//! layer saves at most its share of the task time on the slower executor.
//! The metric → layer → workload map is in the README.

use std::hint::black_box;
use std::time::{Duration, Instant};

use deca_apps::records::{lr_analysis, AdjListRec, LabeledPointRec};
use deca_apps::{datagen, wordcount};
use deca_core::{
    ContainerInfo, DecaCacheBlock, DecaHashShuffle, DecaVarHashShuffle, MemoryManager, Optimizer,
};
use deca_engine::cluster::exchange;
use deca_engine::{
    AppJob, ClusterSession, DecaServer, ExecutionMode, Executor, ExecutorConfig, HeapRecord,
    JobSpec, KryoSim, ShufflePayload, SparkHashShuffle, TraceEventKind, TraceRecorder,
};
use deca_heap::{ClassBuilder, FieldKind, Heap, HeapConfig};
use deca_udt::{ContainerId, ContainerKind, JobPhases, TypeRef};

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{executors, wc_params};

/// Samples per probe; each sample times at least the probe budget of work.
const SAMPLES: usize = 7;
const PAGE_SIZE: usize = 64 << 10;
const LR_DIMS: usize = 10;

/// One probe result: metric name and value, in the unit the metric table
/// declares.
pub type Reading = (&'static str, f64);

struct Probe<'a> {
    sample: Duration,
    seed: u64,
    spans: &'a mut Spans,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

impl Probe<'_> {
    /// Median over [`SAMPLES`] samples of work-units per second, for each
    /// of the `N` sections one `batch` call times. `batch` returns, per
    /// section, the units done and the time they took; set-up and
    /// tear-down inside `batch` stay outside the timed sections. One
    /// untimed call first lets caches and pools fill.
    fn rates<const N: usize>(
        &mut self,
        label: &'static str,
        mut batch: impl FnMut() -> [(f64, Duration); N],
    ) -> [f64; N] {
        let span = self.spans.start(label, None, 0);
        batch();
        let mut rates: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(SAMPLES));
        for _ in 0..SAMPLES {
            let mut units = [0.0; N];
            let mut time = [Duration::ZERO; N];
            while time.iter().sum::<Duration>() < self.sample {
                for (i, (u, d)) in batch().into_iter().enumerate() {
                    units[i] += u;
                    time[i] += d;
                }
            }
            for i in 0..N {
                rates[i].push(units[i] / time[i].as_secs_f64());
            }
        }
        self.spans.end(span);
        std::array::from_fn(|i| median(&rates[i]))
    }

    fn rate(&mut self, label: &'static str, mut batch: impl FnMut() -> (f64, Duration)) -> f64 {
        self.rates(label, || [batch()])[0]
    }
}

fn heap_and_manager(heap_bytes: usize, dir: &str) -> (Heap, MemoryManager) {
    (
        Heap::new(HeapConfig::with_total(heap_bytes)),
        MemoryManager::new(PAGE_SIZE, std::env::temp_dir().join(dir)),
    )
}

fn add_i64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = i64::from_le_bytes(acc[..8].try_into().expect("8-byte count"));
    let b = i64::from_le_bytes(add[..8].try_into().expect("8-byte count"));
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

/// The text tokens `wordcount::text_job` shuffles: `w<id>` plus `id % 11`
/// filler characters.
fn tokens(ids: &[i64]) -> Vec<String> {
    ids.iter().map(|&id| format!("w{}{}", id, "x".repeat((id % 11) as usize))).collect()
}

fn labeled_points(n: usize, seed: u64) -> Vec<LabeledPointRec> {
    datagen::labeled_vectors(n, LR_DIMS, seed)
}

/// Every probe; each gets an equal share of the probes' time.
const ALL: [fn(&mut Probe) -> Vec<Reading>; 18] = [
    heap_alloc,
    heap_minor_survivors,
    heap_full_mark,
    page_append_scan,
    shuffle_insert_drain,
    var_shuffle_insert,
    arena_handover,
    manager_swap,
    optimizer_plan,
    serde_points,
    serde_pairs,
    spark_insert,
    exchange_matrix,
    cache_put_cold_read,
    task_dispatch,
    session_start,
    server_empty_job,
    trace_record,
];

/// Run every probe. They share half of the run's `seconds` as timed work;
/// the traced pass before them, whose job counts are fixed, takes about the
/// other half on the longest workload.
pub fn run_all(seconds: f64, seed: u64, spans: &mut Spans) -> Vec<Reading> {
    let sample = Duration::from_secs_f64(seconds / 2.0 / (ALL.len() * SAMPLES) as f64);
    let mut p = Probe { sample, seed, spans };
    ALL.iter().flat_map(|probe| probe(&mut p)).collect()
}

// ----------------------------------------------------------------------
// heap
// ----------------------------------------------------------------------

/// `Heap::alloc` of 24-byte objects that die at once, through the minor
/// collections they cause: Spark WordCount's temporary tuples.
fn heap_alloc(p: &mut Probe) -> Vec<Reading> {
    let mut heap = Heap::new(HeapConfig::with_total(8 << 20));
    let cls = heap.define_class(ClassBuilder::new("Tmp").field("v", FieldKind::I64));
    let rate = p.rate("probe:heap.alloc", || {
        let (_, d) = timed(|| {
            for _ in 0..10_000 {
                black_box(heap.alloc(cls).expect("garbage never fills the heap"));
            }
        });
        (10_000.0, d)
    });
    vec![("heap.alloc_mobj_per_s", rate / 1e6)]
}

/// A minor collection copying a rooted young survivor set: the live
/// entries of a Spark hash buffer.
fn heap_minor_survivors(p: &mut Probe) -> Vec<Reading> {
    const SURVIVORS: usize = 20_000;
    let mut heap = Heap::new(HeapConfig::with_total(48 << 20));
    let node = heap.define_class(
        ClassBuilder::new("Entry").field("count", FieldKind::I64).field("next", FieldKind::Ref),
    );
    let array = heap.define_array_class("Entry[]", FieldKind::Ref);
    let rate = p.rate("probe:heap.minor_survivors", || {
        let holder = heap.alloc_array(array, SURVIVORS).expect("holder fits");
        let root = heap.add_root(holder);
        for i in 0..SURVIVORS {
            let entry = heap.alloc(node).expect("entry fits");
            let holder = heap.root_ref(root);
            heap.array_set_ref(holder, i, entry);
        }
        let before = heap.stats().objects_traced;
        let (_, d) = timed(|| heap.minor_gc());
        let traced = heap.stats().objects_traced - before;
        heap.remove_root(root);
        (traced as f64, d)
    });
    vec![("heap.minor_survivor_mobj_per_s", rate / 1e6)]
}

/// `Heap::full_gc` over 100 k tenured `LabeledPoint` graphs: the cached
/// set Spark re-traces on every full collection in `lr-gcbound`.
fn heap_full_mark(p: &mut Probe) -> Vec<Reading> {
    const POINTS: usize = 100_000;
    let mut heap = Heap::new(HeapConfig::with_total(64 << 20));
    let classes = LabeledPointRec::register(&mut heap);
    let array = heap.define_array_class("LabeledPoint[]", FieldKind::Ref);
    let holder = heap.alloc_array(array, POINTS).expect("holder fits");
    let root = heap.add_root(holder);
    for (i, point) in labeled_points(POINTS, p.seed).iter().enumerate() {
        let obj = point.store(&mut heap, &classes).expect("cached set fits the heap");
        let holder = heap.root_ref(root);
        heap.array_set_ref(holder, i, obj);
    }
    heap.full_gc(); // tenure the graphs
    let mut pauses = Vec::new();
    let rate = p.rate("probe:heap.full_mark", || {
        let before = heap.stats().objects_traced;
        let (_, d) = timed(|| heap.full_gc());
        pauses.push(d.as_secs_f64() * 1e3);
        ((heap.stats().objects_traced - before) as f64, d)
    });
    vec![("heap.full_mark_mobj_per_s", rate / 1e6), ("heap.full_gc_pause_ms", median(&pauses))]
}

// ----------------------------------------------------------------------
// core
// ----------------------------------------------------------------------

/// `DecaCacheBlock::{append, scan_bytes}` on fixed-size `LabeledPoint`
/// records: Deca's cache build and per-iteration scan in `lr-gcbound`.
fn page_append_scan(p: &mut Probe) -> Vec<Reading> {
    let (mut heap, mut mm) = heap_and_manager(64 << 20, "probe-pages");
    let points = labeled_points(20_000, p.seed);
    let size = LabeledPointRec::sfst_size(LR_DIMS);
    let bytes = (points.len() * size) as f64;
    let [append, scan] = p.rates("probe:core.page", || {
        let mut block = DecaCacheBlock::new_sfst(&mut mm, size);
        let (_, append) = timed(|| {
            for point in &points {
                block.append(&mut mm, &mut heap, point).expect("block fits the heap");
            }
        });
        let (_, scan) = timed(|| {
            let mut sum = 0.0;
            let label = |rec: &[u8]| f64::from_le_bytes(rec[..8].try_into().expect("label"));
            block.scan_bytes(&mut mm, &mut heap, label, |l| sum += l).expect("resident block");
            black_box(sum);
        });
        block.release(&mut mm, &mut heap);
        [(bytes, append), (bytes, scan)]
    });
    vec![("core.page.append_mb_per_s", append / 1e6), ("core.page.scan_mb_per_s", scan / 1e6)]
}

/// `DecaHashShuffle::{insert, for_each}` with 8-byte keys and counts over
/// zipf keys: the map-side combine and the drain of `wc-combine`.
fn shuffle_insert_drain(p: &mut Probe) -> Vec<Reading> {
    let (mut heap, mut mm) = heap_and_manager(48 << 20, "probe-shuffle");
    let keys: Vec<[u8; 8]> =
        datagen::zipf_words(200_000, 20_000, p.seed).iter().map(|w| w.to_le_bytes()).collect();
    let one = 1i64.to_le_bytes();
    let [insert, drain] = p.rates("probe:core.shuffle", || {
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let (_, insert) = timed(|| {
            for key in &keys {
                buf.insert(&mut mm, &mut heap, key, &one, add_i64_bytes).expect("buffer fits");
            }
        });
        let (_, drain) = timed(|| {
            let mut sum = 0i64;
            buf.for_each(&mut mm, &mut heap, |_, v| {
                sum += i64::from_le_bytes(v.try_into().expect("8-byte count"));
            })
            .expect("resident buffer");
            black_box(sum);
        });
        let distinct = buf.len() as f64;
        buf.release(&mut mm, &mut heap);
        [(keys.len() as f64, insert), (distinct, drain)]
    });
    vec![("core.shuffle.insert_mops", insert / 1e6), ("core.shuffle.drain_mops", drain / 1e6)]
}

/// `DecaVarHashShuffle::insert` with text keys that rarely repeat: the
/// pointer-table path of `wc-textshuffle`.
fn var_shuffle_insert(p: &mut Probe) -> Vec<Reading> {
    let (mut heap, mut mm) = heap_and_manager(64 << 20, "probe-var-shuffle");
    let keys = tokens(&datagen::zipf_words(100_000, 50_000, p.seed));
    let one = 1i64.to_le_bytes();
    let rate = p.rate("probe:core.var_shuffle", || {
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        let (_, d) = timed(|| {
            for key in &keys {
                buf.insert(&mut mm, &mut heap, key.as_bytes(), &one, add_i64_bytes)
                    .expect("buffer fits");
            }
        });
        buf.release(&mut mm, &mut heap);
        (keys.len() as f64, d)
    });
    vec![("core.var_shuffle.insert_mops", rate / 1e6)]
}

/// Map-side shuffle write into arena pages, the ownership hand-over, and
/// the reduce side walking the chunks: Deca's exchange in `wc-textshuffle`.
fn arena_handover(p: &mut Probe) -> Vec<Reading> {
    const REDUCERS: usize = 4;
    let mut e = Executor::new(ExecutorConfig::new(ExecutionMode::Deca, 64 << 20).tracing(false));
    let keys = tokens(&datagen::zipf_words(50_000, 50_000, p.seed));
    let one = 1i64.to_le_bytes();
    let rate = p.rate("probe:core.arena", || {
        let (bytes, d) = timed(|| {
            let mut runs: Vec<_> = (0..REDUCERS).map(|_| e.new_run()).collect();
            for (i, key) in keys.iter().enumerate() {
                runs[i % REDUCERS].push_parts(&mut e.arena, &[key.as_bytes(), &one]);
            }
            let payloads: Vec<ShufflePayload> = runs.into_iter().map(|r| e.hand_over(r)).collect();
            let mut bytes = 0usize;
            for payload in &payloads {
                for chunk in payload.chunks() {
                    bytes += black_box(chunk).len();
                }
            }
            for payload in payloads {
                e.recycle_payload(payload);
            }
            bytes
        });
        e.mm.take_handover_events();
        (bytes as f64, d)
    });
    vec![("core.arena.handover_mb_per_s", rate / 1e6)]
}

/// `MemoryManager::swap_out` of a page group and the scan that reads it
/// back: Deca's cold tier in `pr-pressure`.
fn manager_swap(p: &mut Probe) -> Vec<Reading> {
    let (mut heap, mut mm) = heap_and_manager(64 << 20, "probe-swap");
    let size = LabeledPointRec::sfst_size(LR_DIMS);
    let mut block = DecaCacheBlock::new_sfst(&mut mm, size);
    for point in &labeled_points(50_000, p.seed) {
        block.append(&mut mm, &mut heap, point).expect("block fits the heap");
    }
    mm.set_swappable(block.group(), true);
    let rate = p.rate("probe:core.manager.swap", || {
        let (bytes, d) = timed(|| {
            let bytes = mm.swap_out(block.group(), &mut heap).expect("spill directory is writable");
            let mut records = 0usize;
            block.scan_bytes(&mut mm, &mut heap, |_| 1, |n| records += n).expect("group swaps in");
            black_box(records);
            bytes
        });
        (bytes as f64, d)
    });
    block.release(&mut mm, &mut heap);
    vec![("core.manager.swap_mb_per_s", rate / 1e6)]
}

/// The plan classification every Deca LR job runs driver-side before it
/// caches anything; small jobs on `server-mix` pay it per job.
fn optimizer_plan(p: &mut Probe) -> Vec<Reading> {
    let rate = p.rate("probe:core.optimizer", || {
        let (_, d) = timed(|| {
            let analysis = lr_analysis();
            let optimizer = Optimizer::new(&analysis.types.registry, &analysis.program);
            let phases = JobPhases::new().phase("map", analysis.stage_entry);
            let cache = ContainerInfo {
                id: ContainerId(0),
                kind: ContainerKind::CachedRdd,
                created_seq: 0,
                content: TypeRef::Udt(analysis.types.labeled_point),
                write_phase: 0,
            };
            let plan = optimizer.plan(&phases, &[cache], &[]);
            black_box(plan.decision(ContainerId(0)));
        });
        (1.0, d)
    });
    vec![("core.optimizer.plan_us", 1e6 / rate)]
}

// ----------------------------------------------------------------------
// engine
// ----------------------------------------------------------------------

/// `KryoSim::{serialize_all, deserialize_all}` on `LabeledPoint`s:
/// SparkSer's cache build and per-access decode in `lr-gcbound`.
fn serde_points(p: &mut Probe) -> Vec<Reading> {
    let points = labeled_points(10_000, p.seed);
    let [encode, decode] = p.rates("probe:engine.serde.points", || {
        let mut kryo = KryoSim::new();
        let (buf, encode) = timed(|| kryo.serialize_all(&points));
        let (decoded, decode) = timed(|| kryo.deserialize_all::<LabeledPointRec>(&buf));
        black_box(decoded);
        [(buf.len() as f64, encode), (buf.len() as f64, decode)]
    });
    vec![
        ("engine.serde.encode_mb_per_s", encode / 1e6),
        ("engine.serde.decode_mb_per_s", decode / 1e6),
    ]
}

/// Kryo round trip of `(String, i64)` pairs: the Spark-mode shuffle write
/// and read of `wc-textshuffle`.
fn serde_pairs(p: &mut Probe) -> Vec<Reading> {
    let keys = tokens(&datagen::zipf_words(20_000, 20_000, p.seed));
    let rate = p.rate("probe:engine.serde.pairs", || {
        let mut kryo = KryoSim::new();
        let (_, d) = timed(|| {
            let mut buf = Vec::new();
            for (i, key) in keys.iter().enumerate() {
                kryo.serialize(key, &mut buf);
                kryo.serialize(&(i as i64), &mut buf);
            }
            let mut pos = 0;
            while pos < buf.len() {
                let key: String = kryo.deserialize(&buf, &mut pos);
                let count: i64 = kryo.deserialize(&buf, &mut pos);
                black_box((key, count));
            }
        });
        (keys.len() as f64, d)
    });
    vec![("engine.serde.pair_roundtrip_mops", rate / 1e6)]
}

/// `SparkHashShuffle::insert` over zipf keys, boxed counts and the minor
/// collections they cause included: Spark's map-side combine in
/// `wc-combine`.
fn spark_insert(p: &mut Probe) -> Vec<Reading> {
    let mut heap = Heap::new(HeapConfig::with_total(48 << 20));
    let keys = datagen::zipf_words(200_000, 20_000, p.seed);
    let rate = p.rate("probe:engine.shuffle.spark_insert", || {
        let mut buf: SparkHashShuffle<i64, i64> =
            SparkHashShuffle::new(&mut heap).expect("empty buffer fits");
        let (_, d) = timed(|| {
            for &key in &keys {
                buf.insert(&mut heap, key, 1, |a, b| a + b).expect("buffer fits the heap");
            }
        });
        buf.release(&mut heap);
        (keys.len() as f64, d)
    });
    vec![("engine.shuffle.spark_insert_mops", rate / 1e6)]
}

/// `cluster::exchange` transposing 4 × 4 map outputs into reduce inputs.
fn exchange_matrix(p: &mut Probe) -> Vec<Reading> {
    const MATRICES: usize = 64;
    let rate = p.rate("probe:engine.shuffle.exchange", || {
        let outputs: Vec<Vec<Vec<ShufflePayload>>> = (0..MATRICES)
            .map(|_| {
                (0..4)
                    .map(|_| (0..4).map(|_| ShufflePayload::Bytes(vec![0u8; 16])).collect())
                    .collect()
            })
            .collect();
        let (inputs, d) = timed(|| outputs.into_iter().map(exchange).collect::<Vec<_>>());
        black_box(inputs);
        (MATRICES as f64, d)
    });
    vec![("engine.shuffle.exchange_us", 1e6 / rate)]
}

/// `CacheManager::put_objects` under a budget far below one block, then
/// reading every block back: Spark's cache churn in `pr-pressure`.
fn cache_put_cold_read(p: &mut Probe) -> Vec<Reading> {
    let config =
        ExecutorConfig::new(ExecutionMode::Spark, 64 << 20).storage_fraction(0.0001).tracing(false);
    let mut e = Executor::new(config);
    let classes = AdjListRec::register(&mut e.heap);
    let blocks: Vec<Vec<AdjListRec>> = (0..8u32)
        .map(|b| {
            (0..1000u32)
                .map(|v| AdjListRec {
                    vertex: b * 1000 + v,
                    neighbors: (0..10).map(|n| (v * 7 + n) % 8000).collect(),
                })
                .collect()
        })
        .collect();
    let bytes: usize = blocks.iter().flatten().map(|r| r.heap_size()).sum();
    let [put, read] = p.rates("probe:engine.cache", || {
        let (ids, put) = timed(|| {
            blocks
                .iter()
                .map(|block| {
                    e.cache
                        .put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, block)
                        .expect("a demoting cache admits the block")
                })
                .collect::<Vec<_>>()
        });
        let (_, read) = timed(|| {
            for &id in &ids {
                let root = e
                    .cache
                    .objects_root(id, &mut e.heap, &mut e.kryo, &mut e.mm)
                    .expect("a demoted block reads back");
                black_box(root);
            }
        });
        for id in ids {
            e.cache.release(id, &mut e.heap, &mut e.mm);
        }
        [(bytes as f64, put), (bytes as f64, read)]
    });
    vec![("engine.cache.put_mb_per_s", put / 1e6), ("engine.cache.cold_read_mb_per_s", read / 1e6)]
}

/// `ClusterSession::run_stage` over 64 empty tasks: what the driver
/// charges per task, which the 11 stages of `pr-pressure` multiply.
fn task_dispatch(p: &mut Probe) -> Vec<Reading> {
    const TASKS: usize = 64;
    // Sessions keep every stage's metrics; a fresh one every so often
    // keeps the probe's memory flat.
    const STAGES_PER_SESSION: usize = 200;
    let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).tracing(false);
    let mut session = ClusterSession::new(executors(), config.clone());
    let mut stages = 0;
    let rate = p.rate("probe:engine.driver.dispatch", || {
        if stages == STAGES_PER_SESSION {
            session = ClusterSession::new(executors(), config.clone());
            stages = 0;
        }
        stages += 1;
        let (_, d) =
            timed(|| session.run_stage("probe", TASKS, |_, _| Ok(())).expect("empty stage"));
        (TASKS as f64, d)
    });
    vec![("engine.driver.task_dispatch_us", 1e6 / rate)]
}

/// Building and dropping the private cluster every batch job starts with,
/// at `wc-combine`'s heap size.
fn session_start(p: &mut Probe) -> Vec<Reading> {
    let params = wc_params(0, 1, 48 << 20, ExecutionMode::Deca, p.seed);
    let config = wordcount::wc_config(&params).tracing(false);
    let rate = p.rate("probe:engine.driver.session_start", || {
        let (_, d) = timed(|| drop(ClusterSession::new(executors(), config.clone())));
        (1.0, d)
    });
    vec![("engine.driver.session_start_ms", 1e3 / rate)]
}

/// Submit → wait of a job with one stage of empty tasks: the server's
/// fixed cost per job on `server-mix`.
fn server_empty_job(p: &mut Probe) -> Vec<Reading> {
    let width = executors();
    let server =
        DecaServer::new(width, ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).tracing(false));
    let job = AppJob::new("empty", move |ctx| {
        ctx.run_stage("empty", width, |_, _| Ok(()))?;
        Ok(0.0)
    });
    let rate = p.rate("probe:engine.server.empty_job", || {
        let (_, d) = timed(|| {
            let handle = server.submit(JobSpec::new("probe").app(job.clone())).expect("admitted");
            handle.wait().expect("empty job")
        });
        (1.0, d)
    });
    vec![("engine.server.empty_job_us", 1e6 / rate)]
}

/// `TraceRecorder::record` of one task-attempt event.
fn trace_record(p: &mut Probe) -> Vec<Reading> {
    const EVENTS: usize = 10_000;
    let rate = p.rate("probe:engine.trace.record", || {
        let mut recorder = TraceRecorder::new(true);
        let (_, d) = timed(|| {
            for task in 0..EVENTS {
                recorder.record(
                    TraceEventKind::TaskAttempt,
                    Some("stage"),
                    Some(task),
                    Some(0),
                    None,
                    "stage-task",
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                );
            }
        });
        black_box(recorder.len());
        (EVENTS as f64, d)
    });
    vec![("engine.trace.record_ns", 1e9 / rate)]
}
