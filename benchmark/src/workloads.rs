//! The five workloads: what each runs, how its outputs are verified, and
//! the mechanism guard that proves it measured what it exists to measure.
//!
//! Every workload runs the same job in the three storage modes of the
//! paper's comparison (Deca pages / Spark objects / SparkSer bytes). The
//! four batch workloads live here; `server-mix` is in [`crate::server_mix`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{datagen, run_job_faulty, AppReport};
use deca_engine::{
    AppJob, ClusterSession, ExecutionMode, ExecutorConfig, FaultPlan, JobCtx, JobMetrics, RunTrace,
    SchedulerMode, StageMetrics, TraceEventKind,
};
use deca_heap::GcAlgorithm;

use crate::spans::Spans;

/// Mode order of every round: Deca first, then the two baselines.
pub const MODES: [ExecutionMode; 3] =
    [ExecutionMode::Deca, ExecutionMode::Spark, ExecutionMode::SparkSer];
/// Metric-name fragment of each mode, in [`MODES`] order.
pub const MODE_KEYS: [&str; 3] = ["deca", "spark", "sparkser"];

pub const PARTITIONS: usize = 4;

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Workload {
    WcCombine,
    WcTextshuffle,
    LrGcbound,
    PrPressure,
    ServerMix,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::WcCombine,
        Workload::WcTextshuffle,
        Workload::LrGcbound,
        Workload::PrPressure,
        Workload::ServerMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WcCombine => "wc-combine",
            Workload::WcTextshuffle => "wc-textshuffle",
            Workload::LrGcbound => "lr-gcbound",
            Workload::PrPressure => "pr-pressure",
            Workload::ServerMix => "server-mix",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Executors (and, on `server-mix`, clients) the benchmark uses: two, or
/// one on a single-core host, so it never runs more load-generating
/// threads than the host has cores.
pub fn executors() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

// ----------------------------------------------------------------------
// what one job hands back
// ----------------------------------------------------------------------

/// The program's own roll-up of one job (`JobMetrics` plus the report's GC
/// census): per-layer evidence, never an end-to-end number. The task time
/// includes the modelled disk time, which is *not* wall time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Rollup {
    /// Seconds, in [`Rollup::DURATIONS`] order.
    pub durations: [f64; 8],
    /// In [`Rollup::COUNTS`] order.
    pub counts: [u64; 7],
}

impl Rollup {
    pub const DURATIONS: [&'static str; 8] = [
        "task_s",
        "gc_pause_s",
        "gc_concurrent_s",
        "ser_s",
        "deser_s",
        "shuffle_read_s",
        "shuffle_write_s",
        "io_sim_s",
    ];
    pub const COUNTS: [&'static str; 7] = [
        "minor_gcs",
        "full_gcs",
        "objects_traced",
        "cache_bytes",
        "swapped_cache_bytes",
        "attempts",
        "retries",
    ];
    // Positions the guards and the attribution read by name.
    pub const TASK_S: usize = 0;
    pub const GC_PAUSE_S: usize = 1;
    pub const IO_SIM_S: usize = 7;
    pub const MINOR_GCS: usize = 0;
    pub const FULL_GCS: usize = 1;
    pub const SWAPPED_CACHE_BYTES: usize = 4;
    pub const RETRIES: usize = 6;

    pub fn from_metrics(m: &JobMetrics, noted_cache_bytes: usize, objects_traced: u64) -> Rollup {
        Rollup {
            durations: [
                m.exec,
                m.gc,
                m.gc_concurrent,
                m.ser,
                m.deser,
                m.shuffle_read,
                m.shuffle_write,
                m.io,
            ]
            .map(|d| d.as_secs_f64()),
            counts: [
                m.minor_gcs,
                m.full_gcs,
                objects_traced,
                noted_cache_bytes as u64,
                m.swapped_cache_bytes as u64,
                m.attempts,
                m.retries,
            ],
        }
    }

    fn from_report(r: &AppReport) -> Rollup {
        Rollup::from_metrics(&r.metrics, r.cache_bytes, r.objects_traced)
    }

    /// Sum of a batch of jobs (the `server-mix` cells).
    pub fn add(&mut self, other: &Rollup) {
        for (d, o) in self.durations.iter_mut().zip(other.durations) {
            *d += o;
        }
        for (c, o) in self.counts.iter_mut().zip(other.counts) {
            *c += o;
        }
    }

    /// Turn a batch's summed durations into the mean per job; counts stay
    /// the batch's totals.
    pub fn average_durations(&mut self, jobs: usize) {
        for d in &mut self.durations {
            *d /= jobs.max(1) as f64;
        }
    }
}

/// Counters read off a traced job's stages and run trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageCounts {
    pub shuffle_bytes: u64,
    pub handover_pages: u64,
    pub spill_bytes: u64,
    pub steals: u64,
    pub trace_events: u64,
    /// Objects traced, summed over the trace's GC-pause events (the only
    /// place a server job reports it).
    pub gc_objects_traced: u64,
}

impl StageCounts {
    pub fn of(stages: &[StageMetrics], trace: &RunTrace) -> StageCounts {
        StageCounts {
            shuffle_bytes: stages.iter().map(|s| s.shuffle_bytes).sum(),
            handover_pages: stages.iter().map(|s| s.shuffle_pages).sum(),
            spill_bytes: trace.of_kind(TraceEventKind::SpillIo).map(|e| e.bytes).sum(),
            steals: trace.of_kind(TraceEventKind::TaskSteal).count() as u64,
            trace_events: trace.len() as u64,
            gc_objects_traced: trace.of_kind(TraceEventKind::GcPause).map(|e| e.count).sum(),
        }
    }

    pub fn add(&mut self, other: &StageCounts) {
        self.shuffle_bytes += other.shuffle_bytes;
        self.handover_pages += other.handover_pages;
        self.spill_bytes += other.spill_bytes;
        self.steals += other.steals;
        self.trace_events += other.trace_events;
        self.gc_objects_traced += other.gc_objects_traced;
    }
}

/// Everything one mode accumulated over some rounds.
#[derive(Clone, Debug, Default)]
pub struct ModeAcc {
    /// Wall time of each job, timed from outside the program.
    pub job_s: Vec<f64>,
    /// Per round: thousand input records ÷ the round's wall window.
    pub round_krec_per_s: Vec<f64>,
    pub attempted: u64,
    /// Jobs that returned `Err`, panicked, were refused, or produced a
    /// checksum other than the reference.
    pub failed: u64,
    /// Submissions the server refused (also counted in `failed`).
    pub rejected: u64,
    /// One roll-up per job or, on `server-mix`, per round: durations the
    /// mean per job of the round, counts its totals.
    pub rollups: Vec<Rollup>,
    /// Summed over the traced jobs; zero for untraced rounds.
    pub stage: StageCounts,
}

/// A workload that has been set up: jobs built, references known, caches
/// warm. `round` runs one round of one mode and accumulates into `acc`.
pub trait Prepared {
    fn round(&mut self, mode: usize, traced: bool, acc: &mut ModeAcc, spans: &mut Spans);

    /// Run the workload's own `datagen` calls once, with the arguments its
    /// jobs use, and return how many jobs' worth of input that was.
    fn datagen(&self) -> usize;
}

// ----------------------------------------------------------------------
// batch workloads
// ----------------------------------------------------------------------

struct Cell {
    job: AppJob,
    config: ExecutorConfig,
}

/// One of the four batch workloads, set up.
pub struct Batch {
    workload: Workload,
    seed: u64,
    sizes: Sizes,
    cells: Vec<Cell>,
    /// Jobs per round, by mode: several where a mode's job is so much
    /// shorter than the others' that one per round would starve it of
    /// samples.
    per_round: [usize; 3],
    reference: f64,
    executors: usize,
    next_job_id: u64,
}

/// Input sizes of the batch workloads at `1/scale` of full size.
#[derive(Clone, Copy, Debug)]
struct Sizes {
    /// Words, points or edges: the job's input records.
    records: usize,
    /// Distinct keys (WordCount), dimensions (LR) or vertices (PageRank).
    domain: usize,
    heap_bytes: usize,
}

impl Sizes {
    fn of(workload: Workload, scale: usize) -> Sizes {
        let (records, domain, heap_bytes) = match workload {
            Workload::WcCombine => (2_000_000 / scale, 20_000 / scale, 48 << 20),
            Workload::WcTextshuffle => (800_000 / scale, 400_000 / scale, 96 << 20),
            // The cached set must nearly fill each executor's heap, so the
            // heap shrinks with the data.
            Workload::LrGcbound => (200_000 / scale, 10, (20 << 20) / scale),
            Workload::PrPressure => (400_000 / scale, 40_000 / scale, 64 << 20),
            Workload::ServerMix => unreachable!("server-mix is not a batch workload"),
        };
        Sizes { records, domain, heap_bytes }
    }
}

impl Batch {
    /// Build the three cells, work out the reference checksum, run one
    /// untimed warm-up job per mode and check the mechanism guard on it.
    pub fn prepare(
        workload: Workload,
        seed: u64,
        scale: usize,
        spans: &mut Spans,
    ) -> Result<Batch, String> {
        let sizes = Sizes::of(workload, scale);
        let build = spans.start("job_build", None, 0);
        let cells: Vec<Cell> =
            MODES.iter().map(|&mode| build_cell(workload, &sizes, mode, seed)).collect();
        spans.end(build);
        let mut batch = Batch {
            workload,
            seed,
            sizes,
            cells,
            per_round: if workload == Workload::LrGcbound { [4, 1, 1] } else { [1, 1, 1] },
            reference: f64::NAN,
            executors: executors(),
            next_job_id: 1,
        };

        // WordCount has an oracle computable from the generator output
        // alone; LR and PR take the Deca warm-up as reference, which every
        // other mode and every repetition must match bit for bit.
        let oracle = match workload {
            Workload::WcCombine | Workload::WcTextshuffle => {
                let gen = spans.start("input_gen", None, 0);
                let words = datagen::zipf_words(sizes.records, sizes.domain, seed);
                spans.end(gen);
                let distinct = count_distinct(&words, sizes.domain);
                check_key_ratio(workload, words.len(), distinct)?;
                Some(if workload == Workload::WcCombine {
                    words.iter().map(|&w| (w + 1) as f64).sum()
                } else {
                    words.iter().map(|&w| text_checksum(w)).sum()
                })
            }
            _ => None,
        };

        let mut warm: Vec<ModeAcc> = Vec::new();
        for (mode, key) in MODE_KEYS.iter().enumerate() {
            let out = run_cell(&batch.cells[mode], batch.executors, false)
                .map_err(|e| format!("warm-up job failed in {key} mode: {e}"))?;
            if mode == 0 {
                batch.reference = oracle.unwrap_or(out.checksum);
            }
            if out.checksum.to_bits() != batch.reference.to_bits() {
                return Err(format!(
                    "warm-up checksum {} in {key} mode differs from the reference {}",
                    out.checksum, batch.reference
                ));
            }
            warm.push(ModeAcc { rollups: vec![out.rollup], ..ModeAcc::default() });
        }
        check_mechanism(workload, &warm)?;
        Ok(batch)
    }
}

impl Prepared for Batch {
    fn round(&mut self, mode: usize, traced: bool, acc: &mut ModeAcc, spans: &mut Spans) {
        let mut window = 0.0;
        for _ in 0..self.per_round[mode] {
            let id = self.next_job_id;
            self.next_job_id += 1;
            let root = spans.start(MODE_KEYS[mode], None, id);
            let run = spans.start("job_run", Some(root), id);
            let t = Instant::now();
            let out = run_cell(&self.cells[mode], self.executors, traced);
            let wall = t.elapsed().as_secs_f64();
            spans.end(run);
            let verify = spans.start("verify", Some(root), id);
            acc.attempted += 1;
            match out {
                Ok(out) if out.checksum.to_bits() == self.reference.to_bits() => {
                    acc.rollups.push(out.rollup);
                    acc.stage.add(&out.stage);
                }
                Ok(out) => {
                    eprintln!(
                        "{} {}: checksum {} differs from the reference {}",
                        self.workload.name(),
                        MODE_KEYS[mode],
                        out.checksum,
                        self.reference
                    );
                    acc.failed += 1;
                }
                Err(e) => {
                    eprintln!("{} {}: job failed: {e}", self.workload.name(), MODE_KEYS[mode]);
                    acc.failed += 1;
                }
            }
            spans.end(verify);
            spans.end(root);
            acc.job_s.push(wall);
            window += wall;
        }
        let krec = (self.per_round[mode] * self.sizes.records) as f64 / 1e3;
        acc.round_krec_per_s.push(krec / window);
    }

    fn datagen(&self) -> usize {
        let s = &self.sizes;
        match self.workload {
            Workload::WcCombine | Workload::WcTextshuffle => {
                std::hint::black_box(datagen::zipf_words(s.records, s.domain, self.seed));
            }
            Workload::LrGcbound => {
                std::hint::black_box(datagen::labeled_vectors(s.records, s.domain, self.seed));
            }
            Workload::PrPressure => {
                std::hint::black_box(datagen::power_law_graph(s.domain, s.records, self.seed));
            }
            Workload::ServerMix => unreachable!("server-mix is not a batch workload"),
        }
        1
    }
}

fn build_cell(workload: Workload, s: &Sizes, mode: ExecutionMode, seed: u64) -> Cell {
    let (job, config) = match workload {
        Workload::WcCombine | Workload::WcTextshuffle => {
            let p = wc_params(s.records, s.domain, s.heap_bytes, mode, seed);
            let job = if workload == Workload::WcCombine {
                wordcount::job(&p)
            } else {
                wordcount::text_job(&p)
            };
            (job, wordcount::wc_config(&p))
        }
        Workload::LrGcbound => {
            let mut p = lr_params(s.records, s.domain, 10, mode, seed);
            p.heap_bytes = s.heap_bytes;
            p.storage_fraction = 0.9;
            // Tasks stay on their home executors here. Under the default
            // pull scheduler a stolen task re-caches its partition on the
            // thief, which tips that executor's nearly full heap into
            // collections (Deca included) — the cell would then measure the
            // scheduler's luck, not the memory layers it exists for.
            (logreg::job(&p), logreg::lr_config(&p).scheduler(SchedulerMode::Wave))
        }
        Workload::PrPressure => {
            let mut p = pr_params(s.domain, s.records, 5, mode, seed);
            p.heap_bytes = s.heap_bytes;
            p.storage_fraction = 0.0001;
            (pagerank::job(&p), pagerank::pr_config(&p))
        }
        Workload::ServerMix => unreachable!("server-mix is not a batch workload"),
    };
    Cell { job, config: config.tracing(false) }
}

pub fn wc_params(
    words: usize,
    distinct: usize,
    heap_bytes: usize,
    mode: ExecutionMode,
    seed: u64,
) -> WcParams {
    WcParams { words, distinct, partitions: PARTITIONS, heap_bytes, mode, seed, sample_every: 0 }
}

pub fn lr_params(
    points: usize,
    dims: usize,
    iterations: usize,
    mode: ExecutionMode,
    seed: u64,
) -> LrParams {
    LrParams {
        points,
        dims,
        iterations,
        partitions: PARTITIONS,
        heap_bytes: 32 << 20,
        storage_fraction: 0.6,
        mode,
        page_size: None,
        gc_algorithm: GcAlgorithm::ParallelScavenge,
        seed,
        sample_timeline: false,
    }
}

pub fn pr_params(
    vertices: usize,
    edges: usize,
    iterations: usize,
    mode: ExecutionMode,
    seed: u64,
) -> PrParams {
    PrParams {
        vertices,
        edges,
        iterations,
        partitions: PARTITIONS,
        heap_bytes: 32 << 20,
        mode,
        gc_algorithm: GcAlgorithm::ParallelScavenge,
        storage_fraction: 0.4,
        seed,
    }
}

struct JobResult {
    checksum: f64,
    rollup: Rollup,
    stage: StageCounts,
}

/// Run one batch job on a private cluster. A job that returns `Err` or
/// panics (tight heaps can do both) is reported, not propagated.
///
/// Untraced, this is one `run_job_faulty` call — the timed path. Traced,
/// it makes the same calls by hand so the session's stages and run trace,
/// which `run_job_faulty` drops, can be read before the session goes.
fn run_cell(cell: &Cell, executors: usize, traced: bool) -> Result<JobResult, String> {
    let config = cell.config.clone().tracing(traced);
    let run = || -> Result<JobResult, String> {
        if !traced {
            let report = run_job_faulty(&cell.job, config, executors, FaultPlan::quiet(), None)
                .map_err(|e| e.to_string())?;
            return Ok(JobResult {
                checksum: report.checksum,
                rollup: Rollup::from_report(&report),
                stage: StageCounts::default(),
            });
        }
        let mut session = ClusterSession::new(executors, config);
        let (checksum, cache_bytes) = {
            let mut ctx = JobCtx::local(&mut session);
            let checksum = cell.job.run(&mut ctx).map_err(|e| e.to_string())?;
            (checksum, ctx.noted_cache_bytes())
        };
        session.finish_job();
        let report = AppReport::from_cluster(cell.job.name(), &session, checksum, cache_bytes);
        Ok(JobResult {
            checksum,
            rollup: Rollup::from_report(&report),
            stage: StageCounts::of(session.stages(), &session.merged_trace()),
        })
    };
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|_| Err("the job panicked".to_string()))
}

// ----------------------------------------------------------------------
// oracles and guards
// ----------------------------------------------------------------------

/// `text_job`'s per-occurrence checksum term for word `id`, from the id
/// alone: its token is `w<id>` followed by `id % 11` filler characters,
/// and the term is the token's length plus its second byte (the id's
/// leading digit).
fn text_checksum(id: i64) -> f64 {
    let (mut digits, mut lead) = (1, id);
    while lead >= 10 {
        lead /= 10;
        digits += 1;
    }
    (1 + digits + id % 11 + i64::from(b'0') + lead) as f64
}

fn count_distinct(words: &[i64], universe: usize) -> usize {
    let mut seen = vec![false; universe];
    for &w in words {
        seen[w as usize] = true;
    }
    seen.iter().filter(|&&s| s).count()
}

/// The WordCount pair differs only in how far map-side combining
/// collapses the input; each must sit on its own side of that axis:
/// at least 50 occurrences per key that occurs on one, at most 10 on the
/// other (the zipf draw gives about 100 and 7).
fn check_key_ratio(workload: Workload, words: usize, distinct: usize) -> Result<(), String> {
    let ok = match workload {
        Workload::WcCombine => words >= 50 * distinct,
        _ => words <= 10 * distinct,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: {words} words over {distinct} distinct keys is outside the workload's combining regime",
            workload.name()
        ))
    }
}

/// A workload whose mechanism did not fire measures nothing: name the
/// reason and refuse to report. `accs` holds at least one roll-up per
/// mode, in [`MODES`] order.
pub fn check_mechanism(workload: Workload, accs: &[ModeAcc]) -> Result<(), String> {
    let last = |mode: usize| accs[mode].rollups.last().expect("a roll-up per mode");
    let fail = |why: String| Err(format!("{}: mechanism guard: {why}", workload.name()));
    match workload {
        Workload::WcCombine | Workload::WcTextshuffle => Ok(()), // checked on the input
        Workload::LrGcbound => {
            let (deca, spark) = (last(0), last(1));
            let full_gcs = spark.counts[Rollup::FULL_GCS];
            if full_gcs < 10 {
                return fail(format!("Spark ran {full_gcs} full GCs, need >= 10"));
            }
            let (pause, task) =
                (spark.durations[Rollup::GC_PAUSE_S], spark.durations[Rollup::TASK_S]);
            if pause < 0.3 * task {
                return fail(format!(
                    "Spark GC pause {pause:.3}s is under 30% of task time {task:.3}s"
                ));
            }
            let (minor, full) = (deca.counts[Rollup::MINOR_GCS], deca.counts[Rollup::FULL_GCS]);
            if minor + full != 0 {
                return fail(format!("Deca ran {minor} minor and {full} full GCs, need none"));
            }
            Ok(())
        }
        Workload::PrPressure => {
            for (mode, key) in MODE_KEYS.iter().enumerate() {
                let r = last(mode);
                if r.counts[Rollup::SWAPPED_CACHE_BYTES] == 0
                    && r.durations[Rollup::IO_SIM_S] == 0.0
                {
                    return fail(format!("{key} never pushed a cache block off the heap"));
                }
            }
            Ok(())
        }
        Workload::ServerMix => {
            for (mode, key) in MODE_KEYS.iter().enumerate() {
                if last(mode).counts[Rollup::RETRIES] == 0 {
                    return fail(format!("no injected fault was retried in {key} mode"));
                }
                if accs[mode].rejected != 0 {
                    return fail(format!(
                        "{} submissions refused in {key} mode",
                        accs[mode].rejected
                    ));
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_oracle_matches_the_token_format() {
        for id in [0i64, 7, 10, 11, 99, 100, 12_345, 399_999] {
            let token = format!("w{}{}", id, "x".repeat((id % 11) as usize));
            let expected = token.len() as f64 + f64::from(token.as_bytes()[1]);
            assert_eq!(text_checksum(id), expected, "id {id}");
        }
    }

    #[test]
    fn key_ratio_guard_separates_the_two_wordcounts() {
        assert!(check_key_ratio(Workload::WcCombine, 2_000_000, 20_000).is_ok());
        assert!(check_key_ratio(Workload::WcCombine, 800_000, 400_000).is_err());
        assert!(check_key_ratio(Workload::WcTextshuffle, 800_000, 118_000).is_ok());
        assert!(check_key_ratio(Workload::WcTextshuffle, 2_000_000, 20_000).is_err());
    }

    #[test]
    fn mechanism_guard_names_what_did_not_fire() {
        let acc = |r: Rollup| ModeAcc { rollups: vec![r], ..ModeAcc::default() };
        let with = |durations: &[(usize, f64)], counts: &[(usize, u64)]| {
            let mut r = Rollup::default();
            durations.iter().for_each(|&(i, v)| r.durations[i] = v);
            counts.iter().for_each(|&(i, v)| r.counts[i] = v);
            r
        };
        let quiet = Rollup::default;
        let gc_bound =
            || with(&[(Rollup::GC_PAUSE_S, 0.7), (Rollup::TASK_S, 1.5)], &[(Rollup::FULL_GCS, 42)]);
        let ok = [acc(quiet()), acc(gc_bound()), acc(quiet())];
        assert!(check_mechanism(Workload::LrGcbound, &ok).is_ok());
        let no_full = [acc(quiet()), acc(quiet()), acc(quiet())];
        let err = check_mechanism(Workload::LrGcbound, &no_full).unwrap_err();
        assert!(err.contains("full GCs"), "{err}");
        let deca_collects = with(&[], &[(Rollup::FULL_GCS, 5)]);
        let bad = [acc(deca_collects), acc(gc_bound()), acc(quiet())];
        assert!(check_mechanism(Workload::LrGcbound, &bad).unwrap_err().contains("Deca"));

        let swapped = || with(&[], &[(Rollup::SWAPPED_CACHE_BYTES, 1)]);
        let io = with(&[(Rollup::IO_SIM_S, 0.01)], &[]);
        let pressed = [acc(io), acc(swapped()), acc(swapped())];
        assert!(check_mechanism(Workload::PrPressure, &pressed).is_ok());
        assert!(check_mechanism(Workload::PrPressure, &no_full).is_err());

        let retried = || acc(with(&[], &[(Rollup::RETRIES, 3)]));
        assert!(check_mechanism(Workload::ServerMix, &[retried(), retried(), retried()]).is_ok());
        let refused = ModeAcc { rejected: 1, ..retried() };
        assert!(check_mechanism(Workload::ServerMix, &[retried(), refused, retried()])
            .unwrap_err()
            .contains("refused"));
        assert!(check_mechanism(Workload::ServerMix, &no_full).unwrap_err().contains("retried"));
    }

    #[test]
    fn rollups_sum_and_average_by_position() {
        let job = Rollup { durations: [2.0; 8], counts: [3; 7] };
        let mut batch = Rollup::default();
        batch.add(&job);
        batch.add(&job);
        batch.average_durations(2);
        assert_eq!(batch, Rollup { durations: [2.0; 8], counts: [6; 7] });
        assert_eq!(Rollup::DURATIONS[Rollup::IO_SIM_S], "io_sim_s");
        assert_eq!(Rollup::DURATIONS[Rollup::GC_PAUSE_S], "gc_pause_s");
        assert_eq!(Rollup::COUNTS[Rollup::SWAPPED_CACHE_BYTES], "swapped_cache_bytes");
        assert_eq!(Rollup::COUNTS[Rollup::RETRIES], "retries");
    }
}
