//! One run of one workload: set-up, then either the timed pass (tracing
//! off, end-to-end metrics) or the traced pass (per-layer metrics).

use std::path::{Path, PathBuf};
use std::time::Instant;

use deca_check::json::Json;

use crate::metrics::{per_layer, END_TO_END};
use crate::probes;
use crate::server_mix::ServerMix;
use crate::spans::Spans;
use crate::stats::{median, p90_if_supported, Summary};
use crate::workloads::{executors, Batch, ModeAcc, Prepared, Rollup, Workload, MODES, MODE_KEYS};

/// Set-ups per timed run: the reported `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A timed pass runs at least this many rounds however slow the host.
const MIN_ROUNDS: usize = 3;
/// Rounds of the traced pass: three traced jobs (or batches) per cell.
const TRACED_ROUNDS: usize = 3;
const DATAGEN_SAMPLES: usize = 5;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Input sizes are `1/scale` of full size (1 except in the self-test).
    pub scale: usize,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Per mode: the job-time samples, in the order they were taken.
    pub job_s: Vec<Vec<f64>>,
    pub rounds: usize,
    /// Whether every `rep.*` count was identical on every traced job.
    pub counts_repeat: bool,
}

impl RunOutput {
    /// The single line the driver reads: exactly these four keys.
    pub fn result_line(&self) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            ("metrics", self.metrics_json()),
        ])
        .to_compact()
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value =
                        Json::obj(vec![("value", Json::num(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.clone(), value)
                })
                .collect(),
        )
    }

    /// Everything about the run, for the results file.
    pub fn to_json(&self, args: &RunArgs) -> Json {
        let cells = MODE_KEYS.iter().zip(&self.job_s).map(|(k, samples)| {
            let mut cell = Summary::of(samples).to_json();
            if let Json::Obj(members) = &mut cell {
                let samples = samples.iter().map(|&s| Json::num(s)).collect();
                members.push(("samples".to_string(), Json::Arr(samples)));
            }
            (k.to_string(), cell)
        });
        Json::obj(vec![
            ("workload", Json::str(args.workload.name())),
            ("seed", Json::int(args.seed)),
            ("seconds", Json::num(args.seconds)),
            ("trace", Json::Bool(args.trace)),
            ("executors", Json::int(executors() as u64)),
            ("rounds", Json::int(self.rounds as u64)),
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::int(self.attempted)),
            ("failed", Json::int(self.failed)),
            ("rep_counts_repeat", Json::Bool(self.counts_repeat)),
            ("job_s", Json::Obj(cells.collect())),
            ("metrics", self.metrics_json()),
        ])
    }
}

/// Where the benchmark writes: `out/` beside its manifest, nowhere else.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Point the program's spill and swap files at a directory of this
/// process under `out/` (they default to the system temp directory).
/// Call before the first job; returns the directory for removal at exit.
pub fn enter_scratch() -> Result<PathBuf, String> {
    static SCRATCH: std::sync::OnceLock<Result<PathBuf, String>> = std::sync::OnceLock::new();
    SCRATCH
        .get_or_init(|| {
            let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
            std::fs::create_dir_all(&tmp)
                .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
            std::env::set_var("TMPDIR", &tmp);
            Ok(tmp)
        })
        .clone()
}

fn prepare(args: &RunArgs, spans: &mut Spans) -> Result<Box<dyn Prepared>, String> {
    Ok(match args.workload {
        Workload::ServerMix => Box::new(ServerMix::prepare(args.seed, args.scale, spans)?),
        batch => Box::new(Batch::prepare(batch, args.seed, args.scale, spans)?),
    })
}

pub fn run(args: &RunArgs) -> Result<RunOutput, String> {
    if args.trace {
        traced_run(args)
    } else {
        timed_run(args)
    }
}

fn totals<'a>(accs: impl IntoIterator<Item = &'a ModeAcc>) -> (u64, u64) {
    accs.into_iter()
        .fold((0, 0), |(attempted, failed), a| (attempted + a.attempted, failed + a.failed))
}

// ----------------------------------------------------------------------
// timed pass
// ----------------------------------------------------------------------

fn timed_run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut spans = Spans::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut prepared = None;
    for _ in 0..SETUP_REPS {
        // The previous set-up's servers shut down outside the timed part.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(prepare(args, &mut spans)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("at least one set-up");

    // Modes interleave in rounds so host drift hits all three alike.
    let mut accs: Vec<ModeAcc> = MODES.iter().map(|_| ModeAcc::default()).collect();
    let start = Instant::now();
    let mut rounds = 0;
    loop {
        for (mode, acc) in accs.iter_mut().enumerate() {
            prepared.round(mode, false, acc, &mut spans);
        }
        rounds += 1;
        let elapsed = start.elapsed().as_secs_f64();
        if rounds >= MIN_ROUNDS && elapsed + elapsed / rounds as f64 > args.seconds {
            break;
        }
    }
    drop(prepared);

    let values = [
        median(&setups),
        median(&accs[0].job_s),
        median(&accs[1].job_s),
        median(&accs[2].job_s),
        median(&accs[0].round_krec_per_s),
        median(&accs[1].round_krec_per_s),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, value)| Metric { name: m.name.to_string(), value, unit: m.unit })
        .collect();
    let (attempted, failed) = totals(&accs);
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        job_s: accs.into_iter().map(|a| a.job_s).collect(),
        rounds,
        counts_repeat: true,
    })
}

/// Peak resident set of this process (`VmHWM`), in MB. Evidence, not an
/// end-to-end metric: memory a finished job freed stays in the allocator's
/// per-thread arenas, so the peak wanders by a quarter from run to run.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

// ----------------------------------------------------------------------
// traced pass
// ----------------------------------------------------------------------

fn traced_run(args: &RunArgs) -> Result<RunOutput, String> {
    let mut spans = Spans::new(true);
    let setup = spans.start("setup", None, 0);
    let mut prepared = prepare(args, &mut spans)?;
    spans.end(setup);

    // Three traced rounds per mode; an untraced Deca round beside each
    // gives the tracing overhead from the same minutes of the same host.
    let mut traced: Vec<ModeAcc> = MODES.iter().map(|_| ModeAcc::default()).collect();
    let mut untraced_deca = ModeAcc::default();
    for _ in 0..TRACED_ROUNDS {
        for (mode, acc) in traced.iter_mut().enumerate() {
            prepared.round(mode, true, acc, &mut spans);
        }
        prepared.round(0, false, &mut untraced_deca, &mut spans);
    }

    let mut datagen_s = Vec::with_capacity(DATAGEN_SAMPLES);
    for _ in 0..DATAGEN_SAMPLES {
        let gen = spans.start("input_gen", None, 0);
        let t = Instant::now();
        let jobs = prepared.datagen();
        datagen_s.push(t.elapsed().as_secs_f64() / jobs as f64);
        spans.end(gen);
    }
    drop(prepared);
    // Before the probes, whose own heaps are not the workload's memory.
    let peak_rss_mb = peak_rss_mb()?;

    let mut values: Vec<(String, f64)> = probes::run_all(args.seconds, args.seed, &mut spans)
        .into_iter()
        .map(|(name, value)| (name.to_string(), value))
        .collect();

    let deca_job_s = median(&traced[0].job_s);
    let rounds = TRACED_ROUNDS as f64;
    let per_round = |f: fn(&ModeAcc) -> u64| traced.iter().map(f).sum::<u64>() as f64 / rounds;
    let p90 = |mode: usize| p90_if_supported(&traced[mode].job_s).unwrap_or(0.0);
    values.extend([
        ("proc.peak_rss_mb".to_string(), peak_rss_mb),
        ("apps.datagen_s".to_string(), median(&datagen_s)),
        ("apps.datagen_share".to_string(), median(&datagen_s) / deca_job_s),
        (
            "engine.trace.overhead_pct".to_string(),
            (deca_job_s / median(&untraced_deca.job_s) - 1.0) * 100.0,
        ),
        ("engine.trace.events".to_string(), per_round(|a| a.stage.trace_events)),
        ("engine.server.deca_latency_p90_s".to_string(), p90(0)),
        ("engine.server.spark_latency_p90_s".to_string(), p90(1)),
        ("engine.server.sparkser_latency_p90_s".to_string(), p90(2)),
        ("engine.server.shuffle_bytes".to_string(), per_round(|a| a.stage.shuffle_bytes)),
        ("engine.server.handover_pages".to_string(), per_round(|a| a.stage.handover_pages)),
        ("engine.server.spill_bytes".to_string(), per_round(|a| a.stage.spill_bytes)),
        ("engine.server.steals".to_string(), per_round(|a| a.stage.steals)),
        (
            "engine.server.rejected".to_string(),
            traced.iter().map(|a| a.rejected).sum::<u64>() as f64,
        ),
    ]);

    let mut counts_repeat = true;
    for (mode, acc) in traced.iter().enumerate() {
        let key = MODE_KEYS[mode];
        let Some(last) = acc.rollups.last() else {
            return Err(format!("{}: no traced {key} job succeeded", args.workload.name()));
        };
        counts_repeat &= acc.rollups.iter().all(|r| r.counts == last.counts);
        for (i, name) in Rollup::DURATIONS.iter().enumerate() {
            let samples: Vec<f64> = acc.rollups.iter().map(|r| r.durations[i]).collect();
            values.push((format!("rep.{key}.{name}"), median(&samples)));
        }
        for (name, count) in Rollup::COUNTS.iter().zip(last.counts) {
            values.push((format!("rep.{key}.{name}"), count as f64));
        }
        // Wall time the program attributes to no task: session start,
        // in-job input generation, report assembly.
        let task_wall: Vec<f64> = acc
            .rollups
            .iter()
            .map(|r| r.durations[Rollup::TASK_S] - r.durations[Rollup::IO_SIM_S])
            .collect();
        values.push((
            format!("engine.driver.outside_task_share.{key}"),
            1.0 - median(&task_wall) / median(&acc.job_s),
        ));
    }

    let metrics = per_layer()
        .into_iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("no value measured for {}", m.name))
                .1;
            Metric { name: m.name, value, unit: m.unit }
        })
        .collect();

    write_spans(args, &spans)?;
    let (attempted, failed) = totals(traced.iter().chain([&untraced_deca]));
    Ok(RunOutput {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        job_s: traced.into_iter().map(|a| a.job_s).collect(),
        rounds: TRACED_ROUNDS,
        counts_repeat,
    })
}

fn write_spans(args: &RunArgs, spans: &Spans) -> Result<(), String> {
    let scaled = if args.scale == 1 { String::new() } else { format!("-scale{}", args.scale) };
    let path = out_dir().join(format!("trace-{}{scaled}.json", args.workload.name()));
    std::fs::write(&path, spans.to_json().to_compact())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}
