//! `server-mix`: a closed loop of small jobs through one shared
//! `DecaServer` per mode.
//!
//! Small jobs make claim-pool scheduling, admission, per-job session start,
//! plan classification and the retry engine the dominant cost and the data
//! path minor. The loop is closed because each analyst waits for a reply:
//! as many clients as executors, each submitting its next job only when
//! the previous one returned, over two tenants. The job list is a fixed
//! function of the seed: job `i` is WordCount, LR or PageRank by `i % 3`,
//! one of a few seeded input variants, and every 8th job carries a seeded
//! fault plan with the resilient retry policy.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use deca_apps::{datagen, logreg, pagerank, run_job_faulty, wordcount};
use deca_check::rng::SplitMix64;
use deca_engine::{
    AppJob, DecaServer, ExecutorConfig, FaultPlan, FaultSpec, JobOutput, JobSpec, RetryPolicy,
};

use crate::spans::Spans;
use crate::workloads::{
    check_mechanism, executors, lr_params, pr_params, wc_params, ModeAcc, Prepared, Rollup,
    StageCounts, Workload, MODES, MODE_KEYS,
};

const KINDS: usize = 3;
/// Seeded input variants per job kind: enough that consecutive jobs differ,
/// few enough that every job has a standalone reference computed in set-up.
const VARIANTS: usize = 4;
const TENANTS: [&str; 2] = ["analytics", "reporting"];
const HEAP_BYTES: usize = 32 << 20;
const LR_DIMS: usize = 10;

#[derive(Clone, Copy)]
struct MixSizes {
    wc_words: usize,
    wc_distinct: usize,
    lr_points: usize,
    lr_iterations: usize,
    pr_vertices: usize,
    pr_edges: usize,
    pr_iterations: usize,
}

/// One job shape: the same job built for each mode, its input size and
/// the checksum a standalone run produces.
struct Variant {
    apps: Vec<AppJob>,
    records: usize,
    reference: f64,
    data_seed: u64,
}

pub struct ServerMix {
    seed: u64,
    sizes: MixSizes,
    clients: usize,
    variants: Vec<Variant>,
    servers: Vec<DecaServer>,
    /// Built on a mode's first traced round.
    traced_servers: Vec<Option<DecaServer>>,
    /// Jobs per round, by mode.
    batch: [usize; 3],
    /// Next job index, by mode: every mode walks the same list.
    cursor: [usize; 3],
}

fn server_config(mode: usize) -> ExecutorConfig {
    ExecutorConfig::new(MODES[mode], HEAP_BYTES).tracing(false)
}

impl ServerMix {
    pub fn prepare(seed: u64, scale: usize, spans: &mut Spans) -> Result<ServerMix, String> {
        let sizes = MixSizes {
            wc_words: 200_000 / scale,
            wc_distinct: 10_000 / scale,
            lr_points: 20_000 / scale,
            lr_iterations: 5,
            pr_vertices: 5_000 / scale,
            pr_edges: 50_000 / scale,
            pr_iterations: 3,
        };
        let executors = executors();

        let build = spans.start("job_build", None, 0);
        let mut variants = Vec::with_capacity(KINDS * VARIANTS);
        for kind in 0..KINDS {
            for v in 0..VARIANTS {
                let data_seed = seed.wrapping_mul(1000).wrapping_add((kind * VARIANTS + v) as u64);
                let apps = MODES.iter().map(|&mode| build_app(kind, &sizes, mode, data_seed));
                let records = [sizes.wc_words, sizes.lr_points, sizes.pr_edges][kind];
                variants.push(Variant {
                    apps: apps.collect(),
                    records,
                    reference: f64::NAN,
                    data_seed,
                });
            }
        }
        spans.end(build);

        // Standalone references: each shape once, alone, on a private
        // cluster. Server jobs in every mode, faulted ones included, must
        // reproduce them bit for bit.
        for variant in &mut variants {
            let report = run_job_faulty(
                &variant.apps[0],
                server_config(0),
                executors,
                FaultPlan::quiet(),
                None,
            )
            .map_err(|e| format!("server-mix: standalone reference failed: {e}"))?;
            variant.reference = report.checksum;
        }

        let servers = (0..MODES.len()).map(|m| DecaServer::new(executors, server_config(m)));
        let mut mix = ServerMix {
            seed,
            sizes,
            clients: executors,
            variants,
            servers: servers.collect(),
            traced_servers: (0..MODES.len()).map(|_| None).collect(),
            batch: if scale == 1 { [60, 36, 36] } else { [16, 8, 8] },
            cursor: [0; 3],
        };

        let mut warm: Vec<ModeAcc> = Vec::new();
        for (mode, key) in MODE_KEYS.iter().enumerate() {
            let mut acc = ModeAcc::default();
            mix.round(mode, false, &mut acc, &mut Spans::new(false));
            if acc.failed != 0 {
                return Err(format!(
                    "server-mix: {} of {} warm-up jobs failed in {key} mode",
                    acc.failed, acc.attempted
                ));
            }
            warm.push(acc);
        }
        check_mechanism(Workload::ServerMix, &warm)?;
        // The timed rounds start the list again, so the timed work is the
        // same whatever the warm-up did.
        mix.cursor = [0; 3];
        Ok(mix)
    }

    /// The shape of the `i`-th job of the list.
    fn variant(&self, i: usize) -> &Variant {
        let pick = SplitMix64::new(self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .next_u64() as usize
            % VARIANTS;
        &self.variants[(i % KINDS) * VARIANTS + pick]
    }

    /// The submission of the `i`-th job of the list, for `mode`.
    fn spec(&self, i: usize, mode: usize) -> JobSpec {
        let app = self.variant(i).apps[mode].clone();
        let spec = JobSpec::new(TENANTS[i % TENANTS.len()]).app(app);
        if i % 8 != 7 {
            return spec;
        }
        let faults = FaultSpec { task_body: 0.2, shuffle_frame: 0.1, ..FaultSpec::default() };
        spec.faults(FaultPlan::seeded(self.seed.wrapping_add(i as u64), faults))
            .retry(RetryPolicy::resilient())
    }
}

fn build_app(kind: usize, s: &MixSizes, mode: deca_engine::ExecutionMode, seed: u64) -> AppJob {
    match kind {
        0 => wordcount::job(&wc_params(s.wc_words, s.wc_distinct, HEAP_BYTES, mode, seed)),
        1 => logreg::job(&lr_params(s.lr_points, LR_DIMS, s.lr_iterations, mode, seed)),
        _ => pagerank::job(&pr_params(s.pr_vertices, s.pr_edges, s.pr_iterations, mode, seed)),
    }
}

/// What a client saw of one job.
struct Served {
    index: usize,
    submitted: Instant,
    done: Instant,
    /// `None`: the server refused the submission.
    outcome: Option<Result<JobOutput, String>>,
}

impl Prepared for ServerMix {
    fn round(&mut self, mode: usize, traced: bool, acc: &mut ModeAcc, spans: &mut Spans) {
        if traced && self.traced_servers[mode].is_none() {
            let config = server_config(mode).tracing(true);
            self.traced_servers[mode] = Some(DecaServer::new(self.clients, config));
        }
        let server = match &self.traced_servers[mode] {
            Some(server) if traced => server,
            _ => &self.servers[mode],
        };
        let (first, jobs) = (self.cursor[mode], self.batch[mode]);
        let next = AtomicUsize::new(0);
        let client = || {
            let mut served = Vec::new();
            loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= jobs {
                    return served;
                }
                let spec = self.spec(first + k, mode);
                let submitted = Instant::now();
                let outcome = match server.submit(spec) {
                    Ok(handle) => Some(handle.wait().map_err(|e| e.to_string())),
                    Err(_) => None,
                };
                served.push(Served { index: first + k, submitted, done: Instant::now(), outcome });
            }
        };
        let t = Instant::now();
        let served: Vec<Served> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.clients).map(|_| s.spawn(client)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a server-mix client thread panicked"))
                .collect()
        });
        let window = t.elapsed().as_secs_f64();

        let (mut rollup, mut verified, mut records) = (Rollup::default(), 0usize, 0usize);
        for job in &served {
            let id = job.index as u64 + 1;
            let root = spans.add(MODE_KEYS[mode], None, id, job.submitted, job.done);
            spans.add("job_run", Some(root), id, job.submitted, job.done);
            let verify = spans.start("verify", Some(root), id);
            let variant = self.variant(job.index);
            acc.attempted += 1;
            acc.job_s.push((job.done - job.submitted).as_secs_f64());
            records += variant.records;
            match &job.outcome {
                Some(Ok(out)) if out.checksum.to_bits() == variant.reference.to_bits() => {
                    let stage = if traced {
                        StageCounts::of(&out.stages, &out.trace)
                    } else {
                        StageCounts::default()
                    };
                    rollup.add(&Rollup::from_metrics(
                        &out.metrics,
                        out.cache_bytes,
                        stage.gc_objects_traced,
                    ));
                    acc.stage.add(&stage);
                    verified += 1;
                }
                Some(Ok(out)) => {
                    eprintln!(
                        "server-mix {} job {}: checksum {} differs from the standalone reference {}",
                        MODE_KEYS[mode], job.index, out.checksum, variant.reference
                    );
                    acc.failed += 1;
                }
                Some(Err(e)) => {
                    eprintln!("server-mix {} job {}: failed: {e}", MODE_KEYS[mode], job.index);
                    acc.failed += 1;
                }
                None => {
                    acc.failed += 1;
                    acc.rejected += 1;
                }
            }
            spans.end(verify);
        }
        rollup.average_durations(verified);
        acc.rollups.push(rollup);
        acc.round_krec_per_s.push(records as f64 / 1e3 / window);
        self.cursor[mode] += jobs;
    }

    fn datagen(&self) -> usize {
        let s = &self.sizes;
        let seeds: Vec<u64> =
            (0..KINDS).map(|kind| self.variants[kind * VARIANTS].data_seed).collect();
        std::hint::black_box(datagen::zipf_words(s.wc_words, s.wc_distinct, seeds[0]));
        std::hint::black_box(datagen::labeled_vectors(s.lr_points, LR_DIMS, seeds[1]));
        std::hint::black_box(datagen::power_law_graph(s.pr_vertices, s.pr_edges, seeds[2]));
        KINDS
    }
}
