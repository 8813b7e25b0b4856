//! DecaServer acceptance: many concurrent jobs through one shared server
//! must be *indistinguishable in result* from the same jobs run serially
//! on a private `ClusterSession` of the same width — bit-identical
//! checksums and identical recovery counters — while the service-level
//! contracts (tenant admission, per-tenant cache budgets, job-scoped
//! traces) hold.
//!
//! The soak matrix runs both scheduler modes × the pinned storm seeds
//! {11, 29, 47} by default; `DECA_CHECK_SEED` narrows it to one seed (the
//! `scripts/ci.sh` soak legs do exactly that), and `DECA_SOAK_JOBS`
//! scales the job count per cell — the default is a tier-1-sized smoke,
//! the CI legs push ≥200 jobs total.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use deca_apps::pagerank::{self, PrParams};
use deca_apps::run_job_faulty;
use deca_apps::wordcount::{self, WcParams};
use deca_engine::{
    AppJob, DecaServer, EngineError, ExecutionMode, ExecutorConfig, FaultPlan, FaultSpec,
    JobMetrics, JobSpec, RetryPolicy, SchedulerMode, ServerConfig, Tier,
};

/// Executors backing the shared server in the soak.
const SERVER_EXECUTORS: usize = 4;
/// Virtual width of every soak job: narrower than the server, so jobs
/// genuinely share workers, and fixed, so the serial references ran at
/// the same width reproduce the exact floating-point schedule.
const JOB_WIDTH: usize = 2;
/// Client threads hammering `submit` concurrently.
const CLIENT_THREADS: usize = 16;
const FAULT_SEEDS: [u64; 3] = [11, 29, 47];

fn soak_jobs_per_cell() -> usize {
    std::env::var("DECA_SOAK_JOBS").ok().and_then(|s| s.parse().ok()).unwrap_or(12).max(1)
}

fn seeds() -> Vec<u64> {
    match std::env::var("DECA_CHECK_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => FAULT_SEEDS.to_vec(),
    }
}

const SCHEDULERS: [SchedulerMode; 2] = [SchedulerMode::Wave, SchedulerMode::Pull];

/// The same survivable scatter the fault-tolerance matrix uses: every
/// site fires somewhere, `resilient()` absorbs everything.
fn storm() -> FaultSpec {
    FaultSpec {
        task_body: 0.35,
        executor_crash: 0.10,
        shuffle_frame: 0.20,
        alloc: 0.15,
        spill_path: 0.0,
        task_hang: 0.0,
        repeat_on_retry: false,
    }
}

/// One shared executor template for the server *and* the serial
/// references — identical heaps mean identical spill/GC behaviour, so
/// the comparison isolates the scheduling layer alone.
fn base_config() -> ExecutorConfig {
    ExecutorConfig::new(ExecutionMode::Deca, 24 << 20).storage_fraction(0.4)
}

fn wc_params(mode: ExecutionMode) -> WcParams {
    WcParams {
        words: 12_000,
        distinct: 500,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        seed: 42,
        sample_every: 0,
    }
}

fn pr_params(mode: ExecutionMode) -> PrParams {
    PrParams {
        vertices: 300,
        edges: 2_400,
        iterations: 2,
        partitions: 4,
        heap_bytes: 24 << 20,
        mode,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        storage_fraction: 0.4,
        seed: 9,
    }
}

/// The mixed job population: both workloads in all three modes. The app
/// dispatches on its params' mode, so one server (one executor config)
/// hosts all six shapes at once.
fn kinds() -> Vec<(&'static str, AppJob)> {
    let mut v = Vec::new();
    for mode in ExecutionMode::ALL {
        v.push(("WC", wordcount::job(&wc_params(mode))));
        v.push(("PR", pagerank::job(&pr_params(mode))));
    }
    v
}

/// The recovery counters that must survive the move from a private
/// session to a shared server unchanged: fault draws key on
/// (site, stage, task, attempt), so identical jobs recover identically.
fn rollup(m: &JobMetrics) -> (u64, u64, u64, u64, u64, u64) {
    (m.attempts, m.retries, m.quarantines, m.restarts, m.oom_reruns, m.oom_recoveries)
}

#[test]
fn concurrent_soak_is_bit_identical_to_serial_sessions() {
    let jobs_per_cell = soak_jobs_per_cell();
    for sched in SCHEDULERS {
        for seed in seeds() {
            soak_cell(sched, seed, jobs_per_cell);
        }
    }
}

fn soak_cell(sched: SchedulerMode, seed: u64, jobs: usize) {
    let plan = FaultPlan::seeded(seed, storm());
    let kinds = kinds();

    // Serial references: each job kind once, alone, on a private
    // ClusterSession at the same width, same config, same plan.
    let refs: Vec<(f64, (u64, u64, u64, u64, u64, u64))> = kinds
        .iter()
        .map(|(_, app)| {
            let report = run_job_faulty(
                app,
                base_config().scheduler(sched),
                JOB_WIDTH,
                plan.clone(),
                Some(RetryPolicy::resilient()),
            )
            .unwrap_or_else(|e| panic!("seed {seed}, {sched}: serial reference died: {e}"));
            (report.checksum, rollup(&report.metrics))
        })
        .collect();

    let server = Arc::new(DecaServer::new(SERVER_EXECUTORS, base_config()));
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..CLIENT_THREADS.min(jobs) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let k = i % kinds.len();
                let spec = JobSpec::new(format!("tenant-{}", i % 4))
                    .executors(JOB_WIDTH)
                    .retry(RetryPolicy::resilient())
                    .scheduler(sched)
                    .faults(plan.clone())
                    .app(kinds[k].1.clone());
                let out = server
                    .submit(spec)
                    .expect("admission is unlimited in the soak")
                    .wait()
                    .unwrap_or_else(|e| {
                        panic!("seed {seed}, {sched}, job {i} ({}): died: {e}", kinds[k].0)
                    });
                let (ref_sum, ref_roll) = refs[k];
                assert_eq!(
                    out.checksum, ref_sum,
                    "seed {seed}, {sched}, job {i} ({}): checksum drifted off the serial run",
                    kinds[k].0
                );
                assert_eq!(
                    rollup(&out.metrics),
                    ref_roll,
                    "seed {seed}, {sched}, job {i} ({}): recovery counters drifted",
                    kinds[k].0
                );
                assert_eq!(out.metrics.job, out.job, "metrics must be stamped with the job id");
                done.fetch_add(1, Ordering::Relaxed);
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), jobs, "every submitted job must complete");
    assert_eq!(
        server.live_groups(),
        0,
        "seed {seed}, {sched}: a page group outlived the jobs that released their blocks"
    );
}

// ---------------------------------------------------------------------
// tier-1 service contracts
// ---------------------------------------------------------------------

/// A two-phase gate: the job signals `parked`, then blocks until the
/// test releases it — the standard trick for holding one job mid-flight
/// while the test observes or runs other jobs around it.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, bool)>, // (parked, released)
    cv: Condvar,
}

impl Gate {
    fn park(&self) {
        let mut st = self.state.lock().unwrap();
        st.0 = true;
        self.cv.notify_all();
        while !st.1 {
            st = self.cv.wait(st).unwrap();
        }
    }
    fn wait_parked(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.cv.wait(st).unwrap();
        }
    }
    fn release(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

/// Releases the gate even when a test assertion fails mid-park —
/// otherwise the parked runner thread would deadlock the server's
/// shutdown join and hang the whole suite instead of failing it.
struct ReleaseOnDrop(Arc<Gate>);

impl Drop for ReleaseOnDrop {
    fn drop(&mut self) {
        self.0.release();
    }
}

#[test]
fn tenant_admission_rejects_above_the_in_flight_cap() {
    let server = DecaServer::with_config(ServerConfig::new(1, base_config()).runners(2));
    server.configure_tenant("capped", 1);

    let gate = Arc::new(Gate::default());
    let g = gate.clone();
    let blocker = AppJob::new("blocker", move |_ctx| {
        g.park();
        Ok(1.0)
    });
    let first = server.submit(JobSpec::new("capped").app(blocker)).expect("under the cap");
    let _release = ReleaseOnDrop(gate.clone());
    gate.wait_parked();

    // Tenant at its cap: the next submit is rejected up front, with the
    // tenant and limit named — a scheduling decision, not a retryable
    // fault.
    let err = server
        .submit(JobSpec::new("capped").app(wordcount::job(&wc_params(ExecutionMode::Deca))))
        .expect_err("second in-flight job must be rejected");
    match &err {
        EngineError::AdmissionRejected { tenant, in_flight, limit } => {
            assert_eq!(tenant, "capped");
            assert_eq!((*in_flight, *limit), (1, 1));
        }
        other => panic!("expected AdmissionRejected, got {other}"),
    }
    assert!(!err.is_transient(), "admission rejection is not a retryable fault");

    // Other tenants are unaffected by the capped tenant's limit.
    let other = server
        .submit(JobSpec::new("roomy").app(wordcount::job(&wc_params(ExecutionMode::Deca))))
        .expect("other tenants admit freely");

    gate.release();
    assert_eq!(first.wait().expect("blocker completes").checksum, 1.0);
    other.wait().expect("other tenant's job completes");

    // The slot freed: the same tenant admits again.
    let again = server
        .submit(JobSpec::new("capped").app(wordcount::job(&wc_params(ExecutionMode::Deca))))
        .expect("cap frees when the job finishes");
    again.wait().expect("resubmitted job completes");
}

#[test]
fn tenant_cache_budget_shields_a_tenant_from_noisy_neighbours() {
    // One executor, ~700 KB storage pool. The victim caches one small
    // block and parks; the noisy tenant then pushes ~6x the pool through
    // the shared cache. The victim's budget covers its block, so every
    // eviction the noise forces must fall on the noisy tenant's own
    // blocks — and the victim's block must still be readable, in memory,
    // afterwards.
    let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).storage_fraction(0.045);
    let server = Arc::new(DecaServer::with_config(ServerConfig::new(1, config).runners(2)));
    server.set_tenant_cache_budget("victim", 256 << 10);

    let recs: Vec<(i64, f64)> = (0..2_000).map(|i| (i as i64, i as f64 * 0.5)).collect();
    let expected: f64 = recs.iter().map(|(_, v)| v).sum();

    let gate = Arc::new(Gate::default());
    let victim = {
        let gate = gate.clone();
        let recs = recs.clone();
        AppJob::new("victim", move |ctx| {
            let slot = Arc::new(Mutex::new(None));
            let put = slot.clone();
            let cache_recs = recs.clone();
            ctx.run_stage("victim-cache", 1, move |_t, e| {
                let id = e
                    .cache
                    .put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, &cache_recs)
                    .expect("victim block fits the pool");
                *put.lock().unwrap() = Some(id);
                Ok(())
            })?;
            // Parked on the runner thread, executor lock released: the
            // noisy job runs against the shared cache meanwhile.
            gate.park();
            let got = slot.lock().unwrap().expect("cached in stage 1");
            let sums = ctx.run_stage("victim-read", 1, move |_t, e| {
                assert_ne!(
                    e.cache.tier(got, &e.mm),
                    Tier::Cold,
                    "budgeted victim block was evicted by another tenant's pressure"
                );
                let mut sum = 0.0;
                e.cache
                    .iter_serialized::<(i64, f64)>(
                        got,
                        &mut e.heap,
                        &mut e.kryo,
                        &mut e.mm,
                        |(_, v)| sum += v,
                    )
                    .expect("victim block reads back");
                Ok(sum)
            })?;
            Ok(sums[0])
        })
    };

    let noisy = AppJob::new("noisy", move |ctx| {
        let sums = ctx.run_stage("noise", 12, move |t, e| {
            // ~170 KB serialized per task, ~2 MB across the stage: several
            // times the ~700 KB pool, so the noise must evict — and the
            // only unshielded blocks are its own.
            let filler: Vec<(i64, f64)> =
                (0..16_000).map(|i| ((t.task * 100_000 + i) as i64, i as f64)).collect();
            e.cache
                .put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, &filler)
                .expect("noise put succeeds by evicting older noise");
            Ok(1.0)
        })?;
        Ok(sums.iter().sum())
    });

    let victim_handle = server.submit(JobSpec::new("victim").app(victim)).expect("submit victim");
    let _release = ReleaseOnDrop(gate.clone());
    gate.wait_parked();
    assert!(
        server.tenant_resident_bytes("victim") > 0,
        "victim's cached block is resident while it is parked"
    );

    let noisy_out = server
        .submit(JobSpec::new("noisy").app(noisy))
        .expect("submit noisy")
        .wait()
        .expect("noisy job completes");
    assert_eq!(noisy_out.checksum, 12.0);
    assert!(
        server.tenant_evictions("noisy") > 0,
        "the noise working set exceeds the pool, so the noisy tenant must self-evict"
    );
    assert_eq!(
        server.tenant_evictions("victim"),
        0,
        "no eviction may be charged to the shielded victim"
    );

    gate.release();
    let out = victim_handle.wait().expect("victim job completes");
    assert_eq!(out.checksum, expected, "victim read back exactly what it cached");
}

#[test]
fn cancel_storm_releases_tenant_cache_and_claim_slots() {
    // Cancellation hygiene under load, both schedulers: a batch of jobs
    // that stamp cache blocks and then spin on their cancel tokens is
    // cancelled mid-flight. Every job must fail with `Cancelled`, expose
    // its partial roll-up (the `cancelled` counter and `JobCancelled`
    // event) through the handle, and release everything it held — cache-
    // stamped entries, tenant admission slots, claim-pool slots — so a
    // full follow-up batch from the same tenant admits and completes.
    //
    // All width-2 jobs share physical executors 0 and 1 (virtual `v`
    // runs on physical `v % E`), so spinners hold those executor locks:
    // the batch is deliberately a mix of jobs mid-spin, jobs blocked on
    // an executor lock, and jobs still queued — cancellation must unwind
    // every one of those states. Because probes like
    // `tenant_resident_bytes` also lock every executor, the resident
    // check runs while the jobs are *parked between stages* (runner
    // threads hold no executor lock there), never while they spin.
    const STORM_JOBS: usize = 6;
    const STORM_RUNNERS: usize = 4;
    for sched in SCHEDULERS {
        let server = Arc::new(DecaServer::with_config(
            ServerConfig::new(SERVER_EXECUTORS, base_config()).runners(STORM_RUNNERS),
        ));
        server.configure_tenant("storm", STORM_JOBS);

        let parked = Arc::new(AtomicUsize::new(0));
        let gate = Arc::new(Gate::default());
        let spinning = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..STORM_JOBS)
            .map(|i| {
                let parked = parked.clone();
                let gate = gate.clone();
                let spinning = spinning.clone();
                let job = AppJob::new("storm", move |ctx| {
                    // Stamp a cache block so the job holds tenant-visible
                    // state when the cancel lands.
                    ctx.run_stage("stamp", 1, move |_t, e| {
                        let recs: Vec<(i64, f64)> =
                            (0..2_000).map(|j| ((i * 10_000 + j) as i64, j as f64)).collect();
                        e.cache
                            .put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, &recs)
                            .expect("storm block fits the pool");
                        Ok(())
                    })?;
                    // Park on the runner thread (no executor lock held) so
                    // the test can probe the caches mid-flight.
                    parked.fetch_add(1, Ordering::Relaxed);
                    gate.park();
                    let spinning = spinning.clone();
                    ctx.run_stage("spin", JOB_WIDTH, move |c, _e| -> Result<(), EngineError> {
                        spinning.fetch_add(1, Ordering::Relaxed);
                        while !c.is_cancelled() {
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(EngineError::Cancelled {
                            reason: "storm task observed the token".to_string(),
                        })
                    })?;
                    Ok(0.0)
                });
                server
                    .submit(JobSpec::new("storm").executors(JOB_WIDTH).scheduler(sched).app(job))
                    .expect("the storm batch is exactly at the tenant cap")
            })
            .collect();

        // Every runner-held job is past its stamp stage and parked; the
        // remaining jobs are still queued. Executor locks are free, so
        // the resident-bytes probe is safe here.
        let _release = ReleaseOnDrop(gate.clone());
        while parked.load(Ordering::Relaxed) < STORM_RUNNERS {
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(
            server.tenant_resident_bytes("storm") > 0,
            "{sched}: storm blocks are resident before the cancel"
        );

        // Release the batch into its spin stage and wait until at least
        // one task is provably mid-body, polling its token.
        gate.release();
        while spinning.load(Ordering::Relaxed) == 0 {
            std::thread::sleep(Duration::from_micros(200));
        }
        for h in &handles {
            h.cancel();
        }
        for (i, h) in handles.iter().enumerate() {
            let err = h.wait().expect_err("cancelled jobs must not report success");
            assert!(err.to_string().contains("cancel"), "{sched} job {i}: {err}");
            let m = h.metrics().expect("partial metrics survive cancellation");
            assert_eq!(m.cancelled, 1, "{sched} job {i}: cancelled counter missing");
            let trace = h.trace().expect("partial trace survives cancellation");
            assert_eq!(
                trace
                    .events
                    .iter()
                    .filter(|e| e.kind == deca_engine::TraceEventKind::JobCancelled)
                    .count(),
                1,
                "{sched} job {i}: JobCancelled event missing"
            );
        }
        assert_eq!(
            server.tenant_resident_bytes("storm"),
            0,
            "{sched}: cancelled jobs' cache-stamped entries must be released"
        );

        // Admission slots and claim-pool slots released: a full second
        // batch from the same tenant admits immediately and runs to
        // completion with the reference answer.
        let p = wc_params(ExecutionMode::Deca);
        let reference = wordcount::run_local(&p, 1).checksum;
        let again: Vec<_> = (0..STORM_JOBS)
            .map(|_| {
                server
                    .submit(
                        JobSpec::new("storm")
                            .executors(JOB_WIDTH)
                            .scheduler(sched)
                            .app(wordcount::job(&p)),
                    )
                    .expect("cancelled jobs freed their admission slots")
            })
            .collect();
        for (i, h) in again.into_iter().enumerate() {
            assert_eq!(
                h.wait().expect("follow-up jobs complete").checksum,
                reference,
                "{sched} follow-up {i}: checksum drifted after the cancel storm"
            );
        }
    }
}

#[test]
fn traces_and_metrics_are_scoped_to_their_job() {
    let server = DecaServer::new(2, base_config());
    let wc = server
        .submit(JobSpec::new("a").app(wordcount::job(&wc_params(ExecutionMode::Spark))))
        .expect("submit wc");
    let pr = server
        .submit(JobSpec::new("b").app(pagerank::job(&pr_params(ExecutionMode::Deca))))
        .expect("submit pr");
    let wc = wc.wait().expect("wc completes");
    let pr = pr.wait().expect("pr completes");
    assert_ne!(wc.job, pr.job, "job ids are unique");

    let is_wc = |stage: &str| stage.starts_with("wc-");
    let is_pr = |stage: &str| stage == "adj-build" || stage.starts_with("pr-iter");
    let checks: [(&deca_engine::JobOutput, &dyn Fn(&str) -> bool, &dyn Fn(&str) -> bool); 2] =
        [(&wc, &is_wc, &is_pr), (&pr, &is_pr, &is_wc)];
    for (out, own, foreign) in checks {
        assert_eq!(out.metrics.job, out.job, "metrics stamped with the owning job");
        assert!(!out.trace.events.is_empty(), "finished jobs carry a trace");
        for ev in &out.trace.events {
            assert_eq!(ev.job, out.job, "trace event leaked across jobs: {ev:?}");
            assert!(!foreign(&ev.stage), "trace holds another job's stage: {ev:?}");
        }
        assert!(out.stages.iter().all(|s| own(&s.name)), "stage metrics leaked across jobs");
    }

    // The server-wide merged trace partitions exactly by job id.
    let merged = server.merged_trace();
    let wc_events = merged.of_job(wc.job).count();
    let pr_events = merged.of_job(pr.job).count();
    assert_eq!(wc_events, wc.trace.events.len());
    assert_eq!(pr_events, pr.trace.events.len());
    assert_eq!(wc_events + pr_events, merged.events.len());
}
