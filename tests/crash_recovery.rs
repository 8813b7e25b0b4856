//! Crash-consistent restart acceptance for the tiered cache: the
//! spill/restore/manifest path is instrumented with four kill points
//! ([`FaultSite::SPILL_PATH`]), and this suite kills the executor at every
//! one of them, across modes × widths × data seeds, asserting
//!
//! * results stay **bit-identical** to the fault-free run — a crash in
//!   the middle of a spill, a manifest commit, a cold read, or recovery
//!   itself changes the metrics, never the answer;
//! * restart-in-place actually **rehydrates** manifest-verified cold
//!   blocks (trace-event-asserted, not inferred from timing), saving
//!   their lineage recompute;
//! * recovery is **idempotent**: a crash during rehydration resolves on
//!   the next restart with no double-restored or half-restored blocks;
//! * a **corrupted manifest** degrades gracefully: nothing is trusted,
//!   everything recomputes from lineage, and the results are identical.
//!
//! The PageRank cells run with a storage budget far below a single
//! block, so every adjacency put demotes through hot → warm → cold (or
//! swaps its page group, in Deca mode) and the kill points are actually
//! reached — the crash-evidence assertions fail loudly if sizing ever
//! drifts so that no spill traffic occurs.

mod util;

use std::collections::HashMap;
use std::sync::Mutex;

use deca_apps::pagerank::{self, PrParams};
use deca_apps::run_job_on;
use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_engine::cache::BlockId;
use deca_engine::{
    ClusterSession, ExecutionMode, Executor, ExecutorConfig, FaultPlan, FaultSite, FaultSpec,
    HeapRecord, RetryPolicy, SchedulerMode, TraceEventKind,
};
use util::{assert_groups_owned_by_cache, scheduler_cells, TestDir};

/// Pinned data seeds for the kill-point matrix (the same trio the
/// fault-tolerance suite pins, so `scripts/ci.sh` replays both suites
/// with one knob). `DECA_CHECK_SEED` overrides the set with one seed.
const DATA_SEEDS: [u64; 3] = [11, 29, 47];

fn data_seeds() -> Vec<u64> {
    if let Some(seed) = std::env::var("DECA_CHECK_SEED").ok().and_then(|s| s.parse().ok()) {
        return vec![seed];
    }
    DATA_SEEDS.to_vec()
}

/// PageRank sized so the storage budget (`heap × fraction` ≈ 2.5 KB) is
/// far below one adjacency block in every mode: the second put on any
/// executor must push the first block through the cold tier, so the
/// spill-path kill points are reached at every width.
fn pr(mode: ExecutionMode, seed: u64) -> PrParams {
    PrParams {
        vertices: 600,
        edges: 4_800,
        iterations: 2,
        partitions: 8,
        heap_bytes: 24 << 20,
        mode,
        gc_algorithm: deca_heap::GcAlgorithm::ParallelScavenge,
        storage_fraction: 0.0001,
        seed,
    }
}

/// Run PageRank under the default (pull) scheduler on a session with an
/// isolated spill dir, returning the checksum and the session for
/// metric/trace inspection.
fn run_pr(
    params: &PrParams,
    executors: usize,
    dir: std::path::PathBuf,
    plan: Option<FaultPlan>,
    tracing: bool,
) -> Result<(f64, ClusterSession), deca_engine::EngineError> {
    run_pr_under(SchedulerMode::Pull, params, executors, dir, plan, tracing)
}

fn run_pr_under(
    scheduler: SchedulerMode,
    params: &PrParams,
    executors: usize,
    dir: std::path::PathBuf,
    plan: Option<FaultPlan>,
    tracing: bool,
) -> Result<(f64, ClusterSession), deca_engine::EngineError> {
    let config = pagerank::pr_config(params)
        .retry(RetryPolicy::resilient())
        .spill_dir(dir)
        .tracing(tracing)
        .scheduler(scheduler);
    let mut session = ClusterSession::new(executors, config);
    if let Some(plan) = plan {
        session.install_faults(plan);
    }
    let (checksum, _) = run_job_on(&pagerank::job(params), &mut session)?;
    assert_groups_owned_by_cache(&session, &format!("{}, {executors}x {scheduler}", params.mode));
    Ok((checksum, session))
}

/// The forced plan that reaches `site`. Spill writes (and the manifest
/// commits inside them) happen while the adjacency cache is built; cold
/// reads happen when the first iteration's map tasks scan their blocks;
/// the rehydration scan only runs during a restart, so that site needs a
/// forced crash first and is keyed on the restart ordinal.
fn kill_plan(site: FaultSite) -> FaultPlan {
    match site {
        FaultSite::SpillWrite | FaultSite::ManifestCommit => {
            FaultPlan::quiet().force(site, "adj-build", None, Some(0))
        }
        FaultSite::SpillRead => FaultPlan::quiet().force(site, "pr-iter0-map", None, Some(0)),
        FaultSite::Rehydrate => FaultPlan::quiet()
            .force(FaultSite::ExecutorCrash, "pr-iter0-map", Some(0), Some(0))
            .force(FaultSite::Rehydrate, "pr-iter0-map", None, Some(0)),
        _ => unreachable!("not a spill-path site"),
    }
}

/// Is `site` reachable under `mode`? `SpillRead` instruments the
/// Spark/SparkSer cold-read path only: Deca blocks re-register through
/// the memory manager on access and never enter it.
fn reachable(site: FaultSite, mode: ExecutionMode) -> bool {
    !(site == FaultSite::SpillRead && mode == ExecutionMode::Deca)
}

/// The headline matrix: kill the executor at every instrumented point in
/// the spill/restore/manifest path, for every mode × width × scheduler ×
/// data seed, and demand the fault-free answer back.
#[test]
fn every_spill_path_kill_point_recovers_bit_identically() {
    let dir = TestDir::new("kill-matrix");
    for seed in data_seeds() {
        for mode in ExecutionMode::ALL {
            let params = pr(mode, seed);
            let (reference, _) =
                run_pr(&params, 1, dir.path().join(format!("ref-{mode}-{seed}")), None, false)
                    .expect("fault-free reference");
            for site in FaultSite::SPILL_PATH {
                for (width, sched) in scheduler_cells() {
                    let cell = format!("site {site}, {mode}, width {width} {sched}, seed {seed}");
                    let sub = dir.path().join(format!("{site}-{mode}-w{width}-{sched}-s{seed}"));
                    let (checksum, session) =
                        run_pr_under(sched, &params, width, sub, Some(kill_plan(site)), false)
                            .unwrap_or_else(|e| panic!("{cell}: survivable kill died: {e}"));
                    assert_eq!(checksum, reference, "{cell}: result drifted across the crash");
                    let job = session.job_summary();
                    if reachable(site, mode) {
                        assert!(
                            job.restarts + job.quarantines >= 1,
                            "{cell}: the kill point never fired — spill sizing drifted"
                        );
                    }
                    if site == FaultSite::Rehydrate && width == 1 {
                        // The first restart dies inside recovery; the
                        // second finishes it. Both count.
                        assert!(
                            job.restarts >= 2,
                            "{cell}: a kill during rehydration must force a second restart"
                        );
                        assert!(
                            job.rehydrated_blocks >= 1,
                            "{cell}: the surviving restart must still rehydrate"
                        );
                    }
                }
            }
        }
    }
    dir.cleanup();
}

/// Restart-in-place rehydrates cached blocks from the spill manifest
/// instead of recomputing their lineage — asserted through the trace
/// events the executor emits per rehydrated block (bytes attached), the
/// per-executor health counters, and the job roll-up. In Deca mode the
/// rehydrated rows are swapped page groups, the paper's unit of cache
/// residency.
#[test]
fn restart_in_place_rehydrates_cold_blocks_with_trace_evidence() {
    let dir = TestDir::new("rehydrate");
    for mode in ExecutionMode::ALL {
        let params = pr(mode, 11);
        let (reference, _) =
            run_pr(&params, 1, dir.path().join(format!("ref-{mode}")), None, false)
                .expect("fault-free reference");
        // Crash the (only) executor once the adjacency cache is built and
        // partly cold: the restart finds a committed manifest vouching
        // for the cold blocks.
        let plan =
            FaultPlan::quiet().force(FaultSite::ExecutorCrash, "pr-iter0-map", Some(0), Some(0));
        let (checksum, session) =
            run_pr(&params, 1, dir.path().join(format!("crash-{mode}")), Some(plan), true)
                .expect("crash is survivable");
        assert_eq!(checksum, reference, "{mode}: rehydrated run drifted");

        let job = session.job_summary();
        assert!(job.restarts >= 1, "{mode}: the forced crash must restart the executor");
        assert!(job.rehydrated_blocks >= 1, "{mode}: no block was rehydrated");
        assert!(job.rehydrated_bytes > 0, "{mode}: rehydration restored zero bytes");
        assert!(
            session.health(0).rehydrated_blocks >= 1,
            "{mode}: health counter missed the rehydration"
        );

        let trace = session.merged_trace();
        let rehydrates: Vec<_> =
            trace.events.iter().filter(|e| e.kind == TraceEventKind::CacheRehydrate).collect();
        assert!(
            rehydrates.len() as u64 >= job.rehydrated_blocks,
            "{mode}: one CacheRehydrate event per rehydrated block"
        );
        assert!(
            rehydrates.iter().any(|e| e.bytes > 0),
            "{mode}: rehydrate events carry the restored byte counts"
        );
        assert!(
            trace.events.iter().any(|e| e.kind == TraceEventKind::SpillIo),
            "{mode}: the run never spilled — there was nothing real to rehydrate"
        );
    }
    dir.cleanup();
}

/// A second crash-restart over the same spill state is a no-op at the
/// cluster level too: forcing `Rehydrate` to kill the first recovery scan
/// leaves on-disk state that the next restart resolves to exactly the
/// fault-free answer, with rehydration still happening exactly once.
#[test]
fn a_kill_during_rehydration_is_resolved_by_the_next_restart() {
    let dir = TestDir::new("rehydrate-idem");
    for mode in [ExecutionMode::Spark, ExecutionMode::Deca] {
        let params = pr(mode, 29);
        let (reference, _) =
            run_pr(&params, 1, dir.path().join(format!("ref-{mode}")), None, false)
                .expect("fault-free reference");
        let (checksum, session) = run_pr(
            &params,
            1,
            dir.path().join(format!("kill-{mode}")),
            Some(kill_plan(FaultSite::Rehydrate)),
            true,
        )
        .expect("recovery crash is survivable");
        assert_eq!(checksum, reference, "{mode}: result drifted across the recovery crash");
        let job = session.job_summary();
        assert!(job.restarts >= 2, "{mode}: the recovery kill must force a second restart");
        assert!(job.rehydrated_blocks >= 1, "{mode}: the second restart must rehydrate");
    }
    dir.cleanup();
}

// ---------------------------------------------------------------------
// Corrupted manifest: graceful degradation to lineage recompute
// ---------------------------------------------------------------------

fn put_block(e: &mut Executor, mode: ExecutionMode, recs: &[(i64, i64)]) -> BlockId {
    match mode {
        ExecutionMode::Spark => {
            let classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            e.cache.put_objects(&mut e.heap, &mut e.kryo, &mut e.mm, &classes, recs).expect("put")
        }
        ExecutionMode::SparkSer => {
            e.cache.put_serialized(&mut e.heap, &mut e.kryo, &mut e.mm, recs).expect("put")
        }
        ExecutionMode::Deca => e.cache.put_deca(&mut e.heap, &mut e.mm, recs).expect("put"),
    }
}

fn read_block(e: &mut Executor, mode: ExecutionMode, id: BlockId) -> Vec<(i64, i64)> {
    match mode {
        ExecutionMode::Spark => {
            let classes = <(i64, i64) as HeapRecord>::register(&mut e.heap);
            let (root, len) =
                e.cache.objects_root(id, &mut e.heap, &mut e.kryo, &mut e.mm).expect("root");
            let arr = e.heap.root_ref(root);
            (0..len)
                .map(|i| {
                    <(i64, i64) as HeapRecord>::load(
                        &e.heap,
                        &classes,
                        e.heap.array_get_ref(arr, i),
                    )
                })
                .collect()
        }
        ExecutionMode::SparkSer => {
            let mut got = Vec::new();
            e.cache
                .iter_serialized::<(i64, i64)>(id, &mut e.heap, &mut e.kryo, &mut e.mm, |r| {
                    got.push(r)
                })
                .expect("iter");
            got
        }
        ExecutionMode::Deca => {
            let block = e.cache.deca_block(id);
            block.decode_all(&mut e.mm, &mut e.heap).expect("decode")
        }
    }
}

/// A two-stage cache workload the PageRank driver can't express: stage
/// one caches four blocks on one executor under a budget that forces
/// them cold; the caller may then corrupt the committed manifest before
/// stage two crashes the executor and reads every block back (trusting
/// the cached handle only if the restarted cache still holds it,
/// recomputing from the partition otherwise — the lineage story).
fn run_cache_job(
    mode: ExecutionMode,
    dir: std::path::PathBuf,
    corrupt: bool,
) -> (Vec<i64>, deca_engine::JobMetrics) {
    let parts: Vec<Vec<(i64, i64)>> = (0..4)
        .map(|p| (0..300).map(|i| (p as i64 * 100_000 + i, i * 7 - p as i64)).collect())
        .collect();
    let config = ExecutorConfig::new(mode, 16 << 20)
        .storage_fraction(0.0001)
        .spill_dir(dir.clone())
        .retry(RetryPolicy::resilient());
    let mut session = ClusterSession::new(1, config);

    let blocks: Mutex<HashMap<usize, BlockId>> = Mutex::new(HashMap::new());
    let parts_ref = &parts;
    let blocks_ref = &blocks;
    session
        .run_stage("cache-build", 4, |ctx, e| {
            let id = put_block(e, mode, &parts_ref[ctx.task]);
            blocks_ref.lock().unwrap().insert(ctx.task, id);
            Ok(())
        })
        .expect("build stage");

    let manifest = dir.join("exec-0").join("cache").join("spill-manifest.json");
    assert!(manifest.exists(), "{mode}: the build stage must commit a spill manifest");
    if corrupt {
        std::fs::write(&manifest, b"{\"schema\":\"deca-spill-manifest-v1\",\"rows\":[garbage")
            .expect("corrupt manifest");
    }

    session.install_faults(FaultPlan::quiet().force(
        FaultSite::ExecutorCrash,
        "cache-read",
        Some(0),
        Some(0),
    ));
    let sums = session
        .run_stage("cache-read", 4, |ctx, e| {
            let cached =
                blocks_ref.lock().unwrap().get(&ctx.task).copied().filter(|b| e.cache.contains(*b));
            let id = match cached {
                Some(b) => b,
                None => {
                    // Lineage recompute: the restart dropped (or refused
                    // to trust) this block.
                    let b = put_block(e, mode, &parts_ref[ctx.task]);
                    blocks_ref.lock().unwrap().insert(ctx.task, b);
                    b
                }
            };
            let recs = read_block(e, mode, id);
            Ok(recs.iter().map(|&(a, b)| a.wrapping_mul(31).wrapping_add(b)).sum::<i64>())
        })
        .expect("read stage");
    session.finish_job();
    let job = session.job_summary();
    (sums, job)
}

/// A corrupted spill manifest must never corrupt results: the restart
/// verifies, trusts nothing, rehydrates nothing, and every block comes
/// back through lineage recompute — bit-identical to the intact run,
/// which (as the control) does rehydrate from the same layout.
#[test]
fn corrupted_manifest_degrades_to_recompute_with_identical_results() {
    let dir = TestDir::new("manifest-corrupt");
    for mode in ExecutionMode::ALL {
        let expected: Vec<i64> = (0..4)
            .map(|p| {
                (0..300)
                    .map(|i: i64| {
                        let (a, b) = (p as i64 * 100_000 + i, i * 7 - p as i64);
                        a.wrapping_mul(31).wrapping_add(b)
                    })
                    .sum()
            })
            .collect();

        let (control, control_job) =
            run_cache_job(mode, dir.path().join(format!("ctl-{mode}")), false);
        assert_eq!(control, expected, "{mode}: intact-manifest run returned wrong sums");
        assert!(control_job.restarts >= 1, "{mode}: the forced crash must restart");
        assert!(
            control_job.rehydrated_blocks >= 1,
            "{mode}: the intact control must rehydrate at least one cold block"
        );

        let (sums, job) = run_cache_job(mode, dir.path().join(format!("bad-{mode}")), true);
        assert_eq!(sums, expected, "{mode}: corrupted manifest changed the results");
        assert!(job.restarts >= 1, "{mode}: the forced crash must restart");
        assert_eq!(
            job.rehydrated_blocks, 0,
            "{mode}: nothing in a corrupted manifest may be trusted"
        );
    }
    dir.cleanup();
}

// ---------------------------------------------------------------------
// Satellite: evict_all → swap-in cycles (regression)
// ---------------------------------------------------------------------

/// Repeatedly spilling the whole cache and reading it back must preserve
/// block contents bit-for-bit in every mode, while the cache statistics
/// stay monotone (each cycle strictly adds evictions and spill writes,
/// and never rewinds reads). A Deca block's spill traffic is its page
/// group's, which the memory manager counts.
#[test]
fn evict_all_swap_in_cycles_preserve_contents_and_monotone_stats() {
    let dir = TestDir::new("evict-cycles");
    // `(spill_write_bytes, spill_read_bytes)` of the mode's spill counter.
    let spilled_bytes = |e: &Executor, mode| match mode {
        ExecutionMode::Deca => (e.mm.spill_write_bytes, e.mm.spill_read_bytes),
        _ => (e.cache.stats().spill_write_bytes, e.cache.stats().spill_read_bytes),
    };
    for mode in ExecutionMode::ALL {
        let config = ExecutorConfig::new(mode, 16 << 20)
            .storage_fraction(0.5)
            .spill_dir(dir.path().join(format!("{mode}")));
        let mut e = Executor::new(config);
        let blocks: Vec<(BlockId, Vec<(i64, i64)>)> = (0..3)
            .map(|b| {
                let recs: Vec<(i64, i64)> =
                    (0..400).map(|i| (b as i64 * 1_000 + i, i * 13 - b as i64)).collect();
                (put_block(&mut e, mode, &recs), recs)
            })
            .collect();
        let (mut prev, mut prev_written) = (e.cache.stats(), spilled_bytes(&e, mode).0);
        for cycle in 0..3 {
            e.cache.evict_all(&mut e.heap, &mut e.kryo, &mut e.mm).expect("evict_all");
            let (spilled, (written, read)) = (e.cache.stats(), spilled_bytes(&e, mode));
            assert!(
                spilled.evictions > prev.evictions,
                "{mode} cycle {cycle}: evict_all must evict"
            );
            assert!(
                written > prev_written,
                "{mode} cycle {cycle}: re-spilling must write bytes again"
            );
            for (id, recs) in &blocks {
                assert_eq!(
                    &read_block(&mut e, mode, *id),
                    recs,
                    "{mode} cycle {cycle}: block contents drifted across the spill cycle"
                );
            }
            let (back, (written_back, read_back)) = (e.cache.stats(), spilled_bytes(&e, mode));
            assert!(read_back >= read, "{mode} cycle {cycle}: spill reads rewound");
            assert!(
                back.demotions >= prev.demotions && back.evictions >= spilled.evictions,
                "{mode} cycle {cycle}: counters rewound"
            );
            (prev, prev_written) = (back, written_back);
        }
    }
    dir.cleanup();
}

// ---------------------------------------------------------------------
// Property: random spill-path kill scatters never change results
// ---------------------------------------------------------------------

/// For any fault seed drawing spill-path kills at every instrumented
/// point (conditionally on the cache reaching it), any width and either
/// scheduler, the PageRank checksum is bit-identical to the fault-free
/// run. Replay a failure with the `DECA_CHECK_SEED` line the harness
/// prints.
#[test]
fn seeded_spill_path_storms_keep_results_bit_identical() {
    let dir = TestDir::new("spill-storm");
    let references: Vec<f64> = ExecutionMode::ALL
        .iter()
        .map(|&mode| {
            run_pr(&pr(mode, 13), 1, dir.path().join(format!("ref-{mode}")), None, false)
                .expect("fault-free reference")
                .0
        })
        .collect();
    let storm = FaultSpec { spill_path: 0.2, ..FaultSpec::default() };
    check(
        Config::with_cases(12),
        gens::pair(gens::any_u32(), gens::usize_in(1..5)),
        |&(seed, executors)| {
            let m = (seed % 3) as usize;
            let params = pr(ExecutionMode::ALL[m], 13);
            let sched = if seed & 4 == 0 { SchedulerMode::Wave } else { SchedulerMode::Pull };
            let config = pagerank::pr_config(&params)
                .scheduler(sched)
                // Head-room over `resilient()`: a storm can kill the same
                // task's executor several restarts in a row (the `Rehydrate`
                // draw is per-ordinal), each costing one attempt.
                .retry(RetryPolicy::resilient().max_attempts(8))
                .spill_dir(dir.path().join(format!("case-{seed}-{executors}")));
            let mut session = ClusterSession::new(executors, config);
            session.install_faults(FaultPlan::seeded(seed as u64, storm));
            let (checksum, _) = run_job_on(&pagerank::job(&params), &mut session)
                .map_err(|e| format!("survivable storm died: {e}"))?;
            prop_assert_eq!(checksum, references[m], "spill storm changed the answer");
            assert_groups_owned_by_cache(&session, &format!("storm seed {seed}, {executors}x"));
            prop_assert!(session.job_summary().attempts >= 40, "the job ran all its stages");
            Ok(())
        },
    );
    dir.cleanup();
}
