//! Multi-executor runs: executors own independent heaps/managers and run
//! in parallel threads; the [`ClusterSession`] driver moves shuffle bytes
//! between them; results equal the single-executor run.
//!
//! Assertions are on task counts and stage roll-ups, never on wall-clock
//! durations (trivial tasks on a coarse clock can legitimately measure
//! zero time).

mod util;

use deca_core::DecaHashShuffle;
use deca_engine::cluster::partition_of;
use std::sync::Mutex;

use deca_engine::{
    ClusterSession, EngineError, ExecutionMode, ExecutorConfig, FaultPlan, FaultSite, RetryPolicy,
    SchedulerMode, TraceEventKind,
};

use util::TestDir;

#[test]
fn parallel_wordcount_matches_sequential() {
    let td = TestDir::new("cluster-wordcount");
    let words: Vec<i64> = (0..40_000).map(|i| (i * 7919) % 997).collect();
    let expected: f64 = {
        let mut counts = std::collections::HashMap::new();
        for &w in &words {
            *counts.entry(w).or_insert(0i64) += 1;
        }
        counts.iter().map(|(k, v)| (*k as f64 + 1.0) * *v as f64).sum()
    };

    let executors = 4;
    let tasks = 6; // more tasks than executors: rounds multiplex round-robin

    // Partition input across map tasks.
    let parts: Vec<Vec<i64>> = {
        let mut out: Vec<Vec<i64>> = (0..tasks).map(|_| Vec::new()).collect();
        for (i, &w) in words.iter().enumerate() {
            out[i % tasks].push(w);
        }
        out
    };

    // Map combines each partition and writes per-reducer raw byte runs;
    // the driver exchanges them; reduce combines and checksums.
    let run = |sched: SchedulerMode| {
        let cfg = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20)
            .spill_dir(td.path().to_path_buf())
            .scheduler(sched);
        let mut session = ClusterSession::new(executors, cfg);
        let partials = session
            .run_shuffle_job(
                "wc",
                tasks,
                tasks,
                |ctx, e| {
                    let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
                    for &w in &parts[ctx.task] {
                        buf.insert(
                            &mut e.mm,
                            &mut e.heap,
                            &w.to_le_bytes(),
                            &1i64.to_le_bytes(),
                            add,
                        )?;
                    }
                    let mut runs: Vec<_> = (0..tasks).map(|_| e.arena.new_run()).collect();
                    let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                    buf.for_each(mm, heap, |k, v| {
                        let key = i64::from_le_bytes(k[..8].try_into().unwrap());
                        let r = partition_of(key as u64, tasks);
                        runs[r].push_parts(arena, &[k, v]);
                    })?;
                    buf.release(&mut e.mm, &mut e.heap);
                    Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
                },
                |_ctx, e, bufs| {
                    let mut buf = DecaHashShuffle::new(&mut e.mm, 8, 8);
                    for payload in bufs {
                        for bytes in payload.chunks() {
                            for rec in bytes.chunks_exact(16) {
                                buf.insert(&mut e.mm, &mut e.heap, &rec[..8], &rec[8..], add)?;
                            }
                        }
                    }
                    let mut sum = 0.0;
                    buf.for_each(&mut e.mm, &mut e.heap, |k, v| {
                        let key = i64::from_le_bytes(k[..8].try_into().unwrap());
                        let count = i64::from_le_bytes(v[..8].try_into().unwrap());
                        sum += (key as f64 + 1.0) * count as f64;
                    })?;
                    buf.release(&mut e.mm, &mut e.heap);
                    Ok(sum)
                },
            )
            .unwrap();

        let total: f64 = partials.iter().sum();

        // Count-based assertions only: every task ran exactly once and
        // the exchange moved bytes.
        assert_eq!(session.stages().iter().map(|s| s.tasks).sum::<usize>(), 2 * tasks, "{sched}");
        let map_stage = session.stage("wc-map").expect("map stage recorded");
        let reduce_stage = session.stage("wc-reduce").expect("reduce stage recorded");
        assert_eq!(map_stage.tasks, tasks, "{sched}");
        assert_eq!(reduce_stage.tasks, tasks, "{sched}");
        assert!(map_stage.shuffle_bytes > 0, "{sched}: the exchange carried data");
        let trace = session.merged_trace();
        let per_exec: Vec<usize> = (0..executors)
            .map(|i| {
                trace.of_kind(TraceEventKind::TaskAttempt).filter(|e| e.executor == Some(i)).count()
            })
            .collect();
        (total, per_exec)
    };

    let (wave_total, wave_per_exec) = run(SchedulerMode::Wave);
    assert_eq!(wave_total, expected);
    // Wave's static pinning: 6 tasks round-robin over 4 executors, twice
    // (map + reduce) — the placement itself is deterministic.
    assert_eq!(wave_per_exec, vec![4, 4, 2, 2]);

    let (pull_total, pull_per_exec) = run(SchedulerMode::Pull);
    assert_eq!(pull_total, expected, "pull scheduler must not change the answer");
    // Pull placement is timing-dependent (steals migrate tasks), but the
    // total physical attempts are pinned: 12 tasks, no retries.
    assert_eq!(pull_per_exec.iter().sum::<usize>(), 2 * tasks);
    td.cleanup();
}

fn add(acc: &mut [u8], addv: &[u8]) {
    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
    let b = i64::from_le_bytes(addv[..8].try_into().unwrap());
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

#[test]
fn task_failures_surface_with_attribution() {
    let td = TestDir::new("cluster-errors");
    let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).spill_dir(td.path().to_path_buf());
    let mut session = ClusterSession::new(2, cfg);
    let err = session
        .run_stage("doomed", 3, |ctx, _e| {
            if ctx.task == 1 {
                Err(EngineError::Shuffle("synthetic failure".into()))
            } else {
                Ok(())
            }
        })
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("doomed") && msg.contains("task 1"), "{msg}");
    td.cleanup();
}

#[test]
fn executors_are_isolated() {
    let td = TestDir::new("cluster-isolated");
    let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20).spill_dir(td.path().to_path_buf());
    let mut session = ClusterSession::new(3, cfg.scheduler(SchedulerMode::Wave));
    // One task per executor: each allocates its own classes/objects, and
    // ids do not clash.
    let counts = session
        .run_stage("isolated", 3, |ctx, e| {
            let i = ctx.executor;
            let c = e.heap.define_class(
                deca_heap::ClassBuilder::new(format!("T{i}")).field("v", deca_heap::FieldKind::I64),
            );
            for _ in 0..(i + 1) * 100 {
                e.heap.alloc(c)?;
            }
            Ok(e.heap.live_count(c))
        })
        .unwrap();
    assert_eq!(counts, vec![100, 200, 300]);
    td.cleanup();
}

#[test]
fn each_executor_runs_on_one_long_lived_worker() {
    // A session's executor `i` runs every attempt — across stages, and
    // across the retry rounds of a stage — on the same named worker
    // thread, under both schedulers.
    let td = TestDir::new("cluster-workers");
    for sched in [SchedulerMode::Wave, SchedulerMode::Pull] {
        let cfg = ExecutorConfig::new(ExecutionMode::Spark, 8 << 20)
            .spill_dir(td.path().to_path_buf())
            .scheduler(sched)
            .retry(RetryPolicy::resilient());
        let mut session = ClusterSession::new(3, cfg);
        // Task 1's first attempt fails in every stage, so each stage runs
        // a second round.
        session.install_faults(FaultPlan::quiet().force(
            FaultSite::TaskBody,
            "s",
            Some(1),
            Some(0),
        ));
        let seen = Mutex::new(Vec::new());
        for _ in 0..3 {
            session
                .run_stage("s", 7, |ctx, _e| {
                    let me = std::thread::current();
                    seen.lock().unwrap().push((ctx.executor, me.name().map(String::from), me.id()));
                    Ok(())
                })
                .unwrap();
            assert_eq!(session.stage("s").unwrap().retries, 1, "{sched}: a second round ran");
        }
        let seen = seen.into_inner().unwrap();
        // The injected failure fires before the body, so each stage's
        // bodies are its 7 tasks, task 1's from the retry round.
        assert_eq!(seen.len(), 3 * 7, "{sched}");
        for (executor, name, id) in &seen {
            assert_eq!(
                name.as_deref(),
                Some(format!("deca-worker-{executor}").as_str()),
                "{sched}"
            );
            let first = seen.iter().find(|s| s.0 == *executor).unwrap();
            assert_eq!(first.2, *id, "{sched}: executor {executor} changed threads");
        }
    }
    td.cleanup();
}
