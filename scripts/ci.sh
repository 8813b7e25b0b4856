#!/usr/bin/env bash
# Hermetic CI gate: everything here must pass on a machine with NO network
# access. The workspace has zero registry dependencies by policy (see
# DESIGN.md "Hermetic builds"), so --offline is a constraint we enforce,
# not a convenience flag.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== fmt =="
cargo fmt --check

echo "== build (release, offline) =="
cargo build --release --offline

echo "== build examples (release, offline) =="
cargo build --release --offline --examples

echo "== tests (offline) =="
cargo test -q --offline

echo "== benchmark crate (own workspace: build + self-tests, 1/20 size, no timing asserts) =="
# benchmark/ has its own [workspace], so the build and tests above never
# compile it: a public-API rename in deca-engine would pass them and only
# fail when the benchmark pipeline runs. Its self-tests are the frozen
# public surface's compile check plus a smoke of every workload.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== attribution (one traced wc-combine run: where a job's wall time goes; printed, never asserted) =="
# A job description owns its dataset, so a job's wall time should be its
# task time: outside_task_share is the part of the wall no task accounts
# for. The numbers are wall-clock and this host has slow phases, so they
# are shown for the reader and judged by nobody here; what *gates* input
# generation staying out of the job body is the apps' unit tests
# `the_description_generates_its_input_once_and_runs_never_do`.
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml -- \
    --workload wc-combine --seed 2 --seconds 4 --trace 1 > /dev/null
run=$(tr -d ' \n' < benchmark/out/run-wc-combine-trace1.json)
metric() { grep -o "\"$1\":{\"value\":[^,}]*" <<<"$run" | sed 's/.*"value"://'; }
for mode in deca spark sparkser; do
  job_s=$(grep -o "\"job_s\":{.*" <<<"$run" | grep -o "\"$mode\":{\"n\":[0-9]*,\"median\":[^,}]*" \
      | sed 's/.*"median"://')
  echo "  $mode: job_s median $job_s  rep.$mode.task_s $(metric "rep.$mode.task_s")" \
       " engine.driver.outside_task_share.$mode $(metric "engine.driver.outside_task_share.$mode")"
done

echo "== fault-tolerance suite (replayed seeds, both schedulers) =="
# `cargo test` above already ran the suite under its pinned seed trio;
# these explicit replays prove the DECA_CHECK_SEED knob reproduces a
# scenario byte-for-byte under each scheduler mode (DECA_SCHEDULER sets
# the session default), and hand the reader the exact replay line.
for sched in wave pull; do
  for seed in 11 29 47; do
    if ! DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed \
        cargo test -q --offline -p deca-bench --test fault_tolerance; then
      echo "fault suite failed under seed $seed with the $sched scheduler; replay locally with:"
      echo "  DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test fault_tolerance"
      exit 1
    fi
  done
done

echo "== fault-tolerance suite with speculative execution (both schedulers) =="
# The same matrix with DECA_SPECULATE=1: every Pull-mode stage arms the
# straggler watcher, so speculative duplicates race real injected-fault
# recovery. Checksums and the six-counter roll-ups must not move — the
# winner is reconciled deterministically in task order, so duplicates
# are invisible to the accounting.
for sched in wave pull; do
  for seed in 11 29 47; do
    if ! DECA_SPECULATE=1 DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed \
        cargo test -q --offline -p deca-bench --test fault_tolerance; then
      echo "fault suite failed with speculation under seed $seed with the $sched scheduler; replay locally with:"
      echo "  DECA_SPECULATE=1 DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test fault_tolerance"
      exit 1
    fi
  done
done

echo "== hang kill matrix (watchdog: TaskHang x schedulers x widths x seeds) =="
# The watchdog acceptance leg: a hang-only storm across both workloads,
# both execution modes, widths {1,2,4} and the pinned seeds must always
# complete — every hang is timed out at its deadline, charged, and
# retried — with checksums bit-identical to fault-free runs and roll-ups
# identical across Wave and Pull. (The full matrix already ran inside
# `cargo test` above; this leg re-runs it per seed so a failure hands
# the reader the exact replay line.)
for seed in 11 29 47; do
  if ! DECA_CHECK_SEED=$seed \
      cargo test -q --offline -p deca-bench --test fault_tolerance hang_matrix; then
    echo "hang kill matrix failed under seed $seed; replay locally with:"
    echo "  DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test fault_tolerance hang_matrix"
    exit 1
  fi
done

echo "== crash-recovery kill-point suite (replayed seeds, both schedulers) =="
# Same replay discipline for the cache's spill/manifest/rehydrate kill
# points: the suite re-runs its kill matrix, rehydration-evidence and
# property-storm cells under each pinned seed and scheduler, and a
# failure hands the reader the exact one-line reproduction.
for sched in wave pull; do
  for seed in 11 29 47; do
    if ! DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed \
        cargo test -q --offline -p deca-bench --test crash_recovery; then
      echo "crash-recovery suite failed under seed $seed with the $sched scheduler; replay locally with:"
      echo "  DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test crash_recovery"
      exit 1
    fi
  done
done

echo "== GC matrix (three collectors x modes x widths x fault seeds, both schedulers) =="
# The gc_plans suite proves a collector never computes: each of Table 4's
# three collectors (Parallel Scavenge; CMS and G1 with a real marker
# thread racing the mutator) must produce bit-identical WC/PR checksums
# under the pinned fault storm at every width, with recovery roll-ups
# identical across Wave and Pull. It already ran inside `cargo test`
# above; this leg re-runs it under each scheduler default so a failure
# hands the reader the exact replay line. (The cross-mode suite loops
# over the collectors itself, so it needs no leg of its own.)
for sched in wave pull; do
  if ! DECA_SCHEDULER=$sched \
      cargo test -q --offline -p deca-bench --test gc_plans; then
    echo "GC matrix failed under the $sched scheduler; replay locally with:"
    echo "  DECA_SCHEDULER=$sched cargo test --offline -p deca-bench --test gc_plans"
    exit 1
  fi
done

echo "== no environment knobs in the heap =="
# A run's collector is its config's GcAlgorithm and nothing else: the heap
# reads no environment variable, and no variable in the DECA_GC namespace
# exists anywhere to override a collector from elsewhere in the process.
# (The pattern's bracket keeps this script from matching itself.)
knobs=$( (grep -rn 'env::var' crates/heap/src || true)
  grep -rn 'DECA_GC[_]' crates tests examples scripts || true)
if [ -n "$knobs" ]; then
  echo "environment knobs found in the heap or the DECA_GC namespace:"
  echo "$knobs"
  exit 1
fi

echo "== server soak (concurrent submissions, both schedulers, replayed seeds) =="
# The soak pushes DECA_SOAK_JOBS mixed WC/PR jobs per leg from 16 client
# threads through one shared DecaServer and asserts every job is
# bit-identical — checksum and recovery counters — to a serial
# ClusterSession run of the same width. 34 jobs x 6 legs > 200 jobs.
for sched in wave pull; do
  for seed in 11 29 47; do
    if ! DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed DECA_SOAK_JOBS=${DECA_SOAK_JOBS:-34} \
        cargo test -q --offline -p deca-bench --test server_soak; then
      echo "server soak failed under seed $seed with the $sched scheduler; replay locally with:"
      echo "  DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed DECA_SOAK_JOBS=${DECA_SOAK_JOBS:-34} cargo test --offline -p deca-bench --test server_soak"
      exit 1
    fi
  done
done

echo "== partial-handover kill matrix (zero-copy retry safety, both schedulers, replayed seeds) =="
# A map attempt that dies after handing over part of its page runs must
# leave the arena ledger exactly balanced: no page leaked, none freed
# twice, and no reducer ever observes a page from the failed attempt.
# The test asserts live_pages == 0 on every executor, zero copied bytes
# on the Deca hand-over path, and pointer-uniqueness of every page slice
# across reducers while all exchanged pages are simultaneously live.
for sched in wave pull; do
  for seed in 11 29 47; do
    if ! DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed \
        cargo test -q --offline -p deca-engine --lib partial_handover; then
      echo "partial-handover kill matrix failed under seed $seed with the $sched scheduler; replay locally with:"
      echo "  DECA_SCHEDULER=$sched DECA_CHECK_SEED=$seed cargo test --offline -p deca-engine --lib partial_handover"
      exit 1
    fi
  done
done

echo "== properties (replayed seeds) =="
# The hash shuffle's table lives in its pages: batch entry must equal
# per-record entry and a HashMap fold at every slot geometry and across
# growths, and a run that meets a full heap must evict the cache — never
# the buffer — and apply each record exactly once. The Spark buffer's
# borrowed-key insert must equal a HashMap fold for i64 and multilingual
# String keys across growths (`spark_shuffle_*`). The heap's word-wide
# `byte[]` copies must equal element-by-element access on random spans and
# leave every byte outside the span alone (`byte_array_*`). These
# properties draw their cases from DECA_CHECK_SEED; a failure hands the
# reader the exact replay line.
for seed in 11 29 47; do
  for suite in "-p deca-bench --test properties shuffle" "-p deca-core --lib shuffle" \
      "-p deca-engine --lib shuffle" "-p deca-heap --lib byte_array"; do
    # shellcheck disable=SC2086 # $suite is a word list on purpose
    if ! DECA_CHECK_SEED=$seed cargo test -q --offline $suite; then
      echo "properties failed under seed $seed; replay locally with:"
      echo "  DECA_CHECK_SEED=$seed cargo test --offline $suite"
      exit 1
    fi
  done
done

echo "== observability (trace export + lossless chrome round-trip) =="
cargo run --release --offline -q --example trace_export

echo "== job service example (the README DecaServer snippet, checksum-asserted) =="
cargo run --release --offline -q --example job_service

echo "== watchdog/cancel example (the README robustness snippet, checksum-asserted) =="
cargo run --release --offline -q --example watchdog_cancel

echo "== ci green =="
