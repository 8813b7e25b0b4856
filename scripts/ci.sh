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

echo "== fault-tolerance suite (replayed seeds) =="
# `cargo test` above already ran the suite under its pinned seed trio;
# these explicit replays prove the DECA_CHECK_SEED knob reproduces a
# scenario byte-for-byte, and hand the reader the exact replay line. The
# suite's matrices run both schedulers, and their pull cells both with and
# without speculative execution, so each replay covers all three.
for seed in 11 29 47; do
  if ! DECA_CHECK_SEED=$seed \
      cargo test -q --offline -p deca-bench --test fault_tolerance; then
    echo "fault suite failed under seed $seed; replay locally with:"
    echo "  DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test fault_tolerance"
    exit 1
  fi
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

echo "== crash-recovery kill-point suite (replayed seeds) =="
# Same replay discipline for the cache's spill/manifest/rehydrate kill
# points: the suite re-runs its kill matrix (both schedulers at every
# width above one), rehydration-evidence and property-storm cells under
# each pinned seed, and a failure hands the reader the exact one-line
# reproduction.
for seed in 11 29 47; do
  if ! DECA_CHECK_SEED=$seed \
      cargo test -q --offline -p deca-bench --test crash_recovery; then
    echo "crash-recovery suite failed under seed $seed; replay locally with:"
    echo "  DECA_CHECK_SEED=$seed cargo test --offline -p deca-bench --test crash_recovery"
    exit 1
  fi
done

echo "== no environment knobs in the heap or the engine =="
# A run is its config and nothing else: neither the heap nor the engine
# reads an environment variable, and no variable in the DECA_GC namespace,
# nor the retired scheduler and speculation variables, exists anywhere to
# override a collector, a scheduler or speculation from elsewhere in the
# process (the fault suite runs speculation both ways itself). Test
# harnesses keep their replay knobs (DECA_CHECK_SEED, DECA_SOAK_JOBS).
# (The patterns' brackets keep this script from matching itself.)
knobs=$( (grep -rn 'env::var' crates/heap/src crates/engine/src || true)
  grep -rn 'DECA_GC[_]\|DECA_SCHEDULE[R]\|DECA_SPECULAT[E]' crates tests examples scripts || true)
if [ -n "$knobs" ]; then
  echo "environment knobs found in the heap, the engine, or a retired namespace:"
  echo "$knobs"
  exit 1
fi

echo "== one way to run an app (no bare executor in the apps) =="
# Every app is a job description run by the stage engine, standalone or on
# a DecaServer: no non-test line under crates/apps/src builds an executor
# of its own. Here, as in every source guard below and in the unwrap
# ratchet, a file's non-test lines end at its `#[cfg(test)] mod tests`
# (scripts/non_test_lines.awk).
bare=$(find crates/apps/src -name '*.rs' | sort | xargs awk -f scripts/non_test_lines.awk \
  | grep 'Executor::new' || true)
if [ -n "$bare" ]; then
  echo "non-test app code builds a bare executor:"
  echo "$bare"
  exit 1
fi

echo "== one cached-dataset handle (no hand-rolled cache put in the apps) =="
# LR, KMeans and the graph jobs cache through crates/apps/src/cached.rs,
# which puts a block in the representation its container decision names:
# no other non-test app line calls a cache put. SQL's tables keep their own
# puts: one task caches every table per executor, and Spark SQL's
# column-pruned chunks are not a row representation, so folding them into
# cached.rs would make it branch on which caller it serves.
puts=$(find crates/apps/src -name '*.rs' ! -name cached.rs ! -name sql.rs | sort \
  | xargs awk -f scripts/non_test_lines.awk | grep -E 'put_objects|put_serialized|put_deca' || true)
if [ -n "$puts" ]; then
  echo "non-test app code puts a cache block outside the cached-dataset handle:"
  echo "$puts"
  exit 1
fi

echo "== one combine-by-key shuffle (no shuffle table named outside combine.rs) =="
# WordCount, text WordCount, PageRank and CC shuffle through
# crates/apps/src/combine.rs, and SQL's Q2 and Q3 aggregate in its table,
# whose constructor is the one place that picks a heap or a page table from
# the mode: no other non-test app line names a combine table type.
tables=$(find crates/apps/src -name '*.rs' ! -name combine.rs | sort \
  | xargs awk -f scripts/non_test_lines.awk \
  | grep -E 'SparkHashShuffle|DecaHashShuffle|DecaVarHashShuffle' || true)
if [ -n "$tables" ]; then
  echo "non-test app code names a combine table outside the combine-by-key shuffle:"
  echo "$tables"
  exit 1
fi

echo "== one declaration per record (no hand-written record trait impl in the apps) =="
# Each app record is one `deca_engine::record!` declaration, which emits its
# heap class, Kryo walk, page layout and analysis descriptor together, so
# they cannot disagree: no non-test line under crates/apps/src implements a
# record trait by hand.
impls=$(find crates/apps/src -name '*.rs' | sort | xargs awk -f scripts/non_test_lines.awk \
  | grep -E 'impl.*(HeapRecord|KryoRecord|DecaRecord) for' || true)
if [ -n "$impls" ]; then
  echo "non-test app code implements a record trait by hand (declare the record instead):"
  echo "$impls"
  exit 1
fi

echo "== one view per record (apps read records through their declared views) =="
# A record's heap slots and page offsets are known only to its
# `deca_engine::record!` declaration, whose views (`fields` of page bytes,
# `heap_fields` of a heap graph) every app reads it through: no non-test
# line under crates/apps/src reads a heap field or array element by hand,
# and none outside crates/apps/src/cached.rs, whose scan hands each record's
# view to the app's one UDF, matches on a cached dataset's representation.
raw=$(find crates/apps/src -name '*.rs' | sort | xargs awk -f scripts/non_test_lines.awk \
  | grep -E 'read_ref\(|read_f64\(|read_i64\(|read_word\(|array_get_' || true)
reprs=$(find crates/apps/src -name '*.rs' ! -name cached.rs | sort \
  | xargs awk -f scripts/non_test_lines.awk \
  | grep -E '\.repr\(\)|Repr::(Objects|Serialized|Pages)[^,;]*=>' || true)
if [ -n "$raw$reprs" ]; then
  echo "non-test app code reads a record around its declared views:"
  echo "$raw$reprs"
  exit 1
fi

echo "== no owned record across the Kryo boundary =="
# The Spark modes cross between Kryo bytes and the heap with no owned Rust
# record in between: a SparkSer read decodes a block into page-form bytes
# and visits them (`CacheManager::scan_serialized`), and the cache's tier
# moves serialize from, and store into, the heap graph. No non-test line
# under the apps or the engine names the retired decode-to-`Vec<T>`
# access, and no non-test line of the engine's cache.rs decodes a block
# into owned records or loads one off the heap. (The patterns' brackets
# keep this script from matching itself.)
owned=$( (find crates/apps/src crates/engine/src -name '*.rs' | sort \
    | xargs awk -f scripts/non_test_lines.awk | grep 'iter_serialize[d]' || true)
  awk -f scripts/non_test_lines.awk crates/engine/src/cache.rs \
    | grep -E 'deserialize_al[l]|T::loa[d]' || true)
if [ -n "$owned" ]; then
  echo "non-test code builds an owned record at the Kryo boundary:"
  echo "$owned"
  exit 1
fi

echo "== one tier move (one victim picker; a block leaves its table only when released) =="
# The cache manager's tier moves keep a block in its table: a move builds
# the block's new form and swaps it in, so an error never costs a block.
# No non-test line of the engine's cache.rs takes an entry out of the
# table outside `release` and `crash_restart`, and every victim search
# goes through the one picker, the file's single `min_by_key`.
taken=$(awk -f scripts/non_test_lines.awk crates/engine/src/cache.rs \
  | awk '/ fn [a-z_]+/ { match($0, / fn [a-z_]+/); f = substr($0, RSTART + 4, RLENGTH - 4) }
         /\.take\(\)/ && f != "release" && f != "crash_restart" { print }')
pickers=$(awk -f scripts/non_test_lines.awk crates/engine/src/cache.rs | grep -c 'min_by_key' || true)
if [ -n "$taken" ] || [ "$pickers" != 1 ]; then
  echo "cache.rs takes an entry out of its table outside release/crash_restart, or has" \
       "$pickers victim searches (want 1):"
  echo "$taken"
  exit 1
fi

echo "== one worker pool (engine threads start only in the pool; one unsafe, in the pool) =="
# A standalone session and a server job run their rounds on the same
# long-lived workers (crates/engine/src/pool.rs): no non-test engine line
# outside pool.rs starts a thread, no non-test engine line opens a scoped
# thread set, and the engine's only `unsafe` is the pool's round hand-off,
# which lends a stage's attempt body to the workers. (The patterns'
# brackets keep this script from matching itself.)
engine_src=$(find crates/engine/src -name '*.rs' | sort)
spawns=$( (grep -v '/pool\.rs$' <<<"$engine_src" | xargs awk -f scripts/non_test_lines.awk \
    | grep -E 'thread::(spawn|[B]uilder)' || true)
  xargs awk -f scripts/non_test_lines.awk <<<"$engine_src" | grep 'thread::[s]cope' || true)
unsafes=$(xargs awk -f scripts/non_test_lines.awk <<<"$engine_src" \
  | grep -E '(^|[^a-z_])unsaf[e]([^a-z_]|$)' || true)
outside=$(grep -v '/pool\.rs:' <<<"$unsafes" || true)
if [ -n "$spawns" ] || [ -n "$outside" ] || [ "$(grep -c . <<<"$unsafes")" -gt 1 ]; then
  echo "non-test engine code starts threads outside the worker pool, or has an unsafe" \
       "other than the pool's one:"
  echo "$spawns"
  echo "$unsafes"
  exit 1
fi

echo "== one job roll-up (one fold of a job's record; executors keep no per-job metrics) =="
# A session's summary and a server job's output are the same roll-up of the
# job's record in the pool (`StageEngine::roll_up`): no other non-test
# engine line folds stage recovery counters into job metrics, and the
# `Executor` struct holds no task list or job metrics of its own to sum
# instead.
folds=$(find crates/engine/src -name '*.rs' | sort | xargs awk -f scripts/non_test_lines.awk \
  | grep 'add_stage_recovery(' | grep -v 'fn add_stage_recovery(' || true)
held=$(awk -f scripts/non_test_lines.awk crates/engine/src/executor.rs \
  | awk '/pub struct Executor \{/ { on = 1 } on { print } on && /: \}$/ { exit }' \
  | grep -E 'Vec<TaskMetrics>|JobMetrics' || true)
if [ "$(grep -c . <<<"$folds")" != 1 ] || [ -n "$held" ]; then
  echo "job metrics are rolled up in more than one place, or an executor keeps per-job metrics:"
  echo "$folds"
  echo "$held"
  exit 1
fi

echo "== one shadow-stack rule (pushes only in the record stores and Spark buffers) =="
# A heap temporary goes on the shadow stack only when an allocation follows
# while it is held, and only inside `Heap::scope`, which pops it on every
# return: outside the heap, the record stores of the engine's record.rs and
# the Spark shuffle buffers of its shuffle.rs are the only non-test code
# that pushes one. (A pop takes the move-only `Frame` a scope took, so no
# caller pops to a stack index of its own.)
pushes=$(find crates -path '*/src/*.rs' ! -path 'crates/heap/src/*' | sort \
  | xargs awk -f scripts/non_test_lines.awk | grep 'push_stack(' \
  | grep -v -E '^crates/engine/src/(record|shuffle)\.rs:' || true)
if [ -n "$pushes" ]; then
  echo "non-test code pushes a shadow-stack root outside the record stores and Spark buffers:"
  echo "$pushes"
  exit 1
fi

echo "== typed trace events (no positional record call outside trace.rs) =="
# Each event the engine records has a typed constructor on TraceRecorder
# that names its fields: no non-test engine line outside trace.rs calls
# the twelve-argument `record` itself.
records=$(find crates/engine/src -name '*.rs' ! -name trace.rs | sort \
  | xargs awk -f scripts/non_test_lines.awk | grep -E 'trace\.record\(|TraceRecorder::record' || true)
if [ -n "$records" ]; then
  echo "non-test engine code records a trace event positionally:"
  echo "$records"
  exit 1
fi

echo "== one work record (an attempt's counts and times are one difference, in executor.rs) =="
# A task run's or a restart's work is `Executor::work()` after, `since`
# before: no other non-test engine or app line takes a difference of the
# collector's or the serializer's cumulative counters — it neither
# subtracts one nor keeps a reading of one as a baseline. serde_sim.rs,
# which maintains the serializer's timers, is excepted; comment lines are
# skipped.
counters='minor_collections|full_collections|total_gc_time|concurrent_mark_time|ser_time|deser_time'
diffs=$(find crates/engine/src crates/apps/src -name '*.rs' ! -name executor.rs ! -name serde_sim.rs \
  | sort | xargs awk -f scripts/non_test_lines.awk | grep -v -E '^[^:]+:[0-9]+: *//' \
  | grep -E "($counters)" | grep -E ' - |-=|_sub\(|(^|[^=!<>])=([^=>]|$)' || true)
if [ -n "$diffs" ]; then
  echo "non-test code takes a difference of executor counters outside Executor::work:"
  echo "$diffs"
  exit 1
fi

echo "== unwrap ratchet (non-test .unwrap()/.expect( lines per crate never rise) =="
# Library paths should return typed errors, not panic. Each crate's count
# of non-test unwrap/expect lines may only fall; the allowed counts live in
# scripts/unwrap-baseline.txt.
scripts/unwrap_ratchet.sh

echo "== server soak (concurrent submissions, both schedulers, replayed seeds) =="
# The soak pushes DECA_SOAK_JOBS mixed WC/PR jobs per scheduler and seed
# from 16 client threads through one shared DecaServer and asserts every
# job is bit-identical — checksum and recovery counters — to a serial
# ClusterSession run of the same width. 34 jobs x 2 schedulers x 3 seeds
# > 200 jobs.
for seed in 11 29 47; do
  if ! DECA_CHECK_SEED=$seed DECA_SOAK_JOBS=${DECA_SOAK_JOBS:-34} \
      cargo test -q --offline -p deca-bench --test server_soak; then
    echo "server soak failed under seed $seed; replay locally with:"
    echo "  DECA_CHECK_SEED=$seed DECA_SOAK_JOBS=${DECA_SOAK_JOBS:-34} cargo test --offline -p deca-bench --test server_soak"
    exit 1
  fi
done

echo "== properties (replayed seeds) =="
# The hash shuffle's table lives in its pages: batch entry must equal
# per-record entry and a HashMap fold at every slot geometry and across
# growths, and a run that meets a full heap must evict the cache — never
# the buffer — and apply each record exactly once. The Spark buffer's
# borrowed-key insert must equal a HashMap fold for i64 and multilingual
# String keys across growths (`spark_shuffle_*`). The heap's word-wide
# `byte[]` copies must equal element-by-element access on random spans and
# leave every byte outside the span alone (`byte_array_*`). The heap's
# inlined allocation fast path and its slow path must count, zero and poll
# as one allocator across the eden-full and humongous boundaries, under PS
# and CMS with a held concurrent cycle (`alloc_fast_*`). A page group's
# page-at-a-time record walks must yield exactly the records of the
# segment-at-a-time reader they replaced, SFST and framed, fresh and after a
# swap-out and back (`group::tests`). A heap `String`'s ASCII fast path must
# write the same `char[]` words, leave the same slack and decode the same
# text as the general UTF-16 path, for ASCII, Latin-1, BMP and astral
# strings at every length to 33 (`string_fast_path_*`). Each record's Kryo
# boundary walks must match the owned path they replaced: Kryo to page
# bytes, page bytes to the heap graph `store` allocates (same eden offsets
# and bytes), and the heap graph back to Kryo, for every declared and
# hand-written record and for strings of every class at every length to
# 33 (`kryo_walks_*`). The cache's tier moves never lose a block: seeded
# puts, reads, spills and releases against a full heap and an unwritable
# spill directory leave every block held and readable, every heap root
# and page group owned by one (`cache_tier_*`). These properties draw
# their cases from DECA_CHECK_SEED; a failure hands the reader the exact
# replay line.
for seed in 11 29 47; do
  for suite in "-p deca-bench --test properties shuffle" "-p deca-core --lib shuffle" \
      "-p deca-engine --lib shuffle" "-p deca-heap --lib byte_array" \
      "-p deca-heap --lib alloc_fast" "-p deca-core --lib group::tests" \
      "-p deca-bench --test properties string_fast_path" \
      "-p deca-bench --test properties kryo_walks" \
      "-p deca-bench --test properties cache_tier"; do
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

echo "== AddressSanitizer (nightly: heap and engine unit tests, cluster and soak suites) =="
# The workspace's one `unsafe` block, the worker pool's lifetime
# `transmute` (`crates/engine/src/pool.rs`), under ASan, with std's and
# the allocator's own unsafe paths: a round's attempt body used after
# its frame returned shows up as a report here, where the tier-1 tests above
# would only see it if it corrupted a checksum. The heap's suites ride
# along for the allocator paths its arenas take; their words are
# bounds-checked `Vec`s, so ASan adds nothing to their indexing. Needs
# the nightly toolchain and its ASan runtime; without them the leg is
# skipped. Its own target directory keeps the instrumented build apart
# from the release one.
asan_rt="$(rustc +nightly --print sysroot 2>/dev/null || true)"
asan_rt="$asan_rt/lib/rustlib/x86_64-unknown-linux-gnu/lib/librustc-nightly_rt.asan.a"
if [ -f "$asan_rt" ]; then
  for suite in "-p deca-heap --lib" "-p deca-engine --lib" \
      "-p deca-bench --test cluster_parallel" "-p deca-bench --test server_soak"; do
    # shellcheck disable=SC2086 # $suite is a word list on purpose
    RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
      cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu $suite
  done
else
  echo "skipped: no nightly toolchain with the AddressSanitizer runtime"
fi

echo "== ci green =="
