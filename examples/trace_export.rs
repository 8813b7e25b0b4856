//! Export a structured run trace: run a shuffle job under an injected
//! fault, then write the merged trace as Chrome trace-event JSON (open in
//! `chrome://tracing` or Perfetto) and as a flat run manifest.
//!
//! Run with: `cargo run --release --example trace_export`

use deca_engine::{
    ClusterSession, ExecutionMode, ExecutorConfig, FaultPlan, FaultSite, RetryPolicy, RunTrace,
    TraceEventKind,
};

fn main() {
    // Tracing is on by default; a retry policy plus one forced task
    // failure makes the fault-handling events show up in the timeline.
    let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20).retry(RetryPolicy::resilient());
    let mut session = ClusterSession::new(2, config);
    // (run_shuffle_job names its stages `<job>-map` / `<job>-reduce`.)
    session.install_faults(FaultPlan::quiet().force(
        FaultSite::TaskBody,
        "map-map",
        Some(1),
        Some(0),
    ));

    let totals = session
        .run_shuffle_job(
            "map",
            4,
            2,
            |ctx, e| {
                Ok((0..2)
                    .map(|_| {
                        let mut run = e.new_run();
                        run.push(&mut e.arena, &[ctx.task as u8; 4]);
                        e.hand_over(run)
                    })
                    .collect())
            },
            |_ctx, _e, inputs| Ok(inputs.iter().map(|run| run.len()).sum::<usize>()),
        )
        .expect("survivable job");
    assert_eq!(totals, vec![16, 16]);
    session.finish_job();

    // The merged trace orders driver + executor events deterministically
    // by logical position (stage, task, attempt) — never by wall clock.
    let trace = session.merged_trace();
    println!("{} events:", trace.events.len());
    for ev in &trace.events {
        println!(
            "  {:<18} stage={:<8} task={:<4} attempt={} executor={:?}",
            ev.kind.name(),
            ev.stage,
            ev.task.map(|t| t.to_string()).unwrap_or_else(|| "-".into()),
            ev.attempt,
            ev.executor,
        );
    }
    let retries = trace.of_kind(TraceEventKind::Retry).count();
    assert_eq!(retries, 1, "the forced failure shows up as exactly one retry");

    // Both exporters are hand-rolled JSON — no registry dependencies —
    // and the Chrome document round-trips losslessly through the in-repo
    // parser, so exported traces stay diffable and machine-checkable.
    let dir = std::env::temp_dir().join("deca-trace-export");
    std::fs::create_dir_all(&dir).expect("create output dir");
    let chrome = dir.join("trace.json");
    let manifest = dir.join("manifest.json");
    session.export_chrome_trace(&chrome).expect("write chrome trace");
    session.export_manifest(&manifest).expect("write manifest");

    let text = std::fs::read_to_string(&chrome).expect("read back");
    let n = RunTrace::validate_chrome_document(&text).expect("chrome-valid document");
    let back = RunTrace::from_chrome_string(&text).expect("parse back");
    assert_eq!(back, trace, "round-trip is lossless");
    println!("\nwrote {} ({n} events) and {}", chrome.display(), manifest.display());
    println!("load the first in chrome://tracing or https://ui.perfetto.dev");
}
