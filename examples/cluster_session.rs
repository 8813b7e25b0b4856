//! The cluster driver API: describe a map/exchange/reduce job once, run it
//! over any number of parallel executors, and read per-stage metrics back.
//!
//! Run with: `cargo run --release --example cluster_session`

use deca_apps::wordcount::{run_local, WcParams};
use deca_engine::{ClusterSession, ExecutionMode, ExecutorConfig};

fn main() {
    // ---- the driver in miniature: a two-stage job by hand ------------
    let config = ExecutorConfig::new(ExecutionMode::Deca, 16 << 20);
    let mut session = ClusterSession::new(2, config);

    // Map: 4 tasks, each emitting one byte run per reducer. Reduce: 2
    // tasks, each seeing every map task's run in map-task order.
    let totals = session
        .run_shuffle_job(
            "demo",
            4,
            2,
            |ctx, e| {
                // Each run's pages transfer to the exchange copy-free.
                Ok((0..2)
                    .map(|_| {
                        let mut run = e.new_run();
                        run.push(&mut e.arena, &[ctx.task as u8; 3]);
                        e.hand_over(run)
                    })
                    .collect())
            },
            |_ctx, _e, inputs| Ok(inputs.iter().map(|run| run.len()).sum::<usize>()),
        )
        .expect("demo job");
    assert_eq!(totals, vec![12, 12]);
    for stage in session.stages() {
        println!(
            "stage {:<12} tasks={} shuffle_bytes={}",
            stage.name, stage.tasks, stage.shuffle_bytes
        );
    }

    // ---- a real workload through the same driver ---------------------
    // WordCount over 1, 2, and 4 executors: same checksum at every
    // width, wall time governed by the busiest executor.
    println!("\n{:<10}{:>14}{:>16}{:>14}", "executors", "slowest", "exec_ms", "checksum");
    let params = WcParams::small(ExecutionMode::Deca);
    let mut reference = None;
    for executors in [1usize, 2, 4] {
        let report = run_local(&params, executors);
        let expected = *reference.get_or_insert(report.checksum);
        assert_eq!(report.checksum, expected, "width must not change the answer");
        println!(
            "{:<10}{:>14}{:>16.1}{:>14.0}",
            executors,
            report.slowest_task.as_ref().map(|t| t.name.clone()).unwrap_or_default(),
            report.metrics.exec.as_secs_f64() * 1e3,
            report.checksum,
        );
    }
    println!("\nOne job description, any cluster width — same bytes, same answer.");
}
