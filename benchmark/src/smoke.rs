//! Self-test: every workload once at 1/20 size, checking outputs and
//! mechanism guards only. Nothing here asserts on a time.

use crate::metrics::{per_layer, END_TO_END};
use crate::run::{enter_scratch, run, RunArgs};
use crate::workloads::Workload;

fn small(workload: Workload, trace: bool) -> RunArgs {
    // The shortest possible passes: the minimum round count, and probe
    // samples of one batch each.
    RunArgs { workload, seed: 7, seconds: 0.01, trace, scale: 20 }
}

#[test]
fn every_workload_verifies_and_fires_its_mechanism_at_small_scale() {
    enter_scratch().expect("scratch directory under out/");
    for workload in Workload::ALL {
        let out = run(&small(workload, false))
            .unwrap_or_else(|e| panic!("{} refused to report: {e}", workload.name()));
        assert!(out.correct && out.failed == 0, "{}: {} failed", workload.name(), out.failed);
        assert!(out.attempted >= 9, "{}: three rounds of three modes", workload.name());
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END.map(|m| m.name));
        assert!(out.metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0));
    }
}

#[test]
fn a_traced_run_reports_every_per_layer_metric() {
    enter_scratch().expect("scratch directory under out/");
    for workload in [Workload::PrPressure, Workload::ServerMix] {
        let out = run(&small(workload, true))
            .unwrap_or_else(|e| panic!("{} refused to report: {e}", workload.name()));
        assert!(out.correct, "{}: {} failed", workload.name(), out.failed);
        let names: Vec<String> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<String> = per_layer().into_iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(out.metrics.iter().all(|m| m.value.is_finite()), "{}", workload.name());
    }
}
