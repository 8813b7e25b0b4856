//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` at the repository root lists the same
//! tables; a self-test keeps the two in step.

use crate::workloads::{Rollup, MODE_KEYS};

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// What a user of the system sees: how long a job takes in each storage
/// mode, how much input it gets through, and what set-up costs. Each mode
/// has its own metric, so a faster baseline never reads as a regression;
/// no speed-up ratio is gated.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "deca_job_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "spark_job_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "sparkser_job_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "deca_krec_per_s", unit: "krec/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "spark_krec_per_s", unit: "krec/s", better: "higher", bound: 0.25 },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
}

/// The probes' metrics, in the order `probes::run_all` reports them.
const PROBES: [(&str, &str); 23] = [
    ("heap.alloc_mobj_per_s", "Mobj/s"),
    ("heap.minor_survivor_mobj_per_s", "Mobj/s"),
    ("heap.full_mark_mobj_per_s", "Mobj/s"),
    ("heap.full_gc_pause_ms", "ms"),
    ("core.page.append_mb_per_s", "MB/s"),
    ("core.page.scan_mb_per_s", "MB/s"),
    ("core.shuffle.insert_mops", "Mops/s"),
    ("core.shuffle.drain_mops", "Mops/s"),
    ("core.var_shuffle.insert_mops", "Mops/s"),
    ("core.arena.handover_mb_per_s", "MB/s"),
    ("core.manager.swap_mb_per_s", "MB/s"),
    ("core.optimizer.plan_us", "us"),
    ("engine.serde.encode_mb_per_s", "MB/s"),
    ("engine.serde.decode_mb_per_s", "MB/s"),
    ("engine.serde.pair_roundtrip_mops", "Mops/s"),
    ("engine.shuffle.spark_insert_mops", "Mops/s"),
    ("engine.shuffle.exchange_us", "us"),
    ("engine.cache.put_mb_per_s", "MB/s"),
    ("engine.cache.cold_read_mb_per_s", "MB/s"),
    ("engine.driver.task_dispatch_us", "us"),
    ("engine.driver.session_start_ms", "ms"),
    ("engine.server.empty_job_us", "us"),
    ("engine.trace.record_ns", "ns"),
];

/// Counters read off the traced jobs' stages and run traces, and the
/// tail latencies only `server-mix` has the samples for.
const TRACED: [(&str, &str); 13] = [
    ("proc.peak_rss_mb", "MB"),
    ("apps.datagen_s", "s"),
    ("apps.datagen_share", "ratio"),
    ("engine.trace.overhead_pct", "%"),
    ("engine.trace.events", "count"),
    ("engine.server.deca_latency_p90_s", "s"),
    ("engine.server.spark_latency_p90_s", "s"),
    ("engine.server.sparkser_latency_p90_s", "s"),
    ("engine.server.shuffle_bytes", "bytes"),
    ("engine.server.handover_pages", "pages"),
    ("engine.server.spill_bytes", "bytes"),
    ("engine.server.steals", "count"),
    ("engine.server.rejected", "count"),
];

/// Every per-layer metric a traced run prints.
pub fn per_layer() -> Vec<PerLayer> {
    let fixed = |&(name, unit): &(&str, &'static str)| PerLayer { name: name.to_string(), unit };
    let mut out: Vec<PerLayer> = PROBES.iter().map(fixed).collect();
    out.extend(TRACED.iter().map(fixed));
    for mode in MODE_KEYS {
        for name in Rollup::DURATIONS {
            out.push(PerLayer { name: format!("rep.{mode}.{name}"), unit: "s" });
        }
        for name in Rollup::COUNTS {
            let unit = if name.ends_with("bytes") { "bytes" } else { "count" };
            out.push(PerLayer { name: format!("rep.{mode}.{name}"), unit });
        }
        out.push(PerLayer {
            name: format!("engine.driver.outside_task_share.{mode}"),
            unit: "ratio",
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_check::json::Json;

    /// `BENCHMARK.json` is what the driver reads; it must name exactly the
    /// metrics and workloads this crate prints.
    #[test]
    fn benchmark_json_lists_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("{key} is an array"))
                .iter()
                .map(|row| {
                    fields
                        .iter()
                        .map(|f| match row.get(f).unwrap_or_else(|| panic!("{key} row has {f}")) {
                            Json::Str(s) => s.clone(),
                            other => other.to_compact(),
                        })
                        .collect()
                })
                .collect()
        };

        let expected: Vec<Vec<String>> = END_TO_END
            .iter()
            .map(|m| {
                vec![m.name.into(), m.unit.into(), m.better.into(), Json::num(m.bound).to_compact()]
            })
            .collect();
        assert_eq!(rows("end_to_end", &["name", "unit", "better", "bound"]), expected);

        // Rates are better higher; times, counts and shares better lower.
        let better = |unit: &str| if unit.ends_with("/s") { "higher" } else { "lower" };
        let expected: Vec<Vec<String>> = per_layer()
            .iter()
            .map(|m| vec![m.name.clone(), m.unit.into(), better(m.unit).into()])
            .collect();
        assert!(expected.len() <= 128);
        assert_eq!(rows("per_layer", &["name", "unit", "better"]), expected);

        let names: Vec<Vec<String>> =
            crate::workloads::Workload::ALL.iter().map(|w| vec![w.name().to_string()]).collect();
        assert_eq!(rows("workloads", &["name"]), names);
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        let ok = |s: &str, extra: &str, max: usize| {
            !s.is_empty()
                && s.len() <= max
                && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for name in &names {
            assert!(ok(name, "_.-", 64), "{name}");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(per_layer().iter().map(|m| m.unit)) {
            assert!(ok(unit, "_/%.-", 16), "{unit}");
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
