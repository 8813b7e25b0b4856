//! The results file of a full run (every workload, timed and traced) and
//! the A/A comparison of two such files.

use std::path::{Path, PathBuf};
use std::process::Command;

use deca_check::json::Json;

use crate::metrics::END_TO_END;
use crate::run::out_dir;
use crate::workloads::{executors, Workload};

pub const SCHEMA: &str = "deca-benchmark-v1";

/// Where one run of one workload leaves its details for the full run to
/// collect.
pub fn run_file(workload: Workload, trace: bool) -> PathBuf {
    out_dir().join(format!("run-{}-trace{}.json", workload.name(), u8::from(trace)))
}

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// What has to match for two results files to be comparable.
fn host_json(seed: u64, seconds: f64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::obj(vec![
        ("seed", Json::int(seed)),
        ("seconds", Json::num(seconds)),
        ("commit", Json::str(tool_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::int(nproc as u64)),
        ("rustc", Json::str(tool_line("rustc", &["-V"]))),
        ("executors", Json::int(executors() as u64)),
    ])
}

/// Run every workload, timed then traced, each in a child process of its
/// own so `proc.peak_rss_mb` is that workload's alone; print every metric by
/// name with its unit and write the results file. `Ok(false)` when any job
/// failed.
pub fn run_everything(seed: u64, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut workloads = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        let mut passes = Vec::new();
        for trace in [false, true] {
            let status = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .stdout(std::process::Stdio::null())
                .status()
                .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
            if !status.success() {
                return Err(format!(
                    "the {} run (trace {}) failed",
                    workload.name(),
                    u8::from(trace)
                ));
            }
            let run = read_json(&run_file(workload, trace))?;
            all_correct &= run.get("correct").and_then(Json::as_bool) == Some(true);
            print_run(workload, &run);
            passes.push((if trace { "traced" } else { "timed" }, run));
        }
        workloads.push((workload.name(), Json::obj(passes)));
    }
    let results = Json::obj(vec![
        ("schema", Json::str(SCHEMA)),
        ("host", host_json(seed, seconds)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = out_dir().join(format!("results-seed{seed}.json"));
    std::fs::write(&path, results.to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_run(workload: Workload, run: &Json) {
    let get = |key: &str| run.get(key).and_then(Json::as_u64).unwrap_or(0);
    println!(
        "{:<15} jobs_attempted {}  jobs_failed {}  rounds {}",
        workload.name(),
        get("attempted"),
        get("failed"),
        get("rounds")
    );
    if let Some(Json::Obj(metrics)) = run.get("metrics") {
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{:<15} {name:<44} {value:>16.6} {unit}", workload.name());
        }
        // Printed for the reader, never gated: a faster baseline must not
        // read as a regression.
        let value = |name: &str| metrics.iter().find(|(n, _)| n == name)?.1.get("value")?.as_f64();
        if let (Some(deca), Some(spark)) = (value("deca_job_s"), value("spark_job_s")) {
            println!(
                "{:<15} (Spark job time / Deca job time = {:.2})",
                workload.name(),
                spark / deca
            );
        }
    }
}

// ----------------------------------------------------------------------
// A/A comparison
// ----------------------------------------------------------------------

/// How much worse `b` is than `a`, as a share of `a`; negative when `b` is
/// better.
pub fn worsening(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn metric_value(results: &Json, workload: &str, pass: &str, metric: &str) -> Option<f64> {
    results
        .get("workloads")?
        .get(workload)?
        .get(pass)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compare two results files cell by cell. Returns the printed report and
/// whether any end-to-end metric of `b` is worse than `a` beyond its bound.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for (label, doc) in [("first", a), ("second", b)] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("the {label} file is not a {SCHEMA} results file"));
        }
    }
    let mut report = String::new();
    let host =
        |doc: &Json, key: &str| doc.get("host").and_then(|h| h.get(key)).map(Json::to_compact);
    for key in ["seed", "seconds", "commit", "nproc", "rustc", "executors"] {
        let (ha, hb) = (host(a, key).unwrap_or_default(), host(b, key).unwrap_or_default());
        let note = if ha == hb || key == "commit" { "" } else { "  <-- differs: not an A/A pair" };
        report.push_str(&format!("{key:<10} {ha}  |  {hb}{note}\n"));
    }

    let mut beyond = false;
    report.push_str(&format!(
        "\n{:<15} {:<18} {:>14} {:>14} {:>9} {:>7}\n",
        "workload", "metric", "a", "b", "worse by", "bound"
    ));
    for workload in Workload::ALL {
        for m in &END_TO_END {
            let cell = |doc| metric_value(doc, workload.name(), "timed", m.name);
            let (Some(va), Some(vb)) = (cell(a), cell(b)) else {
                return Err(format!("{} {} is missing from one file", workload.name(), m.name));
            };
            let worse = worsening(m.better, va, vb);
            let flag = if worse > m.bound {
                beyond = true;
                "  BEYOND BOUND"
            } else {
                ""
            };
            report.push_str(&format!(
                "{:<15} {:<18} {va:>14.6} {vb:>14.6} {:>8.1}% {:>6.0}%{flag}\n",
                workload.name(),
                m.name,
                worse * 100.0,
                m.bound * 100.0
            ));
        }
    }

    // Counts made by the program compare two runs exactly or not at all.
    let mut differing = Vec::new();
    for workload in Workload::ALL {
        let metrics = |doc: &Json| match doc
            .get("workloads")?
            .get(workload.name())?
            .get("traced")?
            .get("metrics")?
        {
            Json::Obj(members) => Some(members.clone()),
            _ => None,
        };
        let (Some(ma), Some(mb)) = (metrics(a), metrics(b)) else { continue };
        for (name, value) in ma.iter().filter(|(n, _)| n.starts_with("rep.")) {
            let is_count = value.get("unit").and_then(Json::as_str) != Some("s");
            let other = mb.iter().find(|(n, _)| n == name).map(|(_, v)| v);
            if is_count && other.map(|v| v.get("value")) != Some(value.get("value")) {
                differing.push(format!("{} {name}", workload.name()));
            }
        }
    }
    if differing.is_empty() {
        report.push_str("\nevery rep.* count is identical in both files\n");
    } else {
        report.push_str(&format!("\nrep.* counts that differ: {}\n", differing.join(", ")));
    }
    Ok((report, beyond))
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (report, beyond) = compare(&read_json(Path::new(a))?, &read_json(Path::new(b))?)?;
    print!("{report}");
    Ok(beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(deca_job_s: f64, deca_krec: f64, full_gcs: u64) -> Json {
        let metric = |v: f64, unit: &str| {
            Json::obj(vec![("value", Json::num(v)), ("unit", Json::str(unit))])
        };
        let workloads = Workload::ALL
            .iter()
            .map(|w| {
                let timed = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = match m.name {
                            "deca_job_s" => deca_job_s,
                            "deca_krec_per_s" => deca_krec,
                            _ => 1.0,
                        };
                        (m.name, metric(v, m.unit))
                    })
                    .collect();
                let traced = vec![
                    ("rep.spark.full_gcs", metric(full_gcs as f64, "count")),
                    ("rep.spark.task_s", metric(deca_job_s, "s")),
                ];
                let pass = |metrics| Json::obj(vec![("metrics", Json::obj(metrics))]);
                (w.name(), Json::obj(vec![("timed", pass(timed)), ("traced", pass(traced))]))
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str(SCHEMA)),
            ("host", Json::obj(vec![("seed", Json::int(1)), ("nproc", Json::int(2))])),
            ("workloads", Json::obj(workloads)),
        ])
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening("lower", 1.0, 1.2) - 0.2).abs() < 1e-12);
        assert!((worsening("lower", 1.0, 0.8) + 0.2).abs() < 1e-12);
        assert!((worsening("higher", 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!(worsening("higher", 100.0, 120.0) < 0.0);
    }

    #[test]
    fn compare_flags_only_cells_beyond_their_bound() {
        let bound = END_TO_END.iter().find(|m| m.name == "deca_job_s").unwrap().bound;
        let base = results(0.100, 500.0, 42);
        let (inside, outside) = (bound / 2.0, bound * 2.0);
        // Half a bound slower and half a bound less throughput: inside.
        let b = results(0.100 * (1.0 + inside), 500.0 * (1.0 - inside), 42);
        let (report, beyond) = compare(&base, &b).unwrap();
        assert!(!beyond, "{report}");
        assert!(report.contains("every rep.* count is identical"));
        // A better second run is never a regression.
        assert!(!compare(&base, &results(0.050, 900.0, 42)).unwrap().1);
        // Two bounds slower: beyond.
        let (report, beyond) =
            compare(&base, &results(0.100 * (1.0 + outside), 500.0, 42)).unwrap();
        assert!(beyond);
        assert!(report.contains("BEYOND BOUND"));
        // Throughput is better when higher.
        assert!(compare(&base, &results(0.100, 500.0 * (1.0 - outside), 42)).unwrap().1);
        // A count that moved is named; a duration that moved is not a count.
        let (report, beyond) = compare(&base, &results(0.100, 500.0, 41)).unwrap();
        assert!(!beyond);
        assert!(report.contains("lr-gcbound rep.spark.full_gcs"), "{report}");
        assert!(!report.contains("rep.spark.task_s"));
    }

    #[test]
    fn compare_refuses_other_files() {
        let other = Json::obj(vec![("schema", Json::str("deca-bench-v1"))]);
        assert!(compare(&results(0.1, 500.0, 42), &other).is_err());
    }

    #[test]
    fn results_survive_the_json_round_trip() {
        let doc = results(0.123456789, 512.25, 42);
        let parsed = Json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(metric_value(&parsed, "lr-gcbound", "timed", "deca_job_s"), Some(0.123456789));
    }
}
