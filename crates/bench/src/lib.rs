//! # deca-bench — what the `repro` binary's artefact rows share
//!
//! `repro` (`src/bin/repro.rs`) regenerates every table and figure of the
//! paper's §6 from one artefact table (DESIGN.md §3 has the index). This
//! library holds what more than one row needs: the [`Scale`] mapping the
//! paper's cluster-scale datasets onto laptop-scale equivalents, the named
//! parameter presets, [`across_modes`] (run one configuration in several
//! execution modes and hold the results to the app's checksum tolerance),
//! the per-mode row printer whose columns EXPERIMENTS.md records, and the
//! [`ShapeCheck`] a row returns for each of the paper's shape claims.
//!
//! Nothing here times the system for regression purposes — that is
//! `benchmark/`'s job. The seconds `repro` prints are the program's own
//! per-job accounting, read for *shape* (who wins, where the regime
//! changes), not compared across commits.

use std::time::Duration;

use deca_apps::kmeans::KmParams;
use deca_apps::logreg::LrParams;
use deca_apps::pagerank::PrParams;
use deca_apps::report::{speedup, AppReport};
use deca_apps::wordcount::WcParams;
use deca_engine::ExecutionMode;

/// Scale preset. The paper's experiments use 2–200 GB datasets on 30 GB
/// executors; we preserve the *ratios* (live set : heap capacity) at MB
/// scale. `factor` multiplies the per-experiment record counts; heaps stay
/// fixed, so below ~0.5 nothing saturates and the saturation shape checks
/// legitimately fail.
#[derive(Copy, Clone, Debug)]
pub struct Scale {
    /// Multiplier over the default record counts (1.0 ≈ seconds per cell).
    pub factor: f64,
    /// Iterations for iterative workloads (paper: 30 for LR/KMeans, 10 for
    /// PR/CC; reduced for wall-clock sanity).
    pub lr_iterations: usize,
    pub graph_iterations: usize,
}

impl Scale {
    pub fn new(factor: f64) -> Scale {
        Scale { factor, lr_iterations: 15, graph_iterations: 5 }
    }

    pub fn records(&self, base: usize) -> usize {
        ((base as f64) * self.factor) as usize
    }
}

/// One of the paper's shape claims, judged on the reports the artefact row
/// that states it just produced.
#[derive(Clone, Debug)]
pub struct ShapeCheck {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

impl std::fmt::Display for ShapeCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let verdict = if self.ok { "PASS" } else { "FAIL" };
        write!(f, "{verdict}  {}: {}", self.name, self.detail)
    }
}

// ---------------------------------------------------------------------
// output helpers
// ---------------------------------------------------------------------

/// Format a duration in seconds with 3 decimals.
pub fn secs(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Format bytes as MB with 2 decimals.
pub fn mb(bytes: usize) -> String {
    format!("{:.2}", bytes as f64 / (1 << 20) as f64)
}

/// Print a header row followed by a separator, TSV-ish aligned.
pub fn table_header(cols: &[&str]) {
    println!("{}", cols.join("\t"));
    println!("{}", "-".repeat(cols.len() * 12));
}

/// Print one row.
pub fn table_row(cells: &[String]) {
    println!("{}", cells.join("\t"));
}

/// The columns [`mode_row`] fills after the caller's label columns.
pub const MODE_COLS: [&str; 7] =
    ["Spark_s", "SparkSer_s", "Deca_s", "DecaVsSpark", "cacheSp_MB", "cacheSer_MB", "cacheDeca_MB"];

/// Header for a table of [`mode_row`]s: label columns, [`MODE_COLS`], then
/// any row-specific extras.
pub fn mode_header(labels: &[&str], extras: &[&str]) {
    table_header(&[labels, &MODE_COLS[..], extras].concat());
}

/// One `Spark_s / SparkSer_s / Deca_s / speedup / cache MB` row for a
/// configuration run in all three modes.
pub fn mode_row(labels: &[&str], reports: &[AppReport; 3], extras: &[String]) {
    let [spark, ser, deca] = reports;
    let mut cells: Vec<String> = labels.iter().map(|l| l.to_string()).collect();
    cells.extend([secs(spark.exec()), secs(ser.exec()), secs(deca.exec())]);
    cells.push(format!("{:.1}x", speedup(spark, deca)));
    cells.extend(reports.iter().map(|r| mb(r.cache_bytes)));
    cells.extend_from_slice(extras);
    table_row(&cells);
}

// ---------------------------------------------------------------------
// cross-mode equivalence
// ---------------------------------------------------------------------

/// Cross-mode checksum tolerances, one per app, relative to
/// `max(|reference|, 1)`.
pub mod tol {
    /// WordCount, ConnectedComponents and SQL Q1 checksums are sums of
    /// integers far below 2^53: every mode must return the same `f64`.
    pub const WC: f64 = 0.0;
    pub const CC: f64 = 0.0;
    pub const SQL_COUNT: f64 = 0.0;
    /// LR, KMeans and PageRank sum `f64` terms; every mode's kernel adds
    /// them in the same task and record order, and the tier-1 equivalence
    /// tests hold them to 1e-9 or tighter. Relative, because PageRank's
    /// checksum grows with the vertex count.
    pub const LR: f64 = 1e-9;
    pub const KMEANS: f64 = 1e-9;
    pub const PR: f64 = 1e-9;
    /// SQL Q2/Q3 aggregate revenue per group; the columnar (Spark SQL)
    /// plan scans a different layout than the row plans, so group sums may
    /// associate differently.
    pub const SQL_SUM: f64 = 1e-6;
}

/// Panic unless every checksum is within `tol` (relative to
/// `max(|first|, 1)`) of the first.
pub fn assert_checksums_agree(what: &str, tol: f64, checksums: &[f64]) {
    let reference = checksums[0];
    let bound = tol * reference.abs().max(1.0);
    for (i, c) in checksums.iter().enumerate() {
        assert!(
            (c - reference).abs() <= bound,
            "{what}: checksum {i} is {c}, the reference {reference} (tolerance {bound:e})"
        );
    }
}

pub const SPARK_DECA: [ExecutionMode; 2] = [ExecutionMode::Spark, ExecutionMode::Deca];

/// Run one configuration in each of `modes` (in order) and assert the
/// checksums agree under the app's [`tol`]. With [`ExecutionMode::ALL`]
/// the result destructures as `[spark, sparkser, deca]`.
pub fn across_modes<const N: usize>(
    modes: [ExecutionMode; N],
    tol: f64,
    mut run: impl FnMut(ExecutionMode) -> AppReport,
) -> [AppReport; N] {
    let reports = modes.map(&mut run);
    let checksums: Vec<f64> = reports.iter().map(|r| r.checksum).collect();
    assert_checksums_agree(&reports[0].app, tol, &checksums);
    reports
}

// ---------------------------------------------------------------------
// parameter presets shared by two or more artefact rows
// ---------------------------------------------------------------------

/// LR dataset sizes on the [`lr_params`] heap: comfortably cached vs. at
/// old-generation capacity (the paper's 40 GB vs 100 GB on 30 GB heaps).
pub const LR_FITTING: usize = 30_000;
pub const LR_SATURATED: usize = 66_000;

/// WordCount over `words` tokens drawn from `distinct` keys.
pub fn wc_params(scale: &Scale, mode: ExecutionMode, words: usize, distinct: usize) -> WcParams {
    let mut p = WcParams::small(mode);
    p.words = scale.records(words);
    p.distinct = scale.records(distinct);
    p
}

/// LR on the 16 MB · 0.62 executor whose old generation `LR_SATURATED`
/// points fill.
pub fn lr_params(scale: &Scale, mode: ExecutionMode, points: usize) -> LrParams {
    let mut p = LrParams::small(mode);
    p.points = scale.records(points);
    p.iterations = scale.lr_iterations;
    p.heap_bytes = 16 << 20;
    p.storage_fraction = 0.62;
    p
}

/// KMeans on the same executor as [`lr_params`].
pub fn km_params(scale: &Scale, mode: ExecutionMode, points: usize) -> KmParams {
    let mut p = KmParams::small(mode);
    p.points = scale.records(points);
    p.iterations = scale.lr_iterations.min(10);
    p.heap_bytes = 16 << 20;
    p.storage_fraction = 0.62;
    p
}

/// PageRank's shuffle-heavy case (the paper's PR-60G): 24 k vertices,
/// 250 k edges, 32 MB.
pub fn pr_params(scale: &Scale, mode: ExecutionMode) -> PrParams {
    let mut p = PrParams::small(mode);
    p.vertices = scale.records(24_000);
    p.edges = scale.records(250_000);
    p.iterations = scale.graph_iterations;
    p.heap_bytes = 32 << 20;
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_multiplies_record_counts() {
        assert_eq!(Scale::new(2.0).records(100), 200);
        assert_eq!(lr_params(&Scale::new(0.5), ExecutionMode::Deca, LR_FITTING).points, 15_000);
    }

    #[test]
    fn formatting() {
        assert_eq!(secs(Duration::from_millis(1500)), "1.500");
        assert_eq!(mb(3 << 20), "3.00");
    }

    #[test]
    fn checksum_tolerance_is_relative_to_the_reference() {
        assert_checksums_agree("exact", tol::WC, &[7.0, 7.0]);
        assert_checksums_agree("relative", tol::PR, &[2.0e4, 2.0e4 + 1e-6]);
        let off = std::panic::catch_unwind(|| assert_checksums_agree("off", tol::LR, &[1.0, 1.1]));
        assert!(off.is_err(), "a real disagreement must panic");
    }
}
