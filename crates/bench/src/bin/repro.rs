//! `repro` — regenerate the paper's evaluation artefacts (§6: Fig. 8–11,
//! Tables 3–6), the design ablations and the multi-executor extension from
//! one table.
//!
//! ```console
//! $ cargo run --release --offline -p deca-bench --bin repro -- --list
//! $ cargo run --release --offline -p deca-bench --bin repro -- fig9b table3
//! $ cargo run --release --offline -p deca-bench --bin repro -- all --scale 1
//! ```
//!
//! Every row runs its configurations in the modes it compares, panics if
//! their checksums disagree beyond the app's tolerance, prints the table
//! EXPERIMENTS.md records, and returns the paper's shape claims it can
//! judge from those same reports. The process exits non-zero if a shape
//! check fails. Checks compare program-reported times, so they are read at
//! `--scale 1` (the default); below ~0.5 the heaps never saturate.

use std::time::{Duration, Instant};

use deca_apps::concomp::{self, CcParams};
use deca_apps::kmeans::{self, KmParams};
use deca_apps::logreg::{self, LrParams};
use deca_apps::pagerank::{self, PrParams};
use deca_apps::records::LabeledPointRec;
use deca_apps::report::{gc_reduction, speedup, AppReport};
use deca_apps::sql::{self, SqlParams, SqlQuery, SqlSystem};
use deca_apps::wordcount::{self, WcParams};
use deca_apps::{datagen, run_job_local, run_job_on};
use deca_bench::{
    across_modes, assert_checksums_agree, km_params, lr_params, mb, mode_header, mode_row,
    pr_params, secs, table_header, table_row, tol, wc_params, Scale, ShapeCheck, LR_FITTING,
    LR_SATURATED, SPARK_DECA,
};
use deca_core::{DecaCacheBlock, DecaHashShuffle, DecaRecord, DecaVarHashShuffle, MemoryManager};
use deca_engine::{ClusterSession, ExecutionMode, KryoSim};
use deca_heap::{ClassBuilder, FieldKind, GcAlgorithm, Heap, HeapConfig};
use deca_udt::fixtures::group_by_program;
use deca_udt::{classify_phased, GlobalAnalysis, JobPhases, TypeRef};

/// One reproducible artefact: its `repro` name, the paper artefact with
/// the shape it is expected to show, and the row that prints it.
struct Artefact {
    name: &'static str,
    paper: &'static str,
    run: fn(&Scale) -> Vec<ShapeCheck>,
}

const ARTEFACTS: &[Artefact] = &[
    Artefact {
        name: "fig8a",
        paper: "Figure 8(a): WC shuffle-buffer lifetimes — Spark's Tuple2 census churns and \
                GC time climbs; Deca instantiates none",
        run: fig8a,
    },
    Artefact {
        name: "fig8b",
        paper: "Figure 8(b): WC execution time, Spark vs Deca — paper: Deca 10-58% faster, \
                more with more keys",
        run: fig8b,
    },
    Artefact {
        name: "fig8-text",
        paper: "Figure 8(b) variant: text-keyed WC (String keys; the pointer-array shuffle \
                of §4.3.2 on the Deca side)",
        run: fig8_text,
    },
    Artefact {
        name: "fig9a",
        paper: "Figure 9(a): LR cached-RDD lifetimes — a stable LabeledPoint census that \
                full GCs trace in vain; Deca holds no such objects",
        run: fig9a,
    },
    Artefact {
        name: "fig9b",
        paper: "Figure 9(b): LR exec time + cached data across dataset sizes — moderate \
                gains while the cache fits, 16-41x once Spark is full-GC-bound; SparkSer \
                wins only past saturation",
        run: fig9b,
    },
    Artefact {
        name: "fig9c",
        paper: "Figure 9(c): KMeans over the same sweep — the same regime change",
        run: fig9c,
    },
    Artefact {
        name: "fig9d",
        paper: "Figure 9(d): LR and KMeans on high-dimensional vectors — headers are \
                negligible, so cacheSp ~= cacheDeca and speedups shrink to 1.2-5.3x",
        run: fig9d,
    },
    Artefact {
        name: "fig10-pr",
        paper: "Figure 10(a): PageRank on three power-law graphs — Deca 1.1-6.4x (each \
                iteration releases its shuffle buffers); SparkSer ~= Spark",
        run: fig10_pr,
    },
    Artefact {
        name: "fig10-cc",
        paper: "Figure 10(b): ConnectedComponents on the same graphs — same shape",
        run: fig10_cc,
    },
    Artefact {
        name: "fig11",
        paper: "Figure 11: slowest-task breakdown (ms) — LR-small all compute, LR-large \
                Spark GC-dominated with SparkSer paying deser, PR Spark/SparkSer \
                shuffle-bound",
        run: fig11,
    },
    Artefact {
        name: "table3",
        paper: "Table 3: GC time and reduction per app (largest no-spill configs) — paper: \
                Spark GC ratio 40-79%, Deca reduction 97.5-99.9%",
        run: table3,
    },
    Artefact {
        name: "table4",
        paper: "Table 4: GC tuning (storage fraction, PS/CMS/G1) — LR is very sensitive \
                yet tuned Spark still loses to Deca; PR is not",
        run: table4,
    },
    Artefact {
        name: "table5",
        paper: "Table 5: single-executor microbenchmarks — small heap: Spark GC-bound, Deca \
                fastest; large heap: SparkSer pays deser; Deca serializes ~Kryo and never \
                deserializes",
        run: table5,
    },
    Artefact {
        name: "table6",
        paper: "Table 6: exploratory SQL queries — Q1 all equal; Q2 Spark GC-bound with \
                the biggest cache, Deca ~= Spark SQL at about half Spark's cache",
        run: table6,
    },
    Artefact {
        name: "residue",
        paper: "Baseline check (not in the paper): WC, WC-text, LR and PR on heaps no mode \
                collects in — Spark/Deca and SparkSer/Deca there are the representation \
                cost alone",
        run: residue,
    },
    Artefact {
        name: "ablations",
        paper: "Ablations of Deca's design choices: page size, segment reuse, \
                pointer-array elision, full-GC strategy, phased refinement",
        run: ablations,
    },
    Artefact {
        name: "cluster-scale",
        paper: "Extension: WordCount on 1/2/4 executors — exact at every width, and the \
                Deca-vs-Spark ratio persists per executor",
        run: cluster_scale,
    },
];

/// The `--list` output: one line per artefact.
fn list() -> String {
    ARTEFACTS.iter().map(|a| format!("{:<14}{}\n", a.name, a.paper)).collect()
}

fn usage(problem: &str) -> ! {
    eprintln!("repro: {problem}");
    eprintln!("usage: repro [--scale <f>] (--list | all | <artefact>...)");
    std::process::exit(2)
}

fn main() {
    let mut scale = Scale::new(1.0);
    let mut rows: Vec<&Artefact> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => return print!("{}", list()),
            "--scale" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(f) if f > 0.0 => scale = Scale::new(f),
                _ => usage("--scale needs a positive number"),
            },
            "all" => rows.extend(ARTEFACTS),
            name => match ARTEFACTS.iter().find(|a| a.name == name) {
                Some(a) => rows.push(a),
                None => usage(&format!("unknown artefact `{name}`")),
            },
        }
    }
    if rows.is_empty() {
        usage("name at least one artefact, or `all`");
    }

    let mut checks = Vec::new();
    for a in rows {
        println!("# {}\n", a.paper);
        checks.extend((a.run)(&scale));
        println!();
    }
    checks.iter().for_each(|c| println!("{c}"));
    let failed = checks.iter().filter(|c| !c.ok).count();
    println!("\n{} passed, {failed} failed", checks.len() - failed);
    if failed > 0 {
        std::process::exit(1);
    }
}

// ---------------------------------------------------------------------
// Figure 8 — shuffling-only WordCount
// ---------------------------------------------------------------------

/// A lifetime figure's series: the census of `class` objects and the
/// cumulative GC time, per mode.
fn print_timelines(class: &str, reports: &[AppReport]) {
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            println!();
        }
        println!("{} (exec {}s, gc {}s):", r.mode.name(), secs(r.exec()), secs(r.gc()));
        println!("t_ms\tlive_{class}\tcum_gc_ms");
        for s in &r.timeline.samples {
            println!(
                "{:.1}\t{}\t{:.2}",
                s.at.as_secs_f64() * 1e3,
                s.live_objects,
                s.cumulative_gc.as_secs_f64() * 1e3
            );
        }
    }
}

fn fig8a(s: &Scale) -> Vec<ShapeCheck> {
    let reports = across_modes(SPARK_DECA, tol::WC, |mode| {
        let mut p = wc_params(s, mode, 400_000, 40_000);
        p.seed = 42;
        p.sample_every = 10_000;
        wordcount::run_local(&p, 1)
    });
    print_timelines("tuple2", &reports);
    Vec::new()
}

/// The Figure 8(b) grid — dataset sizes × distinct-key counts, Spark vs
/// Deca (the paper's 50/100/150 GB × {10M, 100M} keys, scaled down).
/// Each cell is the median of three runs per mode: single runs of these
/// millisecond-scale jobs can swap the order of two cells between
/// back-to-back invocations. Returns the Deca-vs-Spark speedups, one row
/// per size and one column per key count.
fn wc_grid(
    s: &Scale,
    sizes: &[(usize, &str)],
    keys: &[(usize, &str)],
    run: fn(&WcParams) -> AppReport,
) -> Vec<Vec<f64>> {
    table_header(&["size", "keys", "Spark_s", "Deca_s", "speedup"]);
    let cell = |words, distinct| {
        let runs: Vec<[AppReport; 2]> = (0..3)
            .map(|_| {
                across_modes(SPARK_DECA, tol::WC, |mode| {
                    let mut p = wc_params(s, mode, words, distinct);
                    p.heap_bytes = 32 << 20;
                    p.seed = 42;
                    run(&p)
                })
            })
            .collect();
        median_exec(&runs)
    };
    let grid = sizes.iter().map(|&(words, size)| {
        let row = keys.iter().map(|&(distinct, key)| {
            let [spark, deca] = cell(words, distinct);
            let x = spark.as_secs_f64() / deca.as_secs_f64().max(1e-9);
            table_row(&[
                size.to_string(),
                key.to_string(),
                secs(spark),
                secs(deca),
                format!("{x:.2}x"),
            ]);
            x
        });
        row.collect()
    });
    grid.collect()
}

/// Per mode, the median `exec` of three (or any odd number of) runs.
fn median_exec<const N: usize>(runs: &[[AppReport; N]]) -> [Duration; N] {
    std::array::from_fn(|m| {
        let mut times: Vec<Duration> = runs.iter().map(|r| r[m].exec()).collect();
        times.sort_unstable();
        times[times.len() / 2]
    })
}

fn fig8b(s: &Scale) -> Vec<ShapeCheck> {
    let sizes = [(400_000, "S"), (800_000, "M"), (1_200_000, "L")];
    let grid =
        wc_grid(s, &sizes, &[(10_000, "10k"), (200_000, "200k")], |p| wordcount::run_local(p, 1));
    let cells: Vec<f64> = grid.iter().flatten().copied().collect();
    let least = cells.iter().copied().fold(f64::INFINITY, f64::min);
    let trend: Vec<String> = sizes
        .iter()
        .zip(&grid)
        .map(|((_, size), row)| format!("{size} {:.2}x -> {:.2}x", row[0], row[1]))
        .collect();
    vec![
        ShapeCheck {
            name: "fig8/wc-deca-wins",
            ok: least > 1.0,
            detail: format!(
                "smallest Deca-vs-Spark speedup over {} cells: {least:.2}x",
                cells.len()
            ),
        },
        ShapeCheck {
            name: "fig8/wc-gain-grows-with-keys",
            ok: grid.iter().all(|row| row[1] >= row[0]),
            detail: format!("speedup at 10k -> 200k keys: {}", trend.join(", ")),
        },
    ]
}

fn fig8_text(s: &Scale) -> Vec<ShapeCheck> {
    wc_grid(s, &[(300_000, "S"), (600_000, "M")], &[(10_000, "10k"), (100_000, "100k")], |p| {
        run_job_local(&wordcount::text_job(p), wordcount::wc_config(p), 1)
    });
    Vec::new()
}

// ---------------------------------------------------------------------
// Figure 9 — caching-only LR and KMeans
// ---------------------------------------------------------------------

fn fig9a(s: &Scale) -> Vec<ShapeCheck> {
    let reports = across_modes(SPARK_DECA, tol::LR, |mode| {
        let mut p = lr_params(s, mode, 60_000);
        p.sample_timeline = true;
        logreg::run_local(&p, 1)
    });
    print_timelines("labeled_points", &reports);
    Vec::new()
}

/// The dataset sweep shared by LR and KMeans: from comfortably fitting to
/// over capacity (the paper's 40 GB → 200 GB on 30 GB heaps). The label is
/// Spark-layout cache bytes / old-generation capacity.
const CACHE_SWEEP: [(usize, &str); 5] = [
    (LR_FITTING, "0.4x"),
    (45_000, "0.6x"),
    (60_000, "0.85x"),
    (75_000, "1.05x"),
    (110_000, "1.5x"),
];

fn cache_sweep(tol: f64, run: impl Fn(ExecutionMode, usize) -> AppReport) -> Vec<[AppReport; 3]> {
    mode_header(&["size"], &["SparkGCs"]);
    let sweep = CACHE_SWEEP.iter().map(|&(points, label)| {
        let reports = across_modes(ExecutionMode::ALL, tol, |mode| run(mode, points));
        let spark_gcs = format!("{}/{}", reports[0].minor_gcs, reports[0].full_gcs);
        mode_row(&[label], &reports, &[spark_gcs]);
        reports
    });
    sweep.collect()
}

fn fig9b(s: &Scale) -> Vec<ShapeCheck> {
    let rows =
        cache_sweep(tol::LR, |mode, points| logreg::run_local(&lr_params(s, mode, points), 1));
    // Judged on the fitting (0.4x) and the first over-capacity (1.05x) row.
    let [spark_fit, ser_fit, _] = &rows[0];
    let [spark_sat, ser_sat, deca_sat] = &rows[3];
    vec![
        ShapeCheck {
            name: "fig9b/full-gcs-appear-at-saturation",
            ok: spark_fit.full_gcs == 0 && spark_sat.full_gcs > 5,
            detail: format!("full GCs {} -> {}", spark_fit.full_gcs, spark_sat.full_gcs),
        },
        ShapeCheck {
            name: "fig9b/sparkser-crossover",
            ok: ser_fit.exec() > spark_fit.exec() && ser_sat.exec() < spark_sat.exec(),
            detail: format!(
                "fit: Ser {} vs Spark {}; sat: Ser {} vs Spark {}",
                secs(ser_fit.exec()),
                secs(spark_fit.exec()),
                secs(ser_sat.exec()),
                secs(spark_sat.exec())
            ),
        },
        ShapeCheck {
            name: "fig9b/deca-speedup-saturated",
            ok: speedup(spark_sat, deca_sat) > 10.0,
            detail: format!("{:.1}x", speedup(spark_sat, deca_sat)),
        },
        ShapeCheck {
            name: "fig9b/cache-ordering",
            ok: spark_sat.cache_bytes > deca_sat.cache_bytes,
            detail: format!(
                "Spark {} vs Deca {} bytes",
                spark_sat.cache_bytes, deca_sat.cache_bytes
            ),
        },
    ]
}

fn fig9c(s: &Scale) -> Vec<ShapeCheck> {
    cache_sweep(tol::KMEANS, |mode, points| kmeans::run_local(&km_params(s, mode, points), 1));
    Vec::new()
}

fn fig9d(s: &Scale) -> Vec<ShapeCheck> {
    // 4096 dims like the Amazon image dataset; a fractional scale shrinks
    // the dimension too.
    let dims = if s.factor < 1.0 { 512 } else { 4096 };
    println!("# {dims} dims; big records need big pages (256 KB)\n");
    mode_header(&["app", "size"], &[]);
    for (points, label) in [(250, "small"), (400, "large")] {
        let points = s.records(points).max(50);
        let lr = across_modes(ExecutionMode::ALL, tol::LR, |mode| {
            let mut p = LrParams::small(mode);
            (p.points, p.dims, p.iterations, p.partitions) = (points, dims, 5, 2);
            (p.heap_bytes, p.page_size) = (24 << 20, Some(256 << 10));
            logreg::run_local(&p, 1)
        });
        mode_row(&["LR", label], &lr, &[]);
        let km = across_modes(ExecutionMode::ALL, tol::KMEANS, |mode| {
            let mut p = KmParams::small(mode);
            (p.points, p.dims, p.iterations, p.partitions) = (points, dims, 4, 2);
            (p.heap_bytes, p.page_size) = (24 << 20, Some(256 << 10));
            kmeans::run_local(&p, 1)
        });
        mode_row(&["KMeans", label], &km, &[]);
    }
    Vec::new()
}

// ---------------------------------------------------------------------
// Figure 10 — PageRank and ConnectedComponents
// ---------------------------------------------------------------------

/// Scaled-down analogues of Table 2's graphs (LiveJournal, webbase-2001,
/// HiBench): vertices, edges, label.
const GRAPHS: [(usize, usize, &str); 3] =
    [(4_800, 68_000, "LJ-like"), (24_000, 200_000, "WB-like"), (60_000, 400_000, "HB-like")];

fn graph_sweep(s: &Scale, tol: f64, run: impl Fn(ExecutionMode, usize, usize) -> AppReport) {
    mode_header(&["graph"], &[]);
    for (vertices, edges, label) in GRAPHS {
        let reports = across_modes(ExecutionMode::ALL, tol, |mode| {
            run(mode, s.records(vertices), s.records(edges))
        });
        mode_row(&[label], &reports, &[]);
    }
}

fn fig10_pr(s: &Scale) -> Vec<ShapeCheck> {
    graph_sweep(s, tol::PR, |mode, vertices, edges| {
        let mut p = PrParams::small(mode);
        (p.vertices, p.edges, p.iterations) = (vertices, edges, s.graph_iterations);
        p.heap_bytes = 48 << 20;
        pagerank::run_local(&p, 1)
    });
    Vec::new()
}

fn fig10_cc(s: &Scale) -> Vec<ShapeCheck> {
    graph_sweep(s, tol::CC, |mode, vertices, edges| {
        let mut p = CcParams::small(mode);
        (p.vertices, p.edges, p.max_iterations) = (vertices, edges, s.graph_iterations * 2);
        p.heap_bytes = 48 << 20;
        concomp::run_local(&p, 1)
    });
    Vec::new()
}

// ---------------------------------------------------------------------
// Figure 11 — slowest-task breakdown
// ---------------------------------------------------------------------

fn fig11(s: &Scale) -> Vec<ShapeCheck> {
    table_header(&["workload", "mode", "task", "compute", "gc", "deser", "shufW", "shufR", "io"]);
    let ms = |d: Duration| format!("{:.2}", d.as_secs_f64() * 1e3);
    let breakdown = |workload: &str, reports: [AppReport; 3]| {
        for r in reports {
            let t = r.slowest_task.expect("tasks ran");
            table_row(&[
                workload.to_string(),
                r.mode.name().to_string(),
                t.name,
                ms(t.compute),
                ms(t.gc_pause),
                ms(t.deser),
                ms(t.ser + t.shuffle_write),
                ms(t.shuffle_read),
                ms(t.io),
            ]);
        }
    };
    for (points, workload) in [(LR_FITTING, "LR-small"), (LR_SATURATED, "LR-large")] {
        let lr = |mode| logreg::run_local(&lr_params(s, mode, points), 1);
        breakdown(workload, across_modes(ExecutionMode::ALL, tol::LR, lr));
        println!();
    }
    let pr = |mode| pagerank::run_local(&pr_params(s, mode), 1);
    breakdown("PR", across_modes(ExecutionMode::ALL, tol::PR, pr));
    Vec::new()
}

// ---------------------------------------------------------------------
// Tables 3–6
// ---------------------------------------------------------------------

fn table3(s: &Scale) -> Vec<ShapeCheck> {
    table_header(&["app", "Spark_exec_s", "Spark_gc_s", "gc_ratio", "Deca_gc_s", "reduction"]);
    let mut least = (f64::INFINITY, "");
    let mut row = |app: &'static str, tol: f64, run: &dyn Fn(ExecutionMode) -> AppReport| {
        let [spark, deca] = across_modes(SPARK_DECA, tol, run);
        let reduction = gc_reduction(&spark, &deca);
        table_row(&[
            app.to_string(),
            secs(spark.exec()),
            secs(spark.gc()),
            format!("{:.1}%", spark.gc_ratio() * 100.0),
            secs(deca.gc()),
            format!("{:.1}%", reduction * 100.0),
        ]);
        if reduction < least.0 {
            least = (reduction, app);
        }
    };
    row("WC", tol::WC, &|mode| wordcount::run_local(&wc_params(s, mode, 1_000_000, 150_000), 1));
    row("LR", tol::LR, &|mode| logreg::run_local(&lr_params(s, mode, LR_SATURATED), 1));
    row("KMeans", tol::KMEANS, &|mode| kmeans::run_local(&km_params(s, mode, 64_000), 1));
    row("PR", tol::PR, &|mode| pagerank::run_local(&pr_params(s, mode), 1));
    row("CC", tol::CC, &|mode| {
        let mut p = CcParams::small(mode);
        (p.vertices, p.edges) = (s.records(24_000), s.records(250_000));
        concomp::run_local(&p, 1)
    });
    vec![ShapeCheck {
        name: "table3/gc-reduction",
        ok: least.0 > 0.975,
        detail: format!("smallest reduction {:.2}% ({})", least.0 * 100.0, least.1),
    }]
}

/// One Table 4 knob sweep in Spark mode — storage fractions under PS, the
/// three collectors at the first (default) fraction — then the Deca row.
/// `conc_mark_s` is measured marker-thread overlap, not pause. A collector
/// never computes, so the three collector rows must agree exactly.
fn knob_rows(
    app: &str,
    fractions: &[(f64, &str)],
    run: impl Fn(f64, GcAlgorithm, ExecutionMode) -> AppReport,
) {
    table_header(&["knob", "value", "exec_s", "gc_s", "conc_mark_s"]);
    let row = |knob: &str, value: &str, r: AppReport| {
        let conc = secs(r.metrics.gc_concurrent);
        table_row(&[knob.to_string(), value.to_string(), secs(r.exec()), secs(r.gc()), conc]);
        r.checksum
    };
    let default = fractions[0].0;
    for &(fraction, label) in fractions {
        row("fraction", label, run(fraction, GcAlgorithm::ParallelScavenge, ExecutionMode::Spark));
    }
    let checksums = GcAlgorithm::ALL
        .map(|algo| row("algorithm", algo.name(), run(default, algo, ExecutionMode::Spark)));
    assert_checksums_agree(app, 0.0, &checksums);
    row("deca", "-", run(default, GcAlgorithm::ParallelScavenge, ExecutionMode::Deca));
}

fn table4(s: &Scale) -> Vec<ShapeCheck> {
    let lr = |storage: f64, algo: GcAlgorithm, mode: ExecutionMode| {
        let mut p = lr_params(s, mode, 92_000);
        (p.heap_bytes, p.storage_fraction, p.gc_algorithm) = (24 << 20, storage, algo);
        p
    };
    let pr = |storage: f64, algo: GcAlgorithm, mode: ExecutionMode| {
        let mut p = pr_params(s, mode);
        (p.storage_fraction, p.gc_algorithm) = (storage, algo);
        p
    };
    println!("# LR (saturating dataset): storage-fraction sweep and GC algorithms\n");
    knob_rows("LR", &[(0.8, "0.8:0.2"), (0.6, "0.6:0.4"), (0.4, "0.4:0.6")], |f, a, m| {
        logreg::run_local(&lr(f, a, m), 1)
    });
    println!("\n# PR: the same knobs\n");
    knob_rows("PR", &[(0.4, "0.4"), (0.1, "0.1"), (0.05, "0.05")], |f, a, m| {
        pagerank::run_local(&pr(f, a, m), 1)
    });
    Vec::new()
}

fn table5(s: &Scale) -> Vec<ShapeCheck> {
    table_header(&["app", "heap", "metric", "Spark", "Deca", "SparkSer"]);
    let rows = |app: &str, heap: &str, [spark, ser, deca]: [AppReport; 3]| {
        let label = |metric: &str| [app.to_string(), heap.to_string(), metric.to_string()];
        let exec = [secs(spark.exec()), secs(deca.exec()), secs(ser.exec())];
        table_row(&[label("exec_s"), exec].concat());
        table_row(&[label("gc_s"), [secs(spark.gc()), secs(deca.gc()), secs(ser.gc())]].concat());
    };
    for (heap_bytes, heap) in [(14 << 20, "small"), (64 << 20, "large")] {
        let lr = |mode| {
            let mut p = lr_params(s, mode, 60_000);
            (p.heap_bytes, p.storage_fraction) = (heap_bytes, 0.65);
            logreg::run_local(&p, 1)
        };
        rows("LR", heap, across_modes(ExecutionMode::ALL, tol::LR, lr));
    }
    for (heap_bytes, heap) in [(12 << 20, "small"), (64 << 20, "large")] {
        let pr = |mode| {
            let mut p = PrParams::small(mode);
            (p.vertices, p.edges) = (s.records(16_000), s.records(300_000)); // Pokec-shaped
            (p.iterations, p.heap_bytes) = (s.graph_iterations, heap_bytes);
            pagerank::run_local(&p, 1)
        };
        rows("PR", heap, across_modes(ExecutionMode::ALL, tol::PR, pr));
    }

    println!("\n# per-object (de-)serialization (10-dim LabeledPoint):");
    let recs: Vec<LabeledPointRec> = datagen::labeled_vectors(10_000, 10, 5);
    let per_obj = |t: Instant| t.elapsed().as_nanos() as f64 / recs.len() as f64;
    let mut kryo = KryoSim::new();
    let buf = kryo.serialize_all(&recs);
    let _back: Vec<LabeledPointRec> = kryo.deserialize_all(&buf);
    println!(
        "kryo:  serialize {:>8.1} ns/obj   deserialize {:>8.1} ns/obj",
        kryo.avg_ser().as_nanos() as f64,
        kryo.avg_deser().as_nanos() as f64
    );
    let size = recs[0].data_size();
    let mut flat = vec![0u8; size * recs.len()];
    let t = Instant::now();
    for (r, slot) in recs.iter().zip(flat.chunks_exact_mut(size)) {
        r.encode(slot);
    }
    let ser = per_obj(t);
    // In-place field access: the Deca "deserialization" equivalent.
    let t = Instant::now();
    let labels: f64 =
        flat.chunks_exact(size).map(|c| f64::from_le_bytes(c.as_chunks::<8>().0[0])).sum();
    std::hint::black_box(labels);
    let read = per_obj(t);
    println!(
        "deca:  serialize {ser:>8.1} ns/obj   in-place read {read:>8.1} ns/obj (no deserialization)"
    );
    Vec::new()
}

fn table6(s: &Scale) -> Vec<ShapeCheck> {
    table_header(&["query", "system", "exec_s", "gc_s", "cache_MB"]);
    // Table 6 times the query alone: its exec and GC are the query stage's,
    // not the load stage's that caches the tables first.
    let query = |name: &str, tol: f64, heap_bytes: usize, query: SqlQuery| {
        let runs = SqlSystem::ALL.map(|system| {
            let mut p = SqlParams::small(system);
            (p.rankings_rows, p.uservisits_rows) = (s.records(200_000), s.records(400_000));
            (p.groups, p.heap_bytes) = (s.records(30_000), heap_bytes);
            let mut session = ClusterSession::new(1, sql::sql_config(&p));
            let (checksum, cache_bytes) =
                run_job_on(&sql::job(&p, query), &mut session).expect("the query completes");
            let stage = session.stage(query.stage()).expect("the query stage ran");
            table_row(&[
                name.to_string(),
                system.name().to_string(),
                secs(stage.exec),
                secs(stage.gc),
                mb(cache_bytes),
            ]);
            (stage.exec, cache_bytes, checksum)
        });
        assert_checksums_agree(name, tol, &runs.each_ref().map(|r| r.2));
        runs.map(|(exec, cache_bytes, _)| (exec, cache_bytes))
    };
    query("Q1", tol::SQL_COUNT, 48 << 20, SqlQuery::Filter);
    let [(spark_s, spark_b), (sql_s, sql_b), (deca_s, deca_b)] =
        query("Q2", tol::SQL_SUM, 48 << 20, SqlQuery::GroupBy);
    // The suite's join query: not in the paper's Table 6, exercises §6.5's
    // join discussion.
    query("Q3(ext)", tol::SQL_SUM, 64 << 20, SqlQuery::Join);
    vec![
        ShapeCheck {
            name: "table6/q2-deca-matches-sparksql",
            ok: deca_s < 2 * sql_s && deca_s < spark_s,
            detail: format!(
                "Spark {}s, SparkSQL {}s, Deca {}s",
                secs(spark_s),
                secs(sql_s),
                secs(deca_s)
            ),
        },
        ShapeCheck {
            name: "table6/q2-cache-ordering",
            ok: spark_b > deca_b && deca_b > sql_b,
            detail: format!("Spark {spark_b} > Deca {deca_b} > SparkSQL {sql_b}"),
        },
    ]
}

// ---------------------------------------------------------------------
// The representation residue
// ---------------------------------------------------------------------

/// A heap whose eden (4/15 of it) holds everything any mode of a
/// `residue` job allocates at scale 1; arenas grow with use, so the
/// capacity costs no memory of its own.
const RESIDUE_HEAP: usize = 512 << 20;

/// The Spark/Deca gap with memory management taken out: each app on a
/// heap no mode collects in and a cache that never spills, so the exec
/// ratios are what is left — heap objects vs Kryo bytes vs pages, the
/// representation cost alone. Medians of three runs per mode.
fn residue(s: &Scale) -> Vec<ShapeCheck> {
    table_header(&["app", "Spark_s", "SparkSer_s", "Deca_s", "Spark/Deca", "SparkSer/Deca"]);
    let mut collected = Vec::new();
    let mut row = |app: &str, tol: f64, run: &dyn Fn(ExecutionMode) -> AppReport| {
        let runs: Vec<[AppReport; 3]> =
            (0..3).map(|_| across_modes(ExecutionMode::ALL, tol, run)).collect();
        for r in runs.iter().flatten().filter(|r| r.minor_gcs + r.full_gcs > 0) {
            collected.push(format!("{app} {} {}/{}", r.mode.name(), r.minor_gcs, r.full_gcs));
        }
        let [spark, ser, deca] = median_exec(&runs);
        let ratio = |t: Duration| format!("{:.2}x", t.as_secs_f64() / deca.as_secs_f64().max(1e-9));
        table_row(&[app.to_string(), secs(spark), secs(ser), secs(deca), ratio(spark), ratio(ser)]);
    };
    let wc = |mode| {
        let mut p = wc_params(s, mode, 400_000, 10_000);
        p.heap_bytes = RESIDUE_HEAP;
        p
    };
    row("WC", tol::WC, &|mode| wordcount::run_local(&wc(mode), 1));
    row("WC-text", tol::WC, &|mode| {
        let p = wc(mode);
        run_job_local(&wordcount::text_job(&p), wordcount::wc_config(&p), 1)
    });
    row("LR", tol::LR, &|mode| {
        let mut p = lr_params(s, mode, LR_FITTING);
        p.heap_bytes = RESIDUE_HEAP;
        logreg::run_local(&p, 1)
    });
    row("PR", tol::PR, &|mode| {
        let (vertices, edges, _) = GRAPHS[0];
        let mut p = PrParams::small(mode);
        (p.vertices, p.edges, p.iterations) =
            (s.records(vertices), s.records(edges), s.graph_iterations);
        p.heap_bytes = RESIDUE_HEAP;
        pagerank::run_local(&p, 1)
    });
    vec![ShapeCheck {
        name: "residue/no-mode-collects",
        ok: collected.is_empty(),
        detail: if collected.is_empty() {
            "no minor or full GC in any run".to_string()
        } else {
            format!("minor/full GCs in {}", collected.join(", "))
        },
    }]
}

// ---------------------------------------------------------------------
// Ablations of Deca's design choices (DESIGN.md §3)
// ---------------------------------------------------------------------

fn ablations(s: &Scale) -> Vec<ShapeCheck> {
    page_size_ablation(s);
    segment_reuse_ablation(s);
    pointer_array_elision_ablation(s);
    full_gc_strategy_ablation();
    phased_refinement_ablation();
    Vec::new()
}

fn abl_heap(total_mb: usize) -> Heap {
    Heap::new(HeapConfig::with_total(total_mb << 20))
}

fn abl_mm(page_size: usize) -> MemoryManager {
    MemoryManager::new(page_size, std::env::temp_dir().join("deca-abl"))
}

fn add_i64_bytes(acc: &mut [u8], add: &[u8]) {
    let a = i64::from_le_bytes(acc.as_chunks::<8>().0[0]);
    let b = i64::from_le_bytes(add.as_chunks::<8>().0[0]);
    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
}

fn ms_since(t: Instant) -> String {
    format!("{:.1}", t.elapsed().as_secs_f64() * 1e3)
}

/// Page size (§2.3/§4.3.1): too small ⇒ many traced page objects and
/// per-page overhead; too large ⇒ wasted tail space.
fn page_size_ablation(s: &Scale) {
    let records = s.records(45_000);
    println!("# Ablation: page size ({records} 88-byte records)\n");
    table_header(&["page_size", "pages(GC-traced)", "wasted_MB", "footprint_MB", "full_gc_us"]);
    let rec: (f64, Vec<f64>) = (1.0, vec![0.5; 10]); // 88+4 framed bytes
    for page in [512usize, 4 << 10, 64 << 10, 1 << 20, 8 << 20] {
        let (mut heap, mut mm) = (abl_heap(96), abl_mm(page));
        let mut block = DecaCacheBlock::new::<(f64, Vec<f64>)>(&mut mm);
        for _ in 0..records {
            block.append(&mut mm, &mut heap, &rec).unwrap();
        }
        let t = Instant::now();
        heap.full_gc();
        let gc = t.elapsed();
        let footprint = block.footprint(&mut mm, &mut heap).unwrap();
        table_row(&[
            page.to_string(),
            heap.external_count().to_string(),
            mb(footprint.saturating_sub(records * 92)),
            mb(footprint),
            format!("{:.1}", gc.as_secs_f64() * 1e6),
        ]);
        block.release(&mut mm, &mut heap);
    }
    println!();
}

/// Segment reuse (§4.3.2): combining in place vs appending a new value
/// segment per combine (what a naive implementation would do).
fn segment_reuse_ablation(s: &Scale) {
    let combines = s.records(1_000_000) as i64;
    println!("# Ablation: shuffle value segment reuse ({combines} combines, 1000 keys)\n");
    table_header(&["strategy", "page_MB", "off_page_MB", "time_ms"]);
    {
        let (mut heap, mut mm) = (abl_heap(96), abl_mm(64 << 10));
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let t = Instant::now();
        let pairs = (0..combines).map(|i| ((i % 1000).to_le_bytes(), 1i64.to_le_bytes()));
        buf.insert_all(&mut mm, &mut heap, pairs, add_i64_bytes).unwrap();
        let elapsed = ms_since(t);
        table_row(&[
            "reuse-in-place".to_string(),
            mb(heap.external_bytes()),
            mb(buf.off_page_bytes()),
            elapsed,
        ]);
        buf.release(&mut mm, &mut heap);
    }
    {
        let (mut heap, mut mm) = (abl_heap(512), abl_mm(64 << 10));
        let mut block = DecaCacheBlock::new::<(i64, i64)>(&mut mm);
        let mut latest: std::collections::HashMap<i64, i64> = std::collections::HashMap::new();
        let t = Instant::now();
        for i in 0..combines {
            let v = latest.entry(i % 1000).or_insert(0);
            *v += 1;
            block.append(&mut mm, &mut heap, &(i % 1000, *v)).unwrap(); // dead segments pile up
        }
        let elapsed = ms_since(t);
        // The latest-value map is what this strategy keeps off its pages to
        // find a key's current value: counted at one (key, value) entry
        // per hash-map slot.
        let index = latest.capacity() * std::mem::size_of::<(i64, i64)>();
        table_row(&[
            "append-per-combine".to_string(),
            mb(heap.external_bytes()),
            mb(index),
            elapsed,
        ]);
        block.release(&mut mm, &mut heap);
    }
    println!();
}

/// Pointer-array elision (§4.3.2): the same fixed-size-key aggregation
/// through the elided buffer (its table in its pages, one control byte per
/// slot off them) vs the general buffer (key ++ value segments behind an
/// off-page pointer table). Both costs are counted: page bytes on the heap
/// budget and off-page table bytes beside it.
fn pointer_array_elision_ablation(s: &Scale) {
    let (inserts, distinct) = (s.records(1_000_000) as i64, s.records(50_000).max(1) as i64);
    println!("# Ablation: pointer-array elision ({inserts} inserts, {distinct} 8-byte keys)\n");
    table_header(&["buffer", "page_MB", "off_page_MB", "total_MB", "time_ms"]);
    let keys: Vec<[u8; 8]> = (0..inserts).map(|i| (i % distinct).to_le_bytes()).collect();
    let one = 1i64.to_le_bytes();
    let row = |name: &str, pages: usize, off_page: usize, t: Instant| {
        let elapsed = ms_since(t);
        table_row(&[name.to_string(), mb(pages), mb(off_page), mb(pages + off_page), elapsed]);
    };
    {
        let (mut heap, mut mm) = (abl_heap(96), abl_mm(64 << 10));
        let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
        let t = Instant::now();
        buf.insert_all(&mut mm, &mut heap, keys.iter().map(|k| (k, one)), add_i64_bytes).unwrap();
        row("elided (SFST fast path)", heap.external_bytes(), buf.off_page_bytes(), t);
        buf.release(&mut mm, &mut heap);
    }
    {
        let (mut heap, mut mm) = (abl_heap(96), abl_mm(64 << 10));
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        let t = Instant::now();
        buf.insert_all(&mut mm, &mut heap, keys.iter().map(|k| (k, one)), add_i64_bytes).unwrap();
        row("pointer table (general)", heap.external_bytes(), buf.off_page_bytes(), t);
        buf.release(&mut mm, &mut heap);
    }
    println!();
}

/// Full-collection strategy (§2.1) on a mixed-lifetime workload: Parallel
/// Scavenge pays to move every survivor; CMS and G1 leave survivors in
/// place but fragment the old generation (CMS's real trade-off), with G1
/// recycling only coarse holes.
fn full_gc_strategy_ablation() {
    println!("# Ablation: full-GC strategy per collector (mixed-lifetime churn, 6 collections)\n");
    table_header(&["collector", "total_gc_ms", "old_arena_KB", "free_blocks"]);
    for kind in GcAlgorithm::ALL {
        let config = HeapConfig::with_total(24 << 20).with_algorithm(kind).with_concurrent(false);
        let mut h = Heap::new(config);
        let small = h.define_class(ClassBuilder::new("S").field("v", FieldKind::I64));
        let arr = h.define_array_class("long[]", FieldKind::I64);
        // Interleave long-living small objects with medium arrays so dead
        // arrays leave isolated holes between survivors (worst case for a
        // non-compacting sweep).
        let mut batch = Vec::new();
        for i in 0..8_000 {
            let o = h.alloc(small).unwrap();
            h.add_root(o);
            if i % 20 == 0 {
                let a = h.alloc_array(arr, 128).unwrap();
                batch.push(h.add_root(a));
            }
        }
        // Six rounds: drop the arrays, collect, pin a fresh interleaving.
        for _ in 0..6 {
            h.full_gc();
            for r in batch.drain(..) {
                h.remove_root(r);
            }
            h.full_gc();
            for i in 0..400 {
                let a = h.alloc_array(arr, 128).unwrap();
                batch.push(h.add_root(a));
                if i % 4 == 0 {
                    let o = h.alloc(small).unwrap();
                    h.add_root(o);
                }
            }
        }
        table_row(&[
            kind.name().to_string(),
            format!("{:.2}", h.stats().full_time.as_secs_f64() * 1e3),
            (h.old_used_bytes() / 1024).to_string(),
            h.free_block_count().to_string(), // only the sweeping collectors keep a free list
        ]);
    }
    println!();
}

/// Phased refinement (§3.4): the groupByKey output type with and without
/// per-phase classification.
fn phased_refinement_ablation() {
    println!("# Ablation: phased refinement (groupByKey job, §3.4)\n");
    let g = group_by_program();
    let ty = TypeRef::Udt(g.group);
    // Without phased refinement the paper's fallback scope is the
    // *writing* phase.
    let without = GlobalAnalysis::new(&g.registry, &g.program, g.build_entry).classify(ty);
    let phases = JobPhases::new().phase("combine", g.build_entry).phase("iterate", g.read_entry);
    println!("without phased refinement: Group = {without}  (never decomposable)");
    for p in &classify_phased(&g.registry, &g.program, &phases, &[ty]) {
        println!("with    phased refinement: phase {:<8} Group = {}", p.phase, p.of(ty).unwrap());
    }
    println!(
        "=> phased refinement makes the cached copy decomposable in the read phase\n   (the partially-decomposable case of Figure 7b)"
    );
}

// ---------------------------------------------------------------------
// Extension: multi-executor scaling
// ---------------------------------------------------------------------

/// The same WordCount through `ClusterSession` on 1, 2 and 4 executors:
/// every mode returns the reference checksum at every width (tasks are
/// pinned round-robin and the exchange preserves map-task order), and on
/// a multi-core host wall time drops as executors are added.
fn cluster_scale(s: &Scale) -> Vec<ShapeCheck> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("# {cores} host cores\n");
    let params = |mode| {
        let mut p = wc_params(s, mode, 1_200_000, 100_000);
        // More tasks than the widest cluster: each wave multiplexes
        // round-robin, as Spark runs more partitions than cores.
        p.partitions = 8;
        p.seed = 11;
        p
    };
    let mut checksums = Vec::new();

    table_header(&["executors", "Spark_s", "SparkSer_s", "Deca_s", "Spark/Deca", "scaling"]);
    let mut spark_base = Duration::ZERO;
    for executors in [1usize, 2, 4] {
        let [spark, ser, deca] = ExecutionMode::ALL.map(|mode| {
            // The one timer here around a whole `run_local`: each cell's
            // wall time includes building the description (one input
            // generation), as the recorded rows in EXPERIMENTS.md do.
            let t = Instant::now();
            checksums.push(wordcount::run_local(&params(mode), executors).checksum);
            t.elapsed()
        });
        if executors == 1 {
            spark_base = spark;
        }
        table_row(&[
            executors.to_string(),
            secs(spark),
            secs(ser),
            secs(deca),
            format!("{:.2}x", spark.as_secs_f64() / deca.as_secs_f64()),
            format!("{:.2}x", spark_base.as_secs_f64() / spark.as_secs_f64()),
        ]);
    }
    assert_checksums_agree("WC across modes and executor counts", tol::WC, &checksums);
    println!("\nall checksums equal across modes and executor counts: OK");
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artefact_names_are_unique_and_all_listed() {
        let listing = list();
        assert_eq!(listing.lines().count(), ARTEFACTS.len());
        for (i, a) in ARTEFACTS.iter().enumerate() {
            assert!(ARTEFACTS[..i].iter().all(|b| b.name != a.name), "duplicate `{}`", a.name);
            assert!(a.name != "all" && !a.name.starts_with("--"), "`{}` is reserved", a.name);
            let line = listing.lines().nth(i).unwrap();
            assert!(
                line.split_whitespace().next() == Some(a.name) && line.ends_with(a.paper),
                "--list line {i} does not describe `{}`",
                a.name
            );
        }
    }

    /// Every row completes at a small scale, which — rows panic on a failed
    /// job or a cross-mode checksum disagreement — is the whole equivalence
    /// matrix of the evaluation. Shape checks are reported, not asserted:
    /// they compare times, and nothing saturates at this scale.
    #[test]
    fn every_artefact_row_runs_and_its_modes_agree() {
        let scale = Scale { factor: 0.03, lr_iterations: 3, graph_iterations: 2 };
        for a in ARTEFACTS {
            for check in (a.run)(&scale) {
                println!("{}: {check}", a.name);
            }
        }
    }
}
