//! Heap profiling: the class histogram and reachability census the paper's
//! JProfiler instrumentation provides (§6.1), on a miniature LR heap.
//!
//! Shows the Figure 2 story numerically: a cached LabeledPoint costs three
//! objects and ~1.9x its raw data in Spark's layout, and the live set is
//! exactly what every full collection must re-trace.
//!
//! Run with: `cargo run --release --example heap_profile`

use deca_apps::records::LabeledPointRec;
use deca_engine::record::HeapRecord;
use deca_heap::{FieldKind, Heap, HeapConfig};

fn main() {
    let mut heap = Heap::new(HeapConfig::with_total(64 << 20));
    let classes = LabeledPointRec::register(&mut heap);
    let object_array = heap.define_array_class("Object[]", FieldKind::Ref);

    // Cache 50k ten-dimensional points the way Spark does.
    let n = 50_000;
    let cache = heap.alloc_array(object_array, n).expect("cache array");
    let root = heap.add_root(cache);
    for i in 0..n {
        let rec = LabeledPointRec {
            label: if i % 2 == 0 { 1.0 } else { -1.0 },
            features: (0..10).map(|j| (i * j) as f64).collect(),
        };
        let obj = rec.store(&mut heap, &classes).expect("record");
        let cache = heap.root_ref(root);
        heap.array_set_ref(cache, i, obj);
    }
    // Plus some floating garbage from a half-finished iteration.
    for _ in 0..20_000 {
        let _ = heap.alloc_array(classes.array.class, 10).expect("temp vector");
    }

    println!("class histogram (allocated, jmap -histo style):");
    println!("{:<16}{:>12}{:>14}", "class", "instances", "bytes");
    for row in heap.class_histogram() {
        println!("{:<16}{:>12}{:>14}", row.name, row.instances, row.bytes);
    }

    let reachable = heap.reachable_census();
    println!("\nreachable (what a full collection must trace and re-trace):");
    println!(
        "  LabeledPoint: {} live of {} allocated",
        reachable[classes.record.index()],
        heap.live_count(classes.record)
    );
    println!(
        "  double[]:     {} live of {} allocated (temp vectors are garbage)",
        reachable[classes.array.class.index()],
        heap.live_count(classes.array.class)
    );

    let raw = n * LabeledPointRec::sfst_size(10);
    let spark: usize = heap.class_histogram().iter().map(|r| r.bytes).sum();
    println!(
        "\nfootprint: raw data {:.1} MB vs heap layout {:.1} MB ({:.2}x bloat — Figure 2)",
        raw as f64 / (1 << 20) as f64,
        spark as f64 / (1 << 20) as f64,
        spark as f64 / raw as f64
    );
    println!("tenuring threshold currently: {}", heap.tenuring_threshold());
}
