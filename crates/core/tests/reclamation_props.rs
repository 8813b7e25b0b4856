//! Property tests for page/group reclamation (§4.2–§4.3), on the
//! deca-check harness: shared groups live exactly as long as their last
//! container reference, releasing never needs a collection, and arbitrary
//! interleavings of append/release leak nothing.

use std::path::PathBuf;

use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_core::{DecaCacheBlock, MemoryManager};
use deca_heap::{Heap, HeapConfig};

fn cfg() -> Config {
    Config::with_cases(64)
}

/// Unique per process + thread, like the workspace tests' TestDir (this
/// crate-level test can't see that workspace-root helper module).
fn spill_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "deca-core-prop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

fn mm(tag: &str) -> MemoryManager {
    MemoryManager::new(16 << 10, spill_dir(tag))
}

#[test]
fn shared_groups_survive_until_the_last_reference_dies() {
    // N extra container references to one cached group: the pages (and the
    // data behind them) must outlive every release but the last.
    let gen = gens::pair(gens::usize_in(1..6), gens::vec_of(gens::any_i64(), 1..200));
    check(cfg(), gen, |(extra_refs, values)| {
        let mut heap = Heap::new(HeapConfig::small());
        let mut mm = mm("shared");
        let mut block = DecaCacheBlock::new::<i64>(&mut mm);
        for v in values {
            block.append(&mut mm, &mut heap, v).map_err(|e| format!("append: {e:?}"))?;
        }
        let group = block.group();
        for _ in 0..*extra_refs {
            mm.retain(group);
        }
        prop_assert_eq!(mm.refcount(group), *extra_refs as u32 + 1);

        block.release(&mut mm, &mut heap);
        for remaining in (1..=*extra_refs).rev() {
            prop_assert!(
                heap.external_bytes() > 0,
                "pages gone with {remaining} references still live"
            );
            // Data stays readable through every surviving reference.
            let decoded: Vec<i64> = mm
                .with_group(group, &mut heap, |g| {
                    let words = g.fixed_records(8).map(|w| w.try_into().unwrap());
                    words.map(i64::from_le_bytes).collect::<Vec<_>>()
                })
                .map_err(|e| format!("group vanished while referenced: {e:?}"))?;
            prop_assert_eq!(&decoded, values);
            mm.release(group, &mut heap);
        }
        prop_assert_eq!(heap.external_bytes(), 0, "last release returns every page");
        prop_assert_eq!(mm.live_groups(), 0);
        Ok(())
    });
}

#[test]
fn release_never_requires_a_collection() {
    // The paper's central claim at micro scale: reclaiming a lifetime-bound
    // container is a refcount decrement plus free-list pushes — the
    // tracing collector must not run.
    let gen = gens::vec_of(gens::any_i64(), 0..400);
    check(cfg(), gen, |values| {
        let mut heap = Heap::new(HeapConfig::small());
        let mut mm = mm("nocollect");
        let mut block = DecaCacheBlock::new::<i64>(&mut mm);
        for v in values {
            block.append(&mut mm, &mut heap, v).map_err(|e| format!("append: {e:?}"))?;
        }
        let gcs_before = heap.stats().total_collections();
        block.release(&mut mm, &mut heap);
        prop_assert_eq!(heap.stats().total_collections(), gcs_before);
        prop_assert_eq!(heap.external_bytes(), 0);
        Ok(())
    });
}

#[test]
fn interleaved_append_and_release_never_leaks_pages() {
    // A random schedule over a small pool of cache blocks: each op either
    // appends a record to block (op % pool) or releases that block. After
    // draining everything, no page and no group may remain.
    let gen = gens::vec_of(gens::pair(gens::usize_in(0..4), gens::bools()), 0..300);
    check(cfg(), gen, |ops| {
        let mut heap = Heap::new(HeapConfig::small());
        let mut mm = mm("interleave");
        let mut blocks: Vec<Option<DecaCacheBlock>> = (0..4).map(|_| None).collect();
        let mut next = 0i64;
        for (slot, is_release) in ops {
            if *is_release {
                if let Some(mut block) = blocks[*slot].take() {
                    block.release(&mut mm, &mut heap);
                }
            } else {
                let block =
                    blocks[*slot].get_or_insert_with(|| DecaCacheBlock::new::<i64>(&mut mm));
                block.append(&mut mm, &mut heap, &next).map_err(|e| format!("append: {e:?}"))?;
                next += 1;
            }
        }
        // Any block still open holds pages; drain them.
        for mut block in blocks.iter_mut().filter_map(Option::take) {
            block.release(&mut mm, &mut heap);
        }
        prop_assert_eq!(heap.external_bytes(), 0, "all pages returned");
        prop_assert_eq!(heap.external_count(), 0);
        prop_assert_eq!(mm.live_groups(), 0, "no group outlives its container");
        Ok(())
    });
}
