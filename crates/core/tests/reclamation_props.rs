//! Property tests for page/group reclamation (§4.2–§4.3), on the
//! deca-check harness: a released group's id goes stale and never reads
//! the slot's next occupant, releasing never needs a collection, and
//! arbitrary interleavings of append/release leak nothing.

use std::path::PathBuf;

use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_core::{DecaCacheBlock, Group, GroupId, MemError, MemoryManager};
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

/// A random schedule over a pool of four groups, each op `(kind, which)`:
/// create, append a record, release, swap out, or read the group at
/// `which`. Slots are reused as groups come and go, and the plain id of
/// every released group is kept. At every step, each stale id is refused
/// with the typed error and names no spill file, and a read returns
/// exactly the bytes its own group was given.
#[test]
fn stale_ids_never_reach_a_reused_slot() {
    const POOL: usize = 4;
    const RECORD: usize = 24;
    let gen = gens::vec_of(gens::pair(gens::usize_in(0..5), gens::usize_in(0..POOL)), 0..160);
    check(cfg(), gen, |ops| {
        let mut heap = Heap::new(HeapConfig::small());
        // Small pages, so a group spans several and swaps a real payload.
        let mut mm = MemoryManager::new(64, spill_dir("stale"));
        let mut pool: Vec<Option<(Group, Vec<u8>)>> = (0..POOL).map(|_| None).collect();
        let mut stale: Vec<GroupId> = Vec::new();
        let read = |mm: &mut MemoryManager, heap: &mut Heap, g: &Group, want: &[u8]| {
            let got: Vec<u8> = mm
                .with_group(g, heap, |pg| pg.fixed_records(RECORD).flatten().copied().collect())
                .map_err(|e| format!("live group {} unreadable: {e}", g.id()))?;
            prop_assert_eq!(got, want, "group {} read back other bytes", g.id());
            Ok(())
        };
        for (step, &(kind, which)) in ops.iter().enumerate() {
            match (kind, pool[which].take()) {
                (0, None) => pool[which] = Some((mm.create_group(), Vec::new())),
                (1, Some((g, mut bytes))) => {
                    let rec = [(step * POOL + which) as u8; RECORD];
                    mm.with_group_mut(&g, &mut heap, |pg, h| pg.append(h, &rec).map(|_| ()))
                        .map_err(|e| format!("append: {e}"))?;
                    bytes.extend_from_slice(&rec);
                    pool[which] = Some((g, bytes));
                }
                (2, Some((g, _))) => {
                    stale.push(g.id());
                    mm.release(g, &mut heap);
                }
                (3, Some((g, bytes))) => {
                    if !mm.is_swapped(&g) {
                        mm.swap_out(&g, &mut heap).map_err(|e| format!("swap-out: {e}"))?;
                    }
                    pool[which] = Some((g, bytes));
                }
                (4, Some((g, bytes))) => {
                    read(&mut mm, &mut heap, &g, &bytes)?;
                    pool[which] = Some((g, bytes));
                }
                (_, entry) => pool[which] = entry,
            }
            for &id in &stale {
                let sizes = mm.spill_page_sizes(id);
                prop_assert!(
                    matches!(sizes, Err(MemError::Stale(s)) if s == id),
                    "step {step}: stale id {id} looked up {sizes:?}"
                );
                prop_assert!(matches!(mm.spill_digest(id), Err(MemError::Stale(_))));
                prop_assert!(!mm.spill_file(id).exists(), "step {step}: {id} names a file");
            }
        }
        for (g, bytes) in pool.iter().flatten() {
            read(&mut mm, &mut heap, g, bytes)?;
        }
        for (g, _) in pool.into_iter().flatten() {
            mm.release(g, &mut heap);
        }
        prop_assert_eq!(mm.live_groups(), 0);
        prop_assert_eq!(heap.external_bytes(), 0);
        Ok(())
    });
}

#[test]
fn release_never_requires_a_collection() {
    // The paper's central claim at micro scale: reclaiming a lifetime-bound
    // container unregisters its pages and frees its slot — the tracing
    // collector must not run.
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
                if let Some(block) = blocks[*slot].take() {
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
        for block in blocks.iter_mut().filter_map(Option::take) {
            block.release(&mut mm, &mut heap);
        }
        prop_assert_eq!(heap.external_bytes(), 0, "all pages returned");
        prop_assert_eq!(heap.external_count(), 0);
        prop_assert_eq!(mm.live_groups(), 0, "no group outlives its container");
        Ok(())
    });
}
