//! Property-based tests over the core invariants (on the `deca-check`
//! harness; each property runs 64 generated cases and shrinks failures):
//!
//! * the collector preserves every reachable object graph and its values;
//! * page encode→decode is the identity for arbitrary records (all three
//!   representations);
//! * classification is monotone: the global analysis never reports a more
//!   variable size-type than the local one;
//! * shuffle aggregation equals a sequential fold regardless of insertion
//!   order and partitioning, in the Deca buffers and the Spark ones.

mod util;

use std::collections::HashMap;

use deca_apps::records::{AdjListRec, LabeledPointRec};
use deca_check::property::{check, gens, Config};
use deca_check::{prop_assert, prop_assert_eq};
use deca_core::{DecaCacheBlock, DecaHashShuffle, DecaRecord, DecaVarHashShuffle};
use deca_engine::record::{load_str_into, HeapRecord, KryoRecord};
use deca_engine::{KryoSim, SparkHashShuffle};
use deca_heap::{ClassBuilder, FieldKind, Heap, HeapConfig};

use util::TestDir;

fn cfg() -> Config {
    Config::with_cases(64)
}

/// Random linked structures survive arbitrary interleavings of minor
/// and full collections with all values intact.
#[test]
fn gc_preserves_reachable_graphs() {
    check(
        cfg(),
        gens::pair(gens::vec_of(gens::any_i64(), 1..200), gens::vec_of(gens::bools(), 0..6)),
        |(values, gcs)| {
            let mut heap = Heap::new(HeapConfig::small());
            let node = heap.define_class(
                ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
            );
            let mut head = deca_heap::ObjRef::NULL;
            for &v in values {
                let s = heap.push_stack(head);
                let n = heap.alloc(node).unwrap();
                heap.write_i64(n, 0, v);
                let prev = heap.stack_ref(s);
                heap.write_ref(n, 1, prev);
                heap.truncate_stack(s);
                head = n;
            }
            let root = heap.add_root(head);
            for &full in gcs {
                if full {
                    heap.full_gc()
                } else {
                    heap.minor_gc()
                }
            }
            let mut cur = heap.root_ref(root);
            for &v in values.iter().rev() {
                prop_assert!(!cur.is_null());
                prop_assert_eq!(heap.read_i64(cur, 0), v);
                cur = heap.read_ref(cur, 1);
            }
            prop_assert!(cur.is_null());
            Ok(())
        },
    );
}

/// LabeledPoint round-trips through all three representations.
#[test]
fn labeled_point_representations_roundtrip() {
    check(
        cfg(),
        gens::pair(gens::f64_in(-1e6..1e6), gens::vec_of(gens::f64_in(-1e6..1e6), 0..40)),
        |(label, features)| {
            let rec = LabeledPointRec { label: *label, features: features.clone() };
            // Deca layout
            let mut buf = vec![0u8; rec.data_size()];
            rec.encode(&mut buf);
            prop_assert_eq!(LabeledPointRec::decode(&buf), rec.clone());
            // Kryo layout
            let mut kbuf = Vec::new();
            rec.kryo_encode(&mut kbuf);
            let mut pos = 0;
            prop_assert_eq!(LabeledPointRec::kryo_decode(&kbuf, &mut pos), rec.clone());
            // Heap graph
            let mut heap = Heap::new(HeapConfig::small());
            let cls = LabeledPointRec::register(&mut heap);
            let obj = rec.store(&mut heap, &cls).unwrap();
            prop_assert_eq!(LabeledPointRec::load(&heap, &cls, obj), rec);
            Ok(())
        },
    );
}

/// Adjacency lists round-trip through a framed (RFST) cache block in
/// arbitrary batches.
#[test]
fn rfst_cache_blocks_roundtrip() {
    let td = TestDir::new("prop-rfst");
    check(
        cfg(),
        gens::vec_of(gens::pair(gens::any_u32(), gens::vec_of(gens::any_u32(), 0..30)), 1..60),
        |lists| {
            let recs: Vec<AdjListRec> = lists
                .iter()
                .map(|(vertex, neighbors)| AdjListRec {
                    vertex: *vertex,
                    neighbors: neighbors.clone(),
                })
                .collect();
            let mut heap = Heap::new(HeapConfig::small());
            let mut mm = td.mm(16 << 10);
            let mut block = DecaCacheBlock::new::<AdjListRec>(&mut mm);
            for r in &recs {
                block.append(&mut mm, &mut heap, r).unwrap();
            }
            let back: Vec<AdjListRec> = block.decode_all(&mut mm, &mut heap).unwrap();
            prop_assert_eq!(back, recs);
            block.release(&mut mm, &mut heap);
            prop_assert_eq!(heap.external_bytes(), 0);
            Ok(())
        },
    );
    td.cleanup();
}

/// Deca hash aggregation equals a HashMap fold for any key stream.
#[test]
fn shuffle_aggregation_equals_fold() {
    let td = TestDir::new("prop-hash-shuffle");
    check(
        cfg(),
        gens::vec_of(gens::pair(gens::i64_in(0..200), gens::i64_in(-1000..1000)), 0..500),
        |stream| {
            let mut heap = Heap::new(HeapConfig::small());
            let mut mm = td.mm(16 << 10);
            let mut buf = DecaHashShuffle::new(&mut mm, 8, 8);
            let mut expected: HashMap<i64, i64> = HashMap::new();
            for &(k, v) in stream {
                *expected.entry(k).or_insert(0) += v;
                buf.insert(&mut mm, &mut heap, &k.to_le_bytes(), &v.to_le_bytes(), |acc, add| {
                    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
                    let b = i64::from_le_bytes(add[..8].try_into().unwrap());
                    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
                })
                .unwrap();
            }
            let mut got: HashMap<i64, i64> = HashMap::new();
            buf.for_each(&mut mm, &mut heap, |k, v| {
                got.insert(
                    i64::from_le_bytes(k[..8].try_into().unwrap()),
                    i64::from_le_bytes(v[..8].try_into().unwrap()),
                );
            })
            .unwrap();
            prop_assert_eq!(got, expected);
            buf.release(&mut mm, &mut heap);
            Ok(())
        },
    );
    td.cleanup();
}

/// Batch entry is per-record entry: `insert_all` over a stream cut into
/// arbitrary batches, one `insert` per record, and a `HashMap` fold all
/// give the same table — for every key/value width, for page sizes whose
/// slot count is not a power of two or is a single slot, and across
/// several table growths. The combine is order-sensitive, so equality
/// also proves that each key's values combine in arrival order.
#[test]
fn shuffle_insert_all_equals_per_record_insert_and_fold() {
    const LAYOUTS: [(usize, usize); 3] = [(8, 8), (8, 24), (4, 12)];
    // acc = acc * 31 + new over the first eight value bytes, XOR beyond.
    fn combine(acc: &mut [u8], new: &[u8]) {
        let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
        let b = i64::from_le_bytes(new[..8].try_into().unwrap());
        acc[..8].copy_from_slice(&a.wrapping_mul(31).wrapping_add(b).to_le_bytes());
        for (x, y) in acc[8..].iter_mut().zip(&new[8..]) {
            *x ^= *y;
        }
    }
    type Table = HashMap<Vec<u8>, Vec<u8>>;
    fn drain(buf: &DecaHashShuffle, mm: &mut deca_core::MemoryManager, heap: &mut Heap) -> Table {
        let mut got = Table::new();
        buf.for_each(mm, heap, |k, v| {
            got.insert(k.to_vec(), v.to_vec());
        })
        .unwrap();
        got
    }
    let td = TestDir::new("prop-hash-shuffle-batch");
    check(
        cfg(),
        gens::pair(
            gens::pair(gens::usize_in(0..3), gens::usize_in(0..3)),
            gens::pair(
                gens::vec_of(gens::pair(gens::u32_in(0..600), gens::any_i64()), 0..1_500),
                gens::vec_of(gens::usize_in(1..200), 1..12),
            ),
        ),
        |((layout, page), (stream, cuts))| {
            let (key_size, val_size) = LAYOUTS[*layout];
            let slot = key_size + val_size;
            // One slot fills a page; three slots per page (two used); 100.
            let page_size = [slot, 3 * slot + 5, 100 * slot][*page];
            let pairs: Vec<(Vec<u8>, Vec<u8>)> = stream
                .iter()
                .map(|&(k, v)| {
                    let key = (u64::from(k) * 0x9e37_79b9).to_le_bytes()[..key_size].to_vec();
                    let mut val = v.to_le_bytes().to_vec();
                    val.resize(val_size, k as u8);
                    (key, val)
                })
                .collect();
            let mut expected = Table::new();
            for (k, v) in &pairs {
                match expected.get_mut(k) {
                    Some(acc) => combine(acc, v),
                    None => {
                        expected.insert(k.clone(), v.clone());
                    }
                }
            }

            let mut heap = Heap::new(HeapConfig::small());
            let mut mm = td.mm(page_size);
            let mut one = DecaHashShuffle::new(&mut mm, key_size, val_size);
            for (k, v) in &pairs {
                one.insert(&mut mm, &mut heap, k, v, combine).unwrap();
            }
            let mut batched = DecaHashShuffle::new(&mut mm, key_size, val_size);
            let mut rest = &pairs[..];
            for &cut in cuts.iter().cycle() {
                if rest.is_empty() {
                    break;
                }
                let (batch, tail) = rest.split_at(cut.min(rest.len()));
                let batch = batch.iter().map(|(k, v)| (k, v));
                batched.insert_all(&mut mm, &mut heap, batch, combine).unwrap();
                rest = tail;
            }

            prop_assert_eq!(drain(&one, &mut mm, &mut heap), expected);
            prop_assert_eq!(drain(&batched, &mut mm, &mut heap), expected);
            prop_assert_eq!(
                (one.len(), one.combines),
                (expected.len(), (pairs.len() - expected.len()) as u64)
            );
            prop_assert_eq!((batched.len(), batched.combines), (one.len(), one.combines));
            one.release(&mut mm, &mut heap);
            batched.release(&mut mm, &mut heap);
            prop_assert_eq!(heap.external_bytes(), 0);
            prop_assert_eq!(mm.live_groups(), 0);
            Ok(())
        },
    );
    td.cleanup();
}

/// Key text for id `n`: its base-6 digits, least significant first, over
/// ASCII, non-ASCII BMP and astral characters (UTF-16 surrogate pairs on
/// the heap). Distinct ids give distinct strings.
fn key_text(n: u32) -> String {
    const CHARS: [char; 6] = ['a', 'b', '\u{e9}', '\u{4e2d}', '\u{1f600}', '\u{1d11e}'];
    let (mut n, mut s) = (n as usize, String::new());
    loop {
        s.push(CHARS[n % CHARS.len()]);
        n /= CHARS.len();
        if n == 0 {
            return s;
        }
    }
}

/// The Spark buffer's borrowed-key `insert` is a `HashMap` fold: a hit
/// combines into the key's value and a miss adds the key, for `i64` keys
/// (passed borrowed and owned) and `String` keys passed as `&str`, across
/// growths of the 1024-slot `Object[]`. The combine is order-sensitive,
/// so equality proves values combine in arrival order; the buffer also
/// drains in first-arrival order, the order Spark-mode checksums sum in.
#[test]
fn spark_shuffle_borrowed_key_insert_equals_fold() {
    fn combine(acc: i64, new: i64) -> i64 {
        acc.wrapping_mul(31).wrapping_add(new)
    }
    /// The fold, and the keys in first-arrival order.
    fn fold<K: Clone + Eq + std::hash::Hash>(
        stream: impl Iterator<Item = (K, i64)>,
    ) -> Vec<(K, i64)> {
        let (mut order, mut table) = (Vec::new(), HashMap::new());
        for (k, v) in stream {
            match table.get_mut(&k) {
                Some(acc) => *acc = combine(*acc, v),
                None => {
                    order.push(k.clone());
                    table.insert(k, v);
                }
            }
        }
        order.into_iter().map(|k| (k.clone(), table[&k])).collect()
    }
    check(
        cfg(),
        gens::vec_of(gens::pair(gens::u32_in(0..2_600), gens::any_i64()), 0..4_000),
        |stream| {
            let mut heap = Heap::new(HeapConfig::with_total(32 << 20));
            let mut ints: SparkHashShuffle<i64, i64> = SparkHashShuffle::new(&mut heap).unwrap();
            let mut texts: SparkHashShuffle<String, i64> =
                SparkHashShuffle::new(&mut heap).unwrap();
            for (i, &(id, v)) in stream.iter().enumerate() {
                let k = i64::from(id);
                if i % 2 == 0 {
                    ints.insert(&mut heap, &k, v, combine).unwrap();
                } else {
                    ints.insert(&mut heap, k, v, combine).unwrap();
                }
                texts.insert(&mut heap, key_text(id).as_str(), v, combine).unwrap();
            }
            let want = fold(stream.iter().map(|&(id, v)| (i64::from(id), v)));
            prop_assert_eq!(ints.len(), want.len());
            prop_assert_eq!(ints.drain(&heap), want);
            let want = fold(stream.iter().map(|&(id, v)| (key_text(id), v)));
            prop_assert_eq!(texts.drain(&heap), want);
            ints.release(&mut heap);
            texts.release(&mut heap);
            Ok(())
        },
    );
}

/// The same multilingual keys round-trip through the Spark modes' two
/// string paths: the heap `String` + `char[]` graph (bulk `char[]` access,
/// one reused decode buffer) and Kryo, where the borrowed `&str` decode
/// counts one deserialized object per string, as the owned decode does.
#[test]
fn spark_shuffle_string_keys_round_trip_heap_and_kryo() {
    check(cfg(), gens::vec_of(gens::any_u32(), 0..60), |ids| {
        let keys: Vec<String> = ids.iter().map(|&id| key_text(id)).collect();
        let mut heap = Heap::new(HeapConfig::small());
        let cls = <String as HeapRecord>::register(&mut heap);
        let mut decoded = String::from("stale");
        for k in &keys {
            let obj = k.store(&mut heap, &cls).unwrap();
            prop_assert_eq!(&String::load(&heap, &cls, obj), k);
            load_str_into(&heap, obj, &mut decoded);
            prop_assert_eq!(&decoded, k);
            let units = heap.array_len(heap.read_ref(obj, 0));
            prop_assert_eq!(units, k.encode_utf16().count());
        }
        let mut kryo = KryoSim::new();
        let buf = kryo.serialize_all(&keys);
        let mut pos = 0;
        let mut borrowed = Vec::new();
        while pos < buf.len() {
            borrowed.push(kryo.deserialize_str(&buf, &mut pos));
        }
        prop_assert_eq!(&borrowed, &keys);
        prop_assert_eq!(kryo.objects_deserialized, keys.len() as u64);
        let owned: Vec<String> = kryo.deserialize_all(&buf);
        prop_assert_eq!(&owned, &keys);
        prop_assert_eq!(kryo.objects_deserialized, 2 * keys.len() as u64);
        Ok(())
    });
}

/// The global classification never reports a *more* variable size-type
/// than the local one (it only refines downward in the §3.2 order).
#[test]
fn global_classification_is_monotone() {
    check(cfg(), gens::usize_in(0..3), |&variant| {
        use deca_udt::{classify_local, Classification, GlobalAnalysis, TypeRef};
        let f = match variant {
            0 => deca_udt::fixtures::lr_program(),
            1 => deca_udt::fixtures::lr_program_variable_dims(),
            _ => deca_udt::fixtures::lr_program_with_reassignment(),
        };
        for t in [TypeRef::Udt(f.types.labeled_point), TypeRef::Udt(f.types.dense_vector)] {
            let local = classify_local(&f.types.registry, t);
            let ga = GlobalAnalysis::new(&f.types.registry, &f.program, f.stage_entry);
            let global = ga.classify(t);
            match (local, global) {
                (Classification::RecurDef, g) => prop_assert_eq!(g, Classification::RecurDef),
                (Classification::Sized(l), Classification::Sized(g)) => {
                    prop_assert!(g <= l, "global {g} must refine local {l}");
                }
                (l, g) => prop_assert!(false, "inconsistent: local {l}, global {g}"),
            }
        }
        Ok(())
    });
}

/// Pages preserve arbitrary byte segments under mixed framed/unframed
/// appends within one group... (separate groups per framing).
#[test]
fn page_groups_preserve_segments() {
    check(cfg(), gens::vec_of(gens::vec_of(gens::any_u8(), 0..100), 1..50), |segs| {
        let mut heap = Heap::new(HeapConfig::small());
        let mut group = deca_core::PageGroup::new(256);
        let mut ptrs = Vec::new();
        for s in segs {
            ptrs.push(group.append_framed(&mut heap, s).unwrap());
        }
        // Random access via pointers:
        for (ptr, s) in ptrs.iter().zip(segs) {
            prop_assert_eq!(group.slice(*ptr, s.len()), s.as_slice());
        }
        // Sequential scan:
        let walked: Vec<&[u8]> = group.framed_records().collect();
        prop_assert_eq!(walked, segs.iter().map(Vec::as_slice).collect::<Vec<_>>());
        // Group release is the MemoryManager's job; this bare group simply
        // drops with the test heap.
        Ok(())
    });
}

/// Variable-key aggregation equals a HashMap fold for arbitrary byte
/// keys (including empty keys and shared prefixes).
#[test]
fn var_key_shuffle_equals_fold() {
    let td = TestDir::new("prop-var-shuffle");
    check(
        cfg(),
        gens::vec_of(
            gens::pair(gens::vec_of(gens::any_u8(), 0..24), gens::i64_in(-100..100)),
            0..300,
        ),
        |stream| {
            let mut heap = Heap::new(HeapConfig::small());
            let mut mm = td.mm(16 << 10);
            let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
            let mut expected: HashMap<Vec<u8>, i64> = HashMap::new();
            for (k, v) in stream {
                *expected.entry(k.clone()).or_insert(0) += v;
                buf.insert(&mut mm, &mut heap, k, &v.to_le_bytes(), |acc, add| {
                    let a = i64::from_le_bytes(acc[..8].try_into().unwrap());
                    let b = i64::from_le_bytes(add[..8].try_into().unwrap());
                    acc[..8].copy_from_slice(&(a + b).to_le_bytes());
                })
                .unwrap();
            }
            let mut got: HashMap<Vec<u8>, i64> = HashMap::new();
            buf.for_each(&mut mm, &mut heap, |k, v| {
                got.insert(k.to_vec(), i64::from_le_bytes(v[..8].try_into().unwrap()));
            })
            .unwrap();
            prop_assert_eq!(got, expected);
            buf.release(&mut mm, &mut heap);
            prop_assert_eq!(heap.external_bytes(), 0);
            Ok(())
        },
    );
    td.cleanup();
}

/// Strings round-trip through all three representations (ASCII and
/// BMP unicode; the generator only emits BMP, matching the heap layout's
/// UTF-16 code units).
#[test]
fn string_representations_roundtrip() {
    check(cfg(), gens::strings(40), |s| {
        // Deca
        let mut buf = vec![0u8; s.data_size()];
        s.encode(&mut buf);
        prop_assert_eq!(String::decode(&buf), s.clone());
        // Kryo
        let mut kbuf = Vec::new();
        s.kryo_encode(&mut kbuf);
        let mut pos = 0;
        prop_assert_eq!(String::kryo_decode(&kbuf, &mut pos), s.clone());
        // Heap graph
        let mut heap = Heap::new(HeapConfig::small());
        let cls = <String as HeapRecord>::register(&mut heap);
        let obj = s.store(&mut heap, &cls).unwrap();
        prop_assert_eq!(&String::load(&heap, &cls, obj), s);
        Ok(())
    });
}

/// Random linked structures survive arbitrary GC interleavings under
/// the mark-sweep old generation too (holes, evacuation, ref fixing).
#[test]
fn mark_sweep_gc_preserves_reachable_graphs() {
    check(
        cfg(),
        gens::pair(gens::vec_of(gens::any_i64(), 1..200), gens::vec_of(gens::bools(), 1..8)),
        |(values, gcs)| {
            let mut heap = Heap::new(
                HeapConfig::small()
                    .with_algorithm(deca_heap::GcAlgorithm::Cms)
                    .with_concurrent(false),
            );
            let node = heap.define_class(
                ClassBuilder::new("Node").field("v", FieldKind::I64).field("next", FieldKind::Ref),
            );
            let mut head = deca_heap::ObjRef::NULL;
            let mut garbage_roots = Vec::new();
            for &v in values {
                let s = heap.push_stack(head);
                let n = heap.alloc(node).unwrap();
                heap.write_i64(n, 0, v);
                let prev = heap.stack_ref(s);
                heap.write_ref(n, 1, prev);
                heap.truncate_stack(s);
                head = n;
                // Some future-garbage pinned temporarily (creates holes when
                // released between collections).
                let g = heap.alloc(node).unwrap();
                garbage_roots.push(heap.add_root(g));
            }
            let root = heap.add_root(head);
            for (i, &full) in gcs.iter().enumerate() {
                // Release a slice of the pinned garbage each round.
                let upto = (i + 1) * garbage_roots.len() / gcs.len();
                for r in garbage_roots.drain(..upto.min(garbage_roots.len())) {
                    heap.remove_root(r);
                }
                if full {
                    heap.full_gc()
                } else {
                    heap.minor_gc()
                }
            }
            let mut cur = heap.root_ref(root);
            for &v in values.iter().rev() {
                prop_assert!(!cur.is_null());
                prop_assert_eq!(heap.read_i64(cur, 0), v);
                cur = heap.read_ref(cur, 1);
            }
            prop_assert!(cur.is_null());
            Ok(())
        },
    );
}

/// The reachability census agrees with what a full collection retains.
#[test]
fn reachable_census_matches_collection_survivors() {
    check(cfg(), gens::pair(gens::usize_in(0..60), gens::usize_in(0..60)), |&(live, garbage)| {
        let mut heap = Heap::new(HeapConfig::small());
        let node = heap.define_class(ClassBuilder::new("N").field("v", FieldKind::I64));
        for _ in 0..live {
            let o = heap.alloc(node).unwrap();
            heap.add_root(o);
        }
        for _ in 0..garbage {
            heap.alloc(node).unwrap();
        }
        prop_assert_eq!(heap.reachable_count(node), live);
        heap.full_gc();
        prop_assert_eq!(heap.live_count(node), live);
        Ok(())
    });
}
