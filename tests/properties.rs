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

use deca_apps::records::{AdjListRec, JoinAggRec, LabeledPointRec, RankingRec, UserVisitRec};
use deca_check::property::{check, gens, Config, TestResult};
use deca_check::{prop_assert, prop_assert_eq};
use deca_core::{DecaCacheBlock, DecaHashShuffle, DecaRecord, DecaVarHashShuffle, MemoryManager};
use deca_engine::cache::{BlockId, CacheManager};
use deca_engine::record::{load_str_into, HeapRecord, KryoRecord, Record};
use deca_engine::serde_sim::PageRecords;
use deca_engine::{CacheError, KryoSim, SparkHashShuffle, Tier};
use deca_heap::{ClassBuilder, FieldKind, Heap, HeapConfig, ObjRef};

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
                head = heap.scope(|heap| {
                    let s = heap.push_stack(head);
                    let n = heap.alloc(node).unwrap();
                    heap.write_i64(n, 0, v);
                    heap.write_ref(n, 1, heap.stack_ref(s));
                    n
                });
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
            let mut back = Vec::new();
            block.scan_bytes(&mut mm, &mut heap, AdjListRec::decode, |r| back.push(r)).unwrap();
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
/// visits its keys, each read back through one reused buffer, in
/// first-arrival order, the order Spark-mode checksums sum in.
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
            let mut got = Vec::new();
            ints.for_each(&heap, |k, v| got.push((k, v)));
            prop_assert_eq!(got, want);
            let want = fold(stream.iter().map(|&(id, v)| (key_text(id), v)));
            let mut got = Vec::new();
            texts.for_each(&heap, |k, v| got.push((k.to_owned(), v)));
            prop_assert_eq!(got, want);
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

/// One string of `len` characters from `draws`: ASCII (`0x00..0x80`), then
/// Latin-1 (`0x80..0x100`), BMP (`0x100..0x10000` less the surrogates) and
/// astral for `class` 0..4. A non-ASCII class mixes its characters with
/// ASCII ones and puts one of its own at a drawn position.
fn string_of_class(class: u32, len: usize, draws: &[u32]) -> String {
    let own = |d: u32| {
        let code = match class {
            1 => 0x80 + d % 0x80,
            2 => {
                let c = 0x100 + d % (0x1_0000 - 0x100 - 0x800);
                if c >= 0xd800 {
                    c + 0x800
                } else {
                    c
                }
            }
            _ => 0x1_0000 + d % 0x10_0000,
        };
        char::from_u32(code).unwrap()
    };
    let forced = draws[0] as usize % len.max(1);
    (0..len)
        .map(|i| match draws[i] {
            d if class == 0 || (i != forced && d % 2 == 0) => char::from(d as u8 % 0x80),
            d => own(d >> 1),
        })
        .collect()
}

/// The `String` path's ASCII fast path (inflate into, and compress out of,
/// the `char[]`) against the general UTF-16 path, for ASCII, Latin-1, BMP
/// and astral strings at every length 0..=33 (length 0 is the empty
/// string):
/// - the stored `char[]` holds the string's UTF-16 units, and inflating an
///   ASCII string writes the same elements as the UTF-16 write, leaving
///   the slack elements past it untouched;
/// - the stored string decodes to itself through the reused decode buffer,
///   the owned load and the general UTF-16 decode, and an array the
///   general path wrote decodes through the reused buffer to its units;
/// - `heap_size` is the store's nominal bytes, in two objects.
///
/// Cases come from `DECA_CHECK_SEED` when set.
#[test]
fn string_fast_path_matches_the_utf16_path_at_every_length() {
    const SLACK: usize = 5;
    let background = |i: usize| 0xbe00 | i as u16;
    check(Config::with_cases(16), gens::array_of(gens::any_u32(), 34), |draws| {
        let mut heap = Heap::new(HeapConfig::with_total(64 << 20));
        let cls = <String as HeapRecord>::register(&mut heap);
        let mut decoded = String::from("stale");
        for class in 0..4 {
            for len in 0..=33 {
                let s = string_of_class(class, len, draws);
                let units: Vec<u16> = s.encode_utf16().collect();
                let ctx = format!("{s:?} (class {class}, {len} chars)");

                let before = heap.stats().clone();
                let obj = s.store(&mut heap, &cls).unwrap();
                let after = heap.stats();
                prop_assert_eq!(after.objects_allocated - before.objects_allocated, 2, "{ctx}");
                let bytes = (after.bytes_allocated - before.bytes_allocated) as usize;
                prop_assert_eq!(bytes, s.heap_size(), "{ctx}");
                let arr = heap.read_ref(obj, 0);
                let stored: Vec<u16> = heap.char_array_units(arr).collect();
                prop_assert_eq!(&stored, &units, "stored units of {ctx}");
                load_str_into(&heap, obj, &mut decoded);
                prop_assert_eq!(&decoded, &s, "decode of {ctx}");
                prop_assert_eq!(&String::load(&heap, &cls, obj), &s, "owned load of {ctx}");
                let general: String =
                    char::decode_utf16(stored.iter().copied()).map(|c| c.unwrap()).collect();
                prop_assert_eq!(&general, &s, "UTF-16 decode of {ctx}");

                let n = units.len() + SLACK;
                let frame = heap.frame();
                let [fast, utf16] = [(); 2].map(|_| {
                    let a = heap.alloc_array(cls.char_array, n).unwrap();
                    (0..n).for_each(|i| heap.array_set(a, i, u64::from(background(i))));
                    heap.push_stack(a)
                });
                heap.char_array_write(heap.stack_ref(utf16), s.encode_utf16());
                if s.is_ascii() {
                    heap.char_array_inflate(heap.stack_ref(fast), s.as_bytes());
                    let (f, u) = (heap.stack_ref(fast), heap.stack_ref(utf16));
                    let (f, u) = (heap.char_array_units(f), heap.char_array_units(u));
                    for (i, (f, u)) in f.zip(u).enumerate() {
                        prop_assert_eq!(f, u, "element {i} of {ctx}");
                    }
                }
                let string = heap.alloc(cls.string).unwrap();
                heap.write_ref(string, 0, heap.stack_ref(utf16));
                heap.pop(frame);
                load_str_into(&heap, string, &mut decoded);
                let slack = units.len()..n;
                let want: Vec<u16> = units.iter().copied().chain(slack.map(background)).collect();
                let want = String::from_utf16(&want).unwrap();
                prop_assert_eq!(&decoded, &want, "decode of the UTF-16 path's array for {ctx}");
            }
        }
        Ok(())
    });
}

/// A heap object graph as its objects' eden offsets and classes, depth
/// first from `obj`: two heaps that allocated the same objects in the same
/// order and sizes give the same list.
fn eden_graph(heap: &Heap, obj: ObjRef) -> Vec<(usize, String)> {
    let class = heap.registry().get(heap.class_of(obj));
    let mut out = vec![(heap.eden_offset(obj).expect("born in eden"), class.name().to_string())];
    if !class.is_array() {
        for slot in (0..class.slot_count()).filter(|&i| class.slot_is_ref(i)) {
            let r = heap.read_ref(obj, slot);
            if !r.is_null() {
                out.extend(eden_graph(heap, r));
            }
        }
    }
    out
}

/// `rec` across each crossing of the Kryo boundary, against the owned path
/// it replaced. `owned` and `paged` are two heaps that have made the same
/// allocations so far; the record is stored on `owned` with `store` and
/// on `paged` from its page bytes.
fn boundary_matches_owned_path<T: Record + PartialEq + std::fmt::Debug>(
    rec: &T,
    owned: &mut Heap,
    paged: &mut Heap,
    ctx: &str,
) -> TestResult {
    let mut kryo = KryoSim::new();
    let mut bytes = Vec::new();
    kryo.serialize(rec, &mut bytes);
    // Kryo → page: the page bytes of what the owned decode returns, with
    // the same tag check and object count.
    let mut want = Vec::new();
    let mut pos = 2;
    let decoded = T::kryo_decode(&bytes, &mut pos);
    want.resize(decoded.data_size(), 0);
    decoded.encode(&mut want);
    let (mut at, mut pages) = (0, PageRecords::default());
    kryo.deserialize_page::<T>(&bytes, &mut at, &mut pages);
    prop_assert_eq!((at, pages.len(), kryo.objects_deserialized), (pos, 1, 1), "{ctx}");
    prop_assert_eq!(pages.get(0), &want[..], "page bytes of {ctx}");
    // Page → heap: what `store` allocates, where it allocates it.
    let (cls, paged_cls) = (T::register(owned), T::register(paged));
    let (was, paged_was) = (owned.stats().clone(), paged.stats().clone());
    let obj = rec.store(owned, &cls).unwrap();
    let paged_obj = T::store_page(pages.get(0), paged, &paged_cls).unwrap();
    let grew = |heap: &Heap, was: &deca_heap::GcStats| {
        let now = heap.stats();
        [now.objects_allocated - was.objects_allocated, now.bytes_allocated - was.bytes_allocated]
    };
    prop_assert_eq!(grew(paged, &paged_was), grew(owned, &was), "[objects, bytes] of {ctx}");
    prop_assert_eq!(eden_graph(paged, paged_obj), eden_graph(owned, obj), "graph of {ctx}");
    prop_assert_eq!(&T::load(paged, &paged_cls, paged_obj), rec, "load of {ctx}");
    // Heap → Kryo: the Kryo bytes of what the owned load returns.
    let mut want = Vec::new();
    T::load(owned, &cls, obj).kryo_encode(&mut want);
    let mut got = Vec::new();
    T::kryo_from_heap(owned, &cls, obj, &mut got);
    prop_assert_eq!(&got, &want, "Kryo bytes of {ctx}'s graph");
    let mut tagged = Vec::new();
    kryo.serialize_heap::<T>(paged, &paged_cls, paged_obj, &mut tagged);
    prop_assert_eq!((&tagged, kryo.objects_serialized), (&bytes, 2), "{ctx}");
    Ok(())
}

/// The Spark modes cross between Kryo bytes, page bytes and the heap with
/// no owned record, and each crossing matches the owned path it replaced,
/// for the five declared records and every hand-written `Record`: boxed
/// `i64` and `f64`, `(i64, i64)`, `(i64, f64)`, `(i64, JoinAggRec)`, and
/// `String` in ASCII, Latin-1, BMP and astral text at every length 0..=33:
/// - Kryo → page: the bytes `DecaRecord::encode` writes for what
///   `kryo_decode` returns, with the same tag check and object count;
/// - page → heap: the objects `store` allocates, at the same eden offsets
///   (so in the same order and sizes), the same bytes, and a graph that
///   loads back equal;
/// - heap → Kryo: the bytes `kryo_encode` writes for what `load` returns,
///   and, tagged, the bytes and object count `serialize` gives.
///
/// Cases come from `DECA_CHECK_SEED` when set.
#[test]
fn kryo_walks_match_the_owned_path() {
    check(
        Config::with_cases(16),
        gens::pair(gens::array_of(gens::any_i64(), 6), gens::array_of(gens::any_u32(), 34)),
        |(ints, draws)| {
            let mut owned = Heap::new(HeapConfig::with_total(64 << 20));
            let mut paged = Heap::new(HeapConfig::with_total(64 << 20));
            let real = |i: usize| ints[i] as f64 / 8.0;
            let reals: Vec<f64> = draws.iter().map(|&d| f64::from(d) * 0.25 - 5e8).collect();
            let n = draws[0] as usize % draws.len();
            let mut walk = |ctx: &str, walk: &dyn Fn(&mut Heap, &mut Heap) -> TestResult| {
                walk(&mut owned, &mut paged).map_err(|e| format!("{ctx}: {e}"))
            };
            walk("LabeledPoint", &|o, p| {
                let rec = LabeledPointRec { label: real(0), features: reals[..n].to_vec() };
                boundary_matches_owned_path(&rec, o, p, &format!("{rec:?}"))
            })?;
            walk("VertexEdges", &|o, p| {
                let rec = AdjListRec { vertex: draws[1], neighbors: draws[..n].to_vec() };
                boundary_matches_owned_path(&rec, o, p, &format!("{rec:?}"))
            })?;
            walk("table rows", &|o, p| {
                let (a, b) = (ints[1] as i32, (ints[2] >> 32) as i32);
                let rank = RankingRec { url_id: ints[0], page_rank: a, avg_duration: b };
                boundary_matches_owned_path(&rank, o, p, &format!("{rank:?}"))?;
                let visit =
                    UserVisitRec { ip_prefix: ints[3], url_id: ints[4], ad_revenue: real(5) };
                boundary_matches_owned_path(&visit, o, p, &format!("{visit:?}"))?;
                let agg = JoinAggRec { revenue: real(1), rank_sum: real(2), count: ints[3] };
                boundary_matches_owned_path(&agg, o, p, &format!("{agg:?}"))
            })?;
            walk("boxed scalars", &|o, p| {
                boundary_matches_owned_path(&ints[0], o, p, "i64")?;
                boundary_matches_owned_path(&real(1), o, p, "f64")?;
                boundary_matches_owned_path(&(ints[2], ints[3]), o, p, "(i64, i64)")?;
                boundary_matches_owned_path(&(ints[4], real(5)), o, p, "(i64, f64)")
            })?;
            walk("a pair with a declared record", &|o, p| {
                let agg = JoinAggRec { revenue: real(3), rank_sum: real(4), count: ints[5] };
                boundary_matches_owned_path(&(ints[0], agg), o, p, "(i64, JoinAggRec)")
            })?;
            walk("strings", &|o, p| {
                for class in 0..4 {
                    for len in 0..=33 {
                        let s = string_of_class(class, len, draws);
                        boundary_matches_owned_path(&s, o, p, &format!("{s:?}"))?;
                    }
                }
                Ok(())
            })
        },
    );
}

/// What a block in [`cache_tier_moves_keep_every_block`] was put as.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Put {
    Objects,
    Bytes,
    Deca,
}

/// A block [`cache_tier_moves_keep_every_block`] holds: its id, what it
/// was put as, and its records.
type Held = (BlockId, Put, Vec<(i64, i64)>);

/// Read block `id` back through the access path of its kind.
fn read_block(
    cm: &mut CacheManager,
    (id, put): (BlockId, Put),
    heap: &mut Heap,
    kryo: &mut KryoSim,
    mm: &mut MemoryManager,
    classes: &<(i64, i64) as HeapRecord>::Classes,
) -> Result<Vec<(i64, i64)>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{id:?} ({put:?}): {e}");
    match put {
        Put::Objects => {
            let (root, len) = cm.objects_root(id, heap, kryo, mm).map_err(|e| err(&e))?;
            let arr = heap.root_ref(root);
            Ok((0..len)
                .map(|i| {
                    <(i64, i64) as HeapRecord>::load(heap, classes, heap.array_get_ref(arr, i))
                })
                .collect())
        }
        Put::Bytes => {
            let mut got = Vec::new();
            cm.scan_serialized::<(i64, i64), CacheError>(id, heap, kryo, mm, |_, r| {
                got.push(<(i64, i64)>::decode(r));
                Ok(())
            })
            .map_err(|e| err(&e))?;
            Ok(got)
        }
        Put::Deca => {
            let mut got = Vec::new();
            let decode = <(i64, i64)>::decode;
            cm.deca_block(id).scan_bytes(mm, heap, decode, |r| got.push(r)).map_err(|e| err(&e))?;
            Ok(got)
        }
    }
}

/// Root 16 KB arrays until the heap refuses one. A refusal comes at a
/// minor collection, which empties eden, so then root as many arrays as
/// eden held between two refusals: the heap is full and so is eden, and
/// an allocation of more than a few KB meets a full heap.
fn fill_heap(heap: &mut Heap, class: deca_heap::ClassId, filler: &mut Vec<deca_heap::RootId>) {
    let mut fill = |heap: &mut Heap, limit: usize| {
        let mut rooted = 0;
        while rooted < limit {
            let Ok(arr) = heap.alloc_array(class, 16 << 10) else { break };
            filler.push(heap.add_root(arr));
            rooted += 1;
        }
        rooted
    };
    fill(heap, usize::MAX);
    let eden = fill(heap, usize::MAX);
    fill(heap, eden);
}

/// The cache's tier moves never lose a block. Seeded sequences of puts
/// (objects, bytes, Deca), reads, `evict_all`, releases, a heap filled
/// with rooted arrays and a spill directory that cannot be written (a file
/// stands in its place) run against one cache. After every operation:
///
/// - each live block is still held, but for the one exception: a Spark
///   put that returned a typed error may have released an object block
///   whose demotion lost its graph and then its cold write (lineage
///   recompute rebuilds it);
/// - every heap root belongs to the filler or to a hot or warm Spark
///   block, and every page group to a Deca block;
/// - a read that succeeds returns the block's records.
///
/// At the end, with the heap and the directory back, every block still
/// held reads back its records.
///
/// Cases come from `DECA_CHECK_SEED` when set.
#[test]
fn cache_tier_moves_keep_every_block() {
    let td = TestDir::new("prop-cache-tiers");
    check(
        Config::with_cases(24),
        gens::vec_of(gens::pair(gens::any_u32(), gens::any_u32()), 1..60),
        |steps| {
            let _ = std::fs::remove_dir_all(td.path());
            std::fs::create_dir_all(td.path()).unwrap();
            let (spill, parked) = (td.path().join("cache"), td.path().join("cache-parked"));
            let mut heap = Heap::new(HeapConfig::with_total(4 << 20));
            let mut kryo = KryoSim::new();
            let mut mm = MemoryManager::new(16 << 10, td.path().join("pages"));
            let mut cm = CacheManager::new(384 << 10);
            cm.set_dir(spill.clone());
            let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
            let filler_class = heap.define_array_class("filler[]", FieldKind::I8);
            let mut live: Vec<Held> = Vec::new();
            let mut filler: Vec<deca_heap::RootId> = Vec::new();
            let mut blocked = false;
            let toggle_dir = |blocked: &mut bool| {
                if *blocked {
                    std::fs::remove_file(&spill).unwrap();
                    if parked.exists() {
                        std::fs::rename(&parked, &spill).unwrap();
                    }
                } else {
                    if spill.exists() {
                        std::fs::rename(&spill, &parked).unwrap();
                    }
                    std::fs::write(&spill, b"not a directory").unwrap();
                }
                *blocked = !*blocked;
            };
            for (step, &(op, arg)) in steps.iter().enumerate() {
                let n = 50 + arg as i64 % 2500;
                let recs: Vec<(i64, i64)> =
                    (0..n).map(|i| (i + step as i64, i * 7 - arg as i64)).collect();
                let at = (!live.is_empty()).then(|| arg as usize % live.len());
                let (h, k, m) = (&mut heap, &mut kryo, &mut mm);
                let outcome: Result<(), String> = match op % 10 {
                    0 | 1 => cm
                        .put_objects(h, k, m, &classes, &recs)
                        .map(|id| live.push((id, Put::Objects, recs)))
                        .map_err(|e| e.to_string()),
                    2 => cm
                        .put_serialized(h, k, m, &recs)
                        .map(|id| live.push((id, Put::Bytes, recs)))
                        .map_err(|e| e.to_string()),
                    3 => cm
                        .put_deca(h, m, &recs)
                        .map(|id| live.push((id, Put::Deca, recs)))
                        .map_err(|e| e.to_string()),
                    4 | 5 => match at {
                        Some(at) => {
                            let (id, put, want) = &live[at];
                            match read_block(&mut cm, (*id, *put), h, k, m, &classes) {
                                Ok(got) => {
                                    prop_assert_eq!(&got, want, "step {step}: {id:?} read back");
                                    Ok(())
                                }
                                Err(e) => Err(e),
                            }
                        }
                        None => Ok(()),
                    },
                    6 => cm.evict_all(h, k, m).map(drop).map_err(|e| e.to_string()),
                    7 => {
                        if let Some(at) = at {
                            cm.release(live.remove(at).0, h, m);
                        }
                        Ok(())
                    }
                    8 => {
                        fill_heap(h, filler_class, &mut filler);
                        Ok(())
                    }
                    _ if arg % 2 == 0 => {
                        filler.drain(..).for_each(|root| {
                            h.remove_root(root);
                        });
                        Ok(())
                    }
                    _ => {
                        toggle_dir(&mut blocked);
                        Ok(())
                    }
                };
                // Only a Spark put demotes, and only a demoted object block
                // whose warm copy and cold write both failed is released.
                let demoted = outcome.is_err() && op % 10 <= 2;
                for (id, put, _) in &live {
                    prop_assert!(
                        cm.contains(*id) || (demoted && *put == Put::Objects),
                        "step {step} (op {}, {outcome:?}): lost {id:?} ({put:?})",
                        op % 10
                    );
                }
                live.retain(|(id, _, _)| cm.contains(*id));
                let rooted = live
                    .iter()
                    .filter(|(id, put, _)| *put != Put::Deca && cm.tier(*id, &mm) != Tier::Cold)
                    .count();
                prop_assert_eq!(heap.root_count(), filler.len() + rooted, "step {step}: roots");
                let deca = live.iter().filter(|(_, put, _)| *put == Put::Deca).count();
                prop_assert_eq!(
                    (mm.live_groups(), cm.ledger()),
                    (deca, (deca, rooted)),
                    "step {step}"
                );
            }
            filler.drain(..).for_each(|root| {
                heap.remove_root(root);
            });
            if blocked {
                toggle_dir(&mut blocked);
            }
            for (id, put, want) in &live {
                let got =
                    read_block(&mut cm, (*id, *put), &mut heap, &mut kryo, &mut mm, &classes)?;
                prop_assert_eq!(&got, want, "{id:?} ({put:?}) read back at the end");
            }
            Ok(())
        },
    );
    td.cleanup();
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
                head = heap.scope(|heap| {
                    let s = heap.push_stack(head);
                    let n = heap.alloc(node).unwrap();
                    heap.write_i64(n, 0, v);
                    heap.write_ref(n, 1, heap.stack_ref(s));
                    n
                });
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
