//! Hash-based shuffle buffer for **variable-size** keys/values — the case
//! where Figure 6(b)'s pointer array is mandatory.
//!
//! §4.3.2: "we use an array to store the pointers to the keys and values
//! within a page. The hashing and sorting operations are performed on the
//! pointer arrays. However, the pointer array can be avoided for a
//! hash-based shuffle buffer with both the Key and the Value being of
//! primitive types or SFSTs." [`crate::DecaHashShuffle`] is that elided
//! fast path, its table laid out in its pages; this buffer is the general
//! one. Each new key appends one `key ++ value` segment to the pages; the
//! pointer table carries `(hash, key pointer, key length)` in 16 bytes per
//! entry (the value follows its key), beside the same one-byte control
//! array the elided buffer probes. The stored hash is the full hash's low
//! 32 bits: a probe compares key bytes only when the control tag (the top
//! seven bits) and the stored bits both match, and growth re-places
//! entries from the stored bits, which hold every home-slot bit of any
//! table that fits in memory, without reading a page. A combine rewrites
//! the SFST value's bytes in place.
//!
//! Its heap-budget cost is the segments alone; the control array and the
//! pointer table (17 bytes per slot) live off the pages.
//!
//! Used by string-keyed aggregations (the paper's WordCount has text
//! keys) and by any UDT key the classifier marks RFST.

use deca_heap::Heap;

use crate::group::SegPtr;
use crate::hash::hash_bytes;
use crate::manager::{Group, MemError, MemoryManager};
use crate::shuffle::{max_len, probe, same_bytes, tag, EMPTY};

/// One pointer-array entry: where a key's bytes live (its value follows
/// them in the same segment) and the low 32 bits of the key's hash.
#[derive(Copy, Clone, Debug)]
struct Slot {
    hash: u32,
    key: SegPtr,
    key_len: u32,
}

impl Slot {
    #[inline]
    fn val(self) -> SegPtr {
        SegPtr { page: self.key.page, off: self.key.off + self.key_len }
    }
}

const VACANT: Slot = Slot { hash: 0, key: SegPtr { page: 0, off: 0 }, key_len: 0 };

const _: () = assert!(std::mem::size_of::<Slot>() == 16);

/// How one pass of [`DecaVarHashShuffle::insert_all`] inside the page
/// group ended.
enum Run {
    /// Every pair was applied.
    Done,
    /// A new key met the load threshold: grow the table, then go on.
    Full,
    /// A new key's segment did not fit the heap after this pass had
    /// applied others: re-enter, so that key gets its own eviction round.
    OutOfBudget,
}

/// Hash shuffle with variable-size keys and fixed-size (SFST) values
/// combined in place.
#[derive(Debug)]
pub struct DecaVarHashShuffle {
    group: Group,
    val_size: usize,
    /// One control byte per slot ([`EMPTY`] or the hash's tag).
    ctrl: Vec<u8>,
    /// The pointer array (Figure 6b's left side), parallel to `ctrl`.
    slots: Vec<Slot>,
    len: usize,
    pub combines: u64,
}

impl DecaVarHashShuffle {
    pub fn new(mm: &mut MemoryManager, val_size: usize) -> DecaVarHashShuffle {
        let group = mm.create_group();
        mm.set_swappable(&group, false);
        DecaVarHashShuffle {
            group,
            val_size,
            ctrl: vec![EMPTY; 1024],
            slots: vec![VACANT; 1024],
            len: 0,
            combines: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn group(&self) -> &Group {
        &self.group
    }

    /// Bytes of table kept off the pages (and off the heap budget): the
    /// control array plus the pointer table.
    pub fn off_page_bytes(&self) -> usize {
        self.ctrl.len() + self.slots.len() * std::mem::size_of::<Slot>()
    }

    /// Insert one pair: [`DecaVarHashShuffle::insert_all`] over a single
    /// pair.
    #[inline]
    pub fn insert(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        key: &[u8],
        val: &[u8],
        combine: impl FnMut(&mut [u8], &[u8]),
    ) -> Result<(), MemError> {
        self.insert_all(mm, heap, [(key, val)], combine)
    }

    /// Insert pairs in order; on a key hit, combine into the value's bytes
    /// in place, so each key's values combine in arrival order. The page
    /// group is entered once per run of inserts. A new key's segment may
    /// not fit the heap: the run then stops with that pair unapplied, so
    /// when the manager evicts and re-invokes it, it resumes there and no
    /// record is applied twice.
    #[inline]
    pub fn insert_all<K: AsRef<[u8]>, V: AsRef<[u8]>>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        pairs: impl IntoIterator<Item = (K, V)>,
        mut combine: impl FnMut(&mut [u8], &[u8]),
    ) -> Result<(), MemError> {
        let mut pairs = pairs.into_iter();
        // The pair that stopped the last run waits here.
        let mut pending = None;
        let val_size = self.val_size;
        loop {
            let room = max_len(self.ctrl.len());
            let (ctrl, slots) = (&mut self.ctrl, &mut self.slots);
            let (len, combines) = (&mut self.len, &mut self.combines);
            let run = mm.with_group_mut(&self.group, heap, |g, h| {
                let mut applied = false;
                for (k, v) in pending.take().into_iter().chain(pairs.by_ref()) {
                    let (key, val) = (k.as_ref(), v.as_ref());
                    assert_eq!(val.len(), val_size);
                    let hash = hash_bytes(key);
                    let is_key = |i: usize| {
                        let s = slots[i];
                        s.hash == hash as u32 && same_bytes(g.slice(s.key, s.key_len as usize), key)
                    };
                    match probe(ctrl, hash, is_key) {
                        Ok(i) => {
                            combine(g.slice_mut(slots[i].val(), val_size), val);
                            *combines += 1;
                        }
                        Err(_) if *len == room => {
                            pending = Some((k, v));
                            return Ok(Run::Full);
                        }
                        Err(i) => match g.reserve(h, key.len() + val_size) {
                            Ok(ptr) => {
                                let key_len = key.len() as u32;
                                let slot = Slot { hash: hash as u32, key: ptr, key_len };
                                g.slice_mut(ptr, key.len()).copy_from_slice(key);
                                g.slice_mut(slot.val(), val_size).copy_from_slice(val);
                                ctrl[i] = tag(hash);
                                slots[i] = slot;
                                *len += 1;
                            }
                            Err(oom) => {
                                pending = Some((k, v));
                                return if applied { Ok(Run::OutOfBudget) } else { Err(oom) };
                            }
                        },
                    }
                    applied = true;
                }
                Ok(Run::Done)
            })?;
            match run {
                Run::Done => return Ok(()),
                Run::Full => self.grow(),
                Run::OutOfBudget => {}
            }
        }
    }

    /// Double the table, re-placing every entry from its stored hash bits:
    /// a home slot is the hash's low bits, and the probe below matches no
    /// key, so the tag bits it would compare never matter.
    fn grow(&mut self) {
        let cap = self.ctrl.len() * 2;
        let mut ctrl = vec![EMPTY; cap];
        let mut slots = vec![VACANT; cap];
        for (i, &c) in self.ctrl.iter().enumerate().filter(|&(_, &c)| c != EMPTY) {
            let slot = self.slots[i];
            let Err(j) = probe(&ctrl, u64::from(slot.hash), |_| false) else { unreachable!() };
            ctrl[j] = c;
            slots[j] = slot;
        }
        self.ctrl = ctrl;
        self.slots = slots;
    }

    /// Visit every `(key bytes, value bytes)` pair, in table order.
    pub fn for_each(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        mut f: impl FnMut(&[u8], &[u8]),
    ) -> Result<(), MemError> {
        let val_size = self.val_size;
        let (ctrl, slots) = (&self.ctrl, &self.slots);
        mm.with_group(&self.group, heap, |g| {
            for (i, _) in ctrl.iter().enumerate().filter(|&(_, &c)| c != EMPTY) {
                let s = slots[i];
                f(g.slice(s.key, s.key_len as usize), g.slice(s.val(), val_size));
            }
        })
    }

    /// End the buffer's lifetime and release its page group.
    pub fn release(self, mm: &mut MemoryManager, heap: &mut Heap) {
        mm.release(self.group, heap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_check::rng::SplitMix64;
    use deca_heap::HeapConfig;
    use std::collections::HashMap;
    use std::path::PathBuf;

    fn setup() -> (Heap, MemoryManager) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "deca-varshuffle-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        (Heap::new(HeapConfig::small()), MemoryManager::new(8192, dir))
    }

    fn add_i64(existing: &mut [u8], new: &[u8]) {
        let a = i64::from_le_bytes(existing[..8].try_into().unwrap());
        let b = i64::from_le_bytes(new[..8].try_into().unwrap());
        existing[..8].copy_from_slice(&(a + b).to_le_bytes());
    }

    #[test]
    fn string_keyed_wordcount() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        let words = ["the", "quick", "fox", "the", "fox", "the", "a-much-longer-word"];
        let mut expected: HashMap<&str, i64> = HashMap::new();
        for w in words {
            *expected.entry(w).or_insert(0) += 1;
            buf.insert(&mut mm, &mut heap, w.as_bytes(), &1i64.to_le_bytes(), add_i64).unwrap();
        }
        assert_eq!(buf.len(), expected.len());
        assert_eq!(buf.combines, words.len() as u64 - expected.len() as u64);
        let mut got: HashMap<String, i64> = HashMap::new();
        buf.for_each(&mut mm, &mut heap, |k, v| {
            got.insert(
                String::from_utf8(k.to_vec()).unwrap(),
                i64::from_le_bytes(v[..8].try_into().unwrap()),
            );
        })
        .unwrap();
        for (k, v) in expected {
            assert_eq!(got[k], v);
        }
        buf.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn many_distinct_variable_keys_grow_table() {
        let (mut heap, mut mm) = setup();
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        for i in 0..5_000u32 {
            let key = format!("key-{i:05}-{}", "x".repeat((i % 17) as usize));
            buf.insert(&mut mm, &mut heap, key.as_bytes(), &(i as i64).to_le_bytes(), add_i64)
                .unwrap();
        }
        assert_eq!(buf.len(), 5_000);
        let mut n = 0usize;
        let mut sum = 0i64;
        buf.for_each(&mut mm, &mut heap, |k, v| {
            assert!(k.starts_with(b"key-"));
            n += 1;
            sum += i64::from_le_bytes(v[..8].try_into().unwrap());
        })
        .unwrap();
        assert_eq!(n, 5_000);
        assert_eq!(sum, (0..5_000i64).sum::<i64>());
        buf.release(&mut mm, &mut heap);
    }

    #[test]
    fn prefix_keys_do_not_collide() {
        // "ab" and "abc" share a byte prefix; the stored lengths tell them
        // apart.
        let (mut heap, mut mm) = setup();
        let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
        for (k, v) in [("ab", 1i64), ("abc", 10), ("ab", 2), ("abc", 20), ("a", 100)] {
            buf.insert(&mut mm, &mut heap, k.as_bytes(), &v.to_le_bytes(), add_i64).unwrap();
        }
        let mut got: HashMap<String, i64> = HashMap::new();
        buf.for_each(&mut mm, &mut heap, |k, v| {
            got.insert(
                String::from_utf8(k.to_vec()).unwrap(),
                i64::from_le_bytes(v[..8].try_into().unwrap()),
            );
        })
        .unwrap();
        assert_eq!(got["ab"], 3);
        assert_eq!(got["abc"], 30);
        assert_eq!(got["a"], 100);
        buf.release(&mut mm, &mut heap);
    }

    /// A batch whose new keys run out of heap mid-run evicts the swappable
    /// cache group and resumes at the key that did not fit: every record
    /// is applied exactly once.
    #[test]
    fn a_run_out_of_budget_resumes_after_eviction() {
        use deca_check::property::{check, gens, Config};
        check(
            Config::with_cases(12),
            gens::vec_of(gens::pair(gens::u32_in(0..3_000), gens::i64_in(-50..50)), 800..1_600),
            |stream| {
                let (mut heap, mut mm) = setup();
                let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
                let key = |k: u32| format!("k{k}-{}", "y".repeat((k % 13) as usize));
                // One record opens the first page, which the run below
                // partly fills before it needs another ...
                buf.insert(&mut mm, &mut heap, b"first", &1i64.to_le_bytes(), add_i64).unwrap();
                // ... by which time the cache holds all the budget left.
                let victim = mm.create_group();
                while mm
                    .with_group_mut(&victim, &mut heap, |g, h| g.append(h, &[3u8; 8192]))
                    .is_ok()
                {}
                let pairs = stream.iter().map(|&(k, v)| (key(k), v.to_le_bytes()));
                buf.insert_all(&mut mm, &mut heap, pairs, add_i64).unwrap();
                let mut expected: HashMap<Vec<u8>, i64> = HashMap::new();
                expected.insert(b"first".to_vec(), 1);
                for &(k, v) in stream {
                    *expected.entry(key(k).into_bytes()).or_insert(0) += v;
                }
                deca_check::prop_assert!(mm.is_swapped(&victim), "the cache group was evicted");
                let mut got: HashMap<Vec<u8>, i64> = HashMap::new();
                buf.for_each(&mut mm, &mut heap, |k, v| {
                    got.insert(k.to_vec(), i64::from_le_bytes(v.try_into().unwrap()));
                })
                .unwrap();
                deca_check::prop_assert_eq!(got, expected);
                deca_check::prop_assert_eq!(
                    buf.combines + buf.len() as u64,
                    stream.len() as u64 + 1
                );
                buf.release(&mut mm, &mut heap);
                mm.release(victim, &mut heap);
                deca_check::prop_assert_eq!(heap.external_bytes(), 0);
                Ok(())
            },
        );
    }

    /// Key `k` of the differential stream. Keys 0..7 have the boundary
    /// lengths 0, 7, 8, 9, 15, 16 and 17 and are prefixes of one another;
    /// every other key draws its length (0..40) and bytes from `(salt, k)`,
    /// so short keys repeat and long ones rarely do.
    fn diff_key(salt: u32, k: u32) -> Vec<u8> {
        const FORCED: [usize; 7] = [0, 7, 8, 9, 15, 16, 17];
        let (len, seed) = match FORCED.get(k as usize) {
            Some(&len) => (len, u64::from(salt)),
            None => {
                let seed = u64::from(salt) << 32 | u64::from(k);
                (SplitMix64::new(seed).next_u64() as usize % 40, seed)
            }
        };
        let mut rng = SplitMix64::new(seed ^ 0x5eed);
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    /// The buffer against a `HashMap` oracle over keys of every tail
    /// length: each case grows the table at least three times and runs out
    /// of budget once (the cache group is evicted and the run resumes).
    #[test]
    fn matches_a_hash_map_oracle_across_growths_and_a_resume() {
        use deca_check::property::{check, gens, Config};
        use std::cell::Cell;
        const CASES: u32 = 6;
        // Cases that reached three growths and the resume.
        let covered = Cell::new(0);
        check(
            Config::with_cases(CASES),
            gens::pair(
                gens::any_u32(),
                gens::vec_of(
                    gens::pair(gens::u32_in(0..6_000), gens::i64_in(-50..50)),
                    5_000..7_000,
                ),
            ),
            |(salt, stream)| {
                let (mut heap, mut mm) = setup();
                let mut buf = DecaVarHashShuffle::new(&mut mm, 8);
                let mut oracle: HashMap<Vec<u8>, i64> = HashMap::new();
                let first = diff_key(*salt, 0);
                buf.insert(&mut mm, &mut heap, &first, &1i64.to_le_bytes(), add_i64).unwrap();
                oracle.insert(first, 1);
                let victim = mm.create_group();
                while mm
                    .with_group_mut(&victim, &mut heap, |g, h| g.append(h, &[3u8; 8192]))
                    .is_ok()
                {}
                let pairs: Vec<(Vec<u8>, i64)> = (0..7)
                    .map(|k| (k, 7))
                    .chain(stream.iter().copied())
                    .map(|(k, v)| (diff_key(*salt, k), v))
                    .collect();
                for (k, v) in &pairs {
                    *oracle.entry(k.clone()).or_insert(0) += v;
                }
                let applied = pairs.iter().map(|(k, v)| (k.as_slice(), v.to_le_bytes()));
                buf.insert_all(&mut mm, &mut heap, applied, add_i64).unwrap();
                let (mut got, mut visits) = (HashMap::new(), 0);
                buf.for_each(&mut mm, &mut heap, |k, v| {
                    got.insert(k.to_vec(), i64::from_le_bytes(v.try_into().unwrap()));
                    visits += 1;
                })
                .unwrap();
                deca_check::prop_assert_eq!((buf.len(), visits), (oracle.len(), oracle.len()));
                deca_check::prop_assert_eq!(got, oracle);
                deca_check::prop_assert_eq!(
                    buf.combines + buf.len() as u64,
                    pairs.len() as u64 + 1
                );
                // 17 off-page bytes a slot; the table starts at 1024 slots.
                if buf.off_page_bytes() >= 17 * (1024 << 3) && mm.is_swapped(&victim) {
                    covered.set(covered.get() + 1);
                }
                buf.release(&mut mm, &mut heap);
                mm.release(victim, &mut heap);
                deca_check::prop_assert_eq!(heap.external_bytes(), 0);
                Ok(())
            },
        );
        assert_eq!(covered.get(), CASES, "every case grew three times and resumed once");
    }
}
