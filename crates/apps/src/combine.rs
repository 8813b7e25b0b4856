//! The combine-by-key shuffle of WordCount (integer and text keys),
//! PageRank and ConnectedComponents: a map-side table that eagerly combines
//! each key's values, a partitioned write, the exchange, and a reduce-side
//! table that combines the subtotals in map-task order, then folds each key.
//! SQL's Q2 and Q3 group-bys insert into one table and fold it, with no
//! exchange.
//!
//! A shuffle buffer is one container (§4.2, §4.3.2), and [`Table::new`] is
//! the one place that reads the mode to pick its form. Spark and SparkSer
//! use a [`SparkHashShuffle`]: the map stores each pair's map-output object
//! (a `Tuple2` of the key's box and the value's graph, or a text key's
//! `String`), reads it back and inserts it, and each combine allocates a
//! new value object; runs are Kryo. Deca combines in place in a
//! [`DecaHashShuffle`] (8-byte keys) or [`DecaVarHashShuffle`] (byte
//! strings), takes keys borrowed, and hands its runs of raw records over as
//! pages. A value is a boxed scalar or a fixed-size declared record
//! ([`Value`]). The combine function is a type parameter, so each insert
//! loop is monomorphised for it. A table is obtained only through
//! [`Table::scope`], which releases it on every exit.

use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use deca_core::{DecaHashShuffle, DecaVarHashShuffle, MemoryManager, PageRun};
use deca_core::{DecaRecord, ShuffleArena};
use deca_engine::record::{
    load_str_into, store_str, BoxedScalar, HeapKey, PairClasses, StringClasses,
};
use deca_engine::{EngineError, ExecutionMode, Executor, HeapRecord, JobCtx, KryoSim};
use deca_engine::{MapOutputs, Record, ShufflePayload, SparkHashShuffle, TaskContext};
use deca_heap::{Heap, ObjRef, OomError};

/// A combined value: a boxed scalar or a fixed-size declared record. Its
/// `DecaRecord` bytes sit in Deca's pages, its graph in the Spark modes'
/// objects, as the second part of a map output's `Tuple2`.
pub(crate) trait Value: Record + Copy + Sync {
    /// Its page bytes, a byte array of its fixed size.
    type Bytes: AsRef<[u8]> + AsMut<[u8]> + Default;
    /// Page bytes per value.
    const WIDTH: usize = size_of::<Self::Bytes>();
}

impl<T: BoxedScalar + Send + Sync> Value for T {
    type Bytes = T::Word;
}

fn bytes<V: Value>(value: V) -> V::Bytes {
    debug_assert_eq!(V::FIXED_SIZE, Some(V::WIDTH));
    let mut out = V::Bytes::default();
    value.encode(out.as_mut());
    out
}

/// `combine` applied in place to a value's bytes: how a page table
/// combines.
pub(crate) fn combine_bytes<V: Value>(combine: impl Fn(V, V) -> V) -> impl FnMut(&mut [u8], &[u8]) {
    move |acc: &mut [u8], add: &[u8]| combine(V::decode(acc), V::decode(add)).encode(acc)
}

/// An integer key's reducer, as Spark's hash partitioner picks it.
pub(crate) fn modulo(key: i64, reducers: usize) -> usize {
    (key as u64 % reducers as u64) as usize
}

/// A key shape: how its keys sit in each mode's table and travel from the
/// map to the reduce. `In` is a key as the map emits it (and a Spark
/// reducer decodes it), `View` as the partitioner and the fold read it.
pub(crate) trait Keys: Sync {
    type In<'a>: Copy;
    type View<'a>: Copy;
    /// What the Spark table is probed with; it owns a copy of each key.
    type Probe: ?Sized + Hash + Eq + ToOwned<Owned: Record + HeapKey + Eq + Hash>;
    /// The Spark map's output-object classes for values `V`, and scratch.
    type Output<V: Value>;
    /// A key's bytes in Deca's table.
    type Bytes<'a>: AsRef<[u8]>;
    /// Kryo bytes per record a Spark run is sized for.
    const WIRE_BYTES: usize;

    fn output<V: Value>(heap: &mut Heap) -> Self::Output<V>;
    /// Store the map-output object of `(key, value)`, and read it back.
    fn materialise<'o, V: Value>(
        heap: &mut Heap,
        output: &'o mut Self::Output<V>,
        key: Self::In<'_>,
        value: V,
    ) -> Result<(Self::In<'o>, V), OomError>;
    fn probe<'k>(key: &'k Self::In<'_>) -> &'k Self::Probe;
    /// A key as the Spark table reads it back off the heap.
    fn view<'k>(key: HeapView<'k, Self>) -> Self::View<'k>;
    /// Serialize one combined pair straight from the Spark table's key
    /// and value objects.
    fn serialize<V: Value>(
        kryo: &mut KryoSim,
        heap: &Heap,
        table: &SparkHashShuffle<Owned<Self>, V>,
        pair: (ObjRef, ObjRef),
        out: &mut Vec<u8>,
    );
    /// Decode one run, under the deserializer's timer.
    fn deserialize<'b, V: Value>(kryo: &mut KryoSim, run: &'b [u8]) -> Vec<(Self::In<'b>, V)>;
    /// An empty table of `V`s expected to hold `keys` distinct keys.
    fn pages<V: Value>(mm: &mut MemoryManager, keys: usize) -> Pages;
    fn key_bytes<'a>(key: Self::In<'a>) -> Self::Bytes<'a>;
    /// A key read back from its bytes in the table.
    fn stored(key: &[u8]) -> Self::View<'_>;
    /// The raw records of a run's page of `V`s.
    fn records<V: Value>(page: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])>;
    fn push_record(run: &mut PageRun, arena: &mut ShuffleArena, key: Self::View<'_>, val: &[u8]);
}

/// The Spark table's key of shape `K`.
type Owned<K> = <<K as Keys>::Probe as ToOwned>::Owned;

/// A key of shape `K` as the Spark table reads it back off the heap.
type HeapView<'b, K> = <Owned<K> as HeapKey>::View<'b>;

/// `i64` keys (word and vertex ids, SQL's groups): a `Tuple2` of the key's
/// box and the value's graph on the heap, a Kryo `(k, v)` pair on the
/// wire, and an `[k|v]` page record (no record spans pages).
pub(crate) enum IntKeys {}

impl Keys for IntKeys {
    type In<'a> = i64;
    type View<'a> = i64;
    type Probe = i64;
    type Output<V: Value> = PairClasses<V::Classes>;
    type Bytes<'a> = [u8; 8];
    // ~2-byte tag + varint key + value.
    const WIRE_BYTES: usize = 16;

    fn output<V: Value>(heap: &mut Heap) -> PairClasses<V::Classes> {
        <(i64, V) as HeapRecord>::register(heap)
    }

    fn materialise<V: Value>(
        heap: &mut Heap,
        classes: &mut PairClasses<V::Classes>,
        key: i64,
        value: V,
    ) -> Result<(i64, V), OomError> {
        let tuple = (key, value).store(heap, classes)?;
        let slot = heap.push_stack(tuple);
        let pair = <(i64, V) as HeapRecord>::load(heap, classes, heap.stack_ref(slot));
        heap.truncate_stack(slot);
        Ok(pair)
    }

    fn probe(key: &i64) -> &i64 {
        key
    }

    fn view<'k>(key: HeapView<'k, Self>) -> Self::View<'k> {
        key
    }

    /// One `(k, v)` pair record.
    fn serialize<V: Value>(
        kryo: &mut KryoSim,
        heap: &Heap,
        table: &SparkHashShuffle<i64, V>,
        pair: (ObjRef, ObjRef),
        out: &mut Vec<u8>,
    ) {
        kryo.serialize_heap_pair::<i64, V>(heap, table.classes(), pair, out);
    }

    fn deserialize<V: Value>(kryo: &mut KryoSim, run: &[u8]) -> Vec<(i64, V)> {
        kryo.deserialize_all(run)
    }

    fn pages<V: Value>(mm: &mut MemoryManager, keys: usize) -> Pages {
        Pages::Fixed(DecaHashShuffle::with_keys(mm, 8, V::WIDTH, keys))
    }

    fn key_bytes<'a>(key: Self::In<'a>) -> Self::Bytes<'a> {
        key.to_le_bytes()
    }

    fn stored(key: &[u8]) -> i64 {
        i64::decode(key)
    }

    fn records<V: Value>(page: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
        page.chunks_exact(8 + V::WIDTH).map(|r| r.split_at(8))
    }

    fn push_record(run: &mut PageRun, arena: &mut ShuffleArena, key: i64, val: &[u8]) {
        run.push_parts(arena, &[&key.to_le_bytes(), val]);
    }
}

/// Text tokens: a `java.lang.String` + `char[]` graph on the heap, a Kryo
/// string then the value on the wire, and a `[u32 len|key|value]` page
/// record (no frame spans pages). Deca never builds an owned key, and its
/// table takes no size hint.
pub(crate) enum TextKeys {}

impl Keys for TextKeys {
    type In<'a> = &'a str;
    type View<'a> = &'a [u8];
    type Probe = str;
    /// The `String` classes, and the buffer a token's chars decode into.
    type Output<V: Value> = (StringClasses, String);
    type Bytes<'a> = &'a [u8];
    // Tokens average ~8 bytes, plus framing and the value.
    const WIRE_BYTES: usize = 24;

    fn output<V: Value>(heap: &mut Heap) -> (StringClasses, String) {
        (<String as HeapRecord>::register(heap), String::new())
    }

    fn materialise<'o, V: Value>(
        heap: &mut Heap,
        (classes, word): &'o mut (StringClasses, String),
        key: &str,
        value: V,
    ) -> Result<(&'o str, V), OomError> {
        let token = store_str(heap, classes, key)?;
        load_str_into(heap, token, word);
        Ok((word, value))
    }

    fn probe<'k>(key: &'k &str) -> &'k str {
        key
    }

    fn view<'k>(key: HeapView<'k, Self>) -> Self::View<'k> {
        key.as_bytes()
    }

    /// A string record, then the value's record.
    fn serialize<V: Value>(
        kryo: &mut KryoSim,
        heap: &Heap,
        table: &SparkHashShuffle<String, V>,
        (key, value): (ObjRef, ObjRef),
        out: &mut Vec<u8>,
    ) {
        let (key_classes, value_classes) = table.classes();
        kryo.serialize_heap::<String>(heap, key_classes, key, out);
        kryo.serialize_heap::<V>(heap, value_classes, value, out);
    }

    fn deserialize<'b, V: Value>(kryo: &mut KryoSim, run: &'b [u8]) -> Vec<(&'b str, V)> {
        kryo.time_deser(|kr| {
            let (mut pairs, mut pos) = (Vec::new(), 0);
            while pos < run.len() {
                let k = kr.deserialize_str(run, &mut pos);
                pairs.push((k, kr.deserialize(run, &mut pos)));
            }
            pairs
        })
    }

    fn pages<V: Value>(mm: &mut MemoryManager, keys: usize) -> Pages {
        debug_assert_eq!(keys, 0, "a text table is never pre-sized");
        Pages::Var(DecaVarHashShuffle::new(mm, V::WIDTH))
    }

    fn key_bytes<'a>(key: Self::In<'a>) -> Self::Bytes<'a> {
        key.as_bytes()
    }

    fn stored(key: &[u8]) -> &[u8] {
        key
    }

    fn records<V: Value>(page: &[u8]) -> impl Iterator<Item = (&[u8], &[u8])> {
        let mut pos = 0;
        std::iter::from_fn(move || {
            let klen = u32::from_le_bytes(*page.get(pos..)?.first_chunk()?) as usize;
            let (key, val) = page[pos + 4..pos + 4 + klen + V::WIDTH].split_at(klen);
            pos += 4 + klen + V::WIDTH;
            Some((key, val))
        })
    }

    fn push_record(run: &mut PageRun, arena: &mut ShuffleArena, key: &[u8], val: &[u8]) {
        run.push_parts(arena, &[&(key.len() as u32).to_le_bytes(), key, val]);
    }
}

/// Deca's two combine tables.
pub(crate) enum Pages {
    Fixed(DecaHashShuffle),
    Var(DecaVarHashShuffle),
}

/// `$body` over the page table `$pages` holds, bound to `$t`: the two
/// tables share their insert, walk and release.
macro_rules! with_table {
    ($pages:expr, $t:ident => $body:expr) => {
        match $pages {
            Pages::Fixed($t) => $body,
            Pages::Var($t) => $body,
        }
    };
}

/// One task's combine table, in the form its mode names.
pub(crate) struct Table<K: Keys, V: Value, C> {
    store: Store<K, V>,
    combine: C,
}

enum Store<K: Keys, V: Value> {
    Heap(SparkHashShuffle<Owned<K>, V>, K::Output<V>),
    Pages(Pages),
}

impl<K: Keys, V: Value, C: Fn(V, V) -> V + Copy> Table<K, V, C> {
    /// Run `body` over an empty table in the form `mode` names, and end the
    /// table's lifetime on every exit: the one way to obtain a table.
    pub(crate) fn scope<R>(
        e: &mut Executor,
        mode: ExecutionMode,
        keys: usize,
        combine: C,
        body: impl FnOnce(&mut Executor, &mut Self) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let mut table = Table::new(e, mode, keys, combine)?;
        let out = body(e, &mut table);
        table.release(e);
        out
    }

    /// Heap objects in the Spark modes; pages for `keys` keys in Deca.
    fn new(
        e: &mut Executor,
        mode: ExecutionMode,
        keys: usize,
        combine: C,
    ) -> Result<Self, EngineError> {
        let store = match mode {
            ExecutionMode::Spark | ExecutionMode::SparkSer => {
                let output = K::output::<V>(&mut e.heap);
                Store::Heap(SparkHashShuffle::new(&mut e.heap)?, output)
            }
            ExecutionMode::Deca => Store::Pages(K::pages::<V>(&mut e.mm, keys)),
        };
        Ok(Table { store, combine })
    }

    /// Insert the map's pairs in order, each combining into its key's value.
    pub(crate) fn insert_all<'a>(
        &mut self,
        e: &mut Executor,
        pairs: impl IntoIterator<Item = (K::In<'a>, V)>,
    ) -> Result<(), EngineError> {
        let combine = self.combine;
        match &mut self.store {
            Store::Heap(table, output) => {
                for (k, v) in pairs {
                    let (k, v) = K::materialise(&mut e.heap, output, k, v)?;
                    table.insert(&mut e.heap, K::probe(&k), v, combine)?;
                }
            }
            Store::Pages(table) => {
                let pairs = pairs.into_iter().map(|(k, v)| (K::key_bytes(k), bytes(v)));
                let combine = combine_bytes(combine);
                with_table!(table, t => t.insert_all(&mut e.mm, &mut e.heap, pairs, combine))?;
            }
        }
        Ok(())
    }

    /// The shuffle write: one run per reducer.
    fn write(
        &self,
        e: &mut Executor,
        reducers: usize,
        partition: impl Fn(K::View<'_>, usize) -> usize,
    ) -> Result<MapOutputs, EngineError> {
        match &self.store {
            Store::Heap(table, _) => {
                let cap = K::WIRE_BYTES * table.len().div_ceil(reducers);
                let mut out: Vec<_> = (0..reducers).map(|_| e.take_shuffle_buf(cap)).collect();
                let heap = &e.heap;
                e.kryo.time_ser(|kr| {
                    table.for_each_object(heap, |k, kobj, vobj| {
                        let run = &mut out[partition(K::view(k), reducers)];
                        K::serialize(kr, heap, table, (kobj, vobj), run);
                    })
                });
                Ok(out.into_iter().map(ShufflePayload::from).collect())
            }
            Store::Pages(table) => {
                let mut runs: Vec<_> = (0..reducers).map(|_| e.arena.new_run()).collect();
                let (mm, heap, arena) = (&mut e.mm, &mut e.heap, &mut e.arena);
                with_table!(table, t => t.for_each(mm, heap, |k, v| {
                    let k = K::stored(k);
                    K::push_record(&mut runs[partition(k, reducers)], arena, k, v)
                }))?;
                Ok(runs.into_iter().map(|run| e.hand_over(run)).collect())
            }
        }
    }

    /// The shuffle read: combine every record of `runs`, in run order.
    fn read(&mut self, e: &mut Executor, runs: &[ShufflePayload]) -> Result<(), EngineError> {
        let combine = self.combine;
        match &mut self.store {
            Store::Heap(table, _) => {
                for run in runs {
                    let run = run.contiguous();
                    for (k, v) in K::deserialize::<V>(&mut e.kryo, &run) {
                        table.insert(&mut e.heap, K::probe(&k), v, combine)?;
                    }
                }
            }
            Store::Pages(table) => {
                let recs = runs.iter().flat_map(|run| run.chunks()).flat_map(K::records::<V>);
                let combine = combine_bytes(combine);
                with_table!(table, t => t.insert_all(&mut e.mm, &mut e.heap, recs, combine))?;
            }
        }
        Ok(())
    }

    /// Fold every `(key, value)` into a fresh `R`, in table order.
    pub(crate) fn fold<R: Default>(
        &self,
        e: &mut Executor,
        fold: impl Fn(&mut R, K::View<'_>, V),
    ) -> Result<R, EngineError> {
        let mut acc = R::default();
        match &self.store {
            Store::Heap(table, _) => table.for_each(&e.heap, |k, v| fold(&mut acc, K::view(k), v)),
            Store::Pages(table) => {
                with_table!(table, t => t.for_each(&mut e.mm, &mut e.heap, |k, v| {
                    fold(&mut acc, K::stored(k), V::decode(v))
                }))?
            }
        }
        Ok(acc)
    }

    /// End the table's lifetime: its root dies, or its group is released.
    fn release(self, e: &mut Executor) {
        match self.store {
            Store::Heap(mut table, _) => table.release(&mut e.heap),
            Store::Pages(table) => with_table!(table, t => t.release(&mut e.mm, &mut e.heap)),
        }
    }
}

/// For a shuffle a job repeats over the same keys: the distinct keys each
/// map (and reduce) task's Deca table held when it last completed, which
/// the next run's task of the same index sizes its table for. A count
/// belongs to the index, not an executor, so stolen, retried or speculative
/// attempts share it; it is only a hint, so the atomics are relaxed.
pub(crate) struct TableSizes {
    /// `[map, reduce]`, per task index.
    keys: [Vec<AtomicUsize>; 2],
    /// `[map, reduce]` growths of every recorded table.
    grows: [AtomicU64; 2],
}

const MAP: usize = 0;
const REDUCE: usize = 1;

impl TableSizes {
    pub(crate) fn new(partitions: usize) -> TableSizes {
        let zeros = || (0..partitions).map(|_| AtomicUsize::new(0)).collect();
        TableSizes { keys: [zeros(), zeros()], grows: Default::default() }
    }

    /// Growths of the recorded `(map, reduce)` tables so far.
    #[cfg(test)]
    pub(crate) fn grows(&self) -> (u64, u64) {
        let [map, reduce] = &self.grows;
        (map.load(Ordering::Relaxed), reduce.load(Ordering::Relaxed))
    }
}

/// One combine-by-key shuffle job, stages `{name}-map` and
/// `{name}-reduce`.
pub(crate) struct Shuffle<'s, K, C, P> {
    pub(crate) name: &'s str,
    /// The key shape, [`IntKeys`] or [`TextKeys`].
    pub(crate) keys: PhantomData<K>,
    pub(crate) mode: ExecutionMode,
    /// Map tasks, one per input partition, and as many reducers.
    pub(crate) partitions: usize,
    /// A key's reducer, given the reducer count.
    pub(crate) partition: P,
    /// How two values of one key combine.
    pub(crate) combine: C,
    /// Size hints for Deca's tables, when the job repeats the shuffle.
    pub(crate) sizes: Option<&'s TableSizes>,
}

impl<K: Keys, C: Sync, P: Sync> Shuffle<'_, K, C, P> {
    /// Run the job: `map` inserts task `ctx.task`'s pairs, and each reducer
    /// folds its combined keys into an `R`. Returns the `R`s in reducer
    /// order.
    pub(crate) fn run<V: Value, R: Default + Send, M>(
        &self,
        job_ctx: &mut JobCtx,
        map: M,
        fold: impl Fn(&mut R, K::View<'_>, V) + Sync,
    ) -> Result<Vec<R>, EngineError>
    where
        M: Fn(&TaskContext, &mut Executor, &mut Table<K, V, C>) -> Result<(), EngineError> + Sync,
        C: Fn(V, V) -> V + Copy,
        P: Fn(K::View<'_>, usize) -> usize,
    {
        let reducers = self.partitions;
        job_ctx.run_shuffle_job(
            self.name,
            reducers,
            reducers,
            |ctx, e| {
                let keys = self.keys(MAP, ctx.task);
                Table::scope(e, self.mode, keys, self.combine, |e, table| {
                    map(ctx, e, table)?;
                    self.record(MAP, ctx.task, table);
                    e.shuffle_write_scope(|e| table.write(e, reducers, &self.partition))
                })
            },
            |ctx, e, runs| {
                let keys = self.keys(REDUCE, ctx.task);
                Table::scope(e, self.mode, keys, self.combine, |e, table| {
                    e.shuffle_read_scope(|e| table.read(e, runs))?;
                    self.record(REDUCE, ctx.task, table);
                    table.fold(e, &fold)
                })
            },
        )
    }

    /// The size hint for task `task`'s table on `side`.
    fn keys(&self, side: usize, task: usize) -> usize {
        self.sizes.map_or(0, |s| s.keys[side][task].load(Ordering::Relaxed))
    }

    /// Remember a filled Deca table's size for the next run.
    fn record<V: Value>(&self, side: usize, task: usize, table: &Table<K, V, C>) {
        if let (Some(sizes), Store::Pages(pages)) = (self.sizes, &table.store) {
            let (keys, grows) = match pages {
                Pages::Fixed(t) => (t.len(), t.grows),
                Pages::Var(t) => (t.len(), 0),
            };
            sizes.keys[side][task].store(keys, Ordering::Relaxed);
            sizes.grows[side].fetch_add(grows, Ordering::Relaxed);
        }
    }
}
