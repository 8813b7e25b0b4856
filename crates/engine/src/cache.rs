//! The cache manager: cached RDD blocks in a three-tier store with a
//! crash-consistent cold tier.
//!
//! **Tiers.** Every block sits in one of three tiers:
//!
//! * **hot** — directly scannable in memory: `Objects` blocks (Spark) hold
//!   a heap `Object[]` of record graphs; resident `Deca` blocks hold
//!   decomposed pages managed by `deca-core`;
//! * **warm** — in memory but serialized: `Serialized` blocks hold one
//!   heap `byte[]` of Kryo bytes (SparkSer's native format, and where
//!   demoted Spark blocks land first — the Kolokasis et al. middle ground
//!   between collecting object graphs and paying disk I/O);
//! * **cold** — on disk: `Disk` blocks (serialized payload files) and
//!   `Deca` blocks whose page group is swapped out.
//!
//! **One victim order.** Every victim search goes through one picker,
//! which takes the block with the lowest `(access_count, last_used, id)`:
//! the least-accessed block, ties going to the least recently used, then
//! to the oldest id. So `weight = access_count`, and equal-weight blocks
//! still age out LRU-fashion. Storage-budget pressure demotes the
//! victim one tier per step (hot → warm → cold); an object block's put,
//! promotion or restore that meets a full heap sends every other block
//! straight cold, collects, and tries once more. A block promotes back on
//! access. A Deca block owns its page group; releasing the block releases
//! the group, and nothing else holds it.
//!
//! **Ownership.** A block stays in the table through every tier move. A
//! move builds the block's new form and swaps it in only once that form
//! exists, so a move that fails leaves the block as it was: an error never
//! costs a block, a root or a page group. The one exception is a
//! demotion's no-room fallback: the object graph is unrooted before the
//! warm copy is allocated (so that allocation can collect it), and if the
//! cold write of the bytes in hand fails too, the block is released like
//! any other and the app's lineage recompute rebuilds it.
//!
//! **Crash consistency.** Every cold-tier mutation rewrites a *spill
//! manifest* (`spill-manifest.json` in the cache dir): a checksummed JSON
//! record of each on-disk payload — a [`hash_bytes`] digest per payload
//! plus one of the whole document — written to a temp file and atomically
//! renamed.
//! After an executor crash, restart-in-place calls [`CacheManager::
//! crash_restart`]: volatile tiers (hot/warm) are dropped, and each cold
//! block is kept only if the manifest vouches for it (id, kind, sizes and
//! payload digest all match). Anything the manifest cannot verify — or
//! the whole cold tier, if the manifest itself fails its checksum — is
//! discarded, and the app's lineage-recompute path rebuilds it. Deca rows
//! name the group by its [`GroupId`] — slot *and* generation, so a row
//! never vouches for a later occupant of the slot — and persist its
//! per-page sizes, the one part of the spill record that otherwise lives
//! only in [`deca_core::MemoryManager`] memory.
//!
//! The spill/restore/manifest path is fault-instrumented: the four
//! [`FaultSite`] kill points (`SpillWrite`, `ManifestCommit`, `SpillRead`,
//! `Rehydrate`) consult the installed [`FaultPlan`] and abort the
//! operation mid-flight, modelling the executor dying at exactly that
//! point; `tests/crash_recovery.rs` proves recovery from every one.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use deca_check::Json;
use deca_core::hash::hash_bytes;
use deca_core::{DecaCacheBlock, GroupId, MemError, MemoryManager};
use deca_heap::{FieldKind, Heap, ObjRef, OomError, RootId};

use crate::faults::{FaultPlan, FaultSite};
use crate::record::Record;
use crate::serde_sim::KryoSim;

/// Identifier of a cached block within an executor's cache manager.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct BlockId(u32);

/// The storage tier a block currently occupies.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Tier {
    /// Directly scannable in memory (object graphs or resident pages).
    Hot,
    /// In memory, serialized (one `byte[]`).
    Warm,
    /// On disk (payload file or swapped page group).
    Cold,
}

/// Cache errors.
#[derive(Debug)]
pub enum CacheError {
    Oom(OomError),
    Mem(MemError),
    Io(std::io::Error),
    /// A deterministic kill-point fault fired inside the spill/restore/
    /// manifest path: the operation was abandoned exactly where the
    /// modelled executor process died.
    Injected(FaultSite),
}

impl From<OomError> for CacheError {
    fn from(e: OomError) -> Self {
        CacheError::Oom(e)
    }
}

impl From<MemError> for CacheError {
    fn from(e: MemError) -> Self {
        CacheError::Mem(e)
    }
}

impl From<std::io::Error> for CacheError {
    fn from(e: std::io::Error) -> Self {
        CacheError::Io(e)
    }
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Oom(e) => write!(f, "cache: {e}"),
            CacheError::Mem(e) => write!(f, "cache: {e}"),
            CacheError::Io(e) => write!(f, "cache I/O: {e}"),
            CacheError::Injected(site) => write!(f, "cache: injected {site} crash"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Type-erased operations on an `Objects` block (needed to demote it
/// without knowing `T` at the eviction site). Both cross straight between
/// the block's heap graphs and its Kryo bytes, with no owned record in
/// between.
trait ObjectBlockOps: Send + Sync {
    /// Serialize all records of the block (for demotion) from their heap
    /// graphs into a buffer pre-sized to `capacity` bytes — the block's
    /// accounted heap footprint, which bounds its Kryo encoding.
    fn serialize(
        &self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        root: RootId,
        len: usize,
        capacity: usize,
    ) -> Vec<u8>;
    /// Re-materialise records from serialized bytes, each stored on the
    /// heap from its decoded page form; returns the new root.
    fn deserialize(
        &self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        bytes: &[u8],
    ) -> Result<RootId, OomError>;
}

/// An object block's operations, shared by every tier the block moves
/// through.
type BlockOps = Arc<dyn ObjectBlockOps>;

struct Ops<T: Record> {
    classes: T::Classes,
}

impl<T: Record + 'static> ObjectBlockOps for Ops<T>
where
    T::Classes: 'static,
{
    fn serialize(
        &self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        root: RootId,
        len: usize,
        capacity: usize,
    ) -> Vec<u8> {
        let arr = heap.root_ref(root);
        kryo.time_ser(|k| {
            let mut out = Vec::with_capacity(capacity);
            for i in 0..len {
                k.serialize_heap::<T>(heap, &self.classes, heap.array_get_ref(arr, i), &mut out);
            }
            out
        })
    }

    fn deserialize(
        &self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        bytes: &[u8],
    ) -> Result<RootId, OomError> {
        let recs = kryo.decode_block::<T>(bytes);
        store_object_array(heap, recs.len(), |heap, i| {
            T::store_page(recs.get(i), heap, &self.classes)
        })
    }
}

/// Allocate a heap `Object[]` of `len` records, each graph allocated by
/// `store(heap, i)`; returns a root id keeping the whole block alive. A
/// store that meets a full heap drops the root (a failed record store
/// leaves no part on the shadow stack), so the part-filled block is
/// garbage.
fn store_object_array(
    heap: &mut Heap,
    len: usize,
    mut store: impl FnMut(&mut Heap, usize) -> Result<ObjRef, OomError>,
) -> Result<RootId, OomError> {
    let arr_class = object_array_class(heap);
    let arr = heap.alloc_array(arr_class, len)?;
    let root = heap.add_root(arr);
    let filled = (0..len).try_for_each(|i| {
        let obj = store(heap, i)?;
        let arr = heap.root_ref(root);
        heap.array_set_ref(arr, i, obj);
        Ok(())
    });
    match filled {
        Ok(()) => Ok(root),
        Err(oom) => {
            heap.remove_root(root);
            Err(oom)
        }
    }
}

/// Allocate a heap `byte[]` holding `buf`; returns the root keeping it
/// alive.
fn alloc_bytes(heap: &mut Heap, buf: &[u8]) -> Result<RootId, OomError> {
    let cls = byte_array_class(heap);
    let arr = heap.alloc_array(cls, buf.len())?;
    heap.byte_array_write(arr, 0, buf);
    Ok(heap.add_root(arr))
}

/// The bytes of the rooted `byte[]` `root`.
fn read_byte_array(heap: &Heap, root: RootId) -> Vec<u8> {
    let arr = heap.root_ref(root);
    let mut buf = vec![0u8; heap.array_len(arr)];
    heap.byte_array_read(arr, 0, &mut buf);
    buf
}

/// The shared `Object[]` class (registered once per heap).
pub(crate) fn object_array_class(heap: &mut Heap) -> deca_heap::ClassId {
    match heap.registry().by_name("Object[]") {
        Some(c) => c,
        None => heap.define_array_class("Object[]", FieldKind::Ref),
    }
}

/// The shared `byte[]` class.
pub(crate) fn byte_array_class(heap: &mut Heap) -> deca_heap::ClassId {
    match heap.registry().by_name("byte[]") {
        Some(c) => c,
        None => heap.define_array_class("byte[]", FieldKind::I8),
    }
}

enum BlockState {
    /// Hot tier: a heap `Object[]` of record graphs.
    Objects { root: RootId, len: usize, ops: BlockOps },
    /// Warm tier: one heap `byte[]` of Kryo bytes. `ops` is `Some` for a
    /// demoted Objects block (so it can promote back to hot), `None` for
    /// a native SparkSer block. `mem_bytes` is the footprint the block's
    /// resident form restores: the hot graph's for a demoted block, the
    /// `byte[]`'s own for a native one.
    Serialized { root: RootId, len: usize, ops: Option<BlockOps>, mem_bytes: usize },
    /// Hot or cold tier depending on whether the page group is resident
    /// (residency is tracked by `deca-core`, not here).
    Deca { block: DecaCacheBlock },
    /// Cold tier: a serialized payload file. `ops` says how to
    /// re-materialise (graphs for an object block, a `byte[]` without),
    /// `mem_bytes` what residency will cost again, and `checksum` the
    /// digest the manifest records for the payload.
    Disk { len: usize, ops: Option<BlockOps>, mem_bytes: usize, checksum: u64 },
}

struct Entry {
    state: BlockState,
    /// Accounted in-memory bytes while resident; disk bytes when cold.
    bytes: usize,
    last_used: u64,
    /// Accesses since creation: the block's demotion weight.
    access_count: u64,
    /// Owning tenant (0 = untenanted single-job use). The server stamps
    /// the submitting tenant so budget isolation can shield one tenant's
    /// resident blocks from another tenant's pressure.
    tenant: u32,
    /// Owning job submission (0 = standalone session). Lets the server
    /// release a finished job's blocks without tracking ids app-side.
    job: u64,
}

/// One kind of tier move under pressure: which blocks the victim picker
/// may take, and how far each one goes.
#[derive(Clone, Copy)]
struct Pressure {
    /// Only this tenant's blocks (a budgeted tenant's own pass); `None`
    /// takes any block whose tenant is not shielded.
    tenant: Option<u32>,
    /// Never this block: the one being brought back in.
    keep: Option<BlockId>,
    /// Only page groups: a Deca put has no serializer in hand.
    pages_only: bool,
    /// Straight to the cold tier, because the caller needs heap bytes
    /// back, rather than one tier down.
    cold: bool,
}

/// Heap pressure: any block, straight to the cold tier.
const EVICT: Pressure = Pressure { tenant: None, keep: None, pages_only: false, cold: true };

/// What one `crash_restart` did, for the driver's trace/metrics wiring.
#[derive(Clone, Debug, Default)]
pub struct RehydrateOutcome {
    /// The manifest parsed and passed its whole-document checksum. When
    /// false the entire cold tier was discarded (graceful degradation to
    /// lineage recompute).
    pub manifest_ok: bool,
    /// Blocks kept from the cold tier: `(block id, payload bytes,
    /// cached records)` per manifest-verified block.
    pub rehydrated: Vec<(u32, u64, u64)>,
    /// Entries lost: volatile tiers wiped by the crash plus cold blocks
    /// the manifest could not vouch for.
    pub dropped: usize,
    /// A `Rehydrate` kill point fired partway: recovery was abandoned
    /// mid-scan and the executor died again. A later restart finishes the
    /// job (rehydration is idempotent).
    pub killed: bool,
}

/// One verified row of the parsed spill manifest.
#[derive(Debug)]
struct ManifestRow {
    id: u32,
    kind: String,
    len: u64,
    file_bytes: u64,
    checksum: u64,
    group: Option<GroupId>,
    page_sizes: Vec<usize>,
}

/// The manifest's format. v2 digests with [`hash_bytes`] (v1 used FNV-1a);
/// v3 names a Deca row's group by slot and generation (v2 by slot only).
/// A manifest of another schema never verifies, so its cold tier degrades
/// to lineage recompute instead of being checked the wrong way.
const MANIFEST_SCHEMA: &str = "deca-spill-manifest-v3";

/// How a manifest row names a page group: its slot and generation.
fn group_json(id: GroupId) -> Json {
    Json::obj(vec![
        ("slot", Json::int(id.slot().into())),
        ("generation", Json::int(id.generation().into())),
    ])
}

/// Per-executor cache manager.
pub struct CacheManager {
    entries: Vec<Option<Entry>>,
    clock: u64,
    budget: usize,
    dir: Option<PathBuf>,
    /// Bytes written/read to the cache's own block files (adds simulated
    /// disk time). A Deca block's page group is swapped by the memory
    /// manager, which counts that traffic itself.
    pub spill_write_bytes: u64,
    pub spill_read_bytes: u64,
    /// Cold-tier eviction events (a block moved to disk / swapped out).
    pub evictions: u64,
    /// Hot → warm demotion events (serialize-in-place, no disk I/O).
    pub demotions: u64,
    /// Installed fault plan + the running task's (stage, task, attempt),
    /// consulted at the spill-path kill points.
    probe: Option<FaultPlan>,
    probe_ctx: Option<(String, usize, u32)>,
    /// Tenant the currently running task belongs to: new blocks are
    /// stamped with it, and victim searches treat it as the tenant
    /// applying pressure.
    tenant_ctx: Option<u32>,
    /// Job the currently running task belongs to: new blocks are stamped
    /// with it so the server can release them when the job completes.
    job_ctx: Option<u64>,
    /// Per-tenant resident-byte budgets. A tenant at or under its budget
    /// is shielded from other tenants' evictions.
    tenant_budgets: Vec<(u32, usize)>,
    /// Cold-tier evictions per victim tenant.
    tenant_evictions: Vec<(u32, u64)>,
}

impl CacheManager {
    pub fn new(budget: usize) -> CacheManager {
        CacheManager {
            entries: Vec::new(),
            clock: 0,
            budget,
            dir: None,
            spill_write_bytes: 0,
            spill_read_bytes: 0,
            evictions: 0,
            demotions: 0,
            probe: None,
            probe_ctx: None,
            tenant_ctx: None,
            job_ctx: None,
            tenant_budgets: Vec::new(),
            tenant_evictions: Vec::new(),
        }
    }

    // ------------------------------------------------------------------
    // tenancy
    // ------------------------------------------------------------------

    /// Give `tenant` a resident-byte budget. While at or under it, the
    /// tenant's blocks cannot be victimized by *other* tenants' pressure
    /// (its own pressure may still demote them).
    pub fn set_tenant_budget(&mut self, tenant: u32, budget: usize) {
        match self.tenant_budgets.iter_mut().find(|(t, _)| *t == tenant) {
            Some(slot) => slot.1 = budget,
            None => self.tenant_budgets.push((tenant, budget)),
        }
    }

    /// Set the tenant new blocks are stamped with (and on whose behalf
    /// victim searches run). `None` reverts to untenanted behaviour.
    pub fn set_tenant_ctx(&mut self, tenant: Option<u32>) {
        self.tenant_ctx = tenant;
    }

    /// Set the job submission new blocks are stamped with (`None` reverts
    /// to standalone-session behaviour).
    pub fn set_job_ctx(&mut self, job: Option<u64>) {
        self.job_ctx = job;
    }

    /// Live block ids stamped with `job` (the server's end-of-job cleanup
    /// releases these so a long-lived shared executor never accumulates
    /// finished jobs' cache state).
    pub fn blocks_of_job(&self, job: u64) -> Vec<BlockId> {
        self.entries
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().filter(|e| e.job == job).map(|_| BlockId(i as u32)))
            .collect()
    }

    /// Cached bytes stamped with `job`, `[resident, on disk]` as
    /// [`CacheManager::resident_bytes`] and [`CacheManager::disk_bytes`]
    /// split them (their sum is the footprint apps report as their job's
    /// cache usage).
    pub fn job_bytes(&self, job: u64) -> [usize; 2] {
        [false, true].map(|disk| {
            self.sum_bytes(|e| e.job == job && matches!(e.state, BlockState::Disk { .. }) == disk)
        })
    }

    fn tenant_budget(&self, tenant: u32) -> Option<usize> {
        self.tenant_budgets.iter().find(|(t, _)| *t == tenant).map(|(_, b)| *b)
    }

    /// Resident in-memory bytes owned by `tenant` (Deca residency via
    /// `mm`, as in [`CacheManager::resident_in`]).
    pub fn tenant_resident_bytes(&self, tenant: u32, mm: &MemoryManager) -> usize {
        self.resident_in(Some(tenant), mm)
    }

    /// Cold-tier evictions whose victim belonged to `tenant`.
    pub fn tenant_evictions(&self, tenant: u32) -> u64 {
        self.tenant_evictions.iter().find(|(t, _)| *t == tenant).map(|(_, n)| *n).unwrap_or(0)
    }

    fn bump_tenant_eviction(&mut self, tenant: u32) {
        match self.tenant_evictions.iter_mut().find(|(t, _)| *t == tenant) {
            Some(slot) => slot.1 += 1,
            None => self.tenant_evictions.push((tenant, 1)),
        }
    }

    /// Tenants whose blocks this victim search must not touch: every
    /// budgeted tenant other than the one applying pressure that is at or
    /// under its budget. Tenant 0 (untenanted) is never shielded.
    fn shielded_tenants(&self, mm: &MemoryManager) -> Vec<u32> {
        let active = self.tenant_ctx.unwrap_or(0);
        self.tenant_budgets
            .iter()
            .filter(|(t, budget)| {
                *t != 0 && *t != active && self.tenant_resident_bytes(*t, mm) <= *budget
            })
            .map(|(t, _)| *t)
            .collect()
    }

    pub fn set_dir(&mut self, dir: PathBuf) {
        self.dir = Some(dir);
    }

    fn dir(&self) -> PathBuf {
        self.dir.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("deca-cache-{}", std::process::id()))
        })
    }

    // ------------------------------------------------------------------
    // fault probe
    // ------------------------------------------------------------------

    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.probe = if plan.is_quiet() { None } else { Some(plan) };
    }

    pub(crate) fn set_fault_ctx(&mut self, stage: &str, task: usize, attempt: u32) {
        if self.probe.is_some() {
            self.probe_ctx = Some((stage.to_string(), task, attempt));
        }
    }

    pub(crate) fn clear_fault_ctx(&mut self) {
        self.probe_ctx = None;
    }

    /// Does `site` fire for the task currently running on this executor?
    /// Always false outside a task (no context) or without a plan.
    fn killed(&self, site: FaultSite) -> bool {
        match (&self.probe, &self.probe_ctx) {
            (Some(p), Some((stage, task, attempt))) => p.fires(site, stage, *task, *attempt),
            _ => false,
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Admit a new block, stamped with the running task's tenant and job.
    fn push(&mut self, state: BlockState, bytes: usize) -> BlockId {
        let last_used = self.tick();
        let tenant = self.tenant_ctx.unwrap_or(0);
        let job = self.job_ctx.unwrap_or(0);
        self.entries.push(Some(Entry { state, bytes, last_used, access_count: 1, tenant, job }));
        BlockId((self.entries.len() - 1) as u32)
    }

    /// The entry of block `id`. Panics on a released block: app code
    /// holding ids across stages checks [`CacheManager::contains`] first.
    fn entry(&self, id: BlockId) -> &Entry {
        self.entries[id.0 as usize].as_ref().expect("a live block")
    }

    fn entry_mut(&mut self, id: BlockId) -> &mut Entry {
        self.entries[id.0 as usize].as_mut().expect("a live block")
    }

    /// Swap block `id`'s new form in, with the bytes it accounts.
    fn set(&mut self, id: BlockId, state: BlockState, bytes: usize) {
        let e = self.entry_mut(id);
        e.state = state;
        e.bytes = bytes;
    }

    /// Is `id` still a live block? False once released — and, after a
    /// crash restart, for blocks the crash wiped: app code holding block
    /// ids across stages checks this and falls back to lineage recompute.
    pub fn contains(&self, id: BlockId) -> bool {
        self.entries.get(id.0 as usize).is_some_and(|e| e.is_some())
    }

    /// The tier a block currently occupies (Deca residency via `mm`).
    pub fn tier(&self, id: BlockId, mm: &MemoryManager) -> Tier {
        Self::tier_of(self.entry(id), mm)
    }

    fn tier_of(e: &Entry, mm: &MemoryManager) -> Tier {
        match &e.state {
            BlockState::Objects { .. } => Tier::Hot,
            BlockState::Serialized { .. } => Tier::Warm,
            BlockState::Disk { .. } => Tier::Cold,
            BlockState::Deca { block } => {
                if mm.is_swapped(block.group()) {
                    Tier::Cold
                } else {
                    Tier::Hot
                }
            }
        }
    }

    /// Can the block move a tier down now? Hot and warm blocks can; a Deca
    /// block while its page group is resident and the memory manager may
    /// swap it; a cold block cannot.
    fn movable(e: &Entry, mm: &MemoryManager) -> bool {
        match &e.state {
            BlockState::Objects { .. } | BlockState::Serialized { .. } => true,
            BlockState::Deca { block } => {
                !mm.is_swapped(block.group()) && mm.is_swappable(block.group())
            }
            BlockState::Disk { .. } => false,
        }
    }

    fn sum_bytes(&self, counted: impl Fn(&Entry) -> bool) -> usize {
        self.entries.iter().flatten().filter(|e| counted(e)).map(|e| e.bytes).sum()
    }

    /// Resident (in-memory) cached bytes.
    pub fn resident_bytes(&self) -> usize {
        self.sum_bytes(|e| !matches!(e.state, BlockState::Disk { .. }))
    }

    /// Resident bytes of `tenant`'s blocks, or of every block, with Deca
    /// residency resolved through `mm`: a swapped page group's entry stays
    /// `Deca` but its pages are on disk, so the budget loops must not
    /// count it against the in-memory cap.
    fn resident_in(&self, tenant: Option<u32>, mm: &MemoryManager) -> usize {
        self.sum_bytes(|e| {
            tenant.is_none_or(|t| e.tenant == t) && Self::tier_of(e, mm) != Tier::Cold
        })
    }

    /// Resident bytes held in the warm (serialized in-memory) tier.
    fn warm_bytes(&self) -> usize {
        self.sum_bytes(|e| matches!(e.state, BlockState::Serialized { .. }))
    }

    /// Bytes of cached data currently on disk.
    pub fn disk_bytes(&self) -> usize {
        self.sum_bytes(|e| matches!(e.state, BlockState::Disk { .. }))
    }

    fn file(&self, id: u32) -> PathBuf {
        self.dir().join(format!("cache-block-{id}.bin"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir().join("spill-manifest.json")
    }

    // ------------------------------------------------------------------
    // put
    // ------------------------------------------------------------------

    /// Cache records as a heap object block (Spark mode).
    pub fn put_objects<T: Record + 'static>(
        &mut self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        classes: &T::Classes,
        recs: &[T],
    ) -> Result<BlockId, CacheError>
    where
        T::Classes: 'static,
    {
        let bytes: usize = recs.iter().map(|r| r.heap_size()).sum::<usize>() + 16 + recs.len() * 8;
        self.make_room(heap, kryo, mm, bytes, false)?;
        let store = |heap: &mut Heap, i: usize| recs[i].store(heap, classes);
        let root = self.retry_after_evicting(None, heap, kryo, mm, |heap, _| {
            store_object_array(heap, recs.len(), store)
        })?;
        let ops = Arc::new(Ops::<T> { classes: *classes });
        Ok(self.push(BlockState::Objects { root, len: recs.len(), ops }, bytes))
    }

    /// Cache records as a serialized heap byte block (SparkSer mode).
    pub fn put_serialized<T: Record>(
        &mut self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        recs: &[T],
    ) -> Result<BlockId, CacheError> {
        let buf = kryo.serialize_all(recs);
        self.put_bytes(heap, kryo, mm, &buf, recs.len())
    }

    /// Cache `len` records already laid out in `buf` (a columnar table
    /// chunk, say) as one heap byte block. It is stored, tiered and
    /// released exactly like a serialized block; [`CacheManager::read_bytes`]
    /// reads it back without deserializing.
    pub fn put_bytes(
        &mut self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        buf: &[u8],
        len: usize,
    ) -> Result<BlockId, CacheError> {
        self.make_room(heap, kryo, mm, buf.len(), false)?;
        let root = alloc_bytes(heap, buf)?;
        let bytes = buf.len() + 16;
        Ok(self.push(BlockState::Serialized { root, len, ops: None, mem_bytes: bytes }, bytes))
    }

    /// Cache records as decomposed pages (Deca mode).
    pub fn put_deca<T: Record>(
        &mut self,
        heap: &mut Heap,
        mm: &mut MemoryManager,
        recs: &[T],
    ) -> Result<BlockId, CacheError> {
        let block = DecaCacheBlock::new::<T>(mm);
        self.put_deca_block(heap, mm, block, recs)
    }

    /// Cache records as decomposed pages with a runtime-resolved uniform
    /// SFST size (unframed segments — e.g. LR's `D`-dimensional points).
    pub fn put_deca_sfst<T: Record>(
        &mut self,
        heap: &mut Heap,
        mm: &mut MemoryManager,
        recs: &[T],
        size: usize,
    ) -> Result<BlockId, CacheError> {
        let block = DecaCacheBlock::new_sfst(mm, size);
        self.put_deca_block(heap, mm, block, recs)
    }

    fn put_deca_block<T: Record>(
        &mut self,
        heap: &mut Heap,
        mm: &mut MemoryManager,
        mut block: DecaCacheBlock,
        recs: &[T],
    ) -> Result<BlockId, CacheError> {
        let filled = recs.iter().try_for_each(|r| block.append(mm, heap, r));
        // Deca puts respect the storage budget too. A Deca put has no
        // serializer in hand, so its admission moves only page groups,
        // which swap verbatim: the idle serializer it passes is never used.
        let admitted = filled.and_then(|()| block.footprint(mm, heap)).map_err(CacheError::from);
        let admitted = admitted.and_then(|bytes| {
            self.make_room(heap, &mut KryoSim::new(), mm, bytes, true).map(|()| bytes)
        });
        // A block that is not admitted dies here, and its group with it.
        let bytes = match admitted {
            Ok(bytes) => bytes,
            Err(e) => {
                block.release(mm, heap);
                return Err(e);
            }
        };
        Ok(self.push(BlockState::Deca { block }, bytes))
    }

    // ------------------------------------------------------------------
    // access
    // ------------------------------------------------------------------

    /// Number of records in a block.
    #[cfg(test)]
    fn block_len(&self, id: BlockId) -> usize {
        match &self.entry(id).state {
            BlockState::Objects { len, .. }
            | BlockState::Serialized { len, .. }
            | BlockState::Disk { len, .. } => *len,
            BlockState::Deca { block } => block.len(),
        }
    }

    fn touch(&mut self, id: BlockId) {
        let t = self.tick();
        let e = self.entry_mut(id);
        e.last_used = t;
        e.access_count += 1;
    }

    /// Direct access to an Objects block's root array (Spark kernels walk
    /// the heap themselves). Promotes the block back to the hot tier if it
    /// was demoted (warm) or evicted (cold).
    pub fn objects_root(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(RootId, usize), CacheError> {
        self.ensure_resident(id, heap, kryo, mm)?;
        self.touch(id);
        self.promote_warm(id, heap, kryo, mm)?;
        match &self.entry(id).state {
            BlockState::Objects { root, len, .. } => Ok((*root, *len)),
            _ => panic!("objects_root on a non-Objects block"),
        }
    }

    /// Record `i` of the Objects block whose root is `root`, found afresh
    /// (an allocation may have moved it since [`Self::objects_root`]).
    #[inline]
    pub fn object(heap: &Heap, root: RootId, i: usize) -> ObjRef {
        heap.array_get_ref(heap.root_ref(root), i)
    }

    /// Visit a Serialized block's records as page-form bytes (the SparkSer
    /// access path): the block is decoded once per access, under one
    /// deserializer timer pair ([`KryoSim::decode_block`]), and `f` reads
    /// each record's bytes as a Deca scan does
    /// ([`DecaCacheBlock::scan_bytes`]), materialising on the heap what
    /// its kernel needs. No owned record sits between the Kryo bytes and
    /// `f`.
    pub fn scan_serialized<T: Record, E: From<CacheError>>(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        mut f: impl FnMut(&mut Heap, &[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let (buf, len) = self.read_bytes(id, heap, kryo, mm)?;
        let recs = kryo.decode_block::<T>(&buf);
        debug_assert_eq!(recs.len(), len);
        (0..recs.len()).try_for_each(|i| f(heap, recs.get(i)))
    }

    /// A byte block's bytes and record count, read back (swapped in
    /// first if it was evicted). Panics if the block is not a byte block.
    pub fn read_bytes(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(Vec<u8>, usize), CacheError> {
        self.ensure_resident(id, heap, kryo, mm)?;
        self.touch(id);
        let BlockState::Serialized { root, len, .. } = self.entry(id).state else {
            panic!("read_bytes on a non-Serialized block")
        };
        Ok((read_byte_array(heap, root), len))
    }

    /// The Deca block backing `id` (panics if the block is not Deca).
    pub fn deca_block(&mut self, id: BlockId) -> &mut DecaCacheBlock {
        self.touch(id);
        match &mut self.entry_mut(id).state {
            BlockState::Deca { block } => block,
            _ => panic!("deca_block on a non-Deca block"),
        }
    }

    // ------------------------------------------------------------------
    // lifetime
    // ------------------------------------------------------------------

    /// Release a block (`unpersist()`): Objects/Serialized drop their
    /// roots (space reclaimed by the *next collection*, as in Spark); Deca
    /// blocks release their page group immediately. Cold-tier releases
    /// update the spill manifest.
    pub fn release(&mut self, id: BlockId, heap: &mut Heap, mm: &mut MemoryManager) {
        let Some(e) = self.entries[id.0 as usize].take() else { return };
        if self.free_entry(id.0, e, heap, mm) {
            // Best-effort: a release is infallible, and a stale manifest
            // row is harmless (restart verification drops it).
            let _ = self.commit_manifest(mm);
        }
    }

    /// Free what a removed entry holds. Returns whether it was cold.
    fn free_entry(&self, id: u32, e: Entry, heap: &mut Heap, mm: &mut MemoryManager) -> bool {
        match e.state {
            BlockState::Objects { root, .. } | BlockState::Serialized { root, .. } => {
                heap.remove_root(root);
                false
            }
            BlockState::Deca { block } => {
                let cold = mm.is_swapped(block.group());
                block.release(mm, heap);
                cold
            }
            BlockState::Disk { .. } => {
                let _ = std::fs::remove_file(self.file(id));
                true
            }
        }
    }

    /// Deca blocks held, each the owner of one page group.
    pub fn deca_blocks(&self) -> usize {
        self.entries.iter().flatten().filter(|e| matches!(e.state, BlockState::Deca { .. })).count()
    }

    // ------------------------------------------------------------------
    // tier moves
    // ------------------------------------------------------------------

    /// The blocks a move under `p` may take, in id order: each can move a
    /// tier down now, is not `p.keep`, is a page group if `p.pages_only`,
    /// and belongs to `p.tenant` or, without one, to no shielded tenant.
    fn candidates<'a>(
        &'a self,
        mm: &'a MemoryManager,
        p: Pressure,
    ) -> impl Iterator<Item = (BlockId, &'a Entry)> + 'a {
        let shielded = if p.tenant.is_none() { self.shielded_tenants(mm) } else { Vec::new() };
        self.entries.iter().enumerate().filter_map(move |(i, e)| {
            let (id, e) = (BlockId(i as u32), e.as_ref()?);
            let scoped = match p.tenant {
                Some(t) => e.tenant == t,
                None => !shielded.contains(&e.tenant),
            };
            let kind = !p.pages_only || matches!(e.state, BlockState::Deca { .. });
            (scoped && kind && p.keep != Some(id) && Self::movable(e, mm)).then_some((id, e))
        })
    }

    /// The victim picker: of the candidates under `p`, the lowest
    /// `(access_count, last_used, id)`.
    fn victim(&self, mm: &MemoryManager, p: Pressure) -> Option<BlockId> {
        self.candidates(mm, p)
            .min_by_key(|(id, e)| (e.access_count, e.last_used, id.0))
            .map(|(id, _)| id)
    }

    /// Move the picker's victims under `p` while `over` holds, or until
    /// none is left.
    fn move_down_while(
        &mut self,
        p: Pressure,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        over: impl Fn(&Self, &MemoryManager) -> bool,
    ) -> Result<(), CacheError> {
        while over(self, mm) {
            let Some(id) = self.victim(mm, p) else { break };
            if p.cold {
                self.evict(id, heap, kryo, mm)?;
            } else {
                self.demote(id, heap, kryo, mm)?;
            }
        }
        Ok(())
    }

    /// Budget admission for `incoming` resident bytes. A budgeted tenant
    /// first demotes its own blocks until it fits its allotment, so its
    /// pressure lands on its own blocks before anyone else's; then the
    /// cache demotes until it fits the global budget. With nothing left to
    /// move, the put overshoots (the heap will GC or OOM).
    fn make_room(
        &mut self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        incoming: usize,
        pages_only: bool,
    ) -> Result<(), CacheError> {
        let own = self.tenant_ctx.and_then(|t| Some((Some(t), self.tenant_budget(t)?)));
        for (tenant, budget) in own.into_iter().chain([(None, self.budget)]) {
            let p = Pressure { tenant, keep: None, pages_only, cold: false };
            self.move_down_while(p, heap, kryo, mm, |cm, mm| {
                cm.resident_in(tenant, mm) + incoming > budget
            })?;
        }
        Ok(())
    }

    /// Run `attempt`; if it meets a full heap, send every block but `keep`
    /// to the cold tier, collect, and run it once more. A second failure
    /// returns the first `OomError`.
    fn retry_after_evicting<R>(
        &mut self,
        keep: Option<BlockId>,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
        mut attempt: impl FnMut(&mut Heap, &mut KryoSim) -> Result<R, OomError>,
    ) -> Result<R, CacheError> {
        let oom = match attempt(heap, kryo) {
            Ok(done) => return Ok(done),
            Err(oom) => oom,
        };
        self.move_down_while(Pressure { keep, ..EVICT }, heap, kryo, mm, |_, _| true)?;
        heap.full_gc();
        attempt(heap, kryo).map_err(|_| CacheError::Oom(oom))
    }

    /// Demote a block one tier: a hot Objects block serializes into one
    /// heap `byte[]` in the warm tier, keeping its ops so a later access
    /// can promote it back; a warm block or a resident page group goes
    /// cold. The graph is unrooted before the warm copy is allocated, so
    /// that allocation can collect it. If the heap cannot hold even the
    /// serialized form, the bytes in hand go straight to the cold tier.
    fn demote(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(), CacheError> {
        let e = self.entry(id);
        let BlockState::Objects { root, len, ref ops } = e.state else {
            return self.evict(id, heap, kryo, mm);
        };
        let (ops, mem_bytes) = (ops.clone(), e.bytes);
        let buf = ops.serialize(heap, kryo, root, len, mem_bytes);
        heap.remove_root(root);
        if let Ok(warm) = alloc_bytes(heap, &buf) {
            let state = BlockState::Serialized { root: warm, len, ops: Some(ops), mem_bytes };
            self.set(id, state, buf.len() + 16);
            self.demotions += 1;
            return Ok(());
        }
        match self.write_cold(id, &buf, len, Some(ops), mem_bytes) {
            Ok(()) => self.went_cold(id, mm),
            Err(err) => {
                // The graph is gone and its bytes never reached disk, so
                // the block is gone too. It leaves as the cold block it was
                // becoming — any partial payload is removed, the manifest
                // recommitted — and lineage recompute rebuilds it.
                self.set(id, BlockState::Disk { len, ops: None, mem_bytes, checksum: 0 }, 0);
                self.release(id, heap, mm);
                Err(err)
            }
        }
    }

    /// Warm → hot: deserialize a demoted Objects block back into record
    /// graphs. The serialized copy stays rooted until the new graph is
    /// built (Spark's unroll does the same), so a promotion that meets a
    /// full heap leaves the block intact in the warm tier.
    fn promote_warm(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(), CacheError> {
        let BlockState::Serialized { root, len, ops: Some(ref ops), mem_bytes } =
            self.entry(id).state
        else {
            return Ok(());
        };
        let ops = ops.clone();
        let buf = read_byte_array(heap, root);
        let graph = self.retry_after_evicting(Some(id), heap, kryo, mm, |heap, kryo| {
            ops.deserialize(heap, kryo, &buf)
        })?;
        heap.remove_root(root);
        self.set(id, BlockState::Objects { root: graph, len, ops }, mem_bytes);
        Ok(())
    }

    /// Evict every evictable resident block to disk — the graceful OOM
    /// degradation path: under memory pressure the driver spills the whole
    /// cache and retries the failed task. Returns the resident bytes
    /// freed (Deca page groups swap through `mm` and keep their entry
    /// accounting, so the figure under-reports their share).
    pub fn evict_all(
        &mut self,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<u64, CacheError> {
        let before = self.resident_bytes();
        let victims: Vec<BlockId> = self.candidates(mm, EVICT).map(|(id, _)| id).collect();
        for id in victims {
            self.evict(id, heap, kryo, mm)?;
        }
        Ok(before.saturating_sub(self.resident_bytes()) as u64)
    }

    /// Move one block to the cold tier (serialize + payload file for
    /// Spark/SparkSer blocks, a verbatim page-group swap for Deca), then
    /// commit the spill manifest; a block that cannot move stays put.
    /// Fault-instrumented: `SpillWrite` kills before anything durable is
    /// written; the manifest commit's own `ManifestCommit` kill lands after
    /// the payload but before the rename — the two windows the recovery
    /// suite must survive.
    fn evict(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(), CacheError> {
        let e = self.entry(id);
        if !Self::movable(e, mm) {
            return Ok(());
        }
        if self.killed(FaultSite::SpillWrite) {
            return Err(CacheError::Injected(FaultSite::SpillWrite));
        }
        let (root, len, ops, mem_bytes, payload) = match &e.state {
            // Spark serializes object blocks before writing them out.
            BlockState::Objects { root, len, ops } => {
                let payload = ops.serialize(heap, kryo, *root, *len, e.bytes);
                (*root, *len, Some(ops.clone()), e.bytes, payload)
            }
            BlockState::Serialized { root, len, ops, mem_bytes } => {
                (*root, *len, ops.clone(), *mem_bytes, read_byte_array(heap, *root))
            }
            // Deca swaps page groups verbatim through its own manager,
            // which counts the bytes it writes. The state stays Deca;
            // residency is tracked by mm.
            BlockState::Deca { block } => {
                mm.swap_out(block.group(), heap)?;
                return self.went_cold(id, mm);
            }
            BlockState::Disk { .. } => return Ok(()),
        };
        self.write_cold(id, &payload, len, ops, mem_bytes)?;
        // The payload is durable: only now does the block give up its heap
        // root.
        heap.remove_root(root);
        self.went_cold(id, mm)
    }

    /// The one cold write: `payload` becomes block `id`'s file, and the
    /// block a `Disk` block that re-materialises through `ops`. The entry
    /// changes only once the file is written, so a failed write leaves the
    /// block as it was.
    fn write_cold(
        &mut self,
        id: BlockId,
        payload: &[u8],
        len: usize,
        ops: Option<BlockOps>,
        mem_bytes: usize,
    ) -> Result<(), CacheError> {
        std::fs::create_dir_all(self.dir())?;
        std::fs::File::create(self.file(id.0))?.write_all(payload)?;
        self.spill_write_bytes += payload.len() as u64;
        let checksum = hash_bytes(payload);
        self.set(id, BlockState::Disk { len, ops, mem_bytes, checksum }, payload.len());
        Ok(())
    }

    /// Count block `id`'s move to the cold tier and commit the manifest
    /// that records it.
    fn went_cold(&mut self, id: BlockId, mm: &MemoryManager) -> Result<(), CacheError> {
        self.evictions += 1;
        let tenant = self.entry(id).tenant;
        self.bump_tenant_eviction(tenant);
        self.commit_manifest(mm)
    }

    /// Cold → resident for a Spark or SparkSer block: the payload is read
    /// back and re-materialised, an object block's as graphs (hot), a byte
    /// block's as its `byte[]` (warm). Re-materialising costs memory, so
    /// low-weight blocks go cold first, both to respect the storage budget
    /// and to leave heap headroom (Spark's unified memory manager does the
    /// same before unrolling). The entry changes only once the resident
    /// form exists: a failed read or allocation leaves the block cold and
    /// its payload file in place. Deca blocks re-register through `mm`
    /// lazily on access, so they never need this.
    fn ensure_resident(
        &mut self,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Result<(), CacheError> {
        let BlockState::Disk { len, ref ops, mem_bytes, .. } = self.entry(id).state else {
            return Ok(());
        };
        let ops = ops.clone();
        if self.killed(FaultSite::SpillRead) {
            return Err(CacheError::Injected(FaultSite::SpillRead));
        }
        let p = Pressure { keep: Some(id), ..EVICT };
        self.move_down_while(p, heap, kryo, mm, |cm, mm| {
            cm.resident_in(None, mm) + mem_bytes > cm.budget
        })?;
        let path = self.file(id.0);
        let buf = std::fs::read(&path)?;
        self.spill_read_bytes += buf.len() as u64;
        let state = match ops {
            Some(ops) => {
                let graph = self.retry_after_evicting(Some(id), heap, kryo, mm, |heap, kryo| {
                    ops.deserialize(heap, kryo, &buf)
                })?;
                BlockState::Objects { root: graph, len, ops }
            }
            None => BlockState::Serialized { root: alloc_bytes(heap, &buf)?, len, ops, mem_bytes },
        };
        self.set(id, state, mem_bytes);
        let _ = std::fs::remove_file(&path);
        self.commit_manifest(mm)
    }

    // ------------------------------------------------------------------
    // spill manifest + crash recovery
    // ------------------------------------------------------------------

    /// Build the manifest rows for the current cold tier. Deca rows carry
    /// the group's per-page sizes (otherwise memory-only state in the
    /// core layer) and the digest the core layer took of the verbatim
    /// spill file as it wrote it, so no commit re-reads a payload, and a
    /// payload corrupted after its swap-out is never vouched for.
    fn manifest_blocks(&self, mm: &MemoryManager) -> Vec<Json> {
        let mut rows = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let Some(e) = e else { continue };
            match &e.state {
                BlockState::Disk { len, ops, mem_bytes, checksum } => {
                    let kind = if ops.is_some() { "objects" } else { "bytes" };
                    rows.push(Json::obj(vec![
                        ("id", Json::int(i as u64)),
                        ("kind", Json::str(kind)),
                        ("len", Json::int(*len as u64)),
                        ("mem_bytes", Json::int(*mem_bytes as u64)),
                        ("file_bytes", Json::int(e.bytes as u64)),
                        ("checksum", Json::str(format!("{checksum:016x}"))),
                    ]));
                }
                BlockState::Deca { block } => {
                    let group = block.group().id();
                    let (Ok(Some(sizes)), Ok(Some(digest))) =
                        (mm.spill_page_sizes(group), mm.spill_digest(group))
                    else {
                        continue;
                    };
                    rows.push(Json::obj(vec![
                        ("id", Json::int(i as u64)),
                        ("kind", Json::str("deca")),
                        ("len", Json::int(block.len() as u64)),
                        ("group", group_json(group)),
                        (
                            "page_sizes",
                            Json::Arr(sizes.iter().map(|&s| Json::int(s as u64)).collect()),
                        ),
                        ("file_bytes", Json::int(sizes.iter().sum::<usize>() as u64)),
                        ("checksum", Json::str(format!("{digest:016x}"))),
                    ]));
                }
                _ => {}
            }
        }
        rows
    }

    /// Write the spill manifest: body JSON + whole-document digest,
    /// to a temp file, then an atomic rename. The `ManifestCommit` kill
    /// point sits between the temp write and the rename — a crash there
    /// leaves the *previous* manifest in effect, which is exactly the
    /// consistency the atomic rename buys.
    fn commit_manifest(&mut self, mm: &MemoryManager) -> Result<(), CacheError> {
        let rows = self.manifest_blocks(mm);
        self.commit_manifest_rows(rows)
    }

    fn commit_manifest_rows(&mut self, rows: Vec<Json>) -> Result<(), CacheError> {
        let dir = self.dir();
        std::fs::create_dir_all(&dir)?;
        let mut members = vec![
            ("schema".to_string(), Json::str(MANIFEST_SCHEMA)),
            ("blocks".to_string(), Json::Arr(rows)),
        ];
        let digest = hash_bytes(Json::Obj(members.clone()).to_compact().as_bytes());
        members.push(("checksum".to_string(), Json::str(format!("{digest:016x}"))));
        let doc = Json::Obj(members);
        let tmp = dir.join("spill-manifest.json.tmp");
        std::fs::write(&tmp, doc.to_pretty())?;
        if self.killed(FaultSite::ManifestCommit) {
            return Err(CacheError::Injected(FaultSite::ManifestCommit));
        }
        std::fs::rename(&tmp, self.manifest_path())?;
        Ok(())
    }

    /// Parse and verify the spill manifest. `None` if it is missing,
    /// malformed, or fails its whole-document checksum.
    fn load_manifest(&self) -> Option<Vec<ManifestRow>> {
        let text = std::fs::read_to_string(self.manifest_path()).ok()?;
        let doc = Json::parse(&text).ok()?;
        if doc.get("schema")?.as_str()? != MANIFEST_SCHEMA {
            return None;
        }
        let recorded = u64::from_str_radix(doc.get("checksum")?.as_str()?, 16).ok()?;
        let body = Json::obj(vec![
            ("schema", doc.get("schema")?.clone()),
            ("blocks", doc.get("blocks")?.clone()),
        ]);
        if hash_bytes(body.to_compact().as_bytes()) != recorded {
            return None;
        }
        let mut rows = Vec::new();
        for b in doc.get("blocks")?.as_array()? {
            let page_sizes = match b.get("page_sizes") {
                Some(arr) => arr
                    .as_array()?
                    .iter()
                    .map(|s| s.as_u64().map(|v| v as usize))
                    .collect::<Option<Vec<usize>>>()?,
                None => Vec::new(),
            };
            rows.push(ManifestRow {
                id: b.get("id")?.as_u64()? as u32,
                kind: b.get("kind")?.as_str()?.to_string(),
                len: b.get("len")?.as_u64()?,
                file_bytes: b.get("file_bytes")?.as_u64()?,
                checksum: u64::from_str_radix(b.get("checksum")?.as_str()?, 16).ok()?,
                group: match b.get("group") {
                    Some(g) => Some(GroupId::new(
                        u32::try_from(g.get("slot")?.as_u64()?).ok()?,
                        u32::try_from(g.get("generation")?.as_u64()?).ok()?,
                    )),
                    None => None,
                },
                page_sizes,
            });
        }
        Some(rows)
    }

    /// Restart-in-place recovery: the crash wiped the volatile tiers, so
    /// drop every hot/warm entry (the app's lineage recompute rebuilds
    /// them), then keep each cold entry *only if* the spill manifest
    /// vouches for it — matching id/kind/sizes and a payload digest that
    /// checks out. An unverifiable block (or the whole cold tier, when
    /// the manifest itself fails its checksum) is discarded: graceful
    /// degradation to recompute, never a wrong answer.
    ///
    /// Idempotent by construction: a second call finds the volatile tiers
    /// already empty and re-verifies the same cold blocks to the same
    /// result — which is also what makes a `Rehydrate` kill (a crash
    /// *during* recovery, checked per cold entry against `(stage, entry,
    /// ordinal)`) survivable: the next restart finishes the scan.
    pub(crate) fn crash_restart(
        &mut self,
        heap: &mut Heap,
        mm: &mut MemoryManager,
        stage: &str,
        ordinal: u32,
    ) -> RehydrateOutcome {
        let manifest = self.load_manifest();
        let mut out =
            RehydrateOutcome { manifest_ok: manifest.is_some(), ..RehydrateOutcome::default() };
        let rows = manifest.unwrap_or_default();
        for i in 0..self.entries.len() {
            let Some(e) = &self.entries[i] else { continue };
            let cold = Self::tier_of(e, mm) == Tier::Cold;
            if cold
                && self
                    .probe
                    .as_ref()
                    .is_some_and(|p| p.fires(FaultSite::Rehydrate, stage, i, ordinal))
            {
                out.killed = true;
                return out;
            }
            let Some(e) = self.entries[i].take() else { continue };
            // A kept block's (payload bytes, cached records).
            let kept = match &e.state {
                BlockState::Objects { .. } | BlockState::Serialized { .. } => None,
                BlockState::Deca { block } => {
                    (cold && Self::verify_deca_row(&rows, i as u32, block, mm)).then(|| {
                        let file = mm.spill_file(block.group().id());
                        (file.metadata().map(|m| m.len()).unwrap_or(0), block.len() as u64)
                    })
                }
                BlockState::Disk { len, .. } => self
                    .verify_disk_row(&rows, i as u32, &e)
                    .then_some((e.bytes as u64, *len as u64)),
            };
            match kept {
                Some((bytes, len)) => {
                    out.rehydrated.push((i as u32, bytes, len));
                    self.entries[i] = Some(e);
                }
                None => {
                    self.free_entry(i as u32, e, heap, mm);
                    out.dropped += 1;
                }
            }
        }
        // Re-commit so the manifest reflects exactly what survived (and a
        // corrupted manifest is replaced by a valid empty one).
        let _ = self.commit_manifest(mm);
        out
    }

    /// Verify one cold Spark/SparkSer block against its manifest row:
    /// the row must exist with the block's kind and record count, and the
    /// payload file must match the recorded size and digest.
    fn verify_disk_row(&self, rows: &[ManifestRow], id: u32, e: &Entry) -> bool {
        let BlockState::Disk { len, ops, .. } = &e.state else { return false };
        let kind = if ops.is_some() { "objects" } else { "bytes" };
        let Some(row) = rows.iter().find(|r| r.id == id) else { return false };
        if row.kind != kind || row.len != *len as u64 {
            return false;
        }
        let Ok(payload) = std::fs::read(self.file(id)) else { return false };
        payload.len() as u64 == row.file_bytes && hash_bytes(&payload) == row.checksum
    }

    /// Verify one swapped Deca block: the manifest row must name the
    /// block's own page group — slot and generation — with the per-page
    /// sizes the core layer has, and the verbatim spill file must match
    /// the recorded digest.
    fn verify_deca_row(
        rows: &[ManifestRow],
        id: u32,
        block: &DecaCacheBlock,
        mm: &MemoryManager,
    ) -> bool {
        let Some(row) = rows.iter().find(|r| r.id == id) else { return false };
        let Some(group) = row.group.filter(|&g| g == block.group().id()) else { return false };
        if row.kind != "deca" || row.len != block.len() as u64 {
            return false;
        }
        if !matches!(mm.spill_page_sizes(group), Ok(Some(sizes)) if sizes == row.page_sizes) {
            return false;
        }
        let Ok(payload) = std::fs::read(mm.spill_file(group)) else { return false };
        payload.len() as u64 == row.file_bytes && hash_bytes(&payload) == row.checksum
    }

    /// Snapshot of the manager's occupancy and eviction counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            resident_bytes: self.resident_bytes(),
            warm_bytes: self.warm_bytes(),
            disk_bytes: self.disk_bytes(),
            evictions: self.evictions,
            demotions: self.demotions,
            spill_write_bytes: self.spill_write_bytes,
            spill_read_bytes: self.spill_read_bytes,
        }
    }
}

/// A point-in-time summary of a [`CacheManager`]'s state, for apps and
/// harnesses that report cache behaviour without poking manager fields.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached bytes currently resident in memory (hot + warm tiers).
    pub resident_bytes: usize,
    /// The serialized-in-memory (warm tier) share of `resident_bytes`.
    pub warm_bytes: usize,
    /// Cached bytes currently evicted to disk.
    pub disk_bytes: usize,
    /// Cold-tier eviction events since construction.
    pub evictions: u64,
    /// Hot → warm demotion events since construction.
    pub demotions: u64,
    /// Bytes written to / read from the cache's own block files: Spark
    /// and SparkSer blocks. A Deca block's page-group swaps are the memory
    /// manager's traffic (`MemoryManager::spill_write_bytes` and
    /// `spill_read_bytes`), counted there alone.
    pub spill_write_bytes: u64,
    pub spill_read_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HeapRecord;
    use deca_core::DecaRecord;
    use deca_heap::HeapConfig;

    fn setup(heap_bytes: usize, budget: usize) -> (Heap, KryoSim, MemoryManager, CacheManager) {
        let dir = std::env::temp_dir().join(format!(
            "deca-cachemgr-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cm = CacheManager::new(budget);
        cm.set_dir(dir.clone());
        (
            Heap::new(HeapConfig::with_total(heap_bytes)),
            KryoSim::new(),
            MemoryManager::new(16 << 10, dir),
            cm,
        )
    }

    #[test]
    fn objects_block_roundtrip() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(8 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..500).map(|i| (i, i * 3)).collect();
        let id = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        assert_eq!(cm.block_len(id), 500);
        assert!(cm.contains(id));
        assert_eq!(cm.tier(id, &mm), Tier::Hot);
        let (root, len) = cm.objects_root(id, &mut heap, &mut kryo, &mut mm).unwrap();
        let arr = heap.root_ref(root);
        for i in 0..len {
            let obj = heap.array_get_ref(arr, i);
            let rec = <(i64, i64) as HeapRecord>::load(&heap, &classes, obj);
            assert_eq!(rec, (i as i64, i as i64 * 3));
        }
        cm.release(id, &mut heap, &mut mm);
        assert!(!cm.contains(id));
        heap.full_gc();
        assert_eq!(heap.object_count(), 0, "released block is collectable");
    }

    #[test]
    fn serialized_block_roundtrip() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(8 << 20, 4 << 20);
        let recs: Vec<(i64, i64)> = (0..300).map(|i| (i, -i)).collect();
        let id = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
        // One byte[] object on the heap, regardless of record count.
        assert_eq!(heap.object_count(), 1);
        assert_eq!(cm.tier(id, &mm), Tier::Warm);
        assert_eq!(scan_pairs(&mut cm, id, &mut heap, &mut kryo, &mut mm), recs);
        assert!(kryo.objects_deserialized >= 300);
    }

    /// A serialized block's `(i64, i64)` records, through the SparkSer scan.
    fn scan_pairs(
        cm: &mut CacheManager,
        id: BlockId,
        heap: &mut Heap,
        kryo: &mut KryoSim,
        mm: &mut MemoryManager,
    ) -> Vec<(i64, i64)> {
        let mut got = Vec::new();
        cm.scan_serialized::<(i64, i64), CacheError>(id, heap, kryo, mm, |_, r| {
            got.push(<(i64, i64)>::decode(r));
            Ok(())
        })
        .unwrap();
        got
    }

    #[test]
    fn deca_block_via_manager() {
        let (mut heap, _kryo, mut mm, mut cm) = setup(8 << 20, 4 << 20);
        let recs: Vec<(i64, i64)> = (0..400).map(|i| (i, i + 1)).collect();
        let id = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let block = cm.deca_block(id);
        assert_eq!(block.len(), 400);
        let back: Vec<(i64, i64)> = block.decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, recs);
        cm.release(id, &mut heap, &mut mm);
        assert_eq!(heap.external_bytes(), 0);
    }

    /// A spill whose write fails (a regular file where the spill
    /// directory should be) leaves the block where it was: `evict` errors,
    /// each block reads back its records, and every page group is still
    /// owned by a cached block.
    #[test]
    fn a_failed_spill_write_keeps_the_block() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let blocked = cm.dir();
        std::fs::write(&blocked, b"not a directory").unwrap();
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..200).map(|i| (i, -i)).collect();
        let objects = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let serialized = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
        let deca = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        for id in [objects, serialized, deca] {
            assert!(cm.evict(id, &mut heap, &mut kryo, &mut mm).is_err(), "{id:?}");
        }
        assert_eq!((cm.evictions, cm.disk_bytes()), (0, 0));
        // A collection now would free an object block that lost its root.
        heap.full_gc();
        let (root, len) = cm.objects_root(objects, &mut heap, &mut kryo, &mut mm).unwrap();
        let arr = heap.root_ref(root);
        let back: Vec<(i64, i64)> = (0..len)
            .map(|i| <(i64, i64) as HeapRecord>::load(&heap, &classes, heap.array_get_ref(arr, i)))
            .collect();
        assert_eq!(back, recs);
        assert_eq!(scan_pairs(&mut cm, serialized, &mut heap, &mut kryo, &mut mm), recs);
        let back: Vec<(i64, i64)> = cm.deca_block(deca).decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, recs);
        assert_eq!(mm.live_groups(), cm.deca_blocks());
        std::fs::remove_file(&blocked).unwrap();
    }

    #[test]
    fn evict_all_spills_every_resident_block() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..200).map(|i| (i, i)).collect();
        let a = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let _b = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
        assert!(cm.resident_bytes() > 0);
        let freed = cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        assert!(freed > 0);
        assert_eq!(cm.resident_bytes(), 0, "everything evictable is out");
        assert!(cm.disk_bytes() > 0);
        // The spill manifest is durable and verifiable after the spill.
        let rows = cm.load_manifest().expect("manifest must verify after evict_all");
        assert_eq!(rows.len(), 2, "both cold blocks recorded");
        // Blocks stay readable: access swaps them back in.
        let (_root, len) = cm.objects_root(a, &mut heap, &mut kryo, &mut mm).unwrap();
        assert_eq!(len, 200);
        // ... and the manifest row for the rematerialised block is gone.
        let rows = cm.load_manifest().expect("manifest stays valid after swap-in");
        assert_eq!(rows.len(), 1, "only the still-cold block remains listed");
    }

    #[test]
    fn budget_pressure_demotes_through_tiers_and_reloads() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 64 << 10);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        // Each block ~80B * 500 = 40KB accounted; two blocks exceed the
        // 64KB budget, so the first (lower weight, older) block demotes
        // hot → warm; the serialized form is far smaller, so both fit.
        let recs: Vec<(i64, i64)> = (0..500).map(|i| (i, i)).collect();
        let a = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let b = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        assert!(cm.demotions > 0, "second block must demote the first");
        assert_eq!(cm.tier(a, &mm), Tier::Warm);
        assert_eq!(cm.tier(b, &mm), Tier::Hot);
        assert!(cm.warm_bytes() > 0);
        // Keep piling on: a third block pushes the warm block cold.
        let c = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        assert_eq!(cm.tier(a, &mm), Tier::Cold, "lowest-weight block reaches disk");
        assert!(cm.disk_bytes() > 0);
        assert!(cm.evictions > 0);
        let _ = c;
        // Access the cold block: it reloads and promotes back to hot.
        let (root, len) = cm.objects_root(a, &mut heap, &mut kryo, &mut mm).unwrap();
        assert_eq!(cm.tier(a, &mm), Tier::Hot, "access promotes to the hot tier");
        let arr = heap.root_ref(root);
        assert_eq!(len, 500);
        let rec = <(i64, i64) as HeapRecord>::load(&heap, &classes, heap.array_get_ref(arr, 42));
        assert_eq!(rec, (42, 42));
    }

    #[test]
    fn access_counts_protect_hot_blocks_from_demotion() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 96 << 10);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..500).map(|i| (i, i)).collect();
        let a = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let b = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        // Access `a` repeatedly: its weight now exceeds `b`'s even though
        // `b` is more recently created.
        for _ in 0..5 {
            cm.objects_root(a, &mut heap, &mut kryo, &mut mm).unwrap();
        }
        let _c = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        assert_eq!(cm.tier(a, &mm), Tier::Hot, "frequently accessed block stays hot");
        assert_ne!(cm.tier(b, &mm), Tier::Hot, "low-weight block demoted instead");
    }

    #[test]
    fn deca_puts_respect_the_budget_and_swap_low_weight_groups() {
        let (mut heap, _kryo, mut mm, mut cm) = setup(16 << 20, 40 << 10);
        let recs: Vec<(i64, i64)> = (0..400).map(|i| (i, i)).collect();
        let a = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let b = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        // Touch `b` so its access weight protects it over `a`.
        let _ = cm.deca_block(b);
        let c = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        assert_eq!(cm.tier(a, &mm), Tier::Cold, "lowest-weight group swapped out");
        assert_eq!(cm.tier(b, &mm), Tier::Hot);
        assert_eq!(cm.tier(c, &mm), Tier::Hot);
        let rows = cm.load_manifest().expect("manifest committed on the deca swap");
        assert!(
            rows.iter().any(|r| r.kind == "deca" && r.id == a.0),
            "swapped page group recorded with its page sizes: {rows:?}"
        );
        // The swapped group still reads back (swap-in on access).
        let back: Vec<(i64, i64)> = cm.deca_block(a).decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn tenant_within_budget_is_shielded_from_other_tenants_pressure() {
        // Global budget 96KB, each tenant gets 48KB. Tenant 2 caches one
        // ~40KB block (under its budget); tenant 1 then thrashes well past
        // its own allotment. Tenant 1's pressure must land entirely on its
        // own blocks: tenant 2's block stays hot with zero evictions.
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 96 << 10);
        cm.set_tenant_budget(1, 48 << 10);
        cm.set_tenant_budget(2, 48 << 10);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..500).map(|i| (i, i)).collect();
        cm.set_tenant_ctx(Some(2));
        let shielded = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        cm.set_tenant_ctx(Some(1));
        let mut own = Vec::new();
        for _ in 0..4 {
            own.push(cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap());
        }
        assert_eq!(cm.tier(shielded, &mm), Tier::Hot, "tenant 2's hot block must survive");
        assert_eq!(cm.tenant_evictions(2), 0, "no cross-tenant evictions");
        assert!(cm.demotions + cm.evictions > 0, "tenant 1's pressure demoted its own blocks");
        assert!(
            own.iter().any(|&b| cm.tier(b, &mm) != Tier::Hot),
            "tenant 1's own blocks paid for its pressure"
        );
        assert!(cm.tenant_resident_bytes(1, &mm) <= 48 << 10, "tenant 1 held to its own allotment");
        // Once tenant 2 overshoots its own budget, its blocks stop being
        // shielded: its own pre-pass demotes its coldest block.
        cm.set_tenant_ctx(Some(2));
        for _ in 0..2 {
            cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        }
        assert_ne!(cm.tier(shielded, &mm), Tier::Hot, "over budget, tenant 2 pays too");
    }

    #[test]
    fn crash_restart_rehydrates_verified_cold_blocks_and_drops_the_rest() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..200).map(|i| (i, i * 7)).collect();
        let cold = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let hot = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let deca = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        // Spill everything, then warm two blocks back up so the crash has
        // all three tiers to bite on.
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        cm.objects_root(hot, &mut heap, &mut kryo, &mut mm).unwrap();
        let _: Vec<(i64, i64)> = cm.deca_block(deca).decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(cm.tier(cold, &mm), Tier::Cold);
        let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        assert!(out.manifest_ok);
        assert!(!out.killed);
        assert_eq!(out.rehydrated.len(), 1, "the cold block survives");
        assert_eq!(out.rehydrated[0].0, 0, "and it is the first block we cached");
        assert_eq!(out.dropped, 2, "hot object and hot deca blocks are wiped");
        assert!(cm.contains(cold));
        assert!(!cm.contains(hot));
        assert!(!cm.contains(deca));
        // The survivor still reads back correctly.
        let (root, len) = cm.objects_root(cold, &mut heap, &mut kryo, &mut mm).unwrap();
        let arr = heap.root_ref(root);
        assert_eq!(len, 200);
        let rec = <(i64, i64) as HeapRecord>::load(&heap, &classes, heap.array_get_ref(arr, 3));
        assert_eq!(rec, (3, 21));
    }

    /// One flipped byte in one cold payload — a Spark `objects` file, a
    /// SparkSer `bytes` file or a swapped Deca group — fails that payload's
    /// digest: restart drops exactly that block and rehydrates the other
    /// two, which still read back intact.
    #[test]
    fn a_corrupted_payload_drops_only_its_own_block() {
        let recs: Vec<(i64, i64)> = (0..150).map(|i| (i, 3 * i + 1)).collect();
        for victim in 0..3 {
            let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
            let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
            let objects = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
            let bytes = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
            let deca = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
            let group = cm.deca_block(deca).group().id();
            cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
            let blocks = [objects, bytes, deca];
            assert!(blocks.iter().all(|&b| cm.tier(b, &mm) == Tier::Cold));
            let path = if blocks[victim] == deca {
                mm.spill_file(group)
            } else {
                cm.file(blocks[victim].0)
            };
            let mut payload = std::fs::read(&path).unwrap();
            let mid = payload.len() / 2;
            payload[mid] ^= 0x20;
            std::fs::write(&path, payload).unwrap();

            let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
            assert!(out.manifest_ok, "victim {victim}: the manifest itself is intact");
            assert_eq!(out.dropped, 1, "victim {victim}: exactly the corrupted block goes");
            let kept: Vec<u32> = out.rehydrated.iter().map(|r| r.0).collect();
            let want: Vec<u32> =
                blocks.iter().filter(|&&b| b != blocks[victim]).map(|b| b.0).collect();
            assert_eq!(kept, want, "victim {victim}: every other cold block is rehydrated");
            assert!(!cm.contains(blocks[victim]));
            if cm.contains(objects) {
                let (root, len) = cm.objects_root(objects, &mut heap, &mut kryo, &mut mm).unwrap();
                let arr = heap.root_ref(root);
                let back: Vec<(i64, i64)> = (0..len)
                    .map(|i| {
                        <(i64, i64) as HeapRecord>::load(
                            &heap,
                            &classes,
                            heap.array_get_ref(arr, i),
                        )
                    })
                    .collect();
                assert_eq!(back, recs);
            }
            if cm.contains(bytes) {
                assert_eq!(scan_pairs(&mut cm, bytes, &mut heap, &mut kryo, &mut mm), recs);
            }
            if cm.contains(deca) {
                let back: Vec<(i64, i64)> =
                    cm.deca_block(deca).decode_all(&mut mm, &mut heap).unwrap();
                assert_eq!(back, recs);
            }
        }
    }

    /// A swapped Deca payload corrupted after its swap-out is not vouched
    /// for by a later manifest commit: the manifest carries the digest the
    /// core layer took as it wrote the file, so restart still drops it.
    #[test]
    fn a_deca_payload_corrupted_before_a_later_commit_is_still_dropped() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..150).map(|i| (i, 5 * i)).collect();
        let deca = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let other = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        let path = mm.spill_file(cm.deca_block(deca).group().id());
        let mut payload = std::fs::read(&path).unwrap();
        let mid = payload.len() / 2;
        payload[mid] ^= 0x20;
        std::fs::write(&path, payload).unwrap();
        // Releasing a cold block commits the manifest again.
        cm.release(other, &mut heap, &mut mm);
        let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        assert!(out.manifest_ok);
        assert!(out.rehydrated.is_empty(), "the corrupted payload is not rehydrated");
        assert_eq!(out.dropped, 1);
        assert!(!cm.contains(deca));
    }

    /// A Deca row names its group by slot and generation. A row naming
    /// the block's slot at the generation of the group that held the slot
    /// before vouches for nothing: restart drops the block, for its
    /// lineage to recompute, instead of rehydrating it.
    #[test]
    fn a_row_naming_an_earlier_generation_of_the_slot_is_dropped() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let recs: Vec<(i64, i64)> = (0..150).map(|i| (i, 9 * i)).collect();
        let first = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let earlier = cm.deca_block(first).group().id();
        cm.release(first, &mut heap, &mut mm);
        let deca = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let group = cm.deca_block(deca).group().id();
        assert_eq!(group.slot(), earlier.slot(), "the second group reuses the slot");
        assert_ne!(group, earlier);
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        // Every field of the committed row holds but the generation.
        let rows = cm
            .manifest_blocks(&mm)
            .into_iter()
            .map(|row| match row {
                Json::Obj(members) => Json::Obj(
                    members
                        .into_iter()
                        .map(|(k, v)| if k == "group" { (k, group_json(earlier)) } else { (k, v) })
                        .collect(),
                ),
                other => other,
            })
            .collect();
        cm.commit_manifest_rows(rows).unwrap();
        let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        assert!(out.manifest_ok);
        assert!(out.rehydrated.is_empty(), "the stale row is not trusted");
        assert_eq!(out.dropped, 1);
        assert!(!cm.contains(deca));
        assert_eq!(mm.live_groups(), 0, "the dropped block released its group");
        // Lineage recompute caches the records again.
        let again = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        let back: Vec<(i64, i64)> = cm.deca_block(again).decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn second_crash_restart_is_a_no_op() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let a = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let d = cm.put_deca(&mut heap, &mut mm, &recs).unwrap();
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        let first = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        assert!(first.manifest_ok);
        assert_eq!(first.rehydrated.len(), 2, "both cold blocks verified");
        let stats = cm.stats();
        let second = cm.crash_restart(&mut heap, &mut mm, "s", 1);
        assert!(second.manifest_ok);
        assert_eq!(second.dropped, 0, "second recovery drops nothing");
        assert_eq!(
            second.rehydrated, first.rehydrated,
            "second recovery re-verifies the same blocks"
        );
        assert_eq!(cm.stats(), stats, "no state change on the second pass");
        assert!(cm.contains(a) && cm.contains(d));
    }

    #[test]
    fn corrupted_manifest_degrades_to_a_full_drop() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..100).map(|i| (i, i)).collect();
        let a = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        // Flip a byte inside the manifest body: the checksum must catch it.
        let path = cm.manifest_path();
        let mut text = std::fs::read_to_string(&path).unwrap();
        text = text.replace("\"kind\": \"objects\"", "\"kind\": \"objectz\"");
        std::fs::write(&path, text).unwrap();
        assert!(cm.load_manifest().is_none(), "tampered manifest fails verification");
        let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        assert!(!out.manifest_ok);
        assert!(out.rehydrated.is_empty(), "nothing is trusted");
        assert_eq!(out.dropped, 1);
        assert!(!cm.contains(a), "block dropped for lineage recompute");
        // The re-committed manifest is valid (and empty) again.
        assert_eq!(cm.load_manifest().expect("fresh manifest").len(), 0);
    }

    /// Root rooted 16 KB `byte[]`s until the heap refuses one.
    fn fill_heap(heap: &mut Heap) -> Vec<RootId> {
        let cls = byte_array_class(heap);
        let mut filler = Vec::new();
        while let Ok(arr) = heap.alloc_array(cls, 16 << 10) {
            filler.push(heap.add_root(arr));
        }
        filler
    }

    fn free_heap(heap: &mut Heap, filler: Vec<RootId>) {
        for root in filler {
            heap.remove_root(root);
        }
        heap.full_gc();
    }

    fn load_pairs(
        heap: &Heap,
        classes: &<(i64, i64) as HeapRecord>::Classes,
        root: RootId,
        len: usize,
    ) -> Vec<(i64, i64)> {
        let arr = heap.root_ref(root);
        (0..len)
            .map(|i| <(i64, i64) as HeapRecord>::load(heap, classes, heap.array_get_ref(arr, i)))
            .collect()
    }

    /// A byte block whose restore meets a full heap stays cold and owned:
    /// the read fails with a typed `Oom`, no root is left behind, and once
    /// the heap has room the block reads back its records.
    #[test]
    fn a_bytes_restore_on_a_full_heap_keeps_the_block() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(4 << 20, 3 << 20);
        let recs: Vec<(i64, i64)> = (0..150_000).map(|i| (i, i * 3)).collect();
        let id = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
        cm.evict(id, &mut heap, &mut kryo, &mut mm).unwrap();
        let filler = fill_heap(&mut heap);
        let err = cm.read_bytes(id, &mut heap, &mut kryo, &mut mm).err();
        assert!(matches!(err, Some(CacheError::Oom(_))), "{err:?}");
        assert!(cm.contains(id), "the block survives its failed restore");
        assert_eq!(cm.tier(id, &mm), Tier::Cold);
        assert_eq!(heap.root_count(), filler.len(), "the failed restore left no root");
        free_heap(&mut heap, filler);
        assert_eq!(scan_pairs(&mut cm, id, &mut heap, &mut kryo, &mut mm), recs);
        assert_eq!(cm.tier(id, &mm), Tier::Warm);
    }

    /// An object block whose restore fails, and fails again after the
    /// evict-and-collect retry, stays cold and owned, and reads back once
    /// the heap has room.
    #[test]
    fn an_objects_restore_that_fails_twice_keeps_the_block() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(4 << 20, 3 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        // A graph larger than eden: its restore needs the full old
        // generation to take eden's survivors.
        let recs: Vec<(i64, i64)> = (0..20_000).map(|i| (i, -i)).collect();
        let id = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        cm.evict(id, &mut heap, &mut kryo, &mut mm).unwrap();
        let filler = fill_heap(&mut heap);
        let full_gcs = heap.stats().full_collections;
        let err = cm.objects_root(id, &mut heap, &mut kryo, &mut mm).err();
        assert!(matches!(err, Some(CacheError::Oom(_))), "{err:?}");
        assert!(heap.stats().full_collections > full_gcs, "the restore retried after a collection");
        assert!(cm.contains(id), "the block survives its failed restore");
        assert_eq!(cm.tier(id, &mm), Tier::Cold);
        assert_eq!(heap.root_count(), filler.len(), "the failed restore left no root");
        free_heap(&mut heap, filler);
        let (root, len) = cm.objects_root(id, &mut heap, &mut kryo, &mut mm).unwrap();
        assert_eq!(load_pairs(&heap, &classes, root, len), recs);
    }

    /// A payload file that cannot be read (a directory stands in its
    /// place) fails the read with a typed I/O error and keeps the block,
    /// for an object block and a byte block alike; with the file back, the
    /// block reads back its records.
    #[test]
    fn an_unreadable_payload_keeps_the_block() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(16 << 20, 4 << 20);
        let classes = <(i64, i64) as HeapRecord>::register(&mut heap);
        let recs: Vec<(i64, i64)> = (0..300).map(|i| (i, 2 * i + 1)).collect();
        let objects = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &recs).unwrap();
        let bytes = cm.put_serialized(&mut heap, &mut kryo, &mut mm, &recs).unwrap();
        cm.evict_all(&mut heap, &mut kryo, &mut mm).unwrap();
        for id in [objects, bytes] {
            let path = cm.file(id.0);
            let payload = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            std::fs::create_dir(&path).unwrap();
            let err = if id == objects {
                cm.objects_root(id, &mut heap, &mut kryo, &mut mm).err()
            } else {
                cm.read_bytes(id, &mut heap, &mut kryo, &mut mm).err()
            };
            assert!(matches!(err, Some(CacheError::Io(_))), "{id:?}: {err:?}");
            assert!(cm.contains(id), "{id:?}: the block survives its failed read");
            assert_eq!(cm.tier(id, &mm), Tier::Cold);
            std::fs::remove_dir(&path).unwrap();
            std::fs::write(&path, payload).unwrap();
        }
        let (root, len) = cm.objects_root(objects, &mut heap, &mut kryo, &mut mm).unwrap();
        assert_eq!(load_pairs(&heap, &classes, root, len), recs);
        assert_eq!(scan_pairs(&mut cm, bytes, &mut heap, &mut kryo, &mut mm), recs);
    }

    #[allow(dead_code, unused_imports)]
    mod keyed {
        crate::record! {
            /// An id and a trailing `double[]`.
            #[derive(Clone, Debug)]
            pub struct KeyedPoint as "KeyedPoint" {
                pub id: i64 as "id",
                pub values: [f64] as "values" of "double[]",
            }
        }
    }
    use keyed::KeyedPoint;

    /// A demotion whose warm copy finds no heap room writes the bytes it
    /// already has to disk and commits the whole manifest: the row of a
    /// page group swapped earlier stays in it, so a crash right after
    /// still rehydrates that group.
    #[test]
    fn a_demote_to_disk_fallback_keeps_a_swapped_groups_manifest_row() {
        let (mut heap, mut kryo, mut mm, mut cm) = setup(8 << 20, 1 << 20);
        let pairs: Vec<(i64, i64)> = (0..400).map(|i| (i, i + 7)).collect();
        let deca = cm.put_deca(&mut heap, &mut mm, &pairs).unwrap();
        cm.evict(deca, &mut heap, &mut kryo, &mut mm).unwrap();
        assert_eq!(cm.tier(deca, &mm), Tier::Cold);
        // Humongous rooted arrays fill most of the old generation.
        let cls = byte_array_class(&mut heap);
        let filler: Vec<RootId> = (0..4)
            .map(|_| {
                let arr = heap.alloc_array(cls, 1200 << 10).unwrap();
                heap.add_root(arr)
            })
            .collect();
        // Points whose Kryo bytes are about as large as their graph, so the
        // warm copy is humongous and needs the old generation.
        let classes = KeyedPoint::register(&mut heap);
        let points: Vec<KeyedPoint> =
            (0..180).map(|i| KeyedPoint { id: i, values: vec![i as f64; 1000] }).collect();
        let objects = cm.put_objects(&mut heap, &mut kryo, &mut mm, &classes, &points).unwrap();
        assert_eq!(cm.tier(objects, &mm), Tier::Hot);
        // A small put over the budget demotes the point block.
        cm.put_serialized(&mut heap, &mut kryo, &mut mm, &pairs[..10]).unwrap();
        assert_eq!(cm.tier(objects, &mm), Tier::Cold, "no room for the warm copy");
        assert_eq!((cm.demotions, cm.evictions), (0, 2));
        let rows = cm.load_manifest().expect("the fallback commits the manifest");
        assert!(rows.iter().any(|r| r.kind == "deca" && r.id == deca.0), "{rows:?}");
        assert!(rows.iter().any(|r| r.kind == "objects" && r.id == objects.0), "{rows:?}");
        free_heap(&mut heap, filler);
        let out = cm.crash_restart(&mut heap, &mut mm, "s", 0);
        let kept: Vec<u32> = out.rehydrated.iter().map(|r| r.0).collect();
        assert_eq!(kept, [deca.0, objects.0], "both cold blocks survive the crash");
        let back: Vec<(i64, i64)> = cm.deca_block(deca).decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, pairs);
    }
}
