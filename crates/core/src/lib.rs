//! # deca-core — lifetime-based memory management
//!
//! The paper's primary contribution (§4): instead of letting a tracing GC
//! repeatedly walk millions of long-living data objects, Deca
//!
//! 1. groups objects with the same lifetime into **data containers** (cache
//!    blocks, shuffle buffers, UDF variables),
//! 2. **decomposes** objects whose size-type permits it (SFST/RFST, per the
//!    analyses in `deca-udt`) into raw byte segments inside a small number
//!    of fixed-size byte-array **pages**, and
//! 3. releases each container's **page group** wholesale when the
//!    container's lifetime ends — `cache()`/`unpersist()` for cached RDDs,
//!    end of the reading phase for shuffle buffers.
//!
//! Pages are registered with the simulated heap of `deca-heap` as *external
//! allocations*: they consume old-generation budget but cost the collector
//! one trace step each instead of one per object.
//!
//! Modules:
//!
//! * [`page`] / [`group`] — fixed-size pages and the `page-info` structure
//!   of §4.3.1 (pages, endOffset, and page-at-a-time record walks);
//! * [`manager`] — page-group allocation, single-owner release through a
//!   move-only handle, generation-checked plain ids, LRU swapping
//!   (Appendix C);
//! * [`record`] — the `DecaRecord` trait: the runtime equivalent of the
//!   synthesized SUDT accessors produced by Deca's code transformation
//!   (Appendix B);
//! * [`cache`] — decomposed cache blocks;
//! * [`shuffle`] / [`var_shuffle`] — decomposed shuffle buffers: the
//!   pointer-free SFST hash table laid out in its pages, the pointer-array
//!   buffer for variable-size keys, and the in-place
//!   aggregate-value reuse of §4.3.2 (Figure 6b);
//! * [`hash`] — the word-at-a-time hash every shuffle buffer uses, Deca's
//!   page tables and the Spark baselines' std maps alike, and the engine
//!   cache's spill digest;
//! * [`optimizer`] — the Deca optimizer (§5, Appendix A): classification →
//!   ownership → per-container decomposition decisions;
//! * [`swap`] — page-group spill files.
//!
//! ```
//! use deca_core::{DecaCacheBlock, MemoryManager};
//! use deca_heap::{Heap, HeapConfig};
//!
//! let mut heap = Heap::new(HeapConfig::small());
//! let mut mm = MemoryManager::new(64 << 10, std::env::temp_dir().join("deca-doc"));
//!
//! // Decompose records into page segments...
//! let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
//! for i in 0..10_000i64 {
//!     block.append(&mut mm, &mut heap, &(i as f64, i)).unwrap();
//! }
//! // ...iterate them without materialising objects...
//! let sum = block
//!     .fold_bytes(&mut mm, &mut heap, 0.0, |acc, bytes| {
//!         acc + f64::from_le_bytes(bytes[..8].try_into().unwrap())
//!     })
//!     .unwrap();
//! assert_eq!(sum, (0..10_000).map(|i| i as f64).sum());
//! // ...and reclaim the whole container's space in O(#pages).
//! block.release(&mut mm, &mut heap);
//! assert_eq!(heap.external_bytes(), 0);
//! ```

pub mod cache;
pub mod group;
pub mod hash;
pub mod manager;
pub mod optimizer;
pub mod page;
pub mod record;
pub mod shuffle;
pub mod swap;
pub mod var_shuffle;

pub use cache::DecaCacheBlock;
pub use group::{PageGroup, SegPtr};
pub use manager::{Group, GroupId, HandoverEvent, MemError, MemoryManager, ReleaseEvent};
pub use optimizer::{ContainerDecision, ContainerInfo, DecompositionPlan, Optimizer};
pub use page::Page;
pub use record::DecaRecord;
pub use shuffle::{
    ArenaStats, DecaHashShuffle, PageRun, PayloadChunks, ShuffleArena, ShufflePayload,
};
pub use swap::SpillStore;
pub use var_shuffle::DecaVarHashShuffle;
