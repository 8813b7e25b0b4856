//! Decomposed cache blocks (§4.3.2, Figure 6a).
//!
//! A cache block owns a page group holding its records' raw bytes. SFST
//! records are stored back-to-back with no framing — their offsets are
//! statically computable, matching the paper's observation that sequential
//! access needs no pointer array. RFST records are framed with a length
//! prefix. The block's lifetime is the cached RDD's: `unpersist()`
//! consumes the block and releases its group, and the whole space returns
//! at once.

use deca_heap::Heap;

use crate::manager::{Group, MemError, MemoryManager};
use crate::record::DecaRecord;

/// A cache block of decomposed records of type `T`.
///
/// [`DecaCacheBlock::release`] consumes the block, so nothing reads it
/// after its pages are gone:
///
/// ```compile_fail,E0382
/// use deca_core::{DecaCacheBlock, MemoryManager};
/// use deca_heap::{Heap, HeapConfig};
///
/// let mut heap = Heap::new(HeapConfig::small());
/// let mut mm = MemoryManager::new(4096, std::env::temp_dir());
/// let block = DecaCacheBlock::new::<i64>(&mut mm);
/// block.release(&mut mm, &mut heap);
/// block.len();
/// ```
#[derive(Debug)]
pub struct DecaCacheBlock {
    group: Group,
    len: usize,
    /// `Some(size)` for SFST records (unframed), `None` for RFST (framed).
    fixed_size: Option<usize>,
}

impl DecaCacheBlock {
    /// Create an empty block backed by a fresh page group.
    pub fn new<T: DecaRecord>(mm: &mut MemoryManager) -> DecaCacheBlock {
        DecaCacheBlock { group: mm.create_group(), len: 0, fixed_size: T::FIXED_SIZE }
    }

    /// Create a block whose records all have the *runtime-resolved*
    /// constant size `size` — an SFST whose size the static analysis
    /// proved constant but whose value (e.g. the LR dimension `D`) is a
    /// config constant only the runtime optimizer knows (Appendix A).
    /// Records are stored unframed.
    pub fn new_sfst(mm: &mut MemoryManager, size: usize) -> DecaCacheBlock {
        DecaCacheBlock { group: mm.create_group(), len: 0, fixed_size: Some(size) }
    }

    /// Append one record (encodes straight into the pages).
    pub fn append<T: DecaRecord>(
        &mut self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        rec: &T,
    ) -> Result<(), MemError> {
        let size = rec.data_size();
        let fixed = self.fixed_size;
        mm.with_group_mut(&self.group, heap, |g, h| {
            let ptr = match fixed {
                Some(s) => {
                    assert_eq!(s, size, "record size must match the block's SFST size");
                    g.reserve(h, s)?
                }
                None => g.append_framed(h, &vec![0u8; size])?,
            };
            rec.encode(g.slice_mut(ptr, size));
            Ok(())
        })?;
        self.len += 1;
        Ok(())
    }

    /// Number of records in the block.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing page group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// `Some(size)` if the records are unframed SFST segments of `size`
    /// bytes, `None` if they are framed.
    pub fn fixed_size(&self) -> Option<usize> {
        self.fixed_size
    }

    /// Visit every record's bytes sequentially without materialising
    /// objects — the Deca iteration fast path (Figure 12's transformed
    /// loop reads fields at offsets within these slices).
    pub fn scan_bytes<R>(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        mut f: impl FnMut(&[u8]) -> R,
        mut sink: impl FnMut(R),
    ) -> Result<(), MemError> {
        self.fold_bytes(mm, heap, (), |(), bytes| sink(f(bytes)))
    }

    /// Decode every record (for a downstream phase that genuinely needs
    /// materialised values).
    pub fn decode_all<T: DecaRecord>(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
    ) -> Result<Vec<T>, MemError> {
        let mut out = Vec::with_capacity(self.len);
        self.scan_bytes(mm, heap, |bytes| T::decode(bytes), |v| out.push(v))?;
        Ok(out)
    }

    /// Fold over records' bytes (aggregations without materialisation).
    pub fn fold_bytes<A>(
        &self,
        mm: &mut MemoryManager,
        heap: &mut Heap,
        init: A,
        f: impl FnMut(A, &[u8]) -> A,
    ) -> Result<A, MemError> {
        let fixed = self.fixed_size;
        mm.with_group(&self.group, heap, |g| match fixed {
            Some(s) => g.fixed_records(s).fold(init, f),
            None => g.framed_records().fold(init, f),
        })
    }

    /// End the block's lifetime and release its page group (`unpersist()`).
    pub fn release(self, mm: &mut MemoryManager, heap: &mut Heap) {
        mm.release(self.group, heap);
    }

    /// Resident footprint in bytes.
    pub fn footprint(&self, mm: &mut MemoryManager, heap: &mut Heap) -> Result<usize, MemError> {
        mm.with_group(&self.group, heap, |g| g.footprint_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_heap::HeapConfig;
    use std::path::PathBuf;

    fn setup() -> (Heap, MemoryManager) {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "deca-cache-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        (Heap::new(HeapConfig::small()), MemoryManager::new(4096, dir))
    }

    #[test]
    fn sfst_block_roundtrip() {
        let (mut heap, mut mm) = setup();
        let mut block = DecaCacheBlock::new::<(f64, i64)>(&mut mm);
        for i in 0..1000i64 {
            block.append(&mut mm, &mut heap, &(i as f64 * 0.5, i)).unwrap();
        }
        assert_eq!(block.len(), 1000);
        let back: Vec<(f64, i64)> = block.decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back.len(), 1000);
        assert_eq!(back[17], (8.5, 17));
        // ~1000 records * 16B in 4KB pages => only a handful of pages
        // (few traced objects), the point of decomposition.
        assert!(heap.external_count() <= 8);
        block.release(&mut mm, &mut heap);
        assert_eq!(heap.external_bytes(), 0);
    }

    #[test]
    fn rfst_block_roundtrip() {
        let (mut heap, mut mm) = setup();
        let mut block = DecaCacheBlock::new::<(i64, Vec<f64>)>(&mut mm);
        let recs: Vec<(i64, Vec<f64>)> =
            (0..100).map(|i| (i, vec![i as f64; (i % 7) as usize])).collect();
        for r in &recs {
            block.append(&mut mm, &mut heap, r).unwrap();
        }
        let back: Vec<(i64, Vec<f64>)> = block.decode_all(&mut mm, &mut heap).unwrap();
        assert_eq!(back, recs);
    }

    #[test]
    fn fold_without_materialisation() {
        let (mut heap, mut mm) = setup();
        let mut block = DecaCacheBlock::new::<f64>(&mut mm);
        for i in 1..=100 {
            block.append(&mut mm, &mut heap, &(i as f64)).unwrap();
        }
        // Sum by reading bytes directly (the "transformed code" path).
        let sum = block
            .fold_bytes(&mut mm, &mut heap, 0.0f64, |acc, bytes| {
                acc + f64::from_le_bytes(bytes[..8].try_into().unwrap())
            })
            .unwrap();
        assert_eq!(sum, 5050.0);
    }
}
