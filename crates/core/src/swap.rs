//! Page-group spill files (Appendix C).
//!
//! Decomposed bytes are written to disk *verbatim* — the paper's point that
//! Deca needs no serialization step before swapping or network transfer,
//! unlike Spark, which must serialize cache blocks on eviction. One file
//! per spilled group, named by its [`GroupId`] — slot and generation, so a
//! file never names an earlier or later occupant of the slot.

use std::collections::HashMap;
use std::fs;
use std::io::Read;
use std::path::PathBuf;

use crate::hash::hash_bytes;
use crate::manager::GroupId;
use crate::page::Page;

/// Disk storage for swapped-out page groups.
#[derive(Debug)]
pub struct SpillStore {
    dir: PathBuf,
    /// Each spilled group's per-page byte sizes (pages may be
    /// heterogeneous: oversized segments get dedicated pages) and the
    /// [`hash_bytes`] of its file's bytes, taken as they were written.
    spilled: HashMap<GroupId, (Vec<usize>, u64)>,
}

impl SpillStore {
    pub fn new(dir: PathBuf) -> SpillStore {
        SpillStore { dir, spilled: HashMap::new() }
    }

    /// Where a group's spill file lives (whether or not it exists), so
    /// callers can checksum the payload without going through `read`.
    pub fn file_path(&self, id: GroupId) -> PathBuf {
        self.dir.join(format!("group-{id}.spill"))
    }

    /// Write a group's pages to its spill file (raw page bytes
    /// back-to-back; sizes and the payload's digest kept in memory).
    pub fn write(&mut self, id: GroupId, pages: &[Page]) -> std::io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let payload = pages.iter().map(Page::bytes).collect::<Vec<_>>().concat();
        fs::write(self.file_path(id), &payload)?;
        let sizes = pages.iter().map(Page::len).collect();
        self.spilled.insert(id, (sizes, hash_bytes(&payload)));
        Ok(())
    }

    /// Read a group's pages back (sizes restored from the spill record).
    pub fn read(&self, id: GroupId) -> std::io::Result<Vec<Page>> {
        let mut f = std::io::BufReader::new(fs::File::open(self.file_path(id))?);
        let sizes = self.page_sizes(id).unwrap_or_default();
        let mut pages = Vec::with_capacity(sizes.len());
        for &size in sizes {
            let mut p = Page::new(size);
            f.read_exact(p.bytes_mut())?;
            pages.push(p);
        }
        Ok(pages)
    }

    /// The per-page byte sizes of a spilled group — the part of the spill
    /// record that lives only in memory and would be lost in a crash,
    /// which is why the engine's spill manifest persists a copy.
    pub fn page_sizes(&self, id: GroupId) -> Option<&[usize]> {
        self.spilled.get(&id).map(|(sizes, _)| sizes.as_slice())
    }

    /// The digest of a spilled group's payload as it was written: what
    /// the file must still hash to. The engine's spill manifest records
    /// it, so later corruption of the file is never vouched for.
    pub fn digest(&self, id: GroupId) -> Option<u64> {
        self.spilled.get(&id).map(|&(_, digest)| digest)
    }

    /// Total spilled bytes of one group.
    pub fn group_bytes(&self, id: GroupId) -> usize {
        self.page_sizes(id).unwrap_or_default().iter().sum()
    }

    /// Delete a group's spill file (after swap-in or group release).
    pub fn remove(&mut self, id: GroupId) {
        if self.spilled.remove(&id).is_some() {
            let _ = fs::remove_file(self.file_path(id));
        }
    }
}

impl Drop for SpillStore {
    fn drop(&mut self) {
        for &id in std::mem::take(&mut self.spilled).keys() {
            let _ = fs::remove_file(self.file_path(id));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "deca-spill-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn roundtrip() {
        let dir = tmp();
        let id = GroupId::new(7, 0);
        let mut store = SpillStore::new(dir.clone());
        let mut pages = vec![Page::new(64), Page::new(64)];
        pages[0].write_bytes(0, &123i64.to_le_bytes());
        pages[1].write_bytes(8, &4.5f64.to_le_bytes());
        store.write(id, &pages).unwrap();
        assert_eq!(store.page_sizes(id), Some(&[64, 64][..]));
        assert_eq!(store.group_bytes(id), 128);
        let back = store.read(id).unwrap();
        assert_eq!(back[0].slice(0, 8), 123i64.to_le_bytes());
        assert_eq!(back[1].slice(8, 8), 4.5f64.to_le_bytes());
        assert_eq!(
            store.digest(id),
            Some(hash_bytes(&[pages[0].bytes(), pages[1].bytes()].concat()))
        );
        store.remove(id);
        assert_eq!(store.page_sizes(id), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drop_cleans_up() {
        let dir = tmp();
        {
            let mut store = SpillStore::new(dir.clone());
            store.write(GroupId::new(1, 2), &[Page::new(16)]).unwrap();
            assert!(dir.join("group-1.2.spill").exists());
        }
        assert!(!dir.join("group-1.2.spill").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
