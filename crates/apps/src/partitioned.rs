//! A job's input dataset: one shared allocation cut into partitions.
//!
//! A job description owns its dataset (see the crate docs): the records are
//! generated once when the description is built and every task — first
//! attempt, retry, stolen or lineage-recomputing — borrows its partition as
//! a `&[T]` out of the same buffer. Cloning a [`Partitioned`] clones a
//! pointer, so a description submitted many times shares one copy.
//! [`PartitionedText`] is the same for rendered text: one byte buffer, and
//! each partition's tokens borrowed from it as `&str`.

use std::sync::Arc;

use crate::datagen::Text;

/// Records in one allocation plus the partition bounds over it.
pub struct Partitioned<T> {
    inner: Arc<Inner<T>>,
}

struct Inner<T> {
    records: Vec<T>,
    /// `bounds[i]..bounds[i + 1]` is partition `i`; `parts + 1` entries.
    bounds: Vec<usize>,
}

impl<T> Clone for Partitioned<T> {
    fn clone(&self) -> Self {
        Partitioned { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Partitioned<T> {
    /// Cut `records` into `parts` contiguous runs of `ceil(len / parts)`
    /// records (the last non-empty run takes the remainder, trailing runs
    /// may be empty), in input order.
    pub fn split(records: Vec<T>, parts: usize) -> Partitioned<T> {
        let bounds = split_bounds(records.len(), parts);
        Partitioned { inner: Arc::new(Inner { records, bounds }) }
    }

    /// Bucket `records` by `key(record) % parts`, keeping input order within
    /// each bucket (a hash partitioner's output, laid out contiguously).
    pub fn by_key(records: &[T], parts: usize, key: impl Fn(&T) -> usize) -> Partitioned<T>
    where
        T: Copy,
    {
        assert!(parts > 0);
        let mut bounds = vec![0usize; parts + 1];
        for r in records {
            bounds[key(r) % parts + 1] += 1;
        }
        for i in 0..parts {
            bounds[i + 1] += bounds[i];
        }
        let mut next = bounds.clone();
        let mut out = records.to_vec();
        for r in records {
            let slot = &mut next[key(r) % parts];
            out[*slot] = *r;
            *slot += 1;
        }
        Partitioned { inner: Arc::new(Inner { records: out, bounds }) }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.inner.bounds.len() - 1
    }

    /// Partition `i`, borrowed from the shared buffer.
    pub fn part(&self, i: usize) -> &[T] {
        &self.inner.records[self.inner.bounds[i]..self.inner.bounds[i + 1]]
    }

    /// Every partition in index order.
    pub fn iter(&self) -> impl Iterator<Item = &[T]> {
        (0..self.parts()).map(|i| self.part(i))
    }

    /// All records, in partition order.
    pub fn records(&self) -> &[T] {
        &self.inner.records
    }
}

/// [`Partitioned::split`]'s bounds over `len` records.
fn split_bounds(len: usize, parts: usize) -> Vec<usize> {
    assert!(parts > 0);
    let per = len.div_ceil(parts);
    (0..=parts).map(|i| (i * per).min(len)).collect()
}

/// Rendered tokens in one buffer, cut into partitions by token count
/// exactly as [`Partitioned::split`] cuts records.
#[derive(Clone)]
pub struct PartitionedText {
    inner: Arc<TextInner>,
}

struct TextInner {
    text: Text,
    /// Token-index bounds, as [`Inner::bounds`].
    bounds: Vec<usize>,
}

impl PartitionedText {
    pub fn split(text: Text, parts: usize) -> PartitionedText {
        let bounds = split_bounds(text.ends.len(), parts);
        PartitionedText { inner: Arc::new(TextInner { text, bounds }) }
    }

    /// Number of partitions.
    pub fn parts(&self) -> usize {
        self.inner.bounds.len() - 1
    }

    /// Partition `i`'s tokens, in order, borrowed from the shared buffer.
    pub fn part(&self, i: usize) -> impl Iterator<Item = &str> {
        let Text { text, ends } = &self.inner.text;
        let (first, last) = (self.inner.bounds[i], self.inner.bounds[i + 1]);
        let start = first.checked_sub(1).map_or(0, |t| ends[t] as usize);
        ends[first..last].iter().scan(start, move |at, &end| {
            let token = &text[*at..end as usize];
            *at = end as usize;
            Some(token)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deca_check::property::{check, gens, Config};

    /// Reference splitter: deep-copies each partition, with the bounds
    /// every recorded experiment and checksum was produced under —
    /// `Partitioned::split` must cut at exactly the same places.
    fn copying_partition<T: Clone>(records: &[T], parts: usize) -> Vec<Vec<T>> {
        assert!(parts > 0);
        let mut out: Vec<Vec<T>> = (0..parts).map(|_| Vec::new()).collect();
        let per = records.len().div_ceil(parts);
        for (i, chunk) in records.chunks(per.max(1)).enumerate() {
            if i < parts {
                out[i] = chunk.to_vec();
            } else {
                out[parts - 1].extend_from_slice(chunk);
            }
        }
        out
    }

    fn same_as_copying(len: usize, parts: usize) -> bool {
        let records: Vec<usize> = (0..len).collect();
        let old = copying_partition(&records, parts);
        let new = Partitioned::split(records, parts);
        new.parts() == old.len() && new.iter().zip(&old).all(|(a, b)| a == b.as_slice())
    }

    #[test]
    fn split_bounds_match_the_copying_splitter_on_the_edge_lengths() {
        for parts in [1usize, 3, 4] {
            for len in [0, 1, parts - 1, parts, parts + 1, 10_007] {
                assert!(same_as_copying(len, parts), "len={len} parts={parts}");
            }
        }
    }

    #[test]
    fn split_bounds_match_the_copying_splitter_everywhere() {
        check(
            Config::with_cases(200),
            gens::pair(gens::usize_in(0..3000), gens::usize_in(1..17)),
            |&(len, parts)| {
                if same_as_copying(len, parts) {
                    Ok(())
                } else {
                    Err(format!("bounds differ for len={len} parts={parts}"))
                }
            },
        );
    }

    #[test]
    fn by_key_is_a_stable_hash_partition() {
        let records: Vec<(u32, u32)> = (0..1000u32).map(|i| (i * 7 % 13, i)).collect();
        let parts = Partitioned::by_key(&records, 4, |r| r.0 as usize);
        assert_eq!(parts.parts(), 4);
        for p in 0..4 {
            let want: Vec<_> = records.iter().copied().filter(|r| r.0 as usize % 4 == p).collect();
            assert_eq!(parts.part(p), want.as_slice());
        }
        assert_eq!(parts.records().len(), records.len());
    }

    #[test]
    fn clones_share_the_allocation() {
        let a = Partitioned::split(vec![1u64, 2, 3, 4, 5], 2);
        let b = a.clone();
        assert!(std::ptr::eq(a.part(1).as_ptr(), b.part(1).as_ptr()));
        assert_eq!(b.part(0), &[1, 2, 3]);
        assert_eq!(b.part(1), &[4, 5]);
    }
}
