//! The `DecaRecord` trait — the runtime face of Deca's code transformation.
//!
//! The paper's optimizer rewrites UDT bytecode into "SUDT" accessors that
//! read and write raw bytes at computed offsets (Appendix B, Figure 12). In
//! Rust, that rewritten code is expressed as an implementation of
//! [`DecaRecord`]: `encode` writes the object's primitive leaves in field
//! order (references and headers discarded — Figure 2), `decode` reads them
//! back, and `data_size` reports the byte length (constant for SFSTs,
//! per-instance for RFSTs).
//!
//! Unlike a general serializer, there are no per-field tags, no varints and
//! no class descriptors — the layout is fixed by the record's declaration
//! (`deca_engine::record!`), which is why Deca's "serialization" costs as
//! little as Kryo's while *reading* costs nothing at all (§6.5, Table 5: fields are accessed directly in the
//! page bytes, no deserialization step materialises objects).

/// A type that can be decomposed into a raw byte segment.
pub trait DecaRecord: Sized {
    /// Data-size of this instance in bytes. For an SFST this must be a
    /// constant (`FIXED_SIZE`); for an RFST it may vary per instance but
    /// must never change after construction.
    fn data_size(&self) -> usize;

    /// The SFST constant size, if this type is statically fixed.
    const FIXED_SIZE: Option<usize>;

    /// Write exactly `data_size()` bytes into `out`.
    fn encode(&self, out: &mut [u8]);

    /// Read an instance back from bytes produced by `encode`.
    fn decode(buf: &[u8]) -> Self;
}

impl DecaRecord for f64 {
    const FIXED_SIZE: Option<usize> = Some(8);

    #[inline]
    fn data_size(&self) -> usize {
        8
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        f64::from_le_bytes(buf[..8].try_into().expect("8 bytes"))
    }
}

impl DecaRecord for i64 {
    const FIXED_SIZE: Option<usize> = Some(8);

    #[inline]
    fn data_size(&self) -> usize {
        8
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        i64::from_le_bytes(buf[..8].try_into().expect("8 bytes"))
    }
}

impl DecaRecord for i32 {
    const FIXED_SIZE: Option<usize> = Some(4);

    #[inline]
    fn data_size(&self) -> usize {
        4
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        i32::from_le_bytes(buf[..4].try_into().expect("4 bytes"))
    }
}

impl DecaRecord for u32 {
    const FIXED_SIZE: Option<usize> = Some(4);

    #[inline]
    fn data_size(&self) -> usize {
        4
    }

    #[inline]
    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&self.to_le_bytes());
    }

    #[inline]
    fn decode(buf: &[u8]) -> Self {
        u32::from_le_bytes(buf[..4].try_into().expect("4 bytes"))
    }
}

/// Pairs concatenate their parts; the pair is SFST iff both parts are.
impl<A: DecaRecord, B: DecaRecord> DecaRecord for (A, B) {
    const FIXED_SIZE: Option<usize> = match (A::FIXED_SIZE, B::FIXED_SIZE) {
        (Some(a), Some(b)) => Some(a + b),
        _ => None,
    };

    fn data_size(&self) -> usize {
        self.0.data_size() + self.1.data_size()
    }

    fn encode(&self, out: &mut [u8]) {
        let split = self.0.data_size();
        self.0.encode(&mut out[..split]);
        self.1.encode(&mut out[split..]);
    }

    fn decode(buf: &[u8]) -> Self {
        let a = A::decode(buf);
        let split = a.data_size();
        let b = B::decode(&buf[split..]);
        (a, b)
    }
}

/// An RFST: a variable-length vector of doubles with a `u32` length prefix
/// in its encoding (the per-instance size is fixed after construction).
impl DecaRecord for Vec<f64> {
    const FIXED_SIZE: Option<usize> = None;

    fn data_size(&self) -> usize {
        4 + self.len() * 8
    }

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&(self.len() as u32).to_le_bytes());
        for (i, v) in self.iter().enumerate() {
            out[4 + i * 8..12 + i * 8].copy_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let n = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        (0..n)
            .map(|i| f64::from_le_bytes(buf[4 + i * 8..12 + i * 8].try_into().expect("8 bytes")))
            .collect()
    }
}

/// An RFST: a variable-length vector of u32 (used for adjacency lists).
impl DecaRecord for Vec<u32> {
    const FIXED_SIZE: Option<usize> = None;

    fn data_size(&self) -> usize {
        4 + self.len() * 4
    }

    fn encode(&self, out: &mut [u8]) {
        out[..4].copy_from_slice(&(self.len() as u32).to_le_bytes());
        for (i, v) in self.iter().enumerate() {
            out[4 + i * 4..8 + i * 4].copy_from_slice(&v.to_le_bytes());
        }
    }

    fn decode(buf: &[u8]) -> Self {
        let n = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        (0..n)
            .map(|i| u32::from_le_bytes(buf[4 + i * 4..8 + i * 4].try_into().expect("4 bytes")))
            .collect()
    }
}

/// An RFST: UTF-8 string bytes (length carried by the frame).
impl DecaRecord for String {
    const FIXED_SIZE: Option<usize> = None;

    fn data_size(&self) -> usize {
        self.len()
    }

    fn encode(&self, out: &mut [u8]) {
        out[..self.len()].copy_from_slice(self.as_bytes());
    }

    fn decode(buf: &[u8]) -> Self {
        String::from_utf8(buf.to_vec()).expect("valid UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: DecaRecord + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = vec![0u8; v.data_size()];
        v.encode(&mut buf);
        assert_eq!(T::decode(&buf), v);
    }

    #[test]
    fn primitive_roundtrips() {
        roundtrip(1.5f64);
        roundtrip(-9i64);
        roundtrip(i32::MIN);
        roundtrip(u32::MAX);
    }

    #[test]
    fn pair_roundtrip_and_fixed_size() {
        roundtrip((3.25f64, 7i64));
        assert_eq!(<(f64, i64)>::FIXED_SIZE, Some(16));
        assert_eq!(<(f64, Vec<f64>)>::FIXED_SIZE, None);
    }

    #[test]
    fn vec_roundtrips() {
        roundtrip(vec![1.0f64, -2.0, 3.5]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![1u32, 2, 3, 4, 5]);
        let v = vec![0.5f64; 100];
        assert_eq!(v.data_size(), 4 + 800);
        roundtrip(v);
    }

    #[test]
    fn string_roundtrip() {
        roundtrip(String::from("hello, deca"));
        roundtrip(String::new());
        roundtrip(String::from("日本語テキスト"));
    }

    #[test]
    fn nested_pair_with_vec() {
        let rec = (42i64, vec![1.0f64, 2.0]);
        assert_eq!(rec.data_size(), 8 + 4 + 16);
        roundtrip(rec);
    }
}
