//! Shared framing for the workspace's binary formats.
//!
//! Both the CSR graph format (`"ASCN"`, [`super::binary`]) and the
//! similarity-index format (`"ASIX"`, in `anyscan-index`) are a 4-byte
//! magic, a little-endian `u32` version, and typed little-endian arrays.
//! This module holds the header and array plumbing so every format
//! validates truncation, length arithmetic and versioning identically.
//! Readers are generic over [`Buf`]: an owned [`Bytes`] or a borrowed
//! `&[u8]`, both contiguous, so arrays decode in bulk from [`Buf::chunk`].

pub use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::types::GraphError;

/// Errors unless at least `n` bytes remain in `buf`.
pub fn need<B: Buf>(buf: &B, n: usize) -> Result<(), GraphError> {
    if buf.remaining() < n {
        Err(GraphError::Format("truncated file".into()))
    } else {
        Ok(())
    }
}

/// Writes the `magic` + version header.
pub fn put_header(buf: &mut BytesMut, magic: &[u8; 4], version: u32) {
    buf.put_slice(magic);
    buf.put_u32_le(version);
}

/// Reads and checks the `magic` + version header; errors on a foreign magic
/// or a version other than `expect_version`.
pub fn get_header<B: Buf>(
    buf: &mut B,
    magic: &[u8; 4],
    expect_version: u32,
) -> Result<(), GraphError> {
    let version = get_header_versioned(buf, magic, expect_version..=expect_version)?;
    debug_assert_eq!(version, expect_version);
    Ok(())
}

/// Reads and checks the `magic` + version header, accepting any version in
/// `accept` (tolerant readers for version-bumped formats). Returns the
/// version actually found.
pub fn get_header_versioned<B: Buf>(
    buf: &mut B,
    magic: &[u8; 4],
    accept: std::ops::RangeInclusive<u32>,
) -> Result<u32, GraphError> {
    need(buf, 8)?;
    let mut found = [0u8; 4];
    buf.copy_to_slice(&mut found);
    if &found != magic {
        return Err(GraphError::Format(format!("bad magic {found:?}")));
    }
    let version = buf.get_u32_le();
    if !accept.contains(&version) {
        return Err(GraphError::Format(format!("unsupported version {version}")));
    }
    Ok(version)
}

/// Reads the header version without consuming anything; errors on a foreign
/// magic or truncation. Lets a reader decide whether a checksum trailer is
/// present before parsing the body.
pub fn peek_version(raw: &[u8], magic: &[u8; 4]) -> Result<u32, GraphError> {
    if raw.len() < 8 {
        return Err(GraphError::Format("truncated file".into()));
    }
    if &raw[..4] != magic {
        return Err(GraphError::Format(format!("bad magic {:?}", &raw[..4])));
    }
    Ok(u32::from_le_bytes([raw[4], raw[5], raw[6], raw[7]]))
}

/// Byte length of the FNV-1a checksum trailer.
pub const CHECKSUM_LEN: usize = 8;

/// Incremental 64-bit FNV-1a hasher (the checksum used by trailers; also
/// usable for structural fingerprints).
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    pub fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    pub fn update_u32(&mut self, v: u32) {
        self.update(&v.to_le_bytes());
    }

    pub fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a of `bytes` in one shot.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Appends the checksum trailer: FNV-1a over everything already in `buf`.
pub fn put_checksum_trailer(buf: &mut BytesMut) {
    let h = fnv1a(buf);
    buf.put_u64_le(h);
}

/// Splits a whole file into its payload (header included) and the checksum
/// its trailer records, without copying or verifying anything.
pub fn split_checksum_trailer(raw: &[u8]) -> Result<(&[u8], u64), GraphError> {
    let Some(split) = raw.len().checked_sub(CHECKSUM_LEN) else {
        return Err(GraphError::Format("truncated file".into()));
    };
    let (payload, trailer) = raw.split_at(split);
    let expect = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
    Ok((payload, expect))
}

/// Errors unless `payload` hashes to `expect`. Catches torn/short writes
/// and bit corruption anywhere in the file.
pub fn verify_checksum(payload: &[u8], expect: u64) -> Result<(), GraphError> {
    let actual = fnv1a(payload);
    if actual != expect {
        return Err(GraphError::Format(format!(
            "checksum mismatch: file says {expect:#018x}, computed {actual:#018x} \
             (torn write or corruption)"
        )));
    }
    Ok(())
}

/// Verifies and strips the checksum trailer from a whole-file byte vector,
/// returning the payload (header included) for parsing.
pub fn strip_checksum_trailer(mut raw: Vec<u8>) -> Result<Bytes, GraphError> {
    let (payload, expect) = split_checksum_trailer(&raw)?;
    verify_checksum(payload, expect)?;
    raw.truncate(payload.len());
    Ok(Bytes::from(raw))
}

/// Writes `values` as little-endian u64s (usizes widen losslessly).
pub fn put_usize_array(buf: &mut BytesMut, values: &[usize]) {
    for &v in values {
        buf.put_u64_le(v as u64);
    }
}

/// Reads `len` little-endian u64s as usizes, checking truncation first.
pub fn get_usize_array<B: Buf>(buf: &mut B, len: usize) -> Result<Vec<usize>, GraphError> {
    get_array(buf, len, |b: [u8; 8]| u64::from_le_bytes(b) as usize)
}

/// Reads the `rows + 1` entries of a CSR-style offset array (bounds are
/// checked by [`check_offsets`] or the format's own validator).
pub fn get_offsets<B: Buf>(buf: &mut B, rows: usize) -> Result<Vec<usize>, GraphError> {
    let len = rows
        .checked_add(1)
        .ok_or_else(|| GraphError::Format(format!("row count {rows} overflows")))?;
    get_usize_array(buf, len)
}

/// Decodes `len` fixed-width elements in one pass over the contiguous
/// [`Buf::chunk`], after checking the byte length for overflow and
/// truncation, then consumes them with one [`Buf::advance`].
fn get_array<B: Buf, T, const W: usize>(
    buf: &mut B,
    len: usize,
    decode: impl Fn([u8; W]) -> T,
) -> Result<Vec<T>, GraphError> {
    let bytes = len
        .checked_mul(W)
        .ok_or_else(|| GraphError::Format(format!("array of {len} elements overflows")))?;
    need(buf, bytes)?;
    let values = buf.chunk()[..bytes]
        .chunks_exact(W)
        .map(|c| decode(c.try_into().expect("W-byte chunk")))
        .collect();
    buf.advance(bytes);
    Ok(values)
}

/// Writes `values` as little-endian u32s.
pub fn put_u32_array(buf: &mut BytesMut, values: &[u32]) {
    for &v in values {
        buf.put_u32_le(v);
    }
}

/// Reads `len` little-endian u32s, checking truncation first.
pub fn get_u32_array<B: Buf>(buf: &mut B, len: usize) -> Result<Vec<u32>, GraphError> {
    get_array(buf, len, u32::from_le_bytes)
}

/// Writes `values` as little-endian f64s.
pub fn put_f64_array(buf: &mut BytesMut, values: &[f64]) {
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Reads `len` little-endian f64s, checking truncation first.
pub fn get_f64_array<B: Buf>(buf: &mut B, len: usize) -> Result<Vec<f64>, GraphError> {
    get_array(buf, len, f64::from_le_bytes)
}

/// Validates a CSR-style offset array: starts at 0, monotone non-decreasing,
/// and ends exactly at `total`.
pub fn check_offsets(offsets: &[usize], total: usize, what: &str) -> Result<(), GraphError> {
    if offsets.first() != Some(&0) {
        return Err(GraphError::Format(format!(
            "{what}: offsets must start at 0"
        )));
    }
    for w in offsets.windows(2) {
        if w[0] > w[1] || w[1] > total {
            return Err(GraphError::Format(format!(
                "{what}: non-monotone or out-of-range offset"
            )));
        }
    }
    if offsets.last() != Some(&total) {
        return Err(GraphError::Format(format!(
            "{what}: offsets end at {:?}, expected {total}",
            offsets.last()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_and_rejection() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, b"TEST", 3);
        let raw: Vec<u8> = buf.into();

        let mut b = Bytes::from(raw.clone());
        get_header(&mut b, b"TEST", 3).unwrap();

        let mut b = Bytes::from(raw.clone());
        assert!(get_header(&mut b, b"ELSE", 3).is_err());

        let mut b = Bytes::from(raw.clone());
        assert!(get_header(&mut b, b"TEST", 4).is_err());

        let mut short = Bytes::from(&raw[..2]);
        assert!(get_header(&mut short, b"TEST", 3).is_err());
    }

    #[test]
    fn arrays_roundtrip_and_catch_truncation() {
        let mut buf = BytesMut::new();
        put_usize_array(&mut buf, &[0, 3, 7]);
        put_u32_array(&mut buf, &[1, 2]);
        put_f64_array(&mut buf, &[0.5, -1.25]);
        let raw: Vec<u8> = buf.into();

        let mut b = Bytes::from(raw.clone());
        assert_eq!(get_usize_array(&mut b, 3).unwrap(), vec![0, 3, 7]);
        assert_eq!(get_u32_array(&mut b, 2).unwrap(), vec![1, 2]);
        assert_eq!(get_f64_array(&mut b, 2).unwrap(), vec![0.5, -1.25]);
        assert_eq!(b.remaining(), 0);

        let mut cut = Bytes::from(&raw[..raw.len() - 1]);
        assert!(get_usize_array(&mut cut, 3).is_ok());
        assert!(get_u32_array(&mut cut, 2).is_ok());
        assert!(get_f64_array(&mut cut, 2).is_err());

        // A borrowed slice decodes the same values and is consumed alike.
        let mut s: &[u8] = &raw;
        assert_eq!(get_offsets(&mut s, 2).unwrap(), vec![0, 3, 7]);
        assert_eq!(get_u32_array(&mut s, 2).unwrap(), vec![1, 2]);
        assert_eq!(get_f64_array(&mut s, 2).unwrap(), vec![0.5, -1.25]);
        assert!(s.is_empty());
    }

    #[test]
    fn array_lengths_that_overflow_are_format_errors() {
        let raw = [0u8; 64];
        for len in [usize::MAX, usize::MAX / 4 + 1, (1usize << 61) + 4] {
            let mut s: &[u8] = &raw;
            assert!(matches!(
                get_usize_array(&mut s, len),
                Err(GraphError::Format(_))
            ));
            assert!(matches!(
                get_f64_array(&mut s, len),
                Err(GraphError::Format(_))
            ));
            assert_eq!(s.len(), raw.len(), "a rejected read consumes nothing");
        }
        let mut s: &[u8] = &raw;
        assert!(matches!(
            get_u32_array(&mut s, usize::MAX / 2),
            Err(GraphError::Format(_))
        ));
        assert!(matches!(
            get_offsets(&mut s, usize::MAX),
            Err(GraphError::Format(_))
        ));
    }

    #[test]
    fn versioned_header_and_peek() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, b"TEST", 2);
        let raw: Vec<u8> = buf.into();

        assert_eq!(peek_version(&raw, b"TEST").unwrap(), 2);
        assert!(peek_version(&raw, b"ELSE").is_err());
        assert!(peek_version(&raw[..5], b"TEST").is_err());

        let mut b = Bytes::from(raw.clone());
        assert_eq!(get_header_versioned(&mut b, b"TEST", 1..=2).unwrap(), 2);
        let mut b = Bytes::from(raw.clone());
        assert!(get_header_versioned(&mut b, b"TEST", 3..=4).is_err());
    }

    #[test]
    fn checksum_trailer_roundtrip_and_corruption() {
        let mut buf = BytesMut::new();
        put_header(&mut buf, b"TEST", 2);
        put_u32_array(&mut buf, &[1, 2, 3]);
        put_checksum_trailer(&mut buf);
        let raw: Vec<u8> = buf.into();

        let payload = strip_checksum_trailer(raw.clone()).unwrap();
        assert_eq!(payload.remaining(), raw.len() - CHECKSUM_LEN);
        let (borrowed, expect) = split_checksum_trailer(&raw).unwrap();
        assert_eq!(borrowed, payload.chunk());
        verify_checksum(borrowed, expect).unwrap();

        // Any single-bit flip is caught, in payload or trailer alike.
        for byte in 0..raw.len() {
            let mut bad = raw.clone();
            bad[byte] ^= 0x10;
            assert!(strip_checksum_trailer(bad).is_err(), "flip at byte {byte}");
        }
        // Truncation (torn write) is caught.
        for cut in 0..raw.len() {
            assert!(strip_checksum_trailer(raw[..cut].to_vec()).is_err());
        }
    }

    #[test]
    fn offset_validation() {
        check_offsets(&[0, 2, 5], 5, "t").unwrap();
        assert!(check_offsets(&[1, 2, 5], 5, "t").is_err());
        assert!(check_offsets(&[0, 6, 5], 5, "t").is_err());
        assert!(check_offsets(&[0, 2, 4], 5, "t").is_err());
    }
}
