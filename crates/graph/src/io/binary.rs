//! Compact binary CSR serialization.
//!
//! Layout (little-endian):
//!
//! ```text
//! magic   "ASCN"            4 bytes
//! version u32               currently 2
//! n       u64               number of vertices
//! arcs    u64               length of the neighbor/weight arrays
//! edges   u64               undirected edge count (excl. self-loops)
//! offsets (n+1) × u64
//! neighbors arcs × u32
//! weights  arcs × f64
//! checksum u64              v2+: FNV-1a over all preceding bytes
//! ```
//!
//! Generated benchmark graphs are cached in this format so repeated
//! experiment runs skip regeneration.
//!
//! Loading costs one linear pass plus the checksum. The arrays are decoded
//! in bulk from the borrowed file buffer, and
//! [`CsrGraph::from_sorted_rows`] checks every CSR invariant (offsets,
//! sorting, id range, weights, symmetry, edge count) in one pass that also
//! yields the Lemma-5 norms. For a v2 file the FNV-1a checksum runs on a
//! scoped thread beside that parse, over the same bytes; a checksum
//! mismatch takes precedence over any structural error, so a corrupt file
//! always reports itself as corrupt. Every length read from the header is
//! overflow-checked, so an unverified header cannot panic the parse.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, BytesMut};

use super::framing;
use crate::csr::CsrGraph;
use crate::types::GraphError;

const MAGIC: &[u8; 4] = b"ASCN";
const VERSION: u32 = 2;
/// Oldest version still readable (v1 files predate the checksum trailer).
const MIN_VERSION: u32 = 1;

/// Serializes a graph to the binary CSR format (current version, with a
/// checksum trailer).
pub fn write_binary<W: Write>(g: &CsrGraph, mut writer: W) -> Result<(), GraphError> {
    anyscan_faults::inject_io("graph::write_binary")?;
    let (offsets, neighbors, weights, num_edges) = g.raw_parts();
    let mut buf = BytesMut::with_capacity(
        4 + 4 + 24 + offsets.len() * 8 + neighbors.len() * 4 + weights.len() * 8 + 8,
    );
    framing::put_header(&mut buf, MAGIC, VERSION);
    buf.put_u64_le((offsets.len() - 1) as u64);
    buf.put_u64_le(neighbors.len() as u64);
    buf.put_u64_le(num_edges);
    framing::put_usize_array(&mut buf, offsets);
    framing::put_u32_array(&mut buf, neighbors);
    framing::put_f64_array(&mut buf, weights);
    framing::put_checksum_trailer(&mut buf);
    let mut out: Vec<u8> = buf.into();
    anyscan_faults::inject_write("graph::write_binary", &mut out)?;
    writer.write_all(&out)?;
    Ok(())
}

/// Deserializes a graph written by [`write_binary`], re-validating all CSR
/// invariants (the file may come from an untrusted build cache). v2 files
/// are checksum-verified beside the parse; v1 files (no trailer) still load
/// with a warning.
pub fn read_binary<R: Read>(mut reader: R) -> Result<CsrGraph, GraphError> {
    anyscan_faults::inject_io("graph::read_binary")?;
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    if framing::peek_version(&raw, MAGIC)? == 1 {
        eprintln!("warning: ASCN v1 file has no checksum trailer; rewrite it to upgrade");
        return parse(&raw);
    }
    let (payload, expect) = framing::split_checksum_trailer(&raw)?;
    let (checked, parsed) = std::thread::scope(|s| {
        let checksum = s.spawn(|| framing::verify_checksum(payload, expect));
        let parsed = parse(payload);
        (checksum.join().expect("checksum thread panicked"), parsed)
    });
    checked?;
    parsed
}

/// Decodes and validates a payload (header included, trailer excluded).
/// Must not panic on any input: for v2 files it runs before the checksum
/// verdict is known.
fn parse(mut buf: &[u8]) -> Result<CsrGraph, GraphError> {
    framing::get_header_versioned(&mut buf, MAGIC, MIN_VERSION..=VERSION)?;
    framing::need(&buf, 24)?;
    let n = buf.get_u64_le() as usize;
    let arcs = buf.get_u64_le() as usize;
    let num_edges = buf.get_u64_le();

    let offsets = framing::get_offsets(&mut buf, n)?;
    let neighbors = framing::get_u32_array(&mut buf, arcs)?;
    let weights = framing::get_f64_array(&mut buf, arcs)?;
    CsrGraph::from_sorted_rows(offsets, neighbors, weights, num_edges).map_err(GraphError::Format)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn sample() -> CsrGraph {
        GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 0.5),
                (1, 2, 1.5),
                (2, 3, 1.0),
                (4, 5, 0.25),
                (0, 5, 3.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_preserves_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_bad_magic() {
        let err = read_binary(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        for cut in [3, 7, 20, buf.len() / 2, buf.len() - 1] {
            let err = read_binary(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err, GraphError::Format(_)),
                "cut at {cut} not detected"
            );
        }
    }

    #[test]
    fn checksum_mismatch_takes_precedence_over_structural_errors() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // First byte of the neighbor block: header, then (n + 1) offsets.
        let idx = 4 + 4 + 24 + (g.num_vertices() + 1) * 8;
        buf[idx] ^= 0xFF;
        let err = read_binary(buf.as_slice()).unwrap_err().to_string();
        assert!(
            err.contains("checksum mismatch") && err.contains("(torn write or corruption)"),
            "{err}"
        );
    }

    #[test]
    fn rejects_v1_headers_whose_lengths_overflow() {
        // v1 files have no checksum, so the header's lengths reach the
        // decoder unverified: (n + 1) × 8 and n + 1 must not overflow.
        for n in [(1u64 << 61) + 3, u64::MAX] {
            let mut buf = b"ASCN".to_vec();
            buf.extend_from_slice(&1u32.to_le_bytes());
            for field in [n, 0, 0] {
                buf.extend_from_slice(&field.to_le_bytes());
            }
            buf.extend_from_slice(&[0u8; 64]);
            assert!(
                matches!(read_binary(buf.as_slice()), Err(GraphError::Format(_))),
                "n = {n} accepted"
            );
        }
    }

    #[test]
    fn rejects_corrupted_payload() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Flip a neighbor id deep in the payload to break symmetry.
        let idx = buf.len() - 9 * 8 - 2; // somewhere in the neighbors block
        buf[idx] ^= 0xFF;
        assert!(read_binary(buf.as_slice()).is_err());
    }

    #[test]
    fn reads_legacy_v1_files_without_trailer() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        // Rewrite as a v1 file: drop the trailer, patch the version field.
        buf.truncate(buf.len() - framing::CHECKSUM_LEN);
        buf[4] = 1;
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn rejects_unknown_future_version() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        buf[4] = 9;
        // Re-stamp the trailer so only the version check can object.
        buf.truncate(buf.len() - framing::CHECKSUM_LEN);
        let h = framing::fnv1a(&buf);
        buf.extend_from_slice(&h.to_le_bytes());
        assert!(matches!(
            read_binary(buf.as_slice()),
            Err(GraphError::Format(_))
        ));
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = GraphBuilder::new(0).build();
        let mut buf = Vec::new();
        write_binary(&g, &mut buf).unwrap();
        let g2 = read_binary(buf.as_slice()).unwrap();
        assert_eq!(g, g2);
    }
}
