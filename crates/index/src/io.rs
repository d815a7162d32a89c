//! Binary serialization of the similarity index.
//!
//! Sits next to the CSR graph format (`anyscan-graph::io::binary`) and
//! shares its framing helpers. Layout (little-endian):
//!
//! ```text
//! magic   "ASIX"            4 bytes
//! version u32               currently 4
//! n       u64               number of vertices
//! arcs    u64               neighbor-order entries (= graph num_arcs)
//! edges   u64               undirected edge count of the indexed graph
//! mu_max  u64               number of core orders
//! reorder u8                v3+: ReorderMode code the graph was relabeled
//!                           with before the build (0 = none)
//! sketch  u8                v4+: SketchMode code the σ values were built
//!                           under (0 = off, 2 = approx; 1 = the retired
//!                           exact "assist" mode); if non-zero, followed by
//!                           the signature section:
//!   rows  u32               MinHash rows per signature
//!   bits  u32               bits kept per row
//!   seed  u64               seed the signatures derive from
//!   words u64               length of the packed signature array
//!   data  words × u64       n signatures, rows·bits packed per vertex
//! offsets       (n+1) × u64
//! nbr           arcs × u32
//! sig           arcs × f64
//! co_offsets    (mu_max+1) × u64
//! co_vertices   arcs × u32
//! co_thresholds arcs × f64
//! checksum      u64          v2+: FNV-1a over all preceding bytes
//! ```
//!
//! ≤ v2 files have no reorder byte and load as [`ReorderMode::None`];
//! ≤ v3 files have no sketch section and load as [`SketchMode::Off`] with
//! no signatures. Code-1 files hold exact σ values (assist builds were
//! bit-identical to off) plus signatures that no query reads: the section is
//! still parsed and validated, so corruption stays a typed error, and then
//! dropped — the file loads as an `Off` index.
//!
//! `read_index` re-validates every structural invariant (sorted orders,
//! offset monotonicity, threshold/neighbor-order consistency): index files
//! live in the same untrusted build cache as the graphs, and a corrupted
//! order would silently mis-cluster rather than crash.

use std::io::{Read, Write};

use bytes::{Buf, BufMut, Bytes, BytesMut};

use anyscan_graph::io::framing;
use anyscan_graph::types::GraphError;
use anyscan_graph::ReorderMode;
use anyscan_scan_common::{NeighborhoodSketches, SketchMode};

use crate::SimilarityIndex;

const MAGIC: &[u8; 4] = b"ASIX";
const VERSION: u32 = 4;
/// Oldest version still readable (v1 files predate the checksum trailer;
/// v2 files predate the reorder byte; v3 files predate the signature
/// section).
const MIN_VERSION: u32 = 1;

/// Serializes an index to the binary format (current version, with a
/// checksum trailer).
pub fn write_index<W: Write>(idx: &SimilarityIndex, mut writer: W) -> Result<(), GraphError> {
    anyscan_faults::inject_io("index::write_index")?;
    let n = idx.num_vertices();
    let arcs = idx.num_arcs();
    let mu_max = idx.mu_max();
    let mut buf = BytesMut::with_capacity(4 + 4 + 32 + (n + mu_max + 2) * 8 + arcs * 24 + 8);
    framing::put_header(&mut buf, MAGIC, VERSION);
    buf.put_u64_le(n as u64);
    buf.put_u64_le(arcs as u64);
    buf.put_u64_le(idx.num_edges());
    buf.put_u64_le(mu_max as u64);
    buf.put_u8(idx.reorder.code());
    buf.put_u8(idx.sketch_mode().code());
    if let Some(sk) = &idx.sketches {
        buf.put_u32_le(sk.rows() as u32);
        buf.put_u32_le(sk.bits());
        buf.put_u64_le(sk.seed());
        buf.put_u64_le(sk.raw_data().len() as u64);
        for &w in sk.raw_data() {
            buf.put_u64_le(w);
        }
    }
    framing::put_usize_array(&mut buf, &idx.offsets);
    framing::put_u32_array(&mut buf, &idx.nbr);
    framing::put_f64_array(&mut buf, &idx.sig);
    framing::put_usize_array(&mut buf, &idx.co_offsets);
    framing::put_u32_array(&mut buf, &idx.co_vertices);
    framing::put_f64_array(&mut buf, &idx.co_thresholds);
    framing::put_checksum_trailer(&mut buf);
    let mut out: Vec<u8> = buf.into();
    anyscan_faults::inject_write("index::write_index", &mut out)?;
    writer.write_all(&out)?;
    Ok(())
}

/// Deserializes an index written by [`write_index`], re-validating all
/// structural invariants. v2 files are checksum-verified; v1 files (no
/// trailer) still load with a warning.
pub fn read_index<R: Read>(mut reader: R) -> Result<SimilarityIndex, GraphError> {
    anyscan_faults::inject_io("index::read_index")?;
    let mut raw = Vec::new();
    reader.read_to_end(&mut raw)?;
    let mut buf = match framing::peek_version(&raw, MAGIC)? {
        1 => {
            eprintln!(
                "warning: ASIX v1 file has no checksum trailer; rebuild the index to upgrade"
            );
            Bytes::from(raw)
        }
        _ => framing::strip_checksum_trailer(raw)?,
    };

    let version = framing::get_header_versioned(&mut buf, MAGIC, MIN_VERSION..=VERSION)?;
    framing::need(&buf, 32)?;
    let n = buf.get_u64_le() as usize;
    let arcs = buf.get_u64_le() as usize;
    let num_edges = buf.get_u64_le();
    let mu_max = buf.get_u64_le() as usize;
    let reorder = if version >= 3 {
        anyscan_faults::inject_io("index::read_reorder")?;
        framing::need(&buf, 1)?;
        let code = buf.get_u8();
        ReorderMode::from_code(code)
            .ok_or_else(|| GraphError::Format(format!("unknown reorder mode code {code}")))?
    } else {
        ReorderMode::None
    };
    let sketches = if version >= 4 {
        anyscan_faults::inject_io("index::read_sketches")?;
        framing::need(&buf, 1)?;
        let code = buf.get_u8();
        let mode = SketchMode::from_code(code)
            .ok_or_else(|| GraphError::Format(format!("unknown sketch mode code {code}")))?;
        let sketches = if code != 0 {
            framing::need(&buf, 4 + 4 + 8 + 8)?;
            let rows = buf.get_u32_le() as usize;
            let bits = buf.get_u32_le();
            let seed = buf.get_u64_le();
            let words = buf.get_u64_le() as usize;
            framing::need(
                &buf,
                words.checked_mul(8).ok_or_else(|| {
                    GraphError::Format(format!("signature section of {words} words overflows"))
                })?,
            )?;
            let mut data = Vec::with_capacity(words);
            for _ in 0..words {
                data.push(buf.get_u64_le());
            }
            let sk = NeighborhoodSketches::from_raw_parts(rows, bits, seed, n, data)
                .map_err(|e| GraphError::Format(format!("signature section: {e}")))?;
            Some(sk)
        } else {
            None
        };
        // A code-1 (retired assist) section was validated above; its σ
        // values are exact, so the signatures are dropped.
        sketches.filter(|_| mode == SketchMode::Approx)
    } else {
        None
    };

    let offsets = framing::get_offsets(&mut buf, n)?;
    let nbr = framing::get_u32_array(&mut buf, arcs)?;
    let sig = framing::get_f64_array(&mut buf, arcs)?;
    let co_offsets = framing::get_offsets(&mut buf, mu_max)?;
    let co_vertices = framing::get_u32_array(&mut buf, arcs)?;
    let co_thresholds = framing::get_f64_array(&mut buf, arcs)?;

    framing::check_offsets(&offsets, arcs, "neighbor orders")?;
    framing::check_offsets(&co_offsets, arcs, "core orders")?;

    let fail = |msg: String| Err(GraphError::Format(msg));

    // Neighbor orders: ids in range, σ finite in [0, 1] and non-increasing,
    // exactly one self entry per vertex.
    for v in 0..n {
        let r = offsets[v]..offsets[v + 1];
        let mut selfs = 0;
        for i in r.clone() {
            if nbr[i] as usize >= n {
                return fail(format!("vertex {v}: neighbor id {} out of range", nbr[i]));
            }
            if !(0.0..=1.0).contains(&sig[i]) {
                return fail(format!("vertex {v}: σ {} outside [0, 1]", sig[i]));
            }
            if i > r.start && sig[i] > sig[i - 1] {
                return fail(format!("vertex {v}: neighbor order not sorted"));
            }
            if nbr[i] as usize == v {
                selfs += 1;
            }
        }
        if selfs != 1 {
            return fail(format!("vertex {v}: {selfs} self entries, expected 1"));
        }
    }

    // Core orders: each μ-slice holds exactly the vertices of closed degree
    // ≥ μ (count check), sorted by non-increasing threshold with ascending
    // ids among ties (which also forbids duplicates), and every threshold
    // must equal the μ-th largest σ of its vertex's neighbor order.
    let degree = |v: usize| offsets[v + 1] - offsets[v];
    for mu in 1..=mu_max {
        let r = co_offsets[mu - 1]..co_offsets[mu];
        let expect = (0..n).filter(|&v| degree(v) >= mu).count();
        if r.len() != expect {
            return fail(format!(
                "core order μ={mu}: {} entries, expected {expect}",
                r.len()
            ));
        }
        for i in r.clone() {
            let v = co_vertices[i] as usize;
            if v >= n {
                return fail(format!("core order μ={mu}: vertex {v} out of range"));
            }
            if degree(v) < mu {
                return fail(format!("core order μ={mu}: vertex {v} has degree < μ"));
            }
            if co_thresholds[i].to_bits() != sig[offsets[v] + mu - 1].to_bits() {
                return fail(format!(
                    "core order μ={mu}: threshold of vertex {v} disagrees with its neighbor order"
                ));
            }
            if i > r.start {
                let (pt, pv) = (co_thresholds[i - 1], co_vertices[i - 1]);
                if co_thresholds[i] > pt || (co_thresholds[i] == pt && co_vertices[i] <= pv) {
                    return fail(format!("core order μ={mu}: not sorted at position {i}"));
                }
            }
        }
    }

    Ok(SimilarityIndex {
        offsets,
        nbr,
        sig,
        co_offsets,
        co_vertices,
        co_thresholds,
        num_edges,
        reorder,
        sketches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyscan_graph::gen::{erdos_renyi, WeightModel};
    use anyscan_graph::GraphBuilder;
    use anyscan_scan_common::ScanParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_index() -> (anyscan_graph::CsrGraph, SimilarityIndex) {
        let mut rng = StdRng::seed_from_u64(77);
        let g = erdos_renyi(&mut rng, 80, 500, WeightModel::uniform_default());
        let idx = SimilarityIndex::build(&g, 2);
        (g, idx)
    }

    #[test]
    fn roundtrip_preserves_index_and_queries() {
        let (g, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        let idx2 = read_index(buf.as_slice()).unwrap();
        assert_eq!(idx, idx2);
        let params = ScanParams::new(0.4, 3);
        assert_eq!(idx.query(&g, params), idx2.query(&g, params));
    }

    #[test]
    fn empty_index_roundtrip() {
        let g = GraphBuilder::new(0).build();
        let idx = SimilarityIndex::build(&g, 1);
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        assert_eq!(read_index(buf.as_slice()).unwrap(), idx);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let err = read_index(&b"NOPE\x01\x00\x00\x00"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)));
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        buf[4] = 9; // version byte
        assert!(read_index(buf.as_slice()).is_err());
    }

    /// Byte offset of the v3 reorder-mode byte (after header + 4 × u64).
    const REORDER_BYTE: usize = 8 + 32;

    #[test]
    fn roundtrip_preserves_reorder_mode() {
        let (_, idx) = sample_index();
        for mode in anyscan_graph::reorder::ReorderMode::ALL {
            let tagged = idx.clone().with_reorder(mode);
            let mut buf = Vec::new();
            write_index(&tagged, &mut buf).unwrap();
            let back = read_index(buf.as_slice()).unwrap();
            assert_eq!(back.reorder(), mode);
            assert_eq!(back, tagged);
        }
    }

    /// Recomputes the checksum trailer over `body` (which must not already
    /// carry one).
    fn with_fresh_trailer(body: &[u8]) -> Vec<u8> {
        use bytes::BufMut;
        let mut bytes = bytes::BytesMut::with_capacity(body.len() + framing::CHECKSUM_LEN);
        bytes.put_slice(body);
        framing::put_checksum_trailer(&mut bytes);
        Vec::from(bytes)
    }

    #[test]
    fn rejects_unknown_reorder_code() {
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        buf[REORDER_BYTE] = 9;
        // Recompute the trailer so only the reorder code is at fault.
        buf.truncate(buf.len() - framing::CHECKSUM_LEN);
        let err = read_index(&with_fresh_trailer(&buf)[..]).unwrap_err();
        assert!(format!("{err}").contains("reorder"), "got: {err}");
    }

    /// Byte offset of the v4 sketch-mode byte (right after the reorder
    /// byte; sketch-free files carry just the one zero byte there).
    const SKETCH_BYTE: usize = REORDER_BYTE + 1;

    /// Strips the v4 sketch byte (and for older targets the v3 reorder
    /// byte) plus the checksum trailer, patching the version field, to
    /// fabricate an on-disk file of an older version.
    fn downgrade(mut buf: Vec<u8>, version: u8) -> Vec<u8> {
        buf.remove(SKETCH_BYTE);
        if version < 3 {
            buf.remove(REORDER_BYTE);
        }
        buf.truncate(buf.len() - framing::CHECKSUM_LEN);
        buf[4] = version;
        if version >= 2 {
            buf = with_fresh_trailer(&buf);
        }
        buf
    }

    #[test]
    fn reads_legacy_v1_files_without_trailer() {
        let (g, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        let buf = downgrade(buf, 1);
        let idx2 = read_index(buf.as_slice()).unwrap();
        assert_eq!(idx, idx2);
        let params = ScanParams::new(0.5, 4);
        assert_eq!(idx.query(&g, params), idx2.query(&g, params));
    }

    #[test]
    fn reads_v2_files_as_unreordered() {
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        let buf = downgrade(buf, 2);
        let idx2 = read_index(buf.as_slice()).unwrap();
        assert_eq!(idx2.reorder(), anyscan_graph::ReorderMode::None);
        assert_eq!(idx, idx2);
    }

    #[test]
    fn reads_v3_files_sketch_free() {
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        let buf = downgrade(buf, 3);
        let idx2 = read_index(buf.as_slice()).unwrap();
        assert_eq!(idx2.sketch_mode(), SketchMode::Off);
        assert!(idx2.sketches().is_none());
        assert_eq!(idx, idx2);
    }

    fn sketched_index(mode: SketchMode) -> (anyscan_graph::CsrGraph, SimilarityIndex) {
        let mut rng = StdRng::seed_from_u64(78);
        let g = erdos_renyi(&mut rng, 70, 420, WeightModel::uniform_default());
        let opts = crate::IndexBuildOptions {
            sketch: mode,
            sketch_rows: 64,
            sketch_bits: 8,
            seed: 99,
        };
        let idx = SimilarityIndex::build_with_options(
            &g,
            2,
            opts,
            &anyscan_telemetry::Telemetry::disabled(),
        );
        (g, idx)
    }

    #[test]
    fn v4_roundtrips_signatures() {
        let (g, idx) = sketched_index(SketchMode::Approx);
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        let back = read_index(buf.as_slice()).unwrap();
        assert_eq!(back.sketch_mode(), SketchMode::Approx);
        assert_eq!(back.sketches(), idx.sketches(), "signatures round-trip");
        assert_eq!(back, idx);
        let params = ScanParams::new(0.4, 3);
        assert_eq!(idx.query(&g, params), back.query(&g, params));
    }

    /// Byte range of the signature section in an approx-built file.
    fn signature_section(buf: &[u8]) -> std::ops::Range<usize> {
        let words_at = SKETCH_BYTE + 1 + 4 + 4 + 8;
        let words = u64::from_le_bytes(buf[words_at..words_at + 8].try_into().unwrap());
        SKETCH_BYTE + 1..words_at + 8 + words as usize * 8
    }

    /// A file as the retired assist mode wrote it: the exact (`Off`) index
    /// with sketch code 1 and a valid signature section. Returns the file
    /// and the `Off` build it must load as.
    fn assist_image() -> (Vec<u8>, SimilarityIndex) {
        let (_, off) = sketched_index(SketchMode::Off);
        let (_, approx) = sketched_index(SketchMode::Approx);
        let mut off_buf = Vec::new();
        write_index(&off, &mut off_buf).unwrap();
        let mut approx_buf = Vec::new();
        write_index(&approx, &mut approx_buf).unwrap();
        let section = &approx_buf[signature_section(&approx_buf)];
        let mut body = off_buf[..SKETCH_BYTE].to_vec();
        body.push(1);
        body.extend_from_slice(section);
        body.extend_from_slice(&off_buf[SKETCH_BYTE + 1..off_buf.len() - framing::CHECKSUM_LEN]);
        (with_fresh_trailer(&body), off)
    }

    #[test]
    fn assist_code_loads_as_off_and_drops_signatures() {
        let (buf, off) = assist_image();
        let back = read_index(buf.as_slice()).unwrap();
        assert_eq!(back, off);
        assert_eq!(back.sketch_mode(), SketchMode::Off);
        assert!(back.sketches().is_none());
    }

    /// Flips `buf[at]` to `value` and re-stamps the trailer.
    fn patched(buf: &[u8], at: usize, value: u8) -> Vec<u8> {
        let mut body = buf[..buf.len() - framing::CHECKSUM_LEN].to_vec();
        body[at] = value;
        with_fresh_trailer(&body)
    }

    #[test]
    fn rejects_corrupt_signature_section() {
        let (_, idx) = sketched_index(SketchMode::Approx);
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();

        // Invalid bits-per-row value (the bits u32 follows the rows u32),
        // in an approx file and in a retired-assist file alike.
        let bits_at = SKETCH_BYTE + 1 + 4;
        for file in [&buf, &assist_image().0] {
            let err = read_index(&patched(file, bits_at, 3)[..]).unwrap_err();
            assert!(format!("{err}").contains("signature"), "got: {err}");
        }

        // Signature array length disagreeing with rows × bits × n.
        let words_at = SKETCH_BYTE + 1 + 4 + 4 + 8;
        let mut broken = buf.clone();
        let words = u64::from_le_bytes(broken[words_at..words_at + 8].try_into().unwrap());
        broken[words_at..words_at + 8].copy_from_slice(&(words - 1).to_le_bytes());
        broken.truncate(broken.len() - framing::CHECKSUM_LEN);
        assert!(read_index(&with_fresh_trailer(&broken)[..]).is_err());

        // Unknown sketch-mode code.
        let err = read_index(&patched(&buf, SKETCH_BYTE, 7)[..]).unwrap_err();
        assert!(format!("{err}").contains("sketch mode"), "got: {err}");
    }

    #[test]
    fn rejects_truncation_at_every_boundary() {
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        for cut in [3, 7, 30, buf.len() / 3, buf.len() / 2, buf.len() - 1] {
            assert!(read_index(&buf[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn rejects_corrupted_order() {
        let (_, idx) = sample_index();
        let mut buf = Vec::new();
        write_index(&idx, &mut buf).unwrap();
        // Flip a byte inside the neighbor-id block to break the sorted-order
        // or range invariants.
        let header = 8 + 32 + 2 + (idx.num_vertices() + 1) * 8;
        let mut broken = buf.clone();
        broken[header + 1] ^= 0xFF;
        assert!(read_index(broken.as_slice()).is_err());
        // And one inside the σ block.
        let sig_start = header + idx.num_arcs() * 4;
        let mut broken = buf;
        broken[sig_start + 7] ^= 0x7F;
        assert!(read_index(broken.as_slice()).is_err());
    }
}
