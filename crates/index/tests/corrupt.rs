//! Corrupt-input robustness for the `ASIX` similarity-index format: any
//! bit flip or truncation must yield `Err`, never a panic or a silently
//! mis-clustering index.

use anyscan_graph::gen::{erdos_renyi, WeightModel};
use anyscan_graph::io::framing::{self, BufMut};
use anyscan_graph::GraphError;
use anyscan_index::io::{read_index, write_index};
use anyscan_index::SimilarityIndex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Byte range of the core-threshold section: the last `arcs` f64s before
/// the checksum trailer.
fn threshold_section(buf: &[u8], arcs: usize) -> std::ops::Range<usize> {
    let end = buf.len() - framing::CHECKSUM_LEN;
    end - arcs * 8..end
}

fn serialized_sample(seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = erdos_renyi(&mut rng, 30, 120, WeightModel::uniform_default());
    let idx = SimilarityIndex::build(&g, 1);
    let mut buf = Vec::new();
    write_index(&idx, &mut buf).unwrap();
    buf
}

proptest! {
    #[test]
    fn corrupt_bit_flips_are_rejected(seed in 0u64..4, byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut buf = serialized_sample(seed);
        let byte = ((buf.len() - 1) as f64 * byte_frac) as usize;
        buf[byte] ^= 1 << bit;
        prop_assert!(read_index(buf.as_slice()).is_err(),
            "flip of bit {bit} at byte {byte} accepted");
    }

    #[test]
    fn corrupt_truncations_are_rejected(seed in 0u64..4, cut_frac in 0.0f64..1.0) {
        let buf = serialized_sample(seed);
        let cut = ((buf.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(read_index(&buf[..cut]).is_err(), "cut at {cut} accepted");
    }

    /// The reader derives every threshold from the neighbor orders, but a
    /// stored one that disagrees is still a format error, even under a
    /// valid checksum.
    #[test]
    fn corrupt_stored_threshold_is_a_format_error(
        seed in 0u64..4,
        entry_frac in 0.0f64..1.0,
        bit in 0u32..64,
    ) {
        let buf = serialized_sample(seed);
        let idx = read_index(buf.as_slice()).unwrap();
        let section = threshold_section(&buf, idx.num_arcs());
        let entry = ((idx.num_arcs() - 1) as f64 * entry_frac) as usize;
        let at = section.start + entry * 8;
        let mut body = buf[..section.end].to_vec();
        let stored = u64::from_le_bytes(body[at..at + 8].try_into().unwrap());
        body[at..at + 8].copy_from_slice(&(stored ^ (1 << bit)).to_le_bytes());
        let mut file = framing::BytesMut::with_capacity(buf.len());
        file.put_slice(&body);
        framing::put_checksum_trailer(&mut file);
        let err = read_index(&file[..]).unwrap_err();
        prop_assert!(matches!(err, GraphError::Format(_)), "got {err}");
    }

    #[test]
    fn corrupt_garbage_is_rejected(raw in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = read_index(raw.as_slice());
    }
}
