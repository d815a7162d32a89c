//! Corrupt-input robustness for the serve wire protocol, in the same style
//! as the ASIX corrupt-input suite: any mutation, truncation or garbage
//! payload must yield a typed error, never a panic — and valid encodings
//! must round-trip exactly.

use anyscan_dynamic::{EdgeOp, EdgeUpdate};
use proptest::prelude::*;
use proptest::strategy::Strategy;

use anyscan_serve::protocol::{
    read_frame, write_frame, DecodeError, FrameError, Health, LabelBlock, QuerySummary, Request,
    Response, ServeStats, WireUpdate,
};

/// All eight request shapes, driven off one field tuple (the vendored
/// proptest facade has no `prop_oneof`, so a selector field picks the arm).
fn arb_request() -> impl Strategy<Value = Request> {
    (
        (
            0usize..8,
            0.0f64..=1.0,
            0u32..10_000,
            0u32..100_000,
            0u64..10_000,
            0u32..2,
        ),
        proptest::collection::vec((0u8..3, 0u32..1000, 0u32..1000, 0.0f64..2.0), 0..4),
    )
        .prop_map(
            |((kind, eps, mu, vertex, max_blocks, flag), ups)| match kind {
                0 => Request::Query {
                    eps,
                    mu,
                    want_labels: flag == 1,
                },
                1 => Request::Membership { vertex, eps, mu },
                2 => Request::Run {
                    eps,
                    mu,
                    deadline_ms: vertex,
                    max_blocks,
                },
                3 => Request::Ping,
                4 => Request::Shutdown,
                5 => Request::ApplyUpdates {
                    updates: ups
                        .into_iter()
                        .map(|(k, u, v, w)| WireUpdate { kind: k, u, v, w })
                        .collect(),
                },
                6 => Request::Subscribe {
                    watermark: max_blocks,
                },
                _ => Request::Promote,
            },
        )
}

/// The replication-facing response frames (the frames PR 9 added), again
/// selector-driven: `Ping(Health)`, `Subscribed`, `LogEntries`, `Promoted`.
fn arb_repl_response() -> impl Strategy<Value = Response> {
    (
        (0usize..4, 0u64..1000, 0u64..1000, 0u64..10_000, 0u32..2),
        proptest::collection::vec(
            (1u64..10_000, 0u8..3, 0u32..1000, 0u32..1000, 0.0f64..2.0),
            0..5,
        ),
    )
        .prop_map(
            |((kind, term, epoch, watermark, role), entries)| match kind {
                0 => Response::Ping(Health {
                    role: role as u8,
                    term,
                    epoch,
                    watermark,
                    inflight: role,
                    queued: epoch as u32,
                    stats: ServeStats {
                        requests: term,
                        queries: epoch,
                        lookups: watermark,
                        runs: 0,
                        overloaded: 1,
                        protocol_errors: 2,
                        updates: 3,
                        timeouts: 4,
                    },
                }),
                1 => Response::Subscribed { term, watermark },
                2 => Response::LogEntries {
                    term,
                    entries: entries
                        .into_iter()
                        .map(|(seq, code, u, v, w)| EdgeUpdate {
                            seq,
                            u,
                            v,
                            op: match code {
                                0 => EdgeOp::Insert(w),
                                1 => EdgeOp::Remove,
                                _ => EdgeOp::Reweight(w),
                            },
                        })
                        .collect(),
                },
                _ => Response::Promoted {
                    term,
                    epoch,
                    watermark,
                },
            },
        )
}

/// `Query` responses with and without a label block: a summary plus, when
/// the flag is set, 0..300 vertices of arbitrary labels and valid role codes.
fn arb_query_response() -> impl Strategy<Value = Response> {
    (
        (
            0u32..1000,
            0u32..1000,
            0u32..1000,
            0u32..1000,
            0u32..1000,
            0u32..2,
        ),
        proptest::collection::vec((0u32..=u32::MAX, 0u8..5), 0..300),
    )
        .prop_map(
            |((clusters, cores, borders, hubs, outliers, flag), vertices)| Response::Query {
                summary: QuerySummary {
                    clusters,
                    cores,
                    borders,
                    hubs,
                    outliers,
                },
                labels: (flag == 1).then(|| LabelBlock {
                    labels: vertices.iter().map(|&(label, _)| label).collect(),
                    roles: vertices.iter().map(|&(_, role)| role).collect(),
                }),
            },
        )
}

proptest! {
    #[test]
    fn requests_roundtrip(req in arb_request()) {
        let decoded = Request::decode(&req.encode()).unwrap();
        prop_assert_eq!(decoded, req);
    }

    #[test]
    fn truncated_requests_are_typed_errors(req in arb_request(), cut_frac in 0.0f64..1.0) {
        let full = req.encode();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        // Every opcode has a fixed layout, so any strict prefix is a typed
        // Truncated error (never a panic, never a bogus success).
        prop_assert_eq!(Request::decode(&full[..cut]), Err(DecodeError::Truncated));
    }

    #[test]
    fn mutated_requests_never_panic(req in arb_request(), byte_frac in 0.0f64..1.0, bit in 0u8..8) {
        let mut raw = req.encode();
        let byte = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[byte] ^= 1 << bit;
        // Any outcome is fine except a panic; a successful decode must
        // re-encode to the mutated bytes (no silent canonicalization).
        if let Ok(decoded) = Request::decode(&raw) {
            prop_assert_eq!(decoded.encode(), raw);
        }
    }

    #[test]
    fn garbage_requests_never_panic(raw in proptest::collection::vec(0u8..=255, 0..64)) {
        let _ = Request::decode(&raw);
    }

    #[test]
    fn repl_responses_roundtrip(resp in arb_repl_response()) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn truncated_repl_responses_are_typed_errors(
        resp in arb_repl_response(),
        cut_frac in 0.0f64..1.0,
    ) {
        let full = resp.encode();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        // Every layout is need()-guarded (including the count-prefixed
        // LogEntries entry block), so a strict prefix is always a typed
        // Truncated error — the ASUL-tail contract at the byte level.
        prop_assert_eq!(Response::decode(&full[..cut]), Err(DecodeError::Truncated));
    }

    #[test]
    fn mutated_repl_responses_never_panic(
        resp in arb_repl_response(),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut raw = resp.encode();
        let byte = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[byte] ^= 1 << bit;
        // Any outcome but a panic. A successful decode must be stable:
        // re-encoding and re-decoding reproduces the same value (a Remove
        // entry's weight byte is canonicalized away, so byte-identity is
        // deliberately not required).
        if let Ok(decoded) = Response::decode(&raw) {
            prop_assert_eq!(Response::decode(&decoded.encode()).unwrap(), decoded);
        }
    }

    #[test]
    fn query_responses_roundtrip(resp in arb_query_response()) {
        let decoded = Response::decode(&resp.encode()).unwrap();
        prop_assert_eq!(decoded, resp);
    }

    #[test]
    fn truncated_query_responses_are_typed_errors(
        resp in arb_query_response(),
        cut_frac in 0.0f64..1.0,
    ) {
        let full = resp.encode();
        let cut = ((full.len() - 1) as f64 * cut_frac) as usize;
        // The block's count is checked against the remaining payload before
        // any label is read, so every strict prefix is a typed Truncated.
        prop_assert_eq!(Response::decode(&full[..cut]), Err(DecodeError::Truncated));
    }

    #[test]
    fn mutated_query_responses_never_panic(
        resp in arb_query_response(),
        byte_frac in 0.0f64..1.0,
        bit in 0u8..8,
    ) {
        let mut raw = resp.encode();
        let byte = ((raw.len() - 1) as f64 * byte_frac) as usize;
        raw[byte] ^= 1 << bit;
        // Any outcome but a panic. The Query layout has one encoding per
        // value, so a successful decode re-encodes to the mutated bytes.
        if let Ok(decoded) = Response::decode(&raw) {
            prop_assert_eq!(decoded.encode(), raw);
        }
    }

    #[test]
    fn query_responses_reject_invalid_role_codes(
        labels in proptest::collection::vec(0u32..=u32::MAX, 1..300),
        at_frac in 0.0f64..1.0,
        code in 5u8..=255,
    ) {
        let n = labels.len();
        let mut raw = Response::Query {
            summary: QuerySummary::default(),
            labels: Some(LabelBlock { labels, roles: vec![0; n] }),
        }
        .encode();
        // Roles are the last n bytes of the payload.
        let at = raw.len() - n + ((n - 1) as f64 * at_frac) as usize;
        raw[at] = code;
        prop_assert_eq!(Response::decode(&raw), Err(DecodeError::BadValue("role code")));
    }

    #[test]
    fn garbage_responses_never_panic(raw in proptest::collection::vec(0u8..=255, 0..256)) {
        let _ = Response::decode(&raw);
    }

    #[test]
    fn frame_layer_rejects_bad_lengths(len in 0u32..=u32::MAX, max in 0usize..1024) {
        // A lone header claiming `len` bytes with no payload behind it:
        // oversized beyond `max`, truncated otherwise (unless len == 0).
        let wire = len.to_le_bytes().to_vec();
        let mut cursor = std::io::Cursor::new(wire);
        match read_frame(&mut cursor, max) {
            Ok(Some(payload)) => prop_assert!(len == 0 && payload.is_empty()),
            Ok(None) => prop_assert!(false, "header read as clean EOF"),
            Err(FrameError::Oversized { len: l, max: m }) => {
                prop_assert_eq!(l, len as usize);
                prop_assert_eq!(m, max);
                prop_assert!(l > m);
            }
            Err(FrameError::Truncated { needed, got }) => {
                prop_assert_eq!(needed, len as usize);
                prop_assert_eq!(got, 0);
                prop_assert!(len as usize <= max);
            }
            Err(FrameError::Io(e)) => prop_assert!(false, "unexpected io error: {}", e),
        }
    }

    #[test]
    fn framed_payloads_roundtrip(payload in proptest::collection::vec(0u8..=255, 0..512)) {
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(wire);
        let back = read_frame(&mut cursor, 512).unwrap().unwrap();
        prop_assert_eq!(back, payload);
        prop_assert!(read_frame(&mut cursor, 512).unwrap().is_none());
    }
}
