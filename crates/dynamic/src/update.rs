//! Mutation vocabulary: typed edge updates, batch statistics and the
//! subsystem's error type.
//!
//! An [`EdgeUpdate`] is one sequenced mutation of an undirected edge. Batches
//! are validated *atomically* before anything is applied: a structurally
//! invalid update (self-loop, out-of-range endpoint, non-finite or
//! non-positive weight, sequence regression) rejects the whole batch with a
//! typed [`DynError`] and leaves graph and index untouched. Semantically the
//! operations are relaxed so random traffic is cheap to generate:
//!
//! * [`EdgeOp::Insert`] is an upsert — it creates the edge or overwrites the
//!   existing weight.
//! * [`EdgeOp::Remove`] deletes the edge if present and is a recorded no-op
//!   (`skipped`) otherwise.
//! * [`EdgeOp::Reweight`] sets the weight only if the edge exists and is a
//!   recorded no-op otherwise.

use anyscan_graph::VertexId;

/// What to do to the edge `{u, v}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EdgeOp {
    /// Insert the edge with this weight, or overwrite the weight if the edge
    /// already exists.
    Insert(f64),
    /// Delete the edge; skipped (not an error) when the edge is absent.
    Remove,
    /// Set the weight of an *existing* edge; skipped when the edge is absent.
    Reweight(f64),
}

impl EdgeOp {
    /// Wire / log encoding of the operation kind.
    pub fn code(self) -> u8 {
        match self {
            EdgeOp::Insert(_) => 0,
            EdgeOp::Remove => 1,
            EdgeOp::Reweight(_) => 2,
        }
    }

    /// Weight payload for the wire / log encoding (0 for removals).
    pub fn weight(self) -> f64 {
        match self {
            EdgeOp::Insert(w) | EdgeOp::Reweight(w) => w,
            EdgeOp::Remove => 0.0,
        }
    }

    /// Inverse of [`code`](EdgeOp::code) / [`weight`](EdgeOp::weight).
    pub fn from_wire(code: u8, w: f64) -> Option<EdgeOp> {
        match code {
            0 => Some(EdgeOp::Insert(w)),
            1 => Some(EdgeOp::Remove),
            2 => Some(EdgeOp::Reweight(w)),
            _ => None,
        }
    }
}

/// One sequenced edge mutation. Sequence numbers are assigned by the producer
/// (the daemon, the replay driver, or a generator) and must be strictly
/// increasing across the life of a [`DynamicIndex`](crate::DynamicIndex).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeUpdate {
    /// Strictly increasing mutation sequence number (never 0).
    pub seq: u64,
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint (`u != v`; the pair is unordered).
    pub v: VertexId,
    /// The mutation.
    pub op: EdgeOp,
}

impl EdgeUpdate {
    /// Structural validation against a graph with `n` vertices. Does not
    /// check sequence ordering (that needs batch context).
    pub fn validate(&self, n: usize) -> Result<(), DynError> {
        if self.u == self.v {
            return Err(DynError::SelfLoop {
                seq: self.seq,
                v: self.u,
            });
        }
        for end in [self.u, self.v] {
            if end as usize >= n {
                return Err(DynError::Vertex {
                    seq: self.seq,
                    v: end,
                    n,
                });
            }
        }
        if let EdgeOp::Insert(w) | EdgeOp::Reweight(w) = self.op {
            if !w.is_finite() || w <= 0.0 {
                return Err(DynError::Weight { seq: self.seq, w });
            }
        }
        Ok(())
    }
}

/// What one applied batch did, for telemetry and admission accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Updates that changed the graph.
    pub applied: u64,
    /// Relaxed no-ops (remove of an absent edge, reweight of an absent edge).
    pub skipped: u64,
    /// σ re-evaluations the batch triggered (edges incident to a touched
    /// neighborhood).
    pub sigma_reevals: u64,
    /// Neighbor orders repaired in the similarity index.
    pub orders_repaired: u64,
    /// Sequence number of the last update in the batch (the new watermark).
    pub last_seq: u64,
}

/// Typed failure of the dynamic update subsystem. Batch-validation variants
/// guarantee the engine state was not modified.
#[derive(Debug)]
pub enum DynError {
    /// An endpoint is outside `0..n`.
    Vertex {
        /// Sequence number of the offending update.
        seq: u64,
        /// The out-of-range endpoint.
        v: VertexId,
        /// Number of vertices in the graph.
        n: usize,
    },
    /// Both endpoints are the same vertex (self-loops are implicit and
    /// immutable).
    SelfLoop {
        /// Sequence number of the offending update.
        seq: u64,
        /// The repeated endpoint.
        v: VertexId,
    },
    /// Insert/reweight weight is not finite or not positive.
    Weight {
        /// Sequence number of the offending update.
        seq: u64,
        /// The rejected weight.
        w: f64,
    },
    /// A sequence number is not strictly greater than the watermark / its
    /// predecessor in the batch.
    Sequence {
        /// The offending sequence number.
        seq: u64,
        /// The value it had to exceed.
        floor: u64,
    },
    /// The graph/index pair cannot be updated dynamically (fingerprint
    /// mismatch, reordered index, approximate sketch mode).
    Incompatible(String),
    /// A mutation log failed structural decoding (bad magic, checksum,
    /// truncation, inconsistent watermark).
    Corrupt(String),
    /// Filesystem failure while persisting or loading a mutation log.
    Io(std::io::Error),
}

impl std::fmt::Display for DynError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DynError::Vertex { seq, v, n } => {
                write!(f, "update {seq}: vertex {v} out of range (|V| = {n})")
            }
            DynError::SelfLoop { seq, v } => {
                write!(
                    f,
                    "update {seq}: self-loop on {v} (self-similarity is fixed at 1)"
                )
            }
            DynError::Weight { seq, w } => {
                write!(f, "update {seq}: weight {w} must be finite and > 0")
            }
            DynError::Sequence { seq, floor } => {
                write!(f, "update {seq}: sequence must exceed {floor}")
            }
            DynError::Incompatible(msg) => write!(f, "incompatible graph/index: {msg}"),
            DynError::Corrupt(msg) => write!(f, "corrupt update log: {msg}"),
            DynError::Io(e) => write!(f, "update log I/O: {e}"),
        }
    }
}

impl std::error::Error for DynError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DynError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for DynError {
    fn from(e: std::io::Error) -> Self {
        DynError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_wire_roundtrip() {
        for op in [EdgeOp::Insert(2.5), EdgeOp::Remove, EdgeOp::Reweight(0.25)] {
            assert_eq!(EdgeOp::from_wire(op.code(), op.weight()), Some(op));
        }
        assert_eq!(EdgeOp::from_wire(3, 1.0), None);
    }

    #[test]
    fn validate_rejects_structural_errors() {
        let ok = EdgeUpdate {
            seq: 1,
            u: 0,
            v: 1,
            op: EdgeOp::Insert(1.0),
        };
        assert!(ok.validate(2).is_ok());
        let cases = [
            EdgeUpdate {
                seq: 2,
                u: 3,
                v: 1,
                op: EdgeOp::Remove,
            },
            EdgeUpdate {
                seq: 3,
                u: 0,
                v: 0,
                op: EdgeOp::Remove,
            },
            EdgeUpdate {
                seq: 4,
                u: 0,
                v: 1,
                op: EdgeOp::Insert(0.0),
            },
            EdgeUpdate {
                seq: 5,
                u: 0,
                v: 1,
                op: EdgeOp::Reweight(f64::NAN),
            },
            EdgeUpdate {
                seq: 6,
                u: 0,
                v: 1,
                op: EdgeOp::Insert(f64::INFINITY),
            },
        ];
        for c in cases {
            assert!(c.validate(2).is_err(), "{c:?} should be rejected");
        }
    }
}
