//! Disjoint-set (union-find) substrates for the anySCAN reproduction.
//!
//! anySCAN tracks cluster membership of *super-nodes* in a disjoint-set
//! structure (paper §III-A); the paper's parallel version executes `Union`
//! inside a critical section (paper §III-B, Fig. 4 lines 41/60). This crate
//! provides:
//!
//! * [`DsuSeq`] — the textbook sequential structure (union by rank, path
//!   halving) with `Find`/`Union` operation counters, used by the sequential
//!   algorithms, by pSCAN and by Step 1 of the anytime driver. The counters
//!   feed Fig. 12.
//! * [`AtomicDsu`] — a lock-free union-find (CAS parent updates, union by
//!   rank, path halving) usable concurrently from many threads without any
//!   critical section. It replaces the paper's critical section around the
//!   Step 2–3 unions of the parallel driver.

pub mod atomic;
pub mod seq;

pub use atomic::AtomicDsu;
pub use seq::DsuSeq;

/// Operation counts of a disjoint-set structure (Fig. 12's y-axis).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsuCounters {
    /// Number of `find` calls.
    pub finds: u64,
    /// Number of `union` calls that actually merged two distinct sets.
    pub unions: u64,
}
