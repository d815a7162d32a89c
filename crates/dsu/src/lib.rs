//! Disjoint-set (union-find) substrates for the anySCAN reproduction.
//!
//! anySCAN tracks cluster membership of *super-nodes* in a disjoint-set
//! structure (paper §III-A); the paper's parallel version executes `Union`
//! inside a critical section (paper §III-B, Fig. 4 lines 41/60). This crate
//! provides:
//!
//! * [`DsuSeq`] — the textbook sequential structure (union by rank, path
//!   halving), used by the sequential baselines and the similarity index.
//! * [`AtomicDsu`] — a lock-free union-find (CAS parent updates, union by
//!   rank, path halving) usable concurrently from many threads without any
//!   critical section. The anytime driver keeps one for its whole run: it
//!   replaces the paper's critical section around the Step 2–3 unions.
//!
//! Neither structure counts its operations: `union` returns whether it
//! merged two sets, and callers tally those (Fig. 12's union counts).

pub mod atomic;
pub mod seq;

pub use atomic::AtomicDsu;
pub use seq::DsuSeq;
