//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on five SNAP/UF/LAW graphs (Table I) and ten LFR
//! benchmark graphs (Table II). The real datasets cannot be fetched in this
//! environment, so [`datasets`] provides scaled-down *analogues* generated to
//! match the two statistics the paper reports and sweeps — average degree
//! `d̄` and average clustering coefficient `c` — while the LFR grid is
//! regenerated directly from its published parameters (1 M vertices in the
//! paper, laptop-scale here; both knobs preserved).
//!
//! All generators are deterministic functions of their seed.

pub mod datasets;
pub mod degree_seq;
pub mod erdos_renyi;
pub mod lfr;
pub mod rmat;
pub mod sbm;
pub mod weights;

pub use datasets::{Dataset, DatasetId};
pub use erdos_renyi::erdos_renyi;
pub use lfr::{lfr, LfrParams};
pub use rmat::{rmat, RmatParams};
pub use sbm::{planted_partition, PlantedPartitionParams};
pub use weights::WeightModel;
