//! Clustering an evolving network: pick ε up front with the ε-hierarchy,
//! then keep the similarity index exact while edges churn, answering
//! SCAN queries between update batches.
//!
//! Run with: `cargo run --release -p anyscan-dynamic --example evolving_network`

use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate};
use anyscan_graph::gen::{planted_partition, PlantedPartitionParams, WeightModel};
use anyscan_index::hierarchy::EpsilonHierarchy;
use anyscan_scan_common::ScanParams;
use anyscan_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

fn main() {
    // A social network with 8 planted communities.
    let mut rng = StdRng::seed_from_u64(31);
    let (csr, _) = planted_partition(
        &mut rng,
        &PlantedPartitionParams {
            n: 1_200,
            num_communities: 8,
            p_in: 0.4,
            p_out: 0.005,
            weights: WeightModel::CommunityCorrelated,
        },
    );
    println!(
        "initial network: {} vertices, {} edges",
        csr.num_vertices(),
        csr.num_edges()
    );
    let mut dynamic = DynamicIndex::new(&csr, 1).expect("fresh index");

    // 1. Pick ε with the hierarchy (read off the index, every ε answered).
    let h = EpsilonHierarchy::build(dynamic.index(), 5);
    let grid: Vec<f64> = (1..=9).map(|i| i as f64 / 10.0).collect();
    let counts = h.cluster_counts(&grid);
    for (e, c) in grid.iter().zip(&counts) {
        println!("  eps {e:.1} -> {c} clusters");
    }
    // Choose the largest ε that still recovers the 8 planted communities.
    let eps = grid
        .iter()
        .zip(&counts)
        .rfind(|&(_, &c)| c == 8)
        .map_or(0.4, |(&e, _)| e);
    println!("chosen eps = {eps} (mu = 5)\n");

    // 2. Go dynamic: churn 2000 random edge updates through the network in
    //    batches of 100, querying every 500 updates.
    let params = ScanParams::new(eps, 5);
    println!("t=0: {} clusters", dynamic.query(params).num_clusters());

    let n = csr.num_vertices() as u32;
    let start = Instant::now();
    let mut reevals = 0u64;
    let mut seq = 0u64;
    for _ in 0..20 {
        let mut batch = Vec::with_capacity(100);
        while batch.len() < 100 {
            let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if u == v {
                continue;
            }
            let op = if rng.gen_bool(0.55) {
                EdgeOp::Insert(rng.gen_range(0.3..1.0))
            } else {
                EdgeOp::Remove
            };
            seq += 1;
            batch.push(EdgeUpdate { seq, u, v, op });
        }
        let stats = dynamic
            .apply_batch(&batch, &Telemetry::disabled())
            .expect("valid batch");
        reevals += stats.sigma_reevals;
        if seq.is_multiple_of(500) {
            let c = dynamic.query(params);
            let rc = c.role_counts();
            println!(
                "t={seq}: {} clusters, {} cores, {} hubs (edges {})",
                c.num_clusters(),
                rc.cores,
                rc.hubs,
                dynamic.graph().num_edges()
            );
        }
    }
    println!(
        "\n2000 updates in {:?}: {} σ re-evaluations total (~{:.1} per update; a from-scratch \
         rebuild would pay ~{} each)",
        start.elapsed(),
        reevals,
        reevals as f64 / 2_000.0,
        dynamic.graph().num_edges()
    );
}
