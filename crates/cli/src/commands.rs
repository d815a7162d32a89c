//! Command implementations.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

use anyscan::telemetry::MetaValue;
use anyscan::{
    anyscan, AnyScan, AnyScanConfig, Checkpoint, Counter, PartialResult, Phase, Recorder,
    RunControl, Telemetry,
};
use anyscan_baselines::{pscan, scan, scan_b, scanpp};
use anyscan_dynamic::{DynamicIndex, EdgeOp, EdgeUpdate, GraphStamp, UpdateLog};
use anyscan_graph::gen::{
    erdos_renyi, lfr, planted_partition, rmat, Dataset, DatasetId, LfrParams,
    PlantedPartitionParams, RmatParams, WeightModel,
};
use anyscan_graph::io::{read_binary, read_edge_list, write_binary, write_edge_list};
use anyscan_graph::reorder;
use anyscan_graph::stats::graph_stats;
use anyscan_graph::{CsrGraph, ReorderMode, VertexPermutation};
use anyscan_index::hierarchy::EpsilonHierarchy;
use anyscan_index::io::{read_index, write_index};
use anyscan_index::{explore, IndexBuildOptions, SimilarityIndex};
use anyscan_scan_common::sketch::{DEFAULT_BITS, DEFAULT_ROWS, MAX_ROWS, VALID_BITS};
use anyscan_scan_common::{Clustering, HubBitmaps, ScanParams, SketchMode, NOISE};
use anyscan_serve::{Listener, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::args::Options;
use crate::out::outln;

type CmdResult = Result<(), String>;

/// Loads the input graph from `--input FILE` (`.bin` = binary CSR,
/// anything else = text edge list) or `--dataset ID`.
fn load_graph(opts: &Options) -> Result<CsrGraph, String> {
    if let Some(path) = opts.get_str("input") {
        let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
        let reader = BufReader::new(file);
        return if path.ends_with(".bin") {
            read_binary(reader).map_err(|e| format!("read {path}: {e}"))
        } else {
            read_edge_list(reader, None).map_err(|e| format!("read {path}: {e}"))
        };
    }
    if let Some(id) = opts.get_str("dataset") {
        let id = parse_dataset_id(id)?;
        let scale: f64 = opts.get_or("scale", 1.0)?;
        let seed: u64 = opts.get_or("seed", 7)?;
        let (g, _) = Dataset::get(id).generate_scaled(scale, seed);
        return Ok(g);
    }
    Err("need --input FILE or --dataset ID".into())
}

/// `--reorder none|degree|bfs` (default none).
fn reorder_mode(opts: &Options) -> Result<ReorderMode, String> {
    match opts.get_str("reorder") {
        None => Ok(ReorderMode::None),
        Some(raw) => raw.parse(),
    }
}

/// `--sketch off|approx` (default off).
fn sketch_mode(opts: &Options) -> Result<SketchMode, String> {
    match opts.get_str("sketch") {
        None => Ok(SketchMode::Off),
        Some(raw) => raw.parse(),
    }
}

/// `--sketch` / `--sketch-rows` / `--sketch-bits`, validated up front so a
/// bad signature size is a flag error, not a build panic.
fn sketch_options(opts: &Options) -> Result<(SketchMode, usize, u32), String> {
    let mode = sketch_mode(opts)?;
    let rows: usize = opts.get_or("sketch-rows", DEFAULT_ROWS)?;
    let bits: u32 = opts.get_or("sketch-bits", DEFAULT_BITS)?;
    if mode != SketchMode::Off {
        if rows == 0 || rows > MAX_ROWS {
            return Err(format!(
                "--sketch-rows must be in 1..={MAX_ROWS}, got {rows}"
            ));
        }
        if !VALID_BITS.contains(&bits) {
            return Err(format!(
                "--sketch-bits must be one of {VALID_BITS:?}, got {bits}"
            ));
        }
    }
    Ok((mode, rows, bits))
}

/// Applies the kernel tuning flags — `--sketch`, `--sketch-rows`,
/// `--sketch-bits`, `--hub-cap`, `--hub-min-degree` — to an anySCAN config.
fn apply_tuning(opts: &Options, config: AnyScanConfig) -> Result<AnyScanConfig, String> {
    let (mode, rows, bits) = sketch_options(opts)?;
    let hub_cap: usize = opts.get_or("hub-cap", HubBitmaps::DEFAULT_MAX_HUBS)?;
    let hub_min: usize = opts.get_or("hub-min-degree", HubBitmaps::DEFAULT_MIN_DEGREE)?;
    Ok(config
        .with_sketch(mode)
        .with_sketch_params(rows, bits)
        .with_hub_params(hub_cap, hub_min))
}

/// Loads the graph and applies the requested cache-locality reordering.
/// Everything downstream computes in the reordered labeling; per-vertex
/// output must go back through [`to_original_ids`] (or the permutation's
/// `old_of_new`) before reaching the user.
fn load_graph_reordered(opts: &Options) -> Result<(CsrGraph, VertexPermutation), String> {
    let g = load_graph(opts)?;
    let mode = reorder_mode(opts)?;
    Ok(apply_reorder(g, mode))
}

/// Relabels `g` by `mode`, announcing non-trivial reorderings on stderr.
fn apply_reorder(g: CsrGraph, mode: ReorderMode) -> (CsrGraph, VertexPermutation) {
    let (g, perm) = reorder::reorder(&g, mode);
    if mode != ReorderMode::None {
        eprintln!("reordered graph ({mode}); output stays in original vertex ids");
    }
    (g, perm)
}

/// Maps a clustering computed on a reordered graph back to original vertex
/// ids, canonicalizing labels (dense, first-occurrence order) so label
/// values do not leak the internal labeling.
fn to_original_ids(mut c: Clustering, perm: &VertexPermutation) -> Clustering {
    if !perm.is_identity() {
        c.labels = perm.to_original(&c.labels);
        c.roles = perm.to_original(&c.roles);
        c.canonicalize();
    }
    c
}

fn parse_dataset_id(raw: &str) -> Result<DatasetId, String> {
    let up = raw.to_ascii_uppercase();
    match up.as_str() {
        "GR01" => Ok(DatasetId::Gr01),
        "GR02" => Ok(DatasetId::Gr02),
        "GR03" => Ok(DatasetId::Gr03),
        "GR04" => Ok(DatasetId::Gr04),
        "GR05" => Ok(DatasetId::Gr05),
        _ => up
            .strip_prefix("LFR")
            .and_then(|k| k.parse::<u8>().ok())
            .filter(|k| matches!(k, 1..=5 | 11..=15))
            .map(DatasetId::Lfr)
            .ok_or_else(|| format!("unknown dataset {raw:?}")),
    }
}

fn scan_params(opts: &Options) -> Result<ScanParams, String> {
    let eps: f64 = opts.require("eps")?;
    let mu: usize = opts.require("mu")?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("--eps must be in (0,1], got {eps}"));
    }
    if mu == 0 {
        return Err("--mu must be >= 1".into());
    }
    Ok(ScanParams::new(eps, mu))
}

/// Builds the run's cancellation token from `--deadline-ms` / `--max-blocks`
/// and installs the Ctrl-C handler (cooperative: the driver notices at the
/// next block boundary).
fn run_control(opts: &Options) -> Result<RunControl, String> {
    crate::sigint::install();
    let mut ctl = RunControl::new().with_interrupt_flag(crate::sigint::flag());
    if let Some(raw) = opts.get_str("deadline-ms") {
        let ms: u64 = raw
            .parse()
            .map_err(|_| format!("bad value for --deadline-ms: {raw:?}"))?;
        ctl = ctl.with_deadline(Duration::from_millis(ms));
    }
    if let Some(raw) = opts.get_str("max-blocks") {
        let blocks: u64 = raw
            .parse()
            .map_err(|_| format!("bad value for --max-blocks: {raw:?}"))?;
        ctl = ctl.with_max_blocks(blocks);
    }
    Ok(ctl)
}

/// `--checkpoint-every N` + `--checkpoint FILE` pair; `every == 0` disables.
fn checkpoint_options(opts: &Options) -> Result<(u64, Option<String>), String> {
    let every: u64 = opts.get_or("checkpoint-every", 0)?;
    let path = opts.get_str("checkpoint").map(str::to_string);
    if every > 0 && path.is_none() {
        return Err("--checkpoint-every needs --checkpoint FILE".into());
    }
    Ok((every, path))
}

/// Drives a (possibly resumed) anytime run under `ctl`, checkpointing to
/// `ckpt_path` every `every` blocks, and reports an early stop.
fn run_to_partial(
    algo: &mut AnyScan<'_>,
    ctl: &RunControl,
    every: u64,
    ckpt_path: Option<&str>,
) -> Result<PartialResult, String> {
    let partial = algo
        .run_controlled_with(ctl, every, |a| {
            a.checkpoint()
                .save(Path::new(ckpt_path.expect("validated")))
        })
        .map_err(|e| e.to_string())?;
    if !partial.completion.is_complete() {
        eprintln!(
            "stopped early ({}) in phase {:?} after {} blocks; partial clustering returned",
            partial.completion.label(),
            partial.phase,
            partial.blocks
        );
        if let Some(path) = ckpt_path {
            algo.checkpoint()
                .save(Path::new(path))
                .map_err(|e| e.to_string())?;
            eprintln!("checkpoint saved; continue with: anyscan resume --checkpoint {path} ...");
        }
    }
    Ok(partial)
}

pub fn stats(opts: &Options) -> CmdResult {
    let g = load_graph(opts)?;
    let s = graph_stats(&g);
    outln!("vertices                {}", s.num_vertices);
    outln!("edges                   {}", s.num_edges);
    outln!("average degree          {:.3}", s.average_degree);
    outln!(
        "min / max degree        {} / {}",
        s.min_degree,
        s.max_degree
    );
    outln!("triangles               {}", s.triangles);
    outln!(
        "avg clustering coeff    {:.4}",
        s.average_clustering_coefficient
    );
    outln!(
        "global clustering coeff {:.4}",
        s.global_clustering_coefficient
    );
    let (_, components) = anyscan_graph::traversal::connected_components(&g);
    outln!("connected components    {components}");
    Ok(())
}

pub fn generate(opts: &Options) -> CmdResult {
    let kind = opts.get_str("kind").ok_or("missing --kind")?;
    let n: usize = opts.get_or("n", 10_000)?;
    let seed: u64 = opts.get_or("seed", 7)?;
    let weights = if opts.switch("unweighted") {
        WeightModel::Unit
    } else {
        WeightModel::uniform_default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let g = match kind {
        "lfr" => {
            let mut p = LfrParams::paper_defaults(n, opts.get_or("avg-degree", 20.0)?);
            p.mixing = opts.get_or("mixing", 0.3)?;
            p.weights = weights;
            lfr(&mut rng, &p).0
        }
        "er" => {
            let d: f64 = opts.get_or("avg-degree", 20.0)?;
            erdos_renyi(&mut rng, n, (n as f64 * d / 2.0) as usize, weights)
        }
        "sbm" => {
            let p = PlantedPartitionParams {
                n,
                num_communities: opts.get_or("communities", 10)?,
                p_in: opts.get_or("p-in", 0.3)?,
                p_out: opts.get_or("p-out", 0.01)?,
                weights,
            };
            planted_partition(&mut rng, &p).0
        }
        "rmat" => {
            let scale = (n.max(2) as f64).log2().ceil() as u32;
            let mut p = RmatParams::graph500(scale, opts.get_or("edge-factor", 16)?);
            p.weights = weights;
            rmat(&mut rng, &p)
        }
        other => return Err(format!("unknown --kind {other:?} (lfr|er|sbm|rmat)")),
    };
    let out = opts.get_str("out").ok_or("missing --out")?;
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    if out.ends_with(".bin") {
        write_binary(&g, BufWriter::new(file)).map_err(|e| e.to_string())?;
    } else {
        write_edge_list(&g, BufWriter::new(file)).map_err(|e| e.to_string())?;
    }
    outln!(
        "wrote {} vertices, {} edges to {out}",
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

pub fn cluster(opts: &Options) -> CmdResult {
    let (g, perm) = load_graph_reordered(opts)?;
    let params = scan_params(opts)?;
    let algo = opts.get_str("algo").unwrap_or("anyscan");
    let trace_path = opts.get_str("trace-json");
    if trace_path.is_some() && algo != "anyscan" {
        return Err(format!(
            "--trace-json requires --algo anyscan, got {algo:?}"
        ));
    }
    let start = Instant::now();
    let (clustering, evals, cache_hits): (Clustering, u64, u64) = match algo {
        "scan" => {
            let out = scan(&g, params);
            (out.clustering, out.stats.sigma_evals, out.stats.cache_hits)
        }
        "scan-b" => {
            let out = scan_b(&g, params);
            (out.clustering, out.stats.sigma_evals, out.stats.cache_hits)
        }
        "pscan" => {
            let out = pscan(&g, params);
            (out.clustering, out.stats.sigma_evals, out.stats.cache_hits)
        }
        "scan++" | "scanpp" => {
            let out = scanpp(&g, params);
            (
                out.clustering,
                out.stats.sigma_evals + out.stats.shared_evals,
                out.stats.cache_hits,
            )
        }
        "anyscan" => {
            let threads: usize = opts.get_or("threads", 1)?;
            let mut config = AnyScanConfig::new(params)
                .with_auto_block_size(g.num_vertices())
                .with_threads(threads)
                .with_reorder(reorder_mode(opts)?);
            if let Some(b) = opts
                .get_list::<usize>("block")?
                .and_then(|v| v.first().copied())
            {
                config = config.with_block_size(b);
            }
            config.optimizations = !opts.switch("no-opt");
            config = apply_tuning(opts, config)?;
            let telemetry = if trace_path.is_some() {
                Telemetry::enabled()
            } else {
                Telemetry::disabled()
            };
            let ctl = run_control(opts)?;
            let (every, ckpt_path) = checkpoint_options(opts)?;
            let mut a = AnyScan::new(&g, config).with_telemetry(telemetry.clone());
            let partial = run_to_partial(&mut a, &ctl, every, ckpt_path.as_deref())?;
            if let Some(path) = trace_path {
                telemetry.add(Counter::FaultsInjected, anyscan_faults::injected());
                write_trace(path, &telemetry, &g, &config)?;
            }
            (
                partial.clustering,
                a.stats().sigma_evals,
                a.stats().cache_hits,
            )
        }
        other => return Err(format!("unknown --algo {other:?}")),
    };
    let elapsed = start.elapsed();
    let clustering = to_original_ids(clustering, &perm);
    let rc = clustering.role_counts();
    outln!("algorithm   {algo}");
    outln!("runtime     {elapsed:?}");
    outln!("sigma evals {evals}");
    outln!("cache hits  {cache_hits}");
    outln!("clusters    {}", clustering.num_clusters());
    outln!("cores       {}", rc.cores);
    outln!("borders     {}", rc.borders);
    outln!("hubs        {}", rc.hubs);
    outln!("outliers    {}", rc.outliers);
    if let Some(path) = opts.get_str("labels-out") {
        write_labels(path, &clustering)?;
        outln!("labels written to {path}");
    }
    Ok(())
}

/// `anyscan resume --checkpoint FILE --input FILE|--dataset ID`: reloads an
/// `ASCK` checkpoint, verifies it against the graph, and continues the run
/// from the saved block boundary. (ε, μ) and the ablation levers come from
/// the checkpoint; `--threads` may override the schedule (the clustering is
/// unaffected). Supports the same `--deadline-ms` / `--max-blocks` /
/// `--checkpoint-every` controls as `cluster`.
pub fn resume(opts: &Options) -> CmdResult {
    let ckpt_path = opts
        .get_str("checkpoint")
        .ok_or("missing --checkpoint FILE")?;
    let ck = Checkpoint::load(Path::new(ckpt_path)).map_err(|e| e.to_string())?;
    // The checkpoint records the reorder mode the run was started with;
    // re-apply it (deterministic) so the saved state lines up with the
    // relabeled graph. `resume` takes no `--reorder` flag.
    let (g, perm) = apply_reorder(load_graph(opts)?, ck.config(0).reorder);
    let params = ck.params();
    let threads: usize = opts.get_or("threads", 0)?; // 0 = keep checkpointed count
    let trace_path = opts.get_str("trace-json");
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let mut algo = ck
        .restore_with_telemetry(&g, threads, telemetry.clone())
        .map_err(|e| format!("--checkpoint {ckpt_path}: {e}"))?;
    telemetry.add(Counter::ResumeLoads, 1);
    outln!(
        "resumed {ckpt_path}: phase {:?}, {} blocks done (eps={}, mu={})",
        ck.phase(),
        ck.blocks(),
        params.epsilon,
        params.mu
    );

    let ctl = run_control(opts)?;
    let every: u64 = opts.get_or("checkpoint-every", 0)?;
    let start = Instant::now();
    let partial = run_to_partial(&mut algo, &ctl, every, Some(ckpt_path))?;
    let elapsed = start.elapsed();

    let clustering = to_original_ids(partial.clustering.clone(), &perm);
    let rc = clustering.role_counts();
    outln!("completion  {}", partial.completion.label());
    outln!("runtime     {elapsed:?} (this session)");
    outln!("blocks      {}", partial.blocks);
    outln!("sigma evals {}", algo.stats().sigma_evals);
    outln!("clusters    {}", clustering.num_clusters());
    outln!("cores       {}", rc.cores);
    outln!("borders     {}", rc.borders);
    outln!("hubs        {}", rc.hubs);
    outln!("outliers    {}", rc.outliers);
    if let Some(path) = opts.get_str("labels-out") {
        write_labels(path, &clustering)?;
        outln!("labels written to {path}");
    }
    if let Some(path) = trace_path {
        telemetry.add(Counter::FaultsInjected, anyscan_faults::injected());
        // `config(threads)` keeps the checkpointed thread count when the
        // CLI gave no override (threads == 0).
        write_trace(path, &telemetry, &g, &ck.config(threads))?;
    }
    Ok(())
}

/// Serializes a finished run's telemetry report (schema version 1; see
/// `anyscan_telemetry::validate`) to `path`, with the run's shape *and*
/// kernel tuning (sketch mode, hub-bitmap cap/floor) in the meta block so a
/// trace is self-describing about how its σ counters were produced.
fn write_trace(
    path: &str,
    telemetry: &Telemetry,
    g: &CsrGraph,
    config: &AnyScanConfig,
) -> CmdResult {
    let params = config.params;
    let meta: Vec<(&str, MetaValue)> = vec![
        ("vertices", (g.num_vertices() as u64).into()),
        ("edges", g.num_edges().into()),
        ("epsilon", params.epsilon.into()),
        ("mu", (params.mu as u64).into()),
        ("threads", (config.threads as u64).into()),
        ("sketch", config.sketch.as_str().into()),
        ("sketch_rows", (config.sketch_rows as u64).into()),
        ("sketch_bits", u64::from(config.sketch_bits).into()),
        ("hub_cap", (config.hub_max_hubs as u64).into()),
        ("hub_min_degree", (config.hub_min_degree as u64).into()),
    ];
    write_trace_with(path, telemetry, &meta)
}

/// Lower-level trace writer for commands whose meta is not the standard
/// (graph, params, threads) triple — index build/query runs.
fn write_trace_with(path: &str, telemetry: &Telemetry, meta: &[(&str, MetaValue)]) -> CmdResult {
    let report = telemetry
        .report()
        .ok_or("internal: telemetry handle was not enabled")?;
    std::fs::write(path, report.to_json(meta)).map_err(|e| format!("write {path}: {e}"))?;
    outln!("trace       {path}");
    Ok(())
}

fn write_labels(path: &str, c: &Clustering) -> CmdResult {
    let file = File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = BufWriter::new(file);
    writeln!(w, "# vertex cluster role").map_err(|e| e.to_string())?;
    for (v, (&l, &r)) in c.labels.iter().zip(&c.roles).enumerate() {
        let label = if l == NOISE {
            "-".to_string()
        } else {
            l.to_string()
        };
        writeln!(w, "{v} {label} {r:?}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

pub fn explore(opts: &Options) -> CmdResult {
    // Only aggregate counts are reported, so the permutation is not needed.
    let (g, _perm) = load_graph_reordered(opts)?;
    let threads: usize = opts.get_or("threads", 1)?;
    let eps_grid = opts
        .get_list::<f64>("eps")?
        .unwrap_or_else(|| vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
    let mu_grid = opts.get_list::<usize>("mu")?.unwrap_or_else(|| vec![5]);
    let start = Instant::now();
    let idx = SimilarityIndex::build(&g, threads);
    outln!(
        "precomputed {} edge similarities in {:?}\n",
        idx.num_edges(),
        start.elapsed()
    );
    outln!(
        "{:>6} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "eps",
        "mu",
        "clusters",
        "cores",
        "borders",
        "noise",
        "largest"
    );
    for &mu in &mu_grid {
        for p in explore::sweep(&idx, &eps_grid, mu) {
            outln!(
                "{:>6} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9}",
                p.epsilon,
                p.mu,
                p.clusters,
                p.cores,
                p.borders,
                p.noise,
                p.largest_cluster
            );
        }
    }
    Ok(())
}

pub fn hierarchy(opts: &Options) -> CmdResult {
    let (g, perm) = load_graph_reordered(opts)?;
    let mu: usize = opts.get_or("mu", 5)?;
    let threads: usize = opts.get_or("threads", 1)?;
    let start = Instant::now();
    let h = EpsilonHierarchy::build(&SimilarityIndex::build(&g, threads), mu);
    outln!(
        "hierarchy built in {:?}: {} merge events (mu = {})",
        start.elapsed(),
        h.merges().len(),
        h.mu()
    );
    let grid = opts
        .get_list::<f64>("eps")?
        .unwrap_or_else(|| (1..=9).map(|i| i as f64 / 10.0).collect());
    let counts = h.cluster_counts(&grid);
    outln!("{:>6} {:>9}", "eps", "clusters");
    for (e, c) in grid.iter().zip(&counts) {
        outln!("{e:>6} {c:>9}");
    }
    // Show the top of the dendrogram.
    outln!(
        "
first merges (highest ε):"
    );
    for m in h.merges().iter().take(opts.get_or("top", 10)?) {
        outln!(
            "  eps={:.4}: {} -- {}",
            m.epsilon,
            perm.old_of_new(m.u),
            perm.old_of_new(m.v)
        );
    }
    Ok(())
}

/// Reads a serialized similarity index (`.asix`) from `path`.
fn load_index(path: &str) -> Result<SimilarityIndex, String> {
    let file = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
    read_index(BufReader::new(file)).map_err(|e| format!("read {path}: {e}"))
}

pub fn index_build(opts: &Options) -> CmdResult {
    let (g, _perm) = load_graph_reordered(opts)?;
    let threads: usize = opts.get_or("threads", 1)?;
    let out = opts.get_str("out").ok_or("missing --out FILE")?;
    let trace_path = opts.get_str("trace-json");
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let (smode, srows, sbits) = sketch_options(opts)?;
    let build_opts = IndexBuildOptions {
        sketch: smode,
        sketch_rows: srows,
        sketch_bits: sbits,
        seed: opts.get_or("seed", 0x5CA7)?,
    };
    let start = Instant::now();
    // The ASIX file records the reorder mode so `index query` can re-derive
    // the same relabeling from the original graph.
    let idx = SimilarityIndex::build_with_options(&g, threads, build_opts, &telemetry)
        .with_reorder(reorder_mode(opts)?);
    let build_time = start.elapsed();
    let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    write_index(&idx, BufWriter::new(file)).map_err(|e| format!("write {out}: {e}"))?;
    outln!("build time  {build_time:?}");
    outln!("vertices    {}", idx.num_vertices());
    outln!("arcs        {}", idx.num_arcs());
    outln!("mu max      {}", idx.mu_max());
    outln!("sigma mode  {smode}");
    outln!("index       {out}");
    if let Some(path) = trace_path {
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (g.num_vertices() as u64).into()),
            ("edges", g.num_edges().into()),
            ("mu_max", (idx.mu_max() as u64).into()),
            ("threads", (threads as u64).into()),
            ("sketch", smode.as_str().into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    Ok(())
}

pub fn index_query(opts: &Options) -> CmdResult {
    let idx_path = opts.get_str("index").ok_or("missing --index FILE")?;
    let idx = load_index(idx_path)?;
    // `--sketch approx` answers from the ASIX file alone: no graph is
    // loaded, no adjacency touched — noise is split into hubs and outliers
    // from the index's own neighbor orders (identical result, see
    // `SimilarityIndex::query_offline`).
    let offline = sketch_mode(opts)? == SketchMode::Approx;
    let graph: Option<(CsrGraph, VertexPermutation)> = if offline {
        if opts.get_str("labels-out").is_some() && idx.reorder() != ReorderMode::None {
            return Err(format!(
                "--labels-out needs the graph to map {} ids back; drop --sketch approx or pass --input/--dataset",
                idx.reorder()
            ));
        }
        outln!("offline query: answering from {idx_path} without the graph");
        None
    } else {
        // Re-derive the relabeling the index was built under (deterministic
        // for a given graph + mode), so arc order lines up with the stored
        // rows.
        let (g, perm) = apply_reorder(load_graph(opts)?, idx.reorder());
        idx.check_graph(&g)
            .map_err(|e| format!("--index {idx_path}: {e}"))?;
        Some((g, perm))
    };
    let eps_grid = opts.get_list::<f64>("eps")?.ok_or("missing --eps")?;
    let mu_grid = opts.get_list::<usize>("mu")?.ok_or("missing --mu")?;
    for &eps in &eps_grid {
        if !(eps > 0.0 && eps <= 1.0) {
            return Err(format!("--eps must be in (0,1], got {eps}"));
        }
    }
    if mu_grid.contains(&0) {
        return Err("--mu must be >= 1".into());
    }
    let trace_path = opts.get_str("trace-json");
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    outln!(
        "{:>6} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "eps",
        "mu",
        "clusters",
        "cores",
        "borders",
        "hubs",
        "outliers",
        "latency"
    );
    let mut queries = 0u64;
    let mut last: Option<(ScanParams, Clustering)> = None;
    for &mu in &mu_grid {
        for &eps in &eps_grid {
            let params = ScanParams::new(eps, mu);
            let t0 = Instant::now();
            let c = match &graph {
                Some((g, _)) => idx.query_traced(g, params, &telemetry),
                None => idx.query_offline_traced(params, 1, &telemetry),
            };
            let latency = t0.elapsed();
            let rc = c.role_counts();
            outln!(
                "{:>6} {:>4} {:>9} {:>9} {:>9} {:>9} {:>9} {:>12}",
                eps,
                mu,
                c.num_clusters(),
                rc.cores,
                rc.borders,
                rc.hubs,
                rc.outliers,
                format!("{latency:?}")
            );
            queries += 1;
            last = Some((params, c));
        }
    }
    if let Some(path) = opts.get_str("labels-out") {
        let (_, c) = last.as_ref().ok_or("no queries ran")?;
        let c = match &graph {
            Some((_, perm)) => to_original_ids(c.clone(), perm),
            // Offline: reorder was checked to be None above, so labels are
            // already in original vertex ids.
            None => c.clone(),
        };
        write_labels(path, &c)?;
        outln!("labels written to {path} (last query)");
    }
    if let Some(path) = trace_path {
        let (params, _) = last.as_ref().ok_or("no queries ran")?;
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (idx.num_vertices() as u64).into()),
            ("edges", idx.num_edges().into()),
            ("epsilon", params.epsilon.into()),
            ("mu", (params.mu as u64).into()),
            ("queries", queries.into()),
            ("sketch", idx.sketch_mode().as_str().into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    Ok(())
}

/// `interactive --index FILE`: answer the (ε, μ) request straight from a
/// prebuilt similarity index instead of stepping the anytime driver.
fn interactive_indexed(opts: &Options, idx_path: &str) -> CmdResult {
    let idx = load_index(idx_path)?;
    let (g, perm) = apply_reorder(load_graph(opts)?, idx.reorder());
    idx.check_graph(&g)
        .map_err(|e| format!("--index {idx_path}: {e}"))?;
    let params = scan_params(opts)?;
    let trace_path = opts.get_str("trace-json");
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let t0 = Instant::now();
    let c = to_original_ids(idx.query_traced(&g, params, &telemetry), &perm);
    let latency = t0.elapsed();
    let rc = c.role_counts();
    outln!(
        "indexed fast-path: (eps={}, mu={}) answered in {latency:?}",
        params.epsilon,
        params.mu
    );
    outln!(
        "final: {} clusters, {} cores, {} borders, {} hubs, {} outliers",
        c.num_clusters(),
        rc.cores,
        rc.borders,
        rc.hubs,
        rc.outliers
    );
    if let Some(path) = trace_path {
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (g.num_vertices() as u64).into()),
            ("edges", g.num_edges().into()),
            ("epsilon", params.epsilon.into()),
            ("mu", (params.mu as u64).into()),
            ("queries", 1u64.into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    if let Some(path) = opts.get_str("labels-out") {
        write_labels(path, &c)?;
        outln!("labels written to {path}");
    }
    Ok(())
}

pub fn interactive(opts: &Options) -> CmdResult {
    if let Some(idx_path) = opts.get_str("index") {
        return interactive_indexed(opts, idx_path);
    }
    let (g, _perm) = load_graph_reordered(opts)?;
    let params = scan_params(opts)?;
    let checkpoint = std::time::Duration::from_millis(opts.get_or("checkpoint-ms", 100)?);
    let threads: usize = opts.get_or("threads", 1)?;
    let trace_path = opts.get_str("trace-json");
    let config = apply_tuning(
        opts,
        AnyScanConfig::new(params)
            .with_auto_block_size(g.num_vertices())
            .with_threads(threads)
            .with_reorder(reorder_mode(opts)?),
    )?;
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let ctl = run_control(opts)?;
    let ckpt_path = opts.get_str("checkpoint");
    let mut algo = AnyScan::new(&g, config).with_telemetry(telemetry.clone());
    let mut next = checkpoint;
    outln!(
        "clustering {} vertices / {} edges; checkpoint every {checkpoint:?}",
        g.num_vertices(),
        g.num_edges()
    );
    while algo.phase() != Phase::Done {
        if let Some(reason) = ctl.check(algo.blocks_executed()) {
            let partial = algo.partial();
            let rc = partial.clustering.role_counts();
            eprintln!(
                "stopped early ({}) in phase {:?} after {} blocks: clusters={} cores={} unclassified={}",
                reason.label(),
                partial.phase,
                partial.blocks,
                partial.clustering.num_clusters(),
                rc.cores,
                rc.unclassified
            );
            if let Some(path) = ckpt_path {
                algo.checkpoint()
                    .save(Path::new(path))
                    .map_err(|e| e.to_string())?;
                eprintln!(
                    "checkpoint saved; continue with: anyscan resume --checkpoint {path} ..."
                );
            }
            return Ok(());
        }
        algo.step();
        if algo.cumulative_time() >= next || algo.phase() == Phase::Done {
            next += checkpoint;
            let snap = algo.snapshot();
            let rc = snap.role_counts();
            outln!(
                "[{:>10?}] {:?}: clusters={} cores={} unclassified={}",
                algo.cumulative_time(),
                algo.phase(),
                snap.num_clusters(),
                rc.cores,
                rc.unclassified
            );
        }
    }
    let result = algo.result();
    outln!(
        "final: {} clusters, {} σ evaluations ({} cache hits), unions {:?}",
        result.num_clusters(),
        algo.stats().sigma_evals,
        algo.stats().cache_hits,
        algo.union_breakdown()
    );
    if let Some(path) = trace_path {
        write_trace(path, &telemetry, &g, &config)?;
    }
    // Sanity: the batch entry point agrees (not under approx sketches,
    // where the run intentionally diverges from the exact baseline).
    if config.sketch != SketchMode::Approx {
        debug_assert_eq!(
            anyscan(&g, params).clustering.num_clusters(),
            result.num_clusters()
        );
    }
    Ok(())
}

/// `serve --index FILE.asix`: the clustering-as-a-service daemon. Loads the
/// graph + index once, then answers concurrent protocol requests until
/// SIGINT or a `Shutdown` request drains it (see DESIGN.md §12). With
/// `--dynamic` the daemon also accepts `ApplyUpdates` write batches,
/// repairing the resident index in place and swapping epochs under
/// concurrent readers (DESIGN.md §13); `--update-log FILE.asul` makes the
/// mutations durable (an existing log is replayed on startup).
pub fn serve(opts: &Options) -> CmdResult {
    let idx_path = opts.get_str("index").ok_or("missing --index FILE")?;
    let idx = load_index(idx_path)?;
    // Same relabeling contract as `index query`: re-derive the reorder the
    // index was built under; responses map back to original vertex ids.
    let (g, perm) = apply_reorder(load_graph(opts)?, idx.reorder());
    let conn_timeout_ms: u64 = opts.get_or("conn-timeout-ms", 0)?;
    let config = ServerConfig {
        threads: opts.get_or("threads", 1)?,
        max_inflight: opts.get_or("max-inflight", 4)?,
        queue_depth: opts.get_or("queue-depth", 16)?,
        cache_entries: opts.get_or("cache-entries", 16)?,
        conn_timeout: (conn_timeout_ms > 0).then(|| Duration::from_millis(conn_timeout_ms)),
    };
    let trace_path = opts.get_str("trace-json");
    let telemetry = if trace_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let server = if opts.switch("dynamic") {
        let mut engine = DynamicIndex::from_parts(&g, idx, config.threads)
            .map_err(|e| format!("--dynamic: {e}"))?;
        let log = match opts.get_str("update-log") {
            Some(raw) => {
                let path = std::path::PathBuf::from(raw);
                let log = if path.exists() {
                    let log =
                        UpdateLog::load(&path).map_err(|e| format!("--update-log {raw}: {e}"))?;
                    if log.base() != GraphStamp::of(&g) {
                        return Err(format!(
                            "--update-log {raw}: log was recorded against a different base graph"
                        ));
                    }
                    for chunk in log.entries().chunks(256) {
                        engine
                            .apply_batch(chunk, &telemetry)
                            .map_err(|e| format!("--update-log {raw}: replay: {e}"))?;
                    }
                    outln!(
                        "replayed {} logged updates (watermark {})",
                        log.entries().len(),
                        log.applied_seq()
                    );
                    log
                } else {
                    UpdateLog::new(&g)
                };
                Some((log, path))
            }
            None => None,
        };
        std::sync::Arc::new(
            Server::new_dynamic(engine, log, config, telemetry.clone())
                .map_err(|e| format!("--dynamic: {e}"))?,
        )
    } else {
        std::sync::Arc::new(
            Server::new(g, perm, idx, config, telemetry.clone())
                .map_err(|e| format!("--index {idx_path}: {e}"))?,
        )
    };
    // Replication role. `--promote` on a restart: a replica's operator
    // brings its daemon back as the writable primary — the term bump is
    // durable (persisted into the ASUL header) so the deposed primary's
    // frames are fenced even across this restart.
    let replica_of = opts.get_str("replica-of");
    if opts.switch("promote") {
        if replica_of.is_some() {
            return Err("--promote and --replica-of are mutually exclusive".into());
        }
        if !server.is_dynamic() {
            return Err("--promote needs --dynamic".into());
        }
        server.become_replica("");
        match server.promote() {
            anyscan_serve::Response::Promoted { term, .. } => {
                outln!("promoted: serving as primary at term {term}");
            }
            other => return Err(format!("--promote failed: {other:?}")),
        }
    }
    let feed = match replica_of {
        Some(primary) => {
            if !server.is_dynamic() {
                return Err("--replica-of needs --dynamic".into());
            }
            server.become_replica(primary);
            Some(anyscan_serve::run_replica_feed(
                std::sync::Arc::clone(&server),
                anyscan_serve::ReplicaFeedConfig::new(primary),
            ))
        }
        None => None,
    };
    outln!(
        "serving {} vertices / {} edges from {idx_path}{}{} \
         ({} in flight, {} queued, cache {})",
        server.num_vertices(),
        server.num_edges(),
        if server.is_dynamic() {
            " [dynamic]"
        } else {
            ""
        },
        match replica_of {
            Some(primary) => format!(" [replica of {primary}, term {}]", server.term()),
            None => format!(" [term {}]", server.term()),
        },
        config.max_inflight,
        config.queue_depth,
        config.cache_entries
    );
    crate::sigint::install();
    let ctl = RunControl::new().with_interrupt_flag(crate::sigint::flag());
    let listener = match opts.get_str("socket") {
        Some(path) => {
            #[cfg(unix)]
            {
                outln!("listening on unix:{path}");
                Listener::bind_unix(path).map_err(|e| format!("bind {path}: {e}"))?
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("--socket needs a unix platform; use --listen HOST:PORT".into());
            }
        }
        None => {
            let addr = opts.get_str("listen").unwrap_or("127.0.0.1:7411");
            let (listener, local) =
                Listener::bind_tcp(addr).map_err(|e| format!("bind {addr}: {e}"))?;
            outln!("listening on {local}");
            listener
        }
    };
    server
        .serve(listener, &ctl)
        .map_err(|e| format!("serve: {e}"))?;
    if let Some(feed) = feed {
        // The feed notices the drain within its read-timeout tick.
        let _ = feed.join();
    }
    let stats = server.stats();
    outln!(
        "drained: {} requests ({} queries, {} lookups, {} runs, \
         {} update batches, {} overloaded, {} protocol errors, {} timeouts)",
        stats.requests,
        stats.queries,
        stats.lookups,
        stats.runs,
        stats.updates,
        stats.overloaded,
        stats.protocol_errors,
        stats.timeouts
    );
    if let Some(path) = trace_path {
        telemetry.add(Counter::FaultsInjected, anyscan_faults::injected());
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (server.num_vertices() as u64).into()),
            ("edges", server.num_edges().into()),
            ("requests", stats.requests.into()),
            ("overloaded", stats.overloaded.into()),
            ("protocol_errors", stats.protocol_errors.into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    Ok(())
}

/// Endpoint list from `--connect a,b,c` / `--socket PATH` (default
/// 127.0.0.1:7411), shared by `probe` and `promote`.
fn client_endpoints(opts: &Options) -> Result<Vec<anyscan_client::Endpoint>, String> {
    if let Some(path) = opts.get_str("socket") {
        return Ok(vec![anyscan_client::Endpoint::Unix(path.to_string())]);
    }
    anyscan_client::Endpoint::parse_list(opts.get_str("connect").unwrap_or("127.0.0.1:7411"))
}

/// `probe`: pings every listed endpoint and prints one health line each —
/// role, term, epoch, durable watermark, admission pressure, cumulative
/// counters. Exit is an error only if *no* endpoint answered, so the
/// command doubles as a liveness check for a degraded group.
pub fn probe(opts: &Options) -> CmdResult {
    use anyscan_serve::protocol::server_role_name;
    let endpoints = client_endpoints(opts)?;
    let mut client = anyscan_client::Client::new(anyscan_client::ClientConfig {
        request_timeout: Some(Duration::from_millis(opts.get_or("timeout-ms", 2000u64)?)),
        retry: anyscan_client::RetryPolicy {
            attempts: 1,
            ..Default::default()
        },
        ..anyscan_client::ClientConfig::new(endpoints.clone())
    })
    .map_err(|e| e.to_string())?;
    let mut alive = 0usize;
    for endpoint in &endpoints {
        match client.probe(endpoint) {
            Ok(anyscan_serve::Response::Ping(h)) => {
                alive += 1;
                outln!(
                    "{endpoint}: {} term {} epoch {} watermark {} \
                     inflight {} queued {} requests {} errors {} timeouts {}",
                    server_role_name(h.role).unwrap_or("unknown"),
                    h.term,
                    h.epoch,
                    h.watermark,
                    h.inflight,
                    h.queued,
                    h.stats.requests,
                    h.stats.protocol_errors,
                    h.stats.timeouts
                );
            }
            Ok(other) => outln!("{endpoint}: unexpected answer {other:?}"),
            Err(e) => outln!("{endpoint}: unreachable ({e})"),
        }
    }
    if alive == 0 {
        return Err("no endpoint answered".into());
    }
    Ok(())
}

/// `promote`: asks one daemon to become the writable primary. The bumped
/// term (printed) fences the deposed primary's replication frames.
pub fn promote(opts: &Options) -> CmdResult {
    let endpoints = client_endpoints(opts)?;
    if endpoints.len() != 1 {
        return Err("promote targets exactly one endpoint".into());
    }
    let mut client =
        anyscan_client::Client::connect(endpoints[0].clone()).map_err(|e| e.to_string())?;
    match client
        .call(&anyscan_serve::protocol::Request::Promote)
        .map_err(|e| e.to_string())?
    {
        anyscan_serve::Response::Promoted {
            term,
            epoch,
            watermark,
        } => {
            outln!(
                "{} is primary at term {term} (epoch {epoch}, watermark {watermark})",
                endpoints[0]
            );
            Ok(())
        }
        anyscan_serve::Response::Error { code, message } => {
            Err(format!("promote refused: {} ({message})", code.label()))
        }
        other => Err(format!("unexpected answer {other:?}")),
    }
}

/// `mutate`: generates a random edge-update trace against the input graph,
/// applies it through the incremental engine, and writes the ASUL log (plus,
/// optionally, the mutated graph). The trace is the input for `replay`, the
/// loadgen `update:N` mix, and the CI dynamic-smoke job.
pub fn mutate(opts: &Options) -> CmdResult {
    use rand::Rng;
    let g = load_graph(opts)?;
    let n = g.num_vertices() as u32;
    if n < 2 {
        return Err("mutate needs a graph with at least 2 vertices".into());
    }
    let total: u64 = opts.get_or("updates", 200)?;
    let batch: usize = opts.get_or("batch", 32)?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    let threads: usize = opts.get_or("threads", 1)?;
    let seed: u64 = opts.get_or("update-seed", 1)?;
    let trace_out = opts
        .get_str("trace-out")
        .ok_or("missing --trace-out FILE.asul")?;

    // Mostly inserts so the graph grows rather than drains; removes and
    // reweights of absent edges are relaxed no-ops, so blind generation
    // against the evolving edge set is safe.
    let mut rng = StdRng::seed_from_u64(seed);
    let updates: Vec<EdgeUpdate> = (0..total)
        .map(|i| {
            let u = rng.gen_range(0..n);
            let mut v = rng.gen_range(0..n - 1);
            if v >= u {
                v += 1;
            }
            let op = match rng.gen_range(0..10u32) {
                0..=5 => EdgeOp::Insert(rng.gen_range(0.05..1.0)),
                6..=7 => EdgeOp::Reweight(rng.gen_range(0.05..1.0)),
                _ => EdgeOp::Remove,
            };
            EdgeUpdate {
                seq: i + 1,
                u,
                v,
                op,
            }
        })
        .collect();

    let telemetry = Telemetry::enabled();
    let mut engine =
        DynamicIndex::new_traced(&g, threads, &telemetry).map_err(|e| e.to_string())?;
    let mut log = UpdateLog::new(&g);
    let mut applied = 0u64;
    let mut skipped = 0u64;
    let mut reevals = 0u64;
    for chunk in updates.chunks(batch) {
        let stats = engine
            .apply_batch(chunk, &telemetry)
            .map_err(|e| e.to_string())?;
        log.append_batch(chunk).map_err(|e| e.to_string())?;
        applied += stats.applied;
        skipped += stats.skipped;
        reevals += stats.sigma_reevals;
    }
    log.save(Path::new(trace_out)).map_err(|e| e.to_string())?;
    outln!(
        "applied {applied} updates ({skipped} no-ops) in batches of {batch}: \
         {reevals} σ re-evaluations, watermark {}",
        engine.applied_seq()
    );
    outln!("trace       {trace_out}");
    if let Some(out) = opts.get_str("out") {
        let mutated = engine.to_csr().map_err(|e| e.to_string())?;
        let file = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
        if out.ends_with(".bin") {
            write_binary(&mutated, BufWriter::new(file)).map_err(|e| e.to_string())?;
        } else {
            write_edge_list(&mutated, BufWriter::new(file)).map_err(|e| e.to_string())?;
        }
        outln!(
            "mutated     {out} ({} vertices / {} edges)",
            mutated.num_vertices(),
            mutated.num_edges()
        );
    }
    if let Some(path) = opts.get_str("trace-json") {
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (g.num_vertices() as u64).into()),
            ("updates", total.into()),
            ("applied", applied.into()),
            ("skipped", skipped.into()),
            ("batch", (batch as u64).into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    Ok(())
}

/// `replay`: re-applies an ASUL update log against its base graph through
/// the incremental engine (fingerprint-checked), then optionally answers an
/// `(eps, mu)` query from the repaired index — the recovery path of the
/// dynamic daemon, runnable standalone.
pub fn replay(opts: &Options) -> CmdResult {
    let trace = opts.get_str("trace").ok_or("missing --trace FILE.asul")?;
    let g = load_graph(opts)?;
    let threads: usize = opts.get_or("threads", 1)?;
    let batch: usize = opts.get_or("batch", 256)?;
    if batch == 0 {
        return Err("--batch must be >= 1".into());
    }
    let telemetry = Telemetry::enabled();
    let log = UpdateLog::load(Path::new(trace)).map_err(|e| format!("--trace {trace}: {e}"))?;
    let start = Instant::now();
    let engine = log
        .replay(&g, threads, batch, &telemetry)
        .map_err(|e| format!("--trace {trace}: {e}"))?;
    outln!(
        "replayed {} updates in {:?} (batches of {batch}, watermark {})",
        log.entries().len(),
        start.elapsed(),
        engine.applied_seq()
    );
    if opts.get_str("eps").is_some() || opts.get_str("mu").is_some() {
        let params = scan_params(opts)?;
        let c = engine.query_traced(params, &telemetry);
        let rc = c.role_counts();
        outln!(
            "query (eps={}, mu={}): {} clusters, {} cores, {} outliers",
            params.epsilon,
            params.mu,
            c.num_clusters(),
            rc.cores,
            rc.outliers
        );
        if let Some(path) = opts.get_str("labels-out") {
            write_labels(path, &c)?;
            outln!("labels      {path}");
        }
    }
    if let Some(path) = opts.get_str("trace-json") {
        let meta: Vec<(&str, MetaValue)> = vec![
            ("vertices", (g.num_vertices() as u64).into()),
            ("updates", (log.entries().len() as u64).into()),
            ("watermark", log.applied_seq().into()),
            ("batch", (batch as u64).into()),
        ];
        write_trace_with(path, &telemetry, &meta)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_ids_parse() {
        assert_eq!(parse_dataset_id("gr01").unwrap(), DatasetId::Gr01);
        assert_eq!(parse_dataset_id("GR05").unwrap(), DatasetId::Gr05);
        assert_eq!(parse_dataset_id("lfr13").unwrap(), DatasetId::Lfr(13));
        assert!(parse_dataset_id("LFR07").is_err());
        assert!(parse_dataset_id("bogus").is_err());
    }

    #[test]
    fn scan_params_validation() {
        let o = Options::parse(&["--eps".into(), "1.5".into(), "--mu".into(), "5".into()]).unwrap();
        assert!(scan_params(&o).is_err());
        let o = Options::parse(&["--eps".into(), "0.5".into(), "--mu".into(), "0".into()]).unwrap();
        assert!(scan_params(&o).is_err());
        let o = Options::parse(&["--eps".into(), "0.5".into(), "--mu".into(), "3".into()]).unwrap();
        assert!(scan_params(&o).is_ok());
    }
}
