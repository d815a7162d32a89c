//! The repository benchmark. `run.py` builds this binary, generates each
//! workload's graph with `gen` (outside every timed region and in its own
//! process, so generation never shows in time or peak memory) and then runs
//! `measure`, whose last stdout line is the result object.
//!
//! ```text
//! anyscan-perfbench gen --workload W --seed S --out FILE
//! anyscan-perfbench measure --workload W --seed S --seconds T --trace 0|1
//!                           --graph FILE --work DIR [--git-sha SHA]
//! ```

mod cluster;
mod daemon;
mod explore;
mod live;
mod stats;
mod sys;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use anyscan_graph::gen::datasets::{Dataset, DatasetId};
use anyscan_graph::CsrGraph;

/// Every workload runs with this many threads: the CPU count of the
/// two-core machines the bounds were measured on.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Cluster,
    Explore,
    Live,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "cluster-gr01x16" => Ok(Workload::Cluster),
            "explore-gr02x8" => Ok(Workload::Explore),
            "live-gr02x2" => Ok(Workload::Live),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Cluster => "cluster-gr01x16",
            Workload::Explore => "explore-gr02x8",
            Workload::Live => "live-gr02x2",
        }
    }

    fn dataset(self) -> (DatasetId, f64) {
        match self {
            Workload::Cluster => (DatasetId::Gr01, 16.0),
            Workload::Explore => (DatasetId::Gr02, 8.0),
            Workload::Live => (DatasetId::Gr02, 2.0),
        }
    }
}

/// End-to-end metrics: every workload reports each of them, with tracing
/// off. What "operation" means per workload is in `README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: every workload reports each of
/// them, 0 where the workload does not use the layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.load_s", "s"),
    ("parallel.cpu_util", "ratio"),
    ("kernel.sigma_evals", "count"),
    ("kernel.path_merge", "count"),
    ("kernel.path_bitmap", "count"),
    ("kernel.path_batched", "count"),
    ("kernel.path_probe", "count"),
    ("kernel.path_sketch", "count"),
    ("kernel.lemma5_filtered", "count"),
    ("kernel.edge_cache_hit_ratio", "ratio"),
    ("kernel.ns_per_sigma", "ns"),
    ("driver.new_s", "s"),
    ("driver.first_answer_s", "s"),
    ("driver.summarize_s", "s"),
    ("driver.merge_strong_s", "s"),
    ("driver.merge_weak_s", "s"),
    ("driver.borders_s", "s"),
    ("driver.resolve_roles_s", "s"),
    ("driver.blocks", "count"),
    ("dsu.unions_step1", "count"),
    ("dsu.unions_step2", "count"),
    ("dsu.unions_step3", "count"),
    ("index.build_s", "s"),
    ("index.sigma_evals", "count"),
    ("index.query_p50_ms", "ms"),
    ("index.query_p90_ms", "ms"),
    ("serve.dispatch_hit_ms", "ms"),
    ("serve.dispatch_miss_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.commit_ms", "ms"),
    ("protocol.encode_ms", "ms"),
    ("protocol.decode_ms", "ms"),
    ("protocol.response_bytes", "bytes"),
    ("client.rtt_overhead_ms", "ms"),
    ("client.hit_rtt_ms", "ms"),
    ("client.read_p90_ms", "ms"),
    ("dynamic.apply_batch_ms", "ms"),
    ("dynamic.sigma_reevals", "count"),
    ("dynamic.orders_repaired", "count"),
    ("log.save_ms", "ms"),
    ("log.bytes_per_save", "bytes"),
    ("trace.overhead_ratio", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// Everything one `measure` invocation found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable reasons for the first few failures.
    pub problems: Vec<String>,
    /// The metrics the result object carries.
    pub metrics: Vec<Metric>,
    /// Workload-specific figures printed above the result object only.
    pub detail: Vec<(String, f64, &'static str, usize)>,
    /// |V| and |E| of the workload's graph.
    pub graph: (usize, u64),
    /// Traced runs: self time per layer, in seconds.
    pub self_times: BTreeMap<&'static str, f64>,
    /// Traced runs: whether the spans file was written.
    pub spans_written: bool,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            samples,
        });
    }

    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.detail.push((name.to_string(), value, unit, samples));
    }

    /// Counts one checked operation, recording why it failed if it did.
    pub fn check(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(why);
            }
        }
    }
}

/// Reads the graph file the `gen` step wrote.
pub fn load_graph(path: &Path) -> CsrGraph {
    let file = std::fs::File::open(path).unwrap_or_else(|e| panic!("open {path:?}: {e}"));
    anyscan_graph::io::read_binary(std::io::BufReader::new(file))
        .unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

struct Args(BTreeMap<String, String>);

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Args(map))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.str(key)?
            .parse()
            .map_err(|_| format!("--{key}: not a number"))
    }
}

fn generate(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.str("workload")?)?;
    let seed: u64 = args.num("seed")?;
    let out = PathBuf::from(args.str("out")?);
    let (id, scale) = workload.dataset();
    let (g, _) = Dataset::get(id).generate_scaled(scale, seed);
    let file = std::fs::File::create(&out).map_err(|e| format!("create {out:?}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    anyscan_graph::io::write_binary(&g, &mut w).map_err(|e| format!("write {out:?}: {e}"))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("write {out:?}: {e}"))?;
    println!(
        "generated {} seed {seed}: |V| = {}, |E| = {}",
        id.short(),
        g.num_vertices(),
        g.num_edges()
    );
    Ok(())
}

/// Inputs of one `measure` invocation, shared by every workload.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub graph: PathBuf,
    pub work: PathBuf,
}

fn measure(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(args.str("workload")?)?;
    let traced = match args.str("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let run = Run {
        seed: args.num("seed")?,
        seconds: args.num("seconds")?,
        graph: PathBuf::from(args.str("graph")?),
        work: PathBuf::from(args.str("work")?),
    };
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let mut outcome = match (workload, traced) {
        (Workload::Cluster, false) => cluster::measure(&run),
        (Workload::Cluster, true) => cluster::trace(&run),
        (Workload::Explore, false) => explore::measure(&run),
        (Workload::Explore, true) => explore::trace(&run),
        (Workload::Live, false) => live::measure(&run),
        (Workload::Live, true) => live::trace(&run),
    };
    let (n, m) = outcome.graph;
    let expected = if traced { PER_LAYER } else { END_TO_END };
    for metric in &outcome.metrics {
        assert!(
            expected.iter().any(|(name, _)| *name == metric.name),
            "metric {} is not declared",
            metric.name
        );
    }

    // Provenance: runs from different machines or graphs are not alike.
    let caches: Vec<String> = sys::cache_sizes()
        .into_iter()
        .map(|(level, size)| format!("\"{level}\": \"{size}\""))
        .collect();
    println!(
        "provenance: {{\"workload\": \"{}\", \"git_sha\": \"{}\", \"nproc\": {}, \"threads\": {THREADS}, \
         \"seed\": {}, \"vertices\": {n}, \"edges\": {m}, \"caches\": {{{}}}, \"trace\": {}}}",
        workload.name(),
        args.str("git-sha").unwrap_or("unknown"),
        sys::nproc(),
        run.seed,
        caches.join(", "),
        u8::from(traced)
    );
    for (name, value, unit, samples) in &outcome.detail {
        println!("  {name:<28} {value:>14.4} {unit:<6} (n={samples})");
    }
    for (layer, secs) in &outcome.self_times {
        println!("  self time {layer:<18} {secs:>14.4} s");
    }
    if traced && !outcome.spans_written {
        println!("  warning: the spans file could not be written");
    }
    for problem in &outcome.problems {
        println!("  FAILED: {problem}");
    }

    let mut body = Vec::new();
    for (name, unit) in expected {
        let found = outcome.metrics.iter().find(|m| m.name == *name);
        let (value, samples) = found.map_or((0.0, 0), |m| (m.value, m.samples));
        println!("  {name:<28} {value:>14.4} {unit:<6} (n={samples})");
        if !value.is_finite() {
            outcome.check(Err(format!("metric {name} is not a finite number")));
            println!("  FAILED: metric {name} is not a finite number");
        }
        let value = if value.is_finite() { value } else { 0.0 };
        body.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.first().map(String::as_str) {
        Some("gen") => Args::parse(&raw[1..]).and_then(|a| generate(&a)),
        Some("measure") => Args::parse(&raw[1..]).and_then(|a| measure(&a)),
        _ => Err("usage: anyscan-perfbench gen|measure --workload W ...".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("anyscan-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
