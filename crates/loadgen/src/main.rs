//! `anyscan-loadgen` — drive an `anyscan serve` daemon and gate the result.
//!
//! ```text
//! anyscan-loadgen --connect 127.0.0.1:7411 --duration-ms 5000 --concurrency 8 \
//!     --mix query:3,lookup:6,run:1 --eps 0.5 --mu 4 \
//!     --trace-json load.json --gate-p99-ms 250 --gate-errors 0
//! ```
//!
//! Exit status: 0 on success, 1 when a `--gate-*` bound is violated, 2 on
//! usage or connection errors.

use std::collections::HashMap;
use std::io::Write;
use std::time::Duration;

use anyscan_client::{Client, ClientConfig};
use anyscan_loadgen::{run, wait_ready, Endpoint, MixWeights, RunConfig, Summary};
use anyscan_serve::protocol::{role_name, Request, Response};
use anyscan_telemetry::{MetaValue, Telemetry};

fn usage() {
    eprintln!(
        "anyscan-loadgen — load harness for `anyscan serve`

  --connect LIST        daemon address(es), comma-separated host:port or
                        unix:PATH (default 127.0.0.1:7411); with several,
                        reads fail over across the list and writes follow
                        the NotPrimary leader hint
  --socket PATH         unix-domain socket instead of TCP
  --duration-ms N       run for N milliseconds
  --iterations N        run for N requests (with neither bound: 1 request)
  --concurrency N       worker connections (default 4)
  --rate R              open-loop arrival rate, requests/second (default:
                        closed loop)
  --mix SPEC            request mix, e.g. query:3,lookup:6,run:1 (default);
                        add update:N for write batches against a --dynamic
                        daemon
  --update-batch N      updates per generated ApplyUpdates batch (default 8)
  --eps E --mu M        query parameters (default 0.5 / 4)
  --run-deadline-ms N   per-request deadline on `run` requests (default 50)
  --run-max-blocks N    per-request block budget on `run` requests (default 0)
  --vertices N          lookup id space; 0 = probe the daemon when the run
                        sends lookups or updates (default 0)
  --seed N              RNG seed (default 42)
  --wait-ready-ms N     poll the daemon with pings for up to N ms first
  --check-labels FILE   fetch full labels once and write them in the CLI's
                        --labels-out format (for diffing against serial runs)
  --trace-json FILE     write the load report (trace-JSON schema v1)
  --gate-p99-ms F       exit 1 if p99 latency exceeds F ms
  --gate-errors N       exit 1 if more than N requests errored
  --shutdown            send a shutdown request after the run"
    );
}

struct Flags {
    values: HashMap<String, String>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(argv: &[String]) -> Result<Flags, String> {
        const SWITCHES: &[&str] = &["shutdown", "help"];
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let Some(key) = argv[i].strip_prefix("--") else {
                return Err(format!("expected a --flag, got {:?}", argv[i]));
            };
            if SWITCHES.contains(&key) {
                switches.push(key.to_string());
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            values.insert(key.to_string(), value);
            i += 2;
        }
        Ok(Flags { values, switches })
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value for --{key}: {raw:?}")),
        }
    }

    fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags = match Flags::parse(&argv) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n");
            usage();
            std::process::exit(2);
        }
    };
    if flags.switch("help") {
        usage();
        return;
    }
    match drive(&flags) {
        Ok(gates_ok) => {
            if !gates_ok {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

fn drive(flags: &Flags) -> Result<bool, String> {
    let endpoints = match flags.get_str("socket") {
        #[cfg(unix)]
        Some(path) => vec![Endpoint::Unix(path.to_string())],
        #[cfg(not(unix))]
        Some(_) => return Err("--socket needs a unix platform; use --connect".into()),
        None => Endpoint::parse_list(flags.get_str("connect").unwrap_or("127.0.0.1:7411"))?,
    };
    let target = endpoints
        .iter()
        .map(Endpoint::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut config = RunConfig {
        endpoints: endpoints.clone(),
        concurrency: flags.get("concurrency", 4usize)?,
        iterations: flags
            .get_str("iterations")
            .map(|raw| {
                raw.parse::<u64>()
                    .map_err(|_| format!("bad value for --iterations: {raw:?}"))
            })
            .transpose()?,
        duration: flags
            .get_str("duration-ms")
            .map(|raw| {
                raw.parse::<u64>()
                    .map(Duration::from_millis)
                    .map_err(|_| format!("bad value for --duration-ms: {raw:?}"))
            })
            .transpose()?,
        rate: flags
            .get_str("rate")
            .map(|raw| {
                raw.parse::<f64>()
                    .map_err(|_| format!("bad value for --rate: {raw:?}"))
                    .and_then(|r| {
                        if r > 0.0 {
                            Ok(r)
                        } else {
                            Err(format!("--rate must be positive, got {r}"))
                        }
                    })
            })
            .transpose()?,
        mix: match flags.get_str("mix") {
            Some(raw) => MixWeights::parse(raw)?,
            None => MixWeights::default(),
        },
        eps: flags.get("eps", 0.5f64)?,
        mu: flags.get("mu", 4u32)?,
        run_deadline_ms: flags.get("run-deadline-ms", 50u32)?,
        run_max_blocks: flags.get("run-max-blocks", 0u64)?,
        vertices: flags.get("vertices", 0u32)?,
        update_batch: flags.get("update-batch", 8u32)?,
        seed: flags.get("seed", 42u64)?,
        ..RunConfig::default()
    };

    let wait_ms: u64 = flags.get("wait-ready-ms", 0)?;
    if wait_ms > 0 {
        for endpoint in &endpoints {
            wait_ready(endpoint, Duration::from_millis(wait_ms))
                .map_err(|e| format!("daemon at {endpoint} not ready after {wait_ms}ms: {e}"))?;
        }
        println!("daemon(s) at {target} ready");
    }

    // Lookups and updates need the vertex-id space; probe it only when the
    // run can send one (and optionally dump the full labels for a
    // bit-identical diff against a serial `index query`).
    let check_labels = flags.get_str("check-labels");
    if (config.vertices == 0 && config.sends_vertex_ids()) || check_labels.is_some() {
        let labels = fetch_labels(&endpoints, config.eps, config.mu)?;
        if config.vertices == 0 {
            config.vertices = labels.labels.len() as u32;
            println!("probed {} vertices from the daemon", config.vertices);
        }
        if let Some(path) = check_labels {
            write_labels(path, &labels)?;
            println!("labels written to {path}");
        }
    }

    let telemetry = Telemetry::enabled();
    let summary = run(&config, &telemetry);
    print_summary(&config, &summary);

    if let Some(path) = flags.get_str("trace-json") {
        let mode = if config.rate.is_some() {
            "open"
        } else {
            "closed"
        };
        let meta: Vec<(&str, MetaValue)> = vec![
            ("tool", "anyscan-loadgen".into()),
            ("target", target.to_string().into()),
            ("mode", mode.into()),
            ("concurrency", (config.concurrency as u64).into()),
            ("epsilon", config.eps.into()),
            ("mu", u64::from(config.mu).into()),
            ("requests", summary.requests.into()),
            ("ok", summary.ok.into()),
            ("overloaded", summary.overloaded.into()),
            ("errors", summary.errors.into()),
            ("reconnects", summary.reconnects.into()),
            ("duration_ms", (summary.elapsed.as_millis() as u64).into()),
            ("throughput_rps", summary.throughput_rps.into()),
            ("p50_ms", summary.p50_ms.into()),
            ("p95_ms", summary.p95_ms.into()),
            ("p99_ms", summary.p99_ms.into()),
            ("max_ms", summary.max_ms.into()),
        ];
        let report = telemetry.report().ok_or("internal: telemetry disabled")?;
        std::fs::write(path, report.to_json(&meta)).map_err(|e| format!("write {path}: {e}"))?;
        println!("trace       {path}");
    }

    if flags.switch("shutdown") {
        // Targeted command: drain the first listed endpoint only.
        let mut client = Client::connect(endpoints[0].clone()).map_err(|e| e.to_string())?;
        client
            .call(&Request::Shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        println!("daemon asked to shut down");
    }

    let mut gates_ok = true;
    if let Some(raw) = flags.get_str("gate-p99-ms") {
        let bound: f64 = raw
            .parse()
            .map_err(|_| format!("bad value for --gate-p99-ms: {raw:?}"))?;
        if summary.p99_ms > bound {
            eprintln!("GATE FAILED: p99 {:.3}ms > {bound}ms", summary.p99_ms);
            gates_ok = false;
        }
    }
    if let Some(raw) = flags.get_str("gate-errors") {
        let bound: u64 = raw
            .parse()
            .map_err(|_| format!("bad value for --gate-errors: {raw:?}"))?;
        if summary.errors > bound {
            eprintln!("GATE FAILED: {} errors > {bound}", summary.errors);
            gates_ok = false;
        }
    }
    if gates_ok
        && (flags.get_str("gate-p99-ms").is_some() || flags.get_str("gate-errors").is_some())
    {
        println!("gates passed");
    }
    Ok(gates_ok)
}

fn fetch_labels(
    endpoints: &[Endpoint],
    eps: f64,
    mu: u32,
) -> Result<anyscan_serve::protocol::LabelBlock, String> {
    let mut client =
        Client::new(ClientConfig::new(endpoints.to_vec())).map_err(|e| e.to_string())?;
    let response = client
        .call(&Request::Query {
            eps,
            mu,
            want_labels: true,
        })
        .map_err(|e| e.to_string())?;
    match response {
        Response::Query {
            labels: Some(block),
            ..
        } => Ok(block),
        Response::Error { code, message } => Err(format!(
            "daemon rejected the probe query: {} ({message})",
            code.label()
        )),
        other => Err(format!("unexpected probe response: {other:?}")),
    }
}

/// Writes labels in exactly the CLI's `--labels-out` format so a byte-wise
/// diff against a serial `index query` proves the daemon path identical.
fn write_labels(path: &str, block: &anyscan_serve::protocol::LabelBlock) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    writeln!(w, "# vertex cluster role").map_err(|e| e.to_string())?;
    for (v, (&label, &role)) in block.labels.iter().zip(&block.roles).enumerate() {
        let label = if label == u32::MAX {
            "-".to_string()
        } else {
            label.to_string()
        };
        let role = role_name(role).ok_or("daemon sent an unknown role code")?;
        writeln!(w, "{v} {label} {role}").map_err(|e| e.to_string())?;
    }
    Ok(())
}

fn print_summary(config: &RunConfig, s: &Summary) {
    let mode = match config.rate {
        Some(r) => format!("open loop @ {r} req/s"),
        None => "closed loop".to_string(),
    };
    println!(
        "\n{} workers, {mode}, {:.2}s elapsed",
        config.concurrency,
        s.elapsed.as_secs_f64()
    );
    println!(
        "requests    {} ({} ok, {} overloaded, {} errors, {} reconnects)",
        s.requests, s.ok, s.overloaded, s.errors, s.reconnects
    );
    println!("throughput  {:.1} req/s", s.throughput_rps);
    println!(
        "latency     p50 {:.3}ms  p95 {:.3}ms  p99 {:.3}ms  max {:.3}ms",
        s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms
    );
}
