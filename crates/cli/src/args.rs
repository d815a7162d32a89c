//! Flag parsing for the CLI (hand-rolled; the workspace keeps its
//! dependency budget minimal).

use std::collections::HashMap;

/// Flags of the graph loader (`--input FILE` or a generated `--dataset`),
/// read by every command that loads a graph.
const GRAPH_FLAGS: &str = "input dataset scale seed";

/// Every command (index subcommands as `index build` / `index query`),
/// whether it loads a graph (and so also reads [`GRAPH_FLAGS`]), and the
/// other flags it reads. A flag outside this table is rejected before any
/// work runs.
const COMMAND_FLAGS: &[(&str, bool, &str)] = &[
    ("stats", true, ""),
    (
        "generate",
        false,
        "kind n seed unweighted avg-degree mixing communities p-in p-out \
         edge-factor out",
    ),
    (
        "cluster",
        true,
        "eps mu algo threads block reorder labels-out trace-json no-opt sketch \
         sketch-rows sketch-bits hub-cap hub-min-degree deadline-ms max-blocks \
         checkpoint checkpoint-every",
    ),
    (
        "resume",
        true,
        "checkpoint threads labels-out trace-json deadline-ms max-blocks checkpoint-every",
    ),
    ("explore", true, "eps mu threads reorder"),
    ("hierarchy", true, "mu eps threads top reorder"),
    (
        "interactive",
        true,
        "eps mu checkpoint-ms threads trace-json labels-out reorder sketch \
         sketch-rows sketch-bits hub-cap hub-min-degree index deadline-ms \
         max-blocks checkpoint",
    ),
    (
        "index build",
        true,
        "out threads trace-json reorder sketch sketch-rows sketch-bits",
    ),
    (
        "index query",
        true,
        "index eps mu labels-out trace-json sketch",
    ),
    (
        "serve",
        true,
        "index listen socket threads max-inflight queue-depth cache-entries \
         conn-timeout-ms dynamic update-log replica-of promote trace-json",
    ),
    ("probe", false, "connect socket timeout-ms"),
    ("promote", false, "connect socket"),
    (
        "mutate",
        true,
        "trace-out updates batch update-seed threads out trace-json",
    ),
    (
        "replay",
        true,
        "trace batch threads eps mu labels-out trace-json",
    ),
];

/// Whether `command` reads `--flag`; `None` for an unknown command.
fn accepts(command: &str, flag: &str) -> Option<bool> {
    let &(_, loads_graph, own) = COMMAND_FLAGS.iter().find(|(name, ..)| *name == command)?;
    let listed = |flags: &str| flags.split_whitespace().any(|f| f == flag);
    Some(listed(own) || (loads_graph && listed(GRAPH_FLAGS)))
}

/// Parsed `--key value` options (plus boolean switches).
#[derive(Debug, Default)]
pub struct Options {
    values: HashMap<String, String>,
    switches: Vec<String>,
    /// Every flag given, in argument order.
    given: Vec<String>,
}

impl Options {
    /// Parses a `--key value | --switch` token stream.
    pub fn parse(argv: &[String]) -> Result<Options, String> {
        const SWITCHES: &[&str] = &["unweighted", "no-opt", "dynamic", "promote"];
        let mut out = Options::default();
        let mut i = 0;
        while i < argv.len() {
            let tok = &argv[i];
            let Some(key) = tok.strip_prefix("--") else {
                return Err(format!("expected a --flag, got {tok:?}"));
            };
            out.given.push(key.to_string());
            if SWITCHES.contains(&key) {
                out.switches.push(key.to_string());
                i += 1;
                continue;
            }
            let value = argv
                .get(i + 1)
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone();
            out.values.insert(key.to_string(), value);
            i += 2;
        }
        Ok(out)
    }

    /// Rejects the first flag `command` does not read, so a mistyped or
    /// retired flag fails instead of silently running with a default.
    /// Unknown commands pass through; dispatch reports them.
    pub fn check_flags(&self, command: &str) -> Result<(), String> {
        for flag in &self.given {
            if accepts(command, flag) == Some(false) {
                return Err(format!("unknown flag --{flag} for {command}"));
            }
        }
        Ok(())
    }

    /// A required typed option.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let raw = self
            .values
            .get(key)
            .ok_or_else(|| format!("missing --{key}"))?;
        raw.parse()
            .map_err(|_| format!("bad value for --{key}: {raw:?}"))
    }

    /// An optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("bad value for --{key}: {raw:?}")),
        }
    }

    /// Raw string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Comma-separated list of typed values.
    pub fn get_list<T: std::str::FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.values.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|t| {
                    t.trim()
                        .parse()
                        .map_err(|_| format!("bad list item {t:?} in --{key}"))
                })
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }
}

pub fn print_usage() {
    eprintln!("{USAGE}");
}

const USAGE: &str = "anyscan — structural graph clustering (SCAN family / anySCAN)

commands:
  stats        --input FILE | --dataset ID [--scale F] [--seed N]
  generate     --kind lfr|er|sbm|rmat --n N [--avg-degree D] [--mixing M]
               [--communities K] [--edge-factor F] [--seed N] [--unweighted]
               --out FILE[.bin|.txt]
  cluster      --input FILE | --dataset ID  --eps E --mu M
               [--algo anyscan|scan|scan-b|pscan|scan++] [--threads T]
               [--block B] [--reorder none|degree|bfs] [--labels-out FILE]
               [--trace-json FILE] [--no-opt]
               [--sketch off|approx] [--sketch-rows R] [--sketch-bits B]
               [--hub-cap N] [--hub-min-degree D]
               [--deadline-ms MS] [--max-blocks N]
               [--checkpoint FILE.asck] [--checkpoint-every N]
  resume       --checkpoint FILE.asck  --input FILE | --dataset ID
               [--threads T] [--labels-out FILE] [--trace-json FILE]
               [--deadline-ms MS] [--max-blocks N] [--checkpoint-every N]
  explore      --input FILE | --dataset ID  [--eps a,b,c] [--mu a,b,c]
               [--threads T] [--reorder none|degree|bfs]
  hierarchy    --input FILE | --dataset ID  [--mu M] [--eps a,b,c]
               [--threads T] [--top N] [--reorder none|degree|bfs]
  interactive  --input FILE | --dataset ID  --eps E --mu M
               [--checkpoint-ms MS] [--threads T] [--trace-json FILE]
               [--reorder none|degree|bfs]
               [--sketch off|approx] [--sketch-rows R] [--sketch-bits B]
               [--index FILE.asix]   (answer from a prebuilt index instantly)
               [--deadline-ms MS] [--max-blocks N] [--checkpoint FILE.asck]
  index build  --input FILE | --dataset ID  --out FILE.asix
               [--threads T] [--trace-json FILE] [--reorder none|degree|bfs]
               [--sketch off|approx] [--sketch-rows R] [--sketch-bits B]
  index query  --input FILE | --dataset ID  --index FILE.asix
               --eps a,b,c --mu a,b,c [--labels-out FILE] [--trace-json FILE]
               [--sketch approx]   (answer from the .asix file alone, no graph)
  serve        --input FILE | --dataset ID  --index FILE.asix
               [--listen HOST:PORT | --socket PATH] [--threads T]
               [--max-inflight N] [--queue-depth N] [--cache-entries N]
               [--conn-timeout-ms MS] [--dynamic [--update-log FILE.asul]]
               [--replica-of HOST:PORT|unix:PATH] [--promote]
               [--trace-json FILE]
  probe        --connect LIST | --socket PATH   (health of each endpoint)
  promote      --connect HOST:PORT | --socket PATH   (make it the primary)
  mutate       --input FILE | --dataset ID  --trace-out FILE.asul
               [--updates N] [--batch B] [--update-seed S] [--threads T]
               [--out FILE[.bin|.txt]] [--trace-json FILE]
  replay       --input FILE | --dataset ID  --trace FILE.asul
               [--batch B] [--threads T] [--eps E --mu M]
               [--labels-out FILE] [--trace-json FILE]

dataset ids: GR01..GR05, LFR01..LFR05, LFR11..LFR15 (Table I/II analogues)

--trace-json writes the run's structured telemetry (spans, counters, pool
utilization, anytime snapshots; schema checked by anyscan-trace-check)

serve answers concurrent (eps, mu) queries, per-vertex membership lookups
and deadline-bounded anytime runs over a length-framed socket protocol
(DESIGN.md §12); drive it with anyscan-loadgen. Overflow beyond
--max-inflight + --queue-depth is shed with a typed `overloaded` error

serve --dynamic also accepts streamed edge mutations (insert / remove /
reweight batches): the daemon re-evaluates only the σ values touched by a
batch, repairs the index in place, and swaps the new snapshot in under
concurrent readers — answers stay bit-identical to a from-scratch index on
the mutated graph (DESIGN.md §13). --update-log makes mutations durable
(ASUL format; replayed on restart). `mutate` generates and applies a random
update trace; `replay` re-applies a trace against its base graph. Dynamic
mode requires an index built with --reorder none and --sketch off

serve --replica-of makes a dynamic daemon a read-only replica: it
subscribes to the primary's committed ASUL stream, serves reads at its
applied epoch, and answers writes with a typed `not primary` + leader hint.
`promote` (the command, or --promote on a restart) turns a replica into a
writable primary, fencing the old one via a monotonic term carried in every
replicated frame (DESIGN.md §14). `probe` prints each endpoint's health:
role, term, epoch, durable watermark and admission pressure.
--conn-timeout-ms closes connections that stall past the deadline with a
typed `timeout` error (counted in serve stats)

execution control: Ctrl-C, --deadline-ms, and --max-blocks all stop a run
cleanly at the next block boundary with the best-so-far clustering;
--checkpoint-every N writes a crash-safe .asck checkpoint every N blocks,
and `resume` continues a run from one (same clustering as uninterrupted)

--reorder relabels vertices for cache locality (degree-descending or BFS)
before clustering; all output stays in original vertex ids. `resume` and
`index query` re-apply the mode recorded in the .asck / .asix file
automatically, so the flag is only given at `cluster` / `index build` time

--sketch approx builds b-bit MinHash signatures of every closed
neighborhood and lets the estimate decide, with --sketch-rows R (default
128) and --sketch-bits 1|2|4|8|16 (default 8) as the error knob; `off`
(default) keeps every decision exact. --hub-cap / --hub-min-degree tune the hub-bitmap layer
(exact at any setting)";

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(tokens: &[&str]) -> Options {
        Options::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_values_and_switches() {
        let o = opts(&["--eps", "0.5", "--unweighted", "--mu", "5"]);
        assert_eq!(o.require::<f64>("eps").unwrap(), 0.5);
        assert_eq!(o.require::<usize>("mu").unwrap(), 5);
        assert!(o.switch("unweighted"));
        assert!(!o.switch("no-opt"));
    }

    #[test]
    fn defaults_and_lists() {
        let o = opts(&["--eps", "0.1,0.2,0.3"]);
        assert_eq!(o.get_or::<usize>("mu", 5).unwrap(), 5);
        assert_eq!(o.get_list::<f64>("eps").unwrap(), Some(vec![0.1, 0.2, 0.3]));
        assert_eq!(o.get_list::<f64>("nope").unwrap(), None);
    }

    #[test]
    fn rejects_flags_a_command_does_not_read() {
        let err = opts(&["--input", "g.bin", "--out", "g.asix", "--probe-ratio", "0"])
            .check_flags("index build")
            .unwrap_err();
        assert_eq!(err, "unknown flag --probe-ratio for index build");
        let err = opts(&["--eps", "0.5", "--mu", "4", "--thread", "2"])
            .check_flags("cluster")
            .unwrap_err();
        assert_eq!(err, "unknown flag --thread for cluster");
        // Switches are checked too, and a flag of one command is unknown to
        // another.
        assert!(opts(&["--dynamic"]).check_flags("cluster").is_err());
        assert!(opts(&["--threads", "2"]).check_flags("probe").is_err());
        assert!(opts(&["--threads", "2", "--no-opt"])
            .check_flags("cluster")
            .is_ok());
        // Unknown commands are left to dispatch.
        assert!(opts(&["--bogus", "1"]).check_flags("nope").is_ok());
    }

    /// Each command's block of the usage text, as (command, flags listed).
    fn usage_blocks() -> Vec<(String, Vec<String>)> {
        let section = USAGE
            .split("commands:\n")
            .nth(1)
            .and_then(|rest| rest.split("\n\n").next())
            .expect("usage has a commands section");
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        for line in section.lines() {
            if !line.starts_with("   ") {
                let body = line.trim_start();
                let name = body.split("  ").next().unwrap().trim();
                blocks.push((name.to_string(), Vec::new()));
            }
            let flags = &mut blocks.last_mut().expect("block header first").1;
            for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                if let Some(flag) = word.strip_prefix("--") {
                    flags.push(flag.to_string());
                }
            }
        }
        blocks
    }

    #[test]
    fn every_flag_in_the_usage_is_accepted_by_its_command() {
        let blocks = usage_blocks();
        let listed: Vec<&str> = blocks.iter().map(|(name, _)| name.as_str()).collect();
        let declared: Vec<&str> = COMMAND_FLAGS.iter().map(|(name, ..)| *name).collect();
        assert_eq!(
            listed, declared,
            "usage and flag table list the same commands"
        );
        for (command, flags) in &blocks {
            assert!(!flags.is_empty(), "{command}: no flags parsed");
            for flag in flags {
                assert_eq!(
                    accepts(command, flag),
                    Some(true),
                    "usage lists --{flag} for {command}"
                );
            }
        }
    }

    #[test]
    fn error_paths() {
        assert!(Options::parse(&["eps".to_string()]).is_err());
        assert!(Options::parse(&["--eps".to_string()]).is_err());
        let o = opts(&["--mu", "abc"]);
        assert!(o.require::<usize>("mu").is_err());
        assert!(o.require::<usize>("absent").is_err());
    }
}
