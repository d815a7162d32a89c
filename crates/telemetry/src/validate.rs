//! Schema validation for `--trace-json` output.
//!
//! The trace format is versioned (currently `"version": 1`); this module
//! checks the structural invariants that CI's `telemetry-smoke` job gates
//! on, plus the semantic ones that make a trace trustworthy: state
//! histograms sum to |V|, cumulative time is monotone, phases are drawn
//! from the known anytime phase set.

use crate::json::JsonValue;
use crate::{Counter, NUM_VERTEX_STATES};

/// Phases a `BlockSnapshot` may legally carry. Mirrors the driver's
/// `Phase` enum plus the reserved explore/hierarchy names.
pub const KNOWN_PHASES: &[&str] = &[
    "summarize",
    "merge_strong",
    "merge_weak",
    "borders",
    "resolve_roles",
    "explore",
    "hierarchy",
];

/// Aggregate facts pulled out of a valid trace, for human display.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    pub spans: usize,
    pub snapshots: usize,
    pub total_span_ns: u64,
    pub sigma_evals: u64,
    pub cache_hits: u64,
    pub pool_slots: usize,
    pub vertices: Option<u64>,
}

fn require<'a>(v: &'a JsonValue, key: &str, ctx: &str) -> Result<&'a JsonValue, String> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing required key {key:?}"))
}

fn require_u64(v: &JsonValue, key: &str, ctx: &str) -> Result<u64, String> {
    require(v, key, ctx)?
        .as_u64()
        .ok_or_else(|| format!("{ctx}: {key:?} must be a non-negative integer"))
}

/// Validates a parsed trace document against schema version 1.
///
/// Returns a summary of the trace on success, or a message describing the
/// first violation found.
pub fn validate_trace(doc: &JsonValue) -> Result<TraceSummary, String> {
    let mut summary = TraceSummary::default();

    if doc.as_object().is_none() {
        return Err("trace: document root must be an object".into());
    }
    let version = require_u64(doc, "version", "trace")?;
    if version != 1 {
        return Err(format!("trace: unsupported schema version {version}"));
    }

    // meta: object of scalars; vertices (when present) anchors the
    // histogram-sum check below.
    let meta = require(doc, "meta", "trace")?;
    let meta_fields = meta
        .as_object()
        .ok_or_else(|| "trace: \"meta\" must be an object".to_string())?;
    for (k, v) in meta_fields {
        match v {
            JsonValue::String(_) | JsonValue::Number(_) | JsonValue::Bool(_) => {}
            _ => return Err(format!("meta: {k:?} must be a scalar")),
        }
    }
    summary.vertices = meta.get("vertices").and_then(JsonValue::as_u64);

    // spans: array of {name, total_ns, count}, names unique.
    let spans = require(doc, "spans", "trace")?
        .as_array()
        .ok_or_else(|| "trace: \"spans\" must be an array".to_string())?;
    let mut span_names: Vec<&str> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        let ctx = format!("spans[{i}]");
        let name = require(s, "name", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"name\" must be a string"))?;
        if name.is_empty() {
            return Err(format!("{ctx}: span name is empty"));
        }
        if span_names.contains(&name) {
            return Err(format!("{ctx}: duplicate span name {name:?}"));
        }
        span_names.push(name);
        summary.total_span_ns += require_u64(s, "total_ns", &ctx)?;
        let count = require_u64(s, "count", &ctx)?;
        if count == 0 {
            return Err(format!("{ctx}: span {name:?} has zero count"));
        }
    }
    summary.spans = spans.len();

    // counters: object holding every known counter exactly once.
    let counters = require(doc, "counters", "trace")?;
    let counter_fields = counters
        .as_object()
        .ok_or_else(|| "trace: \"counters\" must be an object".to_string())?;
    for c in Counter::ALL {
        let v = counters
            .get(c.name())
            .ok_or_else(|| format!("counters: missing {:?}", c.name()))?;
        v.as_u64()
            .ok_or_else(|| format!("counters: {:?} must be a non-negative integer", c.name()))?;
    }
    for (k, _) in counter_fields {
        if !Counter::ALL.iter().any(|c| c.name() == k) {
            return Err(format!("counters: unknown counter {k:?}"));
        }
    }
    summary.sigma_evals = counters
        .get(Counter::SigmaEvals.name())
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);
    summary.cache_hits = counters
        .get(Counter::EdgeCacheHits.name())
        .and_then(JsonValue::as_u64)
        .unwrap_or(0);

    // pool: null, or {jobs, slots: [{slot,busy_ns,chunks,jobs}], worker_parked_ns}.
    let pool = require(doc, "pool", "trace")?;
    match pool {
        JsonValue::Null => {}
        JsonValue::Object(_) => {
            require_u64(pool, "jobs", "pool")?;
            let slots = require(pool, "slots", "pool")?
                .as_array()
                .ok_or_else(|| "pool: \"slots\" must be an array".to_string())?;
            for (i, s) in slots.iter().enumerate() {
                let ctx = format!("pool.slots[{i}]");
                require_u64(s, "slot", &ctx)?;
                require_u64(s, "busy_ns", &ctx)?;
                require_u64(s, "chunks", &ctx)?;
                require_u64(s, "jobs", &ctx)?;
            }
            let parked = require(pool, "worker_parked_ns", "pool")?
                .as_array()
                .ok_or_else(|| "pool: \"worker_parked_ns\" must be an array".to_string())?;
            for (i, p) in parked.iter().enumerate() {
                p.as_u64().ok_or_else(|| {
                    format!("pool.worker_parked_ns[{i}] must be a non-negative integer")
                })?;
            }
            summary.pool_slots = slots.len();
        }
        _ => return Err("trace: \"pool\" must be an object or null".into()),
    }

    // snapshots: per-block anytime series. Indices strictly increase,
    // cumulative_ns is monotone, state histograms are 7-wide and (when
    // meta.vertices is present) sum to |V|.
    let snapshots = require(doc, "snapshots", "trace")?
        .as_array()
        .ok_or_else(|| "trace: \"snapshots\" must be an array".to_string())?;
    let mut last_index: Option<u64> = None;
    let mut last_cumulative: u64 = 0;
    for (i, snap) in snapshots.iter().enumerate() {
        let ctx = format!("snapshots[{i}]");
        let index = require_u64(snap, "index", &ctx)?;
        if let Some(prev) = last_index {
            if index <= prev {
                return Err(format!("{ctx}: index {index} not after previous {prev}"));
            }
        }
        last_index = Some(index);

        let phase = require(snap, "phase", &ctx)?
            .as_str()
            .ok_or_else(|| format!("{ctx}: \"phase\" must be a string"))?;
        if !KNOWN_PHASES.contains(&phase) {
            return Err(format!("{ctx}: unknown phase {phase:?}"));
        }

        require_u64(snap, "block_len", &ctx)?;
        require_u64(snap, "elapsed_ns", &ctx)?;
        let cumulative = require_u64(snap, "cumulative_ns", &ctx)?;
        if cumulative < last_cumulative {
            return Err(format!(
                "{ctx}: cumulative_ns {cumulative} went backwards (prev {last_cumulative})"
            ));
        }
        last_cumulative = cumulative;

        let states = require(snap, "states", &ctx)?
            .as_array()
            .ok_or_else(|| format!("{ctx}: \"states\" must be an array"))?;
        if states.len() != NUM_VERTEX_STATES {
            return Err(format!(
                "{ctx}: states has {} entries, expected {NUM_VERTEX_STATES}",
                states.len()
            ));
        }
        let mut sum: u64 = 0;
        for (j, s) in states.iter().enumerate() {
            sum += s
                .as_u64()
                .ok_or_else(|| format!("{ctx}: states[{j}] must be a non-negative integer"))?;
        }
        if let Some(n) = summary.vertices {
            if sum != n {
                return Err(format!(
                    "{ctx}: state histogram sums to {sum}, expected |V| = {n}"
                ));
            }
        }

        require_u64(snap, "supernodes", &ctx)?;
        require_u64(snap, "components", &ctx)?;
        require_u64(snap, "unions", &ctx)?;
    }
    summary.snapshots = snapshots.len();

    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MetaValue, Report};

    fn valid_report_json() -> String {
        let rec = crate::ShardedRecorder::new();
        use crate::Recorder;
        rec.add(Counter::SigmaEvals, 10);
        rec.record_span("step1", 500);
        rec.record_block(crate::BlockSnapshot {
            index: 0,
            phase: "summarize",
            block_len: 4,
            elapsed_ns: 100,
            cumulative_ns: 100,
            states: [2, 0, 0, 0, 0, 0, 2],
            supernodes: 1,
            components: 1,
            unions: 0,
        });
        let report: Report = rec.report();
        report.to_json(&[("vertices", MetaValue::from(4u64)), ("tool", "test".into())])
    }

    #[test]
    fn accepts_generated_trace() {
        let doc = JsonValue::parse(&valid_report_json()).unwrap();
        let summary = validate_trace(&doc).unwrap();
        assert_eq!(summary.snapshots, 1);
        assert_eq!(summary.spans, 1);
        assert_eq!(summary.sigma_evals, 10);
        assert_eq!(summary.vertices, Some(4));
    }

    #[test]
    fn rejects_wrong_version() {
        let doc =
            JsonValue::parse(&valid_report_json().replace("\"version\": 1", "\"version\": 2"))
                .unwrap();
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn rejects_histogram_not_summing_to_vertices() {
        let text = valid_report_json().replace("[2, 0, 0, 0, 0, 0, 2]", "[2, 0, 0, 0, 0, 0, 1]");
        let doc = JsonValue::parse(&text).unwrap();
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("sums to 3"), "{err}");
    }

    #[test]
    fn rejects_unknown_phase() {
        let text = valid_report_json().replace("\"phase\": \"summarize\"", "\"phase\": \"warp\"");
        let doc = JsonValue::parse(&text).unwrap();
        let err = validate_trace(&doc).unwrap_err();
        assert!(err.contains("unknown phase"), "{err}");
    }

    #[test]
    fn rejects_missing_counter() {
        let text = valid_report_json().replace("\"sigma_evals\"", "\"sigma_evils\"");
        let doc = JsonValue::parse(&text).unwrap();
        let err = validate_trace(&doc).unwrap_err();
        assert!(
            err.contains("sigma_evals") || err.contains("sigma_evils"),
            "{err}"
        );
    }
}
