//! Metric definitions, the metric-name grammar, and the result line.

use atrapos_core::LatencyHistogram;
use std::collections::BTreeMap;

/// The end-to-end metrics (untraced runs), as (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("host_txns_per_ref_s", "txn/ref_s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_ktps", "ktxn/s"),
    ("sim_p50_latency_us", "us"),
    ("sim_p99_latency_us", "us"),
];

/// Designs whose `execute` is timed separately, as metric-name segments
/// of their `SystemDesign::name`.
pub const DESIGNS: &[&str] = &["centralized", "shared_nothing_per_socket", "plp", "atrapos"];

/// The per-layer metrics (traced runs), as (name, unit).  The per-design
/// execute times and the seven breakdown components are spelled out so
/// the list reads like `BENCHMARK.json`.  `sim_failed_pct` is here rather
/// than end to end because nothing fails on two of the three workloads,
/// and a metric that reads 0 has no relative bound.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.executor.txns", "count"),
    ("workloads.draw_ns", "ns"),
    ("workloads.draw_share_pct", "%"),
    ("engine.executor.self_ns_per_txn", "ns"),
    ("engine.executor.self_share_pct", "%"),
    ("engine.designs.execute_ns.centralized", "ns"),
    ("engine.designs.execute_ns.shared_nothing_per_socket", "ns"),
    ("engine.designs.execute_ns.plp", "ns"),
    ("engine.designs.execute_ns.atrapos", "ns"),
    ("engine.designs.execute_share_pct", "%"),
    ("core.controller.calls", "count"),
    ("core.controller.on_interval_ms", "ms"),
    ("core.controller.share_pct", "%"),
    ("core.controller.repartitions", "count"),
    ("core.controller.pause_ms", "ms"),
    ("workloads.new_s", "s"),
    ("engine.designs.build_s", "s"),
    ("workloads.populate_s", "s"),
    ("numa.breakdown.xct_management_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.xct_execution_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.communication_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.locking_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.latching_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.logging_cycles_per_txn", "cycles/txn"),
    ("numa.breakdown.monitoring_cycles_per_txn", "cycles/txn"),
    ("numa.waits_per_txn", "waits/txn"),
    ("numa.qpi_imc_ratio", "ratio"),
    ("numa.ipc", "instr/cycle"),
    ("engine.designs.distributed_pct", "%"),
    ("engine.designs.aborted", "count"),
    ("engine.executor.queue_depth_max", "count"),
    ("engine.executor.rejected", "count"),
    ("sim_failed_pct", "%"),
    ("trace.unexplained_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// Metric names: 1–64 letters, digits, `_`, `.` and `-`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Units: 1–16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let b = unit.as_bytes();
    !b.is_empty()
        && b.len() <= 16
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// The `p` quantile of `values` (`0 ≤ p ≤ 1`), interpolated linearly
/// between the closest ranks; 0 for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (rank - lo as f64) * (v[hi] - v[lo])
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The value at quantile `q` of a log-bucketed histogram, interpolated
/// linearly inside the bucket that holds rank `q·n`.  Reading the bucket
/// bound instead would quantize the result to ≈3% steps that hide real
/// differences between seeds.
pub fn quantile(hist: &LatencyHistogram, q: f64) -> f64 {
    let target = q.clamp(0.0, 1.0) * hist.count() as f64;
    let mut below = 0u64;
    for (low, high, n) in hist.nonzero_buckets() {
        if (below + n) as f64 >= target {
            let frac = ((target - below as f64) / n as f64).clamp(0.0, 1.0);
            return low as f64 + frac * (high - low + 1) as f64;
        }
        below += n;
    }
    hist.max_bound() as f64
}

/// Check `values` against a definition list: every defined metric has a
/// finite value, and nothing undefined is present.
pub fn check_complete(defs: &[(&str, &str)], values: &BTreeMap<String, f64>) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in defs {
        if !valid_name(name) || !valid_unit(unit) {
            problems.push(format!("metric '{name}' or its unit '{unit}' is malformed"));
        }
        match values.get(*name) {
            None => problems.push(format!("metric '{name}' was not computed")),
            Some(v) if !v.is_finite() => problems.push(format!("metric '{name}' is {v}")),
            Some(_) => {}
        }
    }
    for name in values.keys() {
        if !defs.iter().any(|(n, _)| n == name) {
            problems.push(format!("metric '{name}' is not defined"));
        }
    }
    problems
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every defined metric with its unit.  Non-finite values (already
/// reported as failures) print as 0 to keep the line valid JSON.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|(name, unit)| {
            let v = values.get(*name).copied().filter(|v| v.is_finite());
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                v.unwrap_or(0.0)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in ["setup_s", "numa.ipc", "a-b.c_d", "9lives", &"x".repeat(64)] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "-x", "a b", "a/b", "p99%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_unit("txn/s") && valid_unit("%") && valid_unit("cycles/txn"));
        assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn defined_names_follow_the_grammar_and_are_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "a metric name is defined twice");
        for d in DESIGNS {
            let name = format!("engine.designs.execute_ns.{d}");
            assert!(all.contains(&name.as_str()), "{name}");
        }
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.25), 2.0);
        assert_eq!(percentile(&[4.0, 1.0, 3.0, 2.0], 0.25), 1.75);
        assert_eq!(percentile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn quantile_interpolates_inside_exact_buckets() {
        // Values below 64 sit in one-value buckets: quantiles are exact
        // up to the in-bucket interpolation.
        let mut h = LatencyHistogram::new();
        for v in 1..=10 {
            h.record(v);
        }
        assert_eq!(quantile(&h, 0.5), 5.0 + 1.0);
        assert_eq!(quantile(&h, 1.0), 11.0);
        let p = quantile(&h, 0.55);
        assert!(p > 6.0 && p < 7.0, "{p}");
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let defs = [("a_s", "s"), ("b", "count")];
        let mut v = BTreeMap::new();
        v.insert("a_s".to_string(), 0.25);
        v.insert("b".to_string(), 3.0);
        assert!(check_complete(&defs, &v).is_empty());
        let line = result_line(true, 4, 0, &defs, &v);
        let parsed = serde::json::parse(&line).expect("valid JSON");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"b\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
        assert!(parsed.get("metrics").and_then(|m| m.get("b")).is_some());
        v.insert("c".to_string(), f64::NAN);
        assert_eq!(check_complete(&defs, &v).len(), 1);
    }
}
