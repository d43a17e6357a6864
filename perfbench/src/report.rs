//! The metric catalogue and the result line.

use std::time::Duration;

use crate::common::{median, percentile, Metrics, OP_KINDS};

/// Latencies of one measured phase.
#[derive(Default)]
pub struct Phase {
    pub lat_ms: Vec<f64>,
}

impl Phase {
    pub fn record(&mut self, lat: Duration) {
        self.lat_ms.push(lat.as_secs_f64() * 1e3);
    }

    /// `ops_per_s`, `p50_ms` and `p95_ms` of a closed-loop phase whose
    /// operations repeat with period `round`. Each is the median over
    /// [`WINDOWS`] consecutive windows of whole rounds, so a burst of
    /// load from outside the benchmark moves at most a few windows.
    pub fn end_to_end(&self, round: usize, metrics: &mut Metrics) {
        let throughput = |w: &[f64]| w.len() as f64 / (w.iter().sum::<f64>() / 1e3);
        metrics.set("ops_per_s", self.windowed(round, throughput), "1/s");
        self.latency_percentiles(round, metrics);
    }

    /// `p50_ms` and `p95_ms`, as medians over windows (see
    /// [`Phase::end_to_end`]).
    pub fn latency_percentiles(&self, round: usize, metrics: &mut Metrics) {
        metrics.set("p50_ms", self.windowed(round, |w| percentile(w, 0.50)), "ms");
        metrics.set("p95_ms", self.windowed(round, |w| percentile(w, 0.95)), "ms");
    }

    /// The median of `f` over [`WINDOWS`] consecutive windows of
    /// latencies, each a whole number of rounds; a short phase forms
    /// fewer windows of one round.
    pub fn windowed(&self, round: usize, f: impl Fn(&[f64]) -> f64) -> f64 {
        let rounds = self.lat_ms.len() / round;
        let size = (rounds / WINDOWS).max(1) * round;
        let per_window: Vec<f64> = self.lat_ms.chunks_exact(size).map(&f).collect();
        if per_window.is_empty() {
            f(&self.lat_ms)
        } else {
            median(&per_window)
        }
    }
}

/// Windows per run for the end-to-end medians.
pub const WINDOWS: usize = 8;

/// Every end-to-end metric with its unit. Each workload reports all of
/// them; `p50_ms`, `p95_ms` and `ops_per_s` measure the workload's own
/// operation (see README.md).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("ok_ratio", "fraction"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p95_ms", "ms"),
];

/// The Figure 8 query names.
pub const QUERIES: [&str; 5] = ["Q1", "Q2", "Q3", "Q4", "Q4r"];

/// The wire request kinds.
pub const WIRE_KINDS: [&str; 3] = ["exec_prepared", "sql", "publish"];

/// The published views.
pub const VIEWS: [&str; 2] = ["supplier_parts", "customer_orders"];

/// Every per-layer metric with its unit. A traced run reports all of
/// them; a layer the workload's operations never enter reports 0.
pub fn per_layer_catalogue() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("sql.compile_us".into(), "us"),
        ("optimizer.optimize_us".into(), "us"),
        ("server.plan_cache.hit_ratio".into(), "fraction"),
        ("server.session_overhead_pct".into(), "%"),
        ("server.pool.shed".into(), "count"),
        ("obs.metrics_overhead_pct".into(), "%"),
        ("engine.rows_hashed".into(), "count"),
        ("engine.join_probes".into(), "count"),
        ("engine.rows_sorted".into(), "count"),
        ("engine.groups_processed".into(), "count"),
        ("engine.pgq_executions".into(), "count"),
        ("publish.exec_ms".into(), "ms"),
        ("xml.tag_ms".into(), "ms"),
        ("xml.tag_mb_per_s".into(), "MB/s"),
        ("delta.apply_us".into(), "us"),
        ("delta.propagate_us".into(), "us"),
        ("incremental.retag_us".into(), "us"),
        ("incremental.splice_us".into(), "us"),
        ("incremental.hit_ratio".into(), "fraction"),
        ("incremental.dirty_groups".into(), "count"),
        ("incremental.spliced_groups".into(), "count"),
        ("net.decode_mb_per_s".into(), "MB/s"),
        ("loadgen.late_frac".into(), "fraction"),
        ("loadgen.max_late_ms".into(), "ms"),
        ("loadgen.open_p50_ms".into(), "ms"),
        ("loadgen.open_p95_ms".into(), "ms"),
        ("bench.trace_overhead_pct".into(), "%"),
        ("bench.layer_coverage_pct".into(), "%"),
    ];
    for q in QUERIES {
        out.push((format!("engine.exec_ms.{q}.classic"), "ms"));
        out.push((format!("engine.exec_ms.{q}.gapply"), "ms"));
        out.push((format!("fig8.speedup.{q}"), "ratio"));
    }
    for k in OP_KINDS {
        out.push((format!("engine.op_self_ms.{k}"), "ms"));
    }
    for v in VIEWS {
        out.push((format!("xml.doc_bytes.{v}"), "bytes"));
    }
    for k in WIRE_KINDS {
        out.push((format!("net.overhead_us.{k}"), "us"));
        out.push((format!("net.response_bytes.{k}"), "bytes"));
    }
    out
}

/// Fill in every catalogued metric the workload did not measure with 0,
/// and refuse names outside the catalogue.
pub fn complete(measured: Metrics, catalogue: &[(String, &'static str)]) -> Metrics {
    let mut out = Metrics::default();
    for (name, unit) in catalogue {
        out.set(name.clone(), measured.get(name).unwrap_or(0.0), unit);
    }
    for (name, _) in measured.iter() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is missing from the catalogue"
        );
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The result line: `correct`, `attempted`, `failed` and `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
