//! Metric names, units and the result line.
//!
//! The two lists below are the contract with `BENCHMARK.json`: a run with
//! tracing off reports exactly [`END_TO_END`], a traced run exactly
//! [`PER_LAYER`]. A test checks the lists against the JSON file.

use std::collections::BTreeMap;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("train_s", "s"),
    ("predict_qps", "1/s"),
    ("test_accuracy", "fraction"),
    ("peak_rss_mb", "MB"),
    ("artifact_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run; a layer
/// the workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("datasets.generate_s", "s"),
    ("clustering.cluster_s", "s"),
    ("clustering.leaves", "count"),
    ("clustering.depth", "count"),
    ("kernel.sample_s", "s"),
    ("kernel.sample_cols", "count"),
    ("kernel.sample_evals_per_s", "1/s"),
    ("kernel.block_entries", "count"),
    ("kernel.matvec_s", "s"),
    ("kernel.matvec_calls", "count"),
    ("kernel.assemble_s", "s"),
    ("hss.compress_s", "s"),
    ("hss.compress_self_s", "s"),
    ("hss.samples_used", "count"),
    ("hss.restarts", "count"),
    ("hss.sample_useful_frac", "fraction"),
    ("hss.max_rank", "count"),
    ("hss.matrix_mb", "MB"),
    ("hss.factor_mb", "MB"),
    ("hss.ulv_factor_s", "s"),
    ("hss.ulv_solve_s", "s"),
    ("hss.precond_apply_s", "s"),
    ("hss.precond_applies", "count"),
    ("linalg.cholesky_s", "s"),
    ("linalg.cholesky_gflops", "GFLOP/s"),
    ("linalg.chol_solve_s", "s"),
    ("linalg.pcg_s", "s"),
    ("linalg.pcg_self_s", "s"),
    ("linalg.pcg_iters", "count"),
    ("core.predict_s", "s"),
    ("core.predict_us_per_point", "us"),
    ("serve.encode_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.start_s", "s"),
    ("serve.engine_mean_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.mean_batch", "count"),
    ("serve.batch_compute_us", "us"),
    ("serve.queue_rejections", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.open_p50_ms", "ms"),
    ("serve.open_p99_ms", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
    ("trace.replay_identical", "count"),
    ("trace.spans", "count"),
];

/// Metric values of one run, keyed by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` under `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the metrics listed in `spec` as the JSON `metrics` object.
    ///
    /// # Errors
    /// Returns the names of listed metrics that were not recorded or are
    /// not finite.
    pub fn render(&self, spec: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(spec.len());
        let mut bad = Vec::new();
        for &(name, unit) in spec {
            match self.get(name) {
                Some(v) if v.is_finite() => parts.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                )),
                _ => bad.push(name),
            }
        }
        if bad.is_empty() {
            Ok(format!("{{{}}}", parts.join(", ")))
        } else {
            Err(format!("metrics missing or not finite: {}", bad.join(", ")))
        }
    }
}

/// The result line: the last line a run prints on standard output.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_requires_every_listed_metric() {
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert_eq!(
            m.render(&[("a", "s")]).unwrap(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"s\"}}"
        );
        assert!(m.render(&[("a", "s"), ("b", "s")]).is_err());
        m.set("a", f64::NAN);
        assert!(m.render(&[("a", "s")]).is_err());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    /// `BENCHMARK.json` at the repository root lists the same metrics with
    /// the same units.
    #[test]
    fn benchmark_json_lists_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
