//! The run's result: metrics by name and unit, operations attempted and
//! failed, and whether every answer check passed. The last line of
//! standard output is the result as one JSON object.

use restore_util::json::escape;

use crate::stats;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
/// Every untraced run of every workload reports all of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("latency_p50_ms", "ms"),
    ("latency_slowest_query_ms", "ms"),
    ("cpu_ms_per_query", "ms"),
    ("peak_rss_mb", "MiB"),
    ("rel_error", "ratio"),
    ("snapshot_mb", "MiB"),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub check_errors: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn put(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    /// Puts `latency_p50_ms` and `latency_slowest_query_ms` (ms), and
    /// notes the plain sample p50 and p97.5. `by_query` holds the samples
    /// split by the query of the cycle they belong to.
    ///
    /// Latencies cluster by query, so both end-to-end figures are taken
    /// over each query's median latency. The p50 is the median over the
    /// cycle's queries: the plain sample median of a 20-query cycle sits
    /// on the edge between the 10th and 11th query's clusters and jumps
    /// with noise (15–19.5 ms over three cold runs whose per-query medians
    /// moved under 1 ms). The tail is the slowest query's median: a sample
    /// tail of 2 ms requests on a shared VM is set by how often the host
    /// stalls the guest (warm p97.5 moved 4.5–13.1 ms over ten runs whose
    /// per-query medians held within 10 %).
    pub fn put_latencies(&mut self, samples: &[f64], by_query: &[Vec<f64>]) -> Result<(), String> {
        let per_query: Vec<f64> = by_query
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| stats::median(v))
            .collect();
        let p50 = stats::resolved_percentile(&per_query, 0.5).ok_or("no latency samples")?;
        let slowest = per_query.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        self.put("latency_p50_ms", "ms", p50);
        self.put("latency_slowest_query_ms", "ms", slowest);
        let tail = stats::resolved_percentile(samples, stats::TAIL)
            .map_or("unresolved".to_string(), |t| format!("{t:.3} ms"));
        self.note(format!(
            "latency over {} samples: p50 {:.3} ms, p{} {tail}",
            samples.len(),
            stats::median(samples),
            stats::TAIL * 100.0
        ));
        Ok(())
    }

    /// Takes over the run's operation counts, failures and failed checks.
    pub fn finish(&mut self, tally: crate::workload::Tally) {
        self.attempted = tally.attempted;
        self.failed = tally.failed;
        self.notes
            .extend(tally.failures.into_iter().map(|f| format!("failed: {f}")));
        self.check_errors = tally.check_errors;
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Fails unless the metrics are exactly `expected`, by name and unit.
    pub fn check_metric_set(&self, expected: &[(&str, &str)]) -> Result<(), String> {
        let mut got: Vec<(&str, &str)> = self.metrics.iter().map(|m| (m.name, m.unit)).collect();
        let mut want = expected.to_vec();
        got.sort_unstable();
        want.sort_unstable();
        if got == want {
            Ok(())
        } else {
            Err(format!("metric set {got:?} differs from {want:?}"))
        }
    }

    pub fn correct(&self) -> bool {
        self.check_errors.is_empty()
    }

    /// The result line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // Non-finite values are not JSON; they can only come from a
                // broken measurement, which the result then shows as null.
                let value = if m.value.is_finite() {
                    format!("{}", m.value)
                } else {
                    "null".to_string()
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    escape(m.name),
                    escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Host context printed with every run.
pub fn host_context() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: nproc={nproc} simd_lanes={} target_feature={} profile={}",
        restore_nn::lane::WIDTH,
        restore_nn::lane::TARGET_FEATURE,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::PER_LAYER;
    use restore_util::json::{parse, JsonValue};

    /// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
        let doc = parse(&text).expect("BENCHMARK.json is JSON");
        doc.get(section)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| {
                    m.get(k)
                        .and_then(JsonValue::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), own(&END_TO_END));
        assert_eq!(declared("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn latencies_are_taken_over_per_query_medians() {
        // 20 queries, 20 samples each: query q answers in q ms ± 0.4.
        let by_query: Vec<Vec<f64>> = (1..=20)
            .map(|q| {
                (0..20)
                    .map(|i| q as f64 + (i % 5) as f64 * 0.2 - 0.4)
                    .collect()
            })
            .collect();
        let samples: Vec<f64> = by_query.iter().flatten().copied().collect();
        let mut o = Outcome::default();
        o.put_latencies(&samples, &by_query).unwrap();
        // Median of the per-query medians (10 and 11 ms); slowest query 20.
        assert!((o.metrics[0].value - 10.5).abs() < 1e-9);
        assert!((o.metrics[1].value - 20.0).abs() < 1e-9);
        // A stall on every tenth request moves the sample tail, not these.
        let stalled: Vec<Vec<f64>> = by_query
            .iter()
            .map(|v| {
                v.iter()
                    .enumerate()
                    .map(|(i, x)| if i % 10 == 0 { x + 15.0 } else { *x })
                    .collect()
            })
            .collect();
        let mut s = Outcome::default();
        s.put_latencies(&stalled.concat(), &stalled).unwrap();
        // Each query's median moves by 0.1 ms; its p97.5 would move 15 ms.
        assert!((s.metrics[0].value - 10.6).abs() < 1e-9);
        assert!((s.metrics[1].value - 20.1).abs() < 1e-9);
        assert!(Outcome::default().put_latencies(&[], &[]).is_err());
    }

    #[test]
    fn result_line_is_one_json_object() {
        let mut o = Outcome {
            attempted: 20,
            ..Outcome::default()
        };
        o.put("latency_p50_ms", "ms", 1.25);
        o.put("broken", "ms", f64::NAN);
        let doc = restore_util::json::parse(&o.json()).expect("valid JSON");
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(20.0));
        assert_eq!(
            doc.get("metrics")
                .and_then(|m| m.get("latency_p50_ms"))
                .and_then(|m| m.get("value"))
                .and_then(|v| v.as_f64()),
            Some(1.25)
        );
        assert!(o.correct());
        assert!(o
            .check_metric_set(&[("latency_p50_ms", "ms"), ("broken", "ms")])
            .is_ok());
        assert!(o.check_metric_set(&END_TO_END).is_err());
        o.check_errors.push("x".into());
        assert!(o.json().starts_with("{\"correct\":false"));
    }
}
