//! The per-layer metrics of the traced run, by name and unit. A traced
//! run reports every one of them; a layer the workload's path does not
//! go through reads 0 (the README lists which apply where).

use std::collections::BTreeMap;

use crate::replay::{self, ReplayOut};
use crate::report::Outcome;
use crate::tenants::BuildStats;
use crate::trace::Recorder;

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("restore-data.generate_ms", "ms"),
    ("restore-core.model.train_s", "s"),
    ("restore-core.model.models_trained", "count"),
    ("restore-core.model.parameters", "count"),
    ("restore-core.persist.save_ms", "ms"),
    ("restore-core.persist.load_ms", "ms"),
    ("restore-serve.store.boot_ms", "ms"),
    ("restore-core.completion.complete_ms", "ms"),
    ("restore-core.completion.tuples_per_s", "tuples/s"),
    ("restore-nn.sweep.tuples_per_s", "tuples/s"),
    ("restore-nn.sweep.gmac_per_completion", "GMAC"),
    ("restore-core.cache.hit_ratio", "ratio"),
    ("restore-core.cache.evictions", "count"),
    ("restore-core.confidence.ci_ms", "ms"),
    ("restore-core.snapshot.assemble_ms", "ms"),
    ("restore-db.execute_ms", "ms"),
    ("restore-db.rows_in", "rows"),
    ("restore-core.wire.decode_us", "us"),
    ("restore-core.wire.encode_us", "us"),
    ("restore-serve.http.parse_us", "us"),
    ("restore-serve.http.encode_us", "us"),
    ("restore-serve.server.overhead_ms", "ms"),
    ("restore-serve.event_loop.wakeups_per_query", "count"),
    ("restore-serve.server.rejected", "count"),
    ("restore-serve.router.forward_ms", "ms"),
    ("restore-serve.router.pool_reuse_ratio", "ratio"),
    ("restore-serve.router.retries", "count"),
    ("restore-core.rebuild.retrain_s", "s"),
    ("restore-serve.rebuild.publish_s", "s"),
    ("bench.tracing_overhead_ms", "ms"),
];

/// Per-layer values a traced run measured, by name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The build's own counters (summed over the ten tenants) and the
    /// benchmark's load of every snapshot file.
    pub fn build(&mut self, build: &BuildStats, load_s: f64) {
        self.set("restore-data.generate_ms", build.generate_ms);
        self.set("restore-core.model.train_s", build.train_s);
        self.set(
            "restore-core.model.models_trained",
            build.models_trained as f64,
        );
        self.set("restore-core.model.parameters", build.parameters as f64);
        self.set("restore-core.persist.save_ms", build.save_ms);
        self.set("restore-core.persist.load_ms", load_s * 1e3);
    }

    /// Self times of the replayed requests, per request, and the
    /// completion and sweep throughputs.
    pub fn replay(&mut self, r: &ReplayOut, sweep_tuples_per_s: f64) {
        let ms = |span| replay::per_request(r, span, 1e3);
        let us = |span| replay::per_request(r, span, 1e6);
        self.set(
            "restore-core.completion.complete_ms",
            ms("restore-core.completion.complete"),
        );
        self.set(
            "restore-core.completion.tuples_per_s",
            if r.completion_s > 0.0 {
                r.synthesized / r.completion_s
            } else {
                0.0
            },
        );
        self.set("restore-nn.sweep.tuples_per_s", sweep_tuples_per_s);
        self.set(
            "restore-nn.sweep.gmac_per_completion",
            if r.completions > 0 {
                r.gmac / r.completions as f64
            } else {
                0.0
            },
        );
        let ci_s = r
            .self_s
            .get("restore-core.confidence.ci")
            .copied()
            .unwrap_or(0.0);
        self.set(
            "restore-core.confidence.ci_ms",
            if r.ci_requests > 0 {
                ci_s * 1e3 / r.ci_requests as f64
            } else {
                0.0
            },
        );
        self.set(
            "restore-core.snapshot.assemble_ms",
            ms("restore-core.snapshot.assemble"),
        );
        self.set("restore-db.execute_ms", ms("restore-db.execute"));
        self.set("restore-db.rows_in", r.rows_in / r.requests.max(1) as f64);
        self.set(
            "restore-core.wire.decode_us",
            us("restore-core.wire.decode"),
        );
        self.set(
            "restore-core.wire.encode_us",
            us("restore-core.wire.encode"),
        );
        self.set(
            "restore-serve.http.parse_us",
            us("restore-serve.http.parse"),
        );
        self.set(
            "restore-serve.http.encode_us",
            us("restore-serve.http.encode"),
        );
    }

    /// Puts every per-layer metric into the result, 0 where not measured.
    pub fn emit(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.put(name, unit, self.0.get(name).copied().unwrap_or(0.0));
        }
    }
}

/// Writes the run's spans to `.bench_out/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(
    rec: &Recorder,
    workload: &str,
    seed: u64,
) -> Result<std::path::PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-{seed}.jsonl"));
    let file =
        std::fs::File::create(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut writer = std::io::BufWriter::new(file);
    rec.write_jsonl(&mut writer).map_err(|e| e.to_string())?;
    std::io::Write::flush(&mut writer).map_err(|e| e.to_string())?;
    Ok(path)
}
