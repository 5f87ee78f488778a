//! `table1_build`: the paper's offline path. Generate, train the candidate
//! models of both queries of each setup, seal and save the ten tenants,
//! then answer all 20 queries cold in process and score them against the
//! complete database.

use std::time::Instant;

use restore_core::wire;
use restore_core::Snapshot;

use crate::layers::{write_spans, Layers};
use crate::procfs;
use crate::replay::{self, Source};
use crate::report::Outcome;
use crate::stats;
use crate::tenants::{self, snapshot_path};
use crate::workload::{self, Tally, WorkDir, Workload};

/// Cache budget of the offline build's snapshots (the default 1 GiB).
const BUDGET: usize = 1 << 30;

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let work = WorkDir::new(Workload::Build, seed)?;
    let dir = work.0.join("snapshots");
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    let started = Instant::now();
    let (tenants, stats_by_tenant) = tenants::build_all(seed, BUDGET, &dir)?;
    let setup_s = started.elapsed().as_secs_f64();
    let mut build = tenants::BuildStats::default();
    for st in &stats_by_tenant {
        build.add(st);
    }
    tally.attempted += tenants.iter().map(|t| t.queries.len() as u64).sum::<u64>();
    tally.failed += build.train_errors as u64;

    let cycle = workload::query_cycle(&tenants, false);
    let expected = workload::expect_cycle(&tenants, &cycle, &dir, |_| 1)?;
    let rel_error = workload::score(&expected.iter().collect::<Vec<_>>(), &mut tally);

    // Cold answers: every answer runs on a freshly loaded snapshot, so its
    // completion cache is empty. Whole passes over the 20 queries: twenty
    // give the 400 samples the tail percentile needs.
    let passes = (2 * seconds as usize).max(20);
    let mut latencies = Vec::new();
    let mut by_position = vec![Vec::new(); cycle.len()];
    let mut cpu_s = 0.0;
    for _ in 0..passes {
        for (pos, (req, exp)) in cycle.iter().zip(&expected).enumerate() {
            let path = snapshot_path(&dir, &req.tenant_name, 1);
            let snapshot =
                Snapshot::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
            tally.attempted += 1;
            let cpu0 = procfs::own_cpu_s();
            let t0 = Instant::now();
            let result = snapshot.execute(&req.query, req.seed);
            let wall = t0.elapsed().as_secs_f64();
            cpu_s += procfs::own_cpu_s() - cpu0;
            match result {
                Ok(r) => {
                    latencies.push(wall * 1e3);
                    by_position[pos].push(wall * 1e3);
                    let body = wire::query_response_json(&r, None);
                    if let Err(e) = crate::checks::identical(&body, &exp.body) {
                        tally.fail_check(format!("(a) {} {}: {e}", req.tenant_name, req.query_id));
                    }
                }
                Err(e) => {
                    tally.failed += 1;
                    tally.note_failure(format!("{} {}: {e}", req.tenant_name, req.query_id));
                }
            }
        }
    }
    let answered = latencies.len().max(1) as f64;

    if trace {
        traced(&mut out, seed, &cycle, &expected, &dir, &build)?;
    } else {
        out.put("setup_s", "s", setup_s);
        out.put(
            "throughput_qps",
            "queries/s",
            answered / (latencies.iter().sum::<f64>() / 1e3).max(1e-12),
        );
        out.put_latencies(&latencies, &by_position)?;
        out.put("cpu_ms_per_query", "ms", cpu_s * 1e3 / answered);
        out.put(
            "peak_rss_mb",
            "MiB",
            procfs::peak_rss_mib(std::process::id()).ok_or("no VmHWM for this process")?,
        );
        out.put("rel_error", "ratio", rel_error);
        out.put(
            "snapshot_mb",
            "MiB",
            build.snapshot_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    out.note(format!(
        "table1_build: setup {setup_s:.2} s (train {:.2} s, {} models, {} parameters), {} cold answers, rel_error {:.4}",
        build.train_s,
        build.models_trained,
        build.parameters,
        latencies.len(),
        rel_error
    ));
    out.finish(tally);
    Ok(out)
}

/// Per-layer metrics of the offline path: the build's own counters plus an
/// in-process replay of the cold answer pass with spans.
fn traced(
    out: &mut Outcome,
    seed: u64,
    cycle: &[workload::Req],
    expected: &[workload::Expected],
    dir: &std::path::Path,
    build: &tenants::BuildStats,
) -> Result<(), String> {
    let chains = replay::discover_chains(cycle, dir, &|_| 1)?;
    let bodies: Vec<String> = expected.iter().map(|e| e.body.clone()).collect();
    let (registry, load_s) = replay::load_registry(cycle, dir, &|_| 1)?;
    let sweep = replay::sweep_tuples_per_s(&registry, cycle, &chains)?;
    drop(registry);

    let (mut traced_load, mut untraced_load) = (0.0, 0.0);
    let (r, base, rec) = replay::replay(
        Source::FreshLoad {
            dir,
            load_s: &mut traced_load,
        },
        Source::FreshLoad {
            dir,
            load_s: &mut untraced_load,
        },
        cycle,
        &chains,
        &bodies,
        0,
        2,
    )?;
    if r.body_mismatches + base.body_mismatches > 0 {
        return Err("replayed answers differ from Snapshot::execute".into());
    }
    let mut layers = Layers::default();
    layers.build(build, load_s);
    layers.replay(&r, sweep);
    // Every answer of this pass runs on an empty completion cache.
    layers.set("restore-core.cache.hit_ratio", 0.0);
    layers.set(
        "bench.tracing_overhead_ms",
        stats::median(&r.latencies_ms) - stats::median(&base.latencies_ms),
    );
    layers.emit(out);
    let spans = write_spans(&rec, Workload::Build.name(), seed)?;
    out.note(format!("spans: {}", spans.display()));
    Ok(())
}
