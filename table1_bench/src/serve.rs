//! `serve_warm` and `serve_cold`: the 20 queries over HTTP to one
//! `shard_router --worker` booted from a fresh copy of the run's snapshot
//! files. Warm serving caches every completion in a warm-up pass; cold
//! serving boots snapshots whose completion-cache budget is smaller than
//! one completion and adds §6 intervals to the scalar queries.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use restore_db::{Agg, Query};
use restore_serve::HttpClient;
use restore_util::json::JsonValue;

use crate::child::{self, ServerProc};
use crate::layers::{write_spans, Layers};
use crate::procfs;
use crate::replay::{self, Source};
use crate::report::Outcome;
use crate::stats;
use crate::tenants::{self, BuildStats, Tenant};
use crate::workload::{self, Expected, Req, Sent, Tally, WorkDir, Workload};

/// Cache budget of the warm snapshots (the default 1 GiB).
pub const WARM_BUDGET: usize = 1 << 30;
/// Cache budget of the cold snapshots: one byte, below any completion, so
/// each tenant keeps only its most recent completion resident.
pub const COLD_BUDGET: usize = 1;
/// Server boots timed per run; `setup_s` is their median.
pub const BOOTS: usize = 5;
/// Request-execution threads of the serving worker: one client connection
/// keeps at most one request in flight, and more threads only add
/// hand-offs between them (measured: 286–363 q/s warm with 4, 379–403 with
/// 1, same seed, same box).
pub const SERVER_THREADS: usize = 1;
/// Threads that build the serving workloads' snapshot files (not timed).
pub const BUILD_THREADS: usize = 2;

/// `GET path` returning the parsed JSON document.
pub fn get_json(client: &mut HttpClient, path: &str) -> Result<JsonValue, String> {
    match client.get(path) {
        Ok((200, body)) => {
            restore_util::json::parse(&body).ok_or_else(|| format!("GET {path}: not JSON"))
        }
        Ok((status, body)) => Err(format!("GET {path}: HTTP {status}: {body}")),
        Err(e) => Err(format!("GET {path}: {e}")),
    }
}

/// The number at `keys` in a `/metrics` document (0 when absent).
pub fn num(doc: &JsonValue, keys: &[&str]) -> f64 {
    let mut v = Some(doc);
    for k in keys {
        v = v.and_then(|x| x.get(k));
    }
    v.and_then(|x| x.as_f64()).unwrap_or(0.0)
}

/// A query every tenant answers without completion work: `COUNT(*)` over
/// a table the setup left complete, or `None` if it left none.
fn ping_body(tenant: &Tenant) -> Option<String> {
    let table = tenant
        .scenario
        .incomplete
        .table_names()
        .find(|t| !tenant.scenario.incomplete_tables.iter().any(|i| i == t))?
        .to_string();
    let query = Query::new([table]).aggregate(Agg::CountStar);
    Some(restore_core::QueryRequest::new(query, 0).to_json())
}

/// Waits until the server answers for every tenant: its health check
/// passes and each tenant answers a query on one of its complete tables.
pub fn wait_ready(server: &ServerProc, tenants: &[Tenant]) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut client = loop {
        match server.connect() {
            Ok(c) => break c,
            Err(e) if Instant::now() > deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    };
    loop {
        let health = get_json(&mut client, "/healthz")?;
        let ok = health.get("status").and_then(|s| s.as_str()) == Some("ok");
        let tenants_up = match health.get("tenants").and_then(|t| t.as_array()) {
            Some(list) => list.len() >= tenants.len(),
            None => true, // a router reports its fleet, not tenants
        };
        if ok && tenants_up {
            break;
        }
        if Instant::now() > deadline {
            return Err(format!("server not healthy: {health:?}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for tenant in tenants {
        if let Some(body) = ping_body(tenant) {
            match client.post(&format!("/v1/{}/query", tenant.name), &body) {
                Ok((200, _)) => {}
                Ok((status, body)) => {
                    return Err(format!("ping {}: HTTP {status}: {body}", tenant.name))
                }
                Err(e) => return Err(format!("ping {}: {e}", tenant.name)),
            }
        }
    }
    Ok(())
}

/// Boots `BOOTS` servers one after another with `spawn`, timing each from
/// the spawn until every tenant answers; keeps the last one running.
pub fn timed_boots(
    tenants: &[Tenant],
    spawn: impl Fn() -> Result<ServerProc, String>,
) -> Result<(ServerProc, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let started = Instant::now();
        let server = spawn()?;
        wait_ready(&server, tenants)?;
        times.push(started.elapsed().as_secs_f64());
        if times.len() == BOOTS {
            return Ok((server, times));
        }
        server.stop()?;
    }
}

/// The measured phase cut into chunks of whole cycles: per chunk, the
/// queries completed per second and the server CPU per query. The phase's
/// throughput and CPU cost are the medians over its chunks, so a burst of
/// load from outside the benchmark moves one chunk, not the result.
pub struct Chunks {
    pids: Vec<u32>,
    started: Instant,
    cpu_ms: f64,
    requests: usize,
    pub qps: Vec<f64>,
    pub cpu_ms_per_query: Vec<f64>,
}

impl Chunks {
    pub fn start(pids: &[u32]) -> Self {
        Self {
            pids: pids.to_vec(),
            started: Instant::now(),
            cpu_ms: server_usage(pids).0,
            requests: 0,
            qps: Vec::new(),
            cpu_ms_per_query: Vec::new(),
        }
    }

    /// Ends the current chunk after `requests` more completed queries.
    pub fn cut(&mut self, requests: usize) {
        let (wall, cpu) = (
            self.started.elapsed().as_secs_f64(),
            server_usage(&self.pids).0,
        );
        if requests > 0 {
            self.qps.push(requests as f64 / wall);
            self.cpu_ms_per_query
                .push((cpu - self.cpu_ms) / requests as f64);
        }
        self.requests += requests;
        self.started = Instant::now();
        self.cpu_ms = cpu;
    }

    pub fn elapsed_since_cut(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }
}

/// Chunks a serving phase is cut into.
pub const CHUNKS: usize = 10;

/// CPU ms and summed peak RSS (MiB) of the server processes.
pub fn server_usage(pids: &[u32]) -> (f64, f64) {
    let cpu = pids.iter().filter_map(|&p| procfs::cpu_ms(p)).sum();
    let rss = pids.iter().filter_map(|&p| procfs::peak_rss_mib(p)).sum();
    (cpu, rss)
}

/// Closed-loop pass over whole cycles on one connection; checks every
/// answer against `expected` (a) and returns client latencies, ms.
pub fn run_cycles(
    client: &mut HttpClient,
    cycle: &[Req],
    expected: &[Expected],
    cycles: usize,
    tally: &mut Tally,
    by_position: Option<&mut Vec<Vec<f64>>>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(cycles * cycle.len());
    let mut by_position = by_position;
    for _ in 0..cycles {
        for (pos, (req, exp)) in cycle.iter().zip(expected).enumerate() {
            match workload::send(client, req, tally) {
                Sent::Ok { latency_s, body } => {
                    latencies.push(latency_s * 1e3);
                    if let Some(bp) = by_position.as_deref_mut() {
                        bp[pos].push(latency_s * 1e3);
                    }
                    if let Err(e) = crate::checks::identical(&body, &exp.body) {
                        tally.fail_check(format!("(a) {} {}: {e}", req.tenant_name, req.query_id));
                    }
                }
                Sent::Failed(e) => tally.note_failure(e),
            }
        }
    }
    latencies
}

/// Builds the run's snapshot files and returns the tenants with the
/// directory the server boots from: a fresh copy of the built files.
pub fn prepare(
    work: &WorkDir,
    seed: u64,
    budget: usize,
) -> Result<(Vec<Tenant>, BuildStats, PathBuf), String> {
    let built = work.0.join("built");
    let (tenants, per_tenant) = tenants::build_all_parallel(seed, budget, &built, BUILD_THREADS)?;
    let mut build = BuildStats::default();
    for st in &per_tenant {
        build.add(st);
    }
    let serve_dir = work.0.join("serve");
    child::copy_tree(&built, &serve_dir)?;
    Ok((tenants, build, serve_dir))
}

pub fn run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let cold = workload == Workload::ServeCold;
    let work = WorkDir::new(workload, seed)?;
    let mut tally = Tally::default();
    let (tenants, build, dir) = prepare(&work, seed, if cold { COLD_BUDGET } else { WARM_BUDGET })?;
    tally.attempted += tenants.iter().map(|t| t.queries.len() as u64).sum::<u64>();
    tally.failed += build.train_errors as u64;
    let cycle = workload::query_cycle(&tenants, cold);
    let expected = workload::expect_cycle(&tenants, &cycle, &dir, |_| 1)?;
    let rel_error = workload::score(&expected.iter().collect::<Vec<_>>(), &mut tally);
    // `CHUNKS` chunks of whole cycles, sized to take about `seconds` at
    // the nominal rate on a two-thread box (~300 q/s warm, ~36 q/s cold):
    // at least 20 cycles, the 400 samples the noted p97.5 needs.
    let per_chunk = if cold {
        (seconds as usize / 5).max(2)
    } else {
        (seconds as usize * 3 / 2).max(2)
    };

    let (server, boots) = timed_boots(&tenants, || ServerProc::worker(&dir, SERVER_THREADS))?;
    let pids = server.pids();
    let mut client = server.connect()?;
    let warm_up = run_cycles(&mut client, &cycle, &expected, 1, &mut tally, None);
    let before = get_json(&mut client, "/metrics")?;
    let mut by_position = vec![Vec::new(); cycle.len()];
    let started = Instant::now();
    let mut chunks = Chunks::start(&pids);
    let mut latencies = Vec::new();
    for _ in 0..CHUNKS {
        let done = run_cycles(
            &mut client,
            &cycle,
            &expected,
            per_chunk,
            &mut tally,
            Some(&mut by_position),
        );
        chunks.cut(done.len());
        latencies.extend(done);
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (_, rss) = server_usage(&pids);
    let after = get_json(&mut client, "/metrics")?;
    drop(client);
    server.stop()?;

    let delta = |keys: &[&str]| num(&after, keys) - num(&before, keys);
    let (hits, misses) = (delta(&["cache", "hits"]), delta(&["cache", "misses"]));
    let requests = latencies.len() as f64;
    // (e): warm serving never completes; cold serving completes on at
    // least a third of its requests.
    if !cold && misses != 0.0 {
        tally.fail_check(format!(
            "(e) serve_warm missed the completion cache {misses} times"
        ));
    }
    if cold && misses * 3.0 < requests {
        tally.fail_check(format!(
            "(e) serve_cold missed on only {misses} of {requests} requests"
        ));
    }
    let mut out = Outcome::default();
    out.note(format!(
        "{}: {} requests in {elapsed:.2} s after a {}-request warm-up, cache hits {hits} misses {misses}, boots {:?} s, chunk q/s {:?}",
        workload.name(),
        latencies.len(),
        warm_up.len(),
        boots.iter().map(|b| (b * 1e3).round() / 1e3).collect::<Vec<_>>(),
        chunks.qps.iter().map(|q| q.round()).collect::<Vec<_>>()
    ));
    let mut medians: Vec<f64> = by_position
        .iter()
        .map(|v| (stats::median(v) * 10.0).round() / 10.0)
        .collect();
    medians.sort_by(f64::total_cmp);
    out.note(format!(
        "{}: per-query median latency, sorted (ms): {medians:?}",
        workload.name()
    ));
    if trace {
        let mut layers = Layers::default();
        layers.set(
            "restore-serve.store.boot_ms",
            num(&after, &["persistence", "load_ms"]),
        );
        layers.set(
            "restore-core.cache.hit_ratio",
            hits / (hits + misses).max(1.0),
        );
        layers.set(
            "restore-core.cache.evictions",
            delta(&["cache", "evictions"]),
        );
        layers.set(
            "restore-serve.event_loop.wakeups_per_query",
            delta(&["event_loop", "epoll_wakeups"]) / requests.max(1.0),
        );
        layers.set(
            "restore-serve.server.rejected",
            delta(&["requests", "shed"]) + delta(&["requests", "deadline_exceeded"]),
        );
        traced_replay(
            &mut layers,
            &mut out,
            workload,
            seed,
            &build,
            &cycle,
            &expected,
            &dir,
            &|_| 1,
            &by_position,
        )?;
        layers.emit(&mut out);
    } else {
        out.put("setup_s", "s", stats::median(&boots));
        out.put("throughput_qps", "queries/s", stats::median(&chunks.qps));
        out.put_latencies(&latencies, &by_position)?;
        out.put(
            "cpu_ms_per_query",
            "ms",
            stats::median(&chunks.cpu_ms_per_query),
        );
        out.put("peak_rss_mb", "MiB", rss);
        out.put("rel_error", "ratio", rel_error);
        out.put(
            "snapshot_mb",
            "MiB",
            workload::snapshot_mib(&dir, &tenants, |_| 1),
        );
    }
    out.finish(tally);
    Ok(out)
}

/// The serving workloads' in-process replay: the build counters of the
/// run's own (two-thread) build, then the query cycle through the
/// server's calls with spans (and once more without, for the tracing
/// overhead).
#[allow(clippy::too_many_arguments)]
pub fn traced_replay(
    layers: &mut Layers,
    out: &mut Outcome,
    workload: Workload,
    seed: u64,
    build: &BuildStats,
    cycle: &[Req],
    expected: &[Expected],
    dir: &Path,
    version_of: &dyn Fn(usize) -> u32,
    http_by_position: &[Vec<f64>],
) -> Result<(), String> {
    let cold = workload == Workload::ServeCold;
    let chains = replay::discover_chains(cycle, dir, version_of)?;
    let bodies: Vec<String> = expected.iter().map(|e| e.body.clone()).collect();
    let (warmup, cycles) = if cold { (1, 4) } else { (1, 20) };

    let (registry, load_s) = replay::load_registry(cycle, dir, version_of)?;
    let (other, _) = replay::load_registry(cycle, dir, version_of)?;
    let (r, base, rec) = replay::replay(
        Source::Registry(&registry),
        Source::Registry(&other),
        cycle,
        &chains,
        &bodies,
        warmup,
        cycles,
    )?;
    if r.body_mismatches + base.body_mismatches > 0 {
        return Err("replayed answers differ from Snapshot::execute".into());
    }
    let sweep = replay::sweep_tuples_per_s(&registry, cycle, &chains)?;
    layers.build(build, load_s);
    layers.replay(&r, sweep);
    // Client latency minus the untraced in-process time of the same
    // request, averaged over the cycle's requests.
    let in_process = replay::position_medians(&base);
    let overhead: Vec<f64> = http_by_position
        .iter()
        .zip(&in_process)
        .filter(|(h, _)| !h.is_empty())
        .map(|(h, p)| stats::median(h) - p)
        .collect();
    layers.set("restore-serve.server.overhead_ms", stats::mean(&overhead));
    layers.set(
        "bench.tracing_overhead_ms",
        stats::median(&r.latencies_ms) - stats::median(&base.latencies_ms),
    );
    let spans = write_spans(&rec, workload.name(), seed)?;
    out.note(format!("spans: {}", spans.display()));
    Ok(())
}
