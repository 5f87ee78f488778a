//! `fleet_rebuild`: a `shard_router` in front of two worker processes
//! serves the warm query cycle while tenants are rebuilt one after another
//! through `POST /v1/{tenant}/rebuild`. The only workload through the
//! router, and the only one with writes (retrain, save, hot swap) beside
//! reads.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use restore_core::{ReStore, Snapshot};
use restore_serve::HttpClient;
use restore_util::{derive_seed, fnv1a64};

use crate::child::{self, ServerProc};
use crate::layers::Layers;
use crate::report::Outcome;
use crate::serve::{self, get_json, num};
use crate::stats;
use crate::tenants::snapshot_path;
use crate::workload::{self, Expected, Req, Sent, Tally, WorkDir, Workload};

/// Worker processes behind the router.
pub const SHARDS: usize = 2;
/// Tenants in rebuild order, cheapest retraining first: the two-model
/// setups, then the three- and five-model ones.
pub const REBUILD_ORDER: [&str; 10] = ["h4", "m4", "h5", "m5", "h3", "h2", "h1", "m3", "m2", "m1"];
/// Chunk length of the measured phase (cut at the next cycle boundary).
const CHUNK_EVERY: Duration = Duration::from_secs(2);

/// Rebuilds a run makes: two for every five seconds, so the phase lasts
/// about `seconds` on the reference box (a rebuild takes ~2 s under load).
pub fn rebuild_count(seconds: u64) -> usize {
    (seconds as usize * 2 / 5).clamp(1, REBUILD_ORDER.len())
}
/// How often the client checks whether a rebuild has been published.
const POLL_EVERY: Duration = Duration::from_millis(20);
/// Rounds of the router-versus-direct comparison in the traced run.
const FORWARD_ROUNDS: usize = 10;

fn shard_of(tenant: &str) -> usize {
    (fnv1a64(tenant.as_bytes()) % SHARDS as u64) as usize
}

/// Rebuilds completed and failed on one shard, from the worker's own
/// `/metrics` passed through the router.
fn rebuild_counts(control: &mut HttpClient, shard: usize) -> Result<(f64, f64), String> {
    let doc = get_json(control, &format!("/fleet/{shard}/metrics"))?;
    Ok((
        num(&doc, &["persistence", "rebuilds", "completed"]),
        num(&doc, &["persistence", "rebuilds", "failed"]),
    ))
}

/// Every worker's own `/metrics` document, passed through the router.
fn worker_metrics(control: &mut HttpClient) -> Result<Vec<restore_util::json::JsonValue>, String> {
    (0..SHARDS)
        .map(|shard| get_json(control, &format!("/fleet/{shard}/metrics")))
        .collect()
}

/// One in-flight rebuild.
struct Rebuild {
    tenant: String,
    shard: usize,
    posted: Instant,
    completed_before: f64,
    failed_before: f64,
    last_poll: Instant,
}

fn post_rebuild(
    control: &mut HttpClient,
    seed: u64,
    k: usize,
    tally: &mut Tally,
) -> Result<Option<Rebuild>, String> {
    let tenant = REBUILD_ORDER[k];
    let shard = shard_of(tenant);
    let (completed_before, failed_before) = rebuild_counts(control, shard)?;
    let path = format!(
        "/v1/{tenant}/rebuild?train_seed={}&serve_seed={}",
        derive_seed(seed, 0x7261_0000 + k as u64),
        derive_seed(seed, 0x5e7e_0000 + k as u64)
    );
    tally.attempted += 1;
    let posted = Instant::now();
    match control.post(&path, "") {
        Ok((202, body)) if body.contains("\"version\":2") => Ok(Some(Rebuild {
            tenant: tenant.to_string(),
            shard,
            posted,
            completed_before,
            failed_before,
            last_poll: posted,
        })),
        Ok((status, body)) => {
            tally.failed += 1;
            tally.note_failure(format!("rebuild {tenant}: HTTP {status}: {body}"));
            Ok(None)
        }
        Err(e) => {
            tally.failed += 1;
            tally.note_failure(format!("rebuild {tenant}: {e}"));
            Ok(None)
        }
    }
}

pub fn run(seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let rebuilds = &REBUILD_ORDER[..rebuild_count(seconds)];
    let work = WorkDir::new(Workload::Fleet, seed)?;
    let mut tally = Tally::default();
    let (tenants, build, dir) = serve::prepare(&work, seed, serve::WARM_BUDGET)?;
    tally.attempted += tenants.iter().map(|t| t.queries.len() as u64).sum::<u64>();
    tally.failed += build.train_errors as u64;
    let cycle = workload::query_cycle(&tenants, false);
    let v1 = workload::expect_cycle(&tenants, &cycle, &dir, |_| 1)?;
    for e in &v1 {
        for failure in &e.failed_checks {
            tally.fail_check(failure.clone());
        }
    }

    let (router, boots) = serve::timed_boots(&tenants, || ServerProc::router(&dir, SHARDS))?;
    let pids = router.pids();
    let mut client = router.connect()?;
    let mut control = router.connect()?;
    serve::run_cycles(&mut client, &cycle, &v1, 1, &mut tally, None);
    let before = get_json(&mut control, "/metrics")?;
    let workers_before = worker_metrics(&mut control)?;

    // Measured phase: whole warm cycles until the last rebuild is served.
    let rebuilt: BTreeSet<&str> = rebuilds.iter().copied().collect();
    let mut observed: Vec<(usize, bool, u64)> = Vec::new();
    let mut published: BTreeSet<String> = BTreeSet::new();
    let mut rebuild_s = Vec::new();
    let mut latencies = Vec::new();
    let mut by_position = vec![Vec::new(); cycle.len()];
    let mut next = 0usize;
    let mut current: Option<Rebuild> = None;
    let started = Instant::now();
    let mut chunks = serve::Chunks::start(&pids);
    let mut chunk_requests = 0;
    loop {
        for (pos, (req, exp)) in cycle.iter().zip(&v1).enumerate() {
            if current.is_none() && next < rebuilds.len() {
                current = post_rebuild(&mut control, seed, next, &mut tally)?;
                next += 1;
            }
            if let Some(r) = current
                .as_mut()
                .filter(|r| r.last_poll.elapsed() >= POLL_EVERY)
            {
                r.last_poll = Instant::now();
                let (completed, failed) = rebuild_counts(&mut control, r.shard)?;
                if completed > r.completed_before {
                    rebuild_s.push(r.posted.elapsed().as_secs_f64());
                    published.insert(r.tenant.clone());
                    current = None;
                } else if failed > r.failed_before {
                    tally.failed += 1;
                    tally.note_failure(format!("rebuild {} failed", r.tenant));
                    current = None;
                }
            }
            match workload::send(&mut client, req, &mut tally) {
                Sent::Ok { latency_s, body } => {
                    latencies.push(latency_s * 1e3);
                    by_position[pos].push(latency_s * 1e3);
                    chunk_requests += 1;
                    if rebuilt.contains(req.tenant_name.as_str()) {
                        // v1 or v2 while the tenant's rebuild is open;
                        // checked once the v2 file can be loaded.
                        observed.push((
                            pos,
                            published.contains(&req.tenant_name),
                            fnv1a64(body.as_bytes()),
                        ));
                    } else if let Err(e) = crate::checks::identical(&body, &exp.body) {
                        tally.fail_check(format!("(a) {} {}: {e}", req.tenant_name, req.query_id));
                    }
                }
                Sent::Failed(e) => tally.note_failure(e),
            }
        }
        let done = current.is_none() && next == rebuilds.len();
        if done || chunks.elapsed_since_cut() >= CHUNK_EVERY.as_secs_f64() {
            chunks.cut(chunk_requests);
            chunk_requests = 0;
        }
        if done {
            break;
        }
    }
    let elapsed = started.elapsed().as_secs_f64();
    let (_, rss) = serve::server_usage(&pids);
    let after = get_json(&mut control, "/metrics")?;
    let workers_after = worker_metrics(&mut control)?;

    // (f): every rebuild published version 2, and the final pass serves
    // exactly what the newest files answer.
    let version_of = |i: usize| {
        if published.contains(&tenants[i].name) {
            2
        } else {
            1
        }
    };
    for &tenant in rebuilds {
        if !published.contains(tenant) {
            tally.fail_check(format!("(f) rebuild of {tenant} published no new version"));
        } else if !snapshot_path(&dir, tenant, 2).is_file() {
            tally.fail_check(format!("(f) rebuild of {tenant} left no v00002 file"));
        }
    }
    let newest = workload::expect_cycle(&tenants, &cycle, &dir, version_of)?;
    for (pos, after_publish, hash) in observed {
        let (old, new) = (
            fnv1a64(v1[pos].body.as_bytes()),
            fnv1a64(newest[pos].body.as_bytes()),
        );
        if hash != new && (after_publish || hash != old) {
            let req = &cycle[pos];
            tally.fail_check(format!(
                "(a) {} {}: answer matches neither version",
                req.tenant_name, req.query_id
            ));
        }
    }
    let final_pass = serve::run_cycles(&mut client, &cycle, &newest, 1, &mut tally, None);
    let rel_error = workload::score(&newest.iter().collect::<Vec<_>>(), &mut tally);

    let mut out = Outcome::default();
    out.note(format!(
        "fleet_rebuild: {} requests in {elapsed:.2} s beside {} rebuilds ({:?} s from 202 to served), final pass {} requests",
        latencies.len(),
        rebuild_s.len(),
        rebuild_s.iter().map(|s| (s * 1e3).round() / 1e3).collect::<Vec<_>>(),
        final_pass.len()
    ));
    let requests = latencies.len() as f64;
    if trace {
        let mut layers = Layers::default();
        // Counters of the router's own `/metrics`, and summed over the
        // workers' documents. A worker's cache counters cover only the
        // snapshots it serves now, so across a hot swap their difference
        // means nothing: the cache metrics are left out here.
        let router_delta = |keys: &[&str]| num(&after, keys) - num(&before, keys);
        let worker_delta = |keys: &[&str]| -> f64 {
            workers_after.iter().map(|d| num(d, keys)).sum::<f64>()
                - workers_before.iter().map(|d| num(d, keys)).sum::<f64>()
        };
        let both = |keys: &[&str]| router_delta(keys) + worker_delta(keys);
        layers.set(
            "restore-serve.router.retries",
            router_delta(&["fleet", "retried"]),
        );
        layers.set(
            "restore-serve.event_loop.wakeups_per_query",
            both(&["event_loop", "epoll_wakeups"]) / requests.max(1.0),
        );
        let (mut reused, mut dialed) = (0.0, 0.0);
        if let Some(shards) = after
            .get("fleet")
            .and_then(|f| f.get("per_shard"))
            .and_then(|p| p.as_array())
        {
            for s in shards {
                reused += num(s, &["pool", "reused"]);
                dialed += num(s, &["pool", "dialed"]);
            }
        }
        layers.set(
            "restore-serve.router.pool_reuse_ratio",
            reused / (reused + dialed).max(1.0),
        );
        layers.set(
            "restore-serve.server.rejected",
            both(&["requests", "shed"]) + both(&["requests", "deadline_exceeded"]),
        );
        layers.set("restore-serve.rebuild.publish_s", stats::median(&rebuild_s));
        let (forward, via_router) = forward_ms(&mut client, &after, &cycle, &newest, &mut tally)?;
        layers.set("restore-serve.router.forward_ms", forward);
        layers.set("restore-core.rebuild.retrain_s", retrain_s(&dir, seed)?);
        layers.set(
            "restore-serve.store.boot_ms",
            workers_after
                .iter()
                .map(|d| num(d, &["persistence", "load_ms"]))
                .sum(),
        );
        serve::traced_replay(
            &mut layers,
            &mut out,
            Workload::Fleet,
            seed,
            &build,
            &cycle,
            &newest,
            &dir,
            &version_of,
            &via_router,
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
            workload::snapshot_mib(&dir, &tenants, version_of),
        );
    }
    drop(client);
    drop(control);
    router.stop()?;
    out.finish(tally);
    Ok(out)
}

/// Router-path minus direct-path client latency for the same requests:
/// each request of the warm cycle sent both ways back to back,
/// `FORWARD_ROUNDS` times; per-request medians, averaged. Also returns
/// the router-path latencies by cycle position.
fn forward_ms(
    client: &mut HttpClient,
    metrics: &restore_util::json::JsonValue,
    cycle: &[Req],
    expected: &[Expected],
    tally: &mut Tally,
) -> Result<(f64, Vec<Vec<f64>>), String> {
    let addrs: Vec<std::net::SocketAddr> = metrics
        .get("fleet")
        .and_then(|f| f.get("per_shard"))
        .and_then(|p| p.as_array())
        .ok_or("router metrics have no per-shard section")?
        .iter()
        .map(|s| {
            s.get("addr")
                .and_then(|a| a.as_str())
                .and_then(|a| a.parse().ok())
                .ok_or_else(|| "shard without an address".to_string())
        })
        .collect::<Result<_, _>>()?;
    let mut direct: Vec<HttpClient> = addrs
        .iter()
        .map(|a| child::connect(*a))
        .collect::<Result<_, _>>()?;
    let mut via_router = vec![Vec::new(); cycle.len()];
    let mut via_worker = vec![Vec::new(); cycle.len()];
    for round in 0..FORWARD_ROUNDS {
        for (pos, (req, exp)) in cycle.iter().zip(expected).enumerate() {
            let (req, exp) = (std::slice::from_ref(req), std::slice::from_ref(exp));
            let worker = &mut direct[shard_of(&req[0].tenant_name)];
            // Each request goes both ways back to back, in alternating order.
            for way in [round % 2, 1 - round % 2] {
                let (conn, sink) = if way == 0 {
                    (&mut *client, &mut via_router)
                } else {
                    (&mut *worker, &mut via_worker)
                };
                sink[pos].extend(serve::run_cycles(conn, req, exp, 1, tally, None));
            }
        }
    }
    let diffs: Vec<f64> = via_router
        .iter()
        .zip(&via_worker)
        .filter(|(r, w)| !r.is_empty() && !w.is_empty())
        .map(|(r, w)| stats::median(r) - stats::median(w))
        .collect();
    Ok((stats::mean(&diffs), via_router))
}

/// `ReStore::rebuild_from` plus `seal` in process on the first rebuilt
/// tenant's version-1 snapshot.
fn retrain_s(dir: &std::path::Path, seed: u64) -> Result<f64, String> {
    let path = snapshot_path(dir, REBUILD_ORDER[0], 1);
    let snapshot = Snapshot::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
    let started = Instant::now();
    let rs = ReStore::rebuild_from(&snapshot, derive_seed(seed, 0x7261_0000))
        .map_err(|e| e.to_string())?;
    std::hint::black_box(rs.seal(derive_seed(seed, 0x5e7e_0000)));
    Ok(started.elapsed().as_secs_f64())
}
