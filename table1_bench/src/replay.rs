//! The traced run's in-process replay: each request of the query cycle
//! goes through the same public calls the server makes, with a span
//! around each call:
//!
//! ```text
//! request
//!  ├─ restore-serve.http.parse        http::try_parse
//!  ├─ restore-core.wire.decode        QueryRequest::from_json
//!  ├─ restore-core.registry.get       SnapshotRegistry::get
//!  ├─ restore-core.completion.complete  Snapshot::complete_join (execution chain)
//!  ├─ restore-core.snapshot.assemble  Snapshot::completed_table_focused (single table)
//!  │                                  or Snapshot::execute (joins: projection + aggregation)
//!  ├─ restore-db.execute              restore_db::execute_on_join (single table)
//!  ├─ restore-core.completion.complete  Snapshot::complete_join (interval chain)
//!  ├─ restore-core.confidence.ci      Snapshot::confidence
//!  ├─ restore-core.wire.encode        wire::query_response_json
//!  └─ restore-serve.http.encode       http::encode_response
//! ```
//!
//! The execution chain has no public accessor, so it is learned once per
//! request shape from the single entry a fresh snapshot's completion cache
//! holds after answering it. Calling `complete_join` on that chain first
//! makes the completion its own span; the following serving call finds it
//! resident, exactly as the server's call would have computed it.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use restore_core::wire::{self, QueryRequest};
use restore_core::{query_focus_columns, CompletionModel, Snapshot, SnapshotRegistry};
use restore_serve::http::{self, Limits, Response};

use crate::stats;
use crate::tenants::snapshot_path;
use crate::trace::{self_time_by_name, Recorder};
use crate::workload::{Req, CI_LEVEL};

/// The completion chains one request needs.
#[derive(Clone, Debug)]
pub struct Chains {
    pub exec: Vec<String>,
    pub ci: Option<Vec<String>>,
}

fn only_cached_chain(snapshot: &Snapshot) -> Result<Vec<String>, String> {
    let entries = snapshot.cached_completions();
    match entries.as_slice() {
        [(chain, _)] => Ok(chain.clone()),
        other => Err(format!("expected one cached chain, found {}", other.len())),
    }
}

/// Learns each request's chains on freshly loaded snapshots.
pub fn discover_chains(
    cycle: &[Req],
    dir: &Path,
    version_of: &dyn Fn(usize) -> u32,
) -> Result<Vec<Chains>, String> {
    let load = |req: &Req| {
        let path = snapshot_path(dir, &req.tenant_name, version_of(req.tenant));
        Snapshot::load(&path).map_err(|e| format!("load {}: {e}", path.display()))
    };
    cycle
        .iter()
        .map(|req| {
            let snapshot = load(req)?;
            snapshot
                .execute(&req.query, req.seed)
                .map_err(|e| e.to_string())?;
            let exec = only_cached_chain(&snapshot)?;
            let ci = match &req.confidence {
                None => None,
                Some(c) => {
                    let snapshot = load(req)?;
                    snapshot
                        .confidence(&req.query.tables, c, CI_LEVEL, req.seed)
                        .map_err(|e| e.to_string())?;
                    Some(only_cached_chain(&snapshot)?)
                }
            };
            Ok(Chains { exec, ci })
        })
        .collect()
}

/// Multiply-accumulates per synthesized tuple of one forward pass through
/// the model's MADE trunk, from its layer shapes: embedded (and, for SSAR,
/// context) inputs → hidden layers → one logit block per attribute.
pub fn macs_per_tuple(model: &CompletionModel) -> f64 {
    let cfg = model.train_config();
    let attrs = model.attrs();
    let input = attrs.len() * cfg.embed_dim + if model.is_ssar() { cfg.ctx_dim } else { 0 };
    let output: usize = attrs.iter().map(|a| a.encoder.model_cardinality()).sum();
    let mut dims = vec![input];
    dims.extend(cfg.hidden.iter().copied());
    dims.push(output);
    dims.windows(2).map(|w| (w[0] * w[1]) as f64).sum()
}

/// Everything the replay measured.
#[derive(Default)]
pub struct ReplayOut {
    /// In-process time of each measured request, ms.
    pub latencies_ms: Vec<f64>,
    /// Per cycle position: in-process times of that request, ms.
    pub by_position_ms: Vec<Vec<f64>>,
    /// Self time per span name over the measured requests, s.
    pub self_s: BTreeMap<&'static str, f64>,
    pub requests: usize,
    pub ci_requests: usize,
    pub rows_in: f64,
    /// Completions run (cache misses) over warm-up and measured requests.
    pub completions: usize,
    pub completion_s: f64,
    pub synthesized: f64,
    pub gmac: f64,
    pub body_mismatches: usize,
}

/// How the snapshots of one replay are provided.
pub enum Source<'a> {
    /// One registry for the whole replay (serving workloads).
    Registry(&'a SnapshotRegistry),
    /// A fresh load of the tenant's file before every request, so every
    /// answer is cold (the offline build's answer pass).
    FreshLoad { dir: &'a Path, load_s: &'a mut f64 },
}

/// Loads every tenant's snapshot into a registry.
pub fn load_registry(
    cycle: &[Req],
    dir: &Path,
    version_of: &dyn Fn(usize) -> u32,
) -> Result<(SnapshotRegistry, f64), String> {
    let registry = SnapshotRegistry::new();
    let mut load_s = 0.0;
    for req in cycle {
        if registry.get(&req.tenant_name).is_some() {
            continue;
        }
        let path = snapshot_path(dir, &req.tenant_name, version_of(req.tenant));
        let started = Instant::now();
        let snapshot =
            Snapshot::load(&path).map_err(|e| format!("load {}: {e}", path.display()))?;
        load_s += started.elapsed().as_secs_f64();
        registry.publish(req.tenant_name.clone(), Arc::new(snapshot));
    }
    Ok((registry, load_s))
}

fn raw_request(req: &Req) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: restore\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        req.path,
        req.body.len(),
        req.body
    )
    .into_bytes()
}

struct One {
    body: String,
    rows_in: usize,
    completions: Vec<(f64, usize, f64)>,
}

/// Replays one request through the server's public calls.
fn replay_one(
    rec: &mut Recorder,
    registry: &SnapshotRegistry,
    req: &Req,
    chains: &Chains,
) -> Result<One, String> {
    let limits = Limits::default();
    let raw = raw_request(req);
    let mut completions = Vec::new();
    let mut complete = |rec: &mut Recorder,
                        snapshot: &Snapshot,
                        chain: &[String],
                        seed: u64|
     -> Result<(), String> {
        let misses = snapshot.full_cache_stats().misses;
        let started = Instant::now();
        let out = rec.span("restore-core.completion.complete", |_| {
            snapshot.complete_join(chain, seed)
        });
        let elapsed = started.elapsed().as_secs_f64();
        let out = out.map_err(|e| e.to_string())?;
        if snapshot.full_cache_stats().misses > misses {
            let model = snapshot.model_for_path(chain).map_err(|e| e.to_string())?;
            completions.push((elapsed, out.n_synthesized(), macs_per_tuple(&model)));
        }
        Ok(())
    };
    rec.span("request", |rec| {
        let (request, _) = rec
            .span("restore-serve.http.parse", |_| {
                http::try_parse(&raw, &limits)
            })
            .map_err(|e| format!("parse: {e:?}"))?
            .ok_or("parse: incomplete request")?;
        let query = rec
            .span("restore-core.wire.decode", |_| {
                QueryRequest::from_json(&request.body)
            })
            .map_err(|e| e.to_string())?;
        let snapshot = rec
            .span("restore-core.registry.get", |_| {
                registry.get(&req.tenant_name)
            })
            .ok_or("unknown tenant")?;
        complete(rec, &snapshot, &chains.exec, query.seed)?;
        let (result, rows_in) = if let [table] = query.query.tables.as_slice() {
            let focus = query_focus_columns(&query.query);
            let completed = rec
                .span("restore-core.snapshot.assemble", |_| {
                    snapshot.completed_table_focused(table, &focus, query.seed)
                })
                .map_err(|e| e.to_string())?;
            let rows = completed.n_rows();
            let result = rec
                .span("restore-db.execute", |_| {
                    restore_db::execute_on_join(&completed, &query.query)
                })
                .map_err(|e| e.to_string())?;
            (result, rows)
        } else {
            let rows = snapshot
                .cached_completions()
                .iter()
                .find(|(chain, _)| *chain == chains.exec)
                .map_or(0, |(_, out)| out.join.n_rows());
            let result = rec
                .span("restore-core.snapshot.assemble", |_| {
                    snapshot.execute(&query.query, query.seed)
                })
                .map_err(|e| e.to_string())?;
            (result, rows)
        };
        let interval = match (&query.confidence, &chains.ci) {
            (Some(spec), Some(chain)) => {
                complete(rec, &snapshot, chain, query.seed)?;
                Some(
                    rec.span("restore-core.confidence.ci", |_| {
                        snapshot.confidence(
                            &query.query.tables,
                            &spec.query,
                            spec.level,
                            query.seed,
                        )
                    })
                    .map_err(|e| e.to_string())?,
                )
            }
            _ => None,
        };
        let body = rec.span("restore-core.wire.encode", |_| {
            wire::query_response_json(&result, interval.as_ref())
        });
        let encoded = rec.span("restore-serve.http.encode", |_| {
            http::encode_response(&Response::json(200, body.as_str()), false)
        });
        std::hint::black_box(encoded);
        Ok(One {
            body,
            rows_in,
            completions: Vec::new(),
        })
    })
    .map(|mut one: One| {
        one.completions = completions;
        one
    })
}

/// Replays one pass over the cycle into `out` (recorded only when
/// `measured`).
#[allow(clippy::too_many_arguments)]
fn replay_cycle(
    rec: &mut Recorder,
    source: &mut Source<'_>,
    cycle: &[Req],
    chains: &[Chains],
    expected_bodies: &[String],
    measured: bool,
    request_id: &mut u64,
    out: &mut ReplayOut,
) -> Result<(), String> {
    for (pos, req) in cycle.iter().enumerate() {
        let fresh;
        let registry = match source {
            Source::Registry(r) => *r,
            Source::FreshLoad { dir, load_s } => {
                let path = snapshot_path(dir, &req.tenant_name, 1);
                let started = Instant::now();
                let snapshot = Snapshot::load(&path).map_err(|e| e.to_string())?;
                **load_s += started.elapsed().as_secs_f64();
                fresh = SnapshotRegistry::new();
                fresh.publish(req.tenant_name.clone(), Arc::new(snapshot));
                &fresh
            }
        };
        *request_id += 1;
        rec.set_request(*request_id);
        let started = Instant::now();
        let one = replay_one(rec, registry, req, &chains[pos])?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        if one.body != expected_bodies[pos] {
            out.body_mismatches += 1;
        }
        for (s, tuples, macs) in &one.completions {
            out.completions += 1;
            out.completion_s += s;
            out.synthesized += *tuples as f64;
            out.gmac += *tuples as f64 * macs / 1e9;
        }
        if measured {
            out.latencies_ms.push(ms);
            out.by_position_ms[pos].push(ms);
            out.requests += 1;
            out.ci_requests += req.confidence.is_some() as usize;
            out.rows_in += one.rows_in as f64;
        }
    }
    Ok(())
}

/// A traced replay and an untraced one over identical snapshot sources:
/// `warmup` unmeasured cycles each, then `cycles` measured cycles,
/// alternating between the two so drift on the box hits both alike.
/// Returns `(traced, untraced, spans)`.
pub fn replay(
    mut traced: Source<'_>,
    mut untraced: Source<'_>,
    cycle: &[Req],
    chains: &[Chains],
    expected_bodies: &[String],
    warmup: usize,
    cycles: usize,
) -> Result<(ReplayOut, ReplayOut, Recorder), String> {
    let fresh = || ReplayOut {
        by_position_ms: vec![Vec::new(); cycle.len()],
        ..ReplayOut::default()
    };
    let (mut on, mut off) = (fresh(), fresh());
    let mut rec = Recorder::new(true);
    let mut quiet = Recorder::new(false);
    let mut request_id = 0u64;
    for c in 0..warmup + cycles {
        let measured = c >= warmup;
        let r = if measured { &mut rec } else { &mut quiet };
        replay_cycle(
            r,
            &mut traced,
            cycle,
            chains,
            expected_bodies,
            measured,
            &mut request_id,
            &mut on,
        )?;
        replay_cycle(
            &mut quiet,
            &mut untraced,
            cycle,
            chains,
            expected_bodies,
            measured,
            &mut request_id,
            &mut off,
        )?;
    }
    on.self_s = self_time_by_name(rec.spans(), 0);
    Ok((on, off, rec))
}

/// `restore-nn`'s batched sampling on each tenant's own execution-chain
/// model, at the serving batch size, in tuples per second. The MADE
/// sampler (`Made::sample_range_in`) is reached through
/// `CompletionModel::sample_table_columns_encoded`, its only public entry
/// on a trained model.
pub fn sweep_tuples_per_s(
    registry: &SnapshotRegistry,
    cycle: &[Req],
    chains: &[Chains],
) -> Result<f64, String> {
    const REPS: usize = 8;
    let mut rows_done = 0usize;
    let mut seconds = 0.0;
    let mut seen = std::collections::BTreeSet::new();
    for (req, chain) in cycle.iter().zip(chains) {
        if !seen.insert(req.tenant_name.clone()) {
            continue;
        }
        let snapshot = registry.get(&req.tenant_name).ok_or("unknown tenant")?;
        let out = snapshot
            .complete_join(&chain.exec, req.seed)
            .map_err(|e| e.to_string())?;
        let model = snapshot
            .model_for_path(&chain.exec)
            .map_err(|e| e.to_string())?;
        let batch = snapshot.config().completer.batch_size.max(1);
        let tokens = model.encode_tokens(&out.join, &out.tf);
        let rows: Vec<usize> = (0..out.join.n_rows().min(batch)).collect();
        let target = model.path().len() - 1;
        let mut rng = StdRng::seed_from_u64(req.seed);
        let started = Instant::now();
        for _ in 0..REPS {
            let sampled = model
                .sample_table_columns_encoded(&out.join, &tokens, target, &rows, &mut rng)
                .map_err(|e| e.to_string())?;
            std::hint::black_box(sampled);
        }
        seconds += started.elapsed().as_secs_f64();
        rows_done += rows.len() * REPS;
    }
    Ok(rows_done as f64 / seconds.max(1e-12))
}

/// Per-request means (in `scale` units per second of self time) of the
/// named layer.
pub fn per_request(out: &ReplayOut, span: &str, scale: f64) -> f64 {
    out.self_s.get(span).copied().unwrap_or(0.0) * scale / out.requests.max(1) as f64
}

/// Median in-process time per cycle position, ms.
pub fn position_medians(out: &ReplayOut) -> Vec<f64> {
    out.by_position_ms
        .iter()
        .map(|v| if v.is_empty() { 0.0 } else { stats::median(v) })
        .collect()
}
