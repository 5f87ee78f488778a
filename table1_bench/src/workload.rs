//! What every workload shares: the query cycle, the expected answers and
//! their checks, the closed-loop client, and the run's outcome.

use std::collections::btree_map::{BTreeMap, Entry};
use std::path::{Path, PathBuf};
use std::time::Instant;

use restore_core::wire::{self, QueryRequest};
use restore_core::{ConfidenceInterval, ConfidenceQuery, Snapshot};
use restore_db::{Agg, Expr, Query, Value};
use restore_eval::experiments::exp3::query_error;
use restore_serve::HttpClient;

use crate::checks;
use crate::tenants::{snapshot_path, Tenant};

/// Level of the §6 confidence intervals the cold workload asks for.
pub const CI_LEVEL: f64 = 0.95;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Build,
    ServeWarm,
    ServeCold,
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Build,
        Workload::ServeWarm,
        Workload::ServeCold,
        Workload::Fleet,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Build => "table1_build",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeCold => "serve_cold",
            Workload::Fleet => "fleet_rebuild",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One request of the query cycle: a Table 1 query sent to its tenant.
#[derive(Clone, Debug)]
pub struct Req {
    pub tenant: usize,
    pub tenant_name: String,
    pub query_id: &'static str,
    pub query: Query,
    pub seed: u64,
    pub confidence: Option<ConfidenceQuery>,
    /// `POST` target and JSON body on the wire.
    pub path: String,
    pub body: String,
}

/// The table among `query.tables` whose schema has `column`.
fn table_of(tenant: &Tenant, query: &Query, column: &str) -> Option<String> {
    query
        .tables
        .iter()
        .find(|t| {
            tenant
                .scenario
                .incomplete
                .table(t)
                .is_ok_and(|table| table.resolve(column).is_ok())
        })
        .cloned()
}

/// The equality `column = 'literal'` in a conjunctive filter, if any.
fn string_equality(e: &Expr) -> Option<(String, String)> {
    match e {
        Expr::Cmp(a, restore_db::CmpOp::Eq, b) => match (a.as_ref(), b.as_ref()) {
            (Expr::Col(c), Expr::Lit(Value::Str(v))) => Some((c.clone(), v.to_string())),
            _ => None,
        },
        Expr::And(a, b) => string_equality(a).or_else(|| string_equality(b)),
        _ => None,
    }
}

/// The §6 interval a scalar SUM, AVG or COUNT query asks for: over the
/// summed or averaged column, or for a COUNT over the fraction matching
/// its filter's string equality. `None` where the query has no such form.
pub fn confidence_for(tenant: &Tenant, query: &Query) -> Option<ConfidenceQuery> {
    if !query.group_by.is_empty() || query.aggregates.len() != 1 {
        return None;
    }
    match &query.aggregates[0] {
        Agg::Sum(c) => Some(ConfidenceQuery::Sum {
            table: table_of(tenant, query, c)?,
            column: c.clone(),
        }),
        Agg::Avg(c) => Some(ConfidenceQuery::Avg {
            table: table_of(tenant, query, c)?,
            column: c.clone(),
        }),
        Agg::CountStar => {
            let (column, value) = string_equality(query.filter.as_ref()?)?;
            Some(ConfidenceQuery::CountFraction {
                table: table_of(tenant, query, &column)?,
                column,
                value,
            })
        }
        _ => None,
    }
}

/// The 20-request cycle: every tenant's two queries, tenants in setup
/// order. `with_confidence` adds the §6 intervals (the cold workload).
///
/// The order stays fixed: under a one-completion cache budget it decides
/// which of a tenant's requests find their chain resident, and so what
/// the cold cycle costs.
pub fn query_cycle(tenants: &[Tenant], with_confidence: bool) -> Vec<Req> {
    let mut cycle = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        for wq in &tenant.queries {
            let seed = tenant.query_seed;
            let confidence = if with_confidence {
                confidence_for(tenant, &wq.query)
            } else {
                None
            };
            let mut request = QueryRequest::new(wq.query.clone(), seed);
            if let Some(c) = &confidence {
                request = request.with_confidence(c.clone(), CI_LEVEL);
            }
            cycle.push(Req {
                tenant: i,
                tenant_name: tenant.name.clone(),
                query_id: wq.id,
                query: wq.query.clone(),
                seed,
                confidence,
                path: format!("/v1/{}/query", tenant.name),
                body: request.to_json(),
            });
        }
    }
    cycle
}

/// What one request must answer, computed in process.
pub struct Expected {
    pub body: String,
    /// Checks (b), (d) and the truth cross-check that failed.
    pub failed_checks: Vec<String>,
    /// Relative errors `(completed, incomplete)` against the complete data.
    pub errors: (f64, f64),
}

/// Computes the expected answer of `req` on `snapshot` — the same
/// snapshot file the server serves — and runs checks (b), (c)'s truth
/// cross-check and (d) on it.
pub fn expect(snapshot: &Snapshot, tenant: &Tenant, req: &Req) -> Result<Expected, String> {
    let tag = format!("{} {}", req.tenant_name, req.query_id);
    let completed = snapshot
        .execute(&req.query, req.seed)
        .map_err(|e| format!("{tag}: execute: {e}"))?;
    let ci: Option<ConfidenceInterval> = match &req.confidence {
        None => None,
        Some(c) => Some(
            snapshot
                .confidence(&req.query.tables, c, CI_LEVEL, req.seed)
                .map_err(|e| format!("{tag}: confidence: {e}"))?,
        ),
    };
    let incomplete = snapshot
        .execute_without_completion(&req.query)
        .map_err(|e| format!("{tag}: incomplete: {e}"))?;
    let complete = &tenant.scenario.complete;
    let truth =
        restore_db::execute(complete, &req.query).map_err(|e| format!("{tag}: truth: {e}"))?;
    let mut failed_checks = Vec::new();
    if checks::is_monotone(&req.query) {
        if let Err(e) = checks::completion_only_adds(&incomplete, &completed) {
            failed_checks.push(format!("{tag}: (b) {e}"));
        }
    }
    if let Some(Err(e)) = ci.as_ref().map(checks::interval_contains_estimate) {
        failed_checks.push(format!("{tag}: (d) {e}"));
    }
    if let [table] = req.query.tables.as_slice() {
        let rows = complete.table(table).map_err(|e| format!("{tag}: {e}"))?;
        if let Err(e) = checks::truth_matches_scan(&truth, rows, &req.query) {
            failed_checks.push(format!("{tag}: (c) {e}"));
        }
    }
    Ok(Expected {
        body: wire::query_response_json(&completed, ci.as_ref()),
        errors: (
            query_error(&truth, &completed),
            query_error(&truth, &incomplete),
        ),
        failed_checks,
    })
}

/// Expected answers of the whole cycle, each tenant's snapshot loaded
/// from `dir` (its newest version is `version`).
pub fn expect_cycle(
    tenants: &[Tenant],
    cycle: &[Req],
    dir: &Path,
    version_of: impl Fn(usize) -> u32,
) -> Result<Vec<Expected>, String> {
    let mut loaded: BTreeMap<usize, Snapshot> = BTreeMap::new();
    cycle
        .iter()
        .map(|req| {
            let snapshot = match loaded.entry(req.tenant) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let path = snapshot_path(dir, &req.tenant_name, version_of(req.tenant));
                    e.insert(
                        Snapshot::load(&path)
                            .map_err(|e| format!("load {}: {e}", path.display()))?,
                    )
                }
            };
            expect(snapshot, &tenants[req.tenant], req)
        })
        .collect()
}

/// Checks (b) to (d) over a set of expected answers; returns the mean
/// relative error after completion (`NaN` when check (c) fails).
pub fn score(expected: &[&Expected], tally: &mut Tally) -> f64 {
    for e in expected {
        for failure in &e.failed_checks {
            tally.fail_check(failure.clone());
        }
    }
    let errors: Vec<(f64, f64)> = expected.iter().map(|e| e.errors).collect();
    match checks::completion_lowers_error(&errors) {
        Ok((completed, _)) => completed,
        Err(e) => {
            tally.fail_check(format!("(c) {e}"));
            f64::NAN
        }
    }
}

/// Attempted and failed operations, plus failed checks.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub check_errors: Vec<String>,
    /// The first few failed operations, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn note_failure(&mut self, e: String) {
        if self.failures.len() < 20 {
            self.failures.push(e);
        }
    }

    pub fn fail_check(&mut self, e: String) {
        if self.check_errors.len() < 20 {
            self.check_errors.push(e);
        }
    }
}

/// One request's outcome on the wire.
pub enum Sent {
    Ok { latency_s: f64, body: String },
    Failed(String),
}

/// Sends one request on a keep-alive connection (closed loop), counting it
/// as attempted; a non-200 reply or a transport error counts as failed
/// and the connection is re-dialed.
pub fn send(client: &mut HttpClient, req: &Req, tally: &mut Tally) -> Sent {
    tally.attempted += 1;
    let started = Instant::now();
    let outcome = client.post(&req.path, &req.body);
    let latency_s = started.elapsed().as_secs_f64();
    match outcome {
        Ok((200, body)) => Sent::Ok { latency_s, body },
        Ok((status, body)) => {
            tally.failed += 1;
            Sent::Failed(format!(
                "{} {}: HTTP {status}: {body}",
                req.tenant_name, req.query_id
            ))
        }
        Err(e) => {
            tally.failed += 1;
            let _ = client.reconnect();
            Sent::Failed(format!(
                "{} {}: transport: {e}",
                req.tenant_name, req.query_id
            ))
        }
    }
}

/// A scratch directory inside the checkout, removed when dropped.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(workload: Workload, seed: u64) -> Result<Self, String> {
        let dir = std::env::current_dir()
            .map_err(|e| e.to_string())?
            .join(".bench_tmp")
            .join(format!("{}-{seed}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Removes `.bench_tmp` once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size of the newest version file of every tenant, in MiB.
pub fn snapshot_mib(dir: &Path, tenants: &[Tenant], version_of: impl Fn(usize) -> u32) -> f64 {
    tenants
        .iter()
        .enumerate()
        .map(|(i, t)| {
            std::fs::metadata(snapshot_path(dir, &t.name, version_of(i)))
                .map(|m| m.len())
                .unwrap_or(0)
        })
        .sum::<u64>() as f64
        / (1024.0 * 1024.0)
}
