//! The ten Table 1 tenants (setups H1–H5 and M1–M5, one tenant each),
//! built the way `restore-eval`'s Exp. 3 builds a Fig. 8 cell: generate
//! the complete database, remove tuples with the setup's bias, train the
//! candidate models both of the setup's queries need, and seal.
//!
//! The databases and the training are the fixed Table 1 reference cells
//! (Exp. 3's seed [`DATA_SEED`]): how much data there is to complete, and
//! so what a completion costs, does not change from run to run. The
//! workload seed picks what the serving side samples: each snapshot's
//! serve seed (the synthesis seed of its completions), the query seeds
//! and the rebuild seeds.

use std::path::{Path, PathBuf};
use std::time::Instant;

use restore_core::{ReStore, RestoreConfig, SelectionStrategy, Snapshot};
use restore_data::{all_setups, build_scenario, Scenario};
use restore_eval::harness::{eval_completer_config, eval_train_config};
use restore_eval::queries::{queries_for_setup, WorkloadQuery};
use restore_util::derive_seed;

/// Generator scale of the housing and movies databases.
pub const SCALE: f64 = 1.0;
/// Exp. 3's default seed: the data and training seed of every cell.
pub const DATA_SEED: u64 = 7;
/// Share of the biased tuples kept by the removal.
pub const KEEP_RATE: f64 = 0.4;
/// Correlation of the removal with the bias attribute.
pub const REMOVAL_CORRELATION: f64 = 0.6;

/// One tenant: a completion setup with its generated data and queries.
pub struct Tenant {
    /// Tenant name on the wire (`h1` … `m5`).
    pub name: String,
    /// The seed Exp. 3 derives for this cell: data and training.
    pub cell_seed: u64,
    /// The snapshot's serve seed, from the workload seed.
    pub serve_seed: u64,
    /// The seed of this tenant's queries, from the workload seed (below
    /// 2^53, which JSON numbers hold exactly).
    pub query_seed: u64,
    pub scenario: Scenario,
    pub queries: Vec<WorkloadQuery>,
}

/// Timings and counts of one tenant's build.
#[derive(Clone, Copy, Debug, Default)]
pub struct BuildStats {
    pub generate_ms: f64,
    pub train_s: f64,
    pub save_ms: f64,
    pub models_trained: usize,
    pub parameters: usize,
    pub snapshot_bytes: u64,
    /// Candidate trainings that failed (the setup's query still served by
    /// the surviving candidates).
    pub train_errors: usize,
}

impl BuildStats {
    pub fn add(&mut self, other: &BuildStats) {
        self.generate_ms += other.generate_ms;
        self.train_s += other.train_s;
        self.save_ms += other.save_ms;
        self.models_trained += other.models_trained;
        self.parameters += other.parameters;
        self.snapshot_bytes += other.snapshot_bytes;
        self.train_errors += other.train_errors;
    }
}

/// The seed of setup `index` — the derivation `run_exp3` uses for a
/// one-keep, one-correlation grid.
pub fn cell_seed(index: usize) -> u64 {
    DATA_SEED.wrapping_add((index as u64).wrapping_mul(104729))
}

/// Generates the data of every setup (timed into `stats[i].generate_ms`)
/// and draws the serving seeds from the workload seed.
pub fn generate(seed: u64, stats: &mut [BuildStats; 10]) -> Vec<Tenant> {
    all_setups()
        .into_iter()
        .enumerate()
        .map(|(i, setup)| {
            let cell = cell_seed(i);
            let started = Instant::now();
            let scenario = build_scenario(&setup, KEEP_RATE, REMOVAL_CORRELATION, SCALE, cell);
            stats[i].generate_ms = started.elapsed().as_secs_f64() * 1e3;
            Tenant {
                name: setup.id.to_ascii_lowercase(),
                queries: queries_for_setup(setup.id),
                cell_seed: cell,
                serve_seed: derive_seed(seed, 2 * i as u64),
                query_seed: derive_seed(seed, 2 * i as u64 + 1) >> 11,
                scenario,
            }
        })
        .collect()
}

/// Exp. 3's build configuration, with the sealed snapshot's
/// completion-cache budget set to `cache_budget_bytes`.
pub fn restore_config(cache_budget_bytes: usize) -> RestoreConfig {
    RestoreConfig {
        train: eval_train_config(),
        strategy: SelectionStrategy::BestValLoss,
        max_candidates: 3,
        completer: eval_completer_config(),
        cache_budget_bytes,
        ..RestoreConfig::default()
    }
}

/// Trains the candidate models of both queries and seals the snapshot.
pub fn train_and_seal(
    tenant: &Tenant,
    cache_budget_bytes: usize,
    stats: &mut BuildStats,
) -> Snapshot {
    let mut rs = ReStore::new(
        tenant.scenario.incomplete.clone(),
        restore_config(cache_budget_bytes),
    );
    for t in &tenant.scenario.incomplete_tables {
        rs.mark_incomplete(t.clone());
    }
    let started = Instant::now();
    for wq in &tenant.queries {
        match rs.ensure_query_models(&wq.query.tables, tenant.cell_seed) {
            Ok(None) => {}
            Ok(Some(_)) | Err(_) => stats.train_errors += 1,
        }
    }
    stats.train_s = started.elapsed().as_secs_f64();
    let snapshot = rs.seal(tenant.serve_seed);
    let models = snapshot.trained_models();
    stats.models_trained = models.len();
    stats.parameters = models.iter().map(|m| m.num_parameters()).sum();
    snapshot
}

/// `dir/<tenant>/v00001.snap` — the versioned layout the server scans.
pub fn snapshot_path(dir: &Path, tenant: &str, version: u32) -> PathBuf {
    dir.join(tenant).join(format!("v{version:05}.snap"))
}

/// Saves a sealed snapshot as version 1 of `tenant` under `dir`.
pub fn save(
    dir: &Path,
    tenant: &str,
    snapshot: &Snapshot,
    stats: &mut BuildStats,
) -> Result<(), String> {
    let path = snapshot_path(dir, tenant, 1);
    std::fs::create_dir_all(path.parent().expect("tenant dir")).map_err(|e| e.to_string())?;
    let started = Instant::now();
    let bytes = snapshot
        .save(&path)
        .map_err(|e| format!("save {}: {e}", path.display()))?;
    stats.save_ms = started.elapsed().as_secs_f64() * 1e3;
    stats.snapshot_bytes = bytes;
    Ok(())
}

/// Builds and saves all ten tenants serially.
pub fn build_all(
    seed: u64,
    cache_budget_bytes: usize,
    dir: &Path,
) -> Result<(Vec<Tenant>, [BuildStats; 10]), String> {
    let mut stats = [BuildStats::default(); 10];
    let tenants = generate(seed, &mut stats);
    for (tenant, st) in tenants.iter().zip(stats.iter_mut()) {
        let snapshot = train_and_seal(tenant, cache_budget_bytes, st);
        save(dir, &tenant.name, &snapshot, st)?;
    }
    Ok((tenants, stats))
}

/// Builds and saves all ten tenants on `threads` threads — for the
/// serving workloads, whose measured set-up starts after the files exist.
/// Each tenant's timings are its own, taken while the other threads build.
pub fn build_all_parallel(
    seed: u64,
    cache_budget_bytes: usize,
    dir: &Path,
    threads: usize,
) -> Result<(Vec<Tenant>, [BuildStats; 10]), String> {
    let mut stats = [BuildStats::default(); 10];
    let tenants = generate(seed, &mut stats);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let results: Vec<(usize, Result<BuildStats, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(tenant) = tenants.get(i) else { break };
                        let mut st = BuildStats::default();
                        let snapshot = train_and_seal(tenant, cache_budget_bytes, &mut st);
                        done.push((i, save(dir, &tenant.name, &snapshot, &mut st).map(|()| st)));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("build thread panicked"))
            .collect()
    });
    for (i, result) in results {
        let generate_ms = stats[i].generate_ms;
        stats[i] = result?;
        stats[i].generate_ms = generate_ms;
    }
    Ok((tenants, stats))
}
