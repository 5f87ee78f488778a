//! The steadiness command: runs one workload K times, each in a fresh
//! process with its own seed, and prints for every metric the median, the
//! quartiles (as Python's `statistics.quantiles(values, n=4)` gives them),
//! the interquartile spread and (max − min) / median, all as shares of
//! the median. The bounds in `BENCHMARK.json` are set from this output.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use restore_util::json::{parse, JsonValue};

use crate::stats;
use crate::workload::Workload;

pub fn run(
    workload: Workload,
    runs: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
    let mut failed_shares = Vec::new();
    for i in 0..runs {
        let run_seed = seed + i as u64;
        let output = Command::new(&exe)
            .args([
                "--workload",
                workload.name(),
                "--seed",
                &run_seed.to_string(),
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        let doc = match (output.status.success(), parse(last)) {
            (true, Some(doc)) => doc,
            _ => {
                return Err(format!(
                    "run {i} (seed {run_seed}) failed: {}",
                    output.status
                ))
            }
        };
        let correct = doc.get("correct") == Some(&JsonValue::Bool(true));
        let attempted = doc
            .get("attempted")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let failed = doc.get("failed").and_then(JsonValue::as_f64).unwrap_or(0.0);
        failed_shares.push(failed / attempted.max(1.0));
        println!(
            "run {i} seed {run_seed}: correct={correct} attempted={attempted} failed={failed}"
        );
        if let Some(JsonValue::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = m
                    .get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string();
                values
                    .entry(name.clone())
                    .or_insert((unit, Vec::new()))
                    .1
                    .push(value);
            }
        }
    }
    println!(
        "{} x{runs} seconds={seconds} trace={}: failed share {:?}",
        workload.name(),
        trace as u8,
        failed_shares
    );
    println!(
        "{:<46} {:>12} {:>12} {:>12} {:>8} {:>8}  unit",
        "metric", "q1", "median", "q3", "iqr/med", "rng/med"
    );
    for (name, (_, v)) in &values {
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("{name} per run: {}", runs.join(" "));
    }
    for (name, (unit, v)) in &values {
        let (q1, med, q3) = stats::quartiles_exclusive(v);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let rel = |x: f64| if med != 0.0 { x / med.abs() } else { f64::NAN };
        println!(
            "{name:<46} {q1:>12.5} {med:>12.5} {q3:>12.5} {:>8.4} {:>8.4}  {unit}",
            rel(q3 - q1),
            rel(max - min)
        );
    }
    Ok(())
}
