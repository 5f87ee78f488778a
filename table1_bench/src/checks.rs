//! Answer checks that do not depend on today's output:
//!
//! * (a) a served answer is byte-identical to `Snapshot::execute` on the
//!   same snapshot file, loaded by the benchmark;
//! * (b) for COUNT and SUM queries, every group of the incomplete-data
//!   answer appears in the completed answer with a value at least as large
//!   (completion only adds tuples);
//! * (c) the completed answers' mean relative error is below that of the
//!   incomplete-data answers, against the complete database — whose
//!   single-table answers are cross-checked by [`scan_truth`], the
//!   benchmark's own scan of the generated rows;
//! * (d) every confidence interval contains its estimate.

use std::cmp::Ordering;
use std::collections::BTreeMap;

use restore_core::ConfidenceInterval;
use restore_db::expr::CmpOp;
use restore_db::{Agg, Expr, Query, QueryResult, Table, Value};

/// (a): the served body equals the in-process one, byte for byte.
pub fn identical(served: &str, expected: &str) -> Result<(), String> {
    if served == expected {
        return Ok(());
    }
    let at = served
        .bytes()
        .zip(expected.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(served.len().min(expected.len()));
    Err(format!(
        "served answer differs from Snapshot::execute at byte {at}: served {} bytes, expected {}",
        served.len(),
        expected.len()
    ))
}

/// Whether completion can only raise every aggregate of `query`.
pub fn is_monotone(query: &Query) -> bool {
    !query.aggregates.is_empty()
        && query
            .aggregates
            .iter()
            .all(|a| matches!(a, Agg::CountStar | Agg::Count(_) | Agg::Sum(_)))
}

/// (b): every group of `incomplete` is in `completed`, with every
/// aggregate at least as large (up to float rounding of sums).
pub fn completion_only_adds(
    incomplete: &QueryResult,
    completed: &QueryResult,
) -> Result<(), String> {
    let done = completed.groups();
    for (key, before) in incomplete.groups() {
        let Some(after) = done.get(&key) else {
            return Err(format!(
                "group {key:?} of the incomplete answer is missing after completion"
            ));
        };
        for (i, (b, a)) in before.iter().zip(after).enumerate() {
            let slack = 1e-9 * b.abs().max(1.0);
            // NaN counts as a fall too.
            if matches!(a.partial_cmp(&(b - slack)), Some(Ordering::Less) | None) {
                return Err(format!(
                    "group {key:?} aggregate {i} fell from {b} to {a} after completion"
                ));
            }
        }
    }
    Ok(())
}

/// (d): the interval is ordered and contains its estimate.
pub fn interval_contains_estimate(ci: &ConfidenceInterval) -> Result<(), String> {
    if ci.lo <= ci.estimate && ci.estimate <= ci.hi {
        Ok(())
    } else {
        Err(format!(
            "confidence interval [{}, {}] does not contain its estimate {}",
            ci.lo, ci.hi, ci.estimate
        ))
    }
}

/// (c): mean relative errors `(completed, incomplete)` over the answers;
/// fails unless completion lowers the mean.
pub fn completion_lowers_error(errors: &[(f64, f64)]) -> Result<(f64, f64), String> {
    if errors.is_empty() {
        return Err("no answers to score".into());
    }
    if let Some(i) = errors
        .iter()
        .position(|(c, n)| !c.is_finite() || !n.is_finite())
    {
        return Err(format!("answer {i} has a non-finite relative error"));
    }
    let n = errors.len() as f64;
    let completed = errors.iter().map(|e| e.0).sum::<f64>() / n;
    let incomplete = errors.iter().map(|e| e.1).sum::<f64>() / n;
    if completed < incomplete {
        Ok((completed, incomplete))
    } else {
        Err(format!(
            "completion did not lower the mean relative error: {completed:.4} vs {incomplete:.4} on the incomplete data"
        ))
    }
}

fn column_index(table: &Table, name: &str) -> Result<usize, String> {
    let bare = name.rsplit('.').next().unwrap_or(name);
    table
        .fields()
        .iter()
        .position(|f| f.name == name || f.name.rsplit('.').next() == Some(bare))
        .ok_or_else(|| format!("scan: no column {name:?} in {}", table.name()))
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(x) => Some(*x),
        _ => None,
    }
}

fn eval(table: &Table, row: usize, e: &Expr) -> Result<Value, String> {
    Ok(match e {
        Expr::Col(name) => table.value(row, column_index(table, name)?),
        Expr::Lit(v) => v.clone(),
        Expr::Cmp(a, op, b) => {
            let (x, y) = (eval(table, row, a)?, eval(table, row, b)?);
            let ord = match (&x, &y) {
                (Value::Str(p), Value::Str(q)) => Some(p.cmp(q)),
                _ => match (number(&x), number(&y)) {
                    (Some(p), Some(q)) => p.partial_cmp(&q),
                    _ => None,
                },
            };
            let truth = ord.is_some_and(|o| match op {
                CmpOp::Eq => o.is_eq(),
                CmpOp::Ne => o.is_ne(),
                CmpOp::Lt => o.is_lt(),
                CmpOp::Le => o.is_le(),
                CmpOp::Gt => o.is_gt(),
                CmpOp::Ge => o.is_ge(),
            });
            Value::Int(truth as i64)
        }
        Expr::And(a, b) => Value::Int((holds(table, row, a)? && holds(table, row, b)?) as i64),
        Expr::Or(a, b) => Value::Int((holds(table, row, a)? || holds(table, row, b)?) as i64),
        Expr::Not(a) => Value::Int(!holds(table, row, a)? as i64),
        Expr::IsNull(a) => Value::Int(matches!(eval(table, row, a)?, Value::Null) as i64),
        Expr::Arith(..) => return Err("scan: arithmetic filters are not supported".into()),
    })
}

fn holds(table: &Table, row: usize, e: &Expr) -> Result<bool, String> {
    Ok(number(&eval(table, row, e)?).is_some_and(|v| v != 0.0))
}

/// The true answer of a single-table query by a plain scan of the
/// complete table, as `group key → aggregates` (keys rendered the way
/// [`QueryResult::groups`] renders them).
pub fn scan_truth(table: &Table, query: &Query) -> Result<BTreeMap<Vec<String>, Vec<f64>>, String> {
    struct Acc {
        count: f64,
        sums: Vec<f64>,
        counts: Vec<f64>,
    }
    let group_idx: Vec<usize> = query
        .group_by
        .iter()
        .map(|g| column_index(table, g))
        .collect::<Result<_, _>>()?;
    let agg_idx: Vec<Option<usize>> = query
        .aggregates
        .iter()
        .map(|a| match a {
            Agg::CountStar => Ok(None),
            Agg::Count(c) | Agg::Sum(c) | Agg::Avg(c) => column_index(table, c).map(Some),
            other => Err(format!("scan: unsupported aggregate {other:?}")),
        })
        .collect::<Result<_, _>>()?;
    let mut groups: BTreeMap<Vec<String>, Acc> = BTreeMap::new();
    for row in 0..table.n_rows() {
        if let Some(f) = &query.filter {
            if !holds(table, row, f)? {
                continue;
            }
        }
        let key: Vec<String> = group_idx
            .iter()
            .map(|&c| table.value(row, c).to_string())
            .collect();
        let acc = groups.entry(key).or_insert_with(|| Acc {
            count: 0.0,
            sums: vec![0.0; agg_idx.len()],
            counts: vec![0.0; agg_idx.len()],
        });
        acc.count += 1.0;
        for (i, idx) in agg_idx.iter().enumerate() {
            if let Some(idx) = idx {
                if let Some(v) = number(&table.value(row, *idx)) {
                    acc.sums[i] += v;
                    acc.counts[i] += 1.0;
                }
            }
        }
    }
    if groups.is_empty() && query.group_by.is_empty() {
        // An ungrouped aggregate over no rows still yields one row.
        groups.insert(
            Vec::new(),
            Acc {
                count: 0.0,
                sums: vec![0.0; agg_idx.len()],
                counts: vec![0.0; agg_idx.len()],
            },
        );
    }
    Ok(groups
        .into_iter()
        .map(|(key, acc)| {
            let vals = query
                .aggregates
                .iter()
                .enumerate()
                .map(|(i, a)| match a {
                    Agg::CountStar => acc.count,
                    Agg::Count(_) => acc.counts[i],
                    Agg::Sum(_) => acc.sums[i],
                    _ if acc.counts[i] > 0.0 => acc.sums[i] / acc.counts[i],
                    _ => f64::NAN,
                })
                .collect();
            (key, vals)
        })
        .collect())
}

/// Cross-checks `restore-db`'s answer on the complete table against the
/// benchmark's own scan.
pub fn truth_matches_scan(truth: &QueryResult, table: &Table, query: &Query) -> Result<(), String> {
    let scanned = scan_truth(table, query)?;
    let engine = truth.groups();
    let close = |a: f64, b: f64| {
        (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0) || (a.is_nan() && b.is_nan())
    };
    let same = scanned.len() == engine.len()
        && scanned.iter().all(|(k, v)| {
            engine
                .get(k)
                .is_some_and(|w| w.len() == v.len() && v.iter().zip(w).all(|(a, b)| close(*a, *b)))
        });
    if same {
        Ok(())
    } else {
        Err(format!(
            "restore-db's truth for {:?} disagrees with the benchmark's scan ({} vs {} groups)",
            query.tables,
            engine.len(),
            scanned.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use restore_db::{DataType, Field};

    fn result(group_cols: usize, fields: &[(&str, DataType)], rows: &[Vec<Value>]) -> QueryResult {
        let mut t = Table::new(
            "r",
            fields.iter().map(|(n, d)| Field::new(*n, *d)).collect(),
        );
        for r in rows {
            t.push_row(r).unwrap();
        }
        QueryResult {
            table: t,
            group_cols,
        }
    }

    fn counts(rows: &[(&str, i64)]) -> QueryResult {
        result(
            1,
            &[("g", DataType::Str), ("count", DataType::Int)],
            &rows
                .iter()
                .map(|(g, c)| vec![Value::str(g), Value::Int(*c)])
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn identical_reports_first_difference() {
        assert!(identical("{\"a\":1}", "{\"a\":1}").is_ok());
        let e = identical("{\"a\":1}", "{\"a\":2}").unwrap_err();
        assert!(e.contains("byte 5"), "{e}");
    }

    #[test]
    fn growing_groups_pass_and_shrinking_or_lost_groups_fail() {
        let before = counts(&[("x", 3), ("y", 5)]);
        assert!(completion_only_adds(&before, &counts(&[("x", 3), ("y", 9), ("z", 1)])).is_ok());
        assert!(completion_only_adds(&before, &counts(&[("x", 2), ("y", 9)])).is_err());
        assert!(completion_only_adds(&before, &counts(&[("y", 9)])).is_err());
    }

    #[test]
    fn scalar_sums_compare_as_one_group() {
        let f = [("sum", DataType::Float)];
        let before = result(0, &f, &[vec![Value::Float(10.0)]]);
        let after = result(0, &f, &[vec![Value::Float(12.5)]]);
        assert!(completion_only_adds(&before, &after).is_ok());
        assert!(completion_only_adds(&after, &before).is_err());
    }

    #[test]
    fn only_count_and_sum_are_monotone() {
        let q = Query::new(["t"]);
        assert!(is_monotone(&q.clone().aggregate(Agg::CountStar)));
        assert!(is_monotone(&q.clone().aggregate(Agg::Sum("x".into()))));
        assert!(!is_monotone(&q.clone().aggregate(Agg::Avg("x".into()))));
        assert!(!is_monotone(&q));
    }

    #[test]
    fn interval_must_contain_estimate() {
        let ci = |lo, estimate, hi| ConfidenceInterval {
            lo,
            hi,
            estimate,
            theoretical: None,
        };
        assert!(interval_contains_estimate(&ci(1.0, 2.0, 3.0)).is_ok());
        assert!(interval_contains_estimate(&ci(2.0, 2.0, 2.0)).is_ok());
        assert!(interval_contains_estimate(&ci(2.5, 2.0, 3.0)).is_err());
        assert!(interval_contains_estimate(&ci(1.0, f64::NAN, 3.0)).is_err());
    }

    #[test]
    fn mean_error_must_drop() {
        assert_eq!(
            completion_lowers_error(&[(0.1, 0.5), (0.3, 0.5)]),
            Ok((0.2, 0.5))
        );
        assert!(completion_lowers_error(&[(0.5, 0.5)]).is_err());
        assert!(completion_lowers_error(&[(f64::NAN, 0.5)]).is_err());
        assert!(completion_lowers_error(&[]).is_err());
    }

    #[test]
    fn scan_matches_the_engine_on_a_small_table() {
        let mut t = Table::new(
            "apartment",
            vec![
                Field::new("room_type", DataType::Str),
                Field::new("price", DataType::Float),
                Field::new("beds", DataType::Int),
            ],
        );
        for (room, price, beds) in [
            ("a", 10.0, 1),
            ("b", 20.0, 2),
            ("a", 30.0, 3),
            ("a", 5.0, 1),
        ] {
            t.push_row(&[Value::str(room), Value::Float(price), Value::Int(beds)])
                .unwrap();
        }
        let mut db = restore_db::Database::new();
        db.add_table(t.clone());
        let queries = [
            Query::new(["apartment"])
                .filter(Expr::col("room_type").eq(Expr::lit("a")))
                .aggregate(Agg::Sum("price".into())),
            Query::new(["apartment"])
                .filter(Expr::col("beds").ge(Expr::lit(2i64)))
                .group_by(["room_type"])
                .aggregate(Agg::CountStar),
            Query::new(["apartment"]).aggregate(Agg::Avg("price".into())),
        ];
        for q in &queries {
            let truth = restore_db::execute(&db, q).unwrap();
            truth_matches_scan(&truth, &t, q).unwrap();
        }
        let sum = scan_truth(&t, &queries[0]).unwrap();
        assert_eq!(sum[&Vec::<String>::new()], vec![45.0]);
    }
}
