//! `compare A.jsonl B.jsonl`: per-workload, per-metric deltas between two
//! sets of `--out` records, judged against the bounds in `BENCHMARK.json`.
//!
//! Each side's value of a metric is the median over that side's records
//! of the workload (one record per seed); its spread is the interquartile
//! range of those values as a share of their median, or — with a single
//! record — the per-slice spread that record carries. A metric whose
//! spread on either side exceeds its bound is `unresolved`, not unchanged.
//! Simulated metrics and in-situ counts are additionally compared bit for
//! bit: `exact` or `changed`.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, spread};

/// Direction and bound of one end-to-end metric, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Bound {
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` bounds out of a `BENCHMARK.json` document.
pub fn bounds_of(spec: &Value) -> Result<BTreeMap<String, Bound>, String> {
    let list = spec
        .get("end_to_end")
        .and_then(Value::as_arr)
        .ok_or("spec has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("metric without a name")?;
            let better = m
                .get("better")
                .and_then(Value::as_str)
                .ok_or("metric without better")?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or("metric without a bound")?;
            Ok((
                name.to_string(),
                Bound {
                    higher_is_better: better == "higher",
                    bound,
                },
            ))
        })
        .collect()
}

/// One side's records of one `(workload, trace)` cell.
#[derive(Default)]
struct Cell {
    values: BTreeMap<String, Vec<f64>>,
    slice_spread: f64,
    attempted: f64,
    failed: f64,
}

type Side = BTreeMap<(String, bool), Cell>;

fn load(path: &str) -> Result<Side, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut side = Side::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        let field = |k: &str| {
            rec.get(k)
                .ok_or_else(|| format!("{path}:{}: no {k}", i + 1))
        };
        let workload = field("workload")?.as_str().unwrap_or_default().to_string();
        let traced = field("trace")?.as_f64() == Some(1.0);
        let cell = side.entry((workload, traced)).or_default();
        cell.attempted += field("attempted")?.as_f64().unwrap_or(0.0);
        cell.failed += field("failed")?.as_f64().unwrap_or(0.0);
        let slice = rec
            .get("detail")
            .and_then(|d| d.get("wall_ns_per_pkt.slice_spread"))
            .and_then(Value::as_f64);
        cell.slice_spread = cell.slice_spread.max(slice.unwrap_or(0.0));
        for (name, m) in field("metrics")?.as_obj().unwrap_or_default() {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                cell.values.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(side)
}

/// True for metrics that are simulated results or in-situ counts, which
/// repeat exactly for a seed; false for host-time measurements, which are
/// told by their unit or, among the percentages, by their name.
pub fn repeats_exactly(name: &str) -> bool {
    let unit = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit);
    let host_unit = matches!(unit, Some("ns" | "s" | "cycles/B" | "MiB" | "MB/s"));
    let host_name = [
        "share_pct",
        "unattributed_pct",
        "overhead_pct",
        "connect_us_per_conn",
    ]
    .iter()
    .any(|suffix| name.ends_with(suffix));
    !(host_unit || host_name)
}

/// How one metric fared between the two sides.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Verdict {
    /// No bound (per-layer metric): delta shown for reading only.
    Info,
    Ok,
    /// Spread wider than the bound: the comparison cannot tell.
    Unresolved,
    Regression,
}

/// Judges medians `a` → `b` under `bound`, given the larger spread of the
/// two sides. Returns the change toward *worse* as a share of `a`.
pub fn judge(a: f64, b: f64, spread: f64, bound: Option<Bound>) -> (f64, Verdict) {
    let Some(bd) = bound else {
        let delta = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
        return (delta, Verdict::Info);
    };
    let worse = if a == 0.0 {
        0.0
    } else if bd.higher_is_better {
        (a - b) / a.abs()
    } else {
        (b - a) / a.abs()
    };
    let verdict = if spread > bd.bound {
        Verdict::Unresolved
    } else if worse > bd.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut spec_path = "BENCHMARK.json".to_string();
    let mut exact = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec needs a path")?.clone(),
            "--exact" => exact = true,
            p => paths.push(p.to_string()),
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err("usage: compare A.jsonl B.jsonl [--spec BENCHMARK.json] [--exact]".into());
    };
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("cannot read {spec_path}: {e}"))?;
    let bounds = bounds_of(&json::parse(&spec_text)?)?;
    let (a, b) = (load(a_path)?, load(b_path)?);

    let (mut regressions, mut unresolved, mut changed) = (0, 0, 0);
    for workload in WORKLOADS {
        for (traced, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let key = (workload.to_string(), traced);
            let (Some(ca), Some(cb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            println!(
                "== {workload} (trace {}) — {} vs {} records ==",
                u8::from(traced),
                ca.values.values().map(Vec::len).max().unwrap_or(0),
                cb.values.values().map(Vec::len).max().unwrap_or(0),
            );
            for (name, unit) in table {
                let (Some(va), Some(vb)) = (ca.values.get(*name), cb.values.get(*name)) else {
                    continue;
                };
                let (ma, mb) = (median(va), median(vb));
                let host_window = matches!(*name, "wall_ns_per_pkt" | "sim_mb_per_wall_s");
                let side_spread = |v: &[f64], c: &Cell| match v.len() {
                    1 if host_window => c.slice_spread,
                    _ => spread(v),
                };
                let sp = side_spread(va, ca).max(side_spread(vb, cb));
                let (delta, verdict) = judge(ma, mb, sp, bounds.get(*name).copied());
                let mut note = match verdict {
                    Verdict::Info => String::new(),
                    Verdict::Ok => "ok".into(),
                    Verdict::Unresolved => {
                        unresolved += 1;
                        "unresolved".into()
                    }
                    Verdict::Regression => {
                        regressions += 1;
                        "REGRESSION".into()
                    }
                };
                if repeats_exactly(name) {
                    // Same seeds on both sides give the same sorted values.
                    let (mut sa, mut sb) = (va.clone(), vb.clone());
                    sa.sort_by(f64::total_cmp);
                    sb.sort_by(f64::total_cmp);
                    let same = sa.len() == sb.len()
                        && sa.iter().zip(&sb).all(|(x, y)| x.to_bits() == y.to_bits());
                    changed += usize::from(!same);
                    note += if same { " exact" } else { " changed" };
                }
                let bound = bounds
                    .get(*name)
                    .map_or(String::new(), |b| format!(" bound {:.1}%", b.bound * 100.0));
                println!(
                    "{name:<40} {ma:>16.6} -> {mb:>16.6} {unit:<10} {:>+8.2}%{} spread {:.2}%{bound}  {}",
                    delta * 100.0,
                    if bounds.contains_key(*name) { " worse" } else { "      " },
                    sp * 100.0,
                    note.trim(),
                );
            }
            let share = |c: &Cell| c.failed / c.attempted.max(1.0);
            if share(cb) > share(ca) {
                println!(
                    "failed-op share rose: {} -> {}  REGRESSION",
                    share(ca),
                    share(cb)
                );
                regressions += 1;
            }
        }
    }
    println!("summary: {regressions} regressions, {unresolved} unresolved, {changed} exact-repeat metrics changed");
    let fail = regressions > 0 || (exact && changed > 0);
    Ok(if fail {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Option<Bound> {
        Some(Bound {
            higher_is_better: false,
            bound,
        })
    }

    #[test]
    fn judge_applies_direction_bound_and_spread() {
        // Lower is better: +5 % is inside a 10 % bound, +15 % is not.
        assert_eq!(judge(100.0, 105.0, 0.01, lower(0.10)).1, Verdict::Ok);
        let (worse, v) = judge(100.0, 115.0, 0.01, lower(0.10));
        assert!((worse - 0.15).abs() < 1e-12 && v == Verdict::Regression);
        // An improvement is never a regression.
        assert_eq!(judge(100.0, 50.0, 0.01, lower(0.10)).1, Verdict::Ok);
        // Higher is better flips the sign.
        let higher = Some(Bound {
            higher_is_better: true,
            bound: 0.10,
        });
        assert_eq!(judge(100.0, 85.0, 0.0, higher).1, Verdict::Regression);
        assert_eq!(judge(100.0, 120.0, 0.0, higher).1, Verdict::Ok);
        // Spread above the bound: cannot tell, whatever the delta.
        assert_eq!(judge(100.0, 130.0, 0.2, lower(0.10)).1, Verdict::Unresolved);
        assert_eq!(judge(100.0, 100.0, 0.2, lower(0.10)).1, Verdict::Unresolved);
        // No bound: informational.
        assert_eq!(judge(4.0, 5.0, 0.0, None), (0.25, Verdict::Info));
    }

    #[test]
    fn bounds_come_from_the_spec_document() {
        let spec = json::parse(
            r#"{"end_to_end": [
                {"name": "wall_ns_per_pkt", "unit": "ns", "better": "lower", "bound": 0.1},
                {"name": "sim_goodput_gbps", "unit": "Gbit/s", "better": "higher", "bound": 0.01}
            ]}"#,
        )
        .unwrap();
        let b = bounds_of(&spec).unwrap();
        assert_eq!(
            b["wall_ns_per_pkt"],
            Bound {
                higher_is_better: false,
                bound: 0.1
            }
        );
        assert!(b["sim_goodput_gbps"].higher_is_better);
        assert!(bounds_of(&json::parse("{}").unwrap()).is_err());
    }

    #[test]
    fn exact_repeat_classification_separates_host_time_from_counts() {
        for host in [
            "wall_ns_per_pkt",
            "sim_mb_per_wall_s",
            "setup_s",
            "peak_rss_mib",
            "tcp.ns_per_segment",
            "nvme.pdu.encode_ns",
            "crypto.gcm.seal_cpb",
            "tcp.share_pct",
            "stack.runtime.unattributed_pct",
            "stack.connect_us_per_conn",
            "trace.overhead_pct",
        ] {
            assert!(!repeats_exactly(host), "{host}");
        }
        for exact in [
            "sim_goodput_gbps",
            "sim_latency_p99_us",
            "core.rx.resync_requests",
            "core.nic.cache_hit_pct",
            "stack.allocs_per_pkt",
            "tcp.allocs_per_segment",
            "trace.dropped",
        ] {
            assert!(repeats_exactly(exact), "{exact}");
        }
        let exact = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|(n, _)| repeats_exactly(n))
            .count();
        assert_eq!(
            exact,
            5 + 34 + 4 + 1,
            "sim_* + in-situ counts + replay allocs + trace.dropped"
        );
    }
}
