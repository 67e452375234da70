//! The repo benchmark: five workloads, host-time and simulated end-to-end
//! metrics, and a per-layer ns/packet stack measured from outside the
//! program. See `README.md` in this directory; `run.sh` builds and runs it.
//!
//! ```text
//! ano-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--out FILE] [--trace-out FILE]
//! ano-benchmark compare A.jsonl B.jsonl [--spec BENCHMARK.json]
//! ano-benchmark list
//! ```
//!
//! `run` prints every metric by name with its unit, then — as the last
//! line of standard output — one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`.

#![deny(warnings)]

mod alloc;
mod apps;
mod compare;
mod json;
mod measure;
mod replay;
mod snap;
mod span;
mod spec;
mod stack;
mod stats;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use json::Value;
use measure::{peak_rss_mib, run_window, set_up, Window};
use span::Recorder;
use spec::{Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use stats::{median, percentile};
use workloads::{Length, SLICES};

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Times the set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Share of `--seconds` each of the traced run's two windows is sized to.
const TRACED_WINDOW_SHARE: f64 = 0.25;
/// Share of `--seconds` each replay driver may spend.
const REPLAY_SHARE: f64 = 0.025;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 6.0,
        traced: false,
        quick: false,
        out: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--out" => a.out = Some(value()?.clone()),
            "--trace-out" => a.trace_out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(a)
}

/// What a run hands back: the metrics and the operation tally.
struct Outcome {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    /// Host-time detail for the `--out` record: per-slice spread, p90,
    /// sample counts. Not part of the contract line.
    detail: Vec<(&'static str, f64)>,
}

fn length_of(a: &Args, share: f64) -> Length {
    if a.quick {
        Length::Quick
    } else {
        Length::Seconds(a.seconds * share)
    }
}

/// `--trace 0`: set up (several times, for a steady `setup_s`), run the
/// measured window with every tracer off, report the end-to-end metrics.
fn run_untraced(a: &Args, rec: &mut Recorder) -> Outcome {
    let reps = if a.quick { 1 } else { SETUP_REPS };
    let mut setups = Vec::with_capacity(reps);
    let mut setup_allocs = Vec::with_capacity(reps);
    let mut bench = None;
    for _ in 0..reps {
        // One world at a time, so the memory high-water mark is one
        // world's.
        drop(bench.take());
        let s = set_up(&a.workload, a.seed, length_of(a, 1.0), false, rec);
        setup_allocs.push(s.allocs);
        setups.push(s.wall.as_secs_f64());
        bench = Some(s.bench);
    }
    let mut b = bench.expect("at least one set-up");
    let w = run_window(&mut b, rec, "window");
    let mut failed = w.ops_failed;
    // The first repetition also pays the process's one-time lazy
    // initialisations; from the second on, the same work must allocate
    // the same number of times.
    if setup_allocs.iter().skip(1).any(|&n| n != setup_allocs[1]) {
        eprintln!(
            "check failed: set-up allocation counts differ between repetitions: {setup_allocs:?}"
        );
        failed += 1;
    }
    failed += sanity(&b, &w);

    let mut m = Metrics::default();
    w.wall_metrics(&mut m);
    m.set("setup_s", median(&setups));
    m.set("peak_rss_mib", peak_rss_mib());
    w.sim_metrics(&mut m);
    let ns = w.ns_per_pkt();
    Outcome {
        metrics: m,
        attempted: w.ops_attempted,
        failed,
        detail: vec![
            ("wall_ns_per_pkt.p90", percentile(&ns, 90.0)),
            ("wall_ns_per_pkt.slice_spread", w.slice_spread()),
            ("slices", SLICES as f64),
            ("window_wall_s", w.wall_ns() / 1e9),
            ("window_sim_s", w.sim.as_secs_f64()),
            ("latency_samples", w.latency_samples as f64),
            ("stack.allocs_per_pkt", snap::per(w.allocs.0, w.counts.pkts)),
        ],
    }
}

/// Checks every workload must pass whatever its numbers: it moved data,
/// and a clean link lost nothing.
fn sanity(b: &workloads::Bench, w: &Window) -> u64 {
    let c = &w.counts;
    let mut failed = 0;
    let mut check = |ok: bool, what: &str| {
        if !ok {
            eprintln!("check failed: {what}");
            failed += 1;
        }
    };
    check(
        w.ops_attempted > 0,
        "no operation completed in the measured window",
    );
    check(c.delivered_bytes > 0, "no application bytes were delivered");
    if !b.impaired {
        check(c.pkts_lost == 0, "a clean link lost packets");
    }
    failed
}

/// `--trace 1`: an untraced reference window and a traced window of the
/// same seed (world tracer on, one span per `run_until` slice), checked
/// against each other; then the replay drivers; then the per-layer table.
fn run_traced(a: &Args, rec: &mut Recorder) -> Outcome {
    let length = length_of(a, TRACED_WINDOW_SHARE);
    let mut b = set_up(&a.workload, a.seed, length, false, rec).bench;
    let reference = run_window(&mut b, rec, "window.untraced");
    let connect_us_per_conn = b.connect_wall.as_secs_f64() * 1e6 / b.conns.max(1) as f64;
    let mut failed = reference.ops_failed + sanity(&b, &reference);

    // The traced twin: one world at a time, as in the untraced run.
    drop(b);
    let mut b = set_up(&a.workload, a.seed, length, true, rec).bench;
    let traced = run_window(&mut b, rec, "window.traced");

    // Tracing must observe, never steer: every in-situ count and every
    // simulated statistic of the two windows must be identical.
    let mut checks = 0u64;
    for field in reference.counts.diff(&traced.counts) {
        eprintln!(
            "check failed: in-situ count {field} differs between the untraced and traced run"
        );
        failed += 1;
    }
    checks += 1;
    for ((name, x), (_, y)) in reference
        .sim_fingerprint()
        .iter()
        .zip(traced.sim_fingerprint())
    {
        checks += 1;
        if x.to_bits() != y.to_bits() {
            eprintln!(
                "check failed: {name} differs between the untraced ({x}) and traced ({y}) run"
            );
            failed += 1;
        }
    }
    // Allocations inside `run_until`: the tracer's ring and registry grow
    // when enabled, so the traced count may only be the larger one.
    checks += 1;
    if traced.allocs.0 < reference.allocs.0 {
        eprintln!(
            "check failed: the traced window allocated less ({}) than the untraced one ({})",
            traced.allocs.0, reference.allocs.0
        );
        failed += 1;
    }

    let budget = if a.quick {
        Duration::from_micros(200)
    } else {
        Duration::from_secs_f64(a.seconds * REPLAY_SHARE)
    };
    let replay = rec.scope("replay", |rec| replay::run_all(a.seed, budget, rec));

    let mut m = Metrics::default();
    reference.layer_counts(&mut m);
    stack::report(&mut m, &b, &reference, &replay);
    m.set("stack.connect_us_per_conn", connect_us_per_conn);
    m.set("trace.dropped", traced.trace_dropped as f64);
    m.set(
        "trace.overhead_pct",
        100.0 * (traced.wall_ns() / reference.wall_ns().max(1.0) - 1.0),
    );
    Outcome {
        metrics: m,
        attempted: reference.ops_attempted + checks,
        failed,
        detail: vec![
            ("window_wall_s", reference.wall_ns() / 1e9),
            ("window_sim_s", reference.sim.as_secs_f64()),
            ("traced_window_wall_s", traced.wall_ns() / 1e9),
            (
                "traced_allocs_per_pkt",
                snap::per(traced.allocs.0, traced.counts.pkts),
            ),
        ],
    }
}

fn metrics_json(m: &Metrics) -> Value {
    Value::obj(m.rows().map(|(name, value, unit)| {
        (
            name,
            Value::obj([
                ("value", Value::Num(value)),
                ("unit", Value::Str(unit.into())),
            ]),
        )
    }))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run_args(args)?;
    let mut rec = Recorder::new(&a.workload);
    rec.enter("run");
    let outcome = if a.traced {
        run_traced(&a, &mut rec)
    } else {
        run_untraced(&a, &mut rec)
    };
    rec.exit();

    let table = if a.traced { PER_LAYER } else { END_TO_END };
    let missing = outcome.metrics.missing(table);
    assert!(missing.is_empty(), "metrics not reported: {missing:?}");
    let correct = outcome.failed == 0;

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    // run.sh exports the stamp; a bare binary run has none.
    let git = std::env::var("BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into());
    let rustc = std::env::var("BENCH_RUSTC").unwrap_or_else(|_| "rustc unknown".into());
    println!(
        "# workload {} seed {} trace {} slices {} | git {} | {} | nproc {}",
        a.workload,
        a.seed,
        u8::from(a.traced),
        SLICES,
        git,
        rustc,
        nproc,
    );
    for (name, value, unit) in outcome.metrics.rows() {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    for (name, value) in &outcome.detail {
        println!("# {name:<38} {value:>18.6}");
    }
    if a.traced {
        println!("# span self time (host ms) by name:");
        for (name, ns, count) in rec.self_time_by_name() {
            println!(
                "#   {name:<36} {:>12.3} ms over {count} spans",
                ns as f64 / 1e6
            );
        }
    }
    println!(
        "ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );

    let result = Value::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(outcome.attempted.max(1) as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    if let Some(path) = &a.out {
        let mut record = vec![
            ("workload".to_string(), Value::Str(a.workload.clone())),
            ("seed".to_string(), Value::Num(a.seed as f64)),
            (
                "trace".to_string(),
                Value::Num(f64::from(u8::from(a.traced))),
            ),
            ("seconds".to_string(), Value::Num(a.seconds)),
            ("git".to_string(), Value::Str(git)),
            ("rustc".to_string(), Value::Str(rustc)),
            ("nproc".to_string(), Value::Num(nproc as f64)),
            (
                "detail".to_string(),
                Value::obj(outcome.detail.iter().map(|&(k, v)| (k, Value::Num(v)))),
            ),
        ];
        record.extend(result.as_obj().expect("built as an object").iter().cloned());
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(f, "{}", Value::Obj(record).render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    if let Some(path) = &a.trace_out {
        std::fs::write(path, rec.chrome_trace().render())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("# spans written to {path}");
    }
    // The contract line goes last.
    println!("{}", result.render());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("list") => {
            for w in WORKLOADS {
                println!("{w}");
            }
            Ok(ExitCode::SUCCESS)
        }
        _ => Err("usage: ano-benchmark run|compare|list ... (see benchmark/README.md)".into()),
    };
    result.unwrap_or_else(|e| {
        eprintln!("ano-benchmark: {e}");
        ExitCode::from(2)
    })
}
