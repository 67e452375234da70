//! Regenerates the paper's tables and figures.
//!
//! Usage: `figures [--quick] [ids...]` where ids are e.g. `fig11 fig16`
//! (plus `ablate` for the DESIGN.md §6 ablations); with no ids, every
//! paper figure runs in order (ablations run only when asked).

use ano_bench::figures as f;

#[expect(clippy::print_stdout, reason = "the figures are this binary's output")]
#[expect(clippy::print_stderr, reason = "reports its own wall time, off the byte-stable stdout")]
#[expect(clippy::disallowed_types, reason = "times the run; no simulated quantity reads it")]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ids: Vec<&str> = args.iter().filter(|a| !a.starts_with("--")).map(|s| s.as_str()).collect();
    let all = ids.is_empty();
    let want = |id: &str| all || ids.contains(&id);

    let t0 = std::time::Instant::now();
    if want("fig02") { print!("{}", f::fig02()); }
    if want("tab01") { print!("{}", f::tab01()); }
    if want("fig03") { print!("{}", f::fig03()); }
    if want("fig04") { print!("{}", f::fig04()); }
    if want("fig10") { print!("{}", f::fig10(quick)); }
    if want("fig11") { print!("{}", f::fig11(quick)); }
    if want("fig12") { print!("{}", f::fig12(quick)); }
    if want("fig13") { print!("{}", f::fig13(quick)); }
    if want("fig14") { print!("{}", f::fig14(quick)); }
    if want("fig15") { print!("{}", f::fig15(quick)); }
    if want("tab04") { print!("{}", f::tab04(quick)); }
    if want("fig16") { print!("{}", f::fig16(quick)); }
    if want("fig17") { print!("{}", f::fig17(quick)); }
    if want("fig18") { print!("{}", f::fig18(quick)); }
    if want("fig19") { print!("{}", f::fig19(quick)); }
    if want("ablate") { print!("{}", f::ablations(quick)); }
    eprintln!("\n[done in {:.1}s]", t0.elapsed().as_secs_f64());
}
