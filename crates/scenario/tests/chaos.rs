//! The device-fault chaos suite: smoke tests covering each expectation
//! class, and the full 24-entry `chaos/` sweep (run by `scripts/ci.sh` as
//! its own tier; `--ignored` locally for the full matrix).

use ano_scenario::{all, builtin, run_differential, Degradation};

/// Transient smoke: a mid-transfer device reset on each workload class.
/// The flow must re-offload via resync and deliver software-identical
/// bytes.
#[test]
fn smoke_reset_reoffloads() {
    for name in ["chaos/tls/reset", "chaos/nvme/reset", "chaos/nvme-tls/reset"] {
        let sc = builtin(name).expect("built-in");
        assert_eq!(sc.expect_degrade, Some(Degradation::ReOffloaded));
        let d = run_differential(&sc);
        d.assert_clean();
        assert!(d.offload.complete, "{name}: completes under reset");
    }
}

/// Persistent smoke: exhausted install ladder on TLS. The breaker must
/// open and the transfer complete in software.
#[test]
fn smoke_install_failure_breaker() {
    let sc = builtin("chaos/tls/fail-all-installs").expect("built-in");
    let d = run_differential(&sc);
    d.assert_clean();
    assert_eq!(d.offload.breakers(), ["install_failures"]);
    assert!(d.offload.complete);
}

/// The full chaos matrix: every device-fault pattern × every offloaded
/// workload, differential, with degradation expectations. Heavier than
/// the smoke tests, so it runs ignored by default; `scripts/ci.sh` runs
/// it as a dedicated tier with a timeout backstop.
#[test]
#[ignore = "full chaos matrix; run via scripts/ci.sh or --ignored"]
fn chaos_matrix_holds() {
    for sc in all().iter().filter(|s| s.name.starts_with("chaos/")) {
        let d = run_differential(sc);
        d.assert_clean();
        assert!(d.offload.complete, "{}: completes", sc.name);
        assert_eq!(
            d.offload.stream(),
            sc.expected(),
            "{}: delivered stream equals transmitted stream",
            sc.name
        );
    }
}
