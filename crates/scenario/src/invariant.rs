//! World-level invariant checkers, evaluated at every scenario step.

use ano_core::rx::RxStateKind;
use ano_sim::time::{SimDuration, SimTime};
use ano_trace::ResyncPhase;

use crate::apps::Delivered;
use crate::runner::FlowRecord;
use crate::scenario::{Scenario, Workload};

/// One invariant violation (collected, not panicked, so a single run can
/// report everything that went wrong).
#[derive(Clone, Debug)]
pub struct Violation {
    /// Which invariant (`stream-integrity`, `auth-integrity`,
    /// `forward-progress`, `resync-reconvergence`, `completion`,
    /// `clean-link-quiescence`, …).
    pub invariant: &'static str,
    /// Simulated time of detection.
    pub at: SimTime,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] t={:?}: {}", self.invariant, self.at, self.detail)
    }
}

/// Partition-aware forward-progress watchdog: some byte must land within
/// every `budget` window — except inside a *declared* outage, where the
/// peer is dark by design and silence is the expected behavior. The
/// watchdog suspends for the duration of each declared window and re-arms
/// with a full fresh budget at repair, so recovery gets the same grace a
/// cold start does.
///
/// One per flow; the windows come from
/// [`crate::scenario::Scenario::outage_windows`].
pub(crate) struct ProgressWatchdog {
    budget: SimDuration,
    /// Declared `[from, to]` outage windows. Deliberately explicit, never
    /// inferred from impairment scripts: an *undeclared* blackhole must
    /// still trip the watchdog (the `tls/blackhole` replay target).
    outages: Vec<(SimTime, SimTime)>,
    last_at: SimTime,
    last_bytes: u64,
}

impl ProgressWatchdog {
    /// A watchdog armed at `start` (the flow's connect time).
    pub(crate) fn new(
        budget: SimDuration,
        outages: Vec<(SimTime, SimTime)>,
        start: SimTime,
    ) -> ProgressWatchdog {
        ProgressWatchdog {
            budget,
            outages,
            last_at: start,
            last_bytes: 0,
        }
    }

    /// Total bytes seen so far (for completion reporting).
    pub(crate) fn bytes(&self) -> u64 {
        self.last_bytes
    }

    /// Feeds one observation; returns the stall detail if the watchdog
    /// fires (the caller wraps it in a [`Violation`]). `target` is the
    /// byte count at which the transfer is complete and the watchdog
    /// stands down.
    pub(crate) fn observe(&mut self, now: SimTime, bytes: u64, target: u64) -> Option<String> {
        if bytes > self.last_bytes {
            self.last_bytes = bytes;
            self.last_at = now;
            return None;
        }
        if self.outages.iter().any(|&(from, to)| now >= from && now <= to) {
            // Declared outage: suspend, and keep re-arming so the budget
            // restarts from the repair edge, not from the last pre-cut byte.
            self.last_at = now;
            return None;
        }
        if bytes < target && now > self.last_at + self.budget {
            let detail = format!(
                "no byte delivered since t={:?} ({bytes} of {target} bytes)",
                self.last_at
            );
            // Re-arm so a genuinely wedged run reports once per window, not
            // once per step.
            self.last_at = now;
            return Some(detail);
        }
        None
    }
}

/// Clean-link quiescence: on a flow whose links nothing in the spec ever
/// touches ([`Scenario::clean_links`]), no segment is lost, reordered or
/// delayed, so TCP has nothing to recover from. Any retransmission or
/// timeout there is a TCP defect, such as a piggybacked ACK counted as a
/// duplicate ACK. Returns one detail per offending flow.
pub(crate) fn check_clean_link_quiescence(sc: &Scenario, flows: &[FlowRecord]) -> Vec<String> {
    flows
        .iter()
        .filter(|f| (f.retransmits > 0 || f.timeouts > 0) && sc.clean_links(f.flow))
        .map(|f| {
            format!(
                "conn {} ({}<->{}) retransmitted {} segment(s) with {} RTO(s) on clean links",
                f.conn.0, f.client, f.server, f.retransmits, f.timeouts
            )
        })
        .collect()
}

/// Step-by-step invariant state for one flow of one run.
pub(crate) struct FlowChecker {
    /// `conn N (c<->s)` — prefixes every violation this flow raises.
    who: String,
    expected: Vec<u8>,
    /// The reads an NVMe flow issued, by request id.
    reads: Vec<(u64, u32)>,
    /// Chunks / completions already verified (only new ones are checked
    /// each step, keeping the step loop linear in delivered bytes).
    checked_chunks: usize,
    checked_plain: usize,
    checked_completions: usize,
    progress: ProgressWatchdog,
}

impl FlowChecker {
    pub(crate) fn new(
        who: String,
        workload: &Workload,
        wave: usize,
        progress: ProgressWatchdog,
    ) -> FlowChecker {
        FlowChecker {
            who,
            expected: workload.expected(wave),
            reads: workload.reads().unwrap_or_default().to_vec(),
            checked_chunks: 0,
            checked_plain: 0,
            checked_completions: 0,
            progress,
        }
    }

    /// What the flow must deliver.
    pub(crate) fn expected(&self) -> &[u8] {
        &self.expected
    }

    pub(crate) fn into_expected(self) -> Vec<u8> {
        self.expected
    }

    fn flag(&self, out: &mut Vec<Violation>, invariant: &'static str, at: SimTime, detail: String) {
        out.push(Violation {
            invariant,
            at,
            detail: format!("{}: {detail}", self.who),
        });
    }

    /// Runs the per-step checks after the world advanced to `now`; returns
    /// whether the flow has delivered every expected byte. `watchdog`
    /// arms the forward-progress check (off for unrecoverable scenarios,
    /// which stall by design once the damage is done).
    pub(crate) fn step(
        &mut self,
        now: SimTime,
        delivered: &Delivered,
        watchdog: bool,
        out: &mut Vec<Violation>,
    ) -> bool {
        self.check_stream_integrity(now, delivered, out);
        let target = self.expected.len() as u64;
        let bytes = delivered.bytes();
        if let Some(detail) = self.progress.observe(now, bytes, target) {
            if watchdog {
                self.flag(out, "forward-progress", now, detail);
            }
        }
        bytes >= target
    }

    /// Every newly delivered chunk must carry exactly the transmitted bytes
    /// at the offset it claims — under any impairment, corruption included:
    /// damaged records may *vanish* (auth reject) but never mutate. Every
    /// completed read buffer must match the device pattern.
    fn check_stream_integrity(&mut self, now: SimTime, delivered: &Delivered, out: &mut Vec<Violation>) {
        for &(off, len) in &delivered.chunks[self.checked_chunks..] {
            let bytes = &delivered.plain[self.checked_plain..self.checked_plain + len];
            self.checked_plain += len;
            let start = off as usize;
            let end = start + len;
            if end > self.expected.len() {
                let detail = format!(
                    "chunk [{start}, {end}) extends past the {}-byte transmitted stream",
                    self.expected.len()
                );
                self.flag(out, "stream-integrity", now, detail);
            } else if bytes != &self.expected[start..end] {
                let bad = bytes
                    .iter()
                    .zip(&self.expected[start..end])
                    .position(|(a, b)| a != b)
                    .unwrap_or(0);
                let detail = format!(
                    "delivered bytes diverge from transmitted stream at offset {}",
                    start + bad
                );
                self.flag(out, "stream-integrity", now, detail);
            }
        }
        self.checked_chunks = delivered.chunks.len();

        for (id, ok, buf) in &delivered.completions[self.checked_completions..] {
            let detail = match self.reads.get(*id as usize) {
                None => format!("completion for unknown request id {id}"),
                Some(_) if !ok => format!("read {id} completed with digest failure"),
                Some(&(_, len)) if buf.len() != len as usize => {
                    format!("read {id}: {} bytes placed, expected {len}", buf.len())
                }
                Some(&(dev_off, _)) => {
                    let wrong = buf
                        .iter()
                        .enumerate()
                        .position(|(j, &v)| v != ano_nvme::block::pattern_byte(dev_off + j as u64));
                    match wrong {
                        Some(j) => format!("read {id}: wrong device byte at buffer offset {j}"),
                        None => continue,
                    }
                }
            };
            self.flag(out, "stream-integrity", now, detail);
        }
        self.checked_completions = delivered.completions.len();
    }

    /// End-of-run per-flow checks: completion, ladder legality,
    /// reconvergence.
    ///
    /// `resync` is the receiver engine's ordered `(from, to)` transition
    /// list from the trace (`None` when the trace ring wrapped and the
    /// list cannot be trusted). When present it carries strictly more
    /// information than the final [`RxStateKind`]: the engine must not only
    /// *end* in `Offloading`, it must have gotten there through legal §4.3
    /// edges — in particular, every return to hardware offload must pass
    /// through software confirmation (`Tracking → Confirmed → Offloading`).
    /// `reconverge` asks for the end-in-`Offloading` check (the caller
    /// clears it for software arms and breaker-open flows).
    pub(crate) fn finish(
        &self,
        now: SimTime,
        expect_complete: bool,
        reconverge: bool,
        rx_state: Option<RxStateKind>,
        resync: Option<&[(ResyncPhase, ResyncPhase)]>,
        out: &mut Vec<Violation>,
    ) {
        if expect_complete && self.progress.bytes() < self.expected.len() as u64 {
            let detail = format!(
                "transfer incomplete at sim budget ({} of {} bytes)",
                self.progress.bytes(),
                self.expected.len()
            );
            self.flag(out, "completion", now, detail);
        }
        for detail in check_resync_transitions(resync.unwrap_or_default()) {
            self.flag(out, "resync-transition", now, detail);
        }
        if !reconverge {
            return;
        }
        match resync.and_then(|r| r.last()) {
            Some((_, ResyncPhase::Offloading)) => {}
            Some((_, last)) => {
                let detail = format!(
                    "rx engine's last transition ended in {last:?}, expected Offloading \
                     (ladder: {})",
                    render_ladder(resync.unwrap_or_default())
                );
                self.flag(out, "resync-reconvergence", now, detail);
            }
            // No transitions recorded: either the engine never left
            // Offloading (fine) or the ring wrapped — fall back to the
            // final-state snapshot.
            None => match rx_state {
                Some(RxStateKind::Offloading) | None => {}
                Some(other) => {
                    let detail = format!("rx engine ended in {other:?}, expected Offloading");
                    self.flag(out, "resync-reconvergence", now, detail);
                }
            },
        }
    }
}

/// Renders a transition list as `Offloading->Searching->Tracking->…` for
/// violation messages.
fn render_ladder(resync: &[(ResyncPhase, ResyncPhase)]) -> String {
    let mut s = String::new();
    for (i, (from, to)) in resync.iter().enumerate() {
        if i == 0 {
            s.push_str(&from.to_string());
        }
        s.push_str("->");
        s.push_str(&to.to_string());
    }
    s
}

/// The legal edges of the §4.3 resync state machine, with `Tracking` split
/// into its unconfirmed and software-confirmed halves as the trace layer
/// reports them:
///
/// - `Offloading -> Searching`: unrecoverable out-of-sequence data;
/// - `Searching -> Tracking`: a magic-pattern candidate was found;
/// - `Tracking -> Searching` (d1): the candidate was invalidated — by the
///   tracker itself or by a software rejection;
/// - `Tracking -> Confirmed`: software confirmed the candidate
///   (`l5o_resync_rx_resp(ok)`) — confirmation can never be skipped;
/// - `Confirmed -> Offloading` (d2): hardware resumes at the next boundary;
/// - `Confirmed -> Searching`: the stream desynchronized again before the
///   resume boundary was reached.
///
/// This is the *spec-side* declaration of the machine. `ano-lint` (rule
/// `resync-table`) extracts this array and cross-checks it against the
/// code-side table in `crates/core/src/rx.rs` (`legal_transition`); drift
/// on either side fails static analysis.
pub const LEGAL_EDGES: &[(ResyncPhase, ResyncPhase)] = &[
    (ResyncPhase::Offloading, ResyncPhase::Searching),
    (ResyncPhase::Searching, ResyncPhase::Tracking),
    (ResyncPhase::Tracking, ResyncPhase::Searching),
    (ResyncPhase::Tracking, ResyncPhase::Confirmed),
    (ResyncPhase::Confirmed, ResyncPhase::Offloading),
    (ResyncPhase::Confirmed, ResyncPhase::Searching),
];

/// Validates an ordered resync transition list against [`LEGAL_EDGES`].
/// Returns one message per defect:
///
/// - the list must start from `Offloading` (the `l5o_create` state) and
///   each transition's `from` must equal its predecessor's `to`;
/// - every `(from, to)` pair must be a legal edge. The two confirmation
///   bypasses keep their specific messages (they are what the golden
///   traces exist to catch): `Confirmed` is only reachable from `Tracking`
///   — software confirmation cannot be skipped — and `Offloading` is only
///   re-entered from `Confirmed` — hardware never resumes without a
///   confirmed record boundary.
pub fn check_resync_transitions(resync: &[(ResyncPhase, ResyncPhase)]) -> Vec<String> {
    let mut problems = Vec::new();
    let mut prev = ResyncPhase::Offloading;
    for (i, &(from, to)) in resync.iter().enumerate() {
        if from != prev {
            problems.push(format!(
                "transition {i}: starts from {from:?} but the engine was in {prev:?}"
            ));
        }
        if from == to {
            problems.push(format!("transition {i}: self-loop {from:?}->{to:?}"));
        } else if to == ResyncPhase::Confirmed && from != ResyncPhase::Tracking {
            problems.push(format!(
                "transition {i}: {from:?}->Confirmed skips software confirmation \
                 (only Tracking->Confirmed is legal)"
            ));
        } else if to == ResyncPhase::Offloading && from != ResyncPhase::Confirmed {
            problems.push(format!(
                "transition {i}: {from:?}->Offloading resumes hardware without a \
                 confirmed boundary (only Confirmed->Offloading is legal)"
            ));
        } else if !LEGAL_EDGES.contains(&(from, to)) {
            problems.push(format!(
                "transition {i}: {from:?}->{to:?} is not a legal §4.3 edge"
            ));
        }
        prev = to;
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;
    use ResyncPhase::{Confirmed, Offloading, Searching, Tracking};

    #[test]
    fn full_ladder_is_legal() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        assert!(check_resync_transitions(&edges).is_empty());
    }

    /// The magic-pattern false positive: a candidate that software rejects
    /// falls back from Tracking to Searching. A legal episode — the engine
    /// just searches again.
    #[test]
    fn false_positive_tracking_to_searching_is_legal() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Searching),
            (Searching, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        assert!(check_resync_transitions(&edges).is_empty());
    }

    /// The mutation the golden traces and this checker both exist to catch:
    /// resuming offload straight from an unconfirmed candidate.
    #[test]
    fn skipping_confirmation_is_flagged() {
        let edges = [
            (Offloading, Searching),
            (Searching, Tracking),
            (Tracking, Offloading),
        ];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("without a confirmed boundary"), "{p:?}");
    }

    /// Jumping Searching→Confirmed (hardware "confirming" its own guess)
    /// is the other confirmation bypass.
    #[test]
    fn searching_to_confirmed_is_flagged() {
        let edges = [(Offloading, Searching), (Searching, Confirmed)];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("skips software confirmation"), "{p:?}");
    }

    /// The generic table check catches edges the two targeted messages
    /// don't: Offloading->Tracking skips the search phase entirely.
    #[test]
    fn edge_outside_the_table_is_flagged() {
        let edges = [
            (Offloading, Tracking),
            (Tracking, Confirmed),
            (Confirmed, Offloading),
        ];
        let p = check_resync_transitions(&edges);
        assert_eq!(p.len(), 1, "{p:?}");
        assert!(p[0].contains("not a legal"), "{p:?}");
    }

    /// The spec-side table must agree with the code-side declaration in
    /// the rx engine over the whole phase space (ano-lint re-checks this
    /// statically from the source text; this pins it at runtime).
    #[test]
    fn table_matches_rx_engine_declaration() {
        let phases = [Offloading, Searching, Tracking, Confirmed];
        for &f in &phases {
            for &t in &phases {
                assert_eq!(
                    ano_core::rx::legal_transition(f, t),
                    LEGAL_EDGES.contains(&(f, t)),
                    "{f:?}->{t:?} disagrees between rx.rs and LEGAL_EDGES"
                );
            }
        }
    }

    #[test]
    fn broken_chain_is_flagged() {
        let edges = [(Offloading, Searching), (Tracking, Confirmed)];
        let p = check_resync_transitions(&edges);
        assert!(p.iter().any(|m| m.contains("was in Searching")), "{p:?}");
    }

    #[test]
    fn render_ladder_reads_left_to_right() {
        let edges = [(Offloading, Searching), (Searching, Tracking)];
        assert_eq!(render_ladder(&edges), "Offloading->Searching->Tracking");
    }

    #[test]
    fn watchdog_fires_on_undeclared_stall_and_rearms() {
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![], SimTime::ZERO);
        assert!(wd.observe(SimTime::from_millis(1), 10, 1000).is_none());
        assert!(wd.observe(SimTime::from_millis(12), 10, 1000).is_some());
        // Re-armed: quiet for another full window, then fires again.
        assert!(wd.observe(SimTime::from_millis(13), 10, 1000).is_none());
        assert!(wd.observe(SimTime::from_millis(24), 10, 1000).is_some());
    }

    #[test]
    fn watchdog_suspends_inside_declared_outage_then_rearms_at_repair() {
        let dark = (SimTime::from_millis(5), SimTime::from_millis(100));
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![dark], SimTime::ZERO);
        assert!(wd.observe(SimTime::from_millis(1), 10, 1000).is_none());
        // Silent far past the budget, but inside the declared window.
        for ms in [20, 50, 99] {
            assert!(wd.observe(SimTime::from_millis(ms), 10, 1000).is_none(), "t={ms}ms");
        }
        // Repair at 100ms: recovery gets one full fresh budget...
        assert!(wd.observe(SimTime::from_millis(105), 10, 1000).is_none());
        // ...and only then does continued silence become a violation.
        assert!(wd.observe(SimTime::from_millis(111), 10, 1000).is_some());
    }

    #[test]
    fn watchdog_stands_down_once_the_target_is_reached() {
        let mut wd = ProgressWatchdog::new(SimDuration::from_millis(10), vec![], SimTime::ZERO);
        assert!(wd.observe(SimTime::from_millis(1), 1000, 1000).is_none());
        assert!(wd.observe(SimTime::from_secs(5), 1000, 1000).is_none());
    }
}
