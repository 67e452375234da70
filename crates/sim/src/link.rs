//! Point-to-point link model with impairments.
//!
//! A [`Link`] is a unidirectional pipe with a serialization rate, a
//! propagation delay, and optional impairments matching the paper's §6.4
//! methodology, where loss and reordering are injected at rates of 0–5%.
//!
//! Impairments come in two flavours that compose freely:
//!
//! * **probabilistic** knobs (`loss`, `reorder`, `duplicate`, `corrupt`) —
//!   each packet draws independently from the link RNG;
//! * a **scripted** [`Script`] — a deterministic per-packet schedule keyed
//!   on the link-local packet index (offer order) or on simulated time.
//!   Scripts express the adversarial cases the probabilistic knobs cannot:
//!   *drop exactly the Nth packet*, burst loss, payload corruption, delay
//!   spikes, temporary partitions, and (by installing a script on only one
//!   direction) asymmetric ACK-path impairment.
//!
//! The link does not carry payload bytes — the caller schedules the payload
//! per returned [`Delivery`] — so corruption is signalled back through
//! [`Delivery::corrupt`] and applied by the caller.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// What a scripted rule does to a matching packet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScriptAction {
    /// Drop the packet.
    Drop,
    /// Deliver the packet with its payload corrupted (the caller flips
    /// bytes; see [`Delivery::corrupt`]).
    Corrupt,
    /// Deliver the packet after an extra delay (a latency spike; late
    /// enough and it reorders past its successors).
    Delay(SimDuration),
    /// Deliver the packet twice.
    Duplicate,
}

/// Which packets a scripted rule applies to.
#[derive(Clone, Debug, PartialEq)]
pub enum Match {
    /// Exactly the `n`-th packet offered to this link (0-based).
    Nth(u64),
    /// Every packet with offer index in `[start, end)` — a burst.
    Range(u64, u64),
    /// Packet `i` matches if `pattern[i % pattern.len()]` holds and
    /// `i < until` — cyclic schedules (e.g. "drop every other packet for a
    /// while"), the format the PR-1 alternating-drop regression replays in.
    Cycle {
        /// The repeating mask.
        pattern: Vec<bool>,
        /// First index the cycle no longer applies to.
        until: u64,
    },
    /// Every packet *offered* in the sim-time window `[from, to)` — with
    /// [`ScriptAction::Drop`] this is a temporary partition.
    Window(SimTime, SimTime),
}

impl Match {
    /// Whether a rule with this matcher applies to operation number `index`
    /// happening at `now`. Public so other scripted fault models (the NIC's
    /// `DeviceFaults` in `ano-core`) reuse the exact same matching rules.
    pub fn hits(&self, index: u64, now: SimTime) -> bool {
        match self {
            Match::Nth(n) => index == *n,
            Match::Range(s, e) => (*s..*e).contains(&index),
            Match::Cycle { pattern, until } => {
                !pattern.is_empty() && index < *until && pattern[(index % pattern.len() as u64) as usize]
            }
            Match::Window(from, to) => (*from..*to).contains(&now),
        }
    }
}

/// One scripted impairment rule.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Which packets the rule hits.
    pub when: Match,
    /// What happens to them.
    pub action: ScriptAction,
}

/// A deterministic per-packet impairment schedule.
///
/// Rules accumulate: all rules matching a packet apply ([`ScriptAction::Drop`]
/// wins over everything else; delays add up).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Script {
    rules: Vec<Rule>,
}

impl Script {
    /// The empty schedule (no scripted impairments).
    pub fn none() -> Script {
        Script::default()
    }

    /// True if the schedule has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The rules, in application order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Adds a rule (builder-style).
    pub fn with(mut self, when: Match, action: ScriptAction) -> Script {
        self.rules.push(Rule { when, action });
        self
    }

    /// Drops exactly the `n`-th packet.
    pub fn drop_nth(n: u64) -> Script {
        Script::none().with(Match::Nth(n), ScriptAction::Drop)
    }

    /// Drops every packet in `[start, end)` — a loss burst.
    pub fn drop_burst(start: u64, end: u64) -> Script {
        Script::none().with(Match::Range(start, end), ScriptAction::Drop)
    }

    /// Drops an explicit set of packet indices.
    pub fn drop_indices(indices: &[u64]) -> Script {
        let mut s = Script::none();
        for &i in indices {
            s = s.with(Match::Nth(i), ScriptAction::Drop);
        }
        s
    }

    /// Drops packet `i` when `pattern[i % len]` holds, for `i < until`.
    pub fn drop_cycle(pattern: Vec<bool>, until: u64) -> Script {
        Script::none().with(Match::Cycle { pattern, until }, ScriptAction::Drop)
    }

    /// Corrupts exactly the `n`-th packet's payload.
    pub fn corrupt_nth(n: u64) -> Script {
        Script::none().with(Match::Nth(n), ScriptAction::Corrupt)
    }

    /// Delays every packet in `[start, end)` by `extra` — a latency spike.
    pub fn delay_burst(start: u64, end: u64, extra: SimDuration) -> Script {
        Script::none().with(Match::Range(start, end), ScriptAction::Delay(extra))
    }

    /// Duplicates every packet in `[start, end)`.
    pub fn duplicate_burst(start: u64, end: u64) -> Script {
        Script::none().with(Match::Range(start, end), ScriptAction::Duplicate)
    }

    /// Drops everything offered during `[from, to)` — a temporary partition.
    pub fn partition(from: SimTime, to: SimTime) -> Script {
        Script::none().with(Match::Window(from, to), ScriptAction::Drop)
    }

    /// The latest sim-time any [`Match::Window`] rule extends to, if any —
    /// callers use this to know when a scripted partition is over.
    pub fn last_window_end(&self) -> Option<SimTime> {
        self.rules
            .iter()
            .filter_map(|r| match r.when {
                Match::Window(_, to) => Some(to),
                _ => None,
            })
            .max()
    }

    /// Would this schedule drop packet `index` offered at `now`?
    ///
    /// This is the schedule's decision procedure, exposed so harnesses can
    /// use a `Script` as a drop oracle outside a [`Link`] (e.g. replaying a
    /// historical pump-loop regression through the scenario format).
    pub fn drops(&self, index: u64, now: SimTime) -> bool {
        self.rules
            .iter()
            .any(|r| r.action == ScriptAction::Drop && r.when.hits(index, now))
    }

    /// Collects every action applying to packet `index` offered at `now`.
    fn actions(&self, index: u64, now: SimTime) -> Vec<ScriptAction> {
        self.rules
            .iter()
            .filter(|r| r.when.hits(index, now))
            .map(|r| r.action)
            .collect()
    }
}

/// Per-packet impairments applied by a link: probabilistic knobs plus an
/// optional deterministic [`Script`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Impairments {
    /// Probability a packet is dropped.
    pub loss: f64,
    /// Probability a packet is delayed past its successors (reordered).
    pub reorder: f64,
    /// Extra delay range applied to reordered packets, in nanoseconds.
    pub reorder_extra_ns: (u64, u64),
    /// Probability a packet is delivered twice.
    pub duplicate: f64,
    /// Probability a packet's payload is corrupted in flight.
    pub corrupt: f64,
    /// Deterministic per-packet schedule, applied before the probabilistic
    /// knobs.
    pub script: Script,
}

impl Impairments {
    /// No impairments.
    pub fn none() -> Impairments {
        Impairments::default()
    }

    /// Loss-only impairment at probability `p`.
    pub fn loss(p: f64) -> Impairments {
        Impairments {
            loss: p,
            ..Default::default()
        }
    }

    /// Reordering-only impairment at probability `p`, with an extra delay of
    /// 50–500 µs (a few wire RTTs, enough to displace several packets).
    pub fn reorder(p: f64) -> Impairments {
        Impairments {
            reorder: p,
            reorder_extra_ns: (50_000, 500_000),
            ..Default::default()
        }
    }

    /// Corruption-only impairment at probability `p`.
    pub fn corrupt(p: f64) -> Impairments {
        Impairments {
            corrupt: p,
            ..Default::default()
        }
    }

    /// A purely scripted schedule (no probabilistic impairments).
    pub fn scripted(script: Script) -> Impairments {
        Impairments {
            script,
            ..Default::default()
        }
    }
}

/// What state a link is in with respect to fleet-level chaos operations.
///
/// Orthogonal to [`Impairments`]: impairments perturb packets the link still
/// carries, while a mode decides whether the link carries anything at all.
/// Group operations on [`LinkRegistry`] flip modes over host subsets.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum LinkMode {
    /// Carrying traffic normally (impairments still apply).
    #[default]
    Normal,
    /// Declared dark by a chaos plan: every offered frame vanishes and is
    /// counted under [`LinkStats::partitioned`], not [`LinkStats::lost`] —
    /// invariants can tell "the link ate it" from "chaos declared it dark".
    Partitioned,
    /// Frames are computed as usual but the caller must buffer the resulting
    /// deliveries until [`LinkMode::Normal`] is restored (the link carries no
    /// payloads, so the hold queue lives with the caller that owns the
    /// packet events). Models a stalled-but-not-severed path: an asymmetric
    /// ACK-path outage that later flushes in order.
    Held,
}

/// Counters describing what a link did so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets handed to the link.
    pub offered: u64,
    /// Packets delivered (duplicates count once per delivery).
    pub delivered: u64,
    /// Packets dropped by the loss process (probabilistic or scripted).
    pub lost: u64,
    /// Packets swallowed while the link was [`LinkMode::Partitioned`] —
    /// deliberately *not* part of `lost`, so loss accounting stays honest
    /// about what the impairment model did versus what chaos declared.
    pub partitioned: u64,
    /// Packets given extra reordering/spike delay.
    pub reordered: u64,
    /// Extra deliveries due to duplication.
    pub duplicated: u64,
    /// Packets delivered with a corrupted payload.
    pub corrupted: u64,
    /// Total payload bytes offered.
    pub bytes: u64,
}

/// One delivery at the far end of a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Delivery {
    /// Arrival time at the receiver.
    pub at: SimTime,
    /// The link held this copy back on purpose (reordering, a scripted
    /// delay, or the second copy of a duplicate): it may arrive after
    /// frames offered later. Undelayed arrivals never decrease.
    pub delayed: bool,
    /// The payload was corrupted in flight: the caller must flip payload
    /// bytes before handing the packet up (the link itself never sees
    /// payload contents).
    pub corrupt: bool,
}

/// A unidirectional link.
///
/// # Examples
///
/// ```
/// use ano_sim::link::{Impairments, Link};
/// use ano_sim::rng::SimRng;
/// use ano_sim::time::{SimDuration, SimTime};
///
/// let mut link = Link::new(100_000_000_000, SimDuration::from_micros(2), Impairments::none());
/// let mut rng = SimRng::seed(1);
/// let deliveries = link.transmit(SimTime::ZERO, 1500, &mut rng);
/// assert_eq!(deliveries.len(), 1);
/// assert!(!deliveries[0].corrupt);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    rate_bps: u64,
    /// `rate_bps / 1 Gbps` when the rate is a whole number of Gbit/s — the
    /// serialization delay then divides by a small constant the compiler
    /// strength-reduces instead of a 64-bit `div` per transmitted frame.
    gbps: Option<u64>,
    propagation: SimDuration,
    impair: Impairments,
    mode: LinkMode,
    busy_until: SimTime,
    stats: LinkStats,
}

impl Link {
    /// Creates a link with serialization rate `rate_bps` (bits/second) and
    /// one-way propagation delay.
    ///
    /// # Panics
    ///
    /// Panics if `rate_bps` is zero.
    pub fn new(rate_bps: u64, propagation: SimDuration, impair: Impairments) -> Link {
        assert!(rate_bps > 0, "link rate must be positive");
        let gbps = (rate_bps % 1_000_000_000 == 0).then(|| rate_bps / 1_000_000_000);
        Link {
            rate_bps,
            gbps,
            propagation,
            impair,
            mode: LinkMode::Normal,
            busy_until: SimTime::ZERO,
            stats: LinkStats::default(),
        }
    }

    /// The link's current chaos mode.
    pub fn mode(&self) -> LinkMode {
        self.mode
    }

    /// Sets the chaos mode (see [`LinkMode`]). Mode changes are control-plane
    /// operations; in-flight deliveries already returned by
    /// [`Link::transmit_into`] are unaffected.
    pub fn set_mode(&mut self, mode: LinkMode) {
        self.mode = mode;
    }

    /// True while the link is declared dark by a partition.
    pub fn is_partitioned(&self) -> bool {
        self.mode == LinkMode::Partitioned
    }

    /// True while deliveries must be buffered by the caller.
    pub fn is_held(&self) -> bool {
        self.mode == LinkMode::Held
    }

    /// Replaces the impairment configuration.
    pub fn set_impairments(&mut self, impair: Impairments) {
        self.impair = impair;
    }

    /// Replaces only the scripted schedule, keeping probabilistic knobs.
    pub fn set_script(&mut self, script: Script) {
        self.impair.script = script;
    }

    /// The current impairment configuration.
    pub fn impairments(&self) -> &Impairments {
        &self.impair
    }

    /// The link's serialization rate in bits per second.
    pub fn rate_bps(&self) -> u64 {
        self.rate_bps
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Serialization time of a `wire_bytes`-sized frame.
    pub fn serialization(&self, wire_bytes: usize) -> SimDuration {
        let bits = wire_bytes as u64 * 8;
        // Whole-Gbit/s rates divide by a small constant (strength-reduced
        // to a multiply); the fallback is the exact same arithmetic.
        let ns = match self.gbps {
            Some(1) => bits,
            Some(10) => bits / 10,
            Some(25) => bits / 25,
            Some(40) => bits / 40,
            Some(100) => bits / 100,
            Some(400) => bits / 400,
            _ => bits.saturating_mul(1_000_000_000) / self.rate_bps,
        };
        SimDuration::from_nanos(ns)
    }

    /// Offers one frame to the link at time `now`; returns the deliveries
    /// at the far end (empty if lost, two entries if duplicated).
    ///
    /// Frames queue behind one another: the wire serializes one frame at a
    /// time, so delivery order (absent reordering) matches offer order.
    pub fn transmit(&mut self, now: SimTime, wire_bytes: usize, rng: &mut SimRng) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.transmit_into(now, wire_bytes, rng, &mut out);
        out
    }

    /// Like [`Link::transmit`], but appends deliveries to a caller-owned
    /// buffer instead of allocating a fresh `Vec` per packet. The hot path
    /// keeps one burst buffer alive across the whole run; `transmit` stays
    /// as a convenience wrapper for tests and cold callers. Appends nothing
    /// when the packet is dropped.
    pub fn transmit_into(
        &mut self,
        now: SimTime,
        wire_bytes: usize,
        rng: &mut SimRng,
        out: &mut Vec<Delivery>,
    ) {
        let index = self.stats.offered;
        self.stats.offered += 1;
        self.stats.bytes += wire_bytes as u64;

        // A partitioned link swallows the frame before it ever reaches the
        // wire: no serialization, no RNG draws (so the probabilistic
        // impairment stream is untouched by chaos declarations), and the
        // drop is accounted separately from the loss process.
        if self.mode == LinkMode::Partitioned {
            self.stats.partitioned += 1;
            return;
        }

        let start = now.max(self.busy_until);
        let done = start + self.serialization(wire_bytes);
        self.busy_until = done;

        // Scripted schedule first: deterministic, independent of the RNG.
        let scripted = self.impair.script.actions(index, now);
        if scripted.contains(&ScriptAction::Drop) {
            self.stats.lost += 1;
            return;
        }
        let mut corrupt = scripted.contains(&ScriptAction::Corrupt);
        let mut extra = SimDuration::ZERO;
        for a in &scripted {
            if let ScriptAction::Delay(d) = a {
                extra = extra + *d;
            }
        }
        let mut dup = scripted.contains(&ScriptAction::Duplicate);

        // Probabilistic knobs on top.
        if rng.chance(self.impair.loss) {
            self.stats.lost += 1;
            return;
        }
        if rng.chance(self.impair.reorder) {
            let (lo, hi) = self.impair.reorder_extra_ns;
            extra = extra + SimDuration::from_nanos(if hi > lo { rng.range_u64(lo, hi) } else { lo });
        }
        corrupt |= rng.chance(self.impair.corrupt);
        dup |= rng.chance(self.impair.duplicate);

        if extra > SimDuration::ZERO {
            self.stats.reordered += 1;
        }
        let arrival = done + self.propagation + extra;
        let mut count = 1u64;
        out.push(Delivery {
            at: arrival,
            corrupt,
            delayed: extra > SimDuration::ZERO,
        });
        if dup {
            // Both copies of a duplicated corrupt frame carry the corruption.
            out.push(Delivery {
                at: arrival + SimDuration::from_micros(5),
                corrupt,
                delayed: true,
            });
            self.stats.duplicated += 1;
            count = 2;
        }
        self.stats.delivered += count;
        self.stats.corrupted += if corrupt { count } else { 0 };
    }
}

/// A directed-pair link registry: the wiring of a multi-host topology.
///
/// Each `(src, dst)` host pair owns at most one unidirectional [`Link`].
/// Registration hands back a dense `u32` id; the per-packet transmit path
/// resolves ids with [`LinkRegistry::by_id_mut`] (a plain `Vec` index, so
/// fan-out over thousands of flows pays no map lookup), while control-plane
/// callers (impairment sweeps, partitions, stats) address links by host
/// pair.
#[derive(Debug, Default)]
pub struct LinkRegistry {
    links: Vec<Link>,
    index: std::collections::BTreeMap<(u16, u16), u32>,
}

impl LinkRegistry {
    /// An empty registry.
    pub fn new() -> LinkRegistry {
        LinkRegistry::default()
    }

    /// Registers the `src → dst` link and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if the pair already has a link (topology wiring is static;
    /// mutate the existing link instead of replacing it).
    pub fn add(&mut self, src: u16, dst: u16, link: Link) -> u32 {
        let id = self.links.len() as u32;
        let prev = self.index.insert((src, dst), id);
        assert!(prev.is_none(), "duplicate link {src} -> {dst}");
        self.links.push(link);
        id
    }

    /// The id of the `src → dst` link, if registered.
    pub fn id(&self, src: u16, dst: u16) -> Option<u32> {
        self.index.get(&(src, dst)).copied()
    }

    /// Resolves an id handed out by [`LinkRegistry::add`] (hot path).
    ///
    /// # Panics
    ///
    /// Panics on an id this registry never issued.
    pub fn by_id_mut(&mut self, id: u32) -> &mut Link {
        &mut self.links[id as usize]
    }

    /// Read access by id.
    pub fn by_id(&self, id: u32) -> &Link {
        &self.links[id as usize]
    }

    /// The `src → dst` link, if registered.
    pub fn between(&self, src: u16, dst: u16) -> Option<&Link> {
        self.id(src, dst).map(|i| &self.links[i as usize])
    }

    /// Mutable access by host pair (impairment and script installs).
    pub fn between_mut(&mut self, src: u16, dst: u16) -> Option<&mut Link> {
        self.id(src, dst).map(|i| &mut self.links[i as usize])
    }

    /// Severs every registered link crossing between the two host groups —
    /// both directions — by flipping it to [`LinkMode::Partitioned`].
    /// Frames offered while dark are swallowed and counted under
    /// [`LinkStats::partitioned`]. Links wholly inside one group are
    /// untouched, so the rest of the fleet keeps running at full rate.
    ///
    /// Returns the affected `(src, dst)` pairs in pair order, so callers can
    /// trace one `link.partition` event per severed direction.
    pub fn partition(&mut self, hosts_a: &[u16], hosts_b: &[u16]) -> Vec<(u16, u16)> {
        self.set_mode_crossing(hosts_a, hosts_b, LinkMode::Partitioned)
    }

    /// Undoes [`LinkRegistry::partition`] for every link crossing between
    /// the two groups: flips them back to [`LinkMode::Normal`] (this also
    /// releases held links crossing the cut). Returns the affected pairs.
    pub fn repair(&mut self, hosts_a: &[u16], hosts_b: &[u16]) -> Vec<(u16, u16)> {
        self.set_mode_crossing(hosts_a, hosts_b, LinkMode::Normal)
    }

    fn set_mode_crossing(
        &mut self,
        hosts_a: &[u16],
        hosts_b: &[u16],
        mode: LinkMode,
    ) -> Vec<(u16, u16)> {
        let mut touched = Vec::new();
        for (&(src, dst), &id) in &self.index {
            let crosses = (hosts_a.contains(&src) && hosts_b.contains(&dst))
                || (hosts_b.contains(&src) && hosts_a.contains(&dst));
            if crosses {
                self.links[id as usize].set_mode(mode);
                touched.push((src, dst));
            }
        }
        touched
    }

    /// Stalls the `src → dst` direction: deliveries keep being computed but
    /// the caller must buffer them until [`LinkRegistry::release`] (see
    /// [`LinkMode::Held`]). The reverse direction is untouched — this is the
    /// asymmetric-outage primitive.
    ///
    /// # Panics
    ///
    /// Panics when the pair has no registered link.
    pub fn hold(&mut self, src: u16, dst: u16) {
        self.between_mut(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .set_mode(LinkMode::Held);
    }

    /// Restores a held `src → dst` direction to [`LinkMode::Normal`]; the
    /// caller then flushes whatever it buffered.
    ///
    /// # Panics
    ///
    /// Panics when the pair has no registered link.
    pub fn release(&mut self, src: u16, dst: u16) {
        self.between_mut(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .set_mode(LinkMode::Normal);
    }

    /// Installs a scripted schedule on the `src → dst` link, keeping its
    /// probabilistic knobs (the registry-level spelling of
    /// [`Link::set_script`], so chaos plans address links by host pair).
    ///
    /// # Panics
    ///
    /// Panics when the pair has no registered link.
    pub fn set_script_between(&mut self, src: u16, dst: u16, script: Script) {
        self.between_mut(src, dst)
            .unwrap_or_else(|| panic!("no link {src} -> {dst}"))
            .set_script(script);
    }

    /// Installs the same impairment configuration on every link crossing
    /// between the two host groups (both directions): "this client's links
    /// are lossy", without touching the rest of the mesh. Returns the
    /// affected pairs.
    pub fn impair_crossing(
        &mut self,
        hosts_a: &[u16],
        hosts_b: &[u16],
        impair: &Impairments,
    ) -> Vec<(u16, u16)> {
        let mut touched = Vec::new();
        for (&(src, dst), &id) in &self.index {
            let crosses = (hosts_a.contains(&src) && hosts_b.contains(&dst))
                || (hosts_b.contains(&src) && hosts_a.contains(&dst));
            if crosses {
                self.links[id as usize].set_impairments(impair.clone());
                touched.push((src, dst));
            }
        }
        touched
    }

    /// Number of registered links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no links are registered.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Iterates `((src, dst), link)` in host-pair order.
    pub fn iter(&self) -> impl Iterator<Item = ((u16, u16), &Link)> {
        self.index.iter().map(|(&pair, &id)| (pair, &self.links[id as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbps(g: u64) -> u64 {
        g * 1_000_000_000
    }

    #[test]
    fn registry_ids_are_dense_and_pair_addressed() {
        let mut reg = LinkRegistry::new();
        let a = reg.add(0, 1, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
        let b = reg.add(1, 0, Link::new(gbps(10), SimDuration::ZERO, Impairments::none()));
        assert_eq!((a, b), (0, 1));
        assert_eq!(reg.id(0, 1), Some(0));
        assert_eq!(reg.id(2, 0), None);
        assert_eq!(reg.by_id(b).rate_bps(), gbps(10));
        assert_eq!(reg.between(1, 0).map(|l| l.rate_bps()), Some(gbps(10)));
        reg.between_mut(0, 1).expect("registered").set_impairments(Impairments::loss(0.5));
        assert_eq!(reg.by_id(a).impairments().loss, 0.5);
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.iter().count(), 2);
    }

    #[test]
    #[should_panic]
    fn registry_rejects_duplicate_pairs() {
        let mut reg = LinkRegistry::new();
        reg.add(0, 1, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
        reg.add(0, 1, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
    }

    #[test]
    fn serialization_matches_rate() {
        let link = Link::new(gbps(100), SimDuration::ZERO, Impairments::none());
        // 1500 B at 100 Gbps = 120 ns.
        assert_eq!(link.serialization(1500), SimDuration::from_nanos(120));
    }

    #[test]
    fn frames_queue_behind_each_other() {
        let mut link = Link::new(gbps(1), SimDuration::from_micros(1), Impairments::none());
        let mut rng = SimRng::seed(1);
        let a = link.transmit(SimTime::ZERO, 1250, &mut rng)[0].at; // 10 us ser
        let b = link.transmit(SimTime::ZERO, 1250, &mut rng)[0].at;
        assert_eq!(a, SimTime::from_micros(11));
        assert_eq!(b, SimTime::from_micros(21), "second frame waits for the wire");
    }

    #[test]
    fn loss_drops_roughly_p() {
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::loss(0.05));
        let mut rng = SimRng::seed(2);
        for _ in 0..20_000 {
            link.transmit(SimTime::ZERO, 100, &mut rng);
        }
        let lost = link.stats().lost;
        assert!((800..1200).contains(&lost), "5% of 20000 ~ {lost}");
    }

    #[test]
    fn reordered_frames_arrive_late() {
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::reorder(1.0));
        let mut rng = SimRng::seed(3);
        let t = link.transmit(SimTime::ZERO, 100, &mut rng)[0].at;
        assert!(t >= SimTime::from_micros(50));
        assert_eq!(link.stats().reordered, 1);
    }

    #[test]
    fn duplicates_deliver_twice() {
        let imp = Impairments {
            duplicate: 1.0,
            ..Default::default()
        };
        let mut link = Link::new(gbps(100), SimDuration::ZERO, imp);
        let mut rng = SimRng::seed(4);
        let d = link.transmit(SimTime::ZERO, 100, &mut rng);
        assert_eq!(d.len(), 2);
        assert!(d[1].at > d[0].at);
    }

    #[test]
    fn corrupt_flags_delivery_and_counts() {
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::corrupt(1.0));
        let mut rng = SimRng::seed(5);
        let d = link.transmit(SimTime::ZERO, 100, &mut rng);
        assert_eq!(d.len(), 1);
        assert!(d[0].corrupt, "delivered but marked corrupt");
        let s = link.stats();
        assert_eq!((s.delivered, s.corrupted, s.lost), (1, 1, 0));
    }

    #[test]
    fn script_drops_exactly_the_nth() {
        let mut link = Link::new(
            gbps(100),
            SimDuration::ZERO,
            Impairments::scripted(Script::drop_nth(2)),
        );
        let mut rng = SimRng::seed(6);
        let counts: Vec<usize> = (0..5)
            .map(|_| link.transmit(SimTime::ZERO, 100, &mut rng).len())
            .collect();
        assert_eq!(counts, vec![1, 1, 0, 1, 1]);
        assert_eq!(link.stats().lost, 1);
    }

    #[test]
    fn script_burst_and_corrupt_compose() {
        let script = Script::drop_burst(1, 3).with(Match::Nth(4), ScriptAction::Corrupt);
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::scripted(script));
        let mut rng = SimRng::seed(7);
        let mut outcomes = Vec::new();
        for _ in 0..5 {
            let d = link.transmit(SimTime::ZERO, 100, &mut rng);
            outcomes.push((d.len(), d.first().is_some_and(|d| d.corrupt)));
        }
        assert_eq!(
            outcomes,
            vec![(1, false), (0, false), (0, false), (1, false), (1, true)]
        );
        let s = link.stats();
        assert_eq!((s.lost, s.corrupted), (2, 1));
    }

    #[test]
    fn script_cycle_matches_bool_schedule() {
        let pattern = vec![false, true, true, false];
        let script = Script::drop_cycle(pattern.clone(), 6);
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::scripted(script.clone()));
        let mut rng = SimRng::seed(8);
        for i in 0..10u64 {
            let expect_drop = i < 6 && pattern[(i % 4) as usize];
            assert_eq!(script.drops(i, SimTime::ZERO), expect_drop, "oracle at {i}");
            let d = link.transmit(SimTime::ZERO, 100, &mut rng);
            assert_eq!(d.is_empty(), expect_drop, "link at {i}");
        }
    }

    #[test]
    fn script_partition_drops_by_time_window() {
        let from = SimTime::from_micros(100);
        let to = SimTime::from_micros(200);
        let script = Script::partition(from, to);
        assert_eq!(script.last_window_end(), Some(to));
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::scripted(script));
        let mut rng = SimRng::seed(9);
        assert_eq!(link.transmit(SimTime::from_micros(50), 100, &mut rng).len(), 1);
        assert!(link.transmit(SimTime::from_micros(150), 100, &mut rng).is_empty());
        assert_eq!(link.transmit(SimTime::from_micros(250), 100, &mut rng).len(), 1);
    }

    #[test]
    fn script_delay_spike_arrives_late() {
        let script = Script::delay_burst(0, 1, SimDuration::from_micros(300));
        let mut link = Link::new(gbps(100), SimDuration::from_micros(1), Impairments::scripted(script));
        let mut rng = SimRng::seed(10);
        let spiked = link.transmit(SimTime::ZERO, 100, &mut rng)[0].at;
        let normal = link.transmit(SimTime::ZERO, 100, &mut rng)[0].at;
        assert!(spiked > normal + SimDuration::from_micros(250), "spike displaced the packet");
        assert_eq!(link.stats().reordered, 1);
    }

    #[test]
    #[should_panic]
    fn zero_rate_rejected() {
        let _ = Link::new(0, SimDuration::ZERO, Impairments::none());
    }

    #[test]
    fn partitioned_mode_swallows_without_counting_loss() {
        let mut link = Link::new(gbps(100), SimDuration::ZERO, Impairments::none());
        let mut rng = SimRng::seed(11);
        assert_eq!(link.mode(), LinkMode::Normal);
        link.set_mode(LinkMode::Partitioned);
        assert!(link.is_partitioned());
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_empty());
        assert!(link.transmit(SimTime::ZERO, 100, &mut rng).is_empty());
        link.set_mode(LinkMode::Normal);
        assert_eq!(link.transmit(SimTime::ZERO, 100, &mut rng).len(), 1);
        let s = link.stats();
        assert_eq!((s.offered, s.partitioned, s.lost, s.delivered), (3, 2, 0, 1));
    }

    #[test]
    fn partitioned_mode_does_not_advance_rng_or_wire() {
        // Two identical links, same seed; one is partitioned for the first
        // two frames. After repair the RNG-driven outcomes must realign —
        // the dark interval consumed no draws and no wire time.
        let imp = Impairments::loss(0.5);
        let mut dark = Link::new(gbps(1), SimDuration::ZERO, imp.clone());
        let mut fine = Link::new(gbps(1), SimDuration::ZERO, imp);
        let mut rng_dark = SimRng::seed(12);
        let mut rng_fine = SimRng::seed(12);
        dark.set_mode(LinkMode::Partitioned);
        for _ in 0..2 {
            assert!(dark.transmit(SimTime::ZERO, 1250, &mut rng_dark).is_empty());
        }
        dark.set_mode(LinkMode::Normal);
        for _ in 0..32 {
            let a = dark.transmit(SimTime::from_millis(1), 1250, &mut rng_dark);
            let b = fine.transmit(SimTime::from_millis(1), 1250, &mut rng_fine);
            assert_eq!(a, b, "post-repair stream identical to never-dark twin");
        }
    }

    #[test]
    fn held_mode_still_computes_deliveries() {
        let mut link = Link::new(gbps(100), SimDuration::from_micros(2), Impairments::none());
        let mut rng = SimRng::seed(13);
        link.set_mode(LinkMode::Held);
        assert!(link.is_held());
        // The link computes the delivery as usual — buffering is the
        // caller's job (the link carries no payloads).
        let d = link.transmit(SimTime::ZERO, 1500, &mut rng);
        assert_eq!(d.len(), 1);
        assert_eq!(link.stats().delivered, 1);
    }

    #[test]
    fn registry_partitions_and_repairs_crossing_links_only() {
        // 2 clients (0, 1) x 2 servers (2, 3), fully meshed both ways.
        let mut reg = LinkRegistry::new();
        for c in 0..2u16 {
            for s in 2..4u16 {
                reg.add(c, s, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
                reg.add(s, c, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
            }
        }
        // Rack-dark: server 3 severed from every client, both directions.
        let cut = reg.partition(&[0, 1], &[3]);
        assert_eq!(cut, vec![(0, 3), (1, 3), (3, 0), (3, 1)]);
        for &(src, dst) in &cut {
            assert!(reg.between(src, dst).expect("wired").is_partitioned());
        }
        // Server 2's links are untouched.
        assert!(!reg.between(0, 2).expect("wired").is_partitioned());
        assert!(!reg.between(2, 1).expect("wired").is_partitioned());
        let healed = reg.repair(&[0, 1], &[3]);
        assert_eq!(healed, cut);
        assert!(!reg.between(3, 0).expect("wired").is_partitioned());
    }

    #[test]
    fn registry_hold_and_release_are_directional() {
        let mut reg = LinkRegistry::new();
        reg.add(0, 1, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
        reg.add(1, 0, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
        reg.hold(1, 0);
        assert!(reg.between(1, 0).expect("wired").is_held());
        assert!(!reg.between(0, 1).expect("wired").is_held(), "forward path unaffected");
        reg.release(1, 0);
        assert!(!reg.between(1, 0).expect("wired").is_held());
    }

    #[test]
    fn registry_group_impair_and_script_target_subsets() {
        let mut reg = LinkRegistry::new();
        for c in 0..2u16 {
            reg.add(c, 2, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
            reg.add(2, c, Link::new(gbps(100), SimDuration::ZERO, Impairments::none()));
        }
        // Only client 1's pair turns lossy.
        let touched = reg.impair_crossing(&[1], &[2], &Impairments::loss(0.1));
        assert_eq!(touched, vec![(1, 2), (2, 1)]);
        assert_eq!(reg.between(1, 2).expect("wired").impairments().loss, 0.1);
        assert_eq!(reg.between(0, 2).expect("wired").impairments().loss, 0.0);
        reg.set_script_between(0, 2, Script::drop_nth(3));
        assert!(!reg.between(0, 2).expect("wired").impairments().script.is_empty());
        assert!(reg.between(2, 0).expect("wired").impairments().script.is_empty());
    }

    #[test]
    #[should_panic]
    fn registry_hold_requires_a_wired_pair() {
        let mut reg = LinkRegistry::new();
        reg.hold(0, 9);
    }
}
