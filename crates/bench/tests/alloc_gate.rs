//! The allocation gate: real heap allocations per packet on each benchmark
//! workload shape, in both data modes, diffed against the committed
//! `tests/expected/allocs_per_pkt.txt`.
//!
//! This test binary installs a counting `#[global_allocator]` (no other
//! binary links it). It counts only on a thread that switched counting on,
//! so libtest's other threads never leak into a figure. The simulation is
//! deterministic, so every count repeats exactly:
//!
//! * **modeled** shapes go through `ano_bench::runners` twice, differing
//!   only in window length. Set-up and warm-up allocate identically in both
//!   runs, so the difference of the two counts over the difference of their
//!   link packets is the extra window alone: the steady-state per-packet
//!   figure.
//! * **functional** shapes run one registry scenario's offload arm twice:
//!   as registered, and a copy carrying twice the bytes (each TLS flow
//!   sends twice as much, each NVMe flow issues its reads twice; the
//!   registry itself is untouched). Set-up allocates the same in both, so
//!   again the difference is the per-packet figure.
//!
//! The counts come from the debug profile tier-1 runs; release codegen may
//! elide allocations. A moved count is a snapshot diff: regenerate with
//! `BLESS=1 cargo test -q -p ano-bench --test alloc_gate` and review it.
//! What the gate cannot see is an allocation on a path no shape runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs;
use std::path::PathBuf;

use ano_bench::runners::{run_iperf, run_rr, IperfCfg, NvmeVariant, RrCfg, Variant};
use ano_scenario::{builtin, run, Arm, Scenario, Workload};
use ano_sim::link::Impairments;
use ano_sim::time::SimDuration;

thread_local! {
    // `const` initialisers need no lazy set-up and no destructor, so reading
    // them from inside the allocator never allocates and never recurses.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocation calls on switched-on threads.
struct Counting;

fn bump() {
    // `try_with`: during thread teardown the slots may be gone; an
    // allocation there is not part of any measured window.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter never touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: `layout` is the caller's, passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e.
        // from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: as in `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` with counting on for this thread; returns the allocation calls
/// it made and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    (COUNT.with(Cell::get), r)
}

/// Runs `f` once uncounted. Process-wide lazy statics (the empty `Bytes`,
/// the CRC tables) allocate once, on whichever thread touches them first,
/// and thread-locals once per thread; a shape that measures only after
/// its own unmeasured run sees neither, whatever the other threads do.
fn prime<R>(f: impl FnOnce() -> R) {
    drop(f());
}

/// One snapshot line.
struct Count {
    shape: &'static str,
    allocs: u64,
    pkts: u64,
}

impl Count {
    fn render(&self) -> String {
        // `pkts` is nonzero: the gate asserts it before rendering.
        let per_pkt = self.allocs as f64 / self.pkts as f64;
        format!(
            "{} allocs={} pkts={} allocs_per_pkt={per_pkt:.4}",
            self.shape, self.allocs, self.pkts
        )
    }
}

const WARMUP: SimDuration = SimDuration::from_millis(2);
const WINDOW: SimDuration = SimDuration::from_millis(1);
const LONG_WINDOW: SimDuration = SimDuration::from_millis(2);

/// A modeled shape: `run(window)` runs the whole experiment and returns its
/// link packets; the short run is subtracted from the long one.
fn window_delta(shape: &'static str, run: impl Fn(SimDuration) -> u64) -> Count {
    prime(|| run(WINDOW));
    let (short_allocs, short_pkts) = counted(|| run(WINDOW));
    let (long_allocs, long_pkts) = counted(|| run(LONG_WINDOW));
    Count {
        shape,
        allocs: long_allocs
            .checked_sub(short_allocs)
            .unwrap_or_else(|| panic!("{shape}: the longer run allocated less")),
        pkts: long_pkts.saturating_sub(short_pkts),
    }
}

fn iperf(
    conns: usize,
    variant: Variant,
    cores: [usize; 2],
    impair: Impairments,
) -> impl Fn(SimDuration) -> u64 {
    move |window| {
        run_iperf(&IperfCfg {
            variant,
            conns,
            cores,
            impair: impair.clone(),
            warmup: WARMUP,
            window,
            seed: 7,
            ..Default::default()
        })
        .pkts
    }
}

fn rr(
    conns: usize,
    storage: Option<(NvmeVariant, bool)>,
    nic_cache: usize,
) -> impl Fn(SimDuration) -> u64 {
    move |window| {
        run_rr(&RrCfg {
            storage,
            conns,
            response: 64 << 10,
            storage_queues: 8,
            nic_cache,
            warmup: WARMUP,
            window,
            ..Default::default()
        })
        .pkts
    }
}

/// `sc` carrying twice its bytes: every TLS flow sends twice as much and
/// every NVMe flow issues its reads twice.
fn doubled(sc: &Scenario) -> Scenario {
    let mut sc = sc.clone();
    for f in &mut sc.flows {
        match &mut f.workload {
            Workload::Tls { bytes, .. } => *bytes *= 2,
            Workload::Nvme { reads } | Workload::NvmeTls { reads } => reads.extend(reads.clone()),
        }
    }
    sc
}

/// A functional shape: a registry scenario's offload arm, the doubled run
/// minus the registered one.
fn scenario(shape: &'static str, name: &str) -> Count {
    let sc = builtin(name).unwrap_or_else(|| panic!("no registry entry {name}"));
    let twice = doubled(&sc);
    prime(|| run(&sc, Arm::Offload));
    let [(allocs, pkts), (allocs2, pkts2)] = [&sc, &twice].map(|sc| {
        let (allocs, out) = counted(|| run(sc, Arm::Offload));
        out.assert_clean();
        (allocs, out.links.values().map(|l| l.offered).sum::<u64>())
    });
    Count {
        shape,
        allocs: allocs2
            .checked_sub(allocs)
            .unwrap_or_else(|| panic!("{shape}: the doubled run allocated less")),
        pkts: pkts2.saturating_sub(pkts),
    }
}

type Shape = Box<dyn FnOnce() -> Count + Send>;

/// Every `BENCHMARK.json` workload shape, once per data mode.
fn shapes() -> Vec<Shape> {
    let lossy = Impairments {
        loss: 0.005,
        ..Impairments::reorder(0.005)
    };
    vec![
        Box::new(|| {
            window_delta(
                "modeled/stream_1flow",
                iperf(1, Variant::TlsOffloadZc, [1, 8], Impairments::none()),
            )
        }),
        Box::new(move || {
            window_delta(
                "modeled/lossy_resync_8flow",
                iperf(8, Variant::TlsOffload, [8, 8], lossy),
            )
        }),
        Box::new(|| {
            window_delta(
                "modeled/stream_real_4flow",
                iperf(4, Variant::TlsOffload, [4, 8], Impairments::none()),
            )
        }),
        Box::new(|| {
            window_delta(
                "modeled/rr_nvme_tls_c1",
                rr(32, Some((NvmeVariant::Offload, true)), 20_000),
            )
        }),
        // More connections than context-cache entries: every request
        // evicts, as the fleet workload's 8-entry caches do.
        Box::new(|| window_delta("modeled/fleet_rss_64flow", rr(16, None, 8))),
        // The functional shapes run the nearest registry entries; one TLS
        // stream of real bytes (`tls/clean`) stands for both stream
        // workloads.
        Box::new(|| scenario("functional/stream_1flow", "tls/clean")),
        Box::new(|| scenario("functional/lossy_resync_8flow", "tls/drop-third")),
        Box::new(|| scenario("functional/rr_nvme_tls_c1", "nvme/clean")),
        Box::new(|| scenario("functional/fleet_rss_64flow", "rss/base")),
        Box::new(|| scenario("functional/fleet_cache_thrash", "fleet/sensitivity")),
    ]
}

fn snapshot_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/expected/allocs_per_pkt.txt")
}

/// `shape → allocs` of the committed snapshot.
fn committed_allocs(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let shape = l.split(' ').next()?;
            let allocs = l.split(' ').find_map(|f| f.strip_prefix("allocs="))?;
            Some((shape.to_string(), allocs.parse().ok()?))
        })
        .collect()
}

#[test]
fn counter_counts_one_allocation_exactly_once() {
    let (n, v) = counted(|| std::hint::black_box(Vec::<u8>::with_capacity(1)));
    assert_eq!(n, 1);
    drop(v);
    let (n, ()) = counted(|| ());
    assert_eq!(n, 0, "counting must not allocate by itself");
}

#[test]
fn allocs_per_pkt_match_the_snapshot() {
    let counts: Vec<Count> = std::thread::scope(|s| {
        let running: Vec<_> = shapes().into_iter().map(|shape| s.spawn(shape)).collect();
        running
            .into_iter()
            .map(|h| h.join().expect("shape panicked"))
            .collect()
    });

    let path = snapshot_path();
    let committed = fs::read_to_string(&path).unwrap_or_default();
    // Fail closed, BLESS or not: an empty window measures nothing, and a
    // zero where the snapshot counted allocations means the counter broke.
    for c in &counts {
        assert!(
            c.pkts > 0,
            "{}: the measured window carried no packets",
            c.shape
        );
        let was = committed_allocs(&committed)
            .into_iter()
            .find(|(shape, _)| shape == c.shape)
            .map_or(0, |(_, a)| a);
        assert!(
            c.allocs > 0 || was == 0,
            "{}: counted 0 allocations where the snapshot has {was}; is the counter live?",
            c.shape
        );
    }

    let mut got = String::from(
        "# heap allocation calls per link packet, debug build; modeled = a longer window \
         minus a shorter one, functional = a doubled-bytes offload-arm run minus the registered one\n",
    );
    for c in &counts {
        got.push_str(&c.render());
        got.push('\n');
    }
    if std::env::var("BLESS").is_ok() {
        fs::write(&path, &got).expect("write the snapshot");
        eprintln!("blessed {}", path.display());
        return;
    }
    assert!(
        !committed.is_empty(),
        "missing {}; run with BLESS=1 to create it",
        path.display()
    );
    assert!(
        got == committed,
        "allocations per packet moved from the committed snapshot {}:\n--- committed\n{committed}\
         --- now\n{got}(intentional? re-bless with BLESS=1 and review the diff)",
        path.display()
    );
}
