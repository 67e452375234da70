//! Exporters: human timeline and the canonical golden-trace text form.
//!
//! Both are pure functions of the record list, emit `\n`-separated
//! ASCII, and iterate in record order — so equal record streams render to
//! byte-identical strings on every platform.

use std::fmt::Write as _;

use crate::event::{Category, Record};

/// Human-readable timeline: one line per record with a microsecond
/// timestamp column, for eyeballing a resync episode or pasting into docs.
pub fn timeline(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        let us = r.t_ns / 1_000;
        let frac = r.t_ns % 1_000;
        let _ = writeln!(out, "[{us:>9}.{frac:03}us] flow{} {}", r.flow, r.event);
    }
    out
}

/// Canonical golden-trace form: records whose category passes `keep`,
/// rendered one per line as `t=<ns> flow=<n> <name> <args>`.
///
/// The monotone record number is deliberately omitted — it would shift
/// whenever an unrelated (filtered-out) event appears, making goldens
/// brittle against instrumentation changes in other categories.
pub fn canonical(records: &[Record], keep: &[Category]) -> String {
    let mut out = String::new();
    for r in records {
        if !keep.contains(&r.event.category()) {
            continue;
        }
        let _ = writeln!(out, "t={} flow={} {} {}", r.t_ns, r.flow, r.event.name(), r.event.args());
    }
    out
}

/// The category filter golden tests use: TCP loss recovery plus resync
/// transitions, plus fleet chaos declarations (`Net` is silent on chaos-free
/// runs, so adding it cannot perturb historical goldens). Bounded by the
/// scenario's loss/chaos schedule, unlike the per-packet `Offload`/`Cpu`
/// firehose.
pub const GOLDEN_CATEGORIES: &[Category] = &[Category::Tcp, Category::Resync, Category::Net];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, ResyncPhase};

    fn records() -> Vec<Record> {
        vec![
            Record {
                n: 0,
                t_ns: 1_500,
                flow: 1,
                event: Event::PktOffloaded { seq: 0, len: 1448 },
            },
            Record {
                n: 1,
                t_ns: 2_000,
                flow: 1,
                event: Event::Resync {
                    from: ResyncPhase::Offloading,
                    to: ResyncPhase::Searching,
                    seq: 1448,
                },
            },
            Record {
                n: 2,
                t_ns: 2_000,
                flow: 2,
                event: Event::TcpRto { snd_una: 1448, backoff: 1 },
            },
        ]
    }

    #[test]
    fn timeline_formats_each_record() {
        let t = timeline(&records());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "[        1.500us] flow1 pkt.offloaded seq=0 len=1448");
        assert!(lines[1].contains("Offloading->Searching seq=1448"));
    }

    #[test]
    fn canonical_filters_by_category() {
        let c = canonical(&records(), GOLDEN_CATEGORIES);
        assert_eq!(
            c,
            "t=2000 flow=1 resync.transition Offloading->Searching seq=1448\n\
             t=2000 flow=2 tcp.rto snd_una=1448 backoff=1\n"
        );
    }
}
