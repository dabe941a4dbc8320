//! Verified reads and audits, shared by every workload.

use std::time::{Duration, Instant};

use rand::Rng;
use wedge_chain::Address;
use wedge_core::{Auditor, CommitPhase, LogService, Reader};

use crate::report::Report;
use crate::stats::Samples;

/// The entries one publisher appended: sequences `0..count` of `stream`.
#[derive(Clone, Copy)]
pub struct Written {
    pub publisher: Address,
    pub stream: u64,
    pub count: u64,
    pub value_bytes: usize,
}

/// When a read loop stops.
pub enum Until {
    Reads(usize),
    Deadline(Instant),
}

/// What a read loop observed.
#[derive(Default)]
pub struct ReadOutcome {
    /// End-to-end latency of untraced reads, µs.
    pub latency: Samples,
    /// Traced reads: the node's part (`read_entry_by_sequence`), µs.
    pub node: Samples,
    /// Traced reads: client verification (`verify_response`), µs.
    pub verify: Samples,
    /// Traced reads, whole operation, µs.
    pub traced: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub wall: Duration,
}

/// Uniform random verified reads by `(publisher, sequence)` over `written`.
/// With `trace`, every other read is split into its node and client parts.
/// Every read must return the generated payload, blockchain-committed.
pub fn read_loop(
    reader: &Reader,
    service: &dyn LogService,
    written: &[Written],
    seed: u64,
    until: Until,
    trace: bool,
    report: &mut Report,
) -> ReadOutcome {
    let mut rng = crate::gen::rng(seed, 0x7265_6164);
    let mut out = ReadOutcome::default();
    let total: u64 = written.iter().map(|w| w.count).sum();
    if total == 0 {
        report.wrong("nothing written to read back");
        return out;
    }
    let started = Instant::now();
    loop {
        match until {
            Until::Reads(n) if out.attempted as usize >= n => break,
            Until::Deadline(d) if Instant::now() >= d => break,
            _ => {}
        }
        let mut pick = rng.gen_range(0..total);
        let Some(w) = written.iter().find(|w| {
            let hit = pick < w.count;
            if !hit {
                pick -= w.count;
            }
            hit
        }) else {
            break;
        };
        let sequence = pick;
        let traced = trace && out.attempted % 2 == 1;
        out.attempted += 1;
        let t = Instant::now();
        let result = if traced {
            service
                .read_entry_by_sequence(w.publisher, sequence)
                .and_then(|response| {
                    out.node.push_us(t.elapsed());
                    let v = Instant::now();
                    let entry = reader.verify_response(&response);
                    out.verify.push_us(v.elapsed());
                    out.traced.push_us(t.elapsed());
                    entry
                })
        } else {
            let entry = reader.read_by_sequence(w.publisher, sequence);
            out.latency.push_us(t.elapsed());
            entry
        };
        match result {
            Ok(entry) => {
                let expected = crate::gen::payload(seed, w.stream, sequence, w.value_bytes);
                if entry.request.payload != expected
                    || entry.request.publisher != w.publisher
                    || entry.request.sequence != sequence
                {
                    report.wrong(format!(
                        "read of sequence {sequence} returned another entry"
                    ));
                } else if entry.phase != CommitPhase::BlockchainCommitted {
                    report.wrong(format!("read of sequence {sequence} is not committed"));
                }
            }
            Err(e) => {
                eprintln!("perfbench: read failed: {e}");
                out.failed += 1;
            }
        }
    }
    out.wall = started.elapsed();
    out
}

/// End-to-end read metrics from an untraced loop.
pub fn read_metrics(r: &mut Report, out: &ReadOutcome) {
    let ok = (out.attempted - out.failed) as f64;
    r.metric("read_ops_per_s", ok / out.wall.as_secs_f64(), "1/s");
    r.metric("read_p50_us", out.latency.median(), "us");
    r.metric("read_p99_us", out.latency.quantile(0.99), "us");
    r.note("read_samples", out.latency.len());
}

/// One audit over the first `budget` entries of the log; must come back
/// clean. Returns (entries per second, verify share).
pub fn audit(auditor: &Auditor, budget: usize, expect: usize, r: &mut Report) -> (f64, f64) {
    r.attempted += 1;
    let t = Instant::now();
    match auditor.audit(0, budget) {
        Ok(report) => {
            let wall = t.elapsed().as_secs_f64();
            if !report.is_clean() {
                r.wrong(format!("audit found {} bad entries", report.failures.len()));
            }
            if report.entries_checked != expect {
                r.wrong(format!(
                    "audit checked {} entries, expected {expect}",
                    report.entries_checked
                ));
            }
            r.note("audit_entries", report.entries_checked);
            (
                report.entries_checked as f64 / wall,
                report.verify_fraction(),
            )
        }
        Err(e) => {
            eprintln!("perfbench: audit failed: {e}");
            r.failed += 1;
            (f64::NAN, f64::NAN)
        }
    }
}
