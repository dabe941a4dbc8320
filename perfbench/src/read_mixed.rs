//! `read_mixed`: the reader and auditor roles (Figs. 8/9) on a preloaded
//! log whose oldest segment is sealed cold and whose tail is hot. One
//! thread reads uniformly at random with full verification while a second
//! appends pre-signed requests at a fixed 200 req/s; one audit closes the
//! run. Exercises the snapshot read plane, hot and cold storage reads,
//! proof extraction and response signing, and builds almost no Merkle
//! trees; the concurrent writes expose a gain on one side that costs the
//! other.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use wedge_core::{AppendRequest, Auditor, LogService, Reader};
use wedge_crypto::secp256k1::AffineTable;
use wedge_crypto::signer::Identity;

use crate::check::{reply_matches, reply_to, Ledger, Reply};
use crate::layers::{self, Probe};
use crate::reads::{self, Until, Written};
use crate::report::Report;
use crate::stats::Samples;
use crate::world::World;
use crate::Ctx;

/// Entries preloaded: more than one 64 MB segment of 1088 B entries, so
/// the oldest segment seals cold once committed.
const PRELOAD: u64 = 80_000;
/// Requests signed and submitted together during the preload.
const PRELOAD_CALL: usize = 20_000;
const VALUE_BYTES: usize = 1024;
/// The writer's fixed rate, requests per second.
const WRITE_RATE: f64 = 200.0;
const PRELOAD_STREAM: u64 = 20;
const WRITER_STREAM: u64 = 21;
/// How long set-up waits for the first sealed segment after settle.
const SEAL_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Setup {
    world: World,
    preload: Identity,
    requests: Vec<AppendRequest>,
    /// Wall time per request of signing the writer's requests, µs.
    sign_us_per_op: f64,
    /// Replies to the preload, for the end-of-run ledger.
    ledger: Ledger,
}

pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let world = World::start(&ctx.node_dir(), ctx.seed)?;
    let preload = crate::gen::identity(ctx.seed, "preload", 0);
    let ledger = preload_log(&world, ctx.seed, &preload)?;
    world.settle()?;
    let sealed_by = Instant::now() + SEAL_TIMEOUT;
    while world.cold_segments() == 0 {
        if Instant::now() > sealed_by {
            return Err("preload sealed no cold segment".into());
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let writer = crate::gen::identity(ctx.seed, "writer", 0);
    let count = (WRITE_RATE * ctx.seconds).ceil() as u64;
    let t = Instant::now();
    let requests = crate::gen::presigned(ctx.seed, WRITER_STREAM, &[writer], 0..count, VALUE_BYTES);
    let sign_us_per_op = t.elapsed().as_secs_f64() * 1e6 / count.max(1) as f64;
    Ok(Setup {
        world,
        preload,
        requests,
        sign_us_per_op,
        ledger,
    })
}

/// Appends the preload in chunks of signed requests, verifying every reply
/// and recording when each arrived.
fn preload_log(world: &World, seed: u64, publisher: &Identity) -> Result<Ledger, String> {
    let node_table = AffineTable::new(world.node.public_key().point());
    let mut ledger = Ledger::default();
    for first in (0..PRELOAD).step_by(PRELOAD_CALL) {
        let last = (first + PRELOAD_CALL as u64).min(PRELOAD);
        let requests = crate::gen::presigned(
            seed,
            PRELOAD_STREAM,
            std::slice::from_ref(publisher),
            first..last,
            VALUE_BYTES,
        );
        let (tx, rx) = unbounded();
        for (index, request) in requests.iter().enumerate() {
            world
                .node
                .submit_request(request.clone(), reply_to(&tx, index))
                .map_err(|e| format!("preload submit: {e}"))?;
        }
        for _ in 0..requests.len() {
            let reply = rx
                .recv_timeout(DRAIN_TIMEOUT)
                .map_err(|_| "preload reply timed out".to_string())?;
            let response = reply.outcome.map_err(|e| format!("preload refused: {e}"))?;
            let request = &requests[reply.index];
            if !reply_matches(&response, request, &node_table) {
                return Err(format!("preload reply {} failed verification", reply.index));
            }
            ledger.record(
                &response,
                request.payload.len(),
                world.sim_at(reply.at),
                false,
            )?;
        }
    }
    Ok(ledger)
}

pub fn teardown(s: Setup) {
    s.world.teardown();
}

/// What the writer observed.
#[derive(Default)]
struct WriterOutcome {
    latency: Samples,
    /// Submit to reply callback, ms (traced runs read it).
    stage1: Samples,
    late: Samples,
    sent: u64,
    received: u64,
    acked: u64,
    refused: u64,
    submit_failed: u64,
    window: Duration,
    wrong: Vec<String>,
}

/// Checks and records one writer reply.
struct ReplyCheck<'a> {
    requests: &'a [AppendRequest],
    node_table: &'a AffineTable,
    started: Instant,
    interval: Duration,
    world: &'a World,
}

impl ReplyCheck<'_> {
    fn due(&self, index: usize) -> Instant {
        self.started + self.interval * index as u32
    }

    fn apply(
        &self,
        reply: Reply,
        sent_at: &[Instant],
        ledger: &mut Ledger,
        out: &mut WriterOutcome,
    ) {
        let Reply { index, outcome, at } = reply;
        out.received += 1;
        match outcome {
            Ok(response) => {
                let request = &self.requests[index];
                let ok = reply_matches(&response, request, self.node_table);
                let now = Instant::now();
                if !ok {
                    out.wrong
                        .push(format!("writer reply {index} failed verification"));
                    return;
                }
                out.latency.push_ms(now - self.due(index));
                if let Some(sent) = sent_at.get(index) {
                    out.stage1.push_ms(at - *sent);
                }
                out.acked += 1;
                let sim = self.world.sim_at(at);
                if let Err(e) = ledger.record(&response, request.payload.len(), sim, true) {
                    out.wrong.push(e);
                }
            }
            Err(e) => {
                eprintln!("perfbench: append refused: {e}");
                out.refused += 1;
            }
        }
    }
}

pub fn measure(ctx: &Ctx, s: &mut Setup) -> Report {
    let mut r = Report::default();
    let world = &s.world;
    let node_table = AffineTable::new(world.node.public_key().point());
    let reader = Reader::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    let preloaded = Written {
        publisher: s.preload.address(),
        stream: PRELOAD_STREAM,
        count: PRELOAD,
        value_bytes: VALUE_BYTES,
    };
    let gas_before = world.chain.total_gas_used().0;
    let probe = Probe::take(&world.node, None);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(ctx.seconds);
    let check = ReplyCheck {
        requests: &s.requests,
        node_table: &node_table,
        started,
        interval: Duration::from_secs_f64(1.0 / WRITE_RATE),
        world,
    };
    let ledger = &mut s.ledger;

    let (read, written) = std::thread::scope(|scope| {
        let read_thread = scope.spawn(|| {
            let mut r = Report::default();
            let out = reads::read_loop(
                &reader,
                world.node.as_ref(),
                &[preloaded],
                ctx.seed,
                Until::Deadline(deadline),
                ctx.trace,
                &mut r,
            );
            (out, r.errors)
        });
        let mut w = WriterOutcome::default();
        let mut sent_at = Vec::with_capacity(check.requests.len());
        let (tx, rx) = unbounded::<Reply>();
        for (index, request) in check.requests.iter().enumerate() {
            let due = check.due(index);
            if due >= deadline {
                break;
            }
            // Verify replies while waiting, but never past the next send.
            while Instant::now() + Duration::from_micros(300) < due {
                let Ok(reply) = rx.try_recv() else { break };
                check.apply(reply, &sent_at, ledger, &mut w);
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let now = Instant::now();
            w.late.push_ms(now - due);
            sent_at.push(now);
            match world
                .node
                .submit_request(request.clone(), reply_to(&tx, index))
            {
                Ok(()) => w.sent += 1,
                Err(e) => {
                    eprintln!("perfbench: submit failed: {e}");
                    w.submit_failed += 1;
                }
            }
        }
        drop(tx);
        // Outstanding replies arrive once the partial batch lingers out.
        let drain_end = Instant::now() + DRAIN_TIMEOUT;
        while w.received < w.sent && Instant::now() < drain_end {
            if let Ok(reply) = rx.recv_timeout(Duration::from_millis(50)) {
                check.apply(reply, &sent_at, ledger, &mut w);
            }
        }
        w.window = started.elapsed();
        let (read, errors) = read_thread.join().expect("reader thread");
        w.wrong.extend(errors);
        (read, w)
    });
    let end_probe = Probe::take(&world.node, None);
    r.attempted += written.sent + written.submit_failed + read.attempted;
    r.failed +=
        written.submit_failed + written.refused + (written.sent - written.received) + read.failed;
    for e in &written.wrong {
        r.wrong(e.clone());
    }
    let late_p99 = written.late.quantile(0.99);
    r.note("generator_late_p99_ms", late_p99);
    if late_p99.is_nan() || late_p99 > crate::trickle::MAX_LATE_P99_MS {
        r.wrong(format!("writer fell behind: p99 lateness {late_p99:.1} ms"));
    }

    let auditor = Auditor::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    let (audit_rate, audit_share) =
        reads::audit(&auditor, crate::AUDIT_BUDGET, crate::AUDIT_BUDGET, &mut r);

    if let Err(e) = world.settle() {
        r.wrong(e);
    }
    let settled_probe = Probe::take(&world.node, None);
    let totals = crate::Totals::after_settle(&mut r, world, ledger, gas_before, written.acked);
    r.note("append_samples", written.latency.len());

    if ctx.trace {
        let batch_fill = layers::counters(
            &mut r,
            &probe,
            &end_probe,
            &settled_probe,
            read.attempted + written.acked,
        );
        r.metric("client.sign_us_per_op", s.sign_us_per_op, "us");
        r.metric("client.verify_us_per_op", read.verify.mean(), "us");
        r.metric(
            "client.chain_lookups_per_read",
            reader.chain_lookups() as f64 / read.attempted.max(1) as f64,
            "ratio",
        );
        r.metric("client.audit_verify_share", audit_share, "ratio");
        r.metric("node.stage1_p50_ms", written.stage1.median(), "ms");
        r.metric("node.stage1_p99_ms", written.stage1.quantile(0.99), "ms");
        r.metric("node.read_p50_us", read.node.median(), "us");
        r.metric("node.read_p99_us", read.node.quantile(0.99), "us");
        r.metric("bench.generator_late_p99_ms", late_p99, "ms");
        let untraced = read.latency.median();
        r.metric(
            "bench.trace_overhead_frac",
            read.traced.median() / untraced - 1.0,
            "ratio",
        );
        crate::closure(&mut r, read.node.median() + read.verify.median(), untraced);
        layers::replays(
            &mut r,
            &ctx.scratch,
            ctx.seed,
            batch_fill.round() as usize,
            VALUE_BYTES,
        );
    } else {
        r.metric(
            "append_ops_per_s",
            written.acked as f64 / written.window.as_secs_f64(),
            "1/s",
        );
        r.metric("append_p50_ms", written.latency.median(), "ms");
        r.metric("append_p90_ms", written.latency.quantile(0.90), "ms");
        r.metric("append_p99_ms", written.latency.quantile(0.99), "ms");
        reads::read_metrics(&mut r, &read);
        r.metric("audit_entries_per_s", audit_rate, "1/s");
        totals.record(&mut r);
    }
    r
}
