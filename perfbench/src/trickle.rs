//! `trickle`: open loop over TCP at a fixed 1000 req/s of 320 B entries
//! from 4 publishers — the steady trickle of small records a logging
//! service sees. Batch formation (collect/linger), per-batch fixed costs,
//! stage-2 grouping and the net plane sit on the critical path; requests
//! are signed during set-up, so per-entry client crypto is a small share.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError};
use wedge_core::{AppendRequest, Auditor, LogService, Reader};
use wedge_crypto::secp256k1::AffineTable;
use wedge_crypto::signer::Identity;
use wedge_net::{NodeServer, RemoteNodePool};

use crate::check::{reply_matches, reply_to, Ledger, Reply};
use crate::layers::{self, Probe};
use crate::reads::{self, Until, Written};
use crate::report::Report;
use crate::stats::Samples;
use crate::world::World;
use crate::Ctx;

/// Offered load, requests per second (fixed, never derived from capacity).
const RATE: f64 = 1000.0;
const VALUE_BYTES: usize = 256;
const PUBLISHERS: u64 = 4;
/// Client connections (one per core of the 2-vCPU reference host).
const STRIPES: usize = 2;
/// Publisher `j` appends payload stream `STREAM + j`.
const STREAM: u64 = 10;
/// A generator whose p99 lateness exceeds this has fallen behind its
/// schedule, and the run is reported invalid.
pub const MAX_LATE_P99_MS: f64 = 20.0;
/// How long after the last send outstanding replies may take.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Setup {
    world: World,
    server: NodeServer,
    pool: Arc<RemoteNodePool>,
    publishers: Vec<Identity>,
    requests: Vec<AppendRequest>,
    /// Wall time per request of signing them during set-up, µs.
    sign_us_per_op: f64,
}

pub fn setup(ctx: &Ctx) -> Result<Setup, String> {
    let world = World::start(&ctx.node_dir(), ctx.seed)?;
    let server = NodeServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world.node) as Arc<dyn LogService>,
    )
    .map_err(|e| format!("bind: {e}"))?;
    let pool = RemoteNodePool::connect(server.local_addr(), STRIPES)
        .map_err(|e| format!("connect: {e}"))?;
    let publishers: Vec<Identity> = (0..PUBLISHERS)
        .map(|j| crate::gen::identity(ctx.seed, "trickle", j))
        .collect();
    let count = (RATE * ctx.seconds).ceil() as usize;
    let t = Instant::now();
    let requests =
        crate::gen::presigned(ctx.seed, STREAM, &publishers, 0..count as u64, VALUE_BYTES);
    let sign_us_per_op = t.elapsed().as_secs_f64() * 1e6 / count.max(1) as f64;
    Ok(Setup {
        world,
        server,
        pool: Arc::new(pool),
        publishers,
        requests,
        sign_us_per_op,
    })
}

pub fn teardown(s: Setup) {
    let Setup {
        world,
        mut server,
        pool,
        ..
    } = s;
    drop(pool);
    server.shutdown();
    drop(server);
    world.teardown();
}

/// What the verifier thread returns.
#[derive(Default)]
struct Verified {
    latency: Samples,
    traced_latency: Samples,
    stage1: Samples,
    verify: Samples,
    ledger: Ledger,
    acked: u64,
    failed: u64,
    last_reply: Option<Instant>,
    wrong: Vec<String>,
}

pub fn measure(ctx: &Ctx, s: &mut Setup) -> Report {
    let mut r = Report::default();
    let world = &s.world;
    let node_table = AffineTable::new(s.pool.node_public_key().point());
    let gas_before = world.chain.total_gas_used().0;
    let probe = Probe::take(&world.node, Some(&s.server));
    let started = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / RATE);
    let due = |i: usize| started + interval * i as u32;
    let sent_at: Vec<AtomicU64> = (0..s.requests.len()).map(|_| AtomicU64::new(0)).collect();
    let submitted = AtomicU64::new(0);
    let generator_done = AtomicBool::new(false);
    let (tx, rx) = unbounded::<Reply>();

    let (late, submit_failures, verified) = std::thread::scope(|scope| {
        let generator = scope.spawn(|| {
            let mut late = Samples::default();
            let mut failures = 0u64;
            let end = started + Duration::from_secs_f64(ctx.seconds);
            for (index, request) in s.requests.iter().enumerate() {
                let due = due(index);
                if due >= end {
                    break;
                }
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let now = Instant::now();
                late.push_ms(now - due);
                sent_at[index].store((now - started).as_nanos() as u64, Ordering::Relaxed);
                match s.pool.submit_request(request.clone(), reply_to(&tx, index)) {
                    Ok(()) => {
                        submitted.fetch_add(1, Ordering::SeqCst);
                    }
                    Err(e) => {
                        eprintln!("perfbench: submit failed: {e}");
                        failures += 1;
                    }
                }
                s.pool.flush();
            }
            generator_done.store(true, Ordering::SeqCst);
            (late, failures)
        });
        let verifier = scope.spawn(|| {
            let mut v = Verified::default();
            let mut received = 0u64;
            let mut done_at: Option<Instant> = None;
            loop {
                match rx.recv_timeout(Duration::from_millis(50)) {
                    Ok(reply) => {
                        received += 1;
                        let traced = ctx.trace && reply.index % 2 == 1;
                        match reply.outcome {
                            Ok(response) => {
                                let request = &s.requests[reply.index];
                                let t = Instant::now();
                                let ok = reply_matches(&response, request, &node_table);
                                let now = Instant::now();
                                if !ok {
                                    v.wrong
                                        .push(format!("reply {} failed verification", reply.index));
                                    continue;
                                }
                                let latency = now - due(reply.index);
                                if traced {
                                    let sent = Duration::from_nanos(
                                        sent_at[reply.index].load(Ordering::Relaxed),
                                    );
                                    v.stage1.push_ms((reply.at - started).saturating_sub(sent));
                                    v.verify.push_us(now - t);
                                    v.traced_latency.push_ms(latency);
                                } else {
                                    v.latency.push_ms(latency);
                                }
                                v.last_reply = Some(now);
                                v.acked += 1;
                                let sim = world.sim_at(reply.at);
                                if let Err(e) =
                                    v.ledger.record(&response, request.payload.len(), sim, true)
                                {
                                    v.wrong.push(e);
                                }
                            }
                            Err(e) => {
                                eprintln!("perfbench: append refused: {e}");
                                v.failed += 1;
                            }
                        }
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    Err(RecvTimeoutError::Disconnected) => break,
                }
                if generator_done.load(Ordering::SeqCst) {
                    let outstanding = submitted.load(Ordering::SeqCst).saturating_sub(received);
                    if outstanding == 0 {
                        break;
                    }
                    let since = *done_at.get_or_insert_with(Instant::now);
                    if since.elapsed() > DRAIN_TIMEOUT {
                        eprintln!("perfbench: {outstanding} replies timed out");
                        v.failed += outstanding;
                        break;
                    }
                }
            }
            v
        });
        let (late, failures) = generator.join().expect("generator thread");
        (late, failures, verifier.join().expect("verifier thread"))
    });
    drop(tx);
    let end_probe = Probe::take(&world.node, Some(&s.server));
    let sent = submitted.load(Ordering::SeqCst) + submit_failures;
    r.attempted += sent;
    r.failed += verified.failed + submit_failures;
    for w in &verified.wrong {
        r.wrong(w.clone());
    }
    let late_p99 = late.quantile(0.99);
    r.note("generator_late_p99_ms", late_p99);
    if late_p99.is_nan() || late_p99 > MAX_LATE_P99_MS {
        r.wrong(format!(
            "generator fell behind: p99 lateness {late_p99:.1} ms > {MAX_LATE_P99_MS} ms"
        ));
    }
    let window = verified
        .last_reply
        .map_or(Duration::ZERO, |t| t - started)
        .as_secs_f64();

    if let Err(e) = world.settle() {
        r.wrong(e);
    }
    let ledger = &verified.ledger;
    let settled_probe = Probe::take(&world.node, Some(&s.server));
    let totals = crate::Totals::after_settle(&mut r, world, ledger, gas_before, verified.acked);

    // Read back and audit in-process: over loopback TCP the wakeups of
    // each synchronous read made read latency swing by 15% from run to run
    // on the 2-vCPU reference host, while the appends above already load
    // the net plane.
    let reader = Reader::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    // Request i went to publisher i % PUBLISHERS as its sequence
    // i / PUBLISHERS.
    let sent_total = s.requests.len().min(sent as usize) as u64;
    let targets: Vec<Written> = s
        .publishers
        .iter()
        .enumerate()
        .map(|(j, p)| Written {
            publisher: p.address(),
            stream: STREAM + j as u64,
            count: (sent_total + PUBLISHERS - 1 - j as u64) / PUBLISHERS,
            value_bytes: VALUE_BYTES,
        })
        .collect();
    let read = reads::read_loop(
        &reader,
        world.node.as_ref(),
        &targets,
        ctx.seed,
        Until::Reads(crate::POST_RUN_READS),
        ctx.trace,
        &mut r,
    );
    r.attempted += read.attempted;
    r.failed += read.failed;
    let auditor = Auditor::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    let expect = crate::AUDIT_BUDGET.min(ledger.acked as usize);
    let (audit_rate, audit_share) = reads::audit(&auditor, crate::AUDIT_BUDGET, expect, &mut r);
    r.note("append_samples", verified.latency.len());

    if ctx.trace {
        let batch_fill =
            layers::counters(&mut r, &probe, &end_probe, &settled_probe, verified.acked);
        r.metric("client.sign_us_per_op", s.sign_us_per_op, "us");
        r.metric("client.verify_us_per_op", verified.verify.mean(), "us");
        r.metric(
            "client.chain_lookups_per_read",
            reader.chain_lookups() as f64 / read.attempted.max(1) as f64,
            "ratio",
        );
        r.metric("client.audit_verify_share", audit_share, "ratio");
        r.metric("node.stage1_p50_ms", verified.stage1.median(), "ms");
        r.metric("node.stage1_p99_ms", verified.stage1.quantile(0.99), "ms");
        r.metric("node.read_p50_us", read.node.median(), "us");
        r.metric("node.read_p99_us", read.node.quantile(0.99), "us");
        r.metric("bench.generator_late_p99_ms", late_p99, "ms");
        r.metric(
            "bench.trace_overhead_frac",
            verified.traced_latency.median() / verified.latency.median() - 1.0,
            "ratio",
        );
        // Traced requests here take the same calls as untraced ones, with
        // timestamps added, so there is no split API to check; read_mixed's
        // traced reads are split, and checked.
        r.metric("bench.closure_gap_frac", 0.0, "ratio");
        layers::replays(
            &mut r,
            &ctx.scratch,
            ctx.seed,
            batch_fill.round() as usize,
            VALUE_BYTES,
        );
    } else {
        r.metric("append_ops_per_s", verified.acked as f64 / window, "1/s");
        r.metric("append_p50_ms", verified.latency.median(), "ms");
        r.metric("append_p90_ms", verified.latency.quantile(0.90), "ms");
        r.metric("append_p99_ms", verified.latency.quantile(0.99), "ms");
        reads::read_metrics(&mut r, &read);
        r.metric("audit_entries_per_s", audit_rate, "1/s");
        totals.record(&mut r);
    }
    r
}
