//! Experiment implementations — one function per paper table/figure.
//!
//! Every function returns a [`Table`] whose rows mirror the series the paper
//! plots, and prints nothing itself; the `repro` binary handles output.
//! See DESIGN.md §4 for the experiment index and EXPERIMENTS.md for
//! paper-vs-measured results.
//!
//! lint: allow-file(panic) — measurement harness: a failed experiment setup must abort loudly, not limp on and publish skewed numbers

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::unbounded;
use wedge_baselines::{OclConfig, OclSystem, RhlConfig, RhlSystem, SoclSystem};
use wedge_chain::Wei;
use wedge_core::AppendRequest;
use wedge_core::{Auditor, NodeConfig, Reader};
use wedge_crypto::signer::Identity;
use wedge_crypto::Hash32;

use crate::workload::{kv_payloads, Profile, World, KEY_SIZE, VALUE_SIZE};

/// A printable result table.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id, e.g. "Figure 3".
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders as GitHub markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}\n",
            self.headers.iter().map(|_| "---|").collect::<String>()
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

fn fmt_dur(d: Duration) -> String {
    if d >= Duration::from_secs(1) {
        format!("{:.2} s", d.as_secs_f64())
    } else {
        format!("{:.1} ms", d.as_secs_f64() * 1e3)
    }
}

fn fmt_eth(wei: Wei) -> String {
    format!("{:.3e}", wei.as_eth_f64())
}

/// Formats a throughput with sensible precision across magnitudes.
fn fmt_rate(v: f64) -> String {
    if v >= 0.01 {
        format!("{v:.2}")
    } else {
        format!("{v:.2e}")
    }
}

/// The batch sizes swept by Figures 3/4 (paper values).
pub const BATCH_SIZES: [usize; 6] = [500, 1000, 2000, 4000, 8000, 10_000];
/// The value sizes swept by Figures 5/6 and Table 1.
pub const VALUE_SIZES: [usize; 4] = [512, 1024, 2048, 4096];

/// One throughput/cost run: appends `n` entries of `value_size` through a
/// node batching at `batch_size` with `replicas`, returning
/// (ops/s, MB/s, cost-per-op, publisher latencies, stage-2 mean).
struct RunResult {
    ops_per_sec: f64,
    mb_per_sec: f64,
    cost_per_op: Wei,
    first_response: Duration,
    last_response: Duration,
    stage1_commit: Duration,
    stage2_mean: Duration,
}

fn run_append(
    tag: &str,
    batch_size: usize,
    value_size: usize,
    n: usize,
    replicas: usize,
) -> RunResult {
    let config = NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(30),
        replicas,
        ..Default::default()
    };
    let mut world = World::new(tag, config, 2000.0);
    let payloads = kv_payloads(n, KEY_SIZE, value_size, 42);
    let bytes: usize = payloads.iter().map(|p| p.len()).sum();
    let outcome = world.publisher.append_batch(payloads).expect("append");
    world.settle();
    let stats = world.node.stats();
    // Node-side ingestion throughput: ops over the time the node was
    // actively serving (submission to last response).
    let elapsed = outcome.last_response.as_secs_f64().max(1e-9);
    RunResult {
        ops_per_sec: n as f64 / elapsed,
        mb_per_sec: bytes as f64 / 1e6 / elapsed,
        cost_per_op: stats.cost_per_op(),
        first_response: outcome.first_response,
        last_response: outcome.last_response,
        stage1_commit: outcome.stage1_commit,
        stage2_mean: stats.mean_stage2_latency().unwrap_or_default(),
    }
}

/// Figure 3: Offchain Node throughput (with and without replication) and
/// monetary cost per operation, varying the batch size.
pub fn fig3(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 3 — throughput and cost per op vs batch size (1088 B entries)".into(),
        headers: vec![
            "batch size".into(),
            "throughput (ops/s)".into(),
            "throughput, 2 replicas (ops/s)".into(),
            "cost per op (ETH)".into(),
            "stage-2 mean (sim)".into(),
        ],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        let n = profile.scale(batch_size * 10, (batch_size * 2).max(4000));
        let solo = run_append(&format!("fig3-{batch_size}"), batch_size, VALUE_SIZE, n, 0);
        let repl = run_append(&format!("fig3r-{batch_size}"), batch_size, VALUE_SIZE, n, 2);
        table.rows.push(vec![
            batch_size.to_string(),
            format!("{:.0}", solo.ops_per_sec),
            format!("{:.0}", repl.ops_per_sec),
            fmt_eth(solo.cost_per_op),
            fmt_dur(solo.stage2_mean),
        ]);
    }
    table
}

/// Figure 4: publisher latency vs batch size (first / last / stage-1
/// commitment delay).
pub fn fig4(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 4 — publisher latency vs batch size".into(),
        headers: vec![
            "batch size".into(),
            "first op delay".into(),
            "last op delay".into(),
            "stage-1 commitment delay".into(),
            "stage-2 mean (sim)".into(),
        ],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        // The paper's publisher sends 10 000 operations regardless of the
        // node's batch size.
        let n = 10_000;
        let _ = profile;
        let run = run_append(&format!("fig4-{batch_size}"), batch_size, VALUE_SIZE, n, 0);
        table.rows.push(vec![
            batch_size.to_string(),
            fmt_dur(run.first_response),
            fmt_dur(run.last_response),
            fmt_dur(run.stage1_commit),
            fmt_dur(run.stage2_mean),
        ]);
    }
    table
}

/// Figure 5: throughput (MB/s, ± replication) and cost per op vs value
/// size, batch size fixed at 2000.
pub fn fig5(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 5 — throughput and cost per op vs value size (batch = 2000)".into(),
        headers: vec![
            "value size (B)".into(),
            "throughput (MB/s)".into(),
            "throughput, 2 replicas (MB/s)".into(),
            "cost per op (ETH)".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &VALUE_SIZES {
        let n = profile.scale(20_000, 4000);
        let solo = run_append(&format!("fig5-{value_size}"), 2000, value_size, n, 0);
        let repl = run_append(&format!("fig5r-{value_size}"), 2000, value_size, n, 2);
        table.rows.push(vec![
            value_size.to_string(),
            fmt_rate(solo.mb_per_sec),
            fmt_rate(repl.mb_per_sec),
            fmt_eth(solo.cost_per_op),
        ]);
    }
    table
}

/// Figure 6: publisher latency vs value size, batch size fixed at 2000.
pub fn fig6(profile: Profile) -> Table {
    let mut table = Table {
        title: "Figure 6 — publisher latency vs value size (batch = 2000)".into(),
        headers: vec![
            "value size (B)".into(),
            "first op delay".into(),
            "last op delay".into(),
            "stage-1 commitment delay".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &VALUE_SIZES {
        let n = profile.scale(10_000, 4000);
        let run = run_append(&format!("fig6-{value_size}"), 2000, value_size, n, 0);
        table.rows.push(vec![
            value_size.to_string(),
            fmt_dur(run.first_response),
            fmt_dur(run.last_response),
            fmt_dur(run.stage1_commit),
        ]);
    }
    table
}

/// Figure 7: stage-1 commit throughput vs offered request frequency
/// (open-loop load).
pub fn fig7(profile: Profile) -> Table {
    // First estimate the node's capacity with a closed-loop burst.
    let burst_n = profile.scale(20_000, 4000);
    let capacity = run_append("fig7-cap", 2000, VALUE_SIZE, burst_n, 0).ops_per_sec;

    let mut table = Table {
        title: "Figure 7 — stage-1 throughput vs offered request frequency".into(),
        headers: vec![
            "offered rate (req/s)".into(),
            "stage-1 throughput (ops/s)".into(),
            "of capacity".into(),
        ],
        rows: Vec::new(),
    };
    // A longer window amortizes the final batch's drain tail, so the
    // sub-capacity points track the offered rate closely.
    let window = Duration::from_secs(profile.scale(20, 8) as u64);
    for fraction in [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4] {
        let rate = (capacity * fraction).max(1.0);
        let n = (rate * window.as_secs_f64()) as usize;
        let config = NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(30),
            ..Default::default()
        };
        let world = World::new(&format!("fig7-{fraction}"), config, 2000.0);
        // Pre-sign requests so client-side signing doesn't gate the offered
        // rate.
        let publisher_id = Identity::from_seed(b"fig7-publisher");
        let payloads = kv_payloads(n, KEY_SIZE, VALUE_SIZE, 7);
        let requests: Vec<AppendRequest> = {
            let items: Vec<(u64, Vec<u8>)> = (0..).zip(payloads).collect();
            wedge_core::parallel_map(&items, 16, |(seq, payload)| {
                AppendRequest::new(publisher_id.secret_key(), *seq, payload.clone())
            })
        };
        let (reply_tx, reply_rx) = unbounded();
        let started = Instant::now();
        // Paced submission: 100 ticks/s.
        let tick = Duration::from_millis(10);
        let per_tick = (rate * tick.as_secs_f64()).max(1.0) as usize;
        let node = Arc::clone(&world.node);
        let submitter = std::thread::spawn(move || {
            let mut sent = 0usize;
            let mut next_tick = Instant::now();
            for request in requests {
                node.submit(request, reply_tx.clone()).expect("submit");
                sent += 1;
                if sent.is_multiple_of(per_tick) {
                    next_tick += tick;
                    let now = Instant::now();
                    if next_tick > now {
                        std::thread::sleep(next_tick - now);
                    }
                }
            }
        });
        let mut received = 0usize;
        while received < n {
            match reply_rx.recv_timeout(Duration::from_secs(60)) {
                Ok(_) => received += 1,
                Err(_) => break,
            }
        }
        submitter.join().unwrap();
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        let throughput = received as f64 / elapsed;
        table.rows.push(vec![
            format!("{rate:.0}"),
            format!("{throughput:.0}"),
            format!("{:.0}%", fraction * 100.0),
        ]);
    }
    table
}

/// Table 1: commitment throughput and cost per operation of OCL, SOCL, RHL
/// and WedgeBlock at 1024 B and 2048 B values.
pub fn table1(profile: Profile) -> Table {
    let mut table = Table {
        title: "Table 1 — commitment throughput and cost vs prior approaches".into(),
        headers: vec![
            "value size / system".into(),
            "throughput (MB/s)".into(),
            "cost per op (ETH)".into(),
            "commit latency".into(),
        ],
        rows: Vec::new(),
    };
    for &value_size in &[1024usize, 2048] {
        // --- OCL: raw entries on-chain; commit = confirmed receipt.
        {
            let world = World::new(
                &format!("t1-ocl-{value_size}"),
                NodeConfig::default(),
                2000.0,
            );
            let ocl = OclSystem::deploy(
                Arc::clone(&world.chain),
                world.node_identity.clone(),
                OclConfig::default(),
            )
            .expect("deploy ocl");
            let n = profile.scale(200, 40);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 1);
            let out = ocl.append_and_commit(&payloads).expect("ocl commit");
            table.rows.push(vec![
                format!("{value_size} (OCL)"),
                fmt_rate(out.throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!("{} (sim)", fmt_dur(out.commit_latency)),
            ]);
        }
        // --- SOCL: off-chain + digest, but commit waits for the chain.
        {
            let config = NodeConfig {
                batch_size: 2000,
                batch_linger: Duration::from_millis(30),
                ..Default::default()
            };
            let world = World::new(&format!("t1-socl-{value_size}"), config, 2000.0);
            let client = Identity::from_seed(b"t1-socl-client");
            world.chain.fund(client.address(), Wei::from_eth(1000));
            let mut socl = SoclSystem::new(
                Arc::clone(&world.chain),
                Arc::clone(&world.node),
                client,
                world.root_record,
            );
            let n = profile.scale(10_000, 2000);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 2);
            let out = socl.append_and_commit(payloads).expect("socl commit");
            table.rows.push(vec![
                format!("{value_size} (SOCL)"),
                fmt_rate(out.throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!("{} (sim)", fmt_dur(out.commit_latency)),
            ]);
        }
        // --- RHL: fast stage-1 ack; ops posted on-chain; day-long finality.
        {
            let world = World::new(
                &format!("t1-rhl-{value_size}"),
                NodeConfig::default(),
                2000.0,
            );
            let rhl = RhlSystem::deploy(
                Arc::clone(&world.chain),
                world.node_identity.clone(),
                RhlConfig::default(),
            )
            .expect("deploy rhl");
            let n = profile.scale(200, 40);
            let payloads = kv_payloads(n, KEY_SIZE, value_size, 3);
            let out = rhl.append_and_commit(&payloads).expect("rhl commit");
            table.rows.push(vec![
                format!("{value_size} (RHL)"),
                fmt_rate(out.stage1_throughput_mb_s()),
                fmt_eth(out.costs.cost_per_op()),
                format!(
                    "{} stage-1; finality {} (sim)",
                    fmt_dur(out.stage1_wall),
                    fmt_dur(out.finality_latency)
                ),
            ]);
        }
        // --- WB: stage-1 commit is the receipt (lazy trust).
        {
            let n = profile.scale(10_000, 2000);
            let run = run_append(&format!("t1-wb-{value_size}"), 2000, value_size, n, 0);
            table.rows.push(vec![
                format!("{value_size} (WB)"),
                fmt_rate(run.mb_per_sec),
                fmt_eth(run.cost_per_op),
                format!("{} stage-1 (real)", fmt_dur(run.stage1_commit)),
            ]);
        }
    }
    table
}

/// Builds a preloaded world for the read experiments. Request verification
/// is disabled during preload (all requests are self-generated); reads still
/// verify everything.
fn preloaded_world(tag: &str, batch_size: usize, entries: usize) -> (World, Identity) {
    let config = NodeConfig {
        batch_size,
        batch_linger: Duration::from_millis(30),
        verify_requests: false,
        ..Default::default()
    };
    let mut world = World::new(tag, config, 2000.0);
    let mut remaining = entries;
    while remaining > 0 {
        let chunk = remaining.min(20_000);
        let payloads = kv_payloads(chunk, KEY_SIZE, VALUE_SIZE, remaining as u64);
        world.publisher.append_batch(payloads).expect("preload");
        remaining -= chunk;
    }
    world.settle();
    let publisher_id = Identity::from_seed(format!("bench-client-{tag}").as_bytes());
    (world, publisher_id)
}

/// Figure 8: random-key read throughput vs the batch size the log was
/// stored with.
pub fn fig8(profile: Profile) -> Table {
    use rand::{Rng, SeedableRng};
    let entries = profile.scale(10_000_000, 40_000);
    let reads = profile.scale(50_000, 4_000);
    let mut table = Table {
        title: format!(
            "Figure 8 — random read throughput vs store batch size \
             ({entries} entries preloaded, {reads} reads incl. verification)"
        ),
        headers: vec!["store batch size".into(), "read throughput (ops/s)".into()],
        rows: Vec::new(),
    };
    for &batch_size in &BATCH_SIZES {
        let (world, publisher_id) =
            preloaded_world(&format!("fig8-{batch_size}"), batch_size, entries);
        let reader = Reader::new(
            Arc::clone(&world.node),
            Arc::clone(&world.chain),
            world.root_record,
        );
        let mut rng = rand::rngs::SmallRng::seed_from_u64(88);
        let sequences: Vec<u64> = (0..reads)
            .map(|_| rng.gen_range(0..entries as u64))
            .collect();
        let started = Instant::now();
        for &seq in &sequences {
            let entry = reader
                .read_by_sequence(publisher_id.address(), seq)
                .expect("read");
            std::hint::black_box(&entry);
        }
        let elapsed = started.elapsed().as_secs_f64().max(1e-9);
        table.rows.push(vec![
            batch_size.to_string(),
            format!("{:.0}", reads as f64 / elapsed),
        ]);
    }
    table
}

/// Figure 9: audit latency (total vs verification share) for growing
/// numbers of audited operations; plus the range-proof extension.
pub fn fig9(profile: Profile) -> Table {
    let budgets_full = [10_000usize, 50_000, 100_000, 200_000];
    let budgets_quick = [2_000usize, 5_000, 10_000, 20_000];
    let budgets = match profile {
        Profile::Full => budgets_full,
        Profile::Quick => budgets_quick,
    };
    let entries = *budgets.last().expect("non-empty");
    let (world, _publisher) = preloaded_world("fig9", 2000, entries);
    let auditor = Auditor::new(
        Arc::clone(&world.node),
        Arc::clone(&world.chain),
        world.root_record,
    );
    let mut table = Table {
        title: "Figure 9 — audit latency vs number of operations".into(),
        headers: vec![
            "operations".into(),
            "total latency".into(),
            "verification time".into(),
            "verify share".into(),
            "range-proof audit (ext.)".into(),
        ],
        rows: Vec::new(),
    };
    for &budget in &budgets {
        let report = auditor.audit(0, budget).expect("audit");
        assert!(report.is_clean(), "audit must be clean");
        let range = auditor
            .audit_with_range_proofs(0, budget)
            .expect("range audit");
        assert!(range.is_clean());
        table.rows.push(vec![
            budget.to_string(),
            fmt_dur(report.total_time),
            fmt_dur(report.verify_time),
            format!("{:.0}%", report.verify_fraction() * 100.0),
            fmt_dur(range.total_time),
        ]);
    }
    table
}

/// Percentile over a sorted latency sample (nearest-rank).
fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn fmt_us(d: Duration) -> String {
    format!("{:.1} µs", d.as_secs_f64() * 1e6)
}

/// Extra (not in the paper, companion to Figures 8–9): read latency
/// percentiles on the snapshot read path — idle, and with stage-1 ingestion
/// flushing concurrently. Every read loads one published snapshot (no lock
/// guard on the hot path), so the percentiles should hold steady while the
/// ingestion column shows the pipeline still sustaining its throughput.
pub fn reads(profile: Profile) -> Table {
    use rand::{Rng, SeedableRng};
    let entries = profile.scale(500_000, 20_000);
    let reads_per_thread = profile.scale(50_000, 4_000);
    let ingest_n = profile.scale(100_000, 10_000);
    let mut table = Table {
        title: format!(
            "Reads under ingestion (extension) — node-side read latency \
             ({entries} entries preloaded, {reads_per_thread} reads/thread \
             incl. proof + response signing)"
        ),
        headers: vec![
            "scenario".into(),
            "read p50".into(),
            "read p90".into(),
            "read p99".into(),
            "read max".into(),
            "read throughput (ops/s)".into(),
            "concurrent stage-1 (ops/s)".into(),
        ],
        rows: Vec::new(),
    };

    let (world, publisher_id) = preloaded_world("reads", 2000, entries);
    let publisher_address = publisher_id.address();
    for (label, reader_threads, ingest) in [
        ("1 reader, idle node", 1usize, false),
        ("4 readers, idle node", 4, false),
        ("4 readers + ingestion", 4, true),
    ] {
        let node = &world.node;
        // Pre-signed ingestion workload from a second publisher (the node
        // runs with request verification off, as in Figure 8's preload).
        let ingest_requests: Vec<AppendRequest> = if ingest {
            let ingest_id = Identity::from_seed(b"bench-reads-ingest");
            let payloads = kv_payloads(ingest_n, KEY_SIZE, VALUE_SIZE, 0x8ead);
            let items: Vec<(u64, Vec<u8>)> = (0..).zip(payloads).collect();
            wedge_core::parallel_map(&items, 16, |(seq, payload)| {
                AppendRequest::new(ingest_id.secret_key(), *seq, payload.clone())
            })
        } else {
            Vec::new()
        };

        let mut stage1_rate = None;
        let mut samples: Vec<Duration> = Vec::new();
        let read_wall = crossbeam::thread::scope(|scope| {
            let ingest_handle = (!ingest_requests.is_empty()).then(|| {
                let requests = &ingest_requests;
                scope.spawn(move |_| {
                    let (tx, rx) = unbounded();
                    let started = Instant::now();
                    for request in requests.iter().cloned() {
                        node.submit(request, tx.clone()).expect("submit");
                    }
                    for _ in 0..requests.len() {
                        let _ = rx.recv_timeout(Duration::from_secs(120));
                    }
                    started.elapsed()
                })
            });
            let started = Instant::now();
            let reader_handles: Vec<_> = (0..reader_threads)
                .map(|t| {
                    scope.spawn(move |_| {
                        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x8ead + t as u64);
                        let mut lat = Vec::with_capacity(reads_per_thread);
                        for _ in 0..reads_per_thread {
                            let seq = rng.gen_range(0..entries as u64);
                            let read_started = Instant::now();
                            let response = node
                                .read_by_sequence(publisher_address, seq)
                                .expect("preloaded sequence reads");
                            lat.push(read_started.elapsed());
                            std::hint::black_box(&response);
                        }
                        lat
                    })
                })
                .collect();
            for handle in reader_handles {
                samples.extend(handle.join().expect("reader thread"));
            }
            let wall = started.elapsed();
            if let Some(handle) = ingest_handle {
                let ingest_elapsed = handle.join().expect("ingest thread");
                stage1_rate = Some(ingest_n as f64 / ingest_elapsed.as_secs_f64().max(1e-9));
            }
            wall
        })
        .expect("read scenario threads");

        samples.sort_unstable();
        let total_reads = samples.len() as f64;
        table.rows.push(vec![
            label.into(),
            fmt_us(percentile(&samples, 0.50)),
            fmt_us(percentile(&samples, 0.90)),
            fmt_us(percentile(&samples, 0.99)),
            fmt_us(*samples.last().expect("non-empty sample")),
            format!("{:.0}", total_reads / read_wall.as_secs_f64().max(1e-9)),
            stage1_rate.map_or("—".into(), |r| format!("{r:.0}")),
        ]);
    }
    table
}

/// Extra (not in the paper): how simulated network latency shifts the
/// publisher-visible latencies — the term separating our in-process numbers
/// from the paper's RPC numbers.
pub fn latency_ablation(profile: Profile) -> Table {
    use wedge_sim::LatencyModel;
    let n = profile.scale(10_000, 4000);
    let mut table = Table {
        title: "Network-latency ablation — publisher latencies (batch = 2000, 1 KB entries)".into(),
        headers: vec![
            "request/response link".into(),
            "first op delay".into(),
            "last op delay".into(),
            "stage-1 commitment delay".into(),
        ],
        rows: Vec::new(),
    };
    let links: [(&str, LatencyModel, LatencyModel); 3] = [
        ("none (in-process)", LatencyModel::Zero, LatencyModel::Zero),
        (
            "LAN: 0.2 ms + 10 µs/KB",
            LatencyModel::Link {
                base: Duration::from_micros(200),
                per_kb: Duration::from_micros(10),
            },
            LatencyModel::Link {
                base: Duration::from_micros(200),
                per_kb: Duration::from_micros(10),
            },
        ),
        (
            "WAN: 20 ms + 80 µs/KB",
            LatencyModel::Link {
                base: Duration::from_millis(20),
                per_kb: Duration::from_micros(80),
            },
            LatencyModel::Link {
                base: Duration::from_millis(20),
                per_kb: Duration::from_micros(80),
            },
        ),
    ];
    for (label, request_model, response_model) in links {
        let config = NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(30),
            response_latency: response_model,
            ..Default::default()
        };
        let world = World::new(&format!("lat-{label}"), config, 2000.0);
        // Rebind the publisher with the request-side link model.
        let client = Identity::from_seed(format!("bench-client-lat-{label}").as_bytes());
        world.chain.fund(client.address(), Wei::from_eth(1000));
        let mut publisher = wedge_core::Publisher::new(
            client,
            std::sync::Arc::clone(&world.node),
            std::sync::Arc::clone(&world.chain),
            world.root_record,
            None,
        )
        .with_request_latency(request_model);
        let outcome = publisher
            .append_batch(kv_payloads(n, KEY_SIZE, VALUE_SIZE, 5))
            .expect("append");
        table.rows.push(vec![
            label.into(),
            fmt_dur(outcome.first_response),
            fmt_dur(outcome.last_response),
            fmt_dur(outcome.stage1_commit),
        ]);
    }
    table
}

/// Extra (not in the paper): stage-2 resilience under chain fault bursts —
/// how many retries/re-queues a burst of dropped submissions and forced
/// reverts costs, and how far the stage-2 commit latency degrades, with no
/// commitment ever lost.
pub fn fault_tolerance(profile: Profile) -> Table {
    let n = profile.scale(10_000, 2000);
    let mut table = Table {
        title: "Stage-2 fault tolerance (extension) — injected chain fault bursts".into(),
        headers: vec![
            "fault burst (drops + reverts)".into(),
            "retries".into(),
            "re-queued groups".into(),
            "backoff histogram".into(),
            "stage-2 mean (sim)".into(),
            "committed / failed".into(),
        ],
        rows: Vec::new(),
    };
    for &(drops, reverts) in &[(0u64, 0u64), (2, 1), (4, 2), (8, 4)] {
        let config = NodeConfig {
            batch_size: 2000,
            batch_linger: Duration::from_millis(30),
            // A retry budget that outlasts the longest burst swept here
            // (12 consecutive failures), so no row abandons its group.
            stage2_retry: wedge_core::Stage2RetryPolicy {
                max_attempts: 20,
                base_backoff: Duration::from_secs(1),
                max_backoff: Duration::from_secs(10),
                jitter: 0.2,
            },
            ..Default::default()
        };
        let mut world = World::new(&format!("faults-{drops}-{reverts}"), config, 2000.0);
        world.chain.faults().drop_next_submissions(drops);
        world.chain.faults().revert_next_calls(reverts);
        world
            .publisher
            .append_batch(kv_payloads(n, KEY_SIZE, VALUE_SIZE, 11))
            .expect("append");
        world.settle();
        let stats = world.node.stats();
        table.rows.push(vec![
            format!("{drops} + {reverts}"),
            stats.stage2_retries.to_string(),
            stats.stage2_requeued.to_string(),
            format!("{:?}", stats.stage2_backoff_hist),
            fmt_dur(stats.mean_stage2_latency().unwrap_or_default()),
            format!("{} / {}", stats.stage2_committed, stats.stage2_failed),
        ]);
    }
    table
}

/// Drives the node's persist+deliver stages directly against a
/// [`wedge_storage::LogStore`] + 2-replica [`wedge_storage::Replicator`]:
/// a producer thread hashes (Merkle), starts replication, appends, and
/// joins the replicas, while a consumer thread enforces the reply-release
/// rule (`ensure_durable`) a couple of batches behind, exactly like the
/// pipelined deliver stage. Returns (records/s, sync stats).
fn run_persist_path(
    tag: &str,
    batch_size: usize,
    batches: usize,
) -> (f64, wedge_storage::SyncStats) {
    use wedge_storage::{LogStore, Replicator, StoreConfig};

    let dir = std::env::temp_dir().join(format!("wedge-stage1-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        Arc::new(LogStore::open(dir.join("store"), StoreConfig::default()).expect("open store"));
    let replicator = Replicator::spawn(&dir, 2, StoreConfig::default(), Duration::from_micros(200))
        .expect("spawn replicas");
    let pool = wedge_pool::WorkPool::with_available_parallelism();
    let payloads = Arc::new(kv_payloads(batch_size, KEY_SIZE, VALUE_SIZE, 0x57a6e1));
    let total = batch_size * batches;

    let (release_tx, release_rx) = crossbeam::channel::bounded::<u64>(2);
    let started = Instant::now();
    crossbeam::thread::scope(|scope| {
        let producer_store = Arc::clone(&store);
        let payloads = Arc::clone(&payloads);
        let replicator = &replicator;
        let pool = &pool;
        scope.spawn(move |_| {
            for _ in 0..batches {
                let tree = wedge_merkle::MerkleTree::from_leaves_parallel(
                    &payloads[..],
                    pool,
                    wedge_merkle::PARALLEL_CUTOFF,
                )
                .expect("non-empty batch");
                std::hint::black_box(tree.root());
                // Replicas chew on the batch while we pay the local append
                // (+ any covering fsync): cost = max, not sum.
                let handle = replicator.replicate_begin(Arc::clone(&payloads));
                let first = producer_store
                    .append_batch(&payloads[..])
                    .expect("append batch");
                handle.wait();
                if release_tx.send(first + batch_size as u64 - 1).is_err() {
                    return;
                }
            }
        });
        // Consumer (deliver stage): the reply-release gate.
        while let Ok(last_record) = release_rx.recv() {
            store.ensure_durable(last_record).expect("durability");
        }
    })
    .expect("persist-path threads");
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    let stats = store.sync_stats();
    let _ = std::fs::remove_dir_all(&dir);
    (total as f64 / elapsed, stats)
}

/// Extra (not in the paper): the stage-1 hardware-speed path — parallel
/// Merkle construction, replication overlapped with local durability, and
/// fsync group-commit — measured two ways:
///
/// * **persist path** rows drive the storage + replication layers directly
///   (no signing, no chain);
/// * **end-to-end** rows run the full node + publisher with the default
///   (durable, group-commit) store and two replicas.
pub fn stage1(profile: Profile) -> Table {
    let mut table = Table {
        title: "Stage-1 hardware-speed path (extension) — parallel Merkle, \
                overlapped replication, fsync group-commit"
            .into(),
        headers: vec![
            "scenario".into(),
            "batch".into(),
            "throughput (ops/s)".into(),
            "fsyncs".into(),
            "coalesced".into(),
            "repl overlap (ms)".into(),
            "merkle par chunks".into(),
            "merkle hash (ms)".into(),
            "hash ×4 groups".into(),
        ],
        rows: Vec::new(),
    };

    let batch_sizes = [256usize, 1000, 2000];

    // --- Persist-path rows: durable stage-1, storage layer alone.
    for &batch in &batch_sizes {
        let batches = profile.scale(64, 12);
        let (rate, stats) = run_persist_path(&format!("persist-{batch}"), batch, batches);
        table.rows.push(vec![
            "persist path (group commit, overlapped repl, parallel merkle)".into(),
            batch.to_string(),
            format!("{rate:.0}"),
            stats.fsyncs.to_string(),
            stats.fsyncs_coalesced.to_string(),
            "—".into(),
            "—".into(),
            "—".into(),
            "—".into(),
        ]);
    }

    // --- End-to-end rows: full node + publisher, stage-1 throughput.
    for &batch in &batch_sizes {
        let n = profile.scale(batch * 10, (batch * 2).max(2000));
        let config = NodeConfig {
            batch_size: batch,
            batch_linger: Duration::from_millis(30),
            verify_requests: false,
            replicas: 2,
            ..Default::default()
        };
        // Best-of-N: a shared box makes single runs noisy; the best run
        // is the least-perturbed measurement of the pipeline itself.
        let repeats = profile.scale(3, 2);
        let mut rate = 0.0;
        let mut stats = None;
        let mut x4_groups = 0u64;
        for rep in 0..repeats {
            // The crypto hash counters are process-wide; snapshot before
            // the run so the table shows this run's ×4 groups only.
            let x4_before = wedge_crypto::hash::hash_batches_x4();
            let mut world = World::new(&format!("stage1-{batch}-{rep}"), config.clone(), 2000.0);
            let payloads = kv_payloads(n, KEY_SIZE, VALUE_SIZE, 0x57a6e2);
            let outcome = world.publisher.append_batch(payloads).expect("append");
            world.settle();
            let elapsed = outcome.last_response.as_secs_f64().max(1e-9);
            let rep_rate = n as f64 / elapsed;
            if rep_rate > rate {
                rate = rep_rate;
                stats = Some(world.node.stats());
                x4_groups = wedge_crypto::hash::hash_batches_x4() - x4_before;
            }
        }
        let stats = stats.expect("at least one repeat");
        table.rows.push(vec![
            "end-to-end (durable replies, group commit)".into(),
            batch.to_string(),
            format!("{rate:.0}"),
            stats.fsyncs.to_string(),
            stats.fsyncs_coalesced.to_string(),
            format!("{:.2}", stats.replication_overlap_ns as f64 / 1e6),
            stats.merkle_par_chunks.to_string(),
            format!("{:.2}", stats.merkle_hash_ns as f64 / 1e6),
            x4_groups.to_string(),
        ]);
    }
    table
}

/// Extra (not in the paper): the "signing wall" micro-benchmark — ECDSA
/// throughput before and after the comb/wNAF/GLV scalar-multiplication
/// rework. The pre-PR columns run the frozen baselines
/// (`secp256k1::point::reference`, `ecdsa::reference`: 4-bit window tables,
/// one Fermat inversion per signature, two independent multiplications per
/// verification); the this-PR columns run the shipped paths (8-bit comb
/// fixed-base table, Montgomery batch inversion shared per chunk,
/// Strauss–Shamir/GLV double multiplication over a cached per-key table).
/// Differential tests (`crates/crypto/tests/differential.rs`) prove both
/// columns produce byte-identical signatures and decisions.
pub fn signing(profile: Profile) -> Table {
    use wedge_crypto::ecdsa::{
        reference, sign_prehashed, sign_prehashed_batch, verify_prehashed, verify_prehashed_batch,
        Signature,
    };
    use wedge_crypto::keys::Keypair;
    use wedge_crypto::secp256k1::AffineTable;

    let n = profile.scale(2048, 512);
    let repeats = profile.scale(5, 3);
    let kp = Keypair::from_seed(b"signing-wall");
    let hashes: Vec<[u8; 32]> = (0..n)
        .map(|i| wedge_crypto::keccak256(&(i as u64).to_be_bytes()))
        .collect();

    // Warm both generator tables outside the timed regions: table builds
    // are one-time costs a long-running node never sees again.
    let _ = sign_prehashed(&kp.secret, &hashes[0]);
    let _ = reference::sign_prehashed(&kp.secret, &hashes[0]);

    // Best-of-N ops/s for a closure processing all `n` items.
    let rate = |work: &mut dyn FnMut()| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let started = Instant::now();
            work();
            let r = n as f64 / started.elapsed().as_secs_f64().max(1e-9);
            best = best.max(r);
        }
        best
    };

    let pre_sign = rate(&mut || {
        for h in &hashes {
            std::hint::black_box(reference::sign_prehashed(&kp.secret, h));
        }
    });
    let new_sign_batch = rate(&mut || {
        std::hint::black_box(sign_prehashed_batch(&kp.secret, &hashes));
    });
    let new_sign_item = rate(&mut || {
        for h in &hashes {
            std::hint::black_box(sign_prehashed(&kp.secret, h));
        }
    });

    let sigs: Vec<Signature> = sign_prehashed_batch(&kp.secret, &hashes);
    let items: Vec<([u8; 32], Signature)> = hashes.iter().copied().zip(sigs.clone()).collect();
    let pre_verify = rate(&mut || {
        for (h, sig) in hashes.iter().zip(&sigs) {
            reference::verify_prehashed(&kp.public, h, sig).expect("valid");
        }
    });
    let new_verify_batch = rate(&mut || {
        // The per-key table build is charged to the batch (it is what a
        // verifier pays once per key, not per signature).
        let table = AffineTable::new(kp.public.point());
        verify_prehashed_batch(&table, &items).expect("valid");
    });
    let new_verify_item = rate(&mut || {
        for (h, sig) in hashes.iter().zip(&sigs) {
            verify_prehashed(&kp.public, h, sig).expect("valid");
        }
    });

    let mut table = Table {
        title: "Signing wall (extension) — comb fixed-base table, shared batch \
                inversion, Strauss–Shamir/GLV verification (single thread)"
            .into(),
        headers: vec![
            "operation".into(),
            "items".into(),
            "pre-PR (ops/s)".into(),
            "this PR (ops/s)".into(),
            "speedup".into(),
        ],
        rows: Vec::new(),
    };
    let mut row = |op: &str, pre: f64, post: f64| {
        table.rows.push(vec![
            op.into(),
            n.to_string(),
            format!("{pre:.0}"),
            format!("{post:.0}"),
            format!("{:.2}×", post / pre.max(1e-9)),
        ]);
    };
    row(
        "sign — batch API (shared inversions)",
        pre_sign,
        new_sign_batch,
    );
    row(
        "sign — per-item API (comb table only)",
        pre_sign,
        new_sign_item,
    );
    row(
        "verify — batch, cached per-key table",
        pre_verify,
        new_verify_batch,
    );
    row(
        "verify — per-item API (table rebuilt per call)",
        pre_verify,
        new_verify_item,
    );
    table
}

/// Extra (not in the paper): the "hashing wall" micro-benchmark — Keccak-256
/// throughput before and after the multi-lane rework, on the exact shapes the
/// persist path hashes. The pre-PR column runs the frozen scalar sponge
/// (`hash::reference`); the this-PR columns run the shipped paths: the fused
/// single-permutation digest for sub-rate inputs, the ×4 lane-interleaved
/// permutation (four digests per pass), and the rebuilt (unrolled) streaming
/// sponge for bulk input. Differential tests
/// (`crates/crypto/tests/hash_differential.rs`) prove every column produces
/// byte-identical digests.
pub fn hashing(profile: Profile) -> Table {
    use wedge_crypto::hash::reference;
    use wedge_crypto::{keccak256_batch, keccak256_fixed, keccak256_fixed_x4};
    use wedge_merkle::{hash_leaf, hash_leaves, hash_node, hash_node_x4, MerkleTree};

    let n = profile.scale(32_768, 8_192); // digests per timed pass
    let repeats = profile.scale(7, 4);

    // Best-of-N MB/s for a closure hashing `bytes` per pass.
    let rate = |bytes: usize, work: &mut dyn FnMut()| -> f64 {
        let mut best = 0.0f64;
        for _ in 0..repeats {
            let started = Instant::now();
            work();
            let mbps = bytes as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9);
            best = best.max(mbps);
        }
        best
    };

    let mut table = Table {
        title: "Hashing wall (extension) — fused single-permutation fast path and \
                ×4 lane-interleaved Keccak-f[1600] (single thread, byte-identical \
                digests)"
            .into(),
        headers: vec![
            "shape".into(),
            "path".into(),
            "digests".into(),
            "MB/s".into(),
            "vs reference".into(),
        ],
        rows: Vec::new(),
    };
    let mut row = |shape: &str, path: &str, items: usize, mbps: f64, baseline: f64| {
        table.rows.push(vec![
            shape.into(),
            path.into(),
            items.to_string(),
            format!("{mbps:.1}"),
            format!("{:.2}×", mbps / baseline.max(1e-9)),
        ]);
    };

    // --- The acceptance shape: hash_node's 64-byte two-child input
    // (65-byte tagged preimage), the digest that dominates tree folding.
    let children: Vec<Hash32> = (0..n)
        .map(|i| Hash32(wedge_crypto::keccak256(&(i as u64).to_be_bytes())))
        .collect();
    let pairs = n / 2;
    let node_bytes = pairs * 65;
    let mut preimages: Vec<[u8; 65]> = Vec::with_capacity(pairs);
    for pair in children.chunks_exact(2) {
        let mut buf = [0u8; 65];
        buf[0] = 0x01;
        buf[1..33].copy_from_slice(pair[0].as_bytes());
        buf[33..].copy_from_slice(pair[1].as_bytes());
        preimages.push(buf);
    }
    let node_ref = rate(node_bytes, &mut || {
        for p in &preimages {
            std::hint::black_box(reference::keccak256(p));
        }
    });
    let node_fixed = rate(node_bytes, &mut || {
        for pair in children.chunks_exact(2) {
            std::hint::black_box(hash_node(&pair[0], &pair[1]));
        }
    });
    let node_x4 = rate(node_bytes, &mut || {
        for oct in children.chunks_exact(8) {
            std::hint::black_box(hash_node_x4(oct));
        }
    });
    row(
        "node (65-B preimage)",
        "reference sponge",
        pairs,
        node_ref,
        node_ref,
    );
    row(
        "node (65-B preimage)",
        "fused fixed path",
        pairs,
        node_fixed,
        node_ref,
    );
    row(
        "node (65-B preimage)",
        "×4 interleaved",
        pairs,
        node_x4,
        node_ref,
    );

    // --- Leaf shape: the tagged kv payload stage-1 hashes once per entry.
    let payloads = kv_payloads(n, KEY_SIZE, VALUE_SIZE, 0x4a5c);
    let leaf_bytes: usize = payloads.iter().map(|p| p.len() + 1).sum();
    let mut tagged: Vec<Vec<u8>> = Vec::with_capacity(n);
    for p in &payloads {
        let mut msg = Vec::with_capacity(p.len() + 1);
        msg.push(0x00);
        msg.extend_from_slice(p);
        tagged.push(msg);
    }
    let leaf_ref = rate(leaf_bytes, &mut || {
        for msg in &tagged {
            std::hint::black_box(reference::keccak256(msg));
        }
    });
    let leaf_fixed = rate(leaf_bytes, &mut || {
        for p in &payloads {
            std::hint::black_box(hash_leaf(p));
        }
    });
    let leaf_x4 = rate(leaf_bytes, &mut || {
        std::hint::black_box(hash_leaves(&payloads));
    });
    let shape = format!("leaf ({}-B payload)", KEY_SIZE + VALUE_SIZE);
    row(&shape, "reference sponge", n, leaf_ref, leaf_ref);
    row(&shape, "fused fixed path", n, leaf_fixed, leaf_ref);
    row(&shape, "×4 batch (hash_leaves)", n, leaf_x4, leaf_ref);

    // --- Mixed-length batch: entry-id/tx digests of varying size driven
    // through the bucketing batch API (ragged tails included).
    let mixed: Vec<Vec<u8>> = (0..n)
        .map(|i| vec![(i % 251) as u8; 24 + (i * 37) % 200])
        .collect();
    let mixed_refs: Vec<&[u8]> = mixed.iter().map(|v| v.as_slice()).collect();
    let mixed_bytes: usize = mixed.iter().map(|v| v.len()).sum();
    let mixed_ref_rate = rate(mixed_bytes, &mut || {
        for m in &mixed {
            std::hint::black_box(reference::keccak256(m));
        }
    });
    let mixed_batch = rate(mixed_bytes, &mut || {
        std::hint::black_box(keccak256_batch(&mixed_refs));
    });
    row(
        "mixed 24–223 B",
        "reference sponge",
        n,
        mixed_ref_rate,
        mixed_ref_rate,
    );
    row(
        "mixed 24–223 B",
        "×4 bucketed batch",
        n,
        mixed_batch,
        mixed_ref_rate,
    );

    // --- Bulk streaming: the rebuilt (unrolled) sponge on a 64 KiB blob,
    // isolating the scalar permutation win.
    let blob = vec![0xC3u8; 64 * 1024];
    let passes = profile.scale(64, 16);
    let stream_bytes = blob.len() * passes;
    let stream_ref = rate(stream_bytes, &mut || {
        for _ in 0..passes {
            std::hint::black_box(reference::keccak256(&blob));
        }
    });
    let stream_new = rate(stream_bytes, &mut || {
        for _ in 0..passes {
            std::hint::black_box(wedge_crypto::keccak256(&blob));
        }
    });
    row(
        "64 KiB stream",
        "reference sponge",
        passes,
        stream_ref,
        stream_ref,
    );
    row(
        "64 KiB stream",
        "unrolled sponge",
        passes,
        stream_new,
        stream_ref,
    );

    // --- Whole-tree build: serial Merkle construction end to end (leaves
    // + every interior level), reference fold vs the shipped ×4 builder.
    let tree_leaves = kv_payloads(profile.scale(8_192, 2_048), KEY_SIZE, VALUE_SIZE, 0x4a5d);
    let tree_bytes: usize = tree_leaves.iter().map(|p| p.len() + 1).sum();
    let tree_ref = rate(tree_bytes, &mut || {
        // Naive fold on the frozen sponge — the pre-PR builder's work.
        let mut level: Vec<Hash32> = tagged_ref_leaves(&tree_leaves);
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            let mut pairs = level.chunks_exact(2);
            for pair in pairs.by_ref() {
                let mut msg = [0u8; 65];
                msg[0] = 0x01;
                msg[1..33].copy_from_slice(pair[0].as_bytes());
                msg[33..].copy_from_slice(pair[1].as_bytes());
                next.push(Hash32(reference::keccak256(&msg)));
            }
            if let [odd] = pairs.remainder() {
                next.push(*odd);
            }
            level = next;
        }
        std::hint::black_box(level[0]);
    });
    let tree_new = rate(tree_bytes, &mut || {
        std::hint::black_box(
            MerkleTree::from_leaves(&tree_leaves)
                .expect("non-empty")
                .root(),
        );
    });
    row(
        "merkle build (serial)",
        "reference sponge",
        tree_leaves.len(),
        tree_ref,
        tree_ref,
    );
    row(
        "merkle build (serial)",
        "×4 + fixed builder",
        tree_leaves.len(),
        tree_new,
        tree_ref,
    );

    // Sanity: the ×4 fixed path really ran interleaved (counter moved).
    let before = wedge_crypto::hash::hash_batches_x4();
    let _ = keccak256_fixed_x4([b"a", b"b", b"c", b"d"]);
    let _ = keccak256_fixed(b"warm");
    assert!(wedge_crypto::hash::hash_batches_x4() > before);
    table
}

/// Leaf digests for the reference Merkle fold in [`hashing`].
fn tagged_ref_leaves(leaves: &[Vec<u8>]) -> Vec<Hash32> {
    use wedge_crypto::hash::reference;
    leaves
        .iter()
        .map(|p| {
            let mut msg = Vec::with_capacity(p.len() + 1);
            msg.push(0x00);
            msg.extend_from_slice(p);
            Hash32(reference::keccak256(&msg))
        })
        .collect()
}

/// Append burst size for the `net` experiment: clients submit this many
/// requests, flush once, then await every reply.
const NET_BURST: usize = 32;

/// One client worker's latency samples from the `net` experiment.
struct NetClientSamples {
    append: Vec<Duration>,
    read: Vec<Duration>,
}

/// Drives `clients` concurrent closed-loop workers against `service`:
/// each appends `appends` pre-signed entries in bursts of `burst`
/// (submit burst → flush → await every reply, timing each op from submit
/// to callback), then reads its own entries back by sequence one at a
/// time. Returns (append wall, read wall, merged samples).
fn run_net_clients(
    service: &Arc<dyn wedge_core::LogService>,
    tag: &str,
    clients: usize,
    appends: usize,
    reads: usize,
    value_size: usize,
) -> (Duration, Duration, NetClientSamples) {
    use rand::{Rng, SeedableRng};
    let burst = NET_BURST;
    let mut merged = NetClientSamples {
        append: Vec::new(),
        read: Vec::new(),
    };
    let mut append_wall = Duration::ZERO;
    let mut read_wall = Duration::ZERO;
    crossbeam::thread::scope(|scope| {
        let started = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let service = Arc::clone(service);
                let tag = tag.to_string();
                scope.spawn(move |_| {
                    let identity = Identity::from_seed(format!("net-{tag}-{c}").as_bytes());
                    let payloads = kv_payloads(appends, KEY_SIZE, value_size, c as u64);
                    let requests: Vec<AppendRequest> = (0..)
                        .zip(&payloads)
                        .map(|(seq, p)| AppendRequest::new(identity.secret_key(), seq, p.clone()))
                        .collect();
                    let mut samples = NetClientSamples {
                        append: Vec::with_capacity(appends),
                        read: Vec::with_capacity(reads),
                    };
                    let (tx, rx) = crossbeam::channel::bounded::<Duration>(burst);
                    for chunk in requests.chunks(burst) {
                        for request in chunk {
                            let tx = tx.clone();
                            let submitted = Instant::now();
                            service
                                .submit_request(
                                    request.clone(),
                                    Box::new(move |result| {
                                        result.expect("append reply");
                                        let _ = tx.send(submitted.elapsed());
                                    }),
                                )
                                .expect("submit");
                        }
                        // One flush per burst: buffered transports write the
                        // whole burst out here; in-process/autoflush paths
                        // already delivered and treat this as a no-op.
                        service.flush();
                        for _ in chunk {
                            samples
                                .append
                                .push(rx.recv_timeout(Duration::from_secs(120)).expect("reply"));
                        }
                    }
                    let append_done = Instant::now();
                    let mut rng = rand::rngs::SmallRng::seed_from_u64(0x9e7 + c as u64);
                    let address = identity.address();
                    for _ in 0..reads {
                        let seq = rng.gen_range(0..appends as u64);
                        let read_started = Instant::now();
                        let response = service
                            .read_entry_by_sequence(address, seq)
                            .expect("read own entry");
                        samples.read.push(read_started.elapsed());
                        std::hint::black_box(&response);
                    }
                    (samples, append_done)
                })
            })
            .collect();
        let mut last_append_done = started;
        for handle in handles {
            let (samples, append_done) = handle.join().expect("net client");
            merged.append.extend(samples.append);
            merged.read.extend(samples.read);
            last_append_done = last_append_done.max(append_done);
        }
        append_wall = last_append_done - started;
        read_wall = started.elapsed() - append_wall;
    })
    .expect("net client threads");
    merged.append.sort_unstable();
    merged.read.sort_unstable();
    (append_wall, read_wall, merged)
}

/// Extra (not in the paper): the wire-speed RPC plane. A default
/// [`wedge_net::NodeServer`] (coalescing writers draining bounded reply
/// queues into pooled buffers) fronts the node, and a striped
/// [`wedge_net::RemoteNodePool`] client flushes once per burst.
pub fn net(profile: Profile) -> Table {
    use wedge_net::{NodeServer, PoolConfig, RemoteNodePool};

    let mut table = Table {
        title: "RPC plane (extension) — coalescing writers + striped client".into(),
        headers: vec![
            "clients".into(),
            "payload (B)".into(),
            "append ops/s".into(),
            "append p50".into(),
            "append p99".into(),
            "read ops/s".into(),
            "read p50".into(),
            "read p99".into(),
            "replies/write".into(),
            "coalesced".into(),
            "pool hit".into(),
            "shed".into(),
        ],
        rows: Vec::new(),
    };
    for &clients in &[1usize, 8, 64] {
        for &value_size in &[256usize, 1024] {
            let total_appends = profile.scale(24_576, 4_096).max(clients);
            let appends = (total_appends / clients).max(NET_BURST);
            let reads = appends;
            let config = NodeConfig {
                batch_size: 500,
                batch_linger: Duration::from_millis(5),
                verify_requests: false,
                ..Default::default()
            };
            let world = World::new(&format!("net-{clients}-{value_size}"), config, 2000.0);
            let server =
                NodeServer::bind("127.0.0.1:0", Arc::clone(&world.node) as _).expect("bind server");
            let client: Arc<dyn wedge_core::LogService> = Arc::new(
                RemoteNodePool::connect_with_config(
                    server.local_addr(),
                    PoolConfig {
                        stripes: clients.min(8),
                        ..PoolConfig::default()
                    },
                )
                .expect("connect pool"),
            );
            let (aw, rw, samples) = run_net_clients(
                &client,
                &format!("{clients}-{value_size}"),
                clients,
                appends,
                reads,
                value_size,
            );
            drop(client);
            let stats = server.stats();

            let total_ops = (appends * clients) as f64;
            let total_reads = (reads * clients) as f64;
            table.rows.push(vec![
                clients.to_string(),
                value_size.to_string(),
                format!("{:.0}", total_ops / aw.as_secs_f64().max(1e-9)),
                fmt_us(percentile(&samples.append, 0.50)),
                fmt_us(percentile(&samples.append, 0.99)),
                format!("{:.0}", total_reads / rw.as_secs_f64().max(1e-9)),
                fmt_us(percentile(&samples.read, 0.50)),
                fmt_us(percentile(&samples.read, 0.99)),
                format!(
                    "{:.2}",
                    stats.replies_sent as f64 / stats.writes_issued.max(1) as f64
                ),
                stats.replies_coalesced.to_string(),
                format!("{:.0}%", stats.buffer_pool_hit_rate() * 100.0),
                stats.queue_shed.to_string(),
            ]);
        }
    }
    table
}

/// Extra (not in the paper): end-to-end punishment cost — what a client pays
/// in gas to prove a lie, and what it recovers.
pub fn punishment_economics() -> Table {
    use wedge_core::NodeBehavior;
    let config = NodeConfig {
        batch_size: 100,
        batch_linger: Duration::from_millis(10),
        behavior: NodeBehavior::CommitWrongRoot { from_log: 0 },
        ..Default::default()
    };
    let mut world = World::new("punish-econ", config, 2000.0);
    let outcome = world
        .publisher
        .append_batch(kv_payloads(100, KEY_SIZE, VALUE_SIZE, 9))
        .expect("append");
    world.settle();
    let receipt = world
        .publisher
        .verify_all_and_punish(&outcome.responses)
        .expect("punish path")
        .expect("mismatch found");
    Table {
        title: "Punishment economics (extension)".into(),
        headers: vec!["metric".into(), "value".into()],
        rows: vec![
            vec![
                "gas to prove the lie".into(),
                format!("{}", receipt.gas_used),
            ],
            vec!["fee paid by client".into(), format!("{}", receipt.fee)],
            vec!["escrow recovered".into(), "32 ETH".into()],
            vec![
                "evidence size (bytes)".into(),
                format!(
                    "{}",
                    outcome.responses[0].proof.to_bytes().len()
                        + outcome.responses[0].leaf.len()
                        + 65
                        + 40
                ),
            ],
        ],
    }
}

/// Per-entry payload for the tiered-storage experiment: large enough that
/// per-byte work (hashing, I/O) dominates per-entry fixed costs.
const TIER_PAYLOAD: usize = 64 * 1024;

/// Hot-vs-cold scan throughput at the storage layer: fill a store, scan it
/// while every segment is hot, seal everything below the tail, scan again.
/// Returns (hot MB/s, cold MB/s, cold segment count).
fn tier_scan_rates(tag: &str, total_bytes: u64) -> (f64, f64, u64) {
    use wedge_storage::{LogStore, StoreConfig};
    let dir = std::env::temp_dir().join(format!("wedge-tiers-scan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = LogStore::open(
        &dir,
        StoreConfig {
            max_segment_bytes: 4 * 1024 * 1024,
            ..Default::default()
        },
    )
    .expect("open scan store");
    let record = vec![0xA5u8; TIER_PAYLOAD];
    let mut written = 0u64;
    while written < total_bytes {
        let batch: Vec<Vec<u8>> = (0..16).map(|_| record.clone()).collect();
        store.append_batch(&batch).expect("append");
        written += (record.len() * 16) as u64;
    }
    store.sync().expect("sync");

    let scan = |label: &str| -> f64 {
        let started = Instant::now();
        let mut bytes = 0u64;
        for rec in store.iter() {
            bytes += rec.expect(label).len() as u64;
        }
        bytes as f64 / 1e6 / started.elapsed().as_secs_f64().max(1e-9)
    };
    let hot = scan("hot record");
    let sealed = store.seal_up_to(store.len()).expect("seal") as u64;
    let cold = scan("cold record");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
    (hot, cold, sealed)
}

/// Tiered storage & two-plane checkpoints: restart time and replayed
/// records with a checkpoint vs a full log replay, plus cold-vs-hot scan
/// throughput, as the log grows.
pub fn tiers(profile: Profile) -> Table {
    use wedge_chain::{Chain, ChainConfig};
    use wedge_core::{deploy_service, OffchainNode, Publisher, ServiceConfig, TierConfig};
    use wedge_sim::Clock;
    use wedge_storage::{StoreConfig, SyncPolicy};

    let sizes_mb: &[u64] = match profile {
        Profile::Quick => &[8, 16, 32],
        Profile::Full => &[64, 128, 256],
    };
    let mut table = Table {
        title: "Tiered storage: O(tail) restart and cold scans".into(),
        headers: vec![
            "log MB".into(),
            "records".into(),
            "restart (ckpt)".into(),
            "replayed (ckpt)".into(),
            "restart (full replay)".into(),
            "replayed (full)".into(),
            "hot scan MB/s".into(),
            "cold scan MB/s".into(),
            "cold segments".into(),
        ],
        rows: Vec::new(),
    };

    for &mb in sizes_mb {
        let total_bytes = mb * 1024 * 1024;
        let tag = format!("tiers-{mb}");

        // Node-level restart measurement over a persistent directory.
        let clock = Clock::compressed(2000.0);
        let chain = Chain::new(clock, ChainConfig::default());
        let node_identity = Identity::from_seed(format!("tiers-node-{mb}").as_bytes());
        let client_identity = Identity::from_seed(format!("tiers-client-{mb}").as_bytes());
        chain.fund(node_identity.address(), Wei::from_eth(1_000_000));
        chain.fund(client_identity.address(), Wei::from_eth(1_000_000));
        let miner = chain.start_miner();
        let deployment = deploy_service(
            &chain,
            &node_identity,
            client_identity.address(),
            &ServiceConfig {
                escrow: Wei::from_eth(32),
                payment_terms: None,
            },
        )
        .expect("deploy service");
        let dir = std::env::temp_dir().join(format!("wedge-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = NodeConfig {
            batch_size: 16,
            batch_linger: Duration::from_millis(5),
            verify_requests: false,
            stage2_max_group: 4,
            tier: TierConfig {
                seal_on_commit: true,
                checkpoint_every_groups: 2,
                ..Default::default()
            },
            store: StoreConfig {
                max_segment_bytes: 4 * 1024 * 1024,
                sync: SyncPolicy::GroupCommit {
                    max_batches: 4,
                    max_delay: Duration::from_millis(2),
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let start_node = |chain: &Arc<Chain>| {
            Arc::new(
                OffchainNode::start(
                    node_identity.clone(),
                    config.clone(),
                    Arc::clone(chain),
                    deployment.root_record,
                    &dir,
                )
                .expect("start node"),
            )
        };

        let node = start_node(&chain);
        {
            let mut publisher = Publisher::new(
                client_identity.clone(),
                Arc::clone(&node),
                Arc::clone(&chain),
                deployment.root_record,
                None,
            );
            let entries = (total_bytes as usize).div_ceil(TIER_PAYLOAD);
            let payloads: Vec<Vec<u8>> = (0..entries).map(|_| vec![0x5Au8; TIER_PAYLOAD]).collect();
            publisher.append_batch(payloads).expect("append");
            node.wait_stage2_idle(Duration::from_secs(3600))
                .expect("settle");
        }
        let records = node.entry_count() + node.log_positions();
        drop(node); // clean shutdown: final checkpoint + store sync

        // Restart with the checkpoint in place: O(tail).
        let started = Instant::now();
        let node = start_node(&chain);
        let restart_ckpt = started.elapsed();
        let replayed_ckpt = node.stats().restart_replayed_records;
        drop(node);

        // Delete the checkpoints and restart again: full O(log) replay.
        let _ = std::fs::remove_dir_all(dir.join("checkpoints"));
        let started = Instant::now();
        let node = start_node(&chain);
        let restart_full = started.elapsed();
        let replayed_full = node.stats().restart_replayed_records;
        drop(node);
        drop(miner);
        let _ = std::fs::remove_dir_all(&dir);

        // Storage-level scan throughput over the same byte volume.
        let (hot, cold, cold_segments) = tier_scan_rates(&tag, total_bytes);

        table.rows.push(vec![
            mb.to_string(),
            records.to_string(),
            fmt_dur(restart_ckpt),
            replayed_ckpt.to_string(),
            fmt_dur(restart_full),
            replayed_full.to_string(),
            fmt_rate(hot),
            fmt_rate(cold),
            cold_segments.to_string(),
        ]);
    }
    table
}

/// Entry payload bytes for the `cluster` experiment (1 KB values, as in
/// the paper's workload).
const CLUSTER_VALUE_SIZE: usize = VALUE_SIZE;

/// Extension (not in the paper): sharded cluster scaling with a
/// root-of-roots commit. Sweeps the shard count with the *total* workload
/// held constant and reports aggregate stage-1 append throughput, the
/// epoch/transaction economics (one on-chain tx per epoch regardless of
/// N), and an end-to-end two-level proof check against the on-chain
/// cluster root.
///
/// The run is latency-bound by design: every shard's deliver stage pays a
/// constant simulated response-network delay per flushed batch, so the
/// single-shard row serializes those delays while an N-shard cluster pays
/// them in parallel — the same reason a real multi-node deployment scales
/// before it saturates CPU.
pub fn cluster(profile: Profile) -> Table {
    use wedge_cluster::{identity_on_shard, ClusterConfig, LocalCluster};
    use wedge_sim::LatencyModel;

    let total = profile.scale(16_384, 4_096);
    let batch = 64;
    let mut table = Table {
        title: format!(
            "Cluster scaling (extension) — {total} appends total, root-of-roots commit per epoch"
        ),
        headers: vec![
            "shards".into(),
            "per-shard appends".into(),
            "append wall".into(),
            "aggregate ops/s".into(),
            "speedup vs 1".into(),
            "epochs".into(),
            "on-chain txs".into(),
            "txs / epoch".into(),
            "groups folded".into(),
            "gas / entry".into(),
            "two-level proof".into(),
        ],
        rows: Vec::new(),
    };
    let mut base_rate: Option<f64> = None;
    for shards in [1usize, 2, 4, 8] {
        let per_shard = (total / shards).max(batch);
        let config = ClusterConfig {
            shards,
            node: NodeConfig {
                batch_size: batch,
                batch_linger: Duration::from_millis(10),
                verify_requests: false,
                // The per-batch response link every shard pays; batches on
                // different shards pay it concurrently.
                response_latency: LatencyModel::Constant(Duration::from_millis(15)),
                ..Default::default()
            },
            epoch_max_group: 32,
            ..Default::default()
        };
        let mut cluster =
            LocalCluster::start(&format!("bench-{shards}"), config).expect("cluster start");

        // Pre-sign every request outside the timed region: one publisher
        // pinned per shard, sequences contiguous within its shard log.
        let payloads = kv_payloads(per_shard, KEY_SIZE, CLUSTER_VALUE_SIZE, 77);
        let publishers: Vec<Identity> = (0..shards)
            .map(|shard| {
                identity_on_shard(
                    cluster.router.shard_map(),
                    shard,
                    &format!("cluster-bench-{shards}"),
                )
            })
            .collect();
        let requests: Vec<Vec<AppendRequest>> = publishers
            .iter()
            .map(|publisher| {
                payloads
                    .iter()
                    .enumerate()
                    .map(|(seq, payload)| {
                        AppendRequest::new(publisher.secret_key(), seq as u64, payload.clone())
                    })
                    .collect()
            })
            .collect();

        let (reply_tx, reply_rx) = unbounded();
        let sent = shards * per_shard;
        let started = Instant::now();
        for shard_requests in requests {
            for request in shard_requests {
                let reply_tx = reply_tx.clone();
                cluster
                    .router
                    .submit(
                        request,
                        Box::new(move |result| {
                            let _ = reply_tx.send(result.map(|_| ()));
                        }),
                    )
                    .expect("route append");
            }
        }
        cluster.router.flush();
        for _ in 0..sent {
            reply_rx
                .recv_timeout(Duration::from_secs(600))
                .expect("stage-1 reply")
                .expect("stage-1 response");
        }
        let elapsed = started.elapsed();

        // Epoch commits run on the compressed simulated chain and are not
        // part of the stage-1 measurement.
        cluster.settle(Duration::from_secs(36_000)).expect("settle");
        let stats = cluster.coordinator.stats();
        let groups: usize = cluster
            .coordinator
            .records()
            .iter()
            .map(|record| {
                record
                    .shards
                    .iter()
                    .map(|slice| slice.roots.len())
                    .sum::<usize>()
            })
            .sum();

        // End-to-end: one entry proven against the *on-chain* cluster root.
        let sample = cluster
            .router
            .read_by_sequence(publishers[0].address(), 0)
            .expect("read sample entry");
        let proof = cluster
            .coordinator
            .prove(&cluster.router, 0, sample.entry_id)
            .expect("assemble cluster proof");
        let on_chain = cluster
            .coordinator
            .on_chain_root(proof.epoch)
            .expect("on-chain cluster root");
        proof
            .verify(&cluster.router.node_public_key(0), &on_chain)
            .expect("two-level proof verifies against chain");

        let rate = sent as f64 / elapsed.as_secs_f64().max(1e-9);
        let speedup = rate / base_rate.unwrap_or(rate);
        if base_rate.is_none() {
            base_rate = Some(rate);
        }
        table.rows.push(vec![
            shards.to_string(),
            per_shard.to_string(),
            fmt_dur(elapsed),
            fmt_rate(rate),
            format!("{speedup:.2}×"),
            stats.epochs_committed.to_string(),
            stats.txs_submitted.to_string(),
            format!(
                "{:.2}",
                stats.txs_submitted as f64 / stats.epochs_committed.max(1) as f64
            ),
            groups.to_string(),
            format!(
                "{:.1}",
                stats.gas_total as f64 / (shards as f64 * per_shard as f64)
            ),
            "verified ✓".into(),
        ]);
    }
    table
}
