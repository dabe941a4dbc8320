//! End-to-end and per-layer benchmark of the WedgeBlock logging service.
//!
//! ```text
//! perfbench --workload <trickle|read_mixed> --seed <n> --seconds <s> --trace <0|1>
//!           [--setup-only]
//! ```
//!
//! Builds a chain, the contracts and one Offchain Node under
//! `.bench_run/` in the working directory, times the set-up, drives the
//! workload for `--seconds`, checks every output, and prints one JSON line:
//! `correct`, `attempted`, `failed`, `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`) and the run `record`.
//! `--setup-only` times the set-up, tears it down and prints `setup_s`.
//! `perfbench/run.py` is the entry point that builds this binary and
//! repeats the set-up in fresh processes.

mod check;
mod gen;
mod layers;
mod read_mixed;
mod reads;
mod report;
mod stats;
mod trickle;
mod world;

use std::path::PathBuf;
use std::time::Instant;

use check::Ledger;
use report::Report;
use stats::Samples;
use world::World;

/// Cores the benchmark reports against and sizes its client pools with.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Verified reads after the `trickle` loop: enough that the reported p99
/// has 100 samples beyond it, and that a second of host noise is averaged.
pub const POST_RUN_READS: usize = 10_000;
/// Entries the closing audit scans, from log position 0.
pub const AUDIT_BUDGET: usize = 10_000;
/// Largest relative gap allowed between the sum of a traced operation's
/// layer spans and the untraced end-to-end median.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

/// One run's parameters.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Private scratch directory under `.bench_run/`, which
    /// `perfbench/run.py` removes once every process of a run has ended.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn node_dir(&self) -> PathBuf {
        self.scratch.join("node")
    }
}

/// Whole-run figures every workload reports, taken after settle.
pub struct Totals {
    stage2: Samples,
    gas_per_op: f64,
    disk_ratio: f64,
}

impl Totals {
    /// Runs the ledger checks against the settled node and chain, and takes
    /// the chain's gas and the node directory's size.
    pub fn after_settle(
        r: &mut Report,
        world: &World,
        ledger: &Ledger,
        gas_before: u64,
        measured_acked: u64,
    ) -> Totals {
        let mut stage2 = Samples::default();
        match ledger.check(world) {
            Ok(samples) => samples.into_iter().for_each(|s| stage2.push(s)),
            Err(e) => r.wrong(e),
        }
        let gas = (world.chain.total_gas_used().0 - gas_before) as f64;
        Totals {
            stage2,
            gas_per_op: gas / measured_acked as f64,
            disk_ratio: world.disk_bytes() as f64 / ledger.payload_bytes as f64,
        }
    }

    /// Records the shared end-to-end metrics (call last: peak RSS).
    pub fn record(&self, r: &mut Report) {
        r.metric("stage2_p50_s", self.stage2.median(), "s");
        r.note("stage2_positions", self.stage2.len());
        r.metric("gas_per_op", self.gas_per_op, "gas");
        r.metric("disk_bytes_per_user_byte", self.disk_ratio, "ratio");
        r.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");
        let rate = 1.0 - r.failed as f64 / r.attempted.max(1) as f64;
        r.metric("success_rate", rate, "ratio");
    }
}

/// The traced run's closure check: the layer spans of one operation must
/// add up to the untraced end-to-end figure.
pub fn closure(r: &mut Report, parts: f64, untraced: f64) {
    let gap = (parts - untraced).abs() / untraced;
    r.metric("bench.closure_gap_frac", gap, "ratio");
    r.note("closure_tolerance", CLOSURE_TOLERANCE);
    if gap.is_nan() || gap > CLOSURE_TOLERANCE {
        r.wrong(format!(
            "layer spans sum to {parts:.3}, untraced figure {untraced:.3}: gap {gap:.3}"
        ));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut setup_only) =
        (None, None, None, false, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value()? == "1",
            "--setup-only" => setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("missing --seconds")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace,
        setup_only,
    })
}

/// Times a workload's set-up; measures (or, with `--setup-only`, skips the
/// measurement) and tears it down.
macro_rules! drive {
    ($module:ident, $ctx:expr, $setup_only:expr) => {{
        let t = Instant::now();
        let mut setup = $module::setup($ctx)?;
        let setup_s = t.elapsed().as_secs_f64();
        let report = (!$setup_only).then(|| $module::measure($ctx, &mut setup));
        $module::teardown(setup);
        (setup_s, report)
    }};
}

fn run(args: &Args, ctx: &Ctx) -> Result<(f64, Option<Report>), String> {
    Ok(match args.workload.as_str() {
        "trickle" => drive!(trickle, ctx, args.setup_only),
        "read_mixed" => drive!(read_mixed, ctx, args.setup_only),
        other => return Err(format!("unknown workload {other}")),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let scratch =
        PathBuf::from(".bench_run").join(format!("{}-{}", args.workload, std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: scratch directory: {e}");
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch,
    };
    match run(&args, &ctx) {
        Ok((setup_s, None)) => println!("{{\"setup_s\": {setup_s}}}"),
        Ok((setup_s, Some(mut r))) => {
            if args.trace {
                let rate = r.failed as f64 / r.attempted.max(1) as f64;
                r.metric("bench.error_rate", rate, "ratio");
            } else {
                r.metric("setup_s", setup_s, "s");
            }
            r.note("workload", &args.workload);
            r.note("seed", args.seed);
            r.note("seconds", args.seconds);
            r.note("trace", args.trace as u8);
            r.note("nproc", nproc());
            r.note("node_config", world::node_config_record());
            r.note(
                "chain",
                format!(
                    "ChainConfig::default, clock compression {}x",
                    world::COMPRESSION
                ),
            );
            println!("{}", r.to_json());
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
