//! `splitd-bench`: end-to-end benchmark of the `splitd` daemon.
//!
//! Builds `splitd` from the checkout, starts it as a child process
//! (`--workers 1`, Unix socket), and drives it over one connection in a
//! closed loop with exactly one request in flight. See `README.md` in
//! this directory for the workloads and why each exists.
//!
//! ```text
//! cargo run --release --manifest-path splitd-bench/Cargo.toml -- \
//!     --workload wire_inline --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is the result object; the line before it holds
//! diagnostics (host probe, stolen CPU time, sample counts) that are not
//! metrics.

mod daemon;
mod layers;
mod stats;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use workload::Kind;

/// Seed used when `--seed` is not given (echoed in the diagnostics).
const DEFAULT_SEED: u64 = 20_190_729;
/// The tail percentile reported as `latency_tail_ms`.
const TAIL_PERCENTILE: f64 = 90.0;

const USAGE: &str = "usage: splitd-bench --workload <wire_inline|solve_det|churn_journaled> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// A flat JSON object writer for the two output lines.
struct JsonLine(String);

impl JsonLine {
    fn new() -> JsonLine {
        JsonLine(String::from("{"))
    }
    fn raw(&mut self, key: &str, value: &str) -> &mut JsonLine {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        let _ = write!(self.0, "\"{key}\": {value}");
        self
    }
    fn num(&mut self, key: &str, value: f64) -> &mut JsonLine {
        // JSON has no NaN or infinity; a metric that could not be
        // measured reads 0 (and an empty sum's -0 reads 0 too)
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        self.raw(key, &format!("{value}"))
    }
    fn int(&mut self, key: &str, value: u64) -> &mut JsonLine {
        self.raw(key, &value.to_string())
    }
    fn text(&mut self, key: &str, value: &str) -> &mut JsonLine {
        self.raw(key, &format!("\"{value}\""))
    }
    fn finish(&mut self) -> String {
        self.0.push('}');
        std::mem::take(&mut self.0)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("splitd-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = args.kind;
    let bin = daemon::build_splitd();
    let host_probe_s = stats::host_probe_s();

    let generated = Instant::now();
    let inputs = workload::generate(kind, args.seed);
    let generate_s = generated.elapsed().as_secs_f64();

    // set up several times and keep the last daemon for the timed phase
    let reps = if args.trace { 1 } else { kind.setup_reps() };
    let mut setups = Vec::with_capacity(reps);
    let mut setup_ok = true;
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let (daemon, took, ok) = workload::set_up(&bin, kind, &inputs);
        setups.push(took.as_secs_f64());
        setup_ok &= ok;
        last = Some(daemon);
    }
    let daemon = last.expect("at least one set-up");
    let phase = workload::timed_phase(&bin, kind, &inputs, daemon, args.seconds, args.seed);

    // one in flight over one connection: nothing may be refused,
    // evicted, or queued behind another job
    let counters = &phase.counters;
    let heartbeat_ok =
        counters.rejected == 0 && counters.evicted == 0 && counters.queue_high_water <= 1;
    let failed_flags = workload::check(&inputs, &phase, args.seed);
    let attempted = phase.ops.len();
    let failed = failed_flags.iter().filter(|&&f| f).count();
    let correct = setup_ok && phase.restarts_ok && heartbeat_ok && failed == 0 && attempted > 0;

    let latencies: Vec<f64> = phase
        .ops
        .iter()
        .map(|op| op.latency_ns as f64 / 1e6)
        .collect();
    let latency_p50_ms = stats::median(&latencies);
    let clean = stats::clean(&phase, TAIL_PERCENTILE);
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut dominant = "";
    if args.trace {
        let scratch = daemon::RunDir::new("replay");
        let report = layers::report(&inputs, &phase, scratch.path());
        metrics = report.metrics;
        dominant = report.dominant;
    } else {
        metrics.push(("throughput_rps", clean.throughput_rps, "1/s"));
        metrics.push(("latency_p50_ms", clean.p50_ms, "ms"));
        metrics.push(("latency_tail_ms", clean.tail_ms, "ms"));
        metrics.push(("setup_s", stats::median(&setups), "s"));
        metrics.push(("peak_rss_mib", phase.peak_rss_mib, "MiB"));
    }

    let mut diag = JsonLine::new();
    diag.text("workload", kind.name())
        .int("seed", args.seed)
        .int("default_seed", DEFAULT_SEED)
        .int("seconds", args.seconds)
        .num("host_probe_s", host_probe_s)
        .num("host_steal_s", phase.steal_s())
        .num("input_generation_s", generate_s)
        .raw(
            "setup_s_each",
            &format!(
                "[{}]",
                setups
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        )
        .int("ops", attempted as u64)
        .num("tail_percentile", TAIL_PERCENTILE)
        .num(
            "samples_beyond_tail",
            (clean.ops as f64 * (1.0 - TAIL_PERCENTILE / 100.0)).floor(),
        )
        .int("slices", clean.slices as u64)
        .int("slices_kept", clean.kept as u64)
        .int("ops_kept", clean.ops as u64)
        .num(
            "phase_throughput_rps",
            attempted as f64 / phase.wall.as_secs_f64(),
        )
        .num("phase_latency_p50_ms", latency_p50_ms)
        .num(
            "phase_latency_tail_ms",
            stats::percentile(&latencies, TAIL_PERCENTILE),
        )
        .int("daemons", phase.daemons as u64)
        .int("repairs", counters.repairs)
        .int("full_resolves", counters.full_resolves)
        .int("journal_bytes", counters.journal_bytes)
        .raw("heartbeat_ok", &heartbeat_ok.to_string())
        .raw("setup_ok", &(setup_ok && phase.restarts_ok).to_string());
    if args.trace {
        diag.text("dominant_layer", dominant);
    }
    println!("{}", diag.finish());

    let mut values = JsonLine::new();
    for (name, value, unit) in &metrics {
        let mut metric = JsonLine::new();
        metric.num("value", *value).text("unit", unit);
        values.raw(name, &metric.finish());
    }
    let mut result = JsonLine::new();
    result
        .raw("correct", &correct.to_string())
        .int("attempted", attempted as u64)
        .int("failed", failed as u64)
        .raw("metrics", &values.finish());
    println!("{}", result.finish());
    ExitCode::SUCCESS
}
