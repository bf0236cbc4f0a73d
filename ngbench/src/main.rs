//! The repository benchmark: the full Bitcoin-NG payment path driven from
//! outside the program through its public APIs, on three workloads.
//!
//! ```text
//! ngbench --workload <pay_validated|pay_wide|catchup_sim> --seed N --seconds S --trace 0|1
//! ngbench selfcheck --workload <name> --seed N --heldout-seed M --seconds S
//! ```
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics; a traced run
//! at the same seed reports the per-layer ones. The last line of standard
//! output is the result object; the line before it carries run metadata.
//! See `NOTES.md` beside this crate for what each metric means.

mod catchup;
mod common;
mod layers;
mod pay;
mod payments;
mod replay;

use common::{json_str, Outcome};
use std::process::ExitCode;

struct Workload {
    name: &'static str,
    why: &'static str,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "pay_validated",
        why: "the paper's full signed-payment path on 8 validating nodes: crypto, chain and chainstate do most of the work",
    },
    Workload {
        name: "pay_wide",
        why: "64 bandwidth-capped nodes without validation: gossip, overlay, compact relay, mempool and the scheduler do the work",
    },
    Workload {
        name: "catchup_sim",
        why: "fresh nodes with datadirs catching up on a finished chain, then restarting from disk: sync, cold bulk connect and storage",
    },
];

struct Args {
    selfcheck: bool,
    workload: String,
    seed: u64,
    heldout_seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1).peekable();
    let selfcheck = args.peek().is_some_and(|a| a == "selfcheck");
    if selfcheck {
        args.next();
    }
    let mut parsed = Args {
        selfcheck,
        workload: String::new(),
        seed: 1,
        heldout_seed: None,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = number()?,
            "--heldout-seed" => parsed.heldout_seed = Some(number()?),
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => parsed.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == parsed.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {names:?}"));
    }
    Ok(parsed)
}

fn run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    match workload {
        "pay_validated" => pay::run(&pay::PAY_VALIDATED, seed, seconds, trace),
        "pay_wide" => pay::run(&pay::PAY_WIDE, seed, seconds, trace),
        "catchup_sim" => catchup::run(seed, seconds, trace),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Median host-probe slice on the 2-core Xeon host the benchmark was
/// calibrated on.
const REFERENCE_PROBE_S: f64 = 320e-6;

/// Scales the wall-clock end-to-end metrics to the reference host speed: a
/// run whose probe slices took 10% longer than the reference ran on a host
/// 10% slower, so its throughput is raised and its set-up time lowered by
/// that factor. The host's speed swings by tens of percent over minutes, far
/// more than the bounds a regression check can use. Returns the raw values
/// and the probe reading, for the metadata line.
fn normalize(outcome: &mut Outcome) -> Vec<(String, f64)> {
    let (probe_s, slices) = common::host_probe();
    let mut raw = vec![
        ("host_probe_us".to_string(), probe_s * 1e6),
        ("host_probe_slices".to_string(), slices as f64),
    ];
    if slices == 0 {
        return raw;
    }
    let slowdown = probe_s / REFERENCE_PROBE_S;
    for metric in outcome.metrics.iter_mut().filter(|m| m.clock == "wall") {
        let scaled = match metric.unit {
            "1/s" => metric.value * slowdown,
            "s" => metric.value / slowdown,
            _ => continue,
        };
        raw.push((metric.name.clone(), metric.value));
        metric.value = scaled;
        metric.clock = "wall, host-normalized";
    }
    raw
}

fn metadata(args: &Args, outcome: &Outcome, raw: &[(String, f64)]) -> String {
    let why = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .map(|w| w.why)
        .unwrap_or("");
    let clocks: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| format!("{}: {}", json_str(&m.name), json_str(m.clock)))
        .collect();
    let samples: Vec<String> = outcome
        .samples
        .iter()
        .map(|(name, n)| format!("{}: {n}", json_str(name)))
        .collect();
    let violations: Vec<String> = outcome.violations.iter().map(|v| json_str(v)).collect();
    let raw: Vec<String> = raw
        .iter()
        .map(|(name, value)| format!("{}: {value}", json_str(name)))
        .collect();
    let exact: Vec<String> = outcome
        .fingerprint
        .iter()
        .map(|(key, value)| format!("{}: {}", json_str(key), json_str(value)))
        .collect();
    format!(
        "{{\"meta\": {{\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"host\": {{\"cores\": {}, \"cpu_model\": {}}}, \"rustc\": {}, \"git_commit\": {}, \
         \"clock\": {{{}}}, \"samples\": {{{}}}, \"exact\": {{{}}}, \"raw\": {{{}}}, \"violations\": [{}]}}}}",
        json_str(&args.workload),
        json_str(why),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        common::cores(),
        json_str(&common::cpu_model()),
        json_str(env!("NGBENCH_RUSTC")),
        json_str(env!("NGBENCH_GIT_COMMIT")),
        clocks.join(", "),
        samples.join(", "),
        exact.join(", "),
        raw.join(", "),
        violations.join(", "),
    )
}

fn result_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.violations.is_empty(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Two runs at one seed must agree on every exact count and virtual-time
/// figure, and a held-out seed must pass the correctness checks too.
fn selfcheck(args: &Args) -> Result<bool, String> {
    let first = run(&args.workload, args.seed, args.seconds, false)?;
    let second = run(&args.workload, args.seed, args.seconds, false)?;
    let mut ok = true;
    for (a, b) in first.fingerprint.iter().zip(&second.fingerprint) {
        let same = a == b;
        ok &= same;
        println!("{} {}: {}", if same { "same" } else { "DIFFERS" }, a.0, a.1);
    }
    ok &= first.fingerprint.len() == second.fingerprint.len();
    for (label, outcome) in [("first", &first), ("second", &second)] {
        ok &= outcome.violations.is_empty() && outcome.failed == 0;
        println!(
            "{label} run at seed {}: violations {:?}, failed {}",
            args.seed, outcome.violations, outcome.failed
        );
    }
    if let Some(heldout) = args.heldout_seed {
        let other = run(&args.workload, heldout, args.seconds, false)?;
        ok &= other.violations.is_empty() && other.failed == 0;
        println!(
            "held-out seed {heldout}: violations {:?}, failed {}",
            other.violations, other.failed
        );
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ngbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.selfcheck {
        return match selfcheck(&args) {
            Ok(true) => {
                println!("selfcheck passed");
                ExitCode::SUCCESS
            }
            Ok(false) => {
                println!("selfcheck FAILED");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("ngbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(mut outcome) => {
            // Per-layer figures stay raw: they explain a run, not compare runs.
            let raw = if args.trace {
                Vec::new()
            } else {
                normalize(&mut outcome)
            };
            for violation in &outcome.violations {
                eprintln!("ngbench: check failed: {violation}");
            }
            println!("{}", metadata(&args, &outcome, &raw));
            println!("{}", result_line(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ngbench: {e}");
            ExitCode::FAILURE
        }
    }
}
