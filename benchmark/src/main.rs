//! `fidr-benchmark`: the repo's wire-to-container benchmark.
//!
//! Drives a real `fidr serve` child over loopback with one closed-loop
//! connection pinned to the server's CPU, checks every reply, and prints
//! every metric by name with its unit; the last stdout line is the JSON
//! object `BENCHMARK.json`'s contract asks for. See `README.md` for the
//! measurement design. Usually started through `benchmark/run.sh`, which
//! builds the server and this harness from the checked-out sources first.

mod child;
mod estimate;
mod kernels;
mod procfs;
mod prom;
mod replay;
mod spans;
mod traced;
mod untraced;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Plan, Requests, Workload, EPOCHS, SMOKE_EPOCHS};

/// Seconds of measured phase one round is sized for; `--seconds` buys
/// rounds in this unit.
const ROUND_SECONDS: u64 = 4;

/// Most rounds a run may be asked for.
const MAX_ROUNDS: u64 = 6;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measurement.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; a non-finite value (a 0/0 nobody guarded) reads as 0 so
    /// the JSON line always parses.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The metrics of the run's kind (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Ops issued, checks included.
    pub attempted: u64,
    /// Ops refused, errored or answered wrongly.
    pub failed: u64,
    /// Broken invariants other than a failed op.
    pub violations: Vec<String>,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    server_bin: PathBuf,
    out_dir: PathBuf,
}

const USAGE: &str = "usage: fidr-benchmark --workload \
    ingest_unique|ingest_dedup_hot|read_back|churn_gc [--seed N] [--seconds S] \
    [--trace 0|1] [--smoke] [--server-bin PATH] [--out-dir DIR]";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let mut args = Args {
        workload: Workload::IngestUnique,
        seed: 1,
        seconds: 4 * ROUND_SECONDS,
        trace: false,
        smoke: false,
        server_bin: PathBuf::from(target).join("release/fidr"),
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut workload = None;
    while let Some(flag) = argv.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--server-bin" => args.server_bin = value.into(),
            "--out-dir" => args.out_dir = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// Rounds a run of `seconds` measures: one per [`ROUND_SECONDS`].
fn rounds_for(seconds: u64) -> usize {
    ((seconds + ROUND_SECONDS / 2) / ROUND_SECONDS).clamp(1, MAX_ROUNDS) as usize
}

/// The result line of the benchmark contract.
fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// What the run saw of its host: per-layer metrics of a traced run,
/// printed for the reader on an untraced one.
fn host_metrics(cpu: Option<usize>, steal_pct: f64) -> [Metric; 3] {
    [
        Metric::new("host.nproc", procfs::online_cpus() as f64, "count"),
        Metric::new("host.pinned", f64::from(u8::from(cpu.is_some())), "count"),
        Metric::new("host.steal_pct", steal_pct, "%"),
    ]
}

fn run(args: &Args) -> Result<bool, String> {
    if cfg!(debug_assertions) {
        return Err("this is a debug build; build with --release (benchmark/run.sh does)".into());
    }
    let in_release_dir = args
        .server_bin
        .parent()
        .is_some_and(|dir| dir.ends_with("release"));
    if !in_release_dir || !args.server_bin.is_file() {
        return Err(format!(
            "{} is not a release-built fidr binary; run benchmark/run.sh, which builds it",
            args.server_bin.display()
        ));
    }
    let cpu = child::pin_self();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let (rounds, epochs) = if args.smoke {
        (1, SMOKE_EPOCHS)
    } else {
        (rounds_for(args.seconds), EPOCHS)
    };
    let steal_before = procfs::host_steal();
    let plan = Plan::generate(args.workload, args.seed, epochs);
    let requests = Requests::build(&plan);
    let env = wire::Env {
        server_bin: &args.server_bin,
        cpu,
        out_dir: &args.out_dir,
    };
    let name = args.workload.name();
    let mut outcome = if args.trace {
        let spans_path = args
            .out_dir
            .join(format!("{name}-seed{}.trace.json", args.seed));
        let outcome = traced::run(&env, &plan, &requests, &spans_path);
        println!("# spans: {}", spans_path.display());
        outcome
    } else {
        let epochs_csv = args
            .out_dir
            .join(format!("{name}-seed{}.epochs.csv", args.seed));
        untraced::run(&env, &plan, &requests, rounds, &epochs_csv)
    }
    .map_err(|e| format!("{name}: {e}"))?;

    let host = host_metrics(cpu, procfs::steal_pct(steal_before, procfs::host_steal()));
    if args.trace {
        // Per-layer metrics of the contract; on an untraced run they are
        // printed for the reader only.
        outcome.metrics.extend(host.clone());
    }

    println!(
        "# {name} seed={} trace={} rounds={} epochs={} epoch_ops={}",
        args.seed,
        u8::from(args.trace),
        if args.trace { 2 } else { rounds },
        plan.epochs(),
        plan.epoch_ops,
    );
    for m in &outcome.metrics {
        println!("{:<46} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if !args.trace {
        for m in &host {
            println!("# {} {}", m.name, m.value);
        }
    }
    println!(
        "# ops_attempted {} ops_failed {} failed_ops_ratio {}",
        outcome.attempted,
        outcome.failed,
        prom::div(outcome.failed as f64, outcome.attempted as f64)
    );
    for v in &outcome.violations {
        println!("# VIOLATION: {v}");
    }
    let correct = outcome.failed == 0 && outcome.violations.is_empty();
    println!("{}", result_json(&outcome, correct));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = args(&[
            "--workload",
            "churn_gc",
            "--seed",
            "77",
            "--seconds",
            "16",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::ChurnGc);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (77, 16, true, false));
        assert!(args(&["--workload", "read_back", "--smoke"]).unwrap().smoke);
        assert!(args(&["--seed", "1"]).is_err(), "--workload is required");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "read_back", "--seed"]).is_err());
        assert!(args(&["--workload", "read_back", "--bogus", "1"]).is_err());
    }

    /// `BENCHMARK.json` is the contract the driver checks the output
    /// against: its lists must be exactly what the harness prints.
    #[test]
    fn benchmark_json_lists_exactly_what_the_harness_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = fidr::trace::parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let entries = doc.get(key).and_then(|v| v.as_arr()).unwrap();
            entries
                .iter()
                .map(|m| m.get(field).and_then(|v| v.as_str()).unwrap().to_string())
                .collect()
        };
        let printed = |metrics: &[Metric], field: &str| -> Vec<String> {
            let pick = |m: &Metric| {
                if field == "name" {
                    m.name.clone()
                } else {
                    m.unit.into()
                }
            };
            metrics.iter().map(pick).collect()
        };
        let plan = Plan::generate(Workload::ReadBack, 1, 1);
        let end_to_end = untraced::reduce(&plan, Vec::new()).metrics;
        let round = wire::Round::default();
        let replay = replay::Replay::default();
        let mut per_layer = traced::layer_metrics(
            &plan,
            &round,
            &round,
            &replay,
            &replay,
            &kernels::Kernels::default(),
        );
        per_layer.extend(host_metrics(None, 0.0));
        for field in ["name", "unit"] {
            assert_eq!(listed("end_to_end", field), printed(&end_to_end, field));
            assert_eq!(listed("per_layer", field), printed(&per_layer, field));
        }
        let workloads: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
        assert_eq!(listed("workloads", "name"), workloads);
        let run_seconds = doc.get("run_seconds").and_then(|v| v.as_num()).unwrap();
        assert_eq!(rounds_for(run_seconds as u64), 4, "R = 4 by default");
    }

    #[test]
    fn seconds_buy_whole_rounds() {
        assert_eq!(rounds_for(16), 4);
        assert_eq!(rounds_for(1), 1);
        assert_eq!(rounds_for(20), 5);
        assert_eq!(rounds_for(24), 6);
        assert_eq!(rounds_for(60), 6);
    }

    #[test]
    fn the_result_line_is_the_contract_object() {
        let outcome = Outcome {
            metrics: vec![
                Metric::new("setup_s", 0.8127, "s"),
                Metric::new("bad", f64::NAN, "ratio"),
            ],
            attempted: 1000,
            failed: 0,
            violations: Vec::new(),
        };
        let line = result_json(&outcome, true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ratio\"}}}"
        );
        assert!(fidr::trace::parse_json(&line).is_ok());
    }
}
