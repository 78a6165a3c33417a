//! The repository benchmark: three workloads run in-process through the
//! crates' public APIs. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fig5_cold|torus32_ckpt|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end metrics untraced, per-layer
//! metrics traced). A failed result check exits 1, bad usage 2.

mod batch;
mod check;
mod child;
mod replay;
mod report;
mod serve;
mod specs;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{host_fingerprint, result_line, END_TO_END, PER_LAYER};
use workloads::{
    batch_child, batch_e2e, batch_traced, batch_workload, serve_child, serve_e2e, serve_traced,
    RunArgs,
};

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["fig5_cold", "torus32_ckpt", "serve_mixed"];

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in child processes: run one repetition (requests numbered
    /// from this index) and print it in the child protocol.
    child: Option<u64>,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => cli.workload = value.clone(),
            "--seed" => cli.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cli.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?;
            }
            "--trace" => {
                cli.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--child" => cli.child = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&cli.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            cli.workload
        ));
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
    };
    let mode = if cli.trace { "traced" } else { "untraced" };
    let work = PathBuf::from(".bench_work").join(format!("{}-{mode}", cli.workload));
    if let Some(first) = cli.child {
        let done = match batch_workload(&cli.workload, cli.seed) {
            Some(b) => batch_child(&b, &work),
            None => serve_child(args, first, &work),
        };
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {} repetition failed: {e}", cli.workload);
                ExitCode::from(1)
            }
        };
    }
    println!("{}", host_fingerprint());
    let shape = match cli.workload.as_str() {
        "serve_mixed" => format!("workers={} clients={}", serve::WORKERS, serve::CLIENTS),
        name => {
            let b = batch_workload(name, cli.seed).expect("a batch workload");
            format!(
                "threads={} shards={} checkpoint_every={}",
                b.threads, b.shards, b.checkpoint_every
            )
        }
    };
    println!(
        "workload {} ({mode}): seed={} seconds={} {shape}",
        cli.workload, cli.seed, cli.seconds
    );

    let outcome = match (cli.workload.as_str(), cli.trace) {
        ("serve_mixed", false) => serve_e2e(args),
        ("serve_mixed", true) => serve_traced(args, &work),
        (name, traced) => {
            let b = batch_workload(name, cli.seed).expect("a batch workload");
            if traced {
                batch_traced(name, &b, args, &work)
            } else {
                batch_e2e(name, args)
            }
        }
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", cli.workload);
            return ExitCode::from(1);
        }
    };

    let catalog = if cli.trace { PER_LAYER } else { END_TO_END };
    for def in catalog {
        let value = outcome.metrics.get(def.name).copied().unwrap_or(f64::NAN);
        println!(
            "{}: {value} {} ({} is better)",
            def.name, def.unit, def.better
        );
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "failed_frac: {failed_frac} ({} of {} operations)",
        outcome.failed, outcome.attempted
    );
    for problem in outcome.problems.iter().take(10) {
        println!("FAILED: {problem}");
    }
    let (correct, line) = result_line(&outcome, catalog);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
