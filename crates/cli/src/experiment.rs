//! The `experiment` subcommand: run a declarative TOML experiment spec
//! through the orchestration engine (`orion-exp`), or explore a design
//! space through the search engine (`orion-explore`).
//!
//! ```text
//! orion-power-cli experiment run examples/specs/fig5.toml \
//!     --threads 8 --cache-dir .exp-cache --out-dir experiments
//! orion-power-cli experiment explore examples/specs/explore_smoke.toml \
//!     --threads 8 --cache-dir .exp-cache --out-dir experiments
//! ```
//!
//! Both take the spec path as their one positional argument. Exit
//! codes follow the scheme in [`crate::run`]: 2 for bad input (spec errors, a cache directory
//! locked by another live run), 1 for I/O failures, 3 when the run
//! degraded (failed, crashed, timed-out or corrupted cells),
//! 0 otherwise.
//!
//! Supervision knobs: `--retries` grants panicking cells reseeded
//! extra attempts, `--cell-timeout-ms` sets a per-cell wall-clock
//! budget, and `--audit-every` overrides the spec's invariant-audit
//! cadence. The `ORION_EXP_PANIC_CELL` environment variable feeds the
//! engine's poison hook (testing/CI only).
//!
//! `experiment explore` adds `--seed` / `--budget` overrides (the
//! determinism contract keys on both — see `docs/EXPLORATION.md`) and
//! `--observe-dir` to dump the `explore_*` metrics snapshot.

use std::fmt::Display;
use std::path::{Path, PathBuf};

use orion_exp::{run_spec, write_artifacts, EngineOptions, ExperimentSpec};
use orion_explore::{run_explore, write_explore_artifacts, ExploreOptions, ExploreSpec};
use orion_serve::http::json_escape;

use crate::args::{ArgError, Args};
use crate::run::{CmdOutput, EXIT_BAD_INPUT, EXIT_DEGRADED, EXIT_RUNTIME, JSON_SCHEMA_VERSION};

/// An artifact path rendered for embedding in a JSON string literal:
/// quotes and backslashes (e.g. Windows separators) escaped, so an
/// `--out-dir` containing either still yields valid JSON.
fn json_path(p: &Path) -> String {
    json_escape(&p.display().to_string())
}

/// Reads and parses the spec file named by the positional argument;
/// an unreadable file or a malformed spec is bad input.
fn load_spec<T, E: Display>(args: &Args, parse: fn(&str) -> Result<T, E>) -> Result<T, CmdOutput> {
    let path = args.positional();
    let text = std::fs::read_to_string(path)
        .map_err(|e| CmdOutput::error(EXIT_BAD_INPUT, format_args!("cannot read `{path}`: {e}")))?;
    parse(&text).map_err(|e| CmdOutput::error(EXIT_BAD_INPUT, format_args!("{path}: {e}")))
}

/// Maps an engine I/O error: a cache directory locked by another live
/// run is bad input, anything else a runtime failure.
fn engine_error(engine: &str, e: std::io::Error) -> CmdOutput {
    if e.kind() == std::io::ErrorKind::AlreadyExists {
        CmdOutput::error(EXIT_BAD_INPUT, e)
    } else {
        CmdOutput::error(EXIT_RUNTIME, format_args!("{engine} I/O failure: {e}"))
    }
}

fn write_error(what: &str, dir: &Path, e: std::io::Error) -> CmdOutput {
    CmdOutput::error(
        EXIT_RUNTIME,
        format_args!("cannot write {what} under `{}`: {e}", dir.display()),
    )
}

fn out_dir(args: &Args) -> PathBuf {
    PathBuf::from(args.get("out-dir").unwrap_or("experiments"))
}

/// Progress lines go to stderr unless `--quiet` or `--json` is given.
fn progress(args: &Args) -> bool {
    !args.flag("quiet") && !args.flag("json")
}

/// Runs `experiment run <spec.toml>`: every grid cell through the
/// orchestration engine, then the JSONL/CSV artifacts and a summary.
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed or out-of-range options.
pub fn run(args: &Args) -> Result<CmdOutput, ArgError> {
    let opts = EngineOptions {
        threads: args.u64_or("threads", 1)? as usize,
        cache_dir: args.get("cache-dir").map(PathBuf::from),
        progress: progress(args),
        max_retries: args.u32_or("retries", 0)?,
        cell_timeout: args.positive_millis("cell-timeout-ms")?,
        poison: std::env::var("ORION_EXP_PANIC_CELL").ok(),
        checkpoint_every: args.u64_or("checkpoint-every", 0)?,
        shards: args.positive("shards")?.unwrap_or(1),
    };
    let audit_every = args.u64_opt("audit-every")?;
    Ok(run_grid(args, &opts, audit_every).unwrap_or_else(|failure| failure))
}

fn run_grid(
    args: &Args,
    opts: &EngineOptions,
    audit_every: Option<u64>,
) -> Result<CmdOutput, CmdOutput> {
    let mut spec = load_spec(args, ExperimentSpec::parse)?;
    if let Some(n) = audit_every {
        spec.measure.audit_every = n;
    }
    let (records, summary) = run_spec(&spec, opts).map_err(|e| engine_error("engine", e))?;
    let out_dir = out_dir(args);
    let artifacts = write_artifacts(&out_dir, &spec.name, &records)
        .map_err(|e| write_error("artifacts", &out_dir, e))?;

    let elapsed = summary.elapsed.as_secs_f64();
    let text = if args.flag("json") {
        format!(
            concat!(
                "{{\n",
                "  \"schema_version\": {},\n",
                "  \"experiment\": \"{}\",\n",
                "  \"cells\": {},\n",
                "  \"simulated\": {},\n",
                "  \"cache_hits\": {},\n",
                "  \"failed\": {},\n",
                "  \"crashed\": {},\n",
                "  \"timed_out\": {},\n",
                "  \"retried\": {},\n",
                "  \"corrupted\": {},\n",
                "  \"corrupt_cache_lines\": {},\n",
                "  \"append_failures\": {},\n",
                "  \"elapsed_s\": {:.3},\n",
                "  \"artifacts\": {{\"jsonl\": \"{}\", \"csv\": \"{}\"}}\n",
                "}}\n"
            ),
            JSON_SCHEMA_VERSION,
            spec.name,
            summary.total,
            summary.simulated,
            summary.cache_hits,
            summary.failed,
            summary.crashed,
            summary.timed_out,
            summary.retried,
            summary.corrupted,
            summary.corrupt_cache_lines,
            summary.append_failures,
            elapsed,
            json_path(&artifacts.jsonl),
            json_path(&artifacts.csv),
        )
    } else {
        let mut out = format!(
            "experiment {}: {} cells, {} simulated, {} cached, {} failed in {:.1}s\n",
            spec.name,
            summary.total,
            summary.simulated,
            summary.cache_hits,
            summary.failed,
            elapsed,
        );
        if summary.crashed > 0 || summary.timed_out > 0 || summary.retried > 0 {
            out.push_str(&format!(
                "supervision: {} crashed, {} timed out, {} recovered by retry\n",
                summary.crashed, summary.timed_out, summary.retried
            ));
        }
        if summary.corrupted > 0 {
            out.push_str(&format!(
                "warning: {} cell(s) failed the runtime invariant audit (outcome `corrupted`)\n",
                summary.corrupted
            ));
        }
        if summary.corrupt_cache_lines > 0 {
            out.push_str(&format!(
                "warning: skipped {} corrupt cache line(s); affected cells re-simulated\n",
                summary.corrupt_cache_lines
            ));
        }
        if let Some(e) = &summary.append_error {
            out.push_str(&format!(
                "warning: cache append broke mid-run ({} record(s) not cached): {e}\n",
                summary.append_failures
            ));
        }
        out.push_str(&format!(
            "artifacts: {}, {}\n",
            artifacts.jsonl.display(),
            artifacts.csv.display()
        ));
        out
    };

    let code = if summary.is_degraded() {
        EXIT_DEGRADED
    } else {
        0
    };
    Ok(CmdOutput { text, code })
}

/// Runs `experiment explore <spec.toml>`: a budgeted design-space
/// search, then the frontier/dominated artifacts and a summary.
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed or out-of-range options.
pub fn explore(args: &Args) -> Result<CmdOutput, ArgError> {
    let opts = ExploreOptions {
        threads: args.u64_or("threads", 1)? as usize,
        cache_dir: args.get("cache-dir").map(PathBuf::from),
        progress: progress(args),
        max_retries: args.u32_or("retries", 0)?,
        cell_timeout: args.positive_millis("cell-timeout-ms")?,
        seed: args.u64_opt("seed")?,
        budget: args.positive("budget")?,
        checkpoint_every: args.u64_or("checkpoint-every", 0)?,
        shards: args.positive("shards")?.unwrap_or(1),
    };
    Ok(search(args, &opts).unwrap_or_else(|failure| failure))
}

fn search(args: &Args, opts: &ExploreOptions) -> Result<CmdOutput, CmdOutput> {
    let spec = load_spec(args, ExploreSpec::parse)?;
    let report = run_explore(&spec, opts).map_err(|e| engine_error("explore", e))?;
    let out_dir = out_dir(args);
    let artifacts = write_explore_artifacts(&out_dir, &spec.name, &report.points)
        .map_err(|e| write_error("artifacts", &out_dir, e))?;
    if let Some(dir) = args.get("observe-dir").map(Path::new) {
        std::fs::create_dir_all(dir)
            .and_then(|()| {
                std::fs::write(dir.join("metrics.json"), report.metrics.to_json())?;
                std::fs::write(dir.join("metrics.csv"), report.metrics.to_csv())
            })
            .map_err(|e| write_error("metrics", dir, e))?;
    }

    let summary = &report.summary;
    let elapsed = summary.elapsed.as_secs_f64();
    let text = if args.flag("json") {
        format!(
            concat!(
                "{{\n",
                "  \"schema_version\": {},\n",
                "  \"experiment\": \"{}\",\n",
                "  \"strategy\": \"{}\",\n",
                "  \"budget\": {},\n",
                "  \"seed\": {},\n",
                "  \"evaluations\": {},\n",
                "  \"cells\": {},\n",
                "  \"rounds\": {},\n",
                "  \"frontier\": {},\n",
                "  \"dominated\": {},\n",
                "  \"cache_hits\": {},\n",
                "  \"executed\": {},\n",
                "  \"crashed\": {},\n",
                "  \"timed_out\": {},\n",
                "  \"retried\": {},\n",
                "  \"failed\": {},\n",
                "  \"append_failures\": {},\n",
                "  \"elapsed_s\": {:.3},\n",
                "  \"artifacts\": {{\"frontier_jsonl\": \"{}\", \"frontier_csv\": \"{}\", ",
                "\"dominated_jsonl\": \"{}\", \"dominated_csv\": \"{}\"}}\n",
                "}}\n"
            ),
            JSON_SCHEMA_VERSION,
            spec.name,
            summary.strategy,
            summary.budget,
            summary.seed,
            summary.evaluations,
            summary.cells,
            summary.rounds,
            summary.frontier_total(),
            summary.dominated,
            summary.stats.cache_hits,
            summary.stats.executed,
            summary.stats.crashed,
            summary.stats.timed_out,
            summary.stats.retried,
            summary.stats.failed,
            summary.stats.append_failures,
            elapsed,
            json_path(&artifacts.frontier_jsonl),
            json_path(&artifacts.frontier_csv),
            json_path(&artifacts.dominated_jsonl),
            json_path(&artifacts.dominated_csv),
        )
    } else {
        let mut out = format!(
            "explore {}: {} {} evaluations ({} budget, seed {}), {} rounds in {:.1}s\n",
            spec.name,
            summary.strategy,
            summary.evaluations,
            summary.budget,
            summary.seed,
            summary.rounds,
            elapsed,
        );
        for (traffic, n) in &summary.frontier_sizes {
            out.push_str(&format!("frontier[{traffic}]: {n} points\n"));
        }
        out.push_str(&format!(
            "cells: {} cached, {} simulated, {} dominated points\n",
            summary.stats.cache_hits, summary.stats.executed, summary.dominated,
        ));
        if summary.stats.crashed > 0 || summary.stats.timed_out > 0 || summary.stats.retried > 0 {
            out.push_str(&format!(
                "supervision: {} crashed, {} timed out, {} recovered by retry\n",
                summary.stats.crashed, summary.stats.timed_out, summary.stats.retried
            ));
        }
        if let Some(e) = &summary.append_error {
            out.push_str(&format!(
                "warning: cache append broke mid-run ({} record(s) not cached): {e}\n",
                summary.stats.append_failures
            ));
        }
        out.push_str(&format!(
            "artifacts: {}, {}\n",
            artifacts.frontier_jsonl.display(),
            artifacts.dominated_jsonl.display(),
        ));
        out
    };

    let code = if summary.is_degraded() {
        EXIT_DEGRADED
    } else {
        0
    };
    Ok(CmdOutput { text, code })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::Path;

    fn toks(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn execute(tokens: &[String]) -> CmdOutput {
        let line: Vec<String> = std::iter::once("experiment".to_string())
            .chain(tokens.iter().cloned())
            .collect();
        crate::run::dispatch(&line)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("orion-cli-exp-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_spec(dir: &Path) -> PathBuf {
        let path = dir.join("spec.toml");
        fs::write(
            &path,
            r#"
[experiment]
name = "cli-smoke"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[grid]
presets = ["vc16"]
rates = [0.02, 0.04]
"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn bad_input_exits_2() {
        for line in [
            "",                                // missing subcommand
            "walk spec.toml",                  // unknown subcommand
            "run",                             // missing spec path
            "run a.toml b.toml",               // extra positional
            "run a.toml --threads",            // value-less option
            "run a.toml --bogus 1",            // unknown option
            "run /nonexistent.toml",           // unreadable file
            "run a.toml --retries x",          // non-integer retries
            "run a.toml --cell-timeout-ms 0",  // zero budget
            "run a.toml --audit-every",        // value-less option
            "run a.toml --checkpoint-every x", // non-integer cadence
        ] {
            let out = execute(&toks(line));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(out.text.starts_with("error:"), "{line:?} -> {}", out.text);
        }
    }

    #[test]
    fn malformed_spec_exits_2_with_diagnostic() {
        let dir = temp_dir("badspec");
        let path = dir.join("bad.toml");
        fs::write(
            &path,
            "[experiment]\nname = \"x\"\n[grid]\npresets = [\"warp9\"]\nrates = [0.1]\n",
        )
        .unwrap();
        let out = execute(&toks(&format!("run {}", path.display())));
        assert_eq!(out.code, EXIT_BAD_INPUT);
        assert!(out.text.contains("warp9"), "{}", out.text);
        assert!(out.text.contains("line 4"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn run_writes_artifacts_then_hits_cache() {
        let dir = temp_dir("run");
        let spec = write_spec(&dir);
        let line = format!(
            "run {} --threads 2 --cache-dir {} --out-dir {} --json --quiet",
            spec.display(),
            dir.join("cache").display(),
            dir.join("out").display(),
        );

        let first = execute(&toks(&line));
        assert_eq!(first.code, 0, "{}", first.text);
        assert!(
            first
                .text
                .contains(&format!("\"schema_version\": {JSON_SCHEMA_VERSION}")),
            "{}",
            first.text
        );
        assert!(first.text.contains("\"crashed\": 0"), "{}", first.text);
        assert!(first.text.contains("\"cache_hits\": 0"), "{}", first.text);
        assert!(first.text.contains("\"simulated\": 2"), "{}", first.text);
        assert!(dir.join("out/cli-smoke.jsonl").exists());
        assert!(dir.join("out/cli-smoke.csv").exists());

        let second = execute(&toks(&line));
        assert_eq!(second.code, 0);
        assert!(second.text.contains("\"simulated\": 0"), "{}", second.text);
        assert!(second.text.contains("\"cache_hits\": 2"), "{}", second.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn locked_cache_dir_exits_2_with_holder_diagnostic() {
        let dir = temp_dir("locked");
        let spec = write_spec(&dir);
        let cache = dir.join("cache");
        let _lock = orion_exp::CacheLock::acquire(&cache).unwrap();
        let out = execute(&toks(&format!(
            "run {} --cache-dir {} --out-dir {} --quiet",
            spec.display(),
            cache.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        assert!(out.text.contains("lock"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_cell_exits_3_but_grid_completes() {
        let dir = temp_dir("poison");
        let path = dir.join("spec.toml");
        // Rate 0.055 is unique to this test: the poison env var is
        // process-global, so the pattern must not match any cell that
        // a concurrently running test simulates.
        fs::write(
            &path,
            r#"
[experiment]
name = "cli-poison"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[grid]
presets = ["vc16"]
rates = [0.02, 0.055]
"#,
        )
        .unwrap();
        std::env::set_var("ORION_EXP_PANIC_CELL", "r0.055000");
        let out = execute(&toks(&format!(
            "run {} --out-dir {} --json --quiet",
            path.display(),
            dir.join("out").display(),
        )));
        std::env::remove_var("ORION_EXP_PANIC_CELL");
        assert_eq!(out.code, EXIT_DEGRADED, "{}", out.text);
        assert!(out.text.contains("\"crashed\": 1"), "{}", out.text);

        // The grid still produced a full artifact: the healthy cell's
        // record plus exactly one quarantined record.
        let jsonl = fs::read_to_string(dir.join("out/cli-poison.jsonl")).unwrap();
        assert_eq!(jsonl.lines().count(), 2);
        assert_eq!(
            jsonl
                .lines()
                .filter(|l| l.contains("\"cell_outcome\":\"crashed\""))
                .count(),
            1
        );
        let _ = fs::remove_dir_all(&dir);
    }

    fn write_explore_spec(dir: &Path) -> PathBuf {
        let path = dir.join("explore.toml");
        fs::write(
            &path,
            r#"
[experiment]
name = "cli-explore"

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000

[explore]
strategy = "grid-refine"
budget = 4
rate = 0.02

[space]
families = ["vc"]
vcs = [2, 4]
depths = [4, 8]
"#,
        )
        .unwrap();
        path
    }

    #[test]
    fn explore_bad_input_exits_2() {
        for line in [
            "explore",                             // missing spec path
            "explore a.toml b.toml",               // extra positional
            "explore a.toml --budget 0",           // zero budget
            "explore a.toml --budget x",           // non-integer budget
            "explore a.toml --seed",               // value-less option
            "explore a.toml --bogus 1",            // unknown option
            "explore /nonexistent.toml",           // unreadable file
            "explore a.toml --cell-timeout-ms 0",  // zero budget
            "explore a.toml --checkpoint-every x", // non-integer cadence
        ] {
            let out = execute(&toks(line));
            assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
            assert!(out.text.starts_with("error:"), "{line:?} -> {}", out.text);
        }
    }

    #[test]
    fn explore_malformed_spec_exits_2_with_diagnostic() {
        let dir = temp_dir("badexplore");
        let path = dir.join("bad.toml");
        fs::write(
            &path,
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 4\nstrategy = \"warp\"\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap();
        let out = execute(&toks(&format!("explore {}", path.display())));
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        assert!(out.text.contains("warp"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_writes_frontier_artifacts_then_hits_cache() {
        let dir = temp_dir("explore");
        let spec = write_explore_spec(&dir);
        let line = format!(
            "explore {} --threads 2 --cache-dir {} --out-dir {} --observe-dir {} --json --quiet",
            spec.display(),
            dir.join("cache").display(),
            dir.join("out").display(),
            dir.join("obs").display(),
        );

        let first = execute(&toks(&line));
        assert_eq!(first.code, 0, "{}", first.text);
        assert!(
            first
                .text
                .contains(&format!("\"schema_version\": {JSON_SCHEMA_VERSION}")),
            "{}",
            first.text
        );
        assert!(first.text.contains("\"evaluations\": 4"), "{}", first.text);
        assert!(first.text.contains("\"executed\": 4"), "{}", first.text);
        assert!(first.text.contains("\"cache_hits\": 0"), "{}", first.text);
        for artifact in [
            "out/cli-explore.frontier.jsonl",
            "out/cli-explore.frontier.csv",
            "out/cli-explore.dominated.jsonl",
            "out/cli-explore.dominated.csv",
        ] {
            assert!(dir.join(artifact).exists(), "missing {artifact}");
        }
        let metrics = fs::read_to_string(dir.join("obs/metrics.json")).unwrap();
        assert!(metrics.contains("explore_evaluations"), "{metrics}");
        assert!(dir.join("obs/metrics.csv").exists());

        // Second run: every cell is a cache hit, frontier unchanged.
        let second = execute(&toks(&line));
        assert_eq!(second.code, 0, "{}", second.text);
        assert!(second.text.contains("\"executed\": 0"), "{}", second.text);
        assert!(second.text.contains("\"cache_hits\": 4"), "{}", second.text);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn explore_human_summary_mentions_frontier() {
        let dir = temp_dir("explore-human");
        let spec = write_explore_spec(&dir);
        let out = execute(&toks(&format!(
            "explore {} --out-dir {} --quiet",
            spec.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("explore cli-explore"), "{}", out.text);
        assert!(out.text.contains("frontier[uniform]"), "{}", out.text);
        assert!(
            out.text.contains("cli-explore.frontier.jsonl"),
            "{}",
            out.text
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_summary_escapes_artifact_paths() {
        let dir = temp_dir("json-escape");
        let spec = write_spec(&dir);
        // An out-dir whose name contains a quote and a backslash must
        // still produce valid JSON (escaped, not interpolated raw).
        let out_dir = dir.join("ou\"t\\dir");
        let out = execute(&toks(&format!(
            "run {} --out-dir {} --json --quiet",
            spec.display(),
            out_dir.display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text.contains(r#"ou\"t\\dir"#),
            "artifact paths must be JSON-escaped: {}",
            out.text
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn human_summary_mentions_artifacts() {
        let dir = temp_dir("human");
        let spec = write_spec(&dir);
        let out = execute(&toks(&format!(
            "run {} --out-dir {} --quiet",
            spec.display(),
            dir.join("out").display(),
        )));
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(
            out.text.contains("experiment cli-smoke: 2 cells"),
            "{}",
            out.text
        );
        assert!(out.text.contains("cli-smoke.csv"), "{}", out.text);
        let _ = fs::remove_dir_all(&dir);
    }
}
