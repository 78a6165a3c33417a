//! The `serve` subcommand: run the long-lived experiment-serving
//! daemon (`orion-serve`) from the CLI.
//!
//! ```text
//! orion-power-cli serve --addr 127.0.0.1:7774 --cache-dir .exp-cache \
//!     --workers 4 --queue 8 --client-budget 100000
//! ```
//!
//! Exit codes follow the scheme in [`crate::run`]: 2 for bad
//! arguments, 1 for bind/cache I/O failures (including a cache
//! directory locked by another live run — for a daemon that is an
//! operational conflict, not bad input), 3 when shutdown could not
//! drain every in-flight request within `--drain-timeout-ms`, 0 for a
//! clean drain.

use std::path::PathBuf;
use std::time::Duration;

use orion_serve::{signal, ServeConfig, Server};

use crate::args::{ArgError, Args};
use crate::run::{CmdOutput, EXIT_DEGRADED, EXIT_RUNTIME};

/// The daemon configuration `args` ask for: [`ServeConfig`]'s defaults
/// except the address, which defaults to `127.0.0.1:7774`.
fn config(args: &Args) -> Result<ServeConfig, ArgError> {
    let d = ServeConfig::default();
    Ok(ServeConfig {
        addr: args.get("addr").unwrap_or("127.0.0.1:7774").to_string(),
        cache_dir: args.get("cache-dir").map(PathBuf::from),
        workers: args.positive("workers")?.unwrap_or(d.workers),
        queue_depth: args.u64_or("queue", d.queue_depth as u64)? as usize,
        queue_patience: args
            .u64_opt("queue-patience-ms")?
            .map_or(d.queue_patience, Duration::from_millis),
        client_budget: args.u64_or("client-budget", d.client_budget)?,
        default_retries: args.u32_or("retries", d.default_retries)?,
        default_cell_timeout: args.positive_millis("cell-timeout-ms")?,
        drain_timeout: args
            .u64_opt("drain-timeout-ms")?
            .map_or(d.drain_timeout, Duration::from_millis),
        max_body_bytes: args.u64_or("max-body-bytes", d.max_body_bytes as u64)? as usize,
        checkpoint_every: args.u64_or("checkpoint-every", d.checkpoint_every)?,
        shards: args.positive("shards")?.unwrap_or(d.shards),
    })
}

/// Executes `serve`: binds, installs signal handlers, serves until
/// SIGTERM/SIGINT, drains, and maps the outcome onto the structured
/// exit codes (never panics).
///
/// # Errors
///
/// Returns an [`ArgError`] for malformed or out-of-range options.
pub fn execute(args: &Args) -> Result<CmdOutput, ArgError> {
    let config = config(args)?;
    let server = match Server::bind(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            return Ok(CmdOutput::error(
                EXIT_RUNTIME,
                format_args!("cannot start daemon on `{}`: {e}", config.addr),
            ))
        }
    };
    let addr = match server.local_addr() {
        Ok(a) => a.to_string(),
        Err(_) => config.addr.clone(),
    };
    signal::install();
    eprintln!(
        "orion serve: listening on {addr}, protocol {} (SIGTERM/SIGINT to drain)",
        crate::run::SERVE_PROTOCOL_VERSION
    );
    Ok(match server.run() {
        Ok(outcome) if outcome.drained => CmdOutput::ok(format!(
            "orion serve: drained cleanly after {} requests\n",
            outcome.requests
        )),
        Ok(outcome) => CmdOutput {
            text: format!(
                "orion serve: drain deadline expired with {} request(s) still in flight \
                 after {} total\n",
                outcome.abandoned, outcome.requests
            ),
            code: EXIT_DEGRADED,
        },
        Err(e) => CmdOutput::error(EXIT_RUNTIME, format_args!("daemon failed: {e}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::run::EXIT_BAD_INPUT;

    fn tokens(s: &str) -> Vec<String> {
        std::iter::once("serve")
            .chain(s.split_whitespace())
            .map(str::to_string)
            .collect()
    }

    fn parse_args(tokens: &[String]) -> Result<ServeConfig, ArgError> {
        crate::run::parse(tokens).and_then(|(_, args)| config(&args))
    }

    fn execute(tokens: &[String]) -> CmdOutput {
        crate::run::dispatch(tokens)
    }

    #[test]
    fn parses_full_flag_set() {
        let config = parse_args(&tokens(
            "--addr 0.0.0.0:9000 --cache-dir cache --workers 8 --queue 16 \
             --queue-patience-ms 500 --client-budget 1000 --retries 2 \
             --cell-timeout-ms 30000 --drain-timeout-ms 5000 --max-body-bytes 4096 \
             --checkpoint-every 4096",
        ))
        .unwrap();
        assert_eq!(config.addr, "0.0.0.0:9000");
        assert_eq!(config.cache_dir, Some(PathBuf::from("cache")));
        assert_eq!(config.workers, 8);
        assert_eq!(config.queue_depth, 16);
        assert_eq!(config.queue_patience, Duration::from_millis(500));
        assert_eq!(config.client_budget, 1000);
        assert_eq!(config.default_retries, 2);
        assert_eq!(config.default_cell_timeout, Some(Duration::from_secs(30)));
        assert_eq!(config.drain_timeout, Duration::from_millis(5000));
        assert_eq!(config.max_body_bytes, 4096);
        assert_eq!(config.checkpoint_every, 4096);
    }

    #[test]
    fn defaults_are_sane() {
        let config = parse_args(&tokens("")).unwrap();
        assert_eq!(config.addr, "127.0.0.1:7774");
        assert_eq!(config.cache_dir, None);
        assert_eq!(config.client_budget, u64::MAX);
    }

    #[test]
    fn bad_flags_are_typed_errors() {
        assert!(parse_args(&tokens("--workers 0")).is_err());
        assert!(parse_args(&tokens("--workers many")).is_err());
        assert!(parse_args(&tokens("--cell-timeout-ms 0")).is_err());
        assert!(parse_args(&tokens("--nope")).is_err());
        assert!(parse_args(&tokens("--addr")).is_err());
    }

    #[test]
    fn execute_maps_bad_args_to_exit_2() {
        let out = execute(&tokens("--bogus"));
        assert_eq!(out.code, EXIT_BAD_INPUT);
        assert!(out.text.contains("unknown option"));
    }

    #[test]
    fn execute_maps_bind_failure_to_exit_1() {
        // An address with no port can never bind (and can never start
        // the blocking serve loop by accident).
        let out = execute(&tokens("--addr no-port-here"));
        assert_eq!(out.code, EXIT_RUNTIME);
        assert!(out.text.contains("cannot start daemon"));
    }
}
