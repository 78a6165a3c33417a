//! `orion-power-cli` — standalone power analysis from the command line.
//!
//! The paper (§3.2, "Release of power models"): *"This will allow our
//! power models to be used independently from the simulator, either as
//! a separate power analysis tool, or as a plug-in to other network
//! simulators."* This binary is that tool: it instantiates any component
//! power model from command-line parameters and prints its capacitances,
//! per-operation energies, leakage and area.
//!
//! ```text
//! orion-power-cli buffer --flits 64 --bits 256 --node 0.1um
//! orion-power-cli crossbar --ports 5 --bits 256 --kind matrix
//! orion-power-cli arbiter --requesters 5 --kind matrix
//! orion-power-cli link --length-mm 3 --bits 256
//! orion-power-cli link --chip2chip --watts 3 --bits 32
//! orion-power-cli central-buffer --banks 4 --rows 2560 --bits 32
//! ```
//!
//! The `simulate` subcommand additionally drives whole-network
//! experiments — including fault injection and the deadlock watchdog —
//! and reports the structured run outcome as text or JSON:
//!
//! ```text
//! orion-power-cli simulate --preset wh64 --rate 0.5 --watchdog-cycles 500
//! orion-power-cli simulate --preset vc16 --fault-links 4 --fault-seed 7 --json
//! ```
//!
//! The `experiment` subcommand runs whole declarative grids (TOML
//! specs) through the `orion-exp` engine with parallel workers and a
//! content-addressed result cache (see `docs/ORCHESTRATION.md`):
//!
//! ```text
//! orion-power-cli experiment run examples/specs/fig5.toml --threads 8 \
//!     --cache-dir .exp-cache --out-dir experiments
//! ```
//!
//! Every subcommand is parsed against one grammar table
//! ([`run::COMMANDS`]). Exit codes are structured for scripting:
//! 0 success, 1 runtime I/O failure, 2 bad input, 3 degraded result
//! (non-completed simulation or failed experiment cells). Exit-1 and
//! exit-2 text goes to stderr, everything else to stdout.

mod args;
mod experiment;
mod powermap;
mod report;
mod run;
mod serve;
mod simulate;

use std::process::ExitCode;

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let out = run::dispatch(&tokens);
    // Failures (I/O and bad input) go to stderr; reports, including
    // degraded ones, go to stdout.
    if matches!(out.code, run::EXIT_RUNTIME | run::EXIT_BAD_INPUT) {
        eprint!("{}", out.text);
    } else {
        print!("{}", out.text);
    }
    ExitCode::from(out.code)
}
