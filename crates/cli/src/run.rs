//! Subcommand dispatch: the grammar table every command line is parsed
//! against, and the component commands that build a power model and
//! report it.

use orion_power::{
    buffer_area, central_buffer_area, crossbar_area, ArbiterKind, ArbiterParams, ArbiterPower,
    BufferParams, BufferPower, CentralBufferParams, CentralBufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower, WriteActivity,
};
use orion_tech::{Microns, ProcessNode, Technology, Volts, Watts};

use crate::args::{ArgError, Args, Grammar};
use crate::report::Report;

/// Usage text for `orion-power help`.
pub const USAGE: &str = "\
orion-power-cli — Orion's architectural power models as a standalone tool

USAGE:
  orion-power-cli <component> [options]
  orion-power-cli experiment run|explore <spec.toml> [options]
  orion-power-cli serve [options]

COMPONENTS:
  buffer          --flits N --bits N [--read-ports N] [--write-ports N] [--decoder]
  crossbar        (--ports N | --inputs N --outputs N) --bits N
                  [--kind matrix|muxtree]
  arbiter         --requesters N [--kind matrix|roundrobin|queuing]
  link            --length-mm X --bits N          (on-chip)
  link            --chip2chip --watts X --bits N  (constant-power)
  central-buffer  --banks N --rows N --bits N [--read-ports N] [--write-ports N]
  simulate        [--preset wh64|vc16|vc64|vc128|xb|cb] [--rate X] [--seed N]
                  [--topology KxK[xK][-mesh]] [--shards N]
                  [--warmup N] [--sample N] [--max-cycles N]
                  [--watchdog-cycles N] [--audit-every N] [--fault-links N]
                  [--fault-rate X] [--fault-ports N] [--fault-seed N]
                  [--traffic uniform|broadcast|transpose|tornado|bit-complement]
                  [--traffic-src x,y] [--observe-dir DIR] [--sample-every N]
                  [--trace-packets N] [--checkpoint-every N --checkpoint-file F]
                  [--resume-from F] [--json]    (see docs/OBSERVABILITY.md,
                  docs/ROBUSTNESS.md)
  powermap        --observe-dir DIR | --file powermap.jsonl
                  (renders the per-node power map of an observed run)
  experiment run  <spec.toml> [--threads N] [--cache-dir DIR] [--out-dir DIR]
                  [--retries N] [--cell-timeout-ms N] [--audit-every N]
                  [--checkpoint-every N] [--shards N] [--json] [--quiet]
                  (see docs/ORCHESTRATION.md)
  experiment explore  <spec.toml> [--threads N] [--cache-dir DIR]
                  [--out-dir DIR] [--seed N] [--budget N] [--retries N]
                  [--cell-timeout-ms N] [--checkpoint-every N] [--shards N]
                  [--observe-dir DIR] [--json] [--quiet]
                  (see docs/EXPLORATION.md)
  serve           [--addr HOST:PORT] [--cache-dir DIR] [--workers N]
                  [--queue N] [--queue-patience-ms N] [--client-budget N]
                  [--retries N] [--cell-timeout-ms N] [--drain-timeout-ms N]
                  [--max-body-bytes N] [--checkpoint-every N] [--shards N]
                  (see docs/SERVING.md)

COMMON OPTIONS:
  --node <0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm>   (default 0.1um)
  --vdd <volts>                                           (node default)

EXIT CODES:
  0  success (simulate: run completed; experiment: no failed cells;
     serve: drained cleanly)
  1  runtime I/O failure (cache or artifact files; serve: bind or
     cache conflict)
  2  bad input (unknown options, malformed spec, invalid configuration,
     cache directory locked by another live run)
  3  degraded result (simulate: deadlock/saturation/budget/faults/
     corrupted audit; experiment: failed, crashed, timed-out or
     corrupted cells; serve: drain deadline expired with requests
     still in flight)

EXAMPLES:
  orion-power-cli buffer --flits 64 --bits 256
  orion-power-cli crossbar --ports 5 --bits 256 --node 0.18um
  orion-power-cli link --chip2chip --watts 3 --bits 32
  orion-power-cli simulate --preset wh64 --rate 0.5 --watchdog-cycles 500
  orion-power-cli simulate --preset vc16 --fault-links 4 --fault-seed 7 --json
  orion-power-cli simulate --preset vc64 --rate 0.2 --traffic broadcast \\
      --traffic-src 1,2 --observe-dir obs --sample-every 50
  orion-power-cli powermap --observe-dir obs
  orion-power-cli experiment run examples/specs/fig5.toml --threads 8 \\
      --cache-dir .exp-cache --out-dir experiments
  orion-power-cli experiment explore examples/specs/explore_smoke.toml \\
      --threads 8 --seed 1 --budget 12 --cache-dir .exp-cache
";

/// Version of the CLI's JSON output layouts (`simulate --json` and
/// `experiment run --json`), emitted as `schema_version`. Bump on any
/// field change. Per-cell artifact records carry their own
/// [`orion_exp::SCHEMA_VERSION`].
///
/// History: 2 added supervision fields (`crashed`, `timed_out`,
/// `retried`, `corrupted`, `append_failures` to `experiment run`;
/// `audit` to `simulate`); 3 added the latency/flit summary fields
/// (`latency_p50_cycles`, `latency_p99_cycles`, `flits_delivered` to
/// `simulate`); 4 added the `experiment explore` summary layout
/// (`strategy`, `budget`, `seed`, `evaluations`, `rounds`, `frontier`,
/// `dominated` and the four-file `artifacts` object).
pub const JSON_SCHEMA_VERSION: u32 = 4;

/// Version of the `serve` daemon's wire protocol (the `protocol`
/// field of its framing and error lines), re-exported here so the
/// three version constants the CLI ships — CLI JSON layouts, per-cell
/// records ([`orion_exp::SCHEMA_VERSION`]), serve framing — live side
/// by side. See `docs/SERVING.md` for the wire format.
pub const SERVE_PROTOCOL_VERSION: u32 = orion_serve::SERVE_PROTOCOL_VERSION;

/// Exit code for runtime I/O failures (cache/artifact files).
pub const EXIT_RUNTIME: u8 = 1;
/// Exit code for bad input: unknown options, malformed specs, invalid
/// configurations.
pub const EXIT_BAD_INPUT: u8 = 2;
/// Exit code for degraded results: a simulation that did not complete
/// cleanly, or an experiment with failed cells.
pub const EXIT_DEGRADED: u8 = 3;

/// A command's rendered output plus the process exit code it asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// Process exit code (0 = clean success).
    pub code: u8,
}

impl CmdOutput {
    /// Output with the success code.
    pub fn ok(text: String) -> CmdOutput {
        CmdOutput { text, code: 0 }
    }

    /// An `error:` line with the given exit code.
    pub fn error(code: u8, message: impl std::fmt::Display) -> CmdOutput {
        CmdOutput {
            text: format!("error: {message}\n"),
            code,
        }
    }
}

/// One subcommand: its name (`experiment run` and `experiment
/// explore` are two words), what it accepts, and its entry point.
pub struct Command {
    /// The command name as typed.
    pub name: &'static str,
    /// The options, flags and positional argument it accepts.
    pub grammar: Grammar,
    run: fn(&Args) -> Result<CmdOutput, ArgError>,
}

/// Every subcommand. [`USAGE`] documents each option listed here.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "buffer",
        grammar: Grammar::new(
            &["node", "vdd", "flits", "bits", "read-ports", "write-ports"],
            &["decoder"],
        ),
        run: |a| buffer(a).map(CmdOutput::ok),
    },
    Command {
        name: "crossbar",
        grammar: Grammar::new(
            &["node", "vdd", "ports", "inputs", "outputs", "bits", "kind"],
            &[],
        ),
        run: |a| crossbar(a).map(CmdOutput::ok),
    },
    Command {
        name: "arbiter",
        grammar: Grammar::new(&["node", "vdd", "requesters", "kind"], &[]),
        run: |a| arbiter(a).map(CmdOutput::ok),
    },
    Command {
        name: "link",
        grammar: Grammar::new(
            &["node", "vdd", "length-mm", "bits", "watts"],
            &["chip2chip"],
        ),
        run: |a| link(a).map(CmdOutput::ok),
    },
    Command {
        name: "central-buffer",
        grammar: Grammar::new(
            &[
                "node",
                "vdd",
                "banks",
                "rows",
                "bits",
                "read-ports",
                "write-ports",
            ],
            &[],
        ),
        run: |a| central_buffer(a).map(CmdOutput::ok),
    },
    Command {
        name: "simulate",
        grammar: Grammar::new(
            &[
                "preset",
                "topology",
                "shards",
                "rate",
                "seed",
                "warmup",
                "sample",
                "max-cycles",
                "watchdog-cycles",
                "audit-every",
                "fault-links",
                "fault-rate",
                "fault-ports",
                "fault-seed",
                "traffic",
                "traffic-src",
                "observe-dir",
                "sample-every",
                "trace-packets",
                "checkpoint-every",
                "checkpoint-file",
                "resume-from",
            ],
            &["json"],
        ),
        run: crate::simulate::simulate,
    },
    Command {
        name: "powermap",
        grammar: Grammar::new(&["observe-dir", "file"], &[]),
        run: crate::powermap::powermap,
    },
    Command {
        name: "experiment run",
        grammar: Grammar::new(
            &[
                "threads",
                "cache-dir",
                "out-dir",
                "retries",
                "cell-timeout-ms",
                "audit-every",
                "checkpoint-every",
                "shards",
            ],
            &["json", "quiet"],
        )
        .with_positional("spec path"),
        run: crate::experiment::run,
    },
    Command {
        name: "experiment explore",
        grammar: Grammar::new(
            &[
                "threads",
                "cache-dir",
                "out-dir",
                "observe-dir",
                "seed",
                "budget",
                "retries",
                "cell-timeout-ms",
                "checkpoint-every",
                "shards",
            ],
            &["json", "quiet"],
        )
        .with_positional("spec path"),
        run: crate::experiment::explore,
    },
    Command {
        name: "serve",
        grammar: Grammar::new(
            &[
                "addr",
                "cache-dir",
                "workers",
                "queue",
                "queue-patience-ms",
                "client-budget",
                "retries",
                "cell-timeout-ms",
                "drain-timeout-ms",
                "max-body-bytes",
                "checkpoint-every",
                "shards",
            ],
            &[],
        ),
        run: crate::serve::execute,
    },
];

fn technology(args: &Args) -> Result<Technology, ArgError> {
    let node = match args.get("node").unwrap_or("0.1um") {
        "0.8um" => ProcessNode::Um800,
        "0.35um" => ProcessNode::Um350,
        "0.25um" => ProcessNode::Um250,
        "0.18um" => ProcessNode::Um180,
        "0.13um" => ProcessNode::Um130,
        "0.1um" | "100nm" => ProcessNode::Nm100,
        "70nm" | "0.07um" => ProcessNode::Nm70,
        other => return Err(ArgError(format!("unknown process node `{other}`"))),
    };
    let mut builder = Technology::builder(node);
    if let Some(v) = args.get("vdd") {
        let vdd: f64 = v
            .parse()
            .map_err(|_| ArgError(format!("--vdd expects a number, got `{v}`")))?;
        if vdd <= 0.0 {
            return Err(ArgError("--vdd must be positive".into()));
        }
        builder = builder.vdd(Volts(vdd));
    }
    Ok(builder.build())
}

fn model_err(e: orion_power::ModelError) -> ArgError {
    ArgError(e.to_string())
}

/// Finds the command `tokens` (program name excluded) name and parses
/// the rest against its grammar.
///
/// # Errors
///
/// Returns an [`ArgError`] for a missing or unknown command and for
/// anything [`Args::parse`] rejects.
pub fn parse(tokens: &[String]) -> Result<(&'static Command, Args), ArgError> {
    let (name, rest) = match tokens {
        [] => return Err(ArgError("missing command".into())),
        [first] if first == "experiment" => {
            return Err(ArgError(
                "missing experiment subcommand (run|explore)".into(),
            ))
        }
        [first, sub, rest @ ..] if first == "experiment" => (format!("experiment {sub}"), rest),
        [first, rest @ ..] => (first.clone(), rest),
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| ArgError(format!("unknown command `{name}`")))?;
    Ok((command, Args::parse(command.name, rest, &command.grammar)?))
}

/// Parses and executes a command line, returning the rendered report
/// and the exit code it asks for. No tokens, `help` or `--help` render
/// [`USAGE`].
///
/// # Errors
///
/// Returns a human-readable [`ArgError`] for unknown commands,
/// unknown, value-less or malformed options, and invalid model
/// parameters.
pub fn run(tokens: &[String]) -> Result<CmdOutput, ArgError> {
    if matches!(
        tokens.first().map(String::as_str),
        None | Some("help" | "--help")
    ) {
        return Ok(CmdOutput::ok(USAGE.to_string()));
    }
    let (command, args) = parse(tokens)?;
    (command.run)(&args)
}

/// The binary's one entry point: [`run`], with any [`ArgError`] mapped
/// to [`EXIT_BAD_INPUT`] and a pointer to `help`.
pub fn dispatch(tokens: &[String]) -> CmdOutput {
    run(tokens).unwrap_or_else(|e| {
        CmdOutput::error(
            EXIT_BAD_INPUT,
            format_args!("{e}\nrun `orion-power-cli help` for usage"),
        )
    })
}

fn buffer(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let flits = args.u32_required("flits")?;
    let bits = args.u32_required("bits")?;
    let mut params = BufferParams::new(flits, bits).with_ports(
        args.u32_or("read-ports", 1)?,
        args.u32_or("write-ports", 1)?,
    );
    if args.flag("decoder") {
        params = params.with_decoder();
    }
    let m = BufferPower::new(&params, tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "FIFO buffer (Table 2): {flits} flits x {bits} bits, {}R{}W at {} / {} V",
        m.read_ports(),
        m.write_ports(),
        tech.node(),
        tech.vdd().0
    ));
    r.push("L_wl", format!("{:.2} um", m.wordline_length().0));
    r.push("L_bl", format!("{:.2} um", m.bitline_length().0));
    r.cap("C_wl", m.wordline_cap());
    r.cap("C_br", m.read_bitline_cap());
    r.cap("C_bw", m.write_bitline_cap());
    r.cap("C_chg", m.precharge_cap());
    r.cap("C_cell", m.cell_cap());
    r.energy("E_read", m.read_energy());
    r.energy(
        "E_write (uniform data)",
        m.write_energy(&WriteActivity::uniform_random(bits)),
    );
    r.energy("E_write (worst case)", m.write_energy_max());
    if let Some(dec) = m.decoder() {
        r.energy("E_decode (sequential)", dec.access_energy_sequential());
    }
    r.power("leakage", m.leakage_power());
    r.push("area", format!("{:.6} mm^2", buffer_area(&m).as_mm2()));
    Ok(r.render())
}

fn crossbar(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let bits = args.u32_required("bits")?;
    let (inputs, outputs) = match args.get("ports") {
        Some(_) => {
            let p = args.u32_required("ports")?;
            (p, p)
        }
        None => (args.u32_required("inputs")?, args.u32_required("outputs")?),
    };
    let kind = match args.get("kind").unwrap_or("matrix") {
        "matrix" => CrossbarKind::Matrix,
        "muxtree" => CrossbarKind::MuxTree,
        other => return Err(ArgError(format!("unknown crossbar kind `{other}`"))),
    };
    let m = CrossbarPower::new(&CrossbarParams::new(kind, inputs, outputs, bits), tech)
        .map_err(model_err)?;
    let mut r = Report::new(format!(
        "{kind:?} crossbar (Table 3): {inputs}x{outputs}, {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.push("L_in", format!("{:.2} um", m.input_line_length().0));
    r.push("L_out", format!("{:.2} um", m.output_line_length().0));
    r.cap("C_in (per line)", m.input_line_cap());
    r.cap("C_out (per line)", m.output_line_cap());
    r.cap("C_xb_ctr", m.control_line_cap());
    r.energy("E_xb (uniform data)", m.traversal_energy_uniform());
    r.energy("E_xb (worst case)", m.traversal_energy_max());
    r.energy("E_xb_ctr", m.control_energy());
    r.power("leakage", m.leakage_power());
    r.push("area", format!("{:.6} mm^2", crossbar_area(&m).as_mm2()));
    Ok(r.render())
}

fn arbiter(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let requesters = args.u32_required("requesters")?;
    let kind = match args.get("kind").unwrap_or("matrix") {
        "matrix" => ArbiterKind::Matrix,
        "roundrobin" | "round-robin" | "rr" => ArbiterKind::RoundRobin,
        "queuing" | "queueing" => ArbiterKind::Queuing,
        other => return Err(ArgError(format!("unknown arbiter kind `{other}`"))),
    };
    let m = ArbiterPower::new(&ArbiterParams::new(kind, requesters), tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "{kind:?} arbiter (Table 4): {requesters} requesters at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.cap("C_req", m.request_cap());
    r.cap("C_pri", m.priority_cap());
    r.cap("C_int", m.internal_cap());
    r.cap("C_gnt", m.grant_cap());
    let all = (1u64 << requesters.min(63)) - 1;
    r.energy("E_arb (steady single grant)", m.arbitration_energy(1, 1, 0));
    r.energy(
        "E_arb (all requests toggle)",
        m.arbitration_energy(all, 0, requesters),
    );
    r.power("leakage", m.leakage_power());
    Ok(r.render())
}

fn link(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let bits = args.u32_required("bits")?;
    if args.flag("chip2chip") {
        let watts = args.f64_or("watts", 3.0)?;
        if watts < 0.0 {
            return Err(ArgError("--watts must be non-negative".into()));
        }
        let m = LinkPower::chip_to_chip(Watts(watts), bits);
        let mut r = Report::new(format!(
            "chip-to-chip link: {bits} lanes, constant {watts} W (traffic-insensitive)"
        ));
        r.energy("E_link per traversal", m.traversal_energy(bits as f64));
        r.power("static power", m.static_power());
        return Ok(r.render());
    }
    let mm = args.f64_or("length-mm", 3.0)?;
    if mm <= 0.0 {
        return Err(ArgError("--length-mm must be positive".into()));
    }
    let m = LinkPower::on_chip(Microns::from_mm(mm), bits, tech);
    let mut r = Report::new(format!(
        "on-chip link: {mm} mm x {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.cap("C_w per line", m.wire_cap());
    r.energy("E_link (uniform data)", m.traversal_energy_uniform());
    r.energy("E_link (worst case)", m.traversal_energy(bits as f64));
    Ok(r.render())
}

fn central_buffer(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let banks = args.u32_required("banks")?;
    let rows = args.u32_required("rows")?;
    let bits = args.u32_required("bits")?;
    let params = CentralBufferParams::new(banks, rows, bits).with_ports(
        args.u32_or("read-ports", 2)?,
        args.u32_or("write-ports", 2)?,
    );
    let m = CentralBufferPower::new(&params, tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "central buffer (hierarchical, section 3.2): {banks} banks x {rows} rows x {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.energy("E_write (uniform data)", m.write_energy_uniform());
    r.energy("E_read (uniform data)", m.read_energy_uniform());
    r.energy("  of which bank read", m.bank_model().read_energy());
    r.energy(
        "  of which read fabric",
        m.read_crossbar().traversal_energy_uniform(),
    );
    r.power("leakage", m.leakage_power());
    r.push(
        "area",
        format!("{:.6} mm^2", central_buffer_area(&m).as_mm2()),
    );
    Ok(r.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn run_line(line: &str) -> Result<String, ArgError> {
        run(&toks(line)).map(|o| {
            assert_eq!(o.code, 0, "component reports exit with success");
            o.text
        })
    }

    #[test]
    fn buffer_report_contains_table2_quantities() {
        let out = run_line("buffer --flits 64 --bits 256").unwrap();
        for needle in [
            "C_wl", "C_br", "C_bw", "C_cell", "E_read", "E_write", "area",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn buffer_decoder_flag_adds_line() {
        let plain = run_line("buffer --flits 64 --bits 32").unwrap();
        let decoded = run_line("buffer --flits 64 --bits 32 --decoder").unwrap();
        assert!(!plain.contains("E_decode"));
        assert!(decoded.contains("E_decode"));
    }

    #[test]
    fn crossbar_kinds_and_ports() {
        let m = run_line("crossbar --ports 5 --bits 256").unwrap();
        assert!(m.contains("Matrix crossbar"));
        let t = run_line("crossbar --inputs 4 --outputs 2 --bits 32 --kind muxtree").unwrap();
        assert!(t.contains("MuxTree crossbar"));
        assert!(t.contains("4x2"));
    }

    #[test]
    fn arbiter_kinds() {
        for (kind, name) in [
            ("matrix", "Matrix"),
            ("rr", "RoundRobin"),
            ("queuing", "Queuing"),
        ] {
            let out = run_line(&format!("arbiter --requesters 5 --kind {kind}")).unwrap();
            assert!(out.contains(name), "{kind}: {out}");
        }
    }

    #[test]
    fn link_variants() {
        let on = run_line("link --length-mm 3 --bits 256").unwrap();
        assert!(on.contains("on-chip link"));
        // The paper's anchor: 3mm at 0.1um = 1.08 pF.
        assert!(on.contains("1080.0"), "{on}");
        let c2c = run_line("link --chip2chip --watts 3 --bits 32").unwrap();
        assert!(c2c.contains("3.000 W"));
    }

    #[test]
    fn central_buffer_paper_config() {
        let out = run_line("central-buffer --banks 4 --rows 2560 --bits 32").unwrap();
        assert!(out.contains("4 banks x 2560 rows"));
        assert!(out.contains("E_read"));
    }

    #[test]
    fn node_and_vdd_options() {
        let hot = run_line("buffer --flits 16 --bits 32 --node 0.18um --vdd 2.0").unwrap();
        assert!(hot.contains("0.18um"));
        assert!(hot.contains("/ 2 V"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run_line("bogus --x 1").is_err());
        assert!(run_line("buffer --bits 32").is_err()); // missing --flits
        assert!(run_line("buffer --flits 0 --bits 32").is_err()); // invalid model
        assert!(run_line("buffer --flits 4 --bits 32 --typo 1").is_err());
        assert!(run_line("link --bits 32 --length-mm -1").is_err());
        assert!(run_line("crossbar --ports 5 --bits 32 --kind hexagon").is_err());
        assert!(run_line("buffer --flits 4 --bits 32 --node 45nm").is_err());
    }

    /// The tokens that name `command`, plus a placeholder positional
    /// argument when its grammar takes one.
    fn command_line(command: &Command) -> Vec<String> {
        let mut line = toks(command.name);
        line.extend(command.grammar.positional.map(|_| "spec.toml".to_string()));
        line
    }

    #[test]
    fn every_command_rejects_valueless_options_and_value_taking_flags() {
        for command in COMMANDS {
            for option in command.grammar.options {
                let mut line = command_line(command);
                line.push(format!("--{option}"));
                let out = dispatch(&line);
                assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
                assert!(
                    out.text.contains(&format!("--{option} requires a value")),
                    "{line:?} -> {}",
                    out.text
                );
            }
            for flag in command.grammar.flags {
                let mut line = command_line(command);
                line.extend([format!("--{flag}"), "stray".to_string()]);
                let out = dispatch(&line);
                assert_eq!(out.code, EXIT_BAD_INPUT, "{line:?} -> {}", out.text);
                assert!(out.text.starts_with("error:"), "{line:?} -> {}", out.text);
            }
        }
    }

    #[test]
    fn usage_documents_every_option_and_flag() {
        // `--name` must appear as a whole word: `--queue` is not
        // documented by `--queue-patience-ms`.
        let documented = |name: &str| {
            let needle = format!("--{name}");
            USAGE.match_indices(&needle).any(|(i, _)| {
                !USAGE[i + needle.len()..]
                    .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '-')
            })
        };
        for command in COMMANDS {
            for name in command.grammar.options.iter().chain(command.grammar.flags) {
                assert!(
                    documented(name),
                    "USAGE omits --{name} of `{}`",
                    command.name
                );
            }
            assert!(
                USAGE.contains(command.name),
                "USAGE omits `{}`",
                command.name
            );
        }
    }
}
