//! The three workloads, untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use orion_exp::{CellRecord, CellRunner, ExperimentSpec};

use crate::batch::{self, Batch, GridRun};
use crate::check::{self, accuracy_line, digest_verdict};
use crate::child;
use crate::replay::{replay, ReplayWork};
use crate::report::{peak_rss_mb, Outcome};
use crate::serve::{self, closed_loop, trace_exchange, Daemon, Exchange, Expect};
use crate::specs;
use crate::stats::{max, median, tail};
use crate::trace::Tracer;

/// Fewest grids a batch run times (each after its own set-up).
const MIN_GRIDS: usize = 3;
/// Requests per `serve_mixed` segment. A segment is a fresh daemon with
/// its own set-up (pre-simulation, cache open, bind), so set-up is
/// sampled across the run. Segments serve a fixed number of requests,
/// not a fixed time, because the daemon keeps every new cell in memory:
/// a count keeps its footprint, and so `peak_rss_mb`, independent of
/// host speed.
const SERVE_SEGMENT_REQUESTS: usize = 400;
/// A segment that has not finished by then has hung.
const SERVE_SEGMENT_LIMIT: Duration = Duration::from_secs(150);

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Workload seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
}

/// A batch workload by name.
pub fn batch_workload(name: &str, seed: u64) -> Option<Batch> {
    match name {
        "fig5_cold" => Some(Batch {
            spec_text: specs::fig5(seed),
            threads: 2,
            shards: 1,
            checkpoint_every: 0,
        }),
        "torus32_ckpt" => Some(Batch {
            spec_text: specs::torus32(seed),
            threads: 1,
            shards: 2,
            checkpoint_every: 200,
        }),
        _ => None,
    }
}

/// Replay length per configuration: the 32×32 fabric steps ~60× more
/// routers per cycle than the 4×4 one.
fn replay_cycles(batch: &Batch) -> u64 {
    if batch.shards > 1 {
        200
    } else {
        1000
    }
}

/// Runs `f`, pushing its duration in seconds onto `secs`.
fn timed<T>(secs: &mut Vec<f64>, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    let start = Instant::now();
    let value = f()?;
    secs.push(start.elapsed().as_secs_f64());
    Ok(value)
}

fn invalid(e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidInput, e)
}

/// Checks one grid run: a cold cache, every record appended, every
/// cell present and none failed.
fn check_grid(out: &mut Outcome, run: &GridRun, cells: usize) {
    for r in &run.records {
        out.check(
            check::is_failure(r).then(|| format!("cell {} failed: {}", r.cell, r.cell_outcome)),
        );
    }
    let problem = if run.records.len() != cells {
        Some(format!("{} records for {cells} cells", run.records.len()))
    } else if run.cache_hits != 0 {
        Some(format!("{} cache hits in a cold run", run.cache_hits))
    } else if run.append_failures != 0 {
        Some(format!("{} records not appended", run.append_failures))
    } else {
        None
    };
    out.check(problem);
}

/// What a run keeps of a grid once the grid is checked, so memory does
/// not grow with the number of grids a run fits in.
struct Kept {
    wall_s: f64,
    digest: String,
}

/// Checks a grid run and keeps its summary.
fn keep(out: &mut Outcome, run: GridRun, cells: usize) -> Kept {
    check_grid(out, &run, cells);
    Kept {
        wall_s: run.wall_s,
        digest: run.digest,
    }
}

fn walls(runs: &[Kept]) -> Vec<f64> {
    runs.iter().map(|r| r.wall_s).collect()
}

/// Checks that every run (traced ones too) produced the same artifact,
/// and the committed one for this seed.
fn check_digests(out: &mut Outcome, workload: &str, seed: u64, digests: &[String]) {
    match digest_verdict(workload, seed, digests) {
        Ok(verdict) => {
            println!("digest {workload} seed {seed}: {verdict}");
            out.check(None);
        }
        Err(e) => out.check(Some(format!("result check: {e}"))),
    }
}

fn outcome_mix(records: &[CellRecord]) -> String {
    let mut mix: BTreeMap<&str, usize> = BTreeMap::new();
    for r in records {
        *mix.entry(r.outcome.as_str()).or_default() += 1;
    }
    mix.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Prints a child's failed checks and its result line.
fn print_rep(out: &Outcome, fields: &[(&str, f64)], digest: Option<&str>) {
    for problem in &out.problems {
        println!("problem {problem}");
    }
    let mut line = format!("rep attempted={} failed={}", out.attempted, out.failed);
    for (key, value) in fields {
        line.push_str(&format!(" {key}={value}"));
    }
    if let Some(d) = digest {
        line.push_str(&format!(" digest={d}"));
    }
    println!("{line}");
}

/// One cold pass of a batch workload, in a child process: set-up, one
/// grid into an empty cache, its checks.
pub fn batch_child(batch: &Batch, work: &Path) -> io::Result<()> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let spec = timed(&mut setup, || batch::setup(batch).map_err(invalid))?;
    let run = batch::run_untraced(batch, &spec, &work.join("grid"))?;
    check_grid(&mut out, &run, spec.grid_size());
    println!(
        "info cells per grid: {}; outcomes: {}",
        run.records.len(),
        outcome_mix(&run.records)
    );
    if let Some(line) = accuracy_line(&run.records) {
        println!("info {line}");
    }
    let fields = [
        ("setup_s", setup[0]),
        ("wall_s", run.wall_s),
        ("flits", check::flits(&run.records) as f64),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    print_rep(&out, &fields, Some(&run.digest));
    Ok(())
}

/// The arguments that run one repetition of `workload` in a child.
fn child_args(workload: &str, args: RunArgs, first: u64) -> Vec<String> {
    [
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        "0",
        "--child",
        &first.to_string(),
    ]
    .map(str::to_string)
    .to_vec()
}

/// Runs one child repetition, folding its checks into `out`.
fn run_child(out: &mut Outcome, args: &[String]) -> Option<child::Rep> {
    match child::run(args) {
        Ok(rep) => {
            out.attempted += rep.get("attempted") as u64;
            out.failed += rep.get("failed") as u64;
            out.problems.extend(rep.problems.iter().cloned());
            Some(rep)
        }
        Err(e) => {
            out.check(Some(e));
            None
        }
    }
}

/// A batch workload, untraced: cold passes in child processes until
/// the run's time is up (at least [`MIN_GRIDS`]).
pub fn batch_e2e(name: &str, args: RunArgs) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_GRIDS || start.elapsed().as_secs_f64() < args.seconds {
        match run_child(&mut out, &child_args(name, args, 0)) {
            Some(rep) => reps.push(rep),
            None if reps.is_empty() => return Err(io::Error::other(out.problems.join("; "))),
            None => {}
        }
    }
    let digests: Vec<String> = reps
        .iter()
        .map(|r| r.digest.clone().unwrap_or_default())
        .collect();
    check_digests(&mut out, name, args.seed, &digests);

    let values = |key: &str| reps.iter().map(|r| r.get(key)).collect::<Vec<f64>>();
    let walls = values("wall_s");
    let rates: Vec<f64> = reps
        .iter()
        .map(|r| r.get("flits") / r.get("wall_s"))
        .collect();
    out.set("setup_s", median(&values("setup_s")));
    out.set("wall_s", median(&walls));
    out.set("sim_flits_per_s", median(&rates));
    out.set("req_per_s", reps.len() as f64 / walls.iter().sum::<f64>());
    out.set("peak_rss_mb", median(&values("peak_rss_mb")));

    for line in &reps.last().expect("at least one pass").info {
        println!("{line}");
    }
    let listed: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    println!(
        "samples: {} cold passes, wall_s [{}]",
        reps.len(),
        listed.join(" ")
    );
    Ok(out)
}

/// Per-layer metrics shared by every traced workload.
fn layer_metrics(
    out: &mut Outcome,
    tr: &Tracer,
    mono: ReplayWork,
    sharded: ReplayWork,
    shards: usize,
) {
    let per = |total: f64, n: u64| if n == 0 { 0.0 } else { total / n as f64 };
    let med = |name: &str, scale: f64| median(&tr.durations(name)) / scale;
    out.set("power.build_us", med("power.build", 1e3));
    let traffic =
        tr.total_ns("net.traffic") - tr.total_ns("sim.enqueue") - tr.total_ns("shard.enqueue");
    out.set(
        "net.traffic_ns_per_node_cycle",
        per(traffic, mono.router_cycles + sharded.router_cycles),
    );
    let step = tr.total_ns("sim.step");
    out.set(
        "sim.step_ns_per_router_cycle",
        per(step, mono.router_cycles),
    );
    out.set("sim.step_ns_per_flit_hop", per(step, mono.flit_hops));
    out.set(
        "sim.enqueue_ns_per_packet",
        per(tr.total_ns("sim.enqueue"), mono.packets),
    );
    out.set(
        "sim.flits_in_flight_mean",
        per(mono.flits_in_flight_sum as f64, mono.cycles),
    );
    out.set("sim.snapshot_ms", med("sim.snapshot", 1e6));
    out.set(
        "sim.snapshot_kb",
        median(tr.samples("sim.snapshot_bytes")) / 1024.0,
    );
    let shard_step = tr.total_ns("shard.step");
    out.set(
        "shard.step_ns_per_router_cycle",
        per(shard_step, sharded.router_cycles),
    );
    let eff = if shard_step > 0.0 {
        step / (shards as f64 * shard_step)
    } else {
        0.0
    };
    out.set("shard.scaling_eff", eff);
    let cell_s: Vec<f64> = tr.durations("core.run").iter().map(|ns| ns / 1e9).collect();
    out.set("core.cell_s_p50", median(&cell_s));
    out.set("core.cell_s_max", max(&cell_s));
    out.set("ckpt.count", tr.durations("ckpt.save").len() as f64);
    out.set("ckpt.encode_ms", med("ckpt.encode", 1e6));
    out.set("ckpt.save_ms", med("ckpt.save", 1e6));
    out.set(
        "ckpt.image_kb",
        median(tr.samples("ckpt.image_bytes")) / 1024.0,
    );
    out.set("exp.spec_parse_us", med("exp.spec_parse", 1e3));
    out.set("exp.cache_open_ms", med("exp.cache_open", 1e6));
    let lookups = tr.samples("exp.cache_lookups").len();
    let hits = tr.samples("exp.cache_hits").len();
    out.set("exp.cache_hit_ratio", per(hits as f64, lookups as u64));
    out.set("exp.cell_hit_us", med("exp.cell_hit", 1e3));
    out.set("exp.cell_miss_ms", med("exp.cell_miss", 1e6));
    out.set("exp.append_us", med("exp.append", 1e3));
    out.set("exp.artifact_write_ms", med("exp.artifacts", 1e6));
    out.set("serve.ttfb_ms", med("serve.ttfb", 1e6));
    out.set(
        "serve.first_record_ms",
        median(tr.samples("serve.first_record_ns")) / 1e6,
    );
    out.set("serve.stream_ms", med("serve.stream", 1e6));
    println!("exp cache: {hits} hits / {lookups} lookups");
    println!(
        "replay: {} router-cycles mono, {} sharded, {} flit-hops, {} packets",
        mono.router_cycles, sharded.router_cycles, mono.flit_hops, mono.packets
    );
    let layers: Vec<String> = tr
        .self_time_by_layer()
        .iter()
        .map(|(layer, ns)| format!("{layer}={:.1}", *ns as f64 / 1e6))
        .collect();
    println!("self time per layer (ms): {}", layers.join(" "));
}

/// Writes the spans of a traced run under `work`.
fn write_spans(tr: &Tracer, work: &Path) -> io::Result<()> {
    fs::create_dir_all(work)?;
    let path = work.join("spans.jsonl");
    fs::write(&path, tr.to_jsonl())?;
    println!("spans: {} written to {}", tr.spans.len(), path.display());
    Ok(())
}

/// Replays every cell of `spec` on one engine and, with `shards > 1`,
/// on the sharded engine too.
fn replay_all(
    spec: &ExperimentSpec,
    cycles: u64,
    shards: usize,
    snapshot_every: u64,
    tr: &mut Tracer,
) -> io::Result<(ReplayWork, ReplayWork)> {
    let (mut mono, mut sharded) = (ReplayWork::default(), ReplayWork::default());
    for (i, cell) in spec.expand().iter().enumerate() {
        mono.add(replay(cell, cycles, 1, snapshot_every, i as u64, tr).map_err(invalid)?);
        if shards > 1 {
            sharded.add(replay(cell, cycles, shards, 0, i as u64, tr).map_err(invalid)?);
        }
    }
    Ok((mono, sharded))
}

/// A batch workload, traced: untraced and traced grids alternate, then
/// the replayer steps every cell's configuration.
pub fn batch_traced(name: &str, batch: &Batch, args: RunArgs, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let spec = batch::setup(batch).map_err(invalid)?;
    let cells = spec.grid_size();
    let mut tr = Tracer::new(Instant::now());
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while plain.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let run = batch::run_untraced(batch, &spec, &work.join("grid"))?;
        plain.push(keep(&mut out, run, cells));
        let run = batch::run_traced(batch, &work.join("grid"), traced.len() as u64, &mut tr)?;
        traced.push(keep(&mut out, run, cells));
    }
    let digests: Vec<String> = plain
        .iter()
        .chain(&traced)
        .map(|r| r.digest.clone())
        .collect();
    check_digests(&mut out, name, args.seed, &digests);

    let snapshot_every = if batch.checkpoint_every > 0 { 100 } else { 0 };
    let (mono, sharded) = replay_all(
        &spec,
        replay_cycles(batch),
        batch.shards,
        snapshot_every,
        &mut tr,
    )?;
    layer_metrics(&mut out, &tr, mono, sharded, batch.shards);
    out.set(
        "trace.overhead_frac",
        median(&walls(&traced)) / median(&walls(&plain)) - 1.0,
    );
    out.set("serve.rejected", 0.0);
    println!("grids: {} untraced, {} traced", plain.len(), traced.len());
    write_spans(&tr, work)?;
    Ok(out)
}

/// Counts and checks the exchanges of a closed loop.
fn check_exchanges(out: &mut Outcome, exchanges: &[Exchange]) {
    for ex in exchanges {
        out.check(
            ex.error
                .clone()
                .map(|e| format!("request {}: {e}", ex.index)),
        );
    }
}

fn check_daemon(out: &mut Outcome, daemon: &Daemon) {
    out.check(
        (daemon.base_failures > 0).then(|| format!("{} base cells failed", daemon.base_failures)),
    );
}

fn check_stop(out: &mut Outcome, daemon: Daemon) -> io::Result<()> {
    let stopped = daemon.stop()?;
    out.check((!stopped.drained).then(|| "the server did not drain".to_string()));
    Ok(())
}

fn latencies_ms(exchanges: &[Exchange]) -> Vec<f64> {
    exchanges.iter().map(|e| e.latency_s() * 1e3).collect()
}

/// One segment of `serve_mixed`, in a child process: set-up (base-grid
/// pre-simulation, cache open, bind), [`SERVE_SEGMENT_REQUESTS`]
/// requests in a closed loop, the drain.
pub fn serve_child(args: RunArgs, first: u64, work: &Path) -> io::Result<()> {
    let mut out = Outcome::default();
    let mut setup = Vec::new();
    let daemon = timed(&mut setup, || Daemon::start(args.seed, work, None))?;
    check_daemon(&mut out, &daemon);
    let expect = Expect {
        base_lines: &daemon.base_lines,
        base_seeds: &daemon.base_seeds,
    };
    let start = Instant::now();
    let until = (
        SERVE_SEGMENT_REQUESTS / serve::CLIENTS,
        start + SERVE_SEGMENT_LIMIT,
    );
    let done = closed_loop(daemon.addr(), args.seed, first, until, &expect, |_, _| {});
    let loop_s = start.elapsed().as_secs_f64();
    check_exchanges(&mut out, &done);
    check_stop(&mut out, daemon)?;
    for ex in &done {
        println!(
            "req {} {} {} {}",
            ex.latency_s(),
            ex.flits,
            ex.status,
            ex.index
        );
    }
    let fields = [
        ("setup_s", setup[0]),
        ("loop_s", loop_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    print_rep(&out, &fields, None);
    Ok(())
}

/// `serve_mixed`, untraced: segments, each a fresh daemon in a child
/// process, until the run's time is up (at least [`MIN_GRIDS`]).
pub fn serve_e2e(args: RunArgs) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let (mut reqs, mut setups, mut rss, mut loop_s) = (Vec::new(), Vec::new(), Vec::new(), 0.0);
    let start = Instant::now();
    while setups.len() < MIN_GRIDS || start.elapsed().as_secs_f64() < args.seconds {
        let first = reqs
            .iter()
            .map(|r: &child::Req| r.index + 1)
            .max()
            .unwrap_or(0);
        let Some(rep) = run_child(&mut out, &child_args("serve_mixed", args, first)) else {
            break;
        };
        setups.push(rep.get("setup_s"));
        rss.push(rep.get("peak_rss_mb"));
        loop_s += rep.get("loop_s");
        reqs.extend(rep.requests);
    }
    if reqs.is_empty() {
        return Err(io::Error::other(out.problems.join("; ")));
    }

    let lat: Vec<f64> = reqs.iter().map(|r| r.latency_s * 1e3).collect();
    let rates: Vec<f64> = reqs.iter().map(|r| r.flits as f64 / r.latency_s).collect();
    out.set("setup_s", median(&setups));
    out.set("wall_s", median(&lat) / 1e3);
    out.set("sim_flits_per_s", median(&rates));
    out.set("req_per_s", reqs.len() as f64 / loop_s);
    out.set("peak_rss_mb", median(&rss));
    println!("req_latency_p50_ms: {} ms (n={})", median(&lat), lat.len());
    match tail(&lat, 0.9) {
        Some(t) => println!(
            "req_latency_p90_ms: {} ms (n={}, {} beyond)",
            t.value, t.samples, t.beyond
        ),
        None => println!(
            "req_latency_p90_ms: fewer than 10 samples beyond p90 (n={})",
            lat.len()
        ),
    }
    let rejected = reqs.iter().filter(|r| r.status != 200).count();
    println!(
        "requests: {} ({rejected} rejected) over {loop_s:.2} s in {} segments; peak_rss_mb per segment {rss:?}",
        reqs.len(),
        setups.len()
    );
    Ok(out)
}

/// `serve_mixed`, traced: an untraced half, then a traced half that
/// also re-issues each request through the `exp` entry points.
pub fn serve_traced(args: RunArgs, work: &Path) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let trace_dir = work.join("trace-cache");
    let daemon = Daemon::start(args.seed, work, Some(&trace_dir))?;
    check_daemon(&mut out, &daemon);
    let runner = CellRunner::open(Some(&trace_dir))?;
    let expect = Expect {
        base_lines: &daemon.base_lines,
        base_seeds: &daemon.base_seeds,
    };
    let addr = daemon.addr();
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    let plain = closed_loop(
        addr,
        args.seed,
        0,
        (usize::MAX, Instant::now() + half),
        &expect,
        |_, _| {},
    );
    let first = plain.iter().map(|e| e.index + 1).max().unwrap_or(0);
    let epoch = Tracer::new(Instant::now());
    let tracers: Vec<Mutex<Tracer>> = (0..serve::CLIENTS)
        .map(|_| Mutex::new(epoch.fork()))
        .collect();
    let traced = closed_loop(
        addr,
        args.seed,
        first,
        (usize::MAX, Instant::now() + half),
        &expect,
        |ex, c| {
            let mut tr = tracers[c].lock().expect("one client per tracer");
            trace_exchange(ex, args.seed, &runner, &mut tr);
        },
    );
    check_exchanges(&mut out, &plain);
    check_exchanges(&mut out, &traced);
    let cache_open_ms = daemon.cache_open_ms;
    check_stop(&mut out, daemon)?;
    drop(runner);

    let mut tr = epoch;
    for t in tracers {
        tr.absorb(t.into_inner().expect("client tracers are released"));
    }
    let spec =
        ExperimentSpec::parse(&specs::serve_base(args.seed)).map_err(|e| invalid(e.to_string()))?;
    let (mono, sharded) = replay_all(&spec, 1000, 1, 0, &mut tr)?;
    layer_metrics(&mut out, &tr, mono, sharded, 1);
    out.set("exp.cache_open_ms", cache_open_ms);
    let rejected = plain
        .iter()
        .chain(&traced)
        .filter(|e| e.status != 200)
        .count();
    out.set("serve.rejected", rejected as f64);
    out.set(
        "trace.overhead_frac",
        median(&latencies_ms(&traced)) / median(&latencies_ms(&plain)) - 1.0,
    );
    println!(
        "requests: {} untraced, {} traced",
        plain.len(),
        traced.len()
    );
    write_spans(&tr, work)?;
    Ok(out)
}
