//! The experiment engine: expand a spec's grid, run every cell
//! through the shared [`CellRunner`], merge the records in key order.
//!
//! Determinism contract: the record set produced by
//! [`run_spec`] is a pure function of the spec (and the code-model
//! version). Worker count, scheduling order and cache state change
//! only *wall-clock time and hit counts*, never results — each cell's
//! RNG is seeded from a hash of its parameter point, and the merged
//! output is sorted by cell key before it is returned or written.
//!
//! Supervision contract: one misbehaving cell never kills the grid.
//! [`CellRunner`] — the one cell executor batch runs, `explore` and
//! `serve` share — isolates each attempt's panic, retries a bounded
//! number of times with deterministically reseeded RNGs, and
//! quarantines the cell as a `crashed` record when every attempt
//! fails; cells that overrun their wall-clock budget are classified
//! `timed-out`. Quarantine records are **not** cached — only genuine
//! simulation results are — so a fixed build retries them
//! automatically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use orion_ckpt::{checkpoint_path, run_checkpointed, CheckpointOptions};
use orion_core::exec::par_map;
use orion_core::{Experiment, RunResult};

use crate::cache::{CacheLock, Manifest, ResultCache};
use crate::fingerprint::splitmix64;
use crate::record::CellRecord;
use crate::runner::{CellRunner, Supervision};
use crate::spec::{Cell, ExperimentSpec};

/// Execution options for [`run_spec`].
#[derive(Debug, Clone, Default)]
pub struct EngineOptions {
    /// Worker threads (0 or 1 = run inline).
    pub threads: usize,
    /// Cache directory; `None` disables caching entirely.
    pub cache_dir: Option<PathBuf>,
    /// Emit a live progress line to stderr.
    pub progress: bool,
    /// Extra attempts granted to a panicking cell (0 = fail fast).
    /// Attempt `k > 0` reruns with a deterministically reseeded RNG —
    /// `splitmix64(derived_seed ^ k)` — and the seed actually used is
    /// recorded in the cell's `derived_seed` field for replayability.
    pub max_retries: u32,
    /// Wall-clock budget per cell attempt; overruns are classified
    /// `timed-out` post-hoc (a running cell cannot be preempted).
    /// `None` disables the budget.
    pub cell_timeout: Option<Duration>,
    /// Fault-injection hook for supervision tests: cells whose key
    /// contains this substring panic on every attempt; with a
    /// `once:` prefix, only the first attempt panics (exercising the
    /// retry path). `None` — the production default — injects nothing.
    pub poison: Option<String>,
    /// Persist a mid-run checkpoint of each in-flight cell every this
    /// many cycles (0 = off). Requires a cache directory — checkpoints
    /// live at `<cache_dir>/ckpt/<fingerprint>.ckpt` — and makes a
    /// killed run replay the in-flight cell from its last interval
    /// instead of cycle 0. Results are bit-identical either way.
    pub checkpoint_every: u64,
    /// Shards per cell engine (`orion-shard`; 0 or 1 = one shard).
    /// Results are bit-identical at every shard count, so this knob is
    /// deliberately **outside** the cell fingerprint: a cache written
    /// at one shard count serves every other.
    pub shards: usize,
}

/// Accounting for one engine invocation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSummary {
    /// Cells in the expanded grid.
    pub total: usize,
    /// Cells actually simulated this run.
    pub simulated: usize,
    /// Cells served from the cache.
    pub cache_hits: usize,
    /// Cells whose configuration was rejected (outcome `"error"`).
    pub failed: usize,
    /// Cells quarantined after panicking on every attempt.
    pub crashed: usize,
    /// Cells that exceeded the wall-clock budget.
    pub timed_out: usize,
    /// Cells that succeeded only after at least one retry.
    pub retried: usize,
    /// Cells whose runtime invariant audit failed (`corrupted`).
    pub corrupted: usize,
    /// Unparseable cache lines skipped at load.
    pub corrupt_cache_lines: usize,
    /// Records that could not be appended to the cache because the
    /// sink broke mid-run (appending stops at the first failure; every
    /// subsequently skipped record is counted here too).
    pub append_failures: usize,
    /// First cache-append error message, when any append failed.
    pub append_error: Option<String>,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl RunSummary {
    /// Whether any cell was quarantined or failed — the condition the
    /// CLI maps to its degraded exit code.
    pub fn is_degraded(&self) -> bool {
        self.failed > 0 || self.crashed > 0 || self.timed_out > 0 || self.corrupted > 0
    }
}

/// Builds the configured [`Experiment`] for one cell and seed, or the
/// workload-rejection message.
fn cell_experiment(cell: &Cell, seed: u64, shards: usize) -> Result<Experiment, String> {
    let config = cell.config();
    let pattern = cell
        .traffic
        .pattern(&config.topology, cell.rate)
        .map_err(|e| e.to_string())?;
    Ok(Experiment::new(config)
        .workload(pattern)
        .seed(seed)
        .warmup(cell.measure.warmup)
        .sample_packets(cell.measure.sample_packets)
        .max_cycles(cell.measure.max_cycles)
        .watchdog_cycles(cell.measure.watchdog_cycles)
        .audit_every(cell.measure.audit_every)
        .shards(shards.max(1)))
}

/// Runs one cell with an explicit RNG seed (retry attempts use
/// reseeded RNGs; the record carries the seed actually used).
pub(crate) fn run_cell_seeded(cell: &Cell, seed: u64, shards: usize) -> CellRecord {
    let mut record = match cell_experiment(cell, seed, shards) {
        Ok(exp) => match exp.run() {
            Ok(report) => CellRecord::from_report(cell, &report),
            Err(e) => CellRecord::from_error(cell, &e.to_string()),
        },
        Err(e) => CellRecord::from_error(cell, &e),
    };
    record.derived_seed = seed;
    record
}

/// Checkpointed variant of [`run_cell_seeded`]: resumes from a valid
/// leftover checkpoint at `<cache_dir>/ckpt/<fingerprint>.ckpt` (any
/// corruption degrades to a cycle-0 replay), persists the in-flight
/// state every `every` cycles, and stops at the next boundary when
/// `cancel` is raised (graceful drain — the cell comes back as a
/// `drained` record, never cached, resumable by the next run).
pub(crate) fn run_cell_checkpointed(
    cell: &Cell,
    seed: u64,
    cache_dir: &Path,
    every: u64,
    cancel: Option<Arc<AtomicBool>>,
    shards: usize,
) -> CellRecord {
    let mut record = match cell_experiment(cell, seed, shards) {
        Ok(exp) => {
            let opts = CheckpointOptions {
                path: checkpoint_path(cache_dir, cell.fingerprint()),
                fingerprint: cell.fingerprint(),
                every,
                cancel,
            };
            match run_checkpointed(exp, &opts) {
                Ok(out) => match out.result {
                    RunResult::Finished(report) => {
                        let mut r = CellRecord::from_report(cell, &report);
                        r.resumed_from_cycle = out.resumed_from_cycle;
                        r.checkpoints_written = out.checkpoints_written;
                        r
                    }
                    RunResult::Aborted(ck) => {
                        let mut r = CellRecord::from_drain(cell, ck.cycle);
                        r.resumed_from_cycle = out.resumed_from_cycle;
                        r.checkpoints_written = out.checkpoints_written;
                        r
                    }
                },
                Err(e) => CellRecord::from_error(cell, &e.to_string()),
            }
        }
        Err(e) => CellRecord::from_error(cell, &e),
    };
    record.derived_seed = seed;
    record
}

/// The RNG seed for retry attempt `k` (attempt 0 is the cell's
/// derived seed). Deterministic, so a retried cell's record is
/// reproducible from its recorded seed alone.
pub(crate) fn retry_seed(derived_seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        derived_seed
    } else {
        splitmix64(derived_seed ^ u64::from(attempt))
    }
}

/// Whether the poison hook fires for this cell and attempt.
pub(crate) fn poison_matches(poison: Option<&str>, cell: &Cell, attempt: u32) -> bool {
    let Some(p) = poison else { return false };
    let (once, pat) = match p.strip_prefix("once:") {
        Some(rest) => (true, rest),
        None => (false, p),
    };
    !pat.is_empty() && cell.key().contains(pat) && (!once || attempt == 0)
}

/// Expands the spec's grid, runs every cell through a [`CellRunner`]
/// (cache hits from memory, misses simulated in parallel under
/// per-cell supervision), and returns all records **sorted by cell
/// key** together with hit/miss and quarantine accounting.
///
/// # Errors
///
/// Returns an I/O error only for cache *setup* problems: a held lock
/// ([`std::io::ErrorKind::AlreadyExists`]), or an unreadable existing
/// cache. Simulation-level failures are data, not errors (`"error"`,
/// `"crashed"`, `"timed-out"` records counted in the summary), and a
/// cache append that fails mid-run degrades to
/// [`RunSummary::append_failures`] rather than aborting the grid.
pub fn run_spec(
    spec: &ExperimentSpec,
    opts: &EngineOptions,
) -> std::io::Result<(Vec<CellRecord>, RunSummary)> {
    let start = Instant::now();
    let cells = spec.expand();
    let total = cells.len();
    let progress = |finished: usize, fresh: usize| {
        if opts.progress {
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            eprint!(
                "\r[{}] {}/{} cells ({} cached), {:.1} cells/s   ",
                spec.name,
                finished,
                total,
                finished.saturating_sub(fresh),
                fresh as f64 / secs,
            );
        }
    };
    let mut summary = RunSummary {
        total,
        ..RunSummary::default()
    };

    // A fully cached, already-healed grid only *reads*: serve it under
    // a shared lock, beside other readers (concurrent clients replaying
    // a finished grid). Anything that must write — fresh cells,
    // torn-line compaction — goes through the runner, which takes the
    // exclusive writer lock and re-opens the cache, because entries may
    // have changed between the two acquisitions.
    if let Some(dir) = &opts.cache_dir {
        let _shared = CacheLock::acquire_shared(dir)?;
        let cache = ResultCache::open(dir)?;
        summary.corrupt_cache_lines = cache.corrupt_lines();
        let hits: Option<Vec<CellRecord>> = if cache.needs_compaction() {
            None
        } else {
            cells
                .iter()
                .map(|c| cache.get(c.fingerprint()).cloned())
                .collect()
        };
        if let Some(records) = hits {
            progress(total, 0);
            summary.cache_hits = total;
            return Ok(finish(spec, opts, records, summary, start));
        }
    }

    let runner = CellRunner::open(opts.cache_dir.as_deref())?;
    let sup = Supervision {
        max_retries: opts.max_retries,
        cell_timeout: opts.cell_timeout,
        poison: opts.poison.clone(),
        checkpoint_every: opts.checkpoint_every,
        shards: opts.shards,
    };
    progress(0, 0);
    let (done, fresh) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let records = par_map(opts.threads, cells, |cell| {
        let record = runner.run(&cell, &sup);
        let is_fresh = usize::from(!record.cached);
        let fresh = fresh.fetch_add(is_fresh, Ordering::Relaxed) + is_fresh;
        progress(done.fetch_add(1, Ordering::Relaxed) + 1, fresh);
        record
    });
    let stats = runner.stats();
    summary.simulated = stats.executed as usize;
    summary.cache_hits = total - summary.simulated;
    summary.append_failures = stats.append_failures as usize;
    summary.append_error = runner.append_error();
    // The runner (and its writer lock) lives until the manifest is
    // written.
    Ok(finish(spec, opts, records, summary, start))
}

/// Sorts the records by cell key, counts their outcomes into
/// `summary` and writes the progress manifest.
fn finish(
    spec: &ExperimentSpec,
    opts: &EngineOptions,
    mut records: Vec<CellRecord>,
    mut summary: RunSummary,
    start: Instant,
) -> (Vec<CellRecord>, RunSummary) {
    if opts.progress {
        eprintln!();
    }
    records.sort_by(|a, b| a.cell.cmp(&b.cell));
    let count = |pred: fn(&CellRecord) -> bool| records.iter().filter(|&r| pred(r)).count();
    summary.failed = count(CellRecord::is_error);
    summary.crashed = count(CellRecord::is_crashed);
    summary.timed_out = count(CellRecord::is_timed_out);
    summary.retried = count(|r| r.cell_outcome == "retried");
    summary.corrupted = count(|r| r.outcome == "corrupted");

    if let Some(dir) = &opts.cache_dir {
        // Reporting-only progress marker; the cache contents, not the
        // manifest, decide what a resumed run re-simulates.
        let _ = Manifest {
            spec_name: spec.name.clone(),
            total_cells: summary.total,
            completed_cells: summary.total - summary.crashed - summary.timed_out,
        }
        .write(dir);
    }
    summary.elapsed = start.elapsed();
    (records, summary)
}
