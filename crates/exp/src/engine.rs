//! The experiment engine: cache partition → supervised deterministic
//! parallel simulation → sorted merge.
//!
//! Determinism contract: the record set produced by
//! [`run_spec`] is a pure function of the spec (and the code-model
//! version). Worker count, scheduling order and cache state change
//! only *wall-clock time and hit counts*, never results — each cell's
//! RNG is seeded from a hash of its parameter point, fresh records are
//! collected in grid order, and the merged output is sorted by cell
//! key before it is returned or written.
//!
//! Supervision contract: one misbehaving cell never kills the grid.
//! Panicking cells are isolated per-item ([`try_par_map`]), retried a
//! bounded number of times with deterministically reseeded RNGs, and
//! quarantined as `crashed` records when every attempt fails; cells
//! that overrun their wall-clock budget are classified `timed-out`.
//! Quarantine records are **not** cached — only genuine simulation
//! results are — so a fixed build retries them automatically.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use orion_ckpt::{checkpoint_path, run_checkpointed, CheckpointOptions};
use orion_core::exec::try_par_map;
use orion_core::{Experiment, RunResult};

use crate::cache::{CacheLock, Manifest, ResultCache};
use crate::fingerprint::splitmix64;
use crate::record::CellRecord;
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// Runs one cell to a record; never panics on configuration or
/// workload errors — they become `outcome: "error"` records.
pub fn run_cell(cell: &Cell) -> CellRecord {
    run_cell_seeded(cell, cell.derived_seed(), 1)
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

/// Expands the spec's grid, serves cached cells, simulates the rest in
/// parallel under per-cell supervision, and returns all records
/// **sorted by cell key** together with hit/miss and quarantine
/// accounting.
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

    // Partition the grid against the cache: cached cells are done, the
    // rest simulate. Closure so the shared→exclusive upgrade below can
    // re-partition against a re-opened cache.
    let partition = |cache: Option<&ResultCache>, cells: &[Cell]| {
        let mut records: Vec<CellRecord> = Vec::with_capacity(cells.len());
        let mut misses: Vec<Cell> = Vec::new();
        for cell in cells {
            match cache.and_then(|c| c.get(cell.fingerprint())) {
                Some(hit) => records.push(hit.clone()),
                None => misses.push(cell.clone()),
            }
        }
        (records, misses)
    };

    // Lock the cache directory for the duration of the run. A fully
    // cached, already-healed run only *reads*, so it takes a shared
    // lock and can proceed beside other readers (concurrent clients
    // replaying a finished grid). Anything that must write — fresh
    // cells, torn-line compaction — upgrades to the exclusive writer
    // lock, re-opening the cache because entries may have changed
    // between the two acquisitions.
    let mut _lock: Option<CacheLock> = None;
    let mut cache: Option<ResultCache> = None;
    let (mut records, mut misses) = partition(None, &cells);
    if let Some(dir) = &opts.cache_dir {
        let shared = CacheLock::acquire_shared(dir)?;
        let read_cache = ResultCache::open(dir)?;
        let (recs, miss) = partition(Some(&read_cache), &cells);
        if miss.is_empty() && !read_cache.needs_compaction() {
            (records, misses) = (recs, miss);
            (_lock, cache) = (Some(shared), Some(read_cache));
        } else {
            drop(shared);
            let exclusive = CacheLock::acquire(dir)?;
            let write_cache = ResultCache::open(dir)?;
            // Heal debris a killed run left behind (torn final line,
            // superseded duplicates) before appending more.
            write_cache.compact()?;
            (records, misses) = partition(Some(&write_cache), &cells);
            (_lock, cache) = (Some(exclusive), Some(write_cache));
        }
    }
    let corrupt_cache_lines = cache.as_ref().map_or(0, ResultCache::corrupt_lines);
    let cache_hits = records.len();
    let simulated = misses.len();

    let appender = match &cache {
        Some(c) if simulated > 0 => Some(Mutex::new(c.appender()?)),
        _ => None,
    };
    let sink_broken = AtomicBool::new(false);
    let append_failures = AtomicUsize::new(0);
    let append_error: Mutex<Option<String>> = Mutex::new(None);
    let done = AtomicUsize::new(0);
    let progress = |finished: usize| {
        if opts.progress {
            let secs = start.elapsed().as_secs_f64().max(1e-9);
            eprint!(
                "\r[{}] {}/{} cells ({} cached), {:.1} cells/s   ",
                spec.name,
                cache_hits + finished,
                total,
                cache_hits,
                finished as f64 / secs,
            );
        }
    };
    progress(0);

    // Supervised rounds: attempt 0 runs every miss; each later round
    // reruns only the cells that panicked, reseeded, up to
    // `max_retries` times. `try_par_map` isolates panics per item, so
    // one poisoned cell cannot take down its worker's whole share.
    let mut pending = misses;
    let mut attempt: u32 = 0;
    loop {
        let cells_this_round = pending.clone();
        let results = try_par_map(opts.threads, pending, |cell| {
            if poison_matches(opts.poison.as_deref(), &cell, attempt) {
                panic!("poison hook: injected panic for cell {}", cell.key());
            }
            let attempt_start = Instant::now();
            let seed = retry_seed(cell.derived_seed(), attempt);
            // Checkpointing covers attempt 0 only: retries reseed the
            // RNG, and a snapshot persisted under the original seed
            // must never be resumed into a differently-seeded replay.
            let mut record = match &opts.cache_dir {
                Some(dir) if opts.checkpoint_every > 0 && attempt == 0 => run_cell_checkpointed(
                    &cell,
                    seed,
                    dir,
                    opts.checkpoint_every,
                    None,
                    opts.shards,
                ),
                _ => run_cell_seeded(&cell, seed, opts.shards),
            };
            let elapsed = attempt_start.elapsed();
            record.attempts = attempt + 1;
            if attempt > 0 {
                record.cell_outcome = "retried".to_string();
            }
            if let Some(budget) = opts.cell_timeout {
                if elapsed > budget {
                    record = CellRecord::from_timeout(
                        &cell,
                        budget.as_millis() as u64,
                        elapsed.as_millis() as u64,
                        attempt + 1,
                    );
                }
            }
            // Quarantine verdicts are wall-clock-dependent and
            // drained cells are incomplete — neither is cached;
            // genuine results are made durable immediately.
            if !record.is_timed_out() && !record.is_drained() {
                if let Some(app) = &appender {
                    if sink_broken.load(Ordering::Relaxed) {
                        append_failures.fetch_add(1, Ordering::Relaxed);
                    } else if let Err(e) = app.lock().unwrap().append(&record) {
                        sink_broken.store(true, Ordering::Relaxed);
                        append_failures.fetch_add(1, Ordering::Relaxed);
                        append_error.lock().unwrap().get_or_insert(e.to_string());
                    }
                }
            }
            progress(done.fetch_add(1, Ordering::Relaxed) + 1);
            record
        });

        let mut next = Vec::new();
        for (cell, result) in cells_this_round.into_iter().zip(results) {
            match result {
                Ok(record) => records.push(record),
                Err(_) if attempt < opts.max_retries => next.push(cell),
                Err(panic_msg) => {
                    progress(done.fetch_add(1, Ordering::Relaxed) + 1);
                    records.push(CellRecord::from_crash(&cell, &panic_msg, attempt + 1));
                }
            }
        }
        if next.is_empty() {
            break;
        }
        pending = next;
        attempt += 1;
    }
    if opts.progress {
        eprintln!();
    }

    records.sort_by(|a, b| a.cell.cmp(&b.cell));
    let failed = records.iter().filter(|r| r.is_error()).count();
    let crashed = records.iter().filter(|r| r.is_crashed()).count();
    let timed_out = records.iter().filter(|r| r.is_timed_out()).count();
    let retried = records
        .iter()
        .filter(|r| r.cell_outcome == "retried")
        .count();
    let corrupted = records.iter().filter(|r| r.outcome == "corrupted").count();

    if let Some(dir) = &opts.cache_dir {
        // Reporting-only progress marker; the cache contents, not the
        // manifest, decide what a resumed run re-simulates.
        let _ = Manifest {
            spec_name: spec.name.clone(),
            total_cells: total,
            completed_cells: total - crashed - timed_out,
        }
        .write(dir);
    }

    Ok((
        records,
        RunSummary {
            total,
            simulated,
            cache_hits,
            failed,
            crashed,
            timed_out,
            retried,
            corrupted,
            corrupt_cache_lines,
            append_failures: append_failures.into_inner(),
            append_error: append_error.into_inner().unwrap(),
            elapsed: start.elapsed(),
        },
    ))
}
