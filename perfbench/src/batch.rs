//! The batch workloads: one grid run cold through `orion_exp::run_spec`
//! (untraced), or re-issued call by call through the layers' public
//! entry points with a span around each call (traced).

use std::fs;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use orion_ckpt::file::encode_checkpoint;
use orion_ckpt::{checkpoint_path, fnv1a64, save_checkpoint, to_hex};
use orion_core::{Experiment, RunCheckpoint, RunControl, RunHook, RunResult};
use orion_exp::{
    run_spec, write_artifacts, CacheAppender, CacheLock, Cell, CellRecord, EngineOptions,
    ExperimentSpec, ResultCache,
};

use orion_shard::ShardedNetwork;
use orion_sim::Network;

use crate::trace::Tracer;

/// A batch workload's grid and execution shape.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The spec text at the benchmark seed.
    pub spec_text: String,
    /// Engine worker threads.
    pub threads: usize,
    /// Shards per cell engine.
    pub shards: usize,
    /// Checkpoint stride in cycles (0 = off).
    pub checkpoint_every: u64,
}

/// One cold grid run.
#[derive(Debug)]
pub struct GridRun {
    /// Host seconds from the first cell submitted to the artifacts written.
    pub wall_s: f64,
    /// The records, sorted by cell key.
    pub records: Vec<CellRecord>,
    /// fnv1a64 of the JSONL artifact, in hex.
    pub digest: String,
    /// Cells served from the cache (0 for a cold run).
    pub cache_hits: usize,
    /// Records the cache sink refused.
    pub append_failures: usize,
}

/// Parses the spec, then builds every cell's power models and engine
/// (at the workload's shard count) and drops them: the construction
/// work each cell does before its first cycle, timed on its own so
/// work moved into construction shows in `setup_s`.
pub fn setup(batch: &Batch) -> Result<ExperimentSpec, String> {
    let spec = ExperimentSpec::parse(&batch.spec_text).map_err(|e| e.to_string())?;
    for cell in spec.expand() {
        let (net, models) = cell.config().build().map_err(|e| e.to_string())?;
        if batch.shards > 1 {
            black_box(ShardedNetwork::new(net, models, batch.shards));
        } else {
            black_box(Network::new(net, models));
        }
    }
    Ok(spec)
}

/// An empty cache directory and output directory under `work`.
fn fresh_dirs(work: &Path) -> io::Result<(PathBuf, PathBuf)> {
    match fs::remove_dir_all(work) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    let (cache, out) = (work.join("cache"), work.join("out"));
    fs::create_dir_all(&cache)?;
    Ok((cache, out))
}

fn digest_of(path: &Path) -> io::Result<String> {
    Ok(to_hex(fnv1a64(&fs::read(path)?)))
}

/// Runs the grid through `run_spec` into an empty cache and writes its
/// artifacts.
pub fn run_untraced(batch: &Batch, spec: &ExperimentSpec, work: &Path) -> io::Result<GridRun> {
    let (cache, out) = fresh_dirs(work)?;
    let opts = EngineOptions {
        threads: batch.threads,
        cache_dir: Some(cache),
        checkpoint_every: batch.checkpoint_every,
        shards: batch.shards,
        ..EngineOptions::default()
    };
    let start = Instant::now();
    let (records, summary) = run_spec(spec, &opts)?;
    let artifacts = write_artifacts(&out, &spec.name, &records)?;
    let wall_s = start.elapsed().as_secs_f64();
    Ok(GridRun {
        wall_s,
        digest: digest_of(&artifacts.jsonl)?,
        records,
        cache_hits: summary.cache_hits,
        append_failures: summary.append_failures,
    })
}

/// The experiment `run_spec` builds for a cell.
fn experiment(cell: &Cell, seed: u64, shards: usize) -> Result<Experiment, String> {
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

/// Persists checkpoints like `orion_ckpt::CheckpointHook`, timing the
/// encode and the save of each one.
struct TracedHook<'a> {
    every: u64,
    path: &'a Path,
    fingerprint: u64,
    tracer: &'a mut Tracer,
    parent: usize,
    op: u64,
    written: u64,
}

impl RunHook for TracedHook<'_> {
    fn every(&self) -> u64 {
        self.every
    }

    fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
        let s = self.tracer.begin("ckpt.encode", Some(self.parent), self.op);
        let image = black_box(encode_checkpoint(self.fingerprint, ck));
        self.tracer.end(s);
        self.tracer.sample("ckpt.image_bytes", image.len() as f64);
        let s = self.tracer.begin("ckpt.save", Some(self.parent), self.op);
        let saved = save_checkpoint(self.path, self.fingerprint, ck);
        self.tracer.end(s);
        if saved.is_ok() {
            self.written += 1;
        }
        RunControl::Continue
    }
}

/// Shared state of one traced grid.
struct Grid<'a> {
    batch: &'a Batch,
    cache_dir: &'a Path,
    cache: &'a ResultCache,
    appender: &'a Mutex<CacheAppender>,
}

/// One cell: cache lookup, model build, hooked run, record encode,
/// cache append. Returns the record and whether its append succeeded.
fn traced_cell(grid: &Grid, cell: &Cell, op: u64, tr: &mut Tracer) -> (CellRecord, bool) {
    let root = tr.begin("bench.cell", None, op);
    let fingerprint = cell.fingerprint();
    let s = tr.begin("exp.cache_get", Some(root), op);
    let hit = grid.cache.get(fingerprint).cloned();
    tr.end(s);
    tr.sample("exp.cache_lookups", 1.0);
    if let Some(record) = hit {
        tr.sample("exp.cache_hits", 1.0);
        tr.end(root);
        return (record, true);
    }

    let s = tr.begin("power.build", Some(root), op);
    black_box(cell.config().build().is_ok());
    tr.end(s);

    let seed = cell.derived_seed();
    let every = grid.batch.checkpoint_every;
    let path = checkpoint_path(grid.cache_dir, fingerprint);
    let s = tr.begin("core.run", Some(root), op);
    let mut hook = TracedHook {
        every,
        path: &path,
        fingerprint,
        tracer: tr,
        parent: s,
        op,
        written: 0,
    };
    let result = experiment(cell, seed, grid.batch.shards)
        .and_then(|e| e.run_with_hook(&mut hook, None).map_err(|e| e.to_string()));
    let written = hook.written;
    tr.end(s);
    if every > 0 {
        // A finished cell's checkpoint is debris, as in `run_checkpointed`.
        let _ = fs::remove_file(&path);
    }

    let s = tr.begin("exp.record", Some(root), op);
    let mut record = match result {
        Ok(RunResult::Finished(report)) => {
            let mut r = CellRecord::from_report(cell, &report);
            r.checkpoints_written = written;
            r
        }
        Ok(RunResult::Aborted(_)) => CellRecord::from_error(cell, "run stopped by its hook"),
        Err(e) => CellRecord::from_error(cell, &e),
    };
    record.derived_seed = seed;
    black_box(record.to_json_line());
    tr.end(s);

    let s = tr.begin("exp.append", Some(root), op);
    let appended = grid
        .appender
        .lock()
        .expect("no thread panics while holding the append sink")
        .append(&record)
        .is_ok();
    tr.end(s);
    tr.end(root);
    (record, appended)
}

/// The grid re-issued call by call, with `batch.threads` workers.
pub fn run_traced(
    batch: &Batch,
    work: &Path,
    grid_op: u64,
    tr: &mut Tracer,
) -> io::Result<GridRun> {
    let (cache_dir, out) = fresh_dirs(work)?;
    let s = tr.begin("exp.spec_parse", None, grid_op);
    let spec = ExperimentSpec::parse(&batch.spec_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    tr.end(s);
    let cells = spec.expand();

    let start = Instant::now();
    let root = tr.begin("bench.grid", None, grid_op);
    let s = tr.begin("exp.cache_open", Some(root), grid_op);
    let _lock = CacheLock::acquire(&cache_dir)?;
    let cache = ResultCache::open(&cache_dir)?;
    let appender = Mutex::new(cache.appender()?);
    tr.end(s);

    let grid = Grid {
        batch,
        cache_dir: &cache_dir,
        cache: &cache,
        appender: &appender,
    };
    let next = AtomicUsize::new(0);
    let results: Vec<(Vec<(CellRecord, bool)>, Tracer)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..batch.threads.max(1))
            .map(|_| {
                let mut local = tr.fork();
                let (grid, next, cells) = (&grid, &next, &cells);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cell) = cells.get(i) else { break };
                        let op = grid_op * 1_000_000 + i as u64;
                        done.push(traced_cell(grid, cell, op, &mut local));
                    }
                    (done, local)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a traced worker panicked"))
            .collect()
    });
    let mut records = Vec::with_capacity(cells.len());
    let mut append_failures = 0;
    for (done, local) in results {
        tr.absorb_under(local, root);
        for (record, appended) in done {
            append_failures += usize::from(!appended);
            records.push(record);
        }
    }
    records.sort_by(|a, b| a.cell.cmp(&b.cell));

    let s = tr.begin("exp.artifacts", Some(root), grid_op);
    let artifacts = write_artifacts(&out, &spec.name, &records)?;
    tr.end(s);
    tr.end(root);
    let wall_s = start.elapsed().as_secs_f64();
    let cache_hits = records.iter().filter(|r| r.cached).count();
    Ok(GridRun {
        wall_s,
        digest: digest_of(&artifacts.jsonl)?,
        records,
        cache_hits,
        append_failures,
    })
}
