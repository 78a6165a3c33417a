//! The cache append policy, pinned on both entry points: appending
//! stops at the first failed write (a torn line must not tear the next
//! record), and every record skipped after it counts as an append
//! failure. Failpoints are process-global, so this file is its own
//! test binary and its tests serialize on one lock.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use orion_core::failpoint::{self, FailAction};
use orion_exp::runner::{CellRunner, Supervision};
use orion_exp::{artifact, run_spec, EngineOptions, ExperimentSpec, CACHE_FILE};

static FAILPOINTS: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-exp-append-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Four quick cells.
fn spec() -> ExperimentSpec {
    ExperimentSpec::parse(
        r#"
[experiment]
name = "append-policy"

[grid]
presets = ["vc16"]
rates = [0.01, 0.02, 0.03, 0.04]

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000
"#,
    )
    .unwrap()
}

fn cache_lines(dir: &Path) -> usize {
    fs::read_to_string(dir.join(CACHE_FILE))
        .unwrap()
        .lines()
        .count()
}

#[test]
fn run_spec_stops_appending_at_the_first_failure() {
    let _guard = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("run-spec");
    let opts = EngineOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };

    failpoint::configure("cache.append", FailAction::Error, 2);
    let first = run_spec(&spec(), &opts);
    failpoint::reset();
    let (first, s1) = first.unwrap();
    assert_eq!(s1.simulated, 4);
    assert_eq!(
        s1.append_failures, 3,
        "the failed append and the 2 after it"
    );
    assert!(s1.append_error.unwrap().contains("cache.append"));
    assert_eq!(cache_lines(&dir), 1, "nothing appended after the failure");

    let (second, s2) = run_spec(&spec(), &opts).unwrap();
    assert_eq!(s2.simulated, 3, "the uncached cells re-run");
    assert_eq!(s2.cache_hits, 1);
    assert_eq!(s2.append_failures, 0);
    assert_eq!(artifact::to_jsonl(&first), artifact::to_jsonl(&second));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn cell_runner_stops_appending_at_the_first_failure() {
    let _guard = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("runner");
    let runner = CellRunner::open(Some(&dir)).unwrap();
    let sup = Supervision::default();

    failpoint::configure("cache.append", FailAction::Error, 2);
    for cell in spec().expand() {
        runner.run(&cell, &sup);
    }
    failpoint::reset();
    let stats = runner.stats();
    assert_eq!(stats.executed, 4);
    assert_eq!(
        stats.append_failures, 3,
        "the failed append and the 2 after it"
    );
    assert!(runner.append_error().is_some());
    assert_eq!(cache_lines(&dir), 1, "nothing appended after the failure");
    drop(runner);
    let _ = fs::remove_dir_all(&dir);
}
