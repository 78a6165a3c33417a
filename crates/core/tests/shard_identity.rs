//! End-to-end shard-identity suite: [`Experiment::shards`] at any
//! shard count must be **bit-identical** to the single-engine run —
//! same latency sample, same outcome, same per-component energy down
//! to `f64::to_bits` — on both the paper's 4×4 presets (pinned against
//! the golden grid in `differential_identity.rs`) and a 16×16 torus
//! that actually exercises many-router shards. Checkpoints taken from
//! a sharded run must resume bit-identically, and a snapshot captured
//! at one shard count or on another topology must be a *typed* error
//! — never silent corruption — when restored. A checkpoint in an older
//! encoding is a typed version error, and the durable-checkpoint policy
//! replays it from cycle 0.

use orion_ckpt::{fnv1a64, run_checkpointed, CheckpointOptions, CKPT_MAGIC, CKPT_SCHEMA_VERSION};
use orion_core::{
    presets, ConfigError, Experiment, NetworkConfig, Report, RunCheckpoint, RunControl, RunError,
    RunHook, RunResult,
};
use orion_net::Topology;
use orion_sim::snapshot::ByteWriter;
use orion_sim::{Component, SnapshotError};

const SEED: u64 = 9;
const WARMUP: u64 = 100;
const SAMPLE_PACKETS: u64 = 150;
const MAX_CYCLES: u64 = 50_000;
const RATE: f64 = 0.02;

/// A 16×16 torus (256 nodes) wearing the VC16 router — large enough
/// that an 8-way partition still gives every shard a 32-router range.
fn big_torus() -> NetworkConfig {
    let mut cfg = presets::vc16_onchip();
    cfg.topology = Topology::torus(&[16, 16]).expect("16x16 torus is valid");
    cfg
}

fn experiment(cfg: &NetworkConfig, shards: usize) -> Experiment {
    Experiment::new(cfg.clone())
        .injection_rate(RATE)
        .seed(SEED)
        .warmup(WARMUP)
        .sample_packets(SAMPLE_PACKETS)
        .max_cycles(MAX_CYCLES)
        .shards(shards)
}

/// Renders every bit-sensitive field of a report; two runs are
/// identical iff their renderings are equal strings.
fn fingerprint(report: &Report) -> String {
    let stats = report.stats();
    let mut out = format!(
        "{};{};{};{};{:?};{:016x};{:016x}",
        report.outcome().label(),
        stats.packets_delivered,
        stats.flits_delivered,
        stats.sample_count(),
        stats.latencies(),
        report.avg_latency().to_bits(),
        report.measured_cycles()
    );
    for component in Component::ALL {
        out.push_str(&format!(
            ";{:016x}",
            report.component_power(component).0.to_bits()
        ));
    }
    out
}

#[test]
fn shard_counts_agree_on_16x16_torus() {
    let cfg = big_torus();
    let mono = fingerprint(&experiment(&cfg, 1).run().expect("valid"));
    for shards in [2usize, 8] {
        let sharded = fingerprint(&experiment(&cfg, shards).run().expect("valid"));
        assert_eq!(
            mono, sharded,
            "{shards}-shard 16x16 run diverged from the single-engine run"
        );
    }
}

#[test]
fn zero_shards_is_a_config_error() {
    match experiment(&presets::wh64_onchip(), 0).run() {
        Err(ConfigError::InvalidShards {
            shards: 0,
            nodes: 16,
        }) => {}
        other => panic!("expected InvalidShards, got {other:?}"),
    }
}

#[test]
fn more_shards_than_nodes_is_a_config_error() {
    match experiment(&presets::wh64_onchip(), 17).run() {
        Err(ConfigError::InvalidShards {
            shards: 17,
            nodes: 16,
        }) => {}
        other => panic!("expected InvalidShards, got {other:?}"),
    }
}

/// Captures the first checkpoint offered and stops the run.
struct StopAtFirst {
    every: u64,
    taken: Option<RunCheckpoint>,
}

impl RunHook for StopAtFirst {
    fn every(&self) -> u64 {
        self.every
    }
    fn on_checkpoint(&mut self, checkpoint: &RunCheckpoint) -> RunControl {
        self.taken = Some(checkpoint.clone());
        RunControl::Stop
    }
}

/// A hook that never checkpoints — used to drive resumed runs to the
/// end without interference.
struct Passive;

impl RunHook for Passive {
    fn every(&self) -> u64 {
        0
    }
    fn on_checkpoint(&mut self, _checkpoint: &RunCheckpoint) -> RunControl {
        RunControl::Continue
    }
}

fn report_of(result: RunResult) -> Report {
    match result {
        RunResult::Finished(report) => *report,
        RunResult::Aborted(_) => panic!("run aborted unexpectedly"),
    }
}

#[test]
fn sharded_checkpoint_resumes_bit_identically() {
    let cfg = presets::vc16_onchip();
    let baseline = report_of(
        experiment(&cfg, 2)
            .run_with_hook(&mut Passive, None)
            .expect("valid"),
    );

    // Interrupt a two-shard run mid-flight, then resume it.
    let mut stopper = StopAtFirst {
        every: 120,
        taken: None,
    };
    match experiment(&cfg, 2)
        .run_with_hook(&mut stopper, None)
        .expect("valid")
    {
        RunResult::Aborted(_) => {}
        RunResult::Finished(_) => panic!("run finished before the first checkpoint"),
    }
    let checkpoint = stopper.taken.expect("hook captured a checkpoint");
    let resumed = report_of(
        experiment(&cfg, 2)
            .run_with_hook(&mut Passive, Some(checkpoint))
            .expect("resume"),
    );
    assert_eq!(
        fingerprint(&baseline),
        fingerprint(&resumed),
        "interrupt + resume perturbed a sharded run"
    );
}

#[test]
fn checkpoint_shard_count_mismatch_is_typed() {
    let cfg = presets::vc16_onchip();
    let mut stopper = StopAtFirst {
        every: 120,
        taken: None,
    };
    experiment(&cfg, 4)
        .run_with_hook(&mut stopper, None)
        .expect("valid");
    let foreign = stopper.taken.expect("hook captured a checkpoint");

    // A 4-shard image offered to a single-shard run: the image's
    // shard count disagrees before any state is touched.
    match experiment(&cfg, 1).run_with_hook(&mut Passive, Some(foreign.clone())) {
        Err(RunError::Resume(SnapshotError::Mismatch(what))) => {
            assert!(
                what.contains("shard"),
                "mismatch should name the shard frame, got: {what}"
            );
        }
        other => panic!("expected a typed resume mismatch, got {other:?}"),
    }

    // And at another multi-shard count: the recorded shard count
    // again disagrees.
    match experiment(&cfg, 2).run_with_hook(&mut Passive, Some(foreign)) {
        Err(RunError::Resume(SnapshotError::Mismatch(what))) => {
            assert!(
                what.contains("shard count"),
                "mismatch should name the shard count, got: {what}"
            );
        }
        other => panic!("expected a typed resume mismatch, got {other:?}"),
    }
}

#[test]
fn mono_checkpoint_rejected_by_sharded_run() {
    let cfg = presets::vc16_onchip();
    let mut stopper = StopAtFirst {
        every: 120,
        taken: None,
    };
    experiment(&cfg, 1)
        .run_with_hook(&mut stopper, None)
        .expect("valid");
    let mono_ck = stopper.taken.expect("hook captured a checkpoint");
    match experiment(&cfg, 2).run_with_hook(&mut Passive, Some(mono_ck)) {
        Err(RunError::Resume(SnapshotError::Mismatch(_))) => {}
        other => panic!("expected a typed resume mismatch, got {other:?}"),
    }
}

#[test]
fn checkpoint_from_other_topology_is_typed() {
    let torus = presets::vc16_onchip();
    let mut mesh = torus.clone();
    mesh.topology = Topology::mesh(&[4, 4]).expect("4x4 mesh is valid");
    for shards in [1usize, 2] {
        let mut stopper = StopAtFirst {
            every: 120,
            taken: None,
        };
        experiment(&torus, shards)
            .run_with_hook(&mut stopper, None)
            .expect("valid");
        let foreign = stopper.taken.expect("hook captured a checkpoint");
        match experiment(&mesh, shards).run_with_hook(&mut Passive, Some(foreign)) {
            Err(RunError::Resume(SnapshotError::Mismatch(what))) => {
                assert!(
                    what.contains("topology"),
                    "mismatch should name the topology, got: {what}"
                );
            }
            other => panic!("expected a typed resume mismatch, got {other:?}"),
        }
    }
}

#[test]
fn version_one_checkpoint_is_typed_and_replays_from_cycle_zero() {
    const OWNER: u64 = 0x0e10;
    let cfg = presets::vc16_onchip();
    let mut stopper = StopAtFirst {
        every: 120,
        taken: None,
    };
    experiment(&cfg, 1)
        .run_with_hook(&mut stopper, None)
        .expect("valid");
    let mut payload = stopper
        .taken
        .expect("hook captured a checkpoint")
        .to_bytes();
    payload[..4].copy_from_slice(&1u32.to_le_bytes());
    match RunCheckpoint::from_bytes(&payload) {
        Err(SnapshotError::WrongVersion(1)) => {}
        other => panic!("expected a typed version error, got {other:?}"),
    }

    // The same payload in an intact checkpoint file: the framing and
    // checksum validate, the payload version does not.
    let mut w = ByteWriter::new();
    w.bytes(&CKPT_MAGIC);
    w.u32(CKPT_SCHEMA_VERSION);
    w.u64(OWNER);
    w.usize(payload.len());
    w.bytes(&payload);
    let mut file = w.into_vec();
    let checksum = fnv1a64(&file);
    file.extend_from_slice(&checksum.to_le_bytes());
    let path = std::env::temp_dir().join(format!(
        "orion-shard-identity-{}-v1.ckpt",
        std::process::id()
    ));
    std::fs::write(&path, &file).expect("write checkpoint file");

    let baseline = experiment(&cfg, 1).run().expect("valid");
    let out = run_checkpointed(
        experiment(&cfg, 1),
        &CheckpointOptions {
            path: path.clone(),
            fingerprint: OWNER,
            every: 0,
            cancel: None,
        },
    )
    .expect("a stale checkpoint must not surface an error");
    assert_eq!(out.resumed_from_cycle, None, "a v1 image must not resume");
    assert_eq!(
        fingerprint(&baseline),
        fingerprint(&report_of(out.result)),
        "cycle-0 replay diverged from the uninterrupted run"
    );
    assert!(!path.exists(), "a finished run must GC its checkpoint");
}
