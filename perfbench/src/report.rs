//! The metric catalog, the host fingerprint and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;

/// One metric the benchmark reports.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// Metrics of an untraced run, every one defined on every workload.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", "lower"),
    m("wall_s", "s", "lower"),
    m("sim_flits_per_s", "1/s", "higher"),
    m("req_per_s", "1/s", "higher"),
    m("peak_rss_mb", "MB", "lower"),
];

/// Metrics of a traced run. A layer that does no work on a workload
/// reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("power.build_us", "us", "lower"),
    m("net.traffic_ns_per_node_cycle", "ns", "lower"),
    m("sim.step_ns_per_router_cycle", "ns", "lower"),
    m("sim.step_ns_per_flit_hop", "ns", "lower"),
    m("sim.enqueue_ns_per_packet", "ns", "lower"),
    m("sim.flits_in_flight_mean", "count", "lower"),
    m("sim.snapshot_ms", "ms", "lower"),
    m("sim.snapshot_kb", "kB", "lower"),
    m("shard.step_ns_per_router_cycle", "ns", "lower"),
    m("shard.scaling_eff", "ratio", "higher"),
    m("core.cell_s_p50", "s", "lower"),
    m("core.cell_s_max", "s", "lower"),
    m("ckpt.count", "count", "lower"),
    m("ckpt.encode_ms", "ms", "lower"),
    m("ckpt.save_ms", "ms", "lower"),
    m("ckpt.image_kb", "kB", "lower"),
    m("exp.spec_parse_us", "us", "lower"),
    m("exp.cache_open_ms", "ms", "lower"),
    m("exp.cache_hit_ratio", "ratio", "higher"),
    m("exp.cell_hit_us", "us", "lower"),
    m("exp.cell_miss_ms", "ms", "lower"),
    m("exp.append_us", "us", "lower"),
    m("exp.artifact_write_ms", "ms", "lower"),
    m("serve.ttfb_ms", "ms", "lower"),
    m("serve.first_record_ms", "ms", "lower"),
    m("serve.stream_ms", "ms", "lower"),
    m("serve.rejected", "count", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations attempted (cells, requests, result checks).
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Result checks that failed.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Sets metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one checked operation, failed when `problem` is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.problems.push(p);
        }
    }
}

/// The last stdout line: `correct`, `attempted`, `failed` and every
/// metric of `catalog`. A missing or non-finite metric makes the
/// result incorrect (and reads 0).
pub fn result_line(outcome: &Outcome, catalog: &[MetricDef]) -> (bool, String) {
    let mut correct = outcome.failed == 0 && outcome.problems.is_empty();
    let mut metrics = String::new();
    for (i, def) in catalog.iter().enumerate() {
        let value = match outcome.metrics.get(def.name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                correct = false;
                0.0
            }
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        );
    }
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    (correct, line)
}

/// The process's peak resident set (VmHWM) in MB, 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git.
fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    fs::read_to_string(format!(".git/{reference}"))
        .ok()
        .or_else(|| {
            fs::read_to_string(".git/packed-refs")
                .ok()
                .and_then(|refs| {
                    refs.lines()
                        .find(|l| l.ends_with(reference))
                        .map(|l| l.split_whitespace().next().unwrap_or("").to_string())
                })
        })
        .map_or_else(|| "unknown".into(), |c| c.trim().to_string())
}

/// nproc, CPU model, compiler and commit, for every result.
pub fn host_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "host: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={}",
        env!("PERFBENCH_RUSTC"),
        git_commit()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn metric_names_are_valid_unique_and_within_the_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
            assert!(def.better == "lower" || def.better == "higher");
            assert!(def.unit.len() <= 16);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalog() {
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name, def.unit, def.better
            );
            assert!(
                BENCHMARK_JSON.contains(&entry),
                "BENCHMARK.json lacks {entry}"
            );
        }
        let units = BENCHMARK_JSON.matches("\"unit\":").count();
        assert_eq!(units, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn a_missing_or_nan_metric_makes_the_result_incorrect() {
        let mut o = Outcome::default();
        for def in END_TO_END {
            o.set(def.name, 1.5);
        }
        let (ok, line) = result_line(&o, END_TO_END);
        assert!(ok, "{line}");
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        o.set("wall_s", f64::NAN);
        assert!(!result_line(&o, END_TO_END).0);
        o.metrics.remove("wall_s");
        assert!(!result_line(&o, END_TO_END).0);
    }

    #[test]
    fn a_failed_check_is_counted_and_makes_the_result_incorrect() {
        let mut o = Outcome::default();
        for def in END_TO_END {
            o.set(def.name, 1.0);
        }
        o.check(None);
        o.check(Some("digest mismatch".into()));
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(!result_line(&o, END_TO_END).0);
    }
}
