//! Result checks: which records count as failures, the artifact
//! digests every run must reproduce, and the model's known error
//! against the paper.

use orion_exp::CellRecord;

/// Reference artifact digests, one `workload seed digest` line each.
const REFERENCE_DIGESTS: &str = include_str!("../reference_digests.txt");

/// Whether a record is a failed operation. A simulated deadlock,
/// livelock or saturation is a result; a rejected configuration, a
/// crashed, timed-out or drained cell, or a failed audit is not.
pub fn is_failure(r: &CellRecord) -> bool {
    r.cell_outcome != "ok" || r.is_error() || r.outcome == "corrupted"
}

/// Flits delivered over all records.
pub fn flits(records: &[CellRecord]) -> u64 {
    records.iter().map(|r| r.flits_delivered).sum()
}

/// The committed digest for `workload` at `seed`, when there is one.
pub fn reference_digest(workload: &str, seed: u64) -> Option<String> {
    REFERENCE_DIGESTS.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next() == Some(workload) && f.next() == Some(seed.to_string().as_str()))
            .then(|| f.next().map(str::to_string))
            .flatten()
    })
}

/// Verdict on a set of artifact digests for one workload and seed:
/// every repetition (and the traced run) must agree, and agree with
/// the committed reference when one exists.
pub fn digest_verdict(workload: &str, seed: u64, digests: &[String]) -> Result<String, String> {
    let first = digests.first().ok_or("no artifact was produced")?;
    if let Some(other) = digests.iter().find(|d| *d != first) {
        return Err(format!("repetitions disagree: {first} vs {other}"));
    }
    match reference_digest(workload, seed) {
        Some(reference) if reference != *first => Err(format!(
            "digest {first} differs from the reference {reference} for seed {seed}"
        )),
        Some(_) => Ok(format!("{first} (matches the reference)")),
        None => Ok(format!("{first} (no reference for seed {seed})")),
    }
}

/// Shares of the VC64 rate-0.10 power breakdown, next to the paper's
/// reference points, or `None` when the grid has no such cell.
pub fn accuracy_line(records: &[CellRecord]) -> Option<String> {
    let r = records
        .iter()
        .find(|r| r.preset == "vc64" && (r.rate - 0.10).abs() < 1e-9)?;
    let total = r.buffer_w + r.crossbar_w + r.arbiter_w + r.link_w + r.central_w;
    if total.is_nan() || total <= 0.0 {
        return None;
    }
    let pct = |w: f64| 100.0 * w / total;
    Some(format!(
        "accuracy: VC64 rate 0.10 power shares: buffers+crossbar {:.1}% (paper > 85%), \
         arbiter {:.2}% (paper < 1%), links {:.1}% (paper < 15%); \
         the model is unvalidated against hardware",
        pct(r.buffer_w + r.crossbar_w),
        pct(r.arbiter_w),
        pct(r.link_w)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_exp::{Cell, ExperimentSpec};

    fn cells() -> Vec<Cell> {
        ExperimentSpec::parse(&crate::specs::fig5(1))
            .expect("fig5 spec")
            .expand()
    }

    #[test]
    fn simulated_stalls_are_results_and_supervision_verdicts_are_failures() {
        let cell = &cells()[0];
        let mut r = CellRecord::from_error(cell, "x");
        assert!(is_failure(&r), "a rejected configuration is a failure");
        r.outcome = "deadlocked".into();
        r.error = None;
        assert!(!is_failure(&r), "a simulated deadlock is a result");
        for outcome in ["livelocked", "saturated", "completed"] {
            r.outcome = outcome.into();
            assert!(!is_failure(&r));
        }
        assert!(is_failure(&CellRecord::from_crash(cell, "boom", 1)));
        assert!(is_failure(&CellRecord::from_timeout(cell, 10, 20, 1)));
        assert!(is_failure(&CellRecord::from_drain(cell, 100)));
    }

    #[test]
    fn livelocked_cells_with_null_latency_yield_no_nan() {
        let cells = cells();
        let mut records: Vec<CellRecord> = cells
            .iter()
            .map(|c| {
                let mut r = CellRecord::from_error(c, "x");
                r.outcome = "completed".into();
                r.error = None;
                r.buffer_w = 1.0;
                r.flits_delivered = 10;
                r
            })
            .collect();
        for r in records
            .iter_mut()
            .filter(|r| r.preset == "wh64" && r.rate > 0.17)
        {
            r.outcome = "livelocked".into();
            r.avg_latency = f64::NAN;
            r.measured_cycles = 0;
            // The JSON form carries `null` for the NaN latency.
            let line = r.to_json_line();
            assert!(line.contains("\"avg_latency\":null"));
            *r = CellRecord::from_json_line(&line).expect("null latency parses");
        }
        assert!(!records.iter().any(is_failure));
        assert_eq!(flits(&records), 400);
        let line = accuracy_line(&records).expect("vc64 at 0.10 exists");
        assert!(!line.contains("NaN"), "{line}");
    }

    #[test]
    fn digests_must_agree_with_each_other_and_the_reference() {
        assert!(digest_verdict("fig5_cold", 99_999, &[]).is_err());
        let d = vec!["ab".to_string(), "ab".to_string()];
        assert!(digest_verdict("fig5_cold", 99_999, &d).is_ok());
        let d = vec!["ab".to_string(), "cd".to_string()];
        assert!(digest_verdict("fig5_cold", 99_999, &d).is_err());
        let reference = reference_digest("fig5_cold", 1).expect("default-seed reference");
        assert!(digest_verdict("fig5_cold", 1, &[reference]).is_ok());
        assert!(digest_verdict("fig5_cold", 1, &["00".to_string()]).is_err());
    }
}
