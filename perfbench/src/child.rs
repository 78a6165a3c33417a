//! Untraced repetitions run in child processes of this binary, one
//! cold pass each, the way a user runs one `experiment run` or one
//! daemon per process. The parent takes medians over the children, so
//! per-process figures such as the peak resident set come from
//! processes that ran nothing but one pass of the workload.
//!
//! A child prints `problem <text>` per failed check, `info <text>` for
//! the report, `req <latency_s> <flits> <status> <index>` per served
//! request, and last `rep key=value ...`.

use std::collections::BTreeMap;
use std::process::Command;

/// One request a serve child made.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Req {
    /// Request written to summary read, in seconds.
    pub latency_s: f64,
    /// Flits delivered over the streamed records.
    pub flits: u64,
    /// HTTP status.
    pub status: u16,
    /// Request index.
    pub index: u64,
}

/// What one child reported.
#[derive(Debug, Default, PartialEq)]
pub struct Rep {
    /// Numeric `rep` fields.
    pub values: BTreeMap<String, f64>,
    /// The `digest` field, when given.
    pub digest: Option<String>,
    /// Failed checks.
    pub problems: Vec<String>,
    /// Report lines.
    pub info: Vec<String>,
    /// Requests made.
    pub requests: Vec<Req>,
}

impl Rep {
    /// Numeric field `key` (0 when absent).
    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }
}

/// Parses a child's stdout.
pub fn parse(text: &str) -> Result<Rep, String> {
    let mut rep = Rep::default();
    let mut finished = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("rep ") {
            for field in rest.split_whitespace() {
                let (key, value) = field.split_once('=').ok_or(format!("bad field {field}"))?;
                if key == "digest" {
                    rep.digest = Some(value.to_string());
                } else {
                    let v = value
                        .parse()
                        .map_err(|_| format!("bad number in {field}"))?;
                    rep.values.insert(key.to_string(), v);
                }
            }
            finished = true;
        } else if let Some(rest) = line.strip_prefix("problem ") {
            rep.problems.push(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("info ") {
            rep.info.push(rest.to_string());
        } else if let Some(rest) = line.strip_prefix("req ") {
            let f: Vec<&str> = rest.split_whitespace().collect();
            let bad = || format!("bad request line {line}");
            if f.len() != 4 {
                return Err(bad());
            }
            rep.requests.push(Req {
                latency_s: f[0].parse().map_err(|_| bad())?,
                flits: f[1].parse().map_err(|_| bad())?,
                status: f[2].parse().map_err(|_| bad())?,
                index: f[3].parse().map_err(|_| bad())?,
            });
        }
    }
    finished
        .then_some(rep)
        .ok_or_else(|| "the child printed no result".to_string())
}

/// Runs this binary with `args`, waits for it, and parses its report.
pub fn run(args: &[String]) -> Result<Rep, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    parse(&String::from_utf8_lossy(&out.stdout))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_child_report_round_trips() {
        let rep = parse(
            "info outcomes: completed=40\nproblem cell x failed\nreq 0.0345 1200 200 7\n\
             rep setup_s=0.004 wall_s=2.5 digest=00ff\n",
        )
        .expect("a complete report");
        assert_eq!(rep.get("wall_s"), 2.5);
        assert_eq!(rep.get("missing"), 0.0);
        assert_eq!(rep.digest.as_deref(), Some("00ff"));
        assert_eq!(rep.problems, vec!["cell x failed"]);
        assert_eq!(rep.info, vec!["outcomes: completed=40"]);
        assert_eq!(
            rep.requests,
            vec![Req {
                latency_s: 0.0345,
                flits: 1200,
                status: 200,
                index: 7
            }]
        );
    }

    #[test]
    fn a_report_without_its_result_line_is_an_error() {
        assert!(parse("info started\n").is_err());
        assert!(parse("rep wall_s=fast\n").is_err());
        assert!(parse("req 1 2\nrep wall_s=1\n").is_err());
    }
}
