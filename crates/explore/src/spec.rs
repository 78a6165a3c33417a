//! Exploration specs: the `[explore]` and `[space]` TOML sections that
//! describe a budgeted search over the design space.
//!
//! ```toml
//! [experiment]
//! name = "pareto-sweep"
//!
//! [measure]
//! warmup = 1000
//! sample_packets = 10000
//!
//! [explore]
//! strategy = "grid-refine"       # or "evolutionary"
//! budget = 48                    # max distinct candidates evaluated
//! seed = 1                       # search seed (strategy RNG)
//! rate = 0.05                    # operating injection rate
//! traffic = ["uniform"]
//!
//! [space]
//! families = ["wh", "vc"]        # wh|vc|xb|cb
//! vcs = [2, 4, 8]
//! depths = [4, 8, 16]
//! radix = [4]
//! topology = ["torus"]           # torus|mesh
//! nodes = ["0.1um"]              # 0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm
//! ```
//!
//! Validation reuses the typed [`SpecError`] diagnostics of
//! `orion-exp`; everything is line-numbered and nothing panics on
//! malformed input (including non-UTF-8 bytes).

use std::collections::BTreeSet;

use orion_exp::design::{DesignPoint, RouterFamily};
use orion_exp::spec::access::{get_int_array, get_str, get_str_array, get_u64, wrong_type};
use orion_exp::spec::{MeasureSpec, SpecError, TrafficKind};
use orion_exp::toml::{self, Document, Value};
use orion_net::TopologyKind;
use orion_tech::ProcessNode;

/// The search strategies the explorer implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Exhaustive adaptive grid refinement: start from the corners and
    /// midpoints of every axis, then subdivide index intervals around
    /// the current frontier members until the budget is spent or the
    /// neighbourhood is exhausted.
    GridRefine,
    /// Seedable (μ+λ) evolutionary search with a splitmix64-derived
    /// RNG stream per generation.
    Evolutionary,
}

impl Strategy {
    /// Stable spec name of the strategy.
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::GridRefine => "grid-refine",
            Strategy::Evolutionary => "evolutionary",
        }
    }

    /// Parses a strategy name; `None` for unknown names.
    pub fn parse(name: &str) -> Option<Strategy> {
        match name {
            "grid-refine" => Some(Strategy::GridRefine),
            "evolutionary" => Some(Strategy::Evolutionary),
            _ => None,
        }
    }
}

/// The design space: one sorted, deduplicated value list per dimension.
///
/// Numeric axes are ascending so that "subdivide the index interval"
/// has its geometric meaning; process nodes are ordered oldest (largest
/// feature) first.
#[derive(Debug, Clone, PartialEq)]
pub struct Space {
    /// Router families (declaration order, deduplicated).
    pub families: Vec<RouterFamily>,
    /// Virtual channels per port.
    pub vcs: Vec<u32>,
    /// Flit depth per VC.
    pub depths: Vec<u32>,
    /// Per-dimension radix of the k×k network.
    pub radices: Vec<u32>,
    /// Topology kinds (declaration order, deduplicated).
    pub topologies: Vec<TopologyKind>,
    /// Process nodes.
    pub nodes: Vec<ProcessNode>,
}

/// The number of searchable dimensions of a [`Space`].
pub const DIMS: usize = 6;

impl Space {
    /// Length of dimension `d` (0 = family, 1 = vcs, 2 = depth,
    /// 3 = radix, 4 = topology, 5 = node).
    pub fn axis_len(&self, d: usize) -> usize {
        match d {
            0 => self.families.len(),
            1 => self.vcs.len(),
            2 => self.depths.len(),
            3 => self.radices.len(),
            4 => self.topologies.len(),
            5 => self.nodes.len(),
            _ => 0,
        }
    }

    /// Upper bound on distinct candidates (before canonical-name
    /// collapse of equivalent `wh`/`cb` buffer factorisations).
    pub fn size(&self) -> usize {
        (0..DIMS).map(|d| self.axis_len(d).max(1)).product()
    }
}

/// One candidate: an index into each dimension of the [`Space`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Candidate {
    /// Per-dimension indices (see [`Space::axis_len`] for the order).
    pub ix: [usize; DIMS],
}

impl Candidate {
    /// Lowers the candidate to a concrete design point.
    pub fn design(&self, space: &Space) -> DesignPoint {
        DesignPoint {
            family: space.families[self.ix[0]],
            vcs: space.vcs[self.ix[1]],
            depth: space.depths[self.ix[2]],
            radix: space.radices[self.ix[3]],
            mesh: space.topologies[self.ix[4]] == TopologyKind::Mesh,
            node: space.nodes[self.ix[5]],
        }
    }

    /// The candidate's canonical design-point name: its identity for
    /// deduplication, frontier membership and artifacts. Distinct index
    /// vectors can share a name (`wh` at 2 VCs × 8 flits and 4 VCs × 4
    /// flits are both `wh16`), and then count as one evaluation.
    pub fn name(&self, space: &Space) -> String {
        self.design(space).name()
    }
}

/// A validated exploration spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ExploreSpec {
    /// Experiment name: the artifact file stem.
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Measurement discipline applied to every evaluated cell.
    pub measure: MeasureSpec,
    /// Search strategy.
    pub strategy: Strategy,
    /// Maximum number of distinct candidates to evaluate.
    pub budget: usize,
    /// Search seed: drives strategy RNG, not cell workloads.
    pub seed: u64,
    /// Workload seed given to every evaluated cell (the grid `seeds`
    /// axis value), so explore cells dedup against grid cells.
    pub workload_seed: u64,
    /// Operating injection rate in packets/cycle/node.
    pub rate: f64,
    /// Traffic patterns: one Pareto frontier is kept per entry.
    pub traffic: Vec<TrafficKind>,
    /// μ: parents kept per evolutionary generation.
    pub population: usize,
    /// λ: offspring proposed per evolutionary generation.
    pub offspring: usize,
    /// The design space searched.
    pub space: Space,
}

const SECTIONS: [&str; 5] = ["", "experiment", "measure", "explore", "space"];
const EXPERIMENT_KEYS: [&str; 2] = ["name", "description"];
const MEASURE_KEYS: [&str; 5] = [
    "warmup",
    "sample_packets",
    "max_cycles",
    "watchdog_cycles",
    "audit_every",
];
const EXPLORE_KEYS: [&str; 8] = [
    "strategy",
    "budget",
    "seed",
    "workload_seed",
    "rate",
    "traffic",
    "population",
    "offspring",
];
const SPACE_KEYS: [&str; 6] = ["families", "vcs", "depths", "radix", "topology", "nodes"];

fn get_pos_usize(
    doc: &Document,
    section: &str,
    key: &str,
    default: usize,
) -> Result<usize, SpecError> {
    match doc.get(section, key) {
        None => Ok(default),
        Some(e) => match &e.value {
            Value::Int(i) if *i > 0 => Ok(*i as usize),
            v => Err(wrong_type(section, key, "a positive integer", v, e.line)),
        },
    }
}

/// A sorted, deduplicated positive-integer axis with a range check.
fn sized_axis(
    doc: &Document,
    key: &'static str,
    default: &[u32],
    max: u32,
    expected: &'static str,
) -> Result<Vec<u32>, SpecError> {
    let (raw, line) = match get_int_array(doc, "space", key)? {
        None => return Ok(default.to_vec()),
        Some(v) => v,
    };
    if raw.is_empty() {
        return Err(SpecError::EmptyAxis { key });
    }
    let mut out = BTreeSet::new();
    for v in raw {
        if v < 1 || v > max as i64 {
            return Err(SpecError::BadDimension {
                key: key.to_string(),
                value: v.to_string(),
                expected,
                line,
            });
        }
        out.insert(v as u32);
    }
    Ok(out.into_iter().collect())
}

fn parse_node(name: &str) -> Option<ProcessNode> {
    match name {
        "0.8um" => Some(ProcessNode::Um800),
        "0.35um" => Some(ProcessNode::Um350),
        "0.25um" => Some(ProcessNode::Um250),
        "0.18um" => Some(ProcessNode::Um180),
        "0.13um" => Some(ProcessNode::Um130),
        "0.1um" | "100nm" => Some(ProcessNode::Nm100),
        "70nm" => Some(ProcessNode::Nm70),
        _ => None,
    }
}

impl ExploreSpec {
    /// Parses and validates a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`]: syntax errors with line
    /// numbers, schema violations (unknown sections/keys, wrong types)
    /// and semantic rejections (unknown strategies, non-positive
    /// budgets, out-of-domain dimension values, empty axes).
    pub fn parse(text: &str) -> Result<ExploreSpec, SpecError> {
        let doc = toml::parse(text)?;
        Self::from_document(doc)
    }

    /// Parses and validates a spec from raw bytes; invalid UTF-8 is a
    /// line-numbered [`SpecError::Syntax`], never a panic.
    ///
    /// # Errors
    ///
    /// Everything [`ExploreSpec::parse`] returns, plus a syntax error
    /// for non-UTF-8 input.
    pub fn parse_bytes(bytes: &[u8]) -> Result<ExploreSpec, SpecError> {
        let doc = toml::parse_bytes(bytes)?;
        Self::from_document(doc)
    }

    fn from_document(doc: Document) -> Result<ExploreSpec, SpecError> {
        for (section, entries) in &doc.sections {
            if !SECTIONS.contains(&section.as_str()) {
                return Err(SpecError::UnknownSection {
                    section: section.clone(),
                    line: doc.section_line(section),
                });
            }
            let allowed: &[&str] = match section.as_str() {
                "experiment" => &EXPERIMENT_KEYS,
                "measure" => &MEASURE_KEYS,
                "explore" => &EXPLORE_KEYS,
                "space" => &SPACE_KEYS,
                _ => &[],
            };
            for (key, entry) in entries {
                if !allowed.contains(&key.as_str()) {
                    return Err(SpecError::UnknownKey {
                        section: section.clone(),
                        key: key.clone(),
                        line: entry.line,
                    });
                }
            }
        }

        let (name, _) = get_str(&doc, "experiment", "name")?.ok_or(SpecError::MissingKey {
            section: "experiment".into(),
            key: "name".into(),
        })?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        {
            return Err(SpecError::BadName { name });
        }
        let description = get_str(&doc, "experiment", "description")?
            .map(|(s, _)| s)
            .unwrap_or_default();

        let defaults = MeasureSpec::default();
        let measure = MeasureSpec {
            warmup: get_u64(&doc, "measure", "warmup", defaults.warmup)?,
            sample_packets: get_u64(&doc, "measure", "sample_packets", defaults.sample_packets)?,
            max_cycles: get_u64(&doc, "measure", "max_cycles", defaults.max_cycles)?,
            watchdog_cycles: get_u64(&doc, "measure", "watchdog_cycles", defaults.watchdog_cycles)?,
            audit_every: get_u64(&doc, "measure", "audit_every", defaults.audit_every)?,
        };

        let strategy = match get_str(&doc, "explore", "strategy")? {
            None => Strategy::GridRefine,
            Some((s, line)) => {
                Strategy::parse(&s).ok_or(SpecError::UnknownStrategy { name: s, line })?
            }
        };

        let budget = match doc.get("explore", "budget") {
            None => {
                return Err(SpecError::MissingKey {
                    section: "explore".into(),
                    key: "budget".into(),
                })
            }
            Some(e) => match &e.value {
                Value::Int(i) if *i > 0 => *i as usize,
                Value::Int(i) => {
                    return Err(SpecError::InvalidBudget {
                        value: *i,
                        line: e.line,
                    })
                }
                v => return Err(wrong_type("explore", "budget", "an integer", v, e.line)),
            },
        };

        let seed = get_u64(&doc, "explore", "seed", 1)?;
        let workload_seed = get_u64(&doc, "explore", "workload_seed", 1)?;

        let rate = match doc.get("explore", "rate") {
            None => 0.05,
            Some(e) => {
                let r = match &e.value {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    v => return Err(wrong_type("explore", "rate", "a number", v, e.line)),
                };
                if !(0.0..=1.0).contains(&r) {
                    return Err(SpecError::InvalidRate {
                        rate: r,
                        line: e.line,
                    });
                }
                r
            }
        };

        let traffic = match get_str_array(&doc, "explore", "traffic")? {
            None => vec![TrafficKind::Uniform],
            Some((names, line)) => {
                if names.is_empty() {
                    return Err(SpecError::EmptyAxis { key: "traffic" });
                }
                let mut out = Vec::new();
                for n in &names {
                    let kind = TrafficKind::parse(n).ok_or_else(|| SpecError::UnknownTraffic {
                        name: n.clone(),
                        line,
                    })?;
                    if !out.contains(&kind) {
                        out.push(kind);
                    }
                }
                out
            }
        };

        let population = get_pos_usize(&doc, "explore", "population", 4)?;
        let offspring = get_pos_usize(&doc, "explore", "offspring", 8)?;

        let families = {
            let (names, line) =
                get_str_array(&doc, "space", "families")?.ok_or(SpecError::MissingKey {
                    section: "space".into(),
                    key: "families".into(),
                })?;
            if names.is_empty() {
                return Err(SpecError::EmptyAxis { key: "families" });
            }
            let mut out = Vec::new();
            for n in &names {
                let fam = RouterFamily::parse(n).ok_or_else(|| SpecError::BadDimension {
                    key: "families".to_string(),
                    value: n.clone(),
                    expected: "wh|vc|xb|cb",
                    line,
                })?;
                if !out.contains(&fam) {
                    out.push(fam);
                }
            }
            out
        };

        let vcs = sized_axis(&doc, "vcs", &[2, 4, 8], 1024, "an integer in [1, 1024]")?;
        let depths = sized_axis(
            &doc,
            "depths",
            &[4, 8, 16],
            65_536,
            "an integer in [1, 65536]",
        )?;
        let radices = {
            let r = sized_axis(&doc, "radix", &[4], 64, "an integer in [2, 64]")?;
            if let Some(&bad) = r.iter().find(|&&k| k < 2) {
                let line = doc.get("space", "radix").map_or(0, |e| e.line);
                return Err(SpecError::BadDimension {
                    key: "radix".to_string(),
                    value: bad.to_string(),
                    expected: "an integer in [2, 64]",
                    line,
                });
            }
            r
        };

        let topologies = match get_str_array(&doc, "space", "topology")? {
            None => vec![TopologyKind::Torus],
            Some((names, line)) => {
                if names.is_empty() {
                    return Err(SpecError::EmptyAxis { key: "topology" });
                }
                let mut out = Vec::new();
                for n in &names {
                    let kind = match n.as_str() {
                        "torus" => TopologyKind::Torus,
                        "mesh" => TopologyKind::Mesh,
                        other => {
                            return Err(SpecError::BadDimension {
                                key: "topology".to_string(),
                                value: other.to_string(),
                                expected: "torus|mesh",
                                line,
                            })
                        }
                    };
                    if !out.contains(&kind) {
                        out.push(kind);
                    }
                }
                out
            }
        };

        let nodes = match get_str_array(&doc, "space", "nodes")? {
            None => vec![ProcessNode::Nm100],
            Some((names, line)) => {
                if names.is_empty() {
                    return Err(SpecError::EmptyAxis { key: "nodes" });
                }
                let mut out: Vec<ProcessNode> = Vec::new();
                for n in &names {
                    let node = parse_node(n).ok_or_else(|| SpecError::BadDimension {
                        key: "nodes".to_string(),
                        value: n.clone(),
                        expected: "0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm",
                        line,
                    })?;
                    if !out.contains(&node) {
                        out.push(node);
                    }
                }
                // Oldest technology first: ascending index = shrinking
                // feature size, so index midpoints interpolate nodes.
                out.sort_by(|a, b| b.feature_size().0.total_cmp(&a.feature_size().0));
                out
            }
        };

        Ok(ExploreSpec {
            name,
            description,
            measure,
            strategy,
            budget,
            seed,
            workload_seed,
            rate,
            traffic,
            population,
            offspring,
            space: Space {
                families,
                vcs,
                depths,
                radices,
                topologies,
                nodes,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
[experiment]
name = "t"

[explore]
budget = 8

[space]
families = ["vc"]
"#;

    #[test]
    fn minimal_spec_defaults() {
        let spec = ExploreSpec::parse(MINIMAL).unwrap();
        assert_eq!(spec.strategy, Strategy::GridRefine);
        assert_eq!(spec.budget, 8);
        assert_eq!(spec.seed, 1);
        assert_eq!(spec.workload_seed, 1);
        assert_eq!(spec.rate, 0.05);
        assert_eq!(spec.traffic, vec![TrafficKind::Uniform]);
        assert_eq!(spec.space.vcs, vec![2, 4, 8]);
        assert_eq!(spec.space.depths, vec![4, 8, 16]);
        assert_eq!(spec.space.radices, vec![4]);
        assert_eq!(spec.space.topologies, vec![TopologyKind::Torus]);
        assert_eq!(spec.space.nodes, vec![ProcessNode::Nm100]);
        assert_eq!(spec.space.size(), 9);
    }

    #[test]
    fn axes_sort_and_dedup() {
        let spec = ExploreSpec::parse(
            r#"
[experiment]
name = "t"
[explore]
budget = 4
[space]
families = ["vc", "wh", "vc"]
vcs = [8, 2, 8, 4]
nodes = ["70nm", "0.8um", "0.1um"]
"#,
        )
        .unwrap();
        assert_eq!(
            spec.space.families,
            vec![RouterFamily::VirtualChannel, RouterFamily::Wormhole]
        );
        assert_eq!(spec.space.vcs, vec![2, 4, 8]);
        assert_eq!(
            spec.space.nodes,
            vec![ProcessNode::Um800, ProcessNode::Nm100, ProcessNode::Nm70]
        );
    }

    #[test]
    fn candidate_lowers_to_design_point() {
        let spec = ExploreSpec::parse(MINIMAL).unwrap();
        let c = Candidate {
            ix: [0, 2, 1, 0, 0, 0],
        };
        assert_eq!(
            c.name(&spec.space),
            "vc64",
            "8 VCs x 8 flits is the paper's VC64"
        );
    }

    #[test]
    fn typed_diagnostics() {
        let no_budget = "[experiment]\nname = \"x\"\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(no_budget),
            Err(SpecError::MissingKey { ref key, .. }) if key == "budget"
        ));

        let zero =
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 0\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(zero),
            Err(SpecError::InvalidBudget { value: 0, line: 4 })
        ));

        let neg =
            "[experiment]\nname = \"x\"\n[explore]\nbudget = -3\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(neg),
            Err(SpecError::InvalidBudget { value: -3, .. })
        ));

        let strat = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nstrategy = \"annealing\"\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(strat),
            Err(SpecError::UnknownStrategy { ref name, line: 5 }) if name == "annealing"
        ));

        let fam = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"optical\"]\n";
        assert!(matches!(
            ExploreSpec::parse(fam),
            Err(SpecError::BadDimension { ref key, ref value, .. })
                if key == "families" && value == "optical"
        ));

        let empty = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nvcs = []\n";
        assert!(matches!(
            ExploreSpec::parse(empty),
            Err(SpecError::EmptyAxis { key: "vcs" })
        ));

        let radix = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nradix = [1]\n";
        assert!(matches!(
            ExploreSpec::parse(radix),
            Err(SpecError::BadDimension { ref key, .. }) if key == "radix"
        ));

        let node = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\n[space]\nfamilies = [\"vc\"]\nnodes = [\"45nm\"]\n";
        assert!(matches!(
            ExploreSpec::parse(node),
            Err(SpecError::BadDimension { ref key, ref value, .. })
                if key == "nodes" && value == "45nm"
        ));

        let section = "[experiment]\nname = \"x\"\n[explode]\nbudget = 1\n";
        assert!(matches!(
            ExploreSpec::parse(section),
            Err(SpecError::UnknownSection { ref section, .. }) if section == "explode"
        ));

        let key = "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nbuget = 2\n[space]\nfamilies = [\"vc\"]\n";
        assert!(matches!(
            ExploreSpec::parse(key),
            Err(SpecError::UnknownKey { ref key, .. }) if key == "buget"
        ));
    }

    #[test]
    fn errors_render() {
        let e = ExploreSpec::parse(
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 0\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("line 4") && msg.contains("budget"), "{msg}");
        let e = ExploreSpec::parse(
            "[experiment]\nname = \"x\"\n[explore]\nbudget = 1\nstrategy = \"zen\"\n[space]\nfamilies = [\"vc\"]\n",
        )
        .unwrap_err();
        assert!(e.to_string().contains("grid-refine|evolutionary"));
    }
}
