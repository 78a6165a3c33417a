//! Workload inputs. Everything the program receives is generated here
//! from the benchmark seed alone, so one seed always gives the same
//! spec texts and request bodies.

use orion_ckpt::{fnv1a64, splitmix64};

/// The paper's Fig. 5 grid (WH64/VC16/VC64/VC128 × 10 rates, 4×4 torus).
const FIG5: &str = include_str!("../../examples/specs/fig5.toml");
/// Fig. 5 scaled to a 32×32 torus (WH64/VC64 × 3 rates).
const FIG5_32X32: &str = include_str!("../../examples/specs/fig5_32x32.toml");

/// Base seed columns the serve workload pre-simulates in set-up.
pub const SERVE_BASE_SEEDS: usize = 3;
/// Cells per served request: 2 designs × 3 rates × (base + 1 new) seeds.
pub const SERVE_REQUEST_CELLS: usize = 2 * 3 * (SERVE_BASE_SEEDS + 1);

/// A number in `0..500_000_000` hashed from the benchmark seed.
fn derive(seed: u64, stream: &str, index: u64) -> u64 {
    splitmix64(fnv1a64(
        format!("perfbench|{stream}|{seed}|{index}").as_bytes(),
    )) % 500_000_000
}

/// `text` with a `seeds` axis added to its `[grid]` table.
fn with_seeds(text: &str, seeds: &[u64]) -> String {
    let list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let at = text
        .find("\n[grid]\n")
        .expect("workload specs carry a [grid] table")
        + "\n[grid]\n".len();
    format!(
        "{}seeds = [{}]\n{}",
        &text[..at],
        list.join(", "),
        &text[at..]
    )
}

/// The Fig. 5 grid at the benchmark seed.
pub fn fig5(seed: u64) -> String {
    with_seeds(FIG5, &[seed])
}

/// The 32×32 grid at the benchmark seed.
pub fn torus32(seed: u64) -> String {
    with_seeds(FIG5_32X32, &[seed])
}

/// The seed columns set-up pre-simulates for `serve_mixed`.
pub fn serve_base_seeds(seed: u64) -> Vec<u64> {
    (0..SERVE_BASE_SEEDS as u64)
        .map(|k| derive(seed, "base", k) * 2)
        .collect()
}

/// The new seed column of request `index`: odd, so it is never a
/// (even) base seed, and distinct for every index.
pub fn serve_request_seed(seed: u64, index: u64) -> u64 {
    (derive(seed, "request", 0) + index) * 2 + 1
}

/// The small grid `serve_mixed` sends: VC16/VC64 × 3 rates under the
/// smoke-sized measurement block of `examples/specs/smoke.toml`.
fn serve_grid(seeds: &[u64]) -> String {
    let grid = "\
[experiment]
name = \"serve-mixed\"
description = \"Closed-loop serve benchmark grid\"

[measure]
warmup = 100
sample_packets = 200
max_cycles = 30000

[grid]
presets = [\"vc16\", \"vc64\"]
rates = [0.02, 0.05, 0.08]
";
    with_seeds(grid, seeds)
}

/// The grid set-up pre-simulates into the server's cache.
pub fn serve_base(seed: u64) -> String {
    serve_grid(&serve_base_seeds(seed))
}

/// The body of request `index`: the base columns plus one new column.
pub fn serve_request(seed: u64, index: u64) -> String {
    let mut seeds = serve_base_seeds(seed);
    seeds.push(serve_request_seed(seed, index));
    serve_grid(&seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_exp::ExperimentSpec;

    #[test]
    fn a_seed_gives_the_same_inputs_and_another_seed_different_ones() {
        for make in [fig5, torus32, serve_base] {
            assert_eq!(make(7), make(7));
            assert_ne!(make(7), make(8));
        }
        let requests = |seed| (0..50).map(|i| serve_request(seed, i)).collect::<Vec<_>>();
        assert_eq!(requests(7), requests(7));
        assert_ne!(requests(7), requests(8));
    }

    #[test]
    fn generated_specs_parse_with_the_seed_axis() {
        let spec = ExperimentSpec::parse(&fig5(42)).expect("fig5 spec");
        assert_eq!((spec.seeds.clone(), spec.grid_size()), (vec![42], 40));
        let spec = ExperimentSpec::parse(&torus32(42)).expect("32x32 spec");
        assert_eq!((spec.seeds.clone(), spec.grid_size()), (vec![42], 6));
        let spec = ExperimentSpec::parse(&serve_request(42, 3)).expect("request spec");
        assert_eq!(spec.grid_size(), SERVE_REQUEST_CELLS);
        let base = serve_base_seeds(42);
        assert_eq!(spec.seeds[..SERVE_BASE_SEEDS], base[..]);
    }

    #[test]
    fn request_seeds_are_distinct_and_never_base_seeds() {
        let base = serve_base_seeds(5);
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000 {
            let s = serve_request_seed(5, i);
            assert!(!base.contains(&s));
            assert!(seen.insert(s), "request {i} repeats a seed");
        }
    }
}
