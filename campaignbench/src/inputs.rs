//! Workload inputs generated from the benchmark seed.
//!
//! The seed is the benchmark's argument; the program only ever sees
//! the generated protocol and error sets. Seed [`DEFAULT_SEED`] is the
//! paper's inputs (the 5 × 5 grid over m ∈ [8000, 20000] kg,
//! v ∈ [40, 70] m/s and the default E2 sample), so its reports can be
//! checked byte for byte against the committed `results/`.

use fic::{error_set, E1Error, E2Error, Protocol};

/// The seed that selects the paper's inputs.
pub const DEFAULT_SEED: u64 = 0;

/// Campaign worker threads (or fleet workers): the container has two
/// cores, and more CPU-bound workers than cores measure scheduler
/// thrash, not the campaign.
pub const WORKERS: usize = 2;

/// Each grid bound moves inward by at most this share of its axis
/// range. Small on purpose: seeds must change every trial's inputs
/// (so no result can be cached across seeds) without changing how much
/// work a campaign is, or the seed-to-seed spread would swamp the
/// bounds in `BENCHMARK.json`.
const JITTER: f64 = 0.04;

/// One campaign's inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Protocol with the (possibly jittered) test-case grid.
    pub protocol: Protocol,
    /// E1 errors (the full paper set unless scaled down).
    pub e1: Vec<E1Error>,
    /// E2 errors drawn with [`Inputs::e2_seed`].
    pub e2: Vec<E2Error>,
    /// Seed of the E2 sample.
    pub e2_seed: u64,
    /// Whether these are exactly the paper's inputs.
    pub paper: bool,
}

/// A scaled-down protocol for the benchmark's own tests: a 2 × 2 grid,
/// a 15 s window (the shortest that still passes golden validation)
/// and a prefix of each error set.
#[derive(Debug, Clone, Copy)]
pub struct Smoke {
    /// Grid points per axis.
    pub points: usize,
    /// Observation window, ms.
    pub observation_ms: u64,
    /// E1 errors kept.
    pub e1_errors: usize,
    /// E2 errors kept.
    pub e2_errors: usize,
}

/// The smoke-test scale.
pub const SMOKE: Smoke = Smoke {
    points: 2,
    observation_ms: 15_000,
    e1_errors: 16,
    e2_errors: 24,
};

/// SplitMix64: a tiny, well-mixed generator so the inputs depend on
/// nothing but the seed.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// E2 samples a run cycles through: input `k` of a non-default seed
/// uses `e2_with_seed(E2_SEED + k % E2_SAMPLES)`, the paper's sample
/// first. The samples are the same at every seed because their pruned
/// share, and so the work they leave to run, differs a lot: across 64
/// random samples the live (unpruned) errors averaged 33 of 200 with a
/// coefficient of variation of 0.18. A sample drawn from the seed would
/// make the seed-to-seed spread measure the draw, not the code; a
/// fixed set still exercises pruning on several address samples.
pub const E2_SAMPLES: usize = 4;

/// The inputs of campaign `k` of a run with `seed`. Every campaign of
/// a default-seed run uses the paper's inputs; any other seed gives
/// each `k` its own jittered grid and one of the [`E2_SAMPLES`] fixed
/// E2 samples. With `fixed_e2` the E2 sample stays the paper's (the
/// fleet server only knows paper error numbers).
pub fn inputs(seed: u64, k: usize, fixed_e2: bool, smoke: Option<Smoke>) -> Inputs {
    let mut protocol = match smoke {
        Some(s) => Protocol::scaled(s.points, s.observation_ms),
        None => Protocol::paper(),
    };
    protocol.workers = WORKERS;
    let paper = seed == DEFAULT_SEED;
    let mut e2_seed = error_set::E2_SEED;
    if !paper {
        let mut rng = SplitMix(seed ^ (k as u64).wrapping_mul(0xA076_1D64_78BD_642F));
        let grid = &mut protocol.grid;
        let mass = (grid.mass_max - grid.mass_min) * JITTER;
        let velocity = (grid.velocity_max - grid.velocity_min) * JITTER;
        grid.mass_min += mass * rng.unit();
        grid.mass_max -= mass * rng.unit();
        grid.velocity_min += velocity * rng.unit();
        grid.velocity_max -= velocity * rng.unit();
        if !fixed_e2 {
            e2_seed += (k % E2_SAMPLES) as u64;
        }
    }
    let mut e1 = error_set::e1();
    let mut e2 = error_set::e2_with_seed(e2_seed);
    if let Some(s) = smoke {
        e1.truncate(s.e1_errors);
        e2.truncate(s.e2_errors);
    }
    Inputs {
        protocol,
        e1,
        e2,
        e2_seed,
        paper: paper && smoke.is_none(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_is_the_paper() {
        let p = inputs(DEFAULT_SEED, 3, false, None);
        assert!(p.paper);
        assert!(p.protocol.compatible_with(&Protocol::paper()));
        assert_eq!(p.e2, error_set::e2());
    }

    #[test]
    fn seeds_are_deterministic_and_stay_in_the_envelope() {
        let a = inputs(7, 1, false, None);
        let b = inputs(7, 1, false, None);
        assert_eq!(a.protocol, b.protocol);
        assert_eq!(a.e2, b.e2);
        let c = inputs(7, 2, false, None);
        assert_ne!(a.protocol, c.protocol);
        let g = a.protocol.grid;
        assert!(g.mass_min >= 8_000.0 && g.mass_max <= 20_000.0);
        assert!(g.velocity_min >= 40.0 && g.velocity_max <= 70.0);
        assert_eq!(inputs(7, 1, true, None).e2, error_set::e2());
        assert_eq!(inputs(8, 1, false, None).e2, a.e2);
    }
}
