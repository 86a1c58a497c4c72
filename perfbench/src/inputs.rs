//! Workload inputs: subsamples of one fixed SUSY stand-in population.
//!
//! The paper's experiments draw training and test points from a fixed
//! dataset. The benchmark does the same: the SUSY stand-in generator with a
//! fixed seed defines the population, and the workload seed only chooses
//! which points are drawn. Generating a whole new mixture per seed would
//! change the problem itself (its HSS rank, and with it the number of
//! adaptive restarts), which makes fit times from different seeds
//! incomparable.

use hkrr_datasets::generate;
use hkrr_datasets::registry::SUSY;
use hkrr_linalg::random::Pcg64;
use hkrr_linalg::Matrix;

/// Generator seed of the population.
pub const POPULATION_SEED: u64 = 7;
/// Training points in the population.
pub const POOL_TRAIN: usize = 20_000;
/// Test points in the population.
pub const POOL_TEST: usize = 40_000;

/// The points of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Training points (rows).
    pub train: Matrix,
    /// ±1 training labels.
    pub train_labels: Vec<f64>,
    /// Test points (rows).
    pub test: Matrix,
    /// ±1 test labels.
    pub test_labels: Vec<f64>,
}

/// Generates the population and draws `n_train` training and `n_test` test
/// points from it with `seed`. The same arguments give the same points.
///
/// # Panics
/// Panics when more points are requested than the population holds.
pub fn draw(n_train: usize, n_test: usize, seed: u64) -> Inputs {
    assert!(
        n_train <= POOL_TRAIN && n_test <= POOL_TEST,
        "sample exceeds the population"
    );
    let pool = generate(&SUSY, POOL_TRAIN, POOL_TEST, POPULATION_SEED);
    let mut rng = Pcg64::seed_from_u64(seed);
    let train_idx = rng.sample_without_replacement(POOL_TRAIN, n_train);
    let test_idx = rng.sample_without_replacement(POOL_TEST, n_test);
    Inputs {
        train: pool.train.select_rows(&train_idx),
        train_labels: train_idx.iter().map(|&i| pool.train_labels[i]).collect(),
        test: pool.test.select_rows(&test_idx),
        test_labels: test_idx.iter().map(|&i| pool.test_labels[i]).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_points_other_seed_other_points() {
        let a = draw(50, 20, 3);
        let b = draw(50, 20, 3);
        let c = draw(50, 20, 4);
        assert_eq!(a.train.data(), b.train.data());
        assert_eq!(a.test_labels, b.test_labels);
        assert_ne!(a.train.data(), c.train.data());
        assert_eq!(a.train.ncols(), SUSY.dim);
    }
}
