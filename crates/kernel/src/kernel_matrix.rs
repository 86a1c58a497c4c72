//! The partially matrix-free kernel-matrix operator.

use crate::kernels::KernelFunction;
use hkrr_linalg::{dense_backend, LinearOperator, Matrix};
use rayon::prelude::*;
use std::sync::Mutex;

/// Output rows per tile of the fused sampling product
/// [`KernelMatrix::matmat`]. Each worker holds one `TILE_ROWS x n` kernel
/// block at a time (0.5 MB at n = 1000), never the `n x n` matrix.
const TILE_ROWS: usize = 64;

/// The kernel matrix `K_ij = K(x_i, x_j)` of a set of training points,
/// exposed through entry access, parallel matvecs and a fused tiled
/// multi-vector product without storing the `n x n` matrix.
///
/// Reordering the training points (Step 0 of Algorithm 1) is done by
/// constructing the `KernelMatrix` from the permuted point set, so every
/// downstream consumer (HSS construction, H-matrix construction, dense
/// baseline) automatically sees the permuted matrix.
#[derive(Debug, Clone)]
pub struct KernelMatrix {
    points: Matrix,
    kernel: KernelFunction,
}

impl KernelMatrix {
    /// Creates the operator from an `n x d` matrix of data points (rows are
    /// points) and a kernel function.
    pub fn new(points: Matrix, kernel: KernelFunction) -> Self {
        KernelMatrix { points, kernel }
    }

    /// Number of data points `n`.
    pub fn len(&self) -> usize {
        self.points.nrows()
    }

    /// Returns `true` when there are no data points.
    pub fn is_empty(&self) -> bool {
        self.points.nrows() == 0
    }

    /// Dimension `d` of the data points.
    pub fn dim(&self) -> usize {
        self.points.ncols()
    }

    /// The kernel function.
    pub fn kernel(&self) -> KernelFunction {
        self.kernel
    }

    /// The underlying data points.
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// Returns a new operator over the same points with a different
    /// bandwidth (cheap: the points are cloned, nothing is assembled).
    pub fn with_bandwidth(&self, h: f64) -> Self {
        KernelMatrix {
            points: self.points.clone(),
            kernel: self.kernel.with_bandwidth(h),
        }
    }

    /// Returns the operator over a permuted copy of the points, i.e. the
    /// symmetrically permuted kernel matrix `K(perm, perm)`.
    pub fn permuted(&self, perm: &[usize]) -> Self {
        KernelMatrix {
            points: self.points.select_rows(perm),
            kernel: self.kernel,
        }
    }

    /// Assembles the dense kernel matrix (baseline path / small problems).
    ///
    /// Radial kernels assemble in two bulk passes — the backend's all-pairs
    /// squared distances, then the radial map in place — which matches the
    /// per-entry path bitwise (same distance kernel, same evaluation).
    pub fn assemble_dense(&self) -> Matrix {
        let n = self.len();
        let mut k = Matrix::zeros(n, n);
        let kernel = self.kernel;
        let points = &self.points;
        if kernel.is_radial() {
            crate::distance::pairwise_sq_distances_into(points, points, &mut k);
            k.data_mut().par_chunks_mut(n.max(1)).for_each(|row| {
                for v in row.iter_mut() {
                    *v = kernel.evaluate_from_sq_dist(*v);
                }
            });
            return k;
        }
        k.data_mut()
            .par_chunks_mut(n)
            .enumerate()
            .for_each(|(i, row)| {
                let xi = points.row(i);
                for (j, v) in row.iter_mut().enumerate() {
                    *v = kernel.evaluate(xi, points.row(j));
                }
            });
        k
    }

    /// Assembles the dense `K + λI` matrix.
    pub fn assemble_regularized(&self, lambda: f64) -> Matrix {
        let mut k = self.assemble_dense();
        k.shift_diagonal(lambda);
        k
    }

    /// Overwrites `block` (`rows x n`) with the kernel rows
    /// `r0..r0 + rows`, bitwise equal to [`LinearOperator::entry`]: radial
    /// kernels take the same distance-then-map pairing as
    /// [`KernelMatrix::assemble_dense`].
    fn kernel_rows_into(&self, r0: usize, block: &mut Matrix) {
        let kernel = self.kernel;
        let points = &self.points;
        if kernel.is_radial() {
            let tile = points.submatrix(r0, r0 + block.nrows(), 0, self.dim());
            crate::distance::pairwise_sq_distances_into(&tile, points, block);
            for v in block.data_mut() {
                *v = kernel.evaluate_from_sq_dist(*v);
            }
            return;
        }
        for i in 0..block.nrows() {
            let xi = points.row(r0 + i);
            for (j, v) in block.row_mut(i).iter_mut().enumerate() {
                *v = kernel.evaluate(xi, points.row(j));
            }
        }
    }
}

impl LinearOperator for KernelMatrix {
    fn nrows(&self) -> usize {
        self.len()
    }

    fn ncols(&self) -> usize {
        self.len()
    }

    #[inline]
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.kernel.evaluate(self.points.row(i), self.points.row(j))
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.len(), "KernelMatrix::matvec: x length");
        assert_eq!(y.len(), self.len(), "KernelMatrix::matvec: y length");
        let points = &self.points;
        let kernel = self.kernel;
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let xi = points.row(i);
            let mut s = 0.0;
            for (j, &xj) in x.iter().enumerate() {
                if xj != 0.0 {
                    s += kernel.evaluate(xi, points.row(j)) * xj;
                }
            }
            *yi = s;
        });
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        // The kernel matrix is symmetric.
        self.matvec(x, y);
    }

    /// `Y = K X` in row tiles of the output, each kernel entry evaluated
    /// once per product: a tile evaluates its `TILE_ROWS x n` kernel block,
    /// then multiplies it into `X` with the backend GEMM. Each worker takes
    /// one contiguous run of tiles. Every tile's arithmetic is fixed
    /// whatever the run it falls in, so the result is bitwise identical at
    /// any thread count.
    fn matmat(&self, x: &Matrix) -> Matrix {
        let n = self.len();
        assert_eq!(
            x.nrows(),
            n,
            "KernelMatrix::matmat: x has {} rows, expected {n}",
            x.nrows()
        );
        let s = x.ncols();
        let mut y = Matrix::zeros(n, s);
        if n == 0 || s == 0 {
            return y;
        }
        let tiles = n.div_ceil(TILE_ROWS);
        let runs = rayon::current_num_threads().clamp(1, tiles);
        let run_rows = tiles.div_ceil(runs) * TILE_ROWS;
        // Per-run scratch (kernel block, output tile) is allocated on the
        // calling thread: buffers allocated inside the short-lived workers
        // stay resident in per-thread malloc arenas (+5 MB peak RSS
        // measured on the n = 2000 serve workload).
        let scratch: Vec<Mutex<(Vec<f64>, Vec<f64>)>> = (0..runs)
            .map(|_| Mutex::new((Vec::with_capacity(TILE_ROWS * n), Vec::new())))
            .collect();
        y.data_mut()
            .par_chunks_mut(run_rows * s)
            .enumerate()
            .for_each(|(r, y_run)| {
                let mut guard = scratch[r].lock().unwrap();
                let (block_buf, out_buf) = &mut *guard;
                for (t, y_tile) in y_run.chunks_mut(TILE_ROWS * s).enumerate() {
                    let rows = y_tile.len() / s;
                    block_buf.resize(rows * n, 0.0);
                    out_buf.resize(rows * s, 0.0);
                    let mut block = Matrix::from_vec(rows, n, std::mem::take(block_buf));
                    let mut out = Matrix::from_vec(rows, s, std::mem::take(out_buf));
                    self.kernel_rows_into(r * run_rows + t * TILE_ROWS, &mut block);
                    dense_backend().gemm_into(&block, x, &mut out);
                    y_tile.copy_from_slice(out.data());
                    *block_buf = block.into_vec();
                    *out_buf = out.into_vec();
                }
            });
        y
    }

    fn rmatmat(&self, x: &Matrix) -> Matrix {
        // The kernel matrix is symmetric.
        self.matmat(x)
    }

    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(rows.len(), cols.len());
        let kernel = self.kernel;
        let points = &self.points;
        out.data_mut()
            .par_chunks_mut(cols.len().max(1))
            .enumerate()
            .for_each(|(oi, row)| {
                if oi >= rows.len() {
                    return;
                }
                let xi = points.row(rows[oi]);
                for (oj, v) in row.iter_mut().enumerate() {
                    *v = kernel.evaluate(xi, points.row(cols[oj]));
                }
            });
        out
    }
}

/// The rectangular cross-kernel `K'(i, j) = K(x'_i, x_j)` between test
/// points `x'` and training points `x` (Step 3 of Algorithm 1).
#[derive(Debug, Clone)]
pub struct CrossKernel {
    test_points: Matrix,
    train_points: Matrix,
    kernel: KernelFunction,
}

impl CrossKernel {
    /// Creates the cross-kernel operator (`m x n`: test rows, train cols).
    pub fn new(test_points: Matrix, train_points: Matrix, kernel: KernelFunction) -> Self {
        assert_eq!(
            test_points.ncols(),
            train_points.ncols(),
            "CrossKernel: test and train dimension mismatch"
        );
        CrossKernel {
            test_points,
            train_points,
            kernel,
        }
    }

    /// Number of test points.
    pub fn num_test(&self) -> usize {
        self.test_points.nrows()
    }

    /// Number of training points.
    pub fn num_train(&self) -> usize {
        self.train_points.nrows()
    }

    /// The kernel vector of test point `i` against all training points.
    pub fn kernel_vector(&self, i: usize) -> Vec<f64> {
        let xi = self.test_points.row(i);
        (0..self.num_train())
            .map(|j| self.kernel.evaluate(xi, self.train_points.row(j)))
            .collect()
    }

    /// All predictions `K' w` for a weight vector `w`, in parallel over the
    /// test points.
    pub fn predict_scores(&self, w: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_test()];
        self.predict_scores_into(w, &mut out);
        out
    }

    /// [`CrossKernel::predict_scores`] into a caller-provided buffer, so hot
    /// serving paths can reuse allocations across batches.
    pub fn predict_scores_into(&self, w: &[f64], out: &mut [f64]) {
        cross_scores_into(&self.test_points, &self.train_points, self.kernel, w, out);
    }
}

/// Batched cross-kernel scores `out_i = Σ_j K(test_i, train_j) w_j` against
/// borrowed point sets — the allocation-free core of prediction. Parallel
/// over the test rows; per-row arithmetic is the sequential `j` order, so
/// results are bitwise identical to a scalar loop (and across thread
/// counts).
///
/// # Panics
/// Panics when the point dimensions, weight length, or output length are
/// inconsistent.
pub fn cross_scores_into(
    test_points: &Matrix,
    train_points: &Matrix,
    kernel: KernelFunction,
    w: &[f64],
    out: &mut [f64],
) {
    assert_eq!(
        test_points.ncols(),
        train_points.ncols(),
        "cross_scores_into: test and train dimension mismatch"
    );
    assert_eq!(
        w.len(),
        train_points.nrows(),
        "cross_scores_into: weight length"
    );
    assert_eq!(
        out.len(),
        test_points.nrows(),
        "cross_scores_into: output length"
    );
    out.par_iter_mut().enumerate().for_each(|(i, oi)| {
        let xi = test_points.row(i);
        let mut s = 0.0;
        for (j, &wj) in w.iter().enumerate() {
            s += kernel.evaluate(xi, train_points.row(j)) * wj;
        }
        *oi = s;
    });
}

impl LinearOperator for CrossKernel {
    fn nrows(&self) -> usize {
        self.num_test()
    }

    fn ncols(&self) -> usize {
        self.num_train()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.kernel
            .evaluate(self.test_points.row(i), self.train_points.row(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hkrr_linalg::random::{gaussian_matrix, Pcg64};
    use hkrr_linalg::{blas, cholesky};

    fn random_points(seed: u64, n: usize, d: usize) -> Matrix {
        let mut rng = Pcg64::seed_from_u64(seed);
        gaussian_matrix(&mut rng, n, d)
    }

    #[test]
    fn kernel_matrix_is_symmetric_with_unit_diagonal() {
        let km = KernelMatrix::new(random_points(1, 30, 4), KernelFunction::gaussian(1.0));
        let k = km.assemble_dense();
        assert!(k.is_symmetric(1e-14));
        for i in 0..30 {
            assert!((k[(i, i)] - 1.0).abs() < 1e-14);
        }
        assert!(k.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn entry_matches_assembled_matrix() {
        let km = KernelMatrix::new(random_points(2, 15, 3), KernelFunction::gaussian(0.7));
        let k = km.assemble_dense();
        for i in 0..15 {
            for j in 0..15 {
                assert!((km.entry(i, j) - k[(i, j)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn matvec_matches_dense_gemv() {
        let km = KernelMatrix::new(random_points(3, 40, 5), KernelFunction::gaussian(1.5));
        let k = km.assemble_dense();
        let mut rng = Pcg64::seed_from_u64(4);
        let x: Vec<f64> = (0..40).map(|_| rng.next_gaussian()).collect();
        let mut y1 = vec![0.0; 40];
        let mut y2 = vec![0.0; 40];
        km.matvec(&x, &mut y1);
        blas::gemv(&k, &x, &mut y2);
        for (a, b) in y1.iter().zip(y2.iter()) {
            assert!((a - b).abs() < 1e-11);
        }
        let mut y3 = vec![0.0; 40];
        km.rmatvec(&x, &mut y3);
        assert_eq!(y1, y3);
    }

    /// One kernel of every family, for the fused-product tests.
    fn all_kernels() -> [KernelFunction; 4] {
        [
            KernelFunction::gaussian(1.3),
            KernelFunction::Laplacian { h: 0.9 },
            KernelFunction::Polynomial { degree: 3, c: 1.0 },
            KernelFunction::Linear,
        ]
    }

    #[test]
    fn fused_matmat_matches_assembled_product_across_tile_edges() {
        let mut rng = Pcg64::seed_from_u64(13);
        for kernel in all_kernels() {
            for n in [1, 63, 64, 65, 200] {
                let km = KernelMatrix::new(random_points(14 + n as u64, n, 5), kernel);
                let k = km.assemble_dense();
                for s in [1, 7, 42] {
                    let x = gaussian_matrix(&mut rng, n, s);
                    let y = km.matmat(&x);
                    assert_eq!(y.shape(), (n, s));
                    let err = blas::relative_error(&blas::matmul(&k, &x), &y);
                    assert!(err <= 1e-12, "{kernel:?} n={n} s={s}: rel err {err:e}");
                    assert_eq!(km.rmatmat(&x).data(), y.data(), "rmatmat must equal matmat");
                }
            }
        }
    }

    #[test]
    fn fused_matmat_is_deterministic_across_thread_counts() {
        let mut rng = Pcg64::seed_from_u64(15);
        let x = gaussian_matrix(&mut rng, 300, 19);
        for kernel in [KernelFunction::gaussian(1.0), KernelFunction::Linear] {
            let km = KernelMatrix::new(random_points(16, 300, 6), kernel);
            let y1 = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(|| km.matmat(&x));
            let y3 = rayon::ThreadPoolBuilder::new()
                .num_threads(3)
                .build()
                .unwrap()
                .install(|| km.matmat(&x));
            assert_eq!(y1.data(), y3.data(), "{kernel:?}");
        }
    }

    #[test]
    #[should_panic(expected = "KernelMatrix::matmat")]
    fn fused_matmat_rejects_wrong_shape() {
        let km = KernelMatrix::new(random_points(17, 10, 2), KernelFunction::gaussian(1.0));
        let _ = km.matmat(&Matrix::zeros(9, 3));
    }

    #[test]
    fn regularized_kernel_is_positive_definite() {
        let km = KernelMatrix::new(random_points(5, 25, 3), KernelFunction::gaussian(1.0));
        let k = km.assemble_regularized(1e-3);
        assert!(cholesky::cholesky(&k).is_ok());
    }

    #[test]
    fn permuted_operator_matches_symmetric_permutation() {
        let km = KernelMatrix::new(random_points(6, 12, 2), KernelFunction::gaussian(1.0));
        let k = km.assemble_dense();
        let perm: Vec<usize> = vec![5, 0, 7, 2, 9, 4, 11, 6, 1, 8, 3, 10];
        let kp = km.permuted(&perm).assemble_dense();
        assert!(kp.approx_eq(&k.permute_symmetric(&perm), 1e-14));
    }

    #[test]
    fn with_bandwidth_changes_offdiagonal_decay() {
        let km = KernelMatrix::new(random_points(7, 20, 3), KernelFunction::gaussian(1.0));
        let k_narrow = km.with_bandwidth(0.1).assemble_dense();
        let k_wide = km.with_bandwidth(10.0).assemble_dense();
        // Narrow bandwidth: near-identity; wide: near all-ones.
        let off_narrow: f64 = (0..20)
            .flat_map(|i| (0..20).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| k_narrow[(i, j)])
            .sum();
        let off_wide: f64 = (0..20)
            .flat_map(|i| (0..20).filter(move |&j| j != i).map(move |j| (i, j)))
            .map(|(i, j)| k_wide[(i, j)])
            .sum();
        assert!(off_narrow < 1.0);
        assert!(off_wide > 300.0);
    }

    #[test]
    fn sub_block_extracts_kernel_entries() {
        let km = KernelMatrix::new(random_points(8, 10, 2), KernelFunction::gaussian(1.0));
        let b = km.sub_block(&[0, 3, 5], &[1, 2]);
        assert_eq!(b.shape(), (3, 2));
        assert!((b[(1, 0)] - km.entry(3, 1)).abs() < 1e-15);
    }

    #[test]
    fn cross_kernel_entries_and_prediction() {
        let train = random_points(9, 20, 3);
        let test = random_points(10, 5, 3);
        let ck = CrossKernel::new(test.clone(), train.clone(), KernelFunction::gaussian(1.0));
        assert_eq!(ck.num_test(), 5);
        assert_eq!(ck.num_train(), 20);
        let kv = ck.kernel_vector(2);
        assert_eq!(kv.len(), 20);
        assert!((kv[7] - ck.entry(2, 7)).abs() < 1e-15);

        let mut rng = Pcg64::seed_from_u64(11);
        let w: Vec<f64> = (0..20).map(|_| rng.next_gaussian()).collect();
        let scores = ck.predict_scores(&w);
        for i in 0..5 {
            let manual = blas::dot(&ck.kernel_vector(i), &w);
            assert!((scores[i] - manual).abs() < 1e-12);
        }

        // The buffer-reusing path is the same arithmetic, bitwise.
        let mut buf = vec![f64::NAN; 5];
        ck.predict_scores_into(&w, &mut buf);
        assert_eq!(buf, scores);
        let mut free = vec![0.0; 5];
        cross_scores_into(&test, &train, KernelFunction::gaussian(1.0), &w, &mut free);
        assert_eq!(free, scores);
    }

    #[test]
    #[should_panic]
    fn cross_scores_into_rejects_bad_output_length() {
        let train = random_points(9, 20, 3);
        let test = random_points(10, 5, 3);
        let w = vec![0.0; 20];
        let mut out = vec![0.0; 4];
        cross_scores_into(&test, &train, KernelFunction::gaussian(1.0), &w, &mut out);
    }

    #[test]
    #[should_panic]
    fn cross_kernel_rejects_dimension_mismatch() {
        let _ = CrossKernel::new(
            Matrix::zeros(3, 2),
            Matrix::zeros(5, 4),
            KernelFunction::gaussian(1.0),
        );
    }

    #[test]
    fn kernel_matrix_accessors() {
        let km = KernelMatrix::new(random_points(12, 6, 4), KernelFunction::gaussian(2.0));
        assert_eq!(km.len(), 6);
        assert_eq!(km.dim(), 4);
        assert!(!km.is_empty());
        assert_eq!(km.kernel().bandwidth(), Some(2.0));
        assert_eq!(LinearOperator::nrows(&km), 6);
        assert_eq!(LinearOperator::ncols(&km), 6);
    }
}
