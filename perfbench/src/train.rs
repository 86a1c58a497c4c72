//! The training side of every workload: set-up, fits, the correctness
//! gate, batch and single-point prediction, and the traced replay of
//! `KrrModel::fit` that yields the per-layer numbers.

use crate::inputs::{self, Inputs};
use crate::metrics::{Metrics, PER_LAYER};
use crate::spans::{TracedOperator, TracedPreconditioner, Tracer};
use crate::{serve, stats, Failure, Outcome, Tally, Workload};
use hkrr_clustering::cluster;
use hkrr_core::{accuracy, FactorPrecision, KrrConfig, KrrModel, SolverKind};
use hkrr_datasets::registry::SUSY;
use hkrr_hss::construct::{compress_symmetric, HssOptions};
use hkrr_hss::UlvFactorization;
use hkrr_kernel::{KernelMatrix, NormalizationStats};
use hkrr_linalg::iterative::{pcg, PcgOptions};
use hkrr_linalg::operator::ShiftedOperator;
use hkrr_linalg::{cholesky, Matrix};
use std::path::Path;
use std::time::Instant;

/// A training problem: solver and sizes.
#[derive(Debug, Clone, Copy)]
pub struct TrainSpec {
    /// The solver `KrrModel::fit` runs.
    pub solver: SolverKind,
    /// Training points.
    pub n_train: usize,
    /// Test points.
    pub n_test: usize,
    /// Training sets the end-to-end run draws from its seed; `train_s` is
    /// the median over them of each one's median fit time.
    pub draws: usize,
}

/// The default solver and the paper's main path.
pub const HSS_DIRECT: TrainSpec = TrainSpec {
    solver: SolverKind::Hss,
    n_train: 1000,
    n_test: 10_000,
    // Most draws stop one adaptive restart short of the sample budget
    // (rank 160-165 against a saturation threshold of 166); about one draw
    // in twelve crosses it and fits in 10-11 s instead of 5 s. The median
    // over three draws keeps one such draw from setting a run's train_s.
    draws: 3,
};

/// The dense Cholesky baseline, at the same n as [`SERVE_MODEL`].
pub const DENSE: TrainSpec = TrainSpec {
    solver: SolverKind::DenseCholesky,
    n_train: 2000,
    n_test: 20_000,
    draws: 1,
};

/// The model the serve workload trains, saves and serves: HSS-preconditioned
/// CG on the exact kernel operator.
pub const SERVE_MODEL: TrainSpec = TrainSpec {
    solver: SolverKind::HssPcg,
    n_train: 2000,
    n_test: 10_000,
    // PCG iterations vary with the draw (59-84 over seeds 1-6) and one
    // fit's time with the host; the median over three draws damps both.
    draws: 3,
};

/// Repetitions of the set-up step; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Timed batch predictions at least, after one warm-up; `predict_qps` uses
/// their median.
const PREDICT_REPS: usize = 9;
/// Timed batch predictions after each fit of an end-to-end run.
const PREDICTS_PER_FIT: usize = 4;
/// Largest relative residual accepted from the dense Cholesky solve.
pub const DENSE_RESIDUAL_LIMIT: f64 = 1e-12;
/// Multiple of `pcg_tolerance` accepted as the true residual of a PCG
/// solve: PCG stops on its recursively updated residual, which drifts from
/// the true one by rounding.
pub const PCG_RESIDUAL_MARGIN: f64 = 2.0;

/// The configuration every workload trains with: the library defaults
/// with the SUSY bandwidth and ridge parameter.
pub fn config(solver: SolverKind) -> KrrConfig {
    KrrConfig::default()
        .with_h(SUSY.default_h)
        .with_lambda(SUSY.default_lambda)
        .with_solver(solver)
}

/// Counts that repeat exactly for a given workload and seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Leaves of the cluster tree.
    pub leaves: u64,
    /// Depth of the cluster tree.
    pub depth: u64,
    /// Random vectors of the final HSS sampling pass.
    pub samples_used: u64,
    /// Adaptive restarts of the HSS construction.
    pub restarts: u64,
    /// Sampled columns over all passes, discarded ones included.
    pub sample_cols: u64,
    /// Kernel entries the ID phase requested.
    pub block_entries: u64,
    /// Largest HSS rank.
    pub max_rank: u64,
    /// Kernel matvecs of the PCG solve.
    pub matvec_calls: u64,
    /// Preconditioner applications of the PCG solve.
    pub precond_applies: u64,
    /// PCG iterations.
    pub pcg_iters: u64,
    /// Bytes of the HSS matrix.
    pub matrix_bytes: u64,
    /// Bytes of the ULV factors.
    pub factor_bytes: u64,
    /// Bytes of the encoded model.
    pub artifact_bytes: u64,
}

/// Whether two weight vectors are identical bit for bit.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Relative residual `‖(K + λI)w − y‖ / ‖y‖` of a fitted model on the exact
/// Gaussian kernel, evaluated by a plain loop of this benchmark's own.
/// `labels` are in the original training order.
pub fn residual(model: &KrrModel, labels: &[f64]) -> f64 {
    let points = model.train_points();
    let w = model.weights();
    let h = model.config().h;
    let lambda = model.config().lambda;
    let (mut num, mut den) = (0.0, 0.0);
    for i in 0..points.nrows() {
        let xi = points.row(i);
        let mut s = lambda * w[i];
        for (j, &wj) in w.iter().enumerate() {
            let d2: f64 = xi
                .iter()
                .zip(points.row(j))
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            s += (-d2 / (2.0 * h * h)).exp() * wj;
        }
        let y = labels[model.permutation()[i]];
        num += (s - y) * (s - y);
        den += y * y;
    }
    (num / den).sqrt()
}

/// The residual gate. Dense and PCG solves must meet their tolerance up to
/// rounding; the direct HSS solve only carries its compression error, so
/// its residual is reported, and flagged when it exceeds the compression
/// tolerance, but never fails the run.
///
/// # Errors
/// Returns the reason when the residual is not finite or misses its limit.
pub fn check_residual(cfg: &KrrConfig, r: f64) -> Result<Option<String>, String> {
    if !r.is_finite() {
        return Err(format!("solve residual is {r}"));
    }
    match cfg.solver {
        SolverKind::DenseCholesky if r > DENSE_RESIDUAL_LIMIT => Err(format!(
            "dense solve residual {r:.3e} exceeds {DENSE_RESIDUAL_LIMIT:e}"
        )),
        SolverKind::HssPcg if r > PCG_RESIDUAL_MARGIN * cfg.pcg_tolerance => Err(format!(
            "pcg solve residual {r:.3e} exceeds {PCG_RESIDUAL_MARGIN} x pcg_tolerance {:e}",
            cfg.pcg_tolerance
        )),
        SolverKind::Hss | SolverKind::HssWithHSampling if r > cfg.tolerance => Ok(Some(format!(
            "FLAG solve_residual {r:.3e} exceeds the compression tolerance {:e} \
             (reported, not gated)",
            cfg.tolerance
        ))),
        _ => Ok(None),
    }
}

/// Draws the inputs `SETUP_REPS` times; returns them with each draw's time.
fn set_up(spec: &TrainSpec, seed: u64, tally: &mut Tally) -> (Inputs, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut drawn = None;
    for _ in 0..SETUP_REPS {
        tally.attempted += 1;
        let t = Instant::now();
        drawn = Some(inputs::draw(spec.n_train, spec.n_test, seed));
        times.push(t.elapsed().as_secs_f64());
    }
    (drawn.expect("SETUP_REPS > 0"), times)
}

fn fit_once(
    inputs: &Inputs,
    cfg: &KrrConfig,
    tally: &mut Tally,
) -> Result<(KrrModel, f64), Failure> {
    tally.attempted += 1;
    let t = Instant::now();
    let model = KrrModel::fit(&inputs.train, &inputs.train_labels, cfg)
        .map_err(|e| tally.failure(format!("fit failed: {e}")))?;
    Ok((model, t.elapsed().as_secs_f64()))
}

/// One timed batch prediction of `test`, which must reproduce `labels`.
fn predict_once(
    model: &KrrModel,
    test: &Matrix,
    labels: &[f64],
    tally: &mut Tally,
) -> Result<f64, Failure> {
    tally.attempted += 1;
    let t = Instant::now();
    let again = model.predict(std::hint::black_box(test));
    let seconds = t.elapsed().as_secs_f64();
    if bitwise_eq(labels, &again) {
        Ok(seconds)
    } else {
        Err(tally.failure("repeated batch predictions differ"))
    }
}

/// One warm-up and `PREDICT_REPS` timed batch predictions of `test`.
/// Returns the predicted labels and the timed seconds.
fn time_predict(
    model: &KrrModel,
    test: &Matrix,
    tally: &mut Tally,
) -> Result<(Vec<f64>, Vec<f64>), Failure> {
    tally.attempted += 1;
    let labels = model.predict(test);
    let mut times = Vec::with_capacity(PREDICT_REPS);
    for _ in 0..PREDICT_REPS {
        times.push(predict_once(model, test, &labels, tally)?);
    }
    Ok((labels, times))
}

/// The fits and batch predictions of an end-to-end run.
struct Timed {
    /// The first draw's first model, which every prediction uses.
    predictor: KrrModel,
    /// The draw whose first fit took the median time.
    primary: usize,
    /// The first model of every other draw.
    others: Vec<Option<KrrModel>>,
    /// Fit seconds per training draw.
    fit_s: Vec<Vec<f64>>,
    labels: Vec<f64>,
    predict_s: Vec<f64>,
    /// `VmHWM` after the first draw's two fits and their predictions.
    peak_rss_mb: Option<f64>,
}

/// Batch predictions of `test` (after one warm-up) and fits alternate until
/// at least `min_fits` fits ran and `budget_s` has passed, so both sample
/// the host's speed over the whole run instead of in one burst each. The
/// first draw is fitted twice, then the draws take turns. Every fit must
/// reproduce the first weights of its draw, and every prediction the first
/// labels, bit for bit. The primary draw is the one whose first fit took
/// the median time, so that one draw on the far side of a restart
/// threshold does not set the reported model.
fn fit_and_predict(
    draws: &[Inputs],
    cfg: &KrrConfig,
    min_fits: usize,
    budget_s: f64,
    tally: &mut Tally,
) -> Result<Timed, Failure> {
    let start = Instant::now();
    let test = &draws[0].test;
    let (predictor, t) = fit_once(&draws[0], cfg, tally)?;
    let mut fit_s = vec![Vec::new(); draws.len()];
    fit_s[0].push(t);
    let mut weights: Vec<Option<Vec<f64>>> = vec![None; draws.len()];
    weights[0] = Some(predictor.weights().to_vec());
    let mut others: Vec<Option<KrrModel>> = (0..draws.len()).map(|_| None).collect();
    tally.attempted += 1;
    let labels = predictor.predict(test);
    let mut predict_s = Vec::new();
    let mut peak_rss_mb = None;
    let mut fits = 1;
    loop {
        for _ in 0..PREDICTS_PER_FIT {
            predict_s.push(predict_once(&predictor, test, &labels, tally)?);
        }
        if fits == 2 {
            peak_rss_mb = stats::peak_rss_mb();
        }
        if fits >= min_fits && start.elapsed().as_secs_f64() >= budget_s {
            break;
        }
        let d = (fits - 1) % draws.len();
        let (again, t) = fit_once(&draws[d], cfg, tally)?;
        fits += 1;
        fit_s[d].push(t);
        match &weights[d] {
            Some(w) if !bitwise_eq(w, again.weights()) => {
                return Err(tally.failure("two fits of the same inputs gave different weights"));
            }
            Some(_) => {}
            None => {
                weights[d] = Some(again.weights().to_vec());
                others[d] = Some(again);
            }
        }
    }
    while predict_s.len() < PREDICT_REPS {
        predict_s.push(predict_once(&predictor, test, &labels, tally)?);
    }
    let mut by_time: Vec<usize> = (0..draws.len()).collect();
    by_time.sort_by(|&a, &b| fit_s[a][0].total_cmp(&fit_s[b][0]));
    let primary = by_time[draws.len() / 2];
    Ok(Timed {
        predictor,
        primary,
        others,
        fit_s,
        labels,
        predict_s,
        peak_rss_mb,
    })
}

/// Counts read off a fitted model.
fn model_counts(model: &KrrModel, artifact_bytes: usize) -> Counts {
    let report = model.report();
    let stats = model.factors().map(|f| *f.hss.construction_stats());
    Counts {
        samples_used: stats.map_or(0, |s| s.samples_used as u64),
        restarts: stats.map_or(0, |s| s.restarts as u64),
        max_rank: report.max_rank as u64,
        pcg_iters: report.pcg_iterations as u64,
        matrix_bytes: report.matrix_memory_bytes as u64,
        factor_bytes: report.factor_bytes as u64,
        artifact_bytes: artifact_bytes as u64,
        ..Counts::default()
    }
}

/// Gates the residual of `model` and records it in the notes.
fn gate_residual(
    model: &KrrModel,
    inputs: &Inputs,
    cfg: &KrrConfig,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Result<(), Failure> {
    let r = residual(model, &inputs.train_labels);
    notes.push(format!("solve_residual {r:.6e} (relative, exact kernel)"));
    match check_residual(cfg, r) {
        Ok(Some(flag)) => notes.push(flag),
        Ok(None) => {}
        Err(reason) => return Err(tally.failure(reason)),
    }
    Ok(())
}

/// The end-to-end run: tracing off.
pub fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
) -> Result<Outcome, Failure> {
    let spec = workload.spec;
    let cfg = config(spec.solver);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut m = Metrics::default();

    let (inputs, setup_times) = set_up(&spec, seed, &mut tally);
    let mut draws = vec![inputs];
    for k in 1..spec.draws {
        let derived = seed ^ (k as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        draws.push(inputs::draw(spec.n_train, 0, derived));
    }
    // Every workload fits the first draw twice, so that its weights can be
    // compared, then every other draw at least once. Training workloads
    // keep fitting until the run's seconds have passed; the serve workload
    // spends them on traffic.
    let min_fits = spec.draws + 1;
    let budget = if workload.serve { 0.0 } else { seconds };
    let Timed {
        predictor,
        primary,
        others,
        fit_s,
        labels,
        predict_s,
        peak_rss_mb,
    } = fit_and_predict(&draws, &cfg, min_fits, budget, &mut tally)?;
    let model = others[primary].as_ref().unwrap_or(&predictor);
    gate_residual(model, &draws[primary], &cfg, &mut tally, &mut notes)?;
    let inputs = &draws[0];
    let per_draw: Vec<f64> = fit_s.iter().map(|t| stats::median(t)).collect();
    m.set("train_s", stats::median(&per_draw));
    notes.push(format!(
        "fits {} over {} training draws (median fit s per draw {per_draw:.4?}, \
         primary draw {primary}), batch predictions {} (s: min {:.4} median {:.4} max {:.4})",
        fit_s.iter().map(Vec::len).sum::<usize>(),
        draws.len(),
        predict_s.len(),
        stats::percentile(&predict_s, 0.0),
        stats::median(&predict_s),
        stats::percentile(&predict_s, 100.0),
    ));
    let artifact = hkrr_serve::codec::encode_model(model);
    m.set("artifact_mb", artifact.len() as f64 / 1e6);

    let peak = if workload.serve {
        let served = model.predict(&inputs.test);
        m.set("test_accuracy", accuracy(&served, &inputs.test_labels));
        let s = serve::run(model, &artifact, &inputs.test, seconds, out_dir, &mut tally)?;
        m.set("setup_s", s.setup_s);
        m.set("predict_qps", s.closed_qps);
        notes.extend(serve_notes(&s));
        stats::peak_rss_mb()
    } else {
        m.set("test_accuracy", accuracy(&labels, &inputs.test_labels));
        m.set("setup_s", stats::median(&setup_times));
        m.set(
            "predict_qps",
            spec.n_test as f64 / stats::median(&predict_s),
        );
        // Read after the first draw's two fits, before the artifact is
        // encoded: encoding holds about twice the artifact's bytes, more
        // than a fit needs.
        peak_rss_mb
    };
    m.set("peak_rss_mb", peak.unwrap_or(f64::NAN));
    notes.push(format!(
        "fail_frac {} ({} of {} operations)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    ));
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        counts: model_counts(model, artifact.len()),
        metrics: m,
        notes,
    })
}

/// The serve latency and throughput lines the end-to-end run prints. The
/// open-loop percentiles move several-fold between runs of one seed on a
/// host whose vCPUs are time-shared, so no bound of at most 25% holds for
/// them and the result line leaves them out.
fn serve_notes(s: &serve::ServeRun) -> Vec<String> {
    let [p50, p90, p99, max] = s.open_overall_ms;
    vec![
        format!(
            "serve_p50_ms = {:.4} ms, serve_p99_ms = {:.4} ms (median over {} windows of {} s; \
             {} open-loop requests at {} req/s over {} connections, timed from their due time)",
            s.open_p50_ms,
            s.open_p99_ms,
            s.open_windows,
            serve::WINDOW_S,
            s.open_requests,
            serve::OPEN_RATE,
            serve::CONNECTIONS
        ),
        format!(
            "open loop, all requests: p50 {p50:.4} p90 {p90:.4} p99 {p99:.4} max {max:.4} ms; \
             generator late {:.4} ms on average",
            s.gen_late_ms
        ),
        format!(
            "serve_qps = {:.1} 1/s (closed loop, {} requests over {} connections; reported as predict_qps)",
            s.closed_qps,
            s.closed_requests,
            serve::CONNECTIONS
        ),
    ]
}

/// What the step-by-step replay of `KrrModel::fit` produced.
#[derive(Debug)]
pub struct Replay {
    /// Weights of the replay, in the clustered order.
    pub weights: Vec<f64>,
    /// Index of the span enclosing the replay.
    pub fit_span: usize,
    /// Seconds of the enclosing span.
    pub fit_s: f64,
    /// Counts observed at the wrapper boundaries.
    pub counts: Counts,
}

/// Replays `KrrModel::fit` through the library's public calls, with every
/// step in a span and the kernel operators and the preconditioner wrapped
/// for timing and counting. The arithmetic is that of `fit`, so the weights
/// should match its weights bit for bit.
///
/// # Errors
/// Returns the reason when a library call fails.
pub fn replay_fit(
    train: &Matrix,
    labels: &[f64],
    cfg: &KrrConfig,
    tracer: &Tracer,
    parent: Option<usize>,
) -> Result<Replay, String> {
    let fit = tracer.open("core.fit_replay", parent);
    let p = Some(fit);
    let normalized = tracer.time("kernel.normalize", p, || {
        NormalizationStats::fit(train, cfg.normalization).transform(train)
    });
    let ordering = tracer.time("clustering.cluster", p, || {
        cluster(&normalized, cfg.clustering, cfg.leaf_size)
    });
    let (km, y) = tracer.time("core.reorder", p, || {
        (
            KernelMatrix::new(normalized.select_rows(ordering.permutation()), cfg.kernel()),
            ordering.apply(labels),
        )
    });
    let tree = ordering.tree();
    let mut counts = Counts {
        leaves: tree.leaves().len() as u64,
        depth: tree.depth() as u64,
        ..Counts::default()
    };

    let weights = match cfg.solver {
        SolverKind::DenseCholesky => {
            let k = tracer.time("kernel.assemble", p, || km.assemble_regularized(cfg.lambda));
            let factor = tracer
                .time("linalg.cholesky", p, || cholesky::cholesky(&k))
                .map_err(|e| format!("cholesky: {e}"))?;
            tracer
                .time("linalg.chol_solve", p, || factor.solve(&y))
                .map_err(|e| format!("cholesky solve: {e}"))?
        }
        SolverKind::Hss | SolverKind::HssPcg => {
            let loosening = if cfg.solver == SolverKind::HssPcg {
                cfg.pcg_loosening
            } else {
                1.0
            };
            let opts = HssOptions {
                tolerance: cfg.tolerance * loosening,
                seed: cfg.seed,
                ..HssOptions::default()
            };
            let compress = tracer.open("hss.compress", p);
            let entries = TracedOperator::new(&km, tracer, "kernel.entries", Some(compress));
            let sampler = TracedOperator::new(&km, tracer, "kernel.sample", Some(compress));
            let hss = compress_symmetric(&entries, &sampler, tree.clone(), &opts);
            tracer.close(compress);
            let mut hss = hss.map_err(|e| format!("hss compression: {e}"))?;
            let stats = *hss.construction_stats();
            counts.samples_used = stats.samples_used as u64;
            counts.restarts = stats.restarts as u64;
            counts.sample_cols = sampler.columns();
            counts.block_entries = entries.entries();
            counts.max_rank = hss.max_rank() as u64;
            counts.matrix_bytes = hss.memory_bytes() as u64;

            tracer.time("hss.shift", p, || hss.set_diagonal_shift(cfg.lambda));
            let ulv = tracer
                .time("hss.ulv_factor", p, || {
                    UlvFactorization::factor(&hss).map(|f| match cfg.factor_precision {
                        FactorPrecision::F32 if cfg.solver == SolverKind::HssPcg => f.to_f32(),
                        _ => f,
                    })
                })
                .map_err(|e| format!("ulv factor: {e}"))?;
            counts.factor_bytes = ulv.memory_bytes() as u64;

            if cfg.solver == SolverKind::Hss {
                tracer
                    .time("hss.ulv_solve", p, || ulv.solve(&y))
                    .map_err(|e| format!("ulv solve: {e}"))?
            } else {
                let span = tracer.open("linalg.pcg", p);
                let kernel = TracedOperator::new(&km, tracer, "kernel.matvec", Some(span));
                let shifted = ShiftedOperator::new(&kernel, cfg.lambda);
                let precond = TracedPreconditioner::new(&ulv, tracer, Some(span));
                let opts = PcgOptions {
                    tolerance: cfg.pcg_tolerance,
                    max_iterations: cfg.pcg_max_iterations,
                };
                let result = pcg(&shifted, &y, &precond, &opts);
                tracer.close(span);
                let result = result.map_err(|e| format!("pcg: {e}"))?;
                if !result.converged {
                    return Err(format!(
                        "pcg did not converge in {} iterations",
                        result.iterations
                    ));
                }
                counts.pcg_iters = result.iterations as u64;
                counts.matvec_calls = kernel.calls();
                counts.precond_applies = precond.applies();
                result.x
            }
        }
        SolverKind::HssWithHSampling => {
            return Err("the H-sampled solver has no replay".to_string());
        }
    };
    let fit_s = tracer.close(fit);
    Ok(Replay {
        weights,
        fit_span: fit,
        fit_s,
        counts,
    })
}

/// Per-layer metrics of the training side, from the spans and counts of
/// one replay.
fn layer_metrics(m: &mut Metrics, tracer: &Tracer, replay: &Replay, n: usize) {
    let c = &replay.counts;
    let total = |name: &str| tracer.total_within(name, replay.fit_span);
    let sample_s = total("kernel.sample");
    let matvec_s = total("kernel.matvec");
    let compress_s = total("hss.compress");
    let precond_s = total("hss.precond_apply");
    let pcg_s = total("linalg.pcg");
    let cholesky_s = total("linalg.cholesky");
    let nf = n as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    m.set("clustering.cluster_s", total("clustering.cluster"));
    m.set("clustering.leaves", c.leaves as f64);
    m.set("clustering.depth", c.depth as f64);
    m.set("kernel.sample_s", sample_s);
    m.set("kernel.sample_cols", c.sample_cols as f64);
    m.set(
        "kernel.sample_evals_per_s",
        ratio(nf * nf * c.sample_cols as f64, sample_s),
    );
    m.set("kernel.block_entries", c.block_entries as f64);
    m.set("kernel.matvec_s", matvec_s);
    m.set("kernel.matvec_calls", c.matvec_calls as f64);
    m.set("kernel.assemble_s", total("kernel.assemble"));
    m.set("hss.compress_s", compress_s);
    m.set("hss.compress_self_s", compress_s - sample_s);
    m.set("hss.samples_used", c.samples_used as f64);
    m.set("hss.restarts", c.restarts as f64);
    m.set(
        "hss.sample_useful_frac",
        ratio(c.samples_used as f64, c.sample_cols as f64),
    );
    m.set("hss.max_rank", c.max_rank as f64);
    m.set("hss.matrix_mb", c.matrix_bytes as f64 / 1e6);
    m.set("hss.factor_mb", c.factor_bytes as f64 / 1e6);
    m.set("hss.ulv_factor_s", total("hss.ulv_factor"));
    m.set("hss.ulv_solve_s", total("hss.ulv_solve"));
    m.set("hss.precond_apply_s", precond_s);
    m.set("hss.precond_applies", c.precond_applies as f64);
    m.set("linalg.cholesky_s", cholesky_s);
    m.set(
        "linalg.cholesky_gflops",
        ratio(nf * nf * nf / 3.0, cholesky_s) / 1e9,
    );
    m.set("linalg.chol_solve_s", total("linalg.chol_solve"));
    m.set("linalg.pcg_s", pcg_s);
    m.set(
        "linalg.pcg_self_s",
        if pcg_s > 0.0 {
            pcg_s - matvec_s - precond_s
        } else {
            0.0
        },
    );
    m.set("linalg.pcg_iters", c.pcg_iters as f64);
}

/// The per-layer run. A first plain fit warms the process up and gives the
/// reference weights. Then plain fits and traced replays alternate, at
/// least one pair and until `seconds` have passed, and a last plain fit
/// closes the sequence. Each replay is compared with the median plain fit,
/// and every per-layer time is the median over the replays: the first fit
/// of a process runs cold, and the host's speed drifts.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    facts: &[(&str, String)],
) -> Result<Outcome, Failure> {
    let spec = workload.spec;
    let cfg = config(spec.solver);
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut m = Metrics::default();
    let tracer = Tracer::new(run_id(workload.name, seed));
    let root = tracer.open("run", None);

    let (inputs, setup_times) = set_up(&spec, seed, &mut tally);
    m.set("datasets.generate_s", stats::median(&setup_times));

    let (model, _) = tracer.time("core.fit", Some(root), || {
        fit_once(&inputs, &cfg, &mut tally)
    })?;
    gate_residual(&model, &inputs, &cfg, &mut tally, &mut notes)?;
    let plain_fit = |tally: &mut Tally| -> Result<f64, Failure> {
        let (again, t) = tracer.time("core.fit", Some(root), || fit_once(&inputs, &cfg, tally))?;
        if bitwise_eq(model.weights(), again.weights()) {
            Ok(t)
        } else {
            Err(tally.failure("two fits of the same inputs gave different weights"))
        }
    };

    let start = Instant::now();
    let mut plain = Vec::new();
    let mut replays = Vec::new();
    while replays.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(plain_fit(&mut tally)?);
        tally.attempted += 1;
        let replay = replay_fit(
            &inputs.train,
            &inputs.train_labels,
            &cfg,
            &tracer,
            Some(root),
        )
        .map_err(|e| tally.failure(format!("replay of fit failed: {e}")))?;
        replays.push(replay);
    }
    plain.push(plain_fit(&mut tally)?);
    let train_s = stats::median(&plain);

    let identical = replays
        .iter()
        .all(|r| bitwise_eq(&r.weights, model.weights()));
    if !identical {
        notes.push(
            "REPLAY DIVERGED: the step-by-step replay did not reproduce fit's weights".to_string(),
        );
    }
    let per_replay: Vec<Metrics> = replays
        .iter()
        .map(|replay| {
            let mut rm = Metrics::default();
            layer_metrics(&mut rm, &tracer, replay, spec.n_train);
            rm.set(
                "trace.coverage",
                tracer.children_total(replay.fit_span) / train_s,
            );
            rm.set("trace.overhead", replay.fit_s / train_s - 1.0);
            rm
        })
        .collect();
    for (name, _) in PER_LAYER {
        let values: Vec<f64> = per_replay.iter().filter_map(|rm| rm.get(name)).collect();
        if !values.is_empty() {
            m.set(name, stats::median(&values));
        }
    }
    let replay_s: Vec<f64> = replays.iter().map(|r| r.fit_s).collect();
    notes.push(format!(
        "trace: {} untraced fits, median {train_s:.4} s; {} traced replays, median {:.4} s; \
         coverage {:.4}, overhead {:+.4}, replay identical {identical}",
        plain.len(),
        replays.len(),
        stats::median(&replay_s),
        m.get("trace.coverage").unwrap_or(f64::NAN),
        m.get("trace.overhead").unwrap_or(f64::NAN),
    ));
    m.set("trace.replay_identical", if identical { 1.0 } else { 0.0 });

    let (_, predict_times) = tracer.time("core.predict", Some(root), || {
        time_predict(&model, &inputs.test, &mut tally)
    })?;
    let predict_s = stats::median(&predict_times);
    m.set("core.predict_s", predict_s);
    m.set(
        "core.predict_us_per_point",
        predict_s / spec.n_test as f64 * 1e6,
    );

    let artifact = hkrr_serve::codec::encode_model(&model);
    let mut counts = replays[0].counts.clone();
    counts.artifact_bytes = artifact.len() as u64;
    if workload.serve {
        let s = tracer.time("serve.run", Some(root), || {
            serve::run(
                &model,
                &artifact,
                &inputs.test,
                seconds,
                out_dir,
                &mut tally,
            )
        })?;
        m.set("serve.encode_s", s.encode_s);
        m.set("serve.decode_s", s.decode_s);
        m.set("serve.start_s", s.start_s);
        m.set("serve.engine_mean_ms", s.engine_mean_ms);
        m.set("serve.wire_ms", s.wire_ms);
        m.set("serve.mean_batch", s.mean_batch);
        m.set("serve.batch_compute_us", s.batch_compute_us);
        m.set("serve.queue_rejections", s.queue_rejections as f64);
        m.set("serve.gen_late_ms", s.gen_late_ms);
        m.set("serve.open_p50_ms", s.open_p50_ms);
        m.set("serve.open_p99_ms", s.open_p99_ms);
        notes.extend(serve_notes(&s));
    } else {
        for (name, _) in PER_LAYER.iter().filter(|(n, _)| n.starts_with("serve.")) {
            m.set(name, 0.0);
        }
    }
    tracer.close(root);
    m.set("trace.spans", tracer.len() as f64);

    let path = out_dir.join(format!("trace-{}-seed{seed}.jsonl", workload.name));
    match tracer.write_jsonl(&path, facts) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => return Err(tally.failure(format!("writing {}: {e}", path.display()))),
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: m,
        counts,
        notes,
    })
}

fn run_id(workload: &str, seed: u64) -> String {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    format!("{workload}-s{seed}-{}-{nanos:x}", std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_gate_limits() {
        let dense = config(SolverKind::DenseCholesky);
        assert!(check_residual(&dense, 2.5e-15).unwrap().is_none());
        assert!(check_residual(&dense, 1e-9).is_err());
        assert!(check_residual(&dense, f64::NAN).is_err());
        let pcg = config(SolverKind::HssPcg);
        assert!(check_residual(&pcg, 8e-11).unwrap().is_none());
        assert!(check_residual(&pcg, 1e-8).is_err());
        let direct = config(SolverKind::Hss);
        assert!(check_residual(&direct, 5e-3).unwrap().is_none());
        let flag = check_residual(&direct, 5.6e-2).unwrap().unwrap();
        assert!(flag.starts_with("FLAG"));
    }

    /// Perturbed weights fail the gate: the residual check sees them.
    #[test]
    fn perturbed_weights_fail_the_gate() {
        let inputs = inputs::draw(300, 10, 1);
        let cfg = config(SolverKind::DenseCholesky);
        let model = KrrModel::fit(&inputs.train, &inputs.train_labels, &cfg).unwrap();
        let r = residual(&model, &inputs.train_labels);
        assert!(check_residual(&cfg, r).unwrap().is_none(), "residual {r}");

        let mut parts = model.into_parts();
        parts.weights[0] *= 1.0 + 1e-9;
        let perturbed = KrrModel::from_parts(parts).unwrap();
        let r = residual(&perturbed, &inputs.train_labels);
        assert!(check_residual(&cfg, r).is_err(), "residual {r}");
    }

    #[test]
    fn bitwise_comparison() {
        assert!(bitwise_eq(&[1.0, -0.0], &[1.0, -0.0]));
        assert!(!bitwise_eq(&[0.0], &[-0.0]));
        assert!(!bitwise_eq(&[1.0], &[1.0, 2.0]));
    }
}
