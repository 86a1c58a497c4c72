//! Exact counts repeat: two traced runs with one seed report identical
//! counts. Small problems keep the test short; the counts are taken at the
//! same wrapper boundaries as in the full-size workloads.

use hkrr_core::SolverKind;
use perfbench::train::TrainSpec;
use perfbench::{run, Workload};
use std::path::Path;
use std::process::Command;

fn small(name: &'static str, solver: SolverKind, serve: bool) -> Workload {
    Workload {
        name,
        spec: TrainSpec {
            solver,
            n_train: 400,
            n_test: 300,
            draws: 1,
        },
        serve,
    }
}

#[test]
fn two_traced_runs_with_one_seed_count_the_same() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    for wl in [
        small("small-hss", SolverKind::Hss, false),
        small("small-pcg-serve", SolverKind::HssPcg, true),
        small("small-dense", SolverKind::DenseCholesky, false),
    ] {
        let a = run(wl, 11, 2.0, true, out, &[]).expect("first run passes its checks");
        let b = run(wl, 11, 2.0, true, out, &[]).expect("second run passes its checks");
        assert_eq!(a.counts, b.counts, "{}", wl.name);
        assert!(a.counts.artifact_bytes > 0, "{}", wl.name);
        assert_eq!(
            a.metrics.get("trace.replay_identical"),
            Some(1.0),
            "{}",
            wl.name
        );
        if wl.spec.solver != SolverKind::DenseCholesky {
            assert!(a.counts.sample_cols >= a.counts.samples_used, "{}", wl.name);
            assert!(a.counts.max_rank > 0, "{}", wl.name);
        }
    }
}

#[test]
fn forbidden_environment_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "dense",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("HKRR_DENSE_BACKEND", "scalar")
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("HKRR_DENSE_BACKEND"));
}

#[test]
fn unknown_workload_is_refused() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("the benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
}
