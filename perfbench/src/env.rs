//! The pinned environment: variables that silently change the measured
//! program are refused, and the host facts every output records.

use std::path::Path;

/// Environment variables that change what the library computes or how it
/// reports, so a run with any of them set would not measure the program as
/// committed.
pub const FORBIDDEN_VARS: [&str; 5] = [
    "HKRR_FACTOR_PRECISION",
    "HKRR_DENSE_BACKEND",
    "HKRR_TRACE",
    "HKRR_LOG",
    "HKRR_BENCH_SCALE",
];

/// Returns an error naming every forbidden variable that is set.
pub fn check_pinned() -> Result<(), String> {
    let set: Vec<&str> = FORBIDDEN_VARS
        .iter()
        .copied()
        .filter(|v| std::env::var_os(v).is_some())
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run: {} set; each changes the measured program",
            set.join(", ")
        ))
    }
}

/// Host and build facts recorded with every result.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Cores the process may use.
    pub nproc: usize,
    /// Threads the rayon pool gives a parallel call.
    pub rayon_threads: usize,
    /// The dense backend the library selected.
    pub backend: &'static str,
    /// Git commit of the checkout, or `unknown` outside a git checkout.
    pub commit: String,
    /// FNV-1a digest of the library sources, which identifies the code
    /// even where there is no git metadata.
    pub source_digest: String,
}

impl HostInfo {
    /// Collects the facts for the checkout whose library sources live in
    /// `crates_dir`.
    pub fn collect(crates_dir: &Path) -> HostInfo {
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rayon_threads: rayon::current_num_threads(),
            backend: hkrr_linalg::backend::active_kind().as_str(),
            commit: git_commit(crates_dir),
            source_digest: source_digest(crates_dir),
        }
    }

    /// The facts as `key=value` pairs, in a fixed order.
    pub fn pairs(&self, workload: &str, seed: u64) -> Vec<(&'static str, String)> {
        vec![
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("nproc", self.nproc.to_string()),
            ("rayon_threads", self.rayon_threads.to_string()),
            ("dense_backend", self.backend.to_string()),
            ("commit", self.commit.clone()),
            ("source_digest", self.source_digest.clone()),
        ]
    }
}

fn git_commit(dir: &Path) -> String {
    std::process::Command::new("git")
        .arg("-C")
        .arg(dir)
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of every `.rs` and `Cargo.toml` file under `dir`, visited in
/// sorted path order.
fn source_digest(dir: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(dir, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        let rel = f
            .strip_prefix(dir)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in rel.bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn collect_sources(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs")
            || p.file_name().is_some_and(|n| n == "Cargo.toml")
        {
            out.push(p);
        }
    }
}
