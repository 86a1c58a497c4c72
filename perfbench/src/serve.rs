//! The serve workload's traffic: the trained model is encoded, written,
//! loaded into an in-process TCP server on loopback and queried by an
//! open-loop and then a closed-loop client phase. Every served decision
//! value must equal the in-process one bit for bit.

use crate::{stats, Failure, Tally};
use hkrr_core::KrrModel;
use hkrr_linalg::Matrix;
use hkrr_serve::codec::{decode_model, encode_model};
use hkrr_serve::{load_model, Client, Server, ServerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request rate of the open-loop phase, in requests per second.
pub const OPEN_RATE: f64 = 1000.0;
/// Client connections of each phase.
pub const CONNECTIONS: usize = 2;
/// Length of the windows the traffic phases are cut into, in seconds.
/// Percentiles and throughput are taken per window and the median over
/// windows is reported, so one stall of the host moves one window only.
pub const WINDOW_S: f64 = 1.0;
/// Load-and-start repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Repetitions of the codec timings.
const CODEC_REPS: usize = 3;
/// Repetitions of the in-process batch timing.
const BATCH_REPS: usize = 200;

/// What the serving phases measured.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Median of `load_model` + `Server::start` + first answered ping.
    pub setup_s: f64,
    /// Median `encode_model` time.
    pub encode_s: f64,
    /// Median `decode_model` time.
    pub decode_s: f64,
    /// Median `Server::start` time.
    pub start_s: f64,
    /// Median over open-loop windows of the window's median latency, in
    /// ms, counted from each request's due time.
    pub open_p50_ms: f64,
    /// Median over open-loop windows of the window's 99th percentile.
    pub open_p99_ms: f64,
    /// Open-loop requests answered, over all windows.
    pub open_requests: usize,
    /// Open-loop windows.
    pub open_windows: usize,
    /// Percentiles 50/90/99/100 of all open-loop latencies, in ms.
    pub open_overall_ms: [f64; 4],
    /// Median over closed-loop windows of requests answered per second.
    pub closed_qps: f64,
    /// Closed-loop requests answered.
    pub closed_requests: u64,
    /// Mean engine enqueue-to-reply latency over the open loop, from
    /// `Server::stats`, in ms.
    pub engine_mean_ms: f64,
    /// Mean client round trip minus the server-reported latency, in ms.
    pub wire_ms: f64,
    /// Mean coalesced batch size over the open loop, from `Server::stats`.
    pub mean_batch: f64,
    /// Median in-process `decision_values` time on a batch of the observed
    /// mean size, in µs.
    pub batch_compute_us: f64,
    /// Submissions the engine refused because its queue was full.
    pub queue_rejections: u64,
    /// Mean delay between a request's due time and its send, in ms.
    pub gen_late_ms: f64,
}

/// One answered open-loop request.
struct OpenSample {
    /// Position of the request in the send schedule.
    index: usize,
    latency_ms: f64,
    late_ms: f64,
    wire_ms: f64,
}

/// Per-connection outcome of a client phase.
#[derive(Default)]
struct PhaseResult {
    open: Vec<OpenSample>,
    /// Seconds from the closed-loop start at which each reply arrived.
    closed_done_s: Vec<f64>,
    attempted: u64,
    errors: u64,
    mismatch: Option<usize>,
}

fn median_time<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&times), last.expect("reps > 0"))
}

/// Serves `model` (already encoded as `artifact`) and queries it with the
/// rows of `test` for about `seconds`, half open loop and half closed loop.
///
/// # Errors
/// Fails when the codec, the server or a client fails to start, or when a
/// served value differs from the in-process one.
pub fn run(
    model: &KrrModel,
    artifact: &[u8],
    test: &Matrix,
    seconds: f64,
    out_dir: &Path,
    tally: &mut Tally,
) -> Result<ServeRun, Failure> {
    tally.attempted += 2 * CODEC_REPS as u64;
    let (encode_s, encoded) = median_time(CODEC_REPS, || encode_model(model));
    if encoded != artifact {
        return Err(tally.failure("encoding the same model twice gave different bytes"));
    }
    let (decode_s, decoded) = median_time(CODEC_REPS, || decode_model(artifact));
    let decoded = decoded.map_err(|e| tally.failure(format!("decode_model: {e}")))?;
    let reference = model.decision_values(test);
    if !crate::train::bitwise_eq(&decoded.decision_values(test), &reference) {
        return Err(tally.failure("the decoded model predicts differently from the trained one"));
    }
    drop(decoded);

    let path = out_dir.join("serve-model.hkrr");
    std::fs::write(&path, artifact)
        .map_err(|e| tally.failure(format!("writing {}: {e}", path.display())))?;

    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut start_times = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        tally.attempted += 1;
        let t = Instant::now();
        let loaded = load_model(&path).map_err(|e| tally.failure(format!("load_model: {e}")))?;
        let ts = Instant::now();
        let s = Server::start(Arc::new(loaded), ServerConfig::default())
            .map_err(|e| tally.failure(format!("Server::start: {e}")))?;
        start_times.push(ts.elapsed().as_secs_f64());
        Client::connect(&s.local_addr().to_string())
            .and_then(|mut c| c.ping())
            .map_err(|e| tally.failure(format!("first ping: {e}")))?;
        setup_times.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let _ = std::fs::remove_file(&path);
    let server = server.expect("SETUP_REPS > 0");
    let addr = server.local_addr().to_string();

    let before = server.stats();
    let open = open_loop(&addr, test, &reference, seconds / 2.0);
    let after = server.stats();
    let closed = closed_loop(&addr, test, &reference, seconds / 2.0);
    let final_stats = server.stats();
    drop(server);

    let mut samples = Vec::new();
    let mut done_s = Vec::new();
    for r in open.iter().chain(&closed) {
        tally.attempted += r.attempted;
        tally.failed += r.errors;
        if let Some(i) = r.mismatch {
            return Err(tally.failure(format!(
                "served decision value of test point {i} differs from the in-process value"
            )));
        }
    }
    for r in open {
        samples.extend(r.open);
    }
    for r in closed {
        done_s.extend(r.closed_done_s);
    }
    let open_windows = windows(seconds / 2.0);
    let per_window = (OPEN_RATE * WINDOW_S) as usize;
    let mut window_lat = vec![Vec::new(); open_windows];
    for s in &samples {
        window_lat[s.index / per_window].push(s.latency_ms);
    }
    let mut closed_counts = vec![0u64; windows(seconds / 2.0)];
    for &t in &done_s {
        if let Some(c) = closed_counts.get_mut((t / WINDOW_S) as usize) {
            *c += 1;
        }
    }
    if window_lat.iter().any(Vec::is_empty) || closed_counts.contains(&0) {
        return Err(tally.failure("a traffic window got no answer"));
    }
    let window_stat = |p: f64| {
        let per: Vec<f64> = window_lat.iter().map(|w| stats::percentile(w, p)).collect();
        stats::median(&per)
    };
    let closed_qps: Vec<f64> = closed_counts.iter().map(|&c| c as f64 / WINDOW_S).collect();

    let requests = after.requests - before.requests;
    let batches = after.batches - before.batches;
    let latency_sum = after.mean_latency_ms * after.requests as f64
        - before.mean_latency_ms * before.requests as f64;
    let engine_mean_ms = latency_sum / requests.max(1) as f64;
    let mean_batch = requests as f64 / batches.max(1) as f64;

    let rows: Vec<usize> = (0..(mean_batch.round() as usize).clamp(1, test.nrows())).collect();
    let batch = test.select_rows(&rows);
    let (batch_s, _) = median_time(BATCH_REPS, || {
        model.decision_values(std::hint::black_box(&batch))
    });

    let lat: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let overall = |p| stats::percentile(&lat, p);
    let late: Vec<f64> = samples.iter().map(|s| s.late_ms).collect();
    let wire: Vec<f64> = samples.iter().map(|s| s.wire_ms).collect();
    Ok(ServeRun {
        setup_s: stats::median(&setup_times),
        encode_s,
        decode_s,
        start_s: stats::median(&start_times),
        open_p50_ms: window_stat(50.0),
        open_p99_ms: window_stat(99.0),
        open_requests: samples.len(),
        open_windows,
        open_overall_ms: [overall(50.0), overall(90.0), overall(99.0), overall(100.0)],
        closed_qps: stats::median(&closed_qps),
        closed_requests: done_s.len() as u64,
        engine_mean_ms,
        wire_ms: stats::mean(&wire),
        mean_batch,
        batch_compute_us: batch_s * 1e6,
        queue_rejections: final_stats.queue_rejections,
        gen_late_ms: stats::mean(&late),
    })
}

/// Whole windows in a phase of `duration_s` (at least one).
fn windows(duration_s: f64) -> usize {
    ((duration_s / WINDOW_S).floor() as usize).max(1)
}

/// Sends request `i` at `start + i / OPEN_RATE`, request `i` going over
/// connection `i mod CONNECTIONS`, for `duration_s`. Latency counts from
/// the due time, so a stall also delays the requests queued behind it.
fn open_loop(addr: &str, test: &Matrix, reference: &[f64], duration_s: f64) -> Vec<PhaseResult> {
    let total = windows(duration_s) * (OPEN_RATE * WINDOW_S) as usize;
    let start = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = PhaseResult::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        out.attempted = 1;
                        out.errors = 1;
                        return out;
                    };
                    for i in (c..total).step_by(CONNECTIONS) {
                        let due = start + Duration::from_secs_f64(i as f64 / OPEN_RATE);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let k = i % test.nrows();
                        out.attempted += 1;
                        let sent = Instant::now();
                        match client.predict(test.row(k).to_vec()) {
                            Ok(p) => {
                                let done = Instant::now();
                                if p.score.to_bits() != reference[k].to_bits() {
                                    out.mismatch.get_or_insert(k);
                                }
                                let rtt_ms = (done - sent).as_secs_f64() * 1e3;
                                out.open.push(OpenSample {
                                    index: i,
                                    latency_ms: (done - due).as_secs_f64() * 1e3,
                                    late_ms: sent.saturating_duration_since(due).as_secs_f64()
                                        * 1e3,
                                    wire_ms: rtt_ms - p.latency_micros as f64 / 1e3,
                                });
                            }
                            Err(_) => out.errors += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    })
}

/// Each connection sends its next request as soon as the previous one is
/// answered, for `duration_s`.
fn closed_loop(addr: &str, test: &Matrix, reference: &[f64], duration_s: f64) -> Vec<PhaseResult> {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(windows(duration_s) as f64 * WINDOW_S);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                scope.spawn(move || {
                    let mut out = PhaseResult::default();
                    let Ok(mut client) = Client::connect(addr) else {
                        out.attempted = 1;
                        out.errors = 1;
                        return out;
                    };
                    let mut k = c;
                    while Instant::now() < deadline {
                        k = (k + CONNECTIONS) % test.nrows();
                        out.attempted += 1;
                        match client.predict(test.row(k).to_vec()) {
                            Ok(p) => {
                                out.closed_done_s.push(start.elapsed().as_secs_f64());
                                if p.score.to_bits() != reference[k].to_bits() {
                                    out.mismatch.get_or_insert(k);
                                }
                            }
                            Err(_) => out.errors += 1,
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    })
}
