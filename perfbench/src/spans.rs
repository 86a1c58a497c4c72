//! In-memory spans and the wrappers the traced run hands to the library.
//!
//! Nothing here reaches inside the library: a span times one call the
//! benchmark makes, or one call the library makes on an operator the
//! benchmark passed in. Per-entry work is only counted, never timed. Spans
//! stay in memory and are written as JSON lines when the run ends.

use hkrr_linalg::iterative::Preconditioner;
use hkrr_linalg::{LinalgResult, LinearOperator, Matrix};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, as `layer.operation`.
    pub name: &'static str,
    /// Start, from the tracer's epoch.
    pub start: Duration,
    /// End, from the tracer's epoch.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Collects the spans of one run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    run_id: String,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose spans all carry `run_id`.
    pub fn new(run_id: String) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            run_id,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("no span holder panics while recording")
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        let mut spans = self.spans();
        spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
        });
        spans.len() - 1
    }

    /// Closes span `id` now and returns its length in seconds.
    pub fn close(&self, id: usize) -> f64 {
        let now = self.epoch.elapsed();
        let mut spans = self.spans();
        spans[id].end = now;
        spans[id].seconds()
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Sum of the lengths of the spans named `name` nested, at any depth,
    /// inside span `ancestor`, in seconds.
    pub fn total_within(&self, name: &str, ancestor: usize) -> f64 {
        let spans = self.spans();
        let inside = |mut id: usize| {
            while let Some(parent) = spans[id].parent {
                if parent == ancestor {
                    return true;
                }
                id = parent;
            }
            false
        };
        spans
            .iter()
            .enumerate()
            .filter(|&(id, s)| s.name == name && inside(id))
            .fold(0.0, |acc, (_, s)| acc + s.seconds())
    }

    /// Sum of the lengths of the direct children of span `parent`.
    pub fn children_total(&self, parent: usize) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.parent == Some(parent))
            .fold(0.0, |acc, s| acc + s.seconds())
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes a header line of `facts` and then one JSON line per span.
    ///
    /// # Errors
    /// Returns the I/O error of creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, facts: &[(&str, String)]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let header: Vec<String> = facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": \"{v}\""))
            .collect();
        writeln!(
            out,
            "{{\"run_id\": \"{}\", {}}}",
            self.run_id,
            header.join(", ")
        )?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"run_id\": \"{}\", \"id\": {id}, \"name\": \"{}\", \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
                self.run_id,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}

/// A [`LinearOperator`] that forwards every call to `inner`, recording a
/// span for each product and counting columns and extracted entries.
///
/// Every method is forwarded to the inner operator's own implementation,
/// so the arithmetic, and therefore every result, is that of `inner`.
pub struct TracedOperator<'a, T: LinearOperator> {
    inner: &'a T,
    tracer: &'a Tracer,
    span_name: &'static str,
    parent: Option<usize>,
    calls: AtomicU64,
    columns: AtomicU64,
    entries: AtomicU64,
}

impl<'a, T: LinearOperator> TracedOperator<'a, T> {
    /// Wraps `inner`; products are recorded as `span_name` under `parent`.
    pub fn new(
        inner: &'a T,
        tracer: &'a Tracer,
        span_name: &'static str,
        parent: Option<usize>,
    ) -> Self {
        TracedOperator {
            inner,
            tracer,
            span_name,
            parent,
            calls: AtomicU64::new(0),
            columns: AtomicU64::new(0),
            entries: AtomicU64::new(0),
        }
    }

    /// Product calls (`matvec`, `matmat` and their transposes).
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Vectors multiplied, summed over all product calls.
    pub fn columns(&self) -> u64 {
        self.columns.load(Ordering::Relaxed)
    }

    /// Entries requested through `entry`, `sub_block` and `to_dense`.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    fn product<R>(&self, columns: usize, f: impl FnOnce() -> R) -> R {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(columns as u64, Ordering::Relaxed);
        self.tracer.time(self.span_name, self.parent, f)
    }
}

impl<T: LinearOperator> LinearOperator for TracedOperator<'_, T> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }

    fn ncols(&self) -> usize {
        self.inner.ncols()
    }

    fn entry(&self, i: usize, j: usize) -> f64 {
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }

    fn matvec(&self, x: &[f64], y: &mut [f64]) {
        self.product(1, || self.inner.matvec(x, y));
    }

    fn rmatvec(&self, x: &[f64], y: &mut [f64]) {
        self.product(1, || self.inner.rmatvec(x, y));
    }

    fn matmat(&self, x: &Matrix) -> Matrix {
        self.product(x.ncols(), || self.inner.matmat(x))
    }

    fn rmatmat(&self, x: &Matrix) -> Matrix {
        self.product(x.ncols(), || self.inner.rmatmat(x))
    }

    fn sub_block(&self, rows: &[usize], cols: &[usize]) -> Matrix {
        self.entries
            .fetch_add((rows.len() * cols.len()) as u64, Ordering::Relaxed);
        self.inner.sub_block(rows, cols)
    }

    fn to_dense(&self) -> Matrix {
        self.entries
            .fetch_add((self.nrows() * self.ncols()) as u64, Ordering::Relaxed);
        self.inner.to_dense()
    }
}

/// A [`Preconditioner`] that forwards to `inner`, recording a span and a
/// count per application.
pub struct TracedPreconditioner<'a, P: Preconditioner> {
    inner: &'a P,
    tracer: &'a Tracer,
    parent: Option<usize>,
    applies: AtomicU64,
}

impl<'a, P: Preconditioner> TracedPreconditioner<'a, P> {
    /// Wraps `inner`; applications are recorded as `hss.precond_apply`.
    pub fn new(inner: &'a P, tracer: &'a Tracer, parent: Option<usize>) -> Self {
        TracedPreconditioner {
            inner,
            tracer,
            parent,
            applies: AtomicU64::new(0),
        }
    }

    /// Applications so far.
    pub fn applies(&self) -> u64 {
        self.applies.load(Ordering::Relaxed)
    }
}

impl<P: Preconditioner> Preconditioner for TracedPreconditioner<'_, P> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, r: &[f64], z: &mut [f64]) -> LinalgResult<()> {
        self.applies.fetch_add(1, Ordering::Relaxed);
        self.tracer
            .time("hss.precond_apply", self.parent, || self.inner.apply(r, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrapper_forwards_products_and_counts() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let tracer = Tracer::new("t".to_string());
        let root = tracer.open("root", None);
        let op = TracedOperator::new(&a, &tracer, "op.product", Some(root));
        let mut y = vec![0.0; 2];
        op.matvec(&[1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0]);
        let block = op.sub_block(&[0, 1], &[1]);
        assert_eq!(block.data(), &[1.0, 3.0]);
        let x = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert_eq!(op.matmat(&x).data(), a.data());
        tracer.close(root);
        assert_eq!(op.calls(), 2);
        assert_eq!(op.columns(), 3);
        assert_eq!(op.entries(), 2);
        assert_eq!(tracer.len(), 3);
        assert_eq!(
            tracer.children_total(root),
            tracer.total_within("op.product", root)
        );
        assert_eq!(tracer.total_within("op.product", root + 1), 0.0);
    }
}
