//! In-memory span recorder for the traced run.
//!
//! A span is opened in the benchmark's own code around a call into one
//! layer (a crate of the workspace) and records its name, layer, start,
//! end, parent and the round ("run id") it belongs to, plus how many
//! operations the call covered (steps, models, jobs). Spans stay in
//! memory until the run ends; nothing is recorded while tracing is off,
//! so the untraced run pays one relaxed atomic load per span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static RUN_ID: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name, e.g. `amsim.step`.
    pub name: &'static str,
    /// Layer the span's self time is charged to, e.g. `amsim`.
    pub layer: &'static str,
    /// Seconds since the recorder's epoch.
    pub start: f64,
    /// Seconds since the recorder's epoch.
    pub end: f64,
    /// Index of the enclosing span in [`take`]'s output.
    pub parent: Option<usize>,
    /// Round the span belongs to.
    pub run: u64,
    /// Operations the span covered.
    pub ops: u64,
}

impl Span {
    /// Wall time of the span in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

fn epoch() -> Instant {
    use std::sync::OnceLock;
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns recording on or off for subsequent spans.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the run id stamped on subsequent spans.
pub fn set_run(id: u64) {
    RUN_ID.store(id, Ordering::Relaxed);
}

/// An open span; closes on drop.
pub struct Guard {
    slot: Option<usize>,
    ops: u64,
}

impl Guard {
    /// Records how many operations the span covered.
    pub fn ops(&mut self, n: u64) {
        self.ops = n;
    }
}

/// Opens a span of `layer` named `name` under the innermost open span of
/// this thread.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    if !enabled() {
        return Guard { slot: None, ops: 0 };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start = epoch().elapsed().as_secs_f64();
    let mut spans = SPANS.lock().expect("span list lock poisoned by a panic");
    let slot = spans.len();
    spans.push(Span {
        name,
        layer,
        start,
        end: start,
        parent,
        run: RUN_ID.load(Ordering::Relaxed),
        ops: 0,
    });
    drop(spans);
    STACK.with(|s| s.borrow_mut().push(slot));
    Guard {
        slot: Some(slot),
        ops: 0,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(slot) = self.slot else { return };
        let end = epoch().elapsed().as_secs_f64();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        if let Ok(mut spans) = SPANS.lock() {
            spans[slot].end = end;
            spans[slot].ops = self.ops;
        }
    }
}

/// Removes and returns every recorded span.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span list lock poisoned by a panic"))
}

/// Self time of every span: its duration minus the part its direct
/// children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child: Vec<f64> = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| (s.secs() - c).max(0.0))
        .collect()
}

/// Self time per layer, summed over `spans`.
pub fn layer_self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// Spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"run\":{},\"ops\":{}}}",
            s.name, s.layer, s.start, s.end, s.run, s.ops
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(layer: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: layer,
            layer,
            start,
            end,
            parent,
            run: 0,
            ops: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span_at("bench", 0.0, 10.0, None),
            span_at("amsim", 1.0, 5.0, Some(0)),
            span_at("linalg", 2.0, 3.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!((t[0] - 6.0).abs() < 1e-12);
        assert!((t[1] - 3.0).abs() < 1e-12);
        assert!((t[2] - 1.0).abs() < 1e-12);
        // Self times partition the root span exactly.
        assert!((t.iter().sum::<f64>() - 10.0).abs() < 1e-12);
        let layers = layer_self_times(&spans);
        assert!((layers["amsim"] - 3.0).abs() < 1e-12);
    }
}
