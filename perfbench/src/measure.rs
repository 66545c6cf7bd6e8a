//! Measurement plumbing shared by the workloads: benchmark-side spans
//! (kept in memory, written once as a Perfetto-loadable trace), order
//! statistics, peak resident memory, and output digests.

use std::cell::RefCell;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use serde_json::{json, Value};

/// One timed call into a layer, as the benchmark saw it from outside.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
}

/// Span recorder. Every call into a layer goes through [`Spans::time`],
/// which always returns the call's duration; the span itself is kept
/// only when tracing is on, so untraced runs pay one clock read pair
/// per call and nothing else.
pub struct Spans {
    t0: Instant,
    enabled: bool,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            t0: Instant::now(),
            enabled,
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result and its wall time in seconds.
    pub fn time<R>(&self, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let id = self.enabled.then(|| {
            let parent = self.stack.borrow().last().copied();
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name: name.to_string(),
                start_us: self.us(start),
                end_us: 0.0,
                parent,
            });
            let id = spans.len() - 1;
            self.stack.borrow_mut().push(id);
            id
        });
        let out = f();
        let end = Instant::now();
        if let Some(id) = id {
            self.stack.borrow_mut().pop();
            self.spans.borrow_mut()[id].end_us = self.us(end);
        }
        (out, (end - start).as_secs_f64())
    }

    /// Record a span whose bounds were taken elsewhere (for calls the
    /// benchmark can only bracket with timestamps), nested under the
    /// innermost open span.
    pub fn record(&self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let parent = self.stack.borrow().last().copied();
            self.spans.borrow_mut().push(Span {
                name: name.to_string(),
                start_us: self.us(start),
                end_us: self.us(end),
                parent,
            });
        }
    }

    fn us(&self, at: Instant) -> f64 {
        (at - self.t0).as_secs_f64() * 1e6
    }

    /// The spans as Chrome trace-event JSON (open it in ui.perfetto.dev).
    /// Each slice carries its span id and its parent's id in `args`.
    pub fn to_trace(&self, process: &str) -> Value {
        let mut events = vec![json!({
            "name": "process_name", "ph": "M", "pid": 1u64, "tid": 1u64,
            "args": { "name": process.to_string() },
        })];
        for (id, s) in self.spans.borrow().iter().enumerate() {
            events.push(json!({
                "name": s.name.clone(),
                "ph": "X",
                "pid": 1u64,
                "tid": 1u64,
                "ts": s.start_us,
                "dur": (s.end_us - s.start_us).max(0.0),
                "args": {
                    "id": id as u64,
                    "parent": match s.parent {
                        Some(p) => Value::U64(p as u64),
                        None => Value::Null,
                    },
                },
            }));
        }
        json!({ "traceEvents": Value::Array(events), "displayTimeUnit": "ms" })
    }

    /// Write the trace to `path`, creating its directory.
    pub fn write(&self, path: &Path, process: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let body = serde_json::to_string(&self.to_trace(process)).expect("trace serializes");
        std::fs::write(path, body)
    }
}

/// The engine, lane width, gating and thread count every child process
/// runs under. Some library paths (`EngineConfig::from_env`,
/// `campaign::default_threads`) read these variables, so a caller's
/// environment must not reach a measured process.
const PINNED_ENV: [(&str, &str); 4] = [
    ("SBST_ENGINE", "compiled"),
    ("SBST_LANES", "256"),
    ("SBST_GATING", "0"),
    ("SBST_THREADS", "1"),
];

/// Set [`PINNED_ENV`] on a child process.
pub fn pin_env(cmd: &mut Command) -> &mut Command {
    cmd.envs(PINNED_ENV)
}

/// Quantile `q` in [0, 1] of `xs` by linear interpolation between order
/// statistics. `xs` must be non-empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN timings"));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set size of process `pid` (`self` for this one) in
/// MiB, from the kernel's `VmHWM` high-water mark.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// 64-bit FNV-1a digest of `bytes` as 16 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Digest of a JSON value's compact serialization.
pub fn digest_json(v: &Value) -> String {
    digest(
        serde_json::to_string(v)
            .expect("json serializes")
            .as_bytes(),
    )
}

/// Pass-count bookkeeping for `attempted`/`failed`.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Count one operation; report and count it as failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED check: {}", what());
        }
    }
}
