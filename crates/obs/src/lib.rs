//! Structured tracing, metrics, and progress reporting for the
//! fault-simulation stack.
//!
//! Like the workspace's `proptest`/`criterion`/`serde_json` shims, this
//! crate is std-only and offline: no subscriber registries, no async, no
//! global state. The pieces:
//!
//! * [`trace::Tracer`] — a clonable handle to a JSONL event sink. A
//!   disabled tracer is a `None` behind the handle, so instrumented code
//!   costs one pointer test when tracing is off (the default). Events
//!   carry a microsecond timestamp relative to tracer creation and the
//!   emitting thread's id; [`trace::Span`] guards add wall-clock
//!   durations. A tracer may also carry an [`events::EventBus`], so one
//!   `event()` call feeds both the JSONL file and the live SSE stream.
//! * [`metrics::LatencyHistogram`] — power-of-two bucketed histogram of
//!   detection latencies (cycles from test start to first divergence).
//! * [`registry::MetricRegistry`] — named counters, gauges, and
//!   histograms behind lock-free atomic handles, exported as Prometheus
//!   text exposition or a JSON snapshot.
//! * [`profile::Profiler`] — scoped-timer self-profiler attributing
//!   wall-time to the fault-sim hot-loop phases ([`ProfilePhase`]).
//! * [`ledger`] — the append-only schema-versioned run ledger
//!   (`results/LEDGER.jsonl`) plus trend tables and the perf-regression
//!   gate that `bench --bin ledger` exposes.
//! * [`events::EventBus`] — a bounded drop-oldest broadcast queue for
//!   live campaign events (batch ticks, detections, divergences);
//!   publishers never block, lagging subscribers skip ahead.
//! * [`timeline::Timeline`] — a periodic sampler snapshotting a registry
//!   into bounded ring-buffered time series for the `/timeline` route.
//! * [`traceviz`] — Chrome trace-event JSON export (Perfetto-compatible)
//!   of tracer streams and hot-loop phase profiles.
//! * [`serve`] — the observatory's std-`TcpListener` HTTP plane: a live
//!   dashboard at `/`, `/metrics` (Prometheus), `/json`, `/timeline`,
//!   `/events` (SSE) and `/trace` during long runs.
//! * [`progress::Progress`] — shared atomic counters plus a rate-limited
//!   stderr ticker, for watching long campaigns without touching their
//!   hot loops.
//! * [`wave`] — a byte-deterministic VCD (IEEE 1364 §18) writer with
//!   hierarchical scopes, vector vars, and change-only emission; the
//!   serialization layer under the netlist-level probe/recorder stack.
//!
//! The `fault::campaign` runners accept these via `CampaignHooks`; the
//! `tables` and `difftest` binaries wire them to `--progress`,
//! `--report`, `--profile`, `--metrics-out`, `--serve`, and `--ledger`.

#![warn(missing_docs)]

pub mod events;
pub mod ledger;
pub mod metrics;
pub mod profile;
pub mod progress;
pub mod registry;
pub mod serve;
pub mod timeline;
pub mod trace;
pub mod traceviz;
pub mod wave;

pub use events::EventBus;
pub use ledger::LedgerRecord;
pub use metrics::LatencyHistogram;
pub use profile::{PhaseProfile, ProfilePhase, Profiler};
pub use progress::Progress;
pub use registry::{Counter, Gauge, Histogram, MetricRegistry};
pub use serve::Observatory;
pub use timeline::Timeline;
pub use trace::{Span, TraceBuffer, TraceContext, Tracer};
pub use wave::{VcdSpec, VcdVar, VcdWriter};
