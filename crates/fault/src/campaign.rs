//! Fault-simulation campaigns: batching, fault dropping, detection
//! records, and execution observability.
//!
//! A campaign simulates every fault in a [`FaultList`] against a stimulus
//! source, `lanes - 1` faults at a time (lane 0 carries the fault-free
//! reference), and records when each fault is first *detected* — i.e.
//! when the faulty machine's primary-output behaviour diverges from the
//! reference. Batches end early once all their faults are detected
//! (fault dropping).
//!
//! The one runner, [`run_parallel`], drives the bit-parallel
//! [`ParallelSim`] (64–512 lanes) through a [`Testbench`] over worker
//! threads pulling batches off a cache-line-padded atomic cursor, each
//! worker owning its own simulator state over one shared, immutable
//! compiled kernel (`Arc`); one worker runs on the calling thread.
//! Batches are independent — the simulator state is rebuilt from
//! scratch per batch — so the merged result is bit-identical at every
//! thread count, and a fault's detection is independent of lane width.
//! The serial single-fault oracle in [`crate::serial`] is the reference
//! it is tested against.
//!
//! The runner takes [`CampaignHooks`]: a structured [`obs::Tracer`]
//! (`campaign`/`batch` events with thread ids and wall-clock deltas, to
//! a JSONL file and/or a live event bus) and an optional
//! [`obs::Progress`] ticker. Every run also folds execution metrics into
//! [`CampaignStats`]: cycles vs budget, a detection-latency histogram,
//! and per-worker batch/cycle/wall throughput. With hooks disabled (the
//! default) the instrumentation reduces to one branch per *batch*, so
//! the simulation hot loop is untouched.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use netlist::Netlist;
use obs::{
    LatencyHistogram, MetricRegistry, PhaseProfile, ProfilePhase, Profiler, Progress, Tracer,
};
use serde_json::Value;

use crate::model::{Fault, FaultList};
use crate::sim::{ParallelSim, SimStats, MAX_LANE_WORDS};

/// Wraps the shared batch cursor so it owns a full cache line: workers
/// on different cores hammer `fetch_add` on it, and without padding the
/// line would also carry neighbouring stack data (false sharing — one
/// cause of the recorded 4-thread regression).
#[repr(align(128))]
struct CachePadded<T>(T);

/// Stimulus source driven by the campaign runner, one clock cycle at a
/// time.
///
/// Implementations drive primary inputs, call
/// [`ParallelSim::eval_segment`]/[`ParallelSim::eval_all`] and
/// [`ParallelSim::clock`], and report which lanes diverged from lane 0 at
/// the observation points this cycle. The processor testbenches in the
/// `plasma` and `parwan` crates implement this with per-lane memory
/// overlays; simple vector application is provided here by
/// [`VectorBench`].
pub trait Testbench {
    /// Prepare for a fresh batch. Called after faults are injected and
    /// the simulator's state is reset.
    fn begin(&mut self, sim: &mut ParallelSim);

    /// Execute one clock cycle, OR-ing the lanes whose observed outputs
    /// diverged from lane 0 into `diff` (length `sim.lane_words()`,
    /// zeroed by the caller).
    fn step(&mut self, sim: &mut ParallelSim, cycle: u64, diff: &mut [u64]);

    /// Total number of cycles to run per batch.
    fn cycles(&self) -> u64;
}

/// Per-fault outcome of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detection {
    /// Never diverged within the cycle budget.
    Undetected,
    /// First divergence observed at this cycle.
    DetectedAt(u64),
}

impl Detection {
    /// Whether the fault was detected.
    pub fn is_detected(self) -> bool {
        matches!(self, Detection::DetectedAt(_))
    }
}

/// Per-worker execution metrics of one campaign run (one entry for a
/// serial run). Batch runtimes are uneven because of fault dropping, so
/// these expose how well the dynamic batch cursor balanced the load.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerStats {
    /// Worker index (spawn order; 0 for a one-worker run).
    pub worker: usize,
    /// Batches this worker pulled off the cursor.
    pub batches: u64,
    /// Cycles this worker simulated.
    pub cycles: u64,
    /// Wall-clock seconds this worker spent in its batch loop.
    pub wall_seconds: f64,
    /// Lanes per simulated cycle on this worker's engine.
    pub lanes: u64,
}

impl WorkerStats {
    /// This worker's throughput in millions of lane-cycles per second.
    pub fn mlane_cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.cycles as f64 * self.lanes as f64) / self.wall_seconds / 1e6
    }
}

/// Measured execution statistics of a campaign run — the observability
/// layer that turns "it feels faster" into numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStats {
    /// Number of `lanes - 1`-fault batches simulated.
    pub batches: u64,
    /// Clock cycles actually simulated, summed over batches (fault
    /// dropping ends batches early, so this is ≤ `budget_cycles`).
    pub cycles_simulated: u64,
    /// Cycles a drop-free run would have cost (batches × budget).
    pub budget_cycles: u64,
    /// Faults detected before the cycle budget ran out (each detection
    /// drops that fault from further observation).
    pub faults_dropped: u64,
    /// Wall-clock time of the campaign.
    pub wall_seconds: f64,
    /// Worker threads used (1 = serial).
    pub threads: usize,
    /// Detection-latency histogram: cycle of first divergence, in
    /// power-of-two buckets.
    pub latency: LatencyHistogram,
    /// Per-worker batch/cycle/wall metrics (one entry when serial).
    pub workers: Vec<WorkerStats>,
    /// Hot-loop phase profile accumulated by this run (empty unless the
    /// hooks carried an enabled [`Profiler`]).
    pub profile: PhaseProfile,
    /// Lanes per simulated cycle (64–512).
    pub lanes: u64,
}

impl Default for CampaignStats {
    fn default() -> Self {
        CampaignStats {
            batches: 0,
            cycles_simulated: 0,
            budget_cycles: 0,
            faults_dropped: 0,
            wall_seconds: 0.0,
            threads: 1,
            latency: LatencyHistogram::new(),
            workers: Vec::new(),
            profile: PhaseProfile::default(),
            lanes: 64,
        }
    }
}

impl CampaignStats {
    /// Simulation throughput in millions of lane-cycles per second
    /// (`lanes` faulty machines per simulated cycle).
    pub fn mlane_cycles_per_sec(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            return 0.0;
        }
        (self.cycles_simulated as f64 * self.lanes as f64) / self.wall_seconds / 1e6
    }
}

/// Latency histogram over a detection vector (cycle of first
/// divergence for every detected fault).
pub(crate) fn latency_of(detections: &[Detection]) -> LatencyHistogram {
    LatencyHistogram::from_cycles(detections.iter().filter_map(|d| match d {
        Detection::DetectedAt(c) => Some(*c),
        Detection::Undetected => None,
    }))
}

/// Observability hooks a campaign runner threads through its batch loop:
/// a structured tracer for `campaign`/`batch` events (to a JSONL file,
/// a live event bus, or both — see [`Tracer::with_bus`]), an optional
/// live-progress ticker, a hot-loop [`Profiler`], and an optional
/// [`MetricRegistry`] receiving batch/cycle/detection counters. All are
/// cheap clonable handles; the default is fully disabled and adds one
/// branch per batch. None of them touch simulation state, so results
/// stay bit-identical with hooks on or off.
#[derive(Debug, Clone, Default)]
pub struct CampaignHooks {
    /// Structured event sink and live bus (disabled by default).
    pub tracer: Tracer,
    /// Live batch-progress counters + stderr ticker.
    pub progress: Option<Progress>,
    /// Self-profiler attributing wall-time to hot-loop phases (disabled
    /// by default). Share the same handle with the testbench (e.g.
    /// `SelfTestBench::with_profiler`) to capture the per-cycle phases
    /// too; the runner itself only times batch patch/reset.
    pub profiler: Profiler,
    /// Registry receiving `sbst_batches_total`, `sbst_cycles_total`,
    /// `sbst_faults_detected_total`, a detection-latency histogram, and
    /// a throughput gauge. Updates happen at batch granularity.
    pub metrics: Option<MetricRegistry>,
}

impl CampaignHooks {
    /// Hooks with everything disabled.
    pub fn none() -> CampaignHooks {
        CampaignHooks::default()
    }
}

/// Pre-registered per-batch counter handles (so the batch loop pays one
/// atomic add per counter, never a registry lock).
struct BatchCounters {
    batches: obs::Counter,
    cycles: obs::Counter,
}

impl BatchCounters {
    fn of(registry: &MetricRegistry) -> BatchCounters {
        BatchCounters {
            batches: registry.counter(
                "sbst_batches_total",
                "63-fault simulation batches completed",
                &[],
            ),
            cycles: registry.counter(
                "sbst_cycles_total",
                "clock cycles simulated across all batches",
                &[],
            ),
        }
    }
}

/// Fold a finished run's summary metrics into the registry: detections,
/// throughput gauge, and the detection-latency histogram.
fn publish_run_metrics(registry: &MetricRegistry, stats: &CampaignStats) {
    registry
        .counter(
            "sbst_faults_detected_total",
            "faults detected (dropped) across campaigns",
            &[],
        )
        .inc(stats.faults_dropped);
    registry
        .gauge(
            "sbst_mlane_cycles_per_sec",
            "throughput of the last campaign, millions of lane-cycles per second",
            &[],
        )
        .set(stats.mlane_cycles_per_sec());
    registry
        .histogram(
            "sbst_detection_latency_cycles",
            "cycle of first divergence per detected fault",
            &[],
        )
        .absorb(&stats.latency);
    stats.profile.export(registry);
}

/// Number of `lanes - 1`-fault batches a campaign over `faults` will
/// run at a given lane width — the `total` to size an
/// [`obs::Progress`] ticker with.
pub fn batch_count_lanes(faults: &FaultList, lanes: usize) -> u64 {
    faults.len().div_ceil(lanes - 1) as u64
}

/// Result of running a campaign over a fault list.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The fault list the campaign ran over (clone).
    pub faults: FaultList,
    /// Outcome per fault, parallel to `faults`.
    pub detections: Vec<Detection>,
    /// Execution statistics of the run that produced this result.
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// Weighted fault coverage in `[0, 1]`: detected equivalence classes
    /// weighted by how many raw faults they represent, the figure
    /// commercial fault simulators report.
    pub fn coverage(&self) -> f64 {
        let total: u64 = self.faults.weight.iter().map(|&w| w as u64).sum();
        if total == 0 {
            return 1.0;
        }
        let detected: u64 = self
            .detections
            .iter()
            .zip(&self.faults.weight)
            .filter(|(d, _)| d.is_detected())
            .map(|(_, &w)| w as u64)
            .sum();
        detected as f64 / total as f64
    }

    /// Unweighted coverage over equivalence classes.
    pub fn coverage_classes(&self) -> f64 {
        if self.detections.is_empty() {
            return 1.0;
        }
        self.detections.iter().filter(|d| d.is_detected()).count() as f64
            / self.detections.len() as f64
    }

    /// Latest detection cycle over all detected faults (test length
    /// actually needed), if any fault was detected.
    pub fn last_detection_cycle(&self) -> Option<u64> {
        self.detections
            .iter()
            .filter_map(|d| match d {
                Detection::DetectedAt(c) => Some(*c),
                Detection::Undetected => None,
            })
            .max()
    }

    /// Merge another campaign over the *same fault list* (e.g. a second
    /// test program): a fault is detected if either campaign detects it.
    ///
    /// # Panics
    ///
    /// Panics if the fault lists differ.
    pub fn merge(&self, other: &CampaignResult) -> CampaignResult {
        assert_eq!(
            self.faults.faults, other.faults.faults,
            "merging campaigns over different fault lists"
        );
        let detections = self
            .detections
            .iter()
            .zip(&other.detections)
            .map(|(a, b)| match (a, b) {
                (Detection::DetectedAt(x), Detection::DetectedAt(y)) => {
                    Detection::DetectedAt(*x.min(y))
                }
                (Detection::DetectedAt(x), _) => Detection::DetectedAt(*x),
                (_, Detection::DetectedAt(y)) => Detection::DetectedAt(*y),
                _ => Detection::Undetected,
            })
            .collect::<Vec<_>>();
        let mut workers = self.stats.workers.clone();
        workers.extend(other.stats.workers.iter().cloned());
        let latency = latency_of(&detections);
        let mut profile = self.stats.profile;
        profile.absorb(&other.stats.profile);
        CampaignResult {
            faults: self.faults.clone(),
            detections,
            stats: CampaignStats {
                batches: self.stats.batches + other.stats.batches,
                cycles_simulated: self.stats.cycles_simulated + other.stats.cycles_simulated,
                budget_cycles: self.stats.budget_cycles + other.stats.budget_cycles,
                faults_dropped: self.stats.faults_dropped + other.stats.faults_dropped,
                wall_seconds: self.stats.wall_seconds + other.stats.wall_seconds,
                threads: self.stats.threads.max(other.stats.threads),
                latency,
                workers,
                profile,
                lanes: self.stats.lanes.max(other.stats.lanes),
            },
        }
    }
}

/// Emit the `campaign_begin` event.
#[allow(clippy::too_many_arguments)]
fn trace_campaign_begin(
    hooks: &CampaignHooks,
    mode: &str,
    g: SimStats,
    faults: &FaultList,
    budget: u64,
    threads: usize,
    lanes: usize,
) {
    if !hooks.tracer.enabled() {
        return;
    }
    let fields = [
        ("mode", Value::String(mode.to_string())),
        ("faults", Value::U64(faults.len() as u64)),
        ("batches", Value::U64(batch_count_lanes(faults, lanes))),
        ("lanes", Value::U64(lanes as u64)),
        ("budget", Value::U64(budget)),
        ("threads", Value::U64(threads as u64)),
        ("nets", Value::U64(g.nets as u64)),
        ("gates", Value::U64(g.gates as u64)),
        ("dffs", Value::U64(g.dffs as u64)),
        ("segments", Value::U64(g.segments as u64)),
    ];
    hooks.tracer.event("campaign_begin", &fields);
}

/// Emit the per-batch event (the JSONL line also carries the emitting
/// thread's id). `dur_us` is the batch's wall time, measured only when
/// the tracer is on — it lets the trace exporter draw batches as slices
/// instead of instants. Results stay bit-identical regardless: the
/// timing never feeds back into simulation.
fn trace_batch(
    hooks: &CampaignHooks,
    batch: usize,
    worker: usize,
    out: &[Detection],
    cycles: u64,
    dur_us: Option<u64>,
) {
    if !hooks.tracer.enabled() {
        return;
    }
    let detected = out.iter().filter(|d| d.is_detected()).count();
    let mut fields = vec![
        ("batch", Value::U64(batch as u64)),
        ("worker", Value::U64(worker as u64)),
        ("faults", Value::U64(out.len() as u64)),
        ("cycles", Value::U64(cycles)),
        ("detected", Value::U64(detected as u64)),
    ];
    if let Some(d) = dur_us {
        fields.push(("dur_us", Value::U64(d)));
    }
    hooks.tracer.event("batch", &fields);
}

/// Emit the `campaign_end` event and flush the tracer sink.
fn trace_campaign_end(hooks: &CampaignHooks, stats: &CampaignStats) {
    if !hooks.tracer.enabled() {
        return;
    }
    let fields = [
        ("cycles", Value::U64(stats.cycles_simulated)),
        ("budget_cycles", Value::U64(stats.budget_cycles)),
        ("dropped", Value::U64(stats.faults_dropped)),
        ("wall_us", Value::U64((stats.wall_seconds * 1e6) as u64)),
    ];
    hooks.tracer.event("campaign_end", &fields);
    hooks.tracer.flush();
}

/// Creates one testbench instance per worker thread of a parallel
/// campaign. Blanket-implemented for `Fn() -> T` closures, so
/// `&|| SelfTestBench::new(...)` is a factory.
///
/// Every instance must produce the same stimulus (same program, same
/// cycle budget) — the determinism guarantee of [`run_parallel`] assumes
/// batches are interchangeable across workers.
pub trait TestbenchFactory: Sync {
    /// The testbench type produced.
    type Bench: Testbench;

    /// Create a fresh testbench (called once per worker thread).
    fn create(&self) -> Self::Bench;
}

impl<T: Testbench, F: Fn() -> T + Sync> TestbenchFactory for F {
    type Bench = T;

    fn create(&self) -> T {
        self()
    }
}

/// Number of worker threads a campaign uses when asked for 0:
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Simulate one batch of up to `lanes - 1` faults: inject, reset, run
/// until the cycle budget is spent or every fault is dropped. Writes
/// outcomes into `out` (parallel to `batch`) and returns the number of
/// cycles simulated.
///
/// The simulator state is fully rebuilt ([`ParallelSim::reset_state`]),
/// so the outcome depends only on `batch` and the testbench stimulus —
/// never on previous batches. This is what lets the parallel runner
/// schedule batches in any order and still match the serial runner bit
/// for bit.
fn run_batch(
    sim: &mut ParallelSim,
    tb: &mut dyn Testbench,
    batch: &[Fault],
    budget: u64,
    out: &mut [Detection],
    profiler: &Profiler,
) -> u64 {
    {
        let _patch = profiler.scope(ProfilePhase::Patch);
        sim.clear_faults();
        for (k, &f) in batch.iter().enumerate() {
            sim.inject(f, k + 1);
        }
    }
    {
        let _reset = profiler.scope(ProfilePhase::Reset);
        sim.reset_state();
        tb.begin(sim);
    }
    let w = sim.lane_words();
    let mut active = [0u64; MAX_LANE_WORDS];
    for k in 0..batch.len() {
        let lane = k + 1;
        active[lane >> 6] |= 1u64 << (lane & 63);
    }
    let mut detected = [0u64; MAX_LANE_WORDS];
    let mut diff = [0u64; MAX_LANE_WORDS];
    for cycle in 0..budget {
        diff[..w].fill(0);
        tb.step(sim, cycle, &mut diff[..w]);
        let mut all_done = true;
        for t in 0..w {
            let newly = diff[t] & active[t] & !detected[t];
            if newly != 0 {
                let mut rem = newly;
                while rem != 0 {
                    let lane = (t << 6) + rem.trailing_zeros() as usize;
                    rem &= rem - 1;
                    out[lane - 1] = Detection::DetectedAt(cycle);
                }
                detected[t] |= newly;
            }
            all_done &= detected[t] == active[t];
        }
        if all_done {
            return cycle + 1; // every fault in the batch dropped
        }
    }
    budget
}

/// The batches of one campaign run, their result slots, and the cursor
/// workers pull batch indices from.
struct Work<'a> {
    batches: Vec<&'a [Fault]>,
    /// One uncontended Mutex per batch slice: a worker locks only the
    /// batches the cursor hands it, so slices stay disjoint and safe.
    slots: Vec<Mutex<&'a mut [Detection]>>,
    cursor: CachePadded<AtomicUsize>,
    budget: u64,
}

impl<'a> Work<'a> {
    fn new(
        faults: &'a FaultList,
        detections: &'a mut [Detection],
        lanes: usize,
        budget: u64,
    ) -> Work<'a> {
        Work {
            batches: faults.faults.chunks(lanes - 1).collect(),
            slots: detections.chunks_mut(lanes - 1).map(Mutex::new).collect(),
            cursor: CachePadded(AtomicUsize::new(0)),
            budget,
        }
    }
}

/// One worker's batch loop: pull batches off the cursor until none are
/// left, emitting per-batch events, progress ticks and counters.
fn drain(
    sim: &mut ParallelSim,
    tb: &mut dyn Testbench,
    work: &Work<'_>,
    worker: usize,
    hooks: &CampaignHooks,
) -> WorkerStats {
    let tw = Instant::now();
    let timing = hooks.tracer.enabled();
    // Per-worker handle clones share the same atomic accumulators, so
    // updates merge for free.
    let counters = hooks.metrics.as_ref().map(BatchCounters::of);
    let mut cycles = 0u64;
    let mut done = 0u64;
    loop {
        let b = work.cursor.0.fetch_add(1, Ordering::Relaxed);
        if b >= work.batches.len() {
            break;
        }
        let mut out = work.slots[b].lock().expect("batch slot poisoned");
        let tb0 = timing.then(Instant::now);
        let c = run_batch(sim, tb, work.batches[b], work.budget, &mut out, &hooks.profiler);
        cycles += c;
        done += 1;
        trace_batch(hooks, b, worker, &out, c, tb0.map(|t| t.elapsed().as_micros() as u64));
        if let Some(p) = &hooks.progress {
            p.inc(1);
        }
        if let Some(ctr) = &counters {
            ctr.batches.inc(1);
            ctr.cycles.inc(c);
        }
    }
    WorkerStats {
        worker,
        batches: done,
        cycles,
        wall_seconds: tw.elapsed().as_secs_f64(),
        lanes: sim.lanes() as u64,
    }
}

/// Fold the workers of a finished run into its result, and close the
/// run's trace, progress ticker and metrics.
fn finish(
    hooks: &CampaignHooks,
    faults: &FaultList,
    detections: Vec<Detection>,
    workers: Vec<WorkerStats>,
    budget: u64,
    t0: Instant,
    profile_start: &PhaseProfile,
) -> CampaignResult {
    let batches: u64 = workers.iter().map(|w| w.batches).sum();
    let stats = CampaignStats {
        batches,
        cycles_simulated: workers.iter().map(|w| w.cycles).sum(),
        budget_cycles: batches * budget,
        faults_dropped: detections.iter().filter(|d| d.is_detected()).count() as u64,
        wall_seconds: t0.elapsed().as_secs_f64(),
        threads: workers.len(),
        latency: latency_of(&detections),
        lanes: workers[0].lanes,
        workers,
        profile: hooks.profiler.snapshot().since(profile_start),
    };
    trace_campaign_end(hooks, &stats);
    if let Some(p) = &hooks.progress {
        p.finish();
    }
    if let Some(reg) = &hooks.metrics {
        publish_run_metrics(reg, &stats);
    }
    CampaignResult {
        faults: faults.clone(),
        detections,
        stats,
    }
}

/// Run a campaign: simulate every fault in `faults` against the
/// stimulus of `factory`'s testbenches, in batches of `lanes - 1` plus
/// the lane-0 reference, across `threads` worker threads (0 = use
/// [`default_threads`]).
///
/// Each worker clones `proto` — per-worker lane state over the shared,
/// immutable compiled kernel (`Arc`), i.e. kernel affinity without
/// duplicating the lowered program — builds its own testbench from
/// `factory`, and pulls batches off a shared atomic cursor: dynamic
/// load balancing, because fault dropping makes batch runtimes uneven.
/// One worker runs on the calling thread. Detections are written into
/// disjoint per-batch slices of one result vector, so the merged
/// [`CampaignResult`] is bit-identical regardless of thread count or
/// scheduling.
///
/// `hooks` emit `campaign_begin`, one `batch` event per batch (carrying
/// the emitting worker's thread id) and `campaign_end` to
/// `hooks.tracer`, and tick `hooks.progress` once per completed batch.
/// They never touch simulation state.
pub fn run_parallel<F: TestbenchFactory>(
    proto: &ParallelSim,
    faults: &FaultList,
    factory: &F,
    threads: usize,
    hooks: &CampaignHooks,
) -> CampaignResult {
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    let lanes = proto.lanes();
    let workers = threads.min(batch_count_lanes(faults, lanes) as usize).max(1);
    let t0 = Instant::now();
    let profile_start = hooks.profiler.snapshot();
    let budget = factory.create().cycles();
    let mode = if workers == 1 { "serial" } else { "parallel" };
    trace_campaign_begin(hooks, mode, proto.stats(), faults, budget, workers, lanes);
    let mut detections = vec![Detection::Undetected; faults.len()];
    let work = Work::new(faults, &mut detections, lanes, budget);
    let worker = |w: usize| drain(&mut proto.clone(), &mut factory.create(), &work, w, hooks);
    let worker_stats = if workers == 1 {
        vec![worker(0)]
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|w| s.spawn(move || worker(w))).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        })
    };
    drop(work);
    finish(hooks, faults, detections, worker_stats, budget, t0, &profile_start)
}

/// A [`Testbench`] that applies a fixed sequence of input vectors
/// (broadcast to all lanes) and observes every primary output each cycle.
/// Suitable for grading component-level test sets, combinational or
/// sequential.
pub struct VectorBench<'a> {
    netlist: &'a Netlist,
    /// Each vector is a list of `(port, value)` pairs applied before the
    /// cycle's evaluation.
    vectors: &'a [Vec<(&'a str, u64)>],
    output_nets: Vec<netlist::Net>,
}

impl<'a> VectorBench<'a> {
    /// Create a bench over all output ports of `netlist`.
    pub fn new(netlist: &'a Netlist, vectors: &'a [Vec<(&'a str, u64)>]) -> Self {
        let output_nets = netlist
            .ports()
            .filter(|(_, d, _)| matches!(d, netlist::PortDir::Output))
            .flat_map(|(_, _, nets)| nets.iter().copied())
            .collect();
        VectorBench {
            netlist,
            vectors,
            output_nets,
        }
    }
}

impl Testbench for VectorBench<'_> {
    fn begin(&mut self, _sim: &mut ParallelSim) {}

    fn step(&mut self, sim: &mut ParallelSim, cycle: u64, diff: &mut [u64]) {
        for &(port, value) in &self.vectors[cycle as usize] {
            sim.set_port(self.netlist, port, value);
        }
        sim.eval_all();
        sim.diff_vs_lane0(&self.output_nets, diff);
        sim.clock();
    }

    fn cycles(&self) -> u64 {
        self.vectors.len() as u64
    }
}

/// Convenience wrapper: run `vectors` through a fresh 64-lane simulator
/// and return the result.
pub fn run_vectors(
    netlist: &Netlist,
    faults: &FaultList,
    vectors: &[Vec<(&str, u64)>],
) -> CampaignResult {
    let factory = || VectorBench::new(netlist, vectors);
    run_parallel(&ParallelSim::new(netlist), faults, &factory, 1, &CampaignHooks::none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use netlist::{synth, NetlistBuilder};

    /// Exhaustive patterns on a 4-bit adder must detect all detectable
    /// faults (the structure is fully testable).
    #[test]
    fn exhaustive_adder_reaches_full_coverage() {
        let mut b = NetlistBuilder::new("add4");
        let a = b.inputs("a", 4);
        let c = b.inputs("b", 4);
        let cin = b.input("cin");
        let r = synth::add_ripple(&mut b, &a, &c, cin);
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = (0..512u64)
            .map(|v| {
                vec![
                    ("a", v & 0xF),
                    ("b", (v >> 4) & 0xF),
                    ("cin", (v >> 8) & 1),
                ]
            })
            .collect();
        let res = run_vectors(&nl, &faults, &vectors);
        // carry_into_msb is an internal-only output here (unconnected), so
        // everything observable must be caught.
        assert!(
            res.coverage() > 0.999,
            "coverage {} too low",
            res.coverage()
        );
    }

    /// A single all-zero vector detects only a few faults; coverage must be
    /// strictly between 0 and 1 and detection cycles recorded as cycle 0.
    #[test]
    fn single_vector_partial_coverage() {
        let mut b = NetlistBuilder::new("and8");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let y = b.and_word(&a, &c);
        b.outputs("y", &y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = vec![vec![("a", 0u64), ("b", 0u64)]];
        let res = run_vectors(&nl, &faults, &vectors);
        let cov = res.coverage();
        assert!(cov > 0.0 && cov < 1.0, "cov = {cov}");
        for d in &res.detections {
            if let Detection::DetectedAt(c) = d {
                assert_eq!(*c, 0);
            }
        }
    }

    /// Sequential detection: a fault on a counter's feedback shows up only
    /// after enough cycles.
    #[test]
    fn sequential_fault_detection_cycles() {
        let mut b = NetlistBuilder::new("ctr");
        let (q, slots) = b.dff_word_later(3, 0);
        let (next, _) = synth::inc(&mut b, &q);
        b.dff_word_set(slots, &next);
        b.outputs("q", &q);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        // No inputs; just let it count for 16 cycles.
        let vectors: Vec<Vec<(&str, u64)>> = (0..16).map(|_| vec![]).collect();
        let res = run_vectors(&nl, &faults, &vectors);
        // The dropped final-carry cone and the tie-high cell are
        // unobservable, so full coverage is impossible; ~0.8 is the real
        // detectable share here.
        assert!(res.coverage() > 0.75, "coverage {}", res.coverage());
        // The MSB-affecting faults can only be seen after several cycles.
        assert!(res.last_detection_cycle().unwrap() >= 3);
    }

    #[test]
    fn merge_unions_detections() {
        let mut b = NetlistBuilder::new("xor1");
        let a = b.input("a");
        let c = b.input("b");
        let y = b.xor2(a, c);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let v1 = vec![vec![("a", 0u64), ("b", 0u64)]];
        let v2 = vec![vec![("a", 1u64), ("b", 0u64)], vec![("a", 0), ("b", 1)]];
        let r1 = run_vectors(&nl, &faults, &v1);
        let r2 = run_vectors(&nl, &faults, &v2);
        let merged = r1.merge(&r2);
        assert!(merged.coverage() >= r1.coverage().max(r2.coverage()));
        // XOR with 3 of 4 input combinations detects everything
        // observable.
        assert!(merged.coverage() > 0.99, "cov {}", merged.coverage());
    }

    /// The parallel runner must match the serial runner bit for bit at
    /// every thread count, including partial detection (too few vectors
    /// to catch everything).
    #[test]
    fn parallel_matches_serial_exactly() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        let q = b.dff_word(&y, 0);
        let z = b.and_word(&q, &a);
        b.outputs("z", &z);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 126, "need 3+ batches");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let serial = run_vectors(&nl, &faults, &vectors);
        assert_eq!(serial.stats.batches, faults.len().div_ceil(63) as u64);
        assert!(serial.stats.cycles_simulated > 0);
        for threads in [1usize, 2, 4] {
            let proto = ParallelSim::new(&nl);
            let factory = || VectorBench::new(&nl, &vectors);
            let par = run_parallel(&proto, &faults, &factory, threads, &CampaignHooks::none());
            assert_eq!(
                par.detections, serial.detections,
                "thread count {threads} changed the result"
            );
            assert_eq!(par.stats.batches, serial.stats.batches);
            assert_eq!(par.stats.cycles_simulated, serial.stats.cycles_simulated);
        }
    }

    /// Zero (or negative) wall time must yield 0.0 throughput, never
    /// inf/NaN — sub-millisecond unit-test campaigns hit this.
    #[test]
    fn zero_duration_throughput_is_zero_not_inf() {
        let stats = CampaignStats {
            cycles_simulated: 1_000_000,
            wall_seconds: 0.0,
            ..CampaignStats::default()
        };
        assert_eq!(stats.mlane_cycles_per_sec(), 0.0);
        let stats = CampaignStats {
            cycles_simulated: 1_000_000,
            wall_seconds: -1.0,
            ..CampaignStats::default()
        };
        assert_eq!(stats.mlane_cycles_per_sec(), 0.0);
        let w = WorkerStats {
            worker: 0,
            batches: 1,
            cycles: 1_000_000,
            wall_seconds: 0.0,
            lanes: 64,
        };
        assert_eq!(w.mlane_cycles_per_sec(), 0.0);
        assert!(w.mlane_cycles_per_sec().is_finite());
    }

    /// Serial and parallel runners must agree with the serial
    /// single-fault oracle fault for fault at every lane width — the
    /// bit-identical acceptance criterion at the vector-bench level.
    #[test]
    fn runners_match_serial_oracle_at_every_width() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        let q = b.dff_word(&y, 0);
        let z = b.and_word(&q, &a);
        b.outputs("z", &z);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 126, "need multiple batches at 64 lanes");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let oracle = crate::serial::run_vectors(&nl, &faults.faults, &vectors);
        let kernel = crate::kernel::compile_cached(&nl, &[nl.topo_order().to_vec()]);
        for lane_words in [1usize, 2, 4, 8] {
            let sim = ParallelSim::from_kernel(kernel.clone(), lane_words);
            let factory = || VectorBench::new(&nl, &vectors);
            let serial = run_parallel(&sim, &faults, &factory, 1, &CampaignHooks::none());
            assert_eq!(serial.detections, oracle, "{} lanes", 64 * lane_words);
            assert_eq!(serial.stats.lanes, 64 * lane_words as u64);
            assert_eq!(
                serial.stats.batches,
                batch_count_lanes(&faults, 64 * lane_words)
            );
            for threads in [2usize, 4] {
                let factory = || VectorBench::new(&nl, &vectors);
                let par = run_parallel(&sim, &faults, &factory, threads, &CampaignHooks::none());
                assert_eq!(
                    par.detections, oracle,
                    "{} lanes at {threads} threads",
                    64 * lane_words
                );
            }
        }
    }

    /// Enabling every hook (profiler + metrics + tracing disabled) must
    /// not change detections, at any thread count: the acceptance
    /// criterion that instrumentation is observation-only.
    #[test]
    fn hooks_do_not_change_results() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        let q = b.dff_word(&y, 0);
        let z = b.and_word(&q, &a);
        b.outputs("z", &z);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0xAAAAAA), ("b", 0x555555)],
            vec![("a", 0x123456), ("b", 0x654321)],
        ];
        let plain = run_vectors(&nl, &faults, &vectors);
        let hooks = CampaignHooks {
            profiler: Profiler::new(),
            metrics: Some(MetricRegistry::new()),
            ..CampaignHooks::default()
        };
        for threads in [1usize, 2, 4] {
            let proto = ParallelSim::new(&nl);
            let factory = || VectorBench::new(&nl, &vectors);
            let par = run_parallel(&proto, &faults, &factory, threads, &hooks);
            assert_eq!(
                par.detections, plain.detections,
                "hooks changed detections at {threads} threads"
            );
        }
        // The profiler actually saw the batch phases...
        let snap = hooks.profiler.snapshot();
        assert!(snap.count(ProfilePhase::Patch) > 0);
        assert!(snap.count(ProfilePhase::Reset) > 0);
        // ...and the registry accumulated batch counters.
        let reg = hooks.metrics.as_ref().unwrap();
        let text = reg.to_prometheus();
        assert!(text.contains("sbst_batches_total"), "{text}");
        assert!(text.contains("sbst_cycles_total"), "{text}");
        assert!(text.contains("sbst_faults_detected_total"), "{text}");
    }

    /// More than 63 faults exercises multi-batch bookkeeping.
    #[test]
    fn multi_batch_indexing_correct() {
        let mut b = NetlistBuilder::new("wide");
        let a = b.inputs("a", 24);
        let c = b.inputs("b", 24);
        let y = b.xor_word(&a, &c);
        b.outputs("y", &y);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        assert!(faults.len() > 63, "need multiple batches");
        let vectors: Vec<Vec<(&str, u64)>> = vec![
            vec![("a", 0), ("b", 0)],
            vec![("a", 0xFFFFFF), ("b", 0)],
            vec![("a", 0), ("b", 0xFFFFFF)],
        ];
        let res = run_vectors(&nl, &faults, &vectors);
        // XOR with those three vectors tests every bit slice completely.
        assert!(res.coverage() > 0.99, "cov {}", res.coverage());
    }
}
