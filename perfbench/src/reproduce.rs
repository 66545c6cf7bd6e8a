//! `reproduce`: every experiment of the paper in paper order through
//! `bench::run_selected`, then the forensics report, at sample 500 on
//! one thread. A traced run also sweeps the hot loop of its Phase A+B
//! grading over lane widths in process (see [`grade::sweep`]). Each pass runs in a fresh child process, as a user's
//! reproduction does, so every pass pays the same kernel lowerings. The
//! child's environment is pinned (see [`measure::pin_env`]): the
//! baseline programs of `prcomp` grade through `flow::run_campaign_of`,
//! which takes its engine and thread count from the environment.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use bench::RunOptions;
use fault::sim::ParallelSim;
use fault::EngineConfig;
use obs::EventBus;
use plasma::testbench::SelfTestBench;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow;
use sbst::phases::Phase;
use serde_json::{json, Map, Value};

use crate::grade::{self, CYCLE_MARGIN, LANES};
use crate::measure::{self, Checks, Spans};
use crate::{sample_seed, Args, Metrics, Pins};

pub const SAMPLE: usize = 500;
/// Hidden workload name of one reproduction pass in a child process.
pub const PASS_WORKLOAD: &str = "reproduce-pass";

/// Experiment groups timed separately, keyed by the first experiment
/// id of each group; `static` is every table and figure that grades no
/// faults.
const GROUPS: [(&str, &str); 7] = [
    ("fig2", "static"),
    ("table5", "table5"),
    ("retech", "retech"),
    ("prcomp", "prcomp"),
    ("parwan", "parwan"),
    ("optnet", "optnet"),
    ("misr", "misr"),
];

fn run_options(sample_seed: u64, profile: bool, events: Option<EventBus>) -> RunOptions {
    RunOptions {
        sample: Some(SAMPLE),
        seed: sample_seed,
        threads: 1,
        progress: false,
        trace_path: None,
        profile,
        metrics: None,
        events,
        engine: EngineConfig::compiled(LANES),
        lanes_sweep: Vec::new(),
        verify_interp: false,
    }
}

/// The start of an experiment (or, with an empty id, the end of the
/// last one): its id, when it started, and the last event on the bus
/// before it.
struct Mark {
    id: String,
    at: Instant,
    seq: u64,
}

/// One reproduction pass: per-group wall times, the start of every
/// experiment and the end of the last, and every payload digest.
struct Pass {
    wall_s: f64,
    groups: Vec<(String, f64)>,
    marks: Vec<Mark>,
    digests: Map,
}

/// Sequence number of the last event on `bus`, 0 without a bus.
fn last_seq(bus: Option<&EventBus>) -> u64 {
    bus.and_then(|b| b.poll_after(0, Duration::ZERO).last().map(|(seq, _)| *seq))
        .unwrap_or(0)
}

fn mark(id: &str, opts: &RunOptions) -> Mark {
    Mark {
        id: id.to_string(),
        at: Instant::now(),
        seq: last_seq(opts.events.as_ref()),
    }
}

/// The `campaign_begin` and `campaign_end` events on `bus` with their
/// sequence numbers, in order: every flow-based experiment's campaigns
/// (the baseline programs of `prcomp` grade without hooks and do not
/// announce themselves).
fn campaign_events(bus: &EventBus) -> Vec<(u64, Value)> {
    bus.poll_after(0, Duration::ZERO)
        .iter()
        .filter_map(|(seq, line)| Some((*seq, serde_json::from_str(line).ok()?)))
        .filter(|(_, ev): &(u64, Value)| {
            matches!(ev["ev"].as_str(), Some("campaign_begin" | "campaign_end"))
        })
        .collect()
}

/// The pass's set-up time: the time before each announced campaign,
/// counted from its experiment's start or from the end of the
/// experiment's previous campaign. A campaign is announced once its
/// netlist, fault list, program, golden run and kernel are ready, so
/// this is the time until grading can start, summed over every graded
/// netlist and program. Events belong to the experiment whose marks
/// bracket their sequence numbers. `bus_t0` is when the bus was
/// created; its events carry whole milliseconds since then. Returns the
/// total and each experiment's share. The shared Plasma core is built
/// by the first static table that needs it, so its build time is in
/// `exp.static_s`.
fn set_up_time(spans: &Spans, events: &[(u64, Value)], bus_t0: Instant, pass: &Pass) -> (f64, Map) {
    let ms_of = |at: Instant| (at - bus_t0).as_secs_f64() * 1e3;
    let at_ms = |ms: f64| bus_t0 + Duration::from_secs_f64(ms / 1e3);
    let mut total = 0.0;
    let mut each = Map::new();
    for w in pass.marks.windows(2) {
        let (start, end) = (&w[0], &w[1]);
        let mut since = ms_of(start.at);
        let mut setup = 0.0;
        for (_, ev) in events
            .iter()
            .filter(|(seq, _)| (start.seq + 1..=end.seq).contains(seq))
        {
            // Whole milliseconds: an event in the experiment's first
            // millisecond reads as before its start.
            let ms = (ev["ms"].as_u64().unwrap_or(0) as f64).max(since);
            if ev["ev"].as_str() == Some("campaign_begin") {
                spans.record(&format!("setup.{}", start.id), at_ms(since), at_ms(ms));
                setup += (ms - since) / 1e3;
            } else {
                since = ms;
            }
        }
        if setup > 0.0 {
            total += setup;
            each.insert(start.id.clone(), Value::F64(setup));
        }
    }
    (total, each)
}

fn reproduce(spans: &Spans, opts: &RunOptions) -> (Pass, Value) {
    let mut marks: Vec<Mark> = Vec::new();
    let t0 = Instant::now();
    let (exps, _) = spans.time("bench.run_selected", || {
        bench::run_selected(opts, |id| {
            marks.push(mark(id, opts));
            true
        })
    });
    marks.push(mark("", opts));
    let (forensics, forensics_s) =
        spans.time("bench.forensics_report", || bench::forensics_report(opts));
    let wall_s = t0.elapsed().as_secs_f64();

    // Group boundaries: the filter is called just before each
    // experiment runs, so consecutive marks bracket it.
    let mut groups: Vec<(String, Instant, Instant)> = Vec::new();
    for w in marks.windows(2) {
        let (start, end) = (&w[0], w[1].at);
        if let Some(&(_, group)) = GROUPS.iter().find(|(first, _)| *first == start.id) {
            groups.push((group.to_string(), start.at, end));
        } else if let Some(last) = groups.last_mut() {
            last.2 = end;
        }
    }
    for (group, start, end) in &groups {
        spans.record(&format!("exp.{group}"), *start, *end);
    }
    let mut timings: Vec<(String, f64)> = groups
        .iter()
        .map(|(g, s, e)| (g.clone(), (*e - *s).as_secs_f64()))
        .collect();
    timings.push(("forensics".into(), forensics_s));

    let mut digests = Map::new();
    for e in exps.iter().chain(std::iter::once(&forensics)) {
        digests.insert(e.id.clone(), Value::String(measure::digest_json(&e.data)));
    }
    let pass = Pass {
        wall_s,
        groups: timings,
        marks,
        digests,
    };
    (pass, forensics.data)
}

/// Time `fault::forensics::analyze` on its own, over the same Phase A+B
/// campaign the forensics report grades, and check that it renders the
/// report's payload. Returns (seconds, escapes, matches).
fn analyze_alone(spans: &Spans, sample_seed: u64, report: &Value) -> (f64, usize, bool) {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = grade::flow_options(SAMPLE, sample_seed, LANES);
    let run = spans
        .time("sbst.flow.run_flow", || {
            flow::run_flow(&core, Phase::B, &opts)
        })
        .0;
    let segs = grade::segments(&core);
    let mut sim = ParallelSim::with_segments(core.netlist(), &segs);
    let mut tb = SelfTestBench::new(
        &core,
        &run.selftest.program,
        flow::MEM_BYTES,
        run.golden_cycles + CYCLE_MARGIN,
    );
    let (f, s) = spans.time("fault.forensics.analyze", || {
        fault::forensics::analyze(
            core.netlist(),
            &run.campaign,
            core.observed_outputs(),
            &mut sim,
            &mut tb,
        )
    });
    let mut expected = Map::new();
    if let Some(o) = report.as_object() {
        for (k, v) in o.iter().filter(|(k, _)| *k != "escape_attribution") {
            expected.insert(k.clone(), v.clone());
        }
    }
    let same = measure::digest_json(&f.to_json()) == measure::digest_json(&Value::Object(expected));
    (s, f.escapes.len(), same)
}

/// Entry point of the child process: run one pass and print its record
/// as one JSON line.
pub fn pass_main(args: &Args) {
    let seed = sample_seed(args.seed);
    let spans = Spans::new(args.trace);
    // Large enough that no event of a pass is dropped.
    let bus = EventBus::new(1 << 20);
    let bus_t0 = Instant::now();
    let opts = run_options(seed, args.trace, Some(bus.clone()));
    let (h0, m0) = fault::kernel::cache_counters();
    let (pass, forensics) = spans.time("reproduce.pass", || reproduce(&spans, &opts)).0;
    let (h1, m1) = fault::kernel::cache_counters();
    let events = campaign_events(&bus);
    let (setup_s, setups) = set_up_time(&spans, &events, bus_t0, &pass);
    let mut groups = Map::new();
    for (g, s) in &pass.groups {
        groups.insert(g.clone(), Value::F64(*s));
    }
    let mut record = json!({
        "wall_s": pass.wall_s,
        "groups": Value::Object(groups),
        "digests": Value::Object(pass.digests),
        "setup_s": setup_s,
        "setups": Value::Object(setups),
        "rss_mb": measure::peak_rss_mb("self"),
        "faults": events.iter().filter_map(|(_, ev)| ev["faults"].as_u64()).sum::<u64>(),
        "cache_hits": h1 - h0,
        "cache_misses": m1 - m0,
    });
    if args.trace {
        let (s, escapes, same) = analyze_alone(&spans, seed, &forensics);
        if let Value::Object(o) = &mut record {
            o.insert("analyze_s".into(), Value::F64(s));
            o.insert("escapes".into(), Value::U64(escapes as u64));
            o.insert("analyze_matches".into(), Value::Bool(same));
        }
        let path = args
            .out
            .join(format!("reproduce-seed{}-pass.trace.json", args.seed));
        if let Err(e) = spans.write(&path, "perfbench reproduce pass") {
            eprintln!("perfbench: cannot write the pass trace: {e}");
        }
    }
    println!("{}", serde_json::to_string(&record).expect("json"));
}

/// Run one pass in a child process and parse its record.
fn spawn_pass(args: &Args, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = measure::pin_env(&mut Command::new(exe))
        .args([
            "--workload",
            PASS_WORKLOAD,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a reproduction pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("reproduction pass exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("bad pass record: {e}"))
}

fn check_pass(pins: &Pins, seed: u64, pass: &Value, checks: &mut Checks, digests: &mut Map) {
    let Some(got) = pass["digests"].as_object() else {
        checks.check(false, || "pass record without digests".into());
        return;
    };
    for (id, d) in got.iter() {
        let want = pins.get("reproduce", seed, id);
        checks.check(want.as_deref() == d.as_str(), || {
            format!("reproduce `{id}`: digest {d:?}, pinned {want:?}")
        });
        digests.insert(id.clone(), d.clone());
    }
    checks.check(got.len() == bench::EXPERIMENT_IDS.len() + 1, || {
        format!(
            "reproduce: {} payloads, want {}",
            got.len(),
            bench::EXPERIMENT_IDS.len() + 1
        )
    });
}

pub fn run(
    args: &Args,
    pins: &Pins,
    spans: &Spans,
    checks: &mut Checks,
    metrics: &mut Metrics,
    digests: &mut Map,
) {
    let seed = sample_seed(args.seed);
    let mut passes: Vec<Value> = Vec::new();
    let start = Instant::now();
    // Traced: one untraced and one traced pass, for the overhead ratio.
    // Untraced: start another pass only if it should end in time.
    loop {
        let traced = args.trace && passes.len() == 1;
        let name = match traced {
            true => "reproduce.traced_pass",
            false => "reproduce.pass",
        };
        match spans.time(name, || spawn_pass(args, traced)).0 {
            Ok(pass) => {
                check_pass(pins, seed, &pass, checks, digests);
                passes.push(pass);
            }
            Err(e) => return checks.check(false, || e),
        }
        let last = passes[passes.len() - 1]["wall_s"].as_f64().unwrap_or(0.0);
        let more = match args.trace {
            true => passes.len() < 2,
            false => start.elapsed().as_secs_f64() + last <= args.seconds,
        };
        if !more {
            break;
        }
    }
    let walls: Vec<f64> = passes.iter().filter_map(|p| p["wall_s"].as_f64()).collect();
    let group = |p: &Value, g: &str| p["groups"][g].as_f64().unwrap_or(0.0);
    if args.trace {
        let traced = &passes[1];
        for g in GROUPS.iter().map(|(_, g)| *g).chain(["forensics"]) {
            metrics.set(&format!("exp.{g}_s"), group(traced, g));
        }
        for (metric, key) in [
            ("forensics.analyze_s", "analyze_s"),
            ("forensics.escapes", "escapes"),
            ("kernel.cache_hits", "cache_hits"),
            ("kernel.cache_misses", "cache_misses"),
        ] {
            metrics.set(metric, traced[key].as_f64().unwrap_or(0.0));
        }
        checks.check(traced["analyze_matches"].as_bool() == Some(true), || {
            "forensics::analyze alone does not render the report's payload".into()
        });
        metrics.set("obs.trace_overhead_frac", walls[1] / walls[0] - 1.0);
        grade::sweep(pins, seed, spans, checks, metrics, digests);
    } else {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p["faults"].as_f64().unwrap_or(0.0) / p["wall_s"].as_f64().unwrap_or(1.0))
            .collect();
        let setups: Vec<f64> = passes
            .iter()
            .filter_map(|p| p["setup_s"].as_f64())
            .collect();
        metrics.set("setup_s", measure::median(&setups));
        metrics.samples("setup_s", &setups);
        metrics.set("wall_s", measure::median(&walls));
        metrics.set("faults_per_s", measure::median(&rates));
        metrics.set("job_p50_s", measure::median(&walls));
        metrics.set("job_p75_s", measure::quantile(&walls, 0.75));
        metrics.set("jobs_per_s", walls.len() as f64 / walls.iter().sum::<f64>());
        let rss = passes
            .iter()
            .filter_map(|p| p["rss_mb"].as_f64())
            .fold(0.0, f64::max);
        metrics.set("peak_rss_mb", rss);
        metrics.samples("pass_s", &walls);
    }
}

/// The pinned digests of `reproduce` at one sampling seed.
pub fn pin(sample_seed: u64) -> Value {
    let (pass, _) = reproduce(&Spans::new(false), &run_options(sample_seed, false, None));
    Value::Object(pass.digests)
}
