//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload reproduce|jobserver --seed N --seconds S --trace 0|1
//!           [--server-bin PATH] [--out DIR]
//! perfbench --pin            # recompute the pinned output digests (pins.json)
//! ```
//!
//! The benchmark drives the system only from outside: it calls the
//! public entry points of `netlist`, `mips`, `fault`, `plasma`, `sbst`
//! and `bench`, and talks HTTP to the `server` binary. Each layer is
//! timed by timing those calls. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, and `metrics` (the
//! end-to-end metrics untraced, the per-layer metrics with `--trace 1`).
//! The process exits 1 when any output check failed.

mod grade;
mod jobserver;
mod measure;
mod reproduce;

use std::path::PathBuf;

use serde_json::{json, Map, Value};

use measure::{Checks, Spans};

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("faults_per_s", "1/s"),
    ("job_p50_s", "s"),
    ("job_p75_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload does not exercise reads 0 (see README.md for the
/// workload each metric belongs to; the `wide.*`, `campaign.*` and
/// set-up layers come from the Phase A+B grading of `reproduce`).
const PER_LAYER: &[(&str, &str)] = &[
    ("wide.l64.eval_early_ns", "ns/lane-cyc"),
    ("wide.l64.eval_late_ns", "ns/lane-cyc"),
    ("wide.l64.overlay_ns", "ns/lane-cyc"),
    ("wide.l64.detect_ns", "ns/lane-cyc"),
    ("wide.l64.clock_ns", "ns/lane-cyc"),
    ("wide.l64.mlane_cyc_per_s", "M/s"),
    ("wide.l256.eval_early_ns", "ns/lane-cyc"),
    ("wide.l256.eval_late_ns", "ns/lane-cyc"),
    ("wide.l256.overlay_ns", "ns/lane-cyc"),
    ("wide.l256.detect_ns", "ns/lane-cyc"),
    ("wide.l256.clock_ns", "ns/lane-cyc"),
    ("wide.l256.mlane_cyc_per_s", "M/s"),
    ("wide.l512.eval_early_ns", "ns/lane-cyc"),
    ("wide.l512.eval_late_ns", "ns/lane-cyc"),
    ("wide.l512.overlay_ns", "ns/lane-cyc"),
    ("wide.l512.detect_ns", "ns/lane-cyc"),
    ("wide.l512.clock_ns", "ns/lane-cyc"),
    ("wide.l512.mlane_cyc_per_s", "M/s"),
    ("campaign.batches", "count"),
    ("campaign.cycles", "count"),
    ("campaign.lane_cycles", "count"),
    ("campaign.live_lane_frac", "ratio"),
    ("netlist.core_build_ms", "ms"),
    ("fault.extract_collapse_ms", "ms"),
    ("mips.assemble_ms", "ms"),
    ("mips.golden_ms", "ms"),
    ("kernel.lower_ms", "ms"),
    ("kernel.cache_hits", "count"),
    ("kernel.cache_misses", "count"),
    ("exp.static_s", "s"),
    ("exp.table5_s", "s"),
    ("exp.retech_s", "s"),
    ("exp.prcomp_s", "s"),
    ("exp.parwan_s", "s"),
    ("exp.optnet_s", "s"),
    ("exp.misr_s", "s"),
    ("exp.forensics_s", "s"),
    ("forensics.analyze_s", "s"),
    ("forensics.escapes", "count"),
    ("jobs.prepare_ms", "ms"),
    ("server.queue_ms", "ms"),
    ("server.claim_ms", "ms"),
    ("server.grade_ms", "ms"),
    ("server.merge_ms", "ms"),
    ("server.finalize_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.poll_rtt_ms", "ms"),
    ("server.steals", "count"),
    ("obs.events_dropped", "count"),
    ("obs.trace_overhead_frac", "ratio"),
];

/// The `--seed` that later performance changes hold out: tune on the
/// ordinary seeds, then confirm a claim on this one.
pub const HELD_OUT_SEED: u64 = 2003;

/// Fault-sampling seeds the ordinary `--seed` values map onto
/// (`seed % 4`). Index 0 is the repository's default sampling seed.
/// Each has pinned output digests in `pins.json`, so every run's
/// outputs are checked against a recorded answer.
const SAMPLE_SEEDS: [u64; 4] = [
    0xC0FFEE,
    0x9E37_79B9_7F4A_7C15,
    0xD1B5_4A32_D192_ED03,
    0x8CB9_2BA7_2F3D_8DD7,
];
const HELD_OUT_SAMPLE_SEED: u64 = 0xDA7E_2003;

/// The fault-sampling seed a benchmark `--seed` selects.
pub fn sample_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        HELD_OUT_SAMPLE_SEED
    } else {
        SAMPLE_SEEDS[(seed % SAMPLE_SEEDS.len() as u64) as usize]
    }
}

/// Every sampling seed with pinned digests.
pub fn pinned_sample_seeds() -> Vec<u64> {
    let mut v = SAMPLE_SEEDS.to_vec();
    v.push(HELD_OUT_SAMPLE_SEED);
    v
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub server_bin: PathBuf,
    pub out: PathBuf,
}

/// Named metric values in report order, plus the raw per-unit samples
/// behind them (kept in the result record, not in the result line).
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64)>,
    samples: Map,
}

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name.to_string(), value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Keep the samples a metric was computed from.
    pub fn samples(&mut self, name: &str, xs: &[f64]) {
        let xs = xs.iter().map(|&x| Value::F64(x)).collect();
        self.samples.insert(name.to_string(), Value::Array(xs));
    }
}

/// Pinned output digests (`pins.json`), keyed by output set (`phase_ab`
/// for the Phase A+B grading, `reproduce`), then by sampling seed in
/// hex, then by output name.
pub struct Pins(Value);

impl Pins {
    fn load() -> Pins {
        let text = include_str!("../pins.json");
        Pins(serde_json::from_str(text).expect("pins.json parses"))
    }

    /// The pinned digest of `output` for `workload` at `sample_seed`.
    pub fn get(&self, workload: &str, sample_seed: u64, output: &str) -> Option<String> {
        self.0[workload][format!("{sample_seed:#x}").as_str()][output]
            .as_str()
            .map(str::to_string)
    }
}

/// Host fingerprint recorded with every result.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    json!({
        "nproc": std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1),
        "cpu": cpu,
        "rustc": env("PERFBENCH_RUSTC"),
        "git_rev": env("PERFBENCH_GIT_REV"),
    })
}

fn parse_args() -> Result<(Args, bool), String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        server_bin: PathBuf::from(".bench_build/release/server"),
        out: PathBuf::from("perfbench/out"),
    };
    let mut pin = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => args.workload = val()?.clone(),
            "--seed" => args.seed = val()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => args.seconds = val()?.parse().map_err(|_| "--seconds needs a number")?,
            "--trace" => args.trace = val()? == "1",
            "--server-bin" => args.server_bin = PathBuf::from(val()?),
            "--out" => args.out = PathBuf::from(val()?),
            "--pin" => pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok((args, pin))
}

fn main() {
    let (args, pin) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload reproduce|jobserver --seed N --seconds S \
                 --trace 0|1 [--server-bin PATH] [--out DIR]\n       perfbench --pin"
            );
            std::process::exit(2);
        }
    };
    if pin {
        println!(
            "{}",
            serde_json::to_string_pretty(&pin_all()).expect("json")
        );
        return;
    }
    if args.workload == reproduce::PASS_WORKLOAD {
        reproduce::pass_main(&args);
        return;
    }

    let pins = Pins::load();
    let spans = Spans::new(args.trace);
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    let mut digests = Map::new();
    eprintln!(
        "perfbench: workload {} seed {} (sampling seed {:#x}) seconds {} trace {}",
        args.workload,
        args.seed,
        sample_seed(args.seed),
        args.seconds,
        args.trace as u8
    );
    match args.workload.as_str() {
        "reproduce" => reproduce::run(
            &args,
            &pins,
            &spans,
            &mut checks,
            &mut metrics,
            &mut digests,
        ),
        "jobserver" => jobserver::run(&args, &spans, &mut checks, &mut metrics, &mut digests),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (reproduce, jobserver)");
            std::process::exit(2);
        }
    }
    finish(&args, &spans, &checks, &metrics, digests);
}

/// Print every metric by name and unit, write the result record (and
/// the trace, when tracing), then the one-line JSON result.
fn finish(args: &Args, spans: &Spans, checks: &Checks, metrics: &Metrics, digests: Map) {
    let set: &[(&str, &str)] = if args.trace { PER_LAYER } else { &END_TO_END };
    let mut out = Map::new();
    for &(name, unit) in set {
        let value = metrics.get(name).unwrap_or(0.0);
        println!("{name:<28} {value:>16.6} {unit}");
        out.insert(name.into(), json!({ "value": value, "unit": unit }));
    }
    let correct = checks.failed == 0 && checks.attempted > 0;
    let result = json!({
        "correct": correct,
        "attempted": checks.attempted.max(1),
        "failed": checks.failed,
        "metrics": Value::Object(out),
    });
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    let record = json!({
        "workload": args.workload.clone(),
        "seed": args.seed,
        "sample_seed": sample_seed(args.seed),
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host(),
        "digests": Value::Object(digests),
        "samples": Value::Object(metrics.samples.clone()),
        "result": result.clone(),
    });
    let written = std::fs::create_dir_all(&args.out).and_then(|_| {
        std::fs::write(
            args.out.join(format!("{tag}.json")),
            serde_json::to_string_pretty(&record).expect("json"),
        )
    });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write the result record: {e}");
    }
    if spans.enabled() {
        let path = args.out.join(format!("{tag}.trace.json"));
        if let Err(e) = spans.write(&path, &format!("perfbench {}", args.workload)) {
            eprintln!("perfbench: cannot write the trace: {e}");
        }
    }
    println!("{}", serde_json::to_string(&result).expect("json"));
    if !correct {
        std::process::exit(1);
    }
}

/// Recompute every pinned digest: the Phase A+B grading and
/// `reproduce` at each pinned sampling seed. The output is the content
/// of `pins.json`.
fn pin_all() -> Value {
    let mut phase_ab_pins = Map::new();
    let mut repro_pins = Map::new();
    for s in pinned_sample_seeds() {
        eprintln!("perfbench: pinning sampling seed {s:#x}");
        phase_ab_pins.insert(format!("{s:#x}"), grade::pin(s));
        repro_pins.insert(format!("{s:#x}"), reproduce::pin(s));
    }
    json!({ "phase_ab": Value::Object(phase_ab_pins), "reproduce": Value::Object(repro_pins) })
}
