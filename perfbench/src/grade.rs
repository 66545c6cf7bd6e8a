//! Phase A+B grading in process, as the `table5` experiment of the
//! `reproduce` workload runs it: the same sample, the compiled engine,
//! one thread. A traced `reproduce` run times its set-up layers and
//! profiles its `fault::wide` hot loop at each lane width here.

use std::hint::black_box;

use fault::campaign::{CampaignHooks, CampaignResult, Detection};
use fault::coverage::CoverageReport;
use fault::kernel::{self, CompiledKernel};
use fault::model::FaultList;
use fault::EngineConfig;
use obs::{ProfilePhase, Profiler};
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, FlowOptions};
use sbst::phases::{build_program, Phase};
use serde_json::{json, Map, Value};

use crate::measure::{self, Checks, Spans};
use crate::{Metrics, Pins};

pub const SAMPLE: usize = crate::reproduce::SAMPLE;
pub const LANES: usize = 256;
/// Extra cycles granted to faulty machines beyond the golden run.
pub const CYCLE_MARGIN: u64 = 64;
/// Set-ups per sweep; the set-up layer metrics are medians.
const SETUPS: usize = 15;
/// Lane widths the traced run profiles.
const SWEEP: [usize; 3] = [64, 256, 512];

/// Everything grading needs, built by [`set_up`].
pub struct Setup {
    core: PlasmaCore,
    program: mips::Program,
    faults: FaultList,
    budget: u64,
}

/// Wall time of each set-up layer, in seconds.
#[derive(Default, Clone, Copy)]
struct SetupTimes {
    core_build: f64,
    extract_collapse: f64,
    assemble: f64,
    golden: f64,
    lower: f64,
}

/// The flow options every grading in this benchmark runs under: each
/// knob pinned, none read from the environment.
pub fn flow_options(sample: usize, sample_seed: u64, lanes: usize) -> FlowOptions {
    FlowOptions {
        fault_sample: Some(sample),
        seed: sample_seed,
        cycle_margin: CYCLE_MARGIN,
        threads: 1,
        engine: EngineConfig::compiled(lanes),
        ..FlowOptions::default()
    }
}

pub fn segments(core: &PlasmaCore) -> Vec<Vec<u32>> {
    core.segments().iter().map(|s| s.to_vec()).collect()
}

/// Build the core, the sampled fault list, and the Phase A+B program,
/// measure its golden run, and lower the kernel: everything that must
/// happen before grading can start. The lowering bypasses the kernel
/// cache so that every set-up pays what a fresh process pays.
fn set_up(spans: &Spans, sample_seed: u64) -> (Setup, SetupTimes) {
    let mut t = SetupTimes::default();
    let (core, s) = spans.time("netlist.core_build", || {
        PlasmaCore::build(PlasmaConfig::default())
    });
    t.core_build = s;
    let opts = flow_options(SAMPLE, sample_seed, LANES);
    let (faults, s) = spans.time("fault.extract_collapse", || flow::fault_list(&core, &opts));
    t.extract_collapse = s;
    let (selftest, s) = spans.time("mips.assemble", || {
        build_program(Phase::B).expect("the Phase A+B program assembles")
    });
    t.assemble = s;
    let (golden, s) = spans.time("mips.golden", || flow::golden_cycles(&selftest));
    t.golden = s;
    let segs = segments(&core);
    let (_, s) = spans.time("kernel.lower", || {
        black_box(CompiledKernel::compile(core.netlist(), &segs));
    });
    t.lower = s;
    let setup = Setup {
        core,
        program: selftest.program,
        faults,
        budget: golden + CYCLE_MARGIN,
    };
    (setup, t)
}

/// Set up `SETUPS` times; report the medians and keep the last set-up.
fn set_up_repeated(spans: &Spans, sample_seed: u64, metrics: &mut Metrics) -> Setup {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        let (setup, t) = spans.time("setup", || set_up(spans, sample_seed)).0;
        times.push(t);
        last = Some(setup);
    }
    let med = |f: fn(&SetupTimes) -> f64| measure::median(&times.iter().map(f).collect::<Vec<_>>());
    metrics.set("netlist.core_build_ms", 1e3 * med(|t| t.core_build));
    metrics.set(
        "fault.extract_collapse_ms",
        1e3 * med(|t| t.extract_collapse),
    );
    metrics.set("mips.assemble_ms", 1e3 * med(|t| t.assemble));
    metrics.set("mips.golden_ms", 1e3 * med(|t| t.golden));
    metrics.set("kernel.lower_ms", 1e3 * med(|t| t.lower));
    last.expect("at least one set-up")
}

/// Grade the sampled faults once at `lanes` lanes on one thread.
fn grade(setup: &Setup, lanes: usize, hooks: &CampaignHooks) -> CampaignResult {
    flow::run_campaign_of_engine(
        &setup.core,
        &setup.program,
        &setup.faults,
        setup.budget,
        1,
        hooks,
        EngineConfig::compiled(lanes),
    )
}

/// The checked outputs of a grading: the detection vector and the
/// coverage report, as digests.
fn outputs(setup: &Setup, result: &CampaignResult) -> (String, String) {
    let dets: Vec<Value> = result
        .detections
        .iter()
        .map(|d| match d {
            Detection::Undetected => Value::I64(-1),
            Detection::DetectedAt(c) => Value::U64(*c),
        })
        .collect();
    let coverage = CoverageReport::from_campaign(setup.core.netlist(), result);
    let cov = json!({
        "overall_pct": coverage.overall_pct,
        "total_faults": coverage.total_faults,
        "total_detected": coverage.total_detected,
        "components": coverage.components.iter().map(|c| json!({
            "name": c.name.clone(), "total": c.total, "detected": c.detected,
        })).collect::<Vec<_>>(),
    });
    (
        measure::digest_json(&Value::Array(dets)),
        measure::digest_json(&cov),
    )
}

/// Compare a grading's outputs with the pinned digests.
fn check_outputs(
    pins: &Pins,
    sample_seed: u64,
    setup: &Setup,
    result: &CampaignResult,
    what: &str,
    checks: &mut Checks,
    digests: &mut Map,
) {
    let (dets, cov) = outputs(setup, result);
    let want_dets = pins.get("phase_ab", sample_seed, "detections");
    let want_cov = pins.get("phase_ab", sample_seed, "coverage");
    checks.check(
        want_dets.as_deref() == Some(dets.as_str()) && want_cov.as_deref() == Some(cov.as_str()),
        || format!("{what}: digests {dets}/{cov}, pinned {want_dets:?}/{want_cov:?}"),
    );
    digests.insert(format!("{sample_seed:#x}.detections"), Value::String(dets));
    digests.insert(format!("{sample_seed:#x}.coverage"), Value::String(cov));
}

/// The hot-loop sweep of a traced `reproduce` run: the set-up layers
/// (medians of `SETUPS` set-ups), then at each width of the sweep a
/// profiled grading for the per-phase times and an unprofiled one for
/// the throughput, and the campaign's work counts at `LANES`. Every
/// grading's outputs are checked: the detections are the same at every
/// width.
pub fn sweep(
    pins: &Pins,
    sample_seed: u64,
    spans: &Spans,
    checks: &mut Checks,
    metrics: &mut Metrics,
    digests: &mut Map,
) {
    let setup = set_up_repeated(spans, sample_seed, metrics);
    // Fill the kernel cache before timing: every grading after this
    // reuses the lowered kernel, as every batch of a campaign does.
    spans.time("kernel.compile_cached", || {
        kernel::compile_cached(setup.core.netlist(), &segments(&setup.core))
    });
    for lanes in SWEEP {
        let hooks = CampaignHooks {
            profiler: Profiler::new(),
            ..CampaignHooks::none()
        };
        let (profiled, _) = spans.time(&format!("grade.profiled.l{lanes}"), || {
            grade(&setup, lanes, &hooks)
        });
        let what = format!("profiled grading at {lanes} lanes");
        check_outputs(pins, sample_seed, &setup, &profiled, &what, checks, digests);
        let p = &profiled.stats.profile;
        let lane_cycles = (profiled.stats.cycles_simulated * lanes as u64).max(1) as f64;
        for phase in [
            ProfilePhase::EvalEarly,
            ProfilePhase::EvalLate,
            ProfilePhase::Overlay,
            ProfilePhase::Detect,
            ProfilePhase::Clock,
        ] {
            let name = format!("wide.l{lanes}.{}_ns", phase.name());
            metrics.set(&name, p.ns(phase) as f64 / lane_cycles);
        }
        let (plain, _) = spans.time(&format!("grade.l{lanes}"), || {
            grade(&setup, lanes, &CampaignHooks::none())
        });
        let what = format!("grading at {lanes} lanes");
        check_outputs(pins, sample_seed, &setup, &plain, &what, checks, digests);
        metrics.set(
            &format!("wide.l{lanes}.mlane_cyc_per_s"),
            plain.stats.mlane_cycles_per_sec(),
        );
        if lanes == LANES {
            campaign_counts(&profiled, metrics);
        }
    }
}

/// The campaign's deterministic work counts, and the share of simulated
/// lane-cycles spent on faults not yet detected.
fn campaign_counts(result: &CampaignResult, metrics: &mut Metrics) {
    let s = &result.stats;
    let lane_cycles = s.cycles_simulated * s.lanes;
    // Batches are contiguous chunks of `lanes - 1` faults (lane 0 is the
    // good machine); a batch runs to the budget unless every fault in it
    // is detected, and a fault detected at cycle c was live for c + 1.
    let budget = s.budget_cycles / s.batches.max(1);
    let live_for = |d: &Detection| match d {
        Detection::DetectedAt(c) => Some(c + 1),
        Detection::Undetected => None,
    };
    let mut live = 0u64;
    for batch in result.detections.chunks(s.lanes as usize - 1) {
        let cycles = match batch.iter().all(|d| d.is_detected()) {
            true => batch.iter().filter_map(live_for).max().unwrap_or(0),
            false => budget,
        };
        live += batch
            .iter()
            .map(|d| live_for(d).unwrap_or(cycles))
            .sum::<u64>();
    }
    metrics.set("campaign.batches", s.batches as f64);
    metrics.set("campaign.cycles", s.cycles_simulated as f64);
    metrics.set("campaign.lane_cycles", lane_cycles as f64);
    metrics.set(
        "campaign.live_lane_frac",
        live as f64 / lane_cycles.max(1) as f64,
    );
}

/// The pinned digests of the Phase A+B grading at one sampling seed.
pub fn pin(sample_seed: u64) -> Value {
    let spans = Spans::new(false);
    let (setup, _) = set_up(&spans, sample_seed);
    let result = grade(&setup, LANES, &CampaignHooks::none());
    let (dets, cov) = outputs(&setup, &result);
    json!({ "detections": dets, "coverage": cov })
}
