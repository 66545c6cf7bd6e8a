//! Golden pin of the Phase A+B campaign at a fixed fault sample and
//! seed: the exact per-component detected, total and untestable
//! weighted counts, a digest of the per-fault `Detection` vector, and
//! a digest of the forensics report's JSON.
//! Any semantic drift in fault simulation, collapsing, sampling or
//! forensics triage changes this file. After an intentional change,
//! regenerate with `BLESS=1 cargo test --test coverage_golden`.

use fault::campaign::Detection;
use fault::EngineConfig;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, FlowOptions};
use sbst::phases::Phase;
use serde_json::{json, Value};

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/coverage_phase_ab.json"
);
const GOLDEN: &str = include_str!("golden/coverage_phase_ab.json");

const SAMPLE: usize = 1500;
const SEED: u64 = 42;

/// FNV-1a over `bytes`, as 16 hex digits.
fn digest(bytes: impl IntoIterator<Item = u8>) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in bytes {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// Digest of each fault's detection cycle (`u64::MAX` for an escape).
fn detections_digest(detections: &[Detection]) -> String {
    digest(detections.iter().flat_map(|d| {
        match d {
            Detection::DetectedAt(c) => *c,
            Detection::Undetected => u64::MAX,
        }
        .to_le_bytes()
    }))
}

fn pin() -> Value {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(SAMPLE),
        seed: SEED,
        threads: 2,
        engine: EngineConfig::compiled(256),
        forensics: true,
        ..FlowOptions::default()
    };
    let run = flow::run_flow(&core, Phase::B, &opts);
    let forensics = run.forensics.as_ref().expect("forensics was requested");
    let components: Vec<Value> = forensics
        .components
        .iter()
        .map(|c| {
            json!({
                "name": c.name.clone(),
                "total": c.weighted,
                "detected": c.detected,
                "untestable": c.untestable,
            })
        })
        .collect();
    json!({
        "phase": "A+B",
        "sample": SAMPLE as u64,
        "seed": SEED,
        "classes": run.campaign.detections.len() as u64,
        "detected_classes": forensics.detected_classes as u64,
        "total": forensics.total_weighted,
        "detected": forensics.detected_weighted,
        "untestable": forensics.untestable_weighted,
        "detections_digest": detections_digest(&run.campaign.detections),
        "forensics_digest": digest(
            serde_json::to_string(&forensics.to_json()).expect("serialize").into_bytes()
        ),
        "components": components,
    })
}

#[test]
fn phase_ab_coverage_matches_golden_pin() {
    let mut body = serde_json::to_string_pretty(&pin()).expect("serialize");
    body.push('\n');
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(GOLDEN_PATH, &body).expect("bless golden coverage pin");
        return;
    }
    assert_eq!(
        body, GOLDEN,
        "Phase A+B coverage drifted from the golden pin (BLESS=1 to regenerate)"
    );
}
