//! The campaign engine against the serial single-fault oracle
//! (`fault::serial`) on Plasma: the same per-fault `Detection` for a
//! sample of Phase A+B faults at two lane widths and two thread counts.
//! Parwan's whole collapsed fault list is checked against the oracle in
//! `parwan::sbst`'s own tests.

use fault::campaign::CampaignHooks;
use fault::EngineConfig;
use plasma::{PlasmaConfig, PlasmaCore};
use sbst::flow::{self, FlowOptions};
use sbst::phases::{build_program, Phase};

#[test]
fn plasma_phase_ab_campaign_equals_serial_oracle() {
    let core = PlasmaCore::build(PlasmaConfig::default());
    let opts = FlowOptions {
        fault_sample: Some(64),
        seed: 7,
        ..FlowOptions::default()
    };
    let faults = flow::fault_list(&core, &opts);
    assert!(faults.len() >= 48, "only {} sampled faults", faults.len());
    let selftest = build_program(Phase::B).expect("the Phase A+B program assembles");
    let budget = flow::golden_cycles(&selftest) + opts.cycle_margin;
    let oracle = plasma::testbench::serial_detections(
        &core,
        &selftest.program,
        flow::MEM_BYTES,
        budget,
        &faults.faults,
    );
    let detected = oracle.iter().filter(|d| d.is_detected()).count();
    assert!(detected > 0 && detected < oracle.len(), "{detected}/{}", oracle.len());
    for (lanes, threads) in [(64, 1), (256, 2)] {
        let result = flow::run_campaign_of_engine(
            &core,
            &selftest.program,
            &faults,
            budget,
            threads,
            &CampaignHooks::none(),
            EngineConfig::compiled(lanes),
        );
        assert_eq!(
            result.detections, oracle,
            "{lanes} lanes, {threads} threads vs the serial oracle"
        );
    }
}
