//! The bit-parallel engine against the serial single-fault oracle on
//! random structural netlists: the same per-fault `Detection` vector at
//! every lane width (64/128/256/512) and thread count (1/4), and the
//! same per-lane observation reads (`lane_word`, `diff_vs_lane0`) the
//! testbenches are built on.

use std::sync::Arc;

use proptest::prelude::*;

use fault::campaign::{self, CampaignHooks, VectorBench};
use fault::model::FaultList;
use fault::serial::{self, SerialMachine};
use fault::sim::ParallelSim;

mod common;
use common::random_netlist;

/// Deterministic per-cycle stimulus on the two input ports.
fn random_vectors(seed: u64, cycles: usize) -> Vec<Vec<(&'static str, u64)>> {
    let mut s = seed | 1;
    (0..cycles)
        .map(|_| {
            s ^= s >> 13;
            s ^= s << 7;
            s ^= s >> 17;
            vec![("a", s & 0x1FF), ("b", (s >> 9) & 0x1FF)]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Every width/thread-count combination produces the serial
    /// oracle's exact per-fault `Detection` vector.
    #[test]
    fn detections_match_serial_oracle_across_widths_and_threads(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors = random_vectors(seed ^ 0xA5A5_5A5A, 24);
        let oracle = serial::run_vectors(&nl, &faults.faults, &vectors);
        let segments = vec![nl.topo_order().to_vec()];
        let kernel = fault::kernel::compile_cached(&nl, &segments);
        for lane_words in [1usize, 2, 4, 8] {
            let proto = ParallelSim::from_kernel(Arc::clone(&kernel), lane_words);
            for threads in [1usize, 4] {
                let result = campaign::run_parallel(
                    &proto,
                    &faults,
                    &|| VectorBench::new(&nl, &vectors),
                    threads,
                    &CampaignHooks::none(),
                );
                prop_assert_eq!(&result.detections, &oracle,
                    "{} lanes, {} threads", 64 * lane_words, threads);
                prop_assert_eq!(result.stats.lanes, 64 * lane_words as u64);
            }
        }
    }

    /// Every lane reads exactly like a serial machine carrying that
    /// lane's fault: `lane_word` on the outputs, and `diff_vs_lane0`
    /// flags exactly the lanes whose machine differs from the
    /// fault-free one. The last lane of the last word is always used.
    #[test]
    fn lane_reads_match_serial_oracle(seed in any::<u64>()) {
        let nl = random_netlist(seed);
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let outs: Vec<netlist::Net> = nl.port("out").to_vec();
        let segments = vec![nl.topo_order().to_vec()];
        let kernel = fault::kernel::compile_cached(&nl, &segments);
        for lane_words in [1usize, 2, 8] {
            let mut sim = ParallelSim::from_kernel(Arc::clone(&kernel), lane_words);
            let top = sim.lanes() - 1;
            let lanes: Vec<usize> = (1..top).step_by(5).chain([top]).collect();
            let mut machines = vec![(0usize, SerialMachine::new(&nl, &segments, None))];
            for (k, &lane) in lanes.iter().enumerate() {
                let f = faults.faults[k % faults.len()];
                sim.inject(f, lane);
                machines.push((lane, SerialMachine::new(&nl, &segments, Some(f))));
            }
            sim.reset_state();
            let mut s = seed | 5;
            let mut diff = vec![0u64; lane_words];
            for cycle in 0..20 {
                s ^= s << 9;
                s ^= s >> 11;
                let (av, bv) = (s & 0x1FF, (s >> 16) & 0x1FF);
                sim.set_port(&nl, "a", av);
                sim.set_port(&nl, "b", bv);
                sim.eval_all();
                diff.iter_mut().for_each(|w| *w = 0);
                sim.diff_vs_lane0(&outs, &mut diff);
                let mut words = Vec::new();
                for (lane, m) in &mut machines {
                    m.set_port("a", av);
                    m.set_port("b", bv);
                    m.eval_all();
                    let got = m.word(&outs);
                    prop_assert_eq!(sim.lane_word(&outs, *lane), got,
                        "lane {} cycle {}", lane, cycle);
                    words.push((*lane, got));
                    m.clock();
                }
                let mut want = vec![0u64; lane_words];
                for &(lane, got) in &words {
                    if got != words[0].1 {
                        want[lane >> 6] |= 1u64 << (lane & 63);
                    }
                }
                prop_assert_eq!(&diff, &want, "cycle {}", cycle);
                sim.clock();
            }
        }
    }
}
