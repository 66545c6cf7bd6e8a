//! Serial single-fault simulation: the reference the bit-parallel
//! engine is checked against.
//!
//! This is the textbook algorithm. One fault at a time, a scalar
//! two-valued machine ([`netlist::sim::Simulator`]) runs with that one
//! fault forced: a net stem, a gate input pin, or a flip-flop D pin.
//! Each cycle its observed outputs are compared with those of the
//! fault-free machine; the first cycle they differ is the fault's
//! [`Detection`]. Nothing here packs lanes, lowers a kernel, keeps a
//! patch table or transposes a bus, so an agreement between this
//! module and [`crate::sim::ParallelSim`] is evidence about the
//! engine, not a restatement of it.
//!
//! It is slow (one gate walk per fault per cycle) and meant for tests
//! and cross-checks over sampled fault lists, such as
//! `tables --stats --verify-serial`.

use netlist::sim::Simulator;
use netlist::{Net, Netlist, PortDir, NO_NET};

use crate::campaign::Detection;
use crate::model::{Fault, FaultSite, Polarity};

/// A scalar machine carrying at most one stuck-at fault.
///
/// Evaluation follows an explicit segment decomposition, like the
/// engine's, so a CPU driver can evaluate the address logic, serve the
/// memory access, then evaluate the read-data cone.
pub struct SerialMachine<'a> {
    netlist: &'a Netlist,
    segments: &'a [Vec<u32>],
    sim: Simulator,
    fault: Option<Fault>,
    /// `(segment, index in segment)` of the gate a stem or pin fault
    /// sits on; `None` for D-pin faults and for stems no gate drives.
    gate_at: Option<(usize, usize)>,
}

impl<'a> SerialMachine<'a> {
    /// A machine in reset with `fault` (or none) forced. The
    /// concatenation of `segments` must hold every gate once, each
    /// segment in topological order.
    pub fn new(
        netlist: &'a Netlist,
        segments: &'a [Vec<u32>],
        fault: Option<Fault>,
    ) -> SerialMachine<'a> {
        let gate = fault.and_then(|f| match f.site {
            FaultSite::Stem(n) => netlist
                .gates()
                .iter()
                .position(|g| g.output == n)
                .map(|g| g as u32),
            FaultSite::Pin { gate, .. } => Some(gate),
            FaultSite::DffD(_) => None,
        });
        let gate_at = gate.map(|gate| {
            segments
                .iter()
                .enumerate()
                .find_map(|(s, seg)| seg.iter().position(|&g| g == gate).map(|k| (s, k)))
                .expect("every gate is in some segment")
        });
        let mut m = SerialMachine {
            netlist,
            segments,
            sim: Simulator::new(netlist),
            fault,
            gate_at,
        };
        m.force_stem();
        m
    }

    /// The value the fault forces.
    fn stuck(&self) -> bool {
        self.fault.is_some_and(|f| f.polarity == Polarity::StuckAt1)
    }

    /// Re-assert a stem fault after a write from outside the gate walk
    /// (port drive, clock edge, reset).
    fn force_stem(&mut self) {
        if let Some(Fault {
            site: FaultSite::Stem(n),
            ..
        }) = self.fault
        {
            let v = self.stuck();
            self.sim.set_net(n, v);
        }
    }

    /// Drive a named input port with an integer value.
    pub fn set_port(&mut self, port: &str, value: u64) {
        self.sim.set_input_word(self.netlist, port, value);
        self.force_stem();
    }

    /// Evaluate segment `s`. The faulty gate, if it is in this segment,
    /// is evaluated by hand between the two halves of the walk.
    pub fn eval_segment(&mut self, s: usize) {
        let order = &self.segments[s];
        match self.gate_at {
            Some((fs, k)) if fs == s => {
                self.sim.eval_segment(self.netlist, &order[..k]);
                self.eval_faulty_gate(order[k]);
                self.sim.eval_segment(self.netlist, &order[k + 1..]);
            }
            _ => self.sim.eval_segment(self.netlist, order),
        }
    }

    /// Evaluate every segment in order.
    pub fn eval_all(&mut self) {
        for s in 0..self.segments.len() {
            self.eval_segment(s);
        }
    }

    fn eval_faulty_gate(&mut self, gi: u32) {
        let g = &self.netlist.gates()[gi as usize];
        let mut v = [false; 3];
        for (p, &n) in g.inputs.iter().enumerate() {
            v[p] = n != NO_NET && self.sim.net(n);
        }
        let site = self.fault.expect("a faulty gate implies a fault").site;
        if let FaultSite::Pin { pin, .. } = site {
            v[pin as usize] = self.stuck();
        }
        let mut out = g.kind.eval(v[0], v[1], v[2]);
        if let FaultSite::Stem(_) = site {
            out = self.stuck();
        }
        self.sim.set_net(g.output, out);
    }

    /// Clock every flip-flop; a D-pin fault overrides what its
    /// flip-flop latches.
    pub fn clock(&mut self) {
        self.sim.clock(self.netlist);
        if let Some(Fault {
            site: FaultSite::DffD(ff),
            ..
        }) = self.fault
        {
            let q = self.netlist.dffs()[ff as usize].q;
            let v = self.stuck();
            self.sim.set_net(q, v);
        }
        self.force_stem();
    }

    /// Value of one net.
    pub fn net(&self, net: Net) -> bool {
        self.sim.net(net)
    }

    /// Value of a bus as an integer (LSB first, at most 64 nets).
    pub fn word(&self, nets: &[Net]) -> u64 {
        self.sim.word(nets)
    }

    /// Append the values of `nets` to `observed`.
    pub fn observe(&self, nets: &[Net], observed: &mut Vec<bool>) {
        observed.extend(nets.iter().map(|&n| self.sim.net(n)));
    }
}

/// Stimulus for one scalar machine, one clock cycle at a time. Each
/// machine gets its own instance, so a CPU driver's memory follows
/// that machine's own bus.
pub trait SerialBench {
    /// Execute one clock cycle on `m`, appending the observed output
    /// values to `observed` in a fixed order.
    fn step(&mut self, m: &mut SerialMachine<'_>, cycle: u64, observed: &mut Vec<bool>);

    /// Total number of cycles to run.
    fn cycles(&self) -> u64;
}

/// Grade every fault in `faults`, one at a time: run the fault-free
/// machine once for its observed trace, then each faulty machine until
/// its observations first differ or the budget runs out. `bench`
/// creates a fresh stimulus for each machine.
pub fn run<B: SerialBench>(
    netlist: &Netlist,
    segments: &[Vec<u32>],
    faults: &[Fault],
    bench: impl Fn() -> B,
) -> Vec<Detection> {
    let mut good = SerialMachine::new(netlist, segments, None);
    let mut tb = bench();
    let trace: Vec<Vec<bool>> = (0..tb.cycles())
        .map(|cycle| {
            let mut observed = Vec::new();
            tb.step(&mut good, cycle, &mut observed);
            observed
        })
        .collect();
    faults
        .iter()
        .map(|&f| {
            let mut m = SerialMachine::new(netlist, segments, Some(f));
            let mut tb = bench();
            let mut observed = Vec::new();
            for (cycle, want) in trace.iter().enumerate() {
                observed.clear();
                tb.step(&mut m, cycle as u64, &mut observed);
                if observed != *want {
                    return Detection::DetectedAt(cycle as u64);
                }
            }
            Detection::Undetected
        })
        .collect()
}

/// Fixed input vectors applied each cycle, every primary output
/// observed: the serial counterpart of [`crate::campaign::VectorBench`].
pub struct SerialVectors<'a> {
    vectors: &'a [Vec<(&'a str, u64)>],
    outputs: Vec<Net>,
}

impl<'a> SerialVectors<'a> {
    /// A bench over all output ports of `netlist`.
    pub fn new(netlist: &'a Netlist, vectors: &'a [Vec<(&'a str, u64)>]) -> Self {
        let outputs = netlist
            .ports()
            .filter(|(_, d, _)| matches!(d, PortDir::Output))
            .flat_map(|(_, _, nets)| nets.iter().copied())
            .collect();
        SerialVectors {
            vectors,
            outputs,
        }
    }
}

impl SerialBench for SerialVectors<'_> {
    fn step(&mut self, m: &mut SerialMachine<'_>, cycle: u64, observed: &mut Vec<bool>) {
        for &(port, value) in &self.vectors[cycle as usize] {
            m.set_port(port, value);
        }
        m.eval_all();
        m.observe(&self.outputs, observed);
        m.clock();
    }

    fn cycles(&self) -> u64 {
        self.vectors.len() as u64
    }
}

/// Grade `faults` under `vectors` serially: the oracle for
/// [`crate::campaign::run_vectors`].
pub fn run_vectors(
    netlist: &Netlist,
    faults: &[Fault],
    vectors: &[Vec<(&str, u64)>],
) -> Vec<Detection> {
    let segments = [netlist.topo_order().to_vec()];
    run(netlist, &segments, faults, || SerialVectors::new(netlist, vectors))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use netlist::{GateKind, NetlistBuilder};

    fn fault(site: FaultSite, polarity: Polarity) -> Fault {
        Fault { site, polarity }
    }

    #[test]
    fn pin_fault_affects_only_its_branch() {
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a");
        let one = b.one();
        let y1 = b.and2(a, one);
        let y2 = b.and2(a, one);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish().unwrap();
        let g1 = nl.gates().iter().position(|g| g.kind == GateKind::And2).unwrap() as u32;
        let segs = [nl.topo_order().to_vec()];
        let f = fault(FaultSite::Pin { gate: g1, pin: 0 }, Polarity::StuckAt0);
        let mut m = SerialMachine::new(&nl, &segs, Some(f));
        m.set_port("a", 1);
        m.eval_all();
        assert!(!m.net(nl.port("y1")[0]), "faulty branch");
        assert!(m.net(nl.port("y2")[0]), "healthy branch");
    }

    #[test]
    fn stem_and_dff_faults_stick() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let q = b.dff(a, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let segs = [nl.topo_order().to_vec()];
        for f in [
            fault(FaultSite::DffD(0), Polarity::StuckAt1),
            fault(FaultSite::Stem(q), Polarity::StuckAt1),
        ] {
            let mut m = SerialMachine::new(&nl, &segs, Some(f));
            m.set_port("a", 0);
            m.eval_all();
            m.clock();
            assert!(m.net(q), "{f:?}");
        }
        // A stem fault on the input port survives every port drive.
        let f = fault(FaultSite::Stem(a), Polarity::StuckAt0);
        let mut m = SerialMachine::new(&nl, &segs, Some(f));
        m.set_port("a", 1);
        assert!(!m.net(a));
    }

    #[test]
    fn exhaustive_vectors_detect_every_adder_fault() {
        let mut b = NetlistBuilder::new("add2");
        let a = b.inputs("a", 2);
        let c = b.inputs("b", 2);
        let cin = b.input("cin");
        let r = netlist::synth::add_ripple(&mut b, &a, &c, cin);
        b.outputs("sum", &r.sum);
        b.output("cout", r.carry_out);
        let nl = b.finish().unwrap();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let vectors: Vec<Vec<(&str, u64)>> = (0..32u64)
            .map(|v| vec![("a", v & 3), ("b", (v >> 2) & 3), ("cin", v >> 4)])
            .collect();
        let dets = run_vectors(&nl, &faults.faults, &vectors);
        let detected = dets.iter().filter(|d| d.is_detected()).count();
        assert!(detected * 10 > dets.len() * 9, "{detected}/{}", dets.len());
    }
}
