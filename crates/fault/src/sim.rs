//! The bit-parallel fault simulator: evaluation of a [`CompiledKernel`]
//! over lane *blocks* of W×u64 (W = 1, 2, 4 or 8, i.e. 64–512
//! independent faulty machines per pass).
//!
//! Every net holds W words; bit *L* of the block is the value of the
//! net in machine (lane) *L*. All lanes share the netlist, but each can
//! carry its own injected faults, so one sweep over the gates simulates
//! 64×W processors at once — the classic parallel-fault technique.
//! Lane 0 (bit 0 of word 0) is by convention the fault-free reference
//! machine; a fault's detection depends only on its own lane versus
//! lane 0 under shared stimulus, so per-fault results are the same at
//! every width (checked against [`crate::serial`] by tests).
//!
//! Faults live in sorted *patch side tables*, not in the hot loop:
//!
//! * a gate-pin fault patches that gate's compiled position;
//! * a stem fault on a gate-driven net patches the driving gate's
//!   output (slot 3 of the same entry);
//! * a stem fault on a flip-flop Q net folds into the clock transfer;
//! * a D-pin fault patches the flip-flop's latch at the clock edge.
//!
//! The hot loop therefore stores bare values and evaluates the long
//! unpatched runs between patched positions branch-free. Per-net
//! `set1`/`keep0` masks remain the source of truth for cold-path stores
//! (ports, reset) and for [`ParallelSim::reset_state`] seeding, and
//! injection records which nets carry them, so
//! [`ParallelSim::clear_faults`] resets only what the previous batch
//! touched.
//!
//! Evaluation is split into *segments* (topologically ordered gate
//! groups) so a CPU testbench can evaluate the logic that produces the
//! memory address first, serve per-lane read data from its memory
//! model, then evaluate the read-data cone — all within one cycle.

use std::sync::Arc;

use netlist::{Net, Netlist};

use crate::kernel::{compile_cached, CompiledKernel};
use crate::model::{Fault, FaultSite, Polarity};

/// Maximum supported lane words per net (512 lanes).
pub const MAX_LANE_WORDS: usize = 8;

/// Geometry of a compiled simulator — the per-cycle work a campaign
/// sweeps: every gate is evaluated for every lane on each simulated
/// cycle. Reported by [`ParallelSim::stats`] and recorded in campaign
/// trace headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimStats {
    /// Nets in the compiled model (excluding the dummy slot).
    pub nets: usize,
    /// Compiled gates.
    pub gates: usize,
    /// Flip-flops.
    pub dffs: usize,
    /// Evaluation segments.
    pub segments: usize,
}

/// Patch for one gate: per-pin stuck-at masks for the three input pins
/// plus (slot 3) the output stem masks, over `4 * W` words (stride =
/// the sim's lane words).
#[derive(Debug, Clone, Copy)]
struct PinPatch {
    set1: [u64; 4 * MAX_LANE_WORDS],
    keep0: [u64; 4 * MAX_LANE_WORDS],
}

impl PinPatch {
    fn identity() -> Self {
        PinPatch {
            set1: [0; 4 * MAX_LANE_WORDS],
            keep0: [!0; 4 * MAX_LANE_WORDS],
        }
    }
}

/// D-pin (or Q-stem) patch for one flip-flop: stuck-at masks over `W`
/// words.
#[derive(Debug, Clone, Copy)]
struct DffPatch {
    set1: [u64; MAX_LANE_WORDS],
    keep0: [u64; MAX_LANE_WORDS],
}

impl DffPatch {
    fn identity() -> Self {
        DffPatch {
            set1: [0; MAX_LANE_WORDS],
            keep0: [!0; MAX_LANE_WORDS],
        }
    }
}

/// The bit-parallel simulator: mutable lane state over a shared,
/// immutable [`CompiledKernel`]. Cloning clones the state and shares
/// the kernel (`Arc`), which is how parallel campaign workers get
/// per-worker state with kernel affinity.
#[derive(Debug, Clone)]
pub struct ParallelSim {
    kernel: Arc<CompiledKernel>,
    /// Lane words per net (1, 2, 4 or 8).
    w: usize,
    /// Per-net lane values, `n_slots * w`, net-major (slot i occupies
    /// `[i*w, i*w + w)`); the trailing dummy slot stays all-zero.
    vals: Vec<u64>,
    /// Per-net stem masks — read only on cold-path stores (ports,
    /// reset) and by [`Self::reset_state`]; the evaluation and clock
    /// hot loops get their stem masks from the patch tables below.
    set1: Vec<u64>,
    keep0: Vec<u64>,
    pin_patches: Vec<(u32, PinPatch)>,
    dff_patches: Vec<(u32, DffPatch)>,
    /// Stem masks on flip-flop Q nets, folded into the clock transfer
    /// (sorted by flip-flop index).
    q_stem_patches: Vec<(u32, DffPatch)>,
    touched_nets: Vec<u32>,
    next: Vec<u64>,
}

impl ParallelSim {
    /// A 64-lane simulator evaluating the whole netlist as one segment.
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_segments(netlist, &[netlist.topo_order().to_vec()])
    }

    /// A 64-lane simulator with an explicit segment decomposition. The
    /// concatenation of `segments` must contain every gate exactly once,
    /// each segment in valid topological order (e.g. the two halves of
    /// [`Netlist::split_on_inputs`]). The kernel comes from
    /// [`compile_cached`].
    pub fn with_segments(netlist: &Netlist, segments: &[Vec<u32>]) -> Self {
        Self::from_kernel(compile_cached(netlist, segments), 1)
    }

    /// A simulator over `kernel` with `lane_words` u64 words per net
    /// (64 × `lane_words` lanes).
    ///
    /// # Panics
    ///
    /// Panics unless `lane_words` is 1, 2, 4 or 8.
    pub fn from_kernel(kernel: Arc<CompiledKernel>, lane_words: usize) -> ParallelSim {
        assert!(
            matches!(lane_words, 1 | 2 | 4 | 8),
            "lane_words must be 1, 2, 4 or 8 (got {lane_words})"
        );
        let n = kernel.n_slots * lane_words;
        let ndff = kernel.dff_d.len();
        ParallelSim {
            w: lane_words,
            vals: vec![0; n],
            set1: vec![0; n],
            keep0: vec![!0; n],
            pin_patches: Vec::new(),
            dff_patches: Vec::new(),
            q_stem_patches: Vec::new(),
            touched_nets: Vec::new(),
            next: vec![0; ndff * lane_words],
            kernel,
        }
    }

    /// Lane words per net.
    #[inline]
    pub fn lane_words(&self) -> usize {
        self.w
    }

    /// Total lanes (64 × lane words).
    #[inline]
    pub fn lanes(&self) -> usize {
        64 * self.w
    }

    /// Compiled-model geometry.
    pub fn stats(&self) -> SimStats {
        self.kernel.stats()
    }

    /// The value slot of `net` (the kernel's cache-conscious
    /// renumbering — see [`CompiledKernel::slot_of_net`]).
    #[inline]
    fn slot(&self, net: Net) -> usize {
        self.kernel.slot_of_net[net.index()] as usize
    }

    /// Store `v` (length `w`) into `slot` through the stem masks.
    #[inline]
    fn store_slot(&mut self, slot: usize, v: &[u64]) {
        let base = slot * self.w;
        for t in 0..self.w {
            self.vals[base + t] = (v[t] | self.set1[base + t]) & self.keep0[base + t];
        }
    }

    /// Remove all injected faults. Only the nets the previous batch
    /// touched are reset, so this is O(faults), not O(nets).
    pub fn clear_faults(&mut self) {
        let w = self.w;
        for &n in &self.touched_nets {
            let base = n as usize * w;
            for t in 0..w {
                self.set1[base + t] = 0;
                self.keep0[base + t] = !0;
            }
        }
        self.touched_nets.clear();
        self.pin_patches.clear();
        self.dff_patches.clear();
        self.q_stem_patches.clear();
    }

    /// The (possibly fresh) patch entry at compiled position `pos`.
    fn pin_patch_at(&mut self, pos: u32) -> &mut PinPatch {
        let k = match self.pin_patches.binary_search_by_key(&pos, |e| e.0) {
            Ok(k) => k,
            Err(k) => {
                self.pin_patches.insert(k, (pos, PinPatch::identity()));
                k
            }
        };
        &mut self.pin_patches[k].1
    }

    /// The (possibly fresh) entry for flip-flop `ff` in `table`.
    fn dff_patch_at(table: &mut Vec<(u32, DffPatch)>, ff: u32) -> &mut DffPatch {
        let k = match table.binary_search_by_key(&ff, |e| e.0) {
            Ok(k) => k,
            Err(k) => {
                table.insert(k, (ff, DffPatch::identity()));
                k
            }
        };
        &mut table[k].1
    }

    /// Inject `fault` into lane `lane` (0 .. 64×W). Injecting into
    /// lane 0 is allowed but forfeits the fault-free reference.
    pub fn inject(&mut self, fault: Fault, lane: usize) {
        assert!(lane < self.lanes(), "lane out of range");
        let t = lane >> 6;
        let bit = 1u64 << (lane & 63);
        let w = self.w;
        let (set1, keep0) = match fault.polarity {
            Polarity::StuckAt1 => (bit, !0),
            Polarity::StuckAt0 => (0, !bit),
        };
        match fault.site {
            FaultSite::Stem(n) => {
                let i = self.slot(n);
                if !self.touched_nets.contains(&(i as u32)) {
                    self.touched_nets.push(i as u32);
                }
                let k = i * w + t;
                self.set1[k] |= set1;
                self.keep0[k] &= keep0;
                // Route the mask to wherever this net is stored from:
                // the driving gate's patch entry (applied after its
                // evaluation), the flip-flop's clock transfer, or —
                // for ports — the per-net arrays alone, which
                // `store_slot` and `reset_state` consult.
                let driver = self.kernel.driver_pos[i];
                let dff = self.kernel.dff_of_q[i];
                if driver != u32::MAX {
                    let p = self.pin_patch_at(driver);
                    p.set1[3 * w + t] |= set1;
                    p.keep0[3 * w + t] &= keep0;
                } else if dff != u32::MAX {
                    let p = Self::dff_patch_at(&mut self.q_stem_patches, dff);
                    p.set1[t] |= set1;
                    p.keep0[t] &= keep0;
                }
                // Stems are applied on store; make the current value
                // consistent immediately.
                self.vals[k] = (self.vals[k] | self.set1[k]) & self.keep0[k];
            }
            FaultSite::Pin { gate, pin } => {
                let pos = self.kernel.pos_of_gate[gate as usize];
                let p = self.pin_patch_at(pos);
                p.set1[pin as usize * w + t] |= set1;
                p.keep0[pin as usize * w + t] &= keep0;
            }
            FaultSite::DffD(ff) => {
                // Fault sites carry netlist flip-flop indices; the
                // kernel reorders flip-flops for sequential D gathers.
                let ff = self.kernel.kdff_of_dff[ff as usize];
                let p = Self::dff_patch_at(&mut self.dff_patches, ff);
                p.set1[t] |= set1;
                p.keep0[t] &= keep0;
            }
        }
    }

    /// Apply reset values to every flip-flop output (external
    /// synchronous reset, all lanes).
    pub fn reset(&mut self) {
        let mut rv = [0u64; MAX_LANE_WORDS];
        for i in 0..self.kernel.dff_q.len() {
            let q = self.kernel.dff_q[i] as usize;
            rv[..self.w].fill(self.kernel.dff_reset[i]);
            self.store_slot(q, &rv[..self.w]);
        }
    }

    /// Zero every net (through the injected stem masks), then apply
    /// flip-flop resets. Afterwards the state depends only on the
    /// injected faults — never on what a previous batch left behind —
    /// which is what makes campaign batches order-independent and the
    /// parallel runner bit-identical to the serial one.
    pub fn reset_state(&mut self) {
        self.vals.fill(0);
        let w = self.w;
        for &n in &self.touched_nets {
            let base = n as usize * w;
            for t in 0..w {
                self.vals[base + t] = self.set1[base + t] & self.keep0[base + t];
            }
        }
        self.reset();
    }

    /// Drive a named input port with the same integer value on all
    /// lanes.
    pub fn set_port(&mut self, netlist: &Netlist, port: &str, value: u64) {
        let mut word = [0u64; MAX_LANE_WORDS];
        for (i, &net) in netlist.port(port).iter().enumerate() {
            let m = 0u64.wrapping_sub((value >> i) & 1);
            word[..self.w].fill(m);
            let s = self.slot(net);
            self.store_slot(s, &word[..self.w]);
        }
    }

    /// Drive a named input port with per-bit lane blocks: entry
    /// `i * lane_words + t` holds word `t` of bit `i` (the layout
    /// [`transpose_lanes`] produces).
    pub fn set_port_bits(&mut self, netlist: &Netlist, port: &str, bits: &[u64]) {
        let nets = netlist.port(port);
        let w = self.w;
        assert_eq!(nets.len() * w, bits.len(), "port width mismatch");
        for (i, &net) in nets.iter().enumerate() {
            let s = self.slot(net);
            self.store_slot(s, &bits[i * w..(i + 1) * w]);
        }
    }

    /// Evaluate one segment through the compiled kernel. Segment
    /// indices follow the construction order.
    pub fn eval_segment(&mut self, segment: usize) {
        let kernel = Arc::clone(&self.kernel);
        let (s, e) = kernel.segments[segment];
        match self.w {
            1 => self.eval_span::<1>(&kernel, s, e),
            2 => self.eval_span::<2>(&kernel, s, e),
            4 => self.eval_span::<4>(&kernel, s, e),
            8 => self.eval_span::<8>(&kernel, s, e),
            _ => unreachable!("lane_words validated at construction"),
        }
    }

    /// Evaluate all segments in order.
    pub fn eval_all(&mut self) {
        for s in 0..self.kernel.num_segments() {
            self.eval_segment(s);
        }
    }

    /// Evaluate `[start, end)` as unpatched runs split around pin
    /// patches (the side table is sorted by compiled position).
    fn eval_span<const W: usize>(&mut self, k: &CompiledKernel, start: usize, end: usize) {
        let lo = self.pin_patches.partition_point(|e| (e.0 as usize) < start);
        let hi = self.pin_patches.partition_point(|e| (e.0 as usize) < end);
        let mut cur = start;
        for pi in lo..hi {
            let pos = self.pin_patches[pi].0 as usize;
            self.eval_run::<W>(k, cur, pos);
            self.eval_patched::<W>(k, pi);
            cur = pos + 1;
        }
        self.eval_run::<W>(k, cur, end);
    }

    /// The hot loop: a straight-line run of compiled instructions with
    /// no patches — bare loads, opcode, bare store. Monomorphized per
    /// lane width so the per-word loops unroll; operand blocks are
    /// copied through fixed-size arrays so each block costs one bounds
    /// check instead of one per word.
    #[inline]
    fn eval_run<const W: usize>(&mut self, k: &CompiledKernel, start: usize, end: usize) {
        let kinds = &k.kinds[start..end];
        let in0 = &k.in0[start..end];
        let in1 = &k.in1[start..end];
        let in2 = &k.in2[start..end];
        let outs = &k.outs[start..end];
        let it = kinds
            .iter()
            .zip(in0)
            .zip(in1)
            .zip(in2)
            .zip(outs);
        for ((((&kind, &i0), &i1), &i2), &o) in it {
            let ia = i0 as usize * W;
            let ib = i1 as usize * W;
            let ic = i2 as usize * W;
            let ob = o as usize * W;
            let va: [u64; W] = self.vals[ia..ia + W].try_into().expect("stride");
            let vb: [u64; W] = self.vals[ib..ib + W].try_into().expect("stride");
            let vc: [u64; W] = self.vals[ic..ic + W].try_into().expect("stride");
            let out: &mut [u64; W] =
                (&mut self.vals[ob..ob + W]).try_into().expect("stride");
            for t in 0..W {
                out[t] = kind.eval_u64(va[t], vb[t], vc[t]);
            }
        }
    }

    /// Evaluate one gate with its pins patched: stuck-at masks on the
    /// three inputs (slots 0–2) and on the output stem (slot 3).
    fn eval_patched<const W: usize>(&mut self, k: &CompiledKernel, pi: usize) {
        let (pos, p) = self.pin_patches[pi];
        let i = pos as usize;
        let ia = k.in0[i] as usize * W;
        let ib = k.in1[i] as usize * W;
        let ic = k.in2[i] as usize * W;
        let kind = k.kinds[i];
        let ob = k.outs[i] as usize * W;
        for t in 0..W {
            let a = (self.vals[ia + t] | p.set1[t]) & p.keep0[t];
            let b = (self.vals[ib + t] | p.set1[W + t]) & p.keep0[W + t];
            let c = (self.vals[ic + t] | p.set1[2 * W + t]) & p.keep0[2 * W + t];
            let v = kind.eval_u64(a, b, c);
            self.vals[ob + t] = (v | p.set1[3 * W + t]) & p.keep0[3 * W + t];
        }
    }

    /// Clock every flip-flop (`q <= d`), honouring D-pin patches and Q
    /// stem injection.
    pub fn clock(&mut self) {
        let w = self.w;
        let kernel = Arc::clone(&self.kernel);
        for i in 0..kernel.dff_d.len() {
            let d = kernel.dff_d[i] as usize * w;
            self.next[i * w..(i + 1) * w].copy_from_slice(&self.vals[d..d + w]);
        }
        // Q stem masks fold into `next` after the D patches, matching
        // store order, so the transfer below needs no per-net mask
        // reads.
        for &(ff, p) in self.dff_patches.iter().chain(&self.q_stem_patches) {
            let base = ff as usize * w;
            for t in 0..w {
                let v = &mut self.next[base + t];
                *v = (*v | p.set1[t]) & p.keep0[t];
            }
        }
        for i in 0..kernel.dff_q.len() {
            let q = kernel.dff_q[i] as usize * w;
            self.vals[q..q + w].copy_from_slice(&self.next[i * w..(i + 1) * w]);
        }
    }

    /// Raw lane word `word` of a single net.
    #[inline]
    pub fn net_lanes_word(&self, net: Net, word: usize) -> u64 {
        self.vals[self.slot(net) * self.w + word]
    }

    /// Gather the value of a bus in one (global) lane as an integer
    /// (LSB first).
    pub fn lane_word(&self, nets: &[Net], lane: usize) -> u64 {
        let t = lane >> 6;
        let b = lane & 63;
        let mut v = 0u64;
        for (i, &n) in nets.iter().enumerate() {
            v |= ((self.vals[self.slot(n) * self.w + t] >> b) & 1) << i;
        }
        v
    }

    /// OR into `acc` (length `lane_words`) the lanes whose value on any
    /// of `nets` differs from lane 0 (bit 0 of word 0).
    pub fn diff_vs_lane0(&self, nets: &[Net], acc: &mut [u64]) {
        let w = self.w;
        debug_assert_eq!(acc.len(), w);
        for &n in nets {
            let base = self.slot(n) * w;
            let r = 0u64.wrapping_sub(self.vals[base] & 1);
            for (t, a) in acc.iter_mut().enumerate() {
                *a |= self.vals[base + t] ^ r;
            }
        }
    }

    /// Lane word of a named port in one lane, as an integer.
    pub fn port_lane_word(&self, netlist: &Netlist, port: &str, lane: usize) -> u64 {
        self.lane_word(netlist.port(port), lane)
    }

    /// Gather a whole lane word of a bus at once: `out[b]` becomes the
    /// bus value (LSB-first) in lane `64 * word + b`. One slot load per
    /// net plus a 64×64 bit-matrix transpose — O(64 log 64) word ops —
    /// instead of the `nets.len() × 64` single-bit probes that calling
    /// [`Self::lane_word`] per lane would cost. This is the read path
    /// memory-overlay testbenches are built on.
    pub fn lane_block(&self, nets: &[Net], word: usize, out: &mut [u64; 64]) {
        assert!(nets.len() <= 64, "bus wider than 64 bits");
        out.fill(0);
        for (i, &n) in nets.iter().enumerate() {
            out[i] = self.vals[self.slot(n) * self.w + word];
        }
        transpose64(out);
    }
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight butterfly,
/// LSB-first orientation): afterwards bit `c` of row `r` is what bit
/// `r` of row `c` was.
pub fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = ((a[k] >> j) ^ a[k | j]) & m;
            a[k] ^= t << j;
            a[k | j] ^= t;
            k = ((k | j) + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Transpose per-lane integer values into per-bit lane blocks:
/// `out[i * lane_words + t]` bit *L* = bit *i* of
/// `values[t * 64 + L]`. `values.len()` must be `64 * lane_words`.
pub fn transpose_lanes(values: &[u64], width: usize, lane_words: usize, out: &mut Vec<u64>) {
    assert_eq!(values.len(), 64 * lane_words);
    out.clear();
    out.resize(width * lane_words, 0);
    let mask = if width >= 64 { !0 } else { (1u64 << width) - 1 };
    let mut m = [0u64; 64];
    for t in 0..lane_words {
        for lane in 0..64 {
            m[lane] = values[t * 64 + lane] & mask;
        }
        transpose64(&mut m);
        for i in 0..width {
            out[i * lane_words + t] = m[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FaultList;
    use crate::serial::SerialMachine;
    use netlist::{GateKind, NetlistBuilder};

    fn sample_netlist() -> Netlist {
        let mut b = NetlistBuilder::new("s");
        let a = b.inputs("a", 8);
        let c = b.inputs("b", 8);
        let x = b.xor_word(&a, &c);
        let y = b.and_word(&x, &a);
        let q = b.dff_word(&y, 0);
        let z = b.or_word(&q, &c);
        b.outputs("z", &z);
        b.finish().unwrap()
    }

    fn sim(nl: &Netlist, lane_words: usize) -> ParallelSim {
        ParallelSim::from_kernel(compile_cached(nl, &[nl.topo_order().to_vec()]), lane_words)
    }

    /// Every lane reads exactly like a serial machine carrying that
    /// lane's fault, at every width; lane 0 like the fault-free one.
    #[test]
    fn lanes_match_serial_machines_across_widths() {
        let nl = sample_netlist();
        let segs = [nl.topo_order().to_vec()];
        let faults = FaultList::extract(&nl).collapsed(&nl);
        for lane_words in [1usize, 2, 4, 8] {
            let mut ps = sim(&nl, lane_words);
            // Spread faults over every word, including the top lane.
            let top = ps.lanes() - 1;
            let lanes: Vec<usize> = (1..top).step_by(7).chain([top]).collect();
            let mut machines = vec![SerialMachine::new(&nl, &segs, None)];
            for (k, &lane) in lanes.iter().enumerate() {
                let f = faults.faults[k % faults.len()];
                ps.inject(f, lane);
                machines.push(SerialMachine::new(&nl, &segs, Some(f)));
            }
            ps.reset_state();
            let z = nl.port("z");
            let mut st = 0x9E37_79B9_7F4A_7C15u64;
            for cycle in 0..40 {
                st = st.wrapping_mul(6364136223846793005).wrapping_add(1);
                let (av, bv) = ((st >> 16) & 0xFF, (st >> 32) & 0xFF);
                ps.set_port(&nl, "a", av);
                ps.set_port(&nl, "b", bv);
                ps.eval_all();
                for (m, lane) in machines.iter_mut().zip([0].iter().chain(&lanes)) {
                    m.set_port("a", av);
                    m.set_port("b", bv);
                    m.eval_all();
                    assert_eq!(ps.lane_word(z, *lane), m.word(z), "lane {lane} @{cycle}");
                    m.clock();
                }
                ps.clock();
            }
        }
    }

    #[test]
    fn injected_fault_only_affects_its_lane() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        let mut ps = ParallelSim::new(&nl);
        for (lane, i) in (1..8).zip((0..faults.len()).step_by(7)) {
            ps.inject(faults.faults[i], lane);
        }
        ps.reset();
        let mut divergence_seen = [0u64];
        let mut st = 7u64;
        for _ in 0..100 {
            st = st.wrapping_mul(6364136223846793005).wrapping_add(13);
            ps.set_port(&nl, "a", (st >> 8) & 0xFF);
            ps.set_port(&nl, "b", (st >> 24) & 0xFF);
            ps.eval_all();
            ps.diff_vs_lane0(nl.port("z"), &mut divergence_seen);
            ps.clock();
        }
        // Only the lanes with injected faults may diverge.
        assert_eq!(divergence_seen[0] & !0xFF, 0, "clean lanes diverged");
        assert_ne!(divergence_seen[0] & 0xFE, 0, "no injected fault was seen");
    }

    #[test]
    fn stem_sa1_forces_value() {
        let mut b = NetlistBuilder::new("f");
        let a = b.input("a");
        let y = b.buf(a);
        b.output("y", y);
        let nl = b.finish().unwrap();
        let mut ps = ParallelSim::new(&nl);
        let ynet = nl.port("y")[0];
        ps.inject(
            Fault {
                site: FaultSite::Stem(ynet),
                polarity: Polarity::StuckAt1,
            },
            3,
        );
        ps.set_port(&nl, "a", 0);
        ps.eval_all();
        assert_eq!(ps.net_lanes_word(ynet, 0), 1 << 3);
        ps.set_port(&nl, "a", 1);
        ps.eval_all();
        assert_eq!(ps.net_lanes_word(ynet, 0), !0);
    }

    #[test]
    fn pin_fault_affects_only_that_branch() {
        let mut b = NetlistBuilder::new("p");
        let a = b.input("a");
        let one = b.one();
        let y1 = b.and2(a, one);
        let y2 = b.and2(a, one);
        b.output("y1", y1);
        b.output("y2", y2);
        let nl = b.finish().unwrap();
        let g1 = nl
            .gates()
            .iter()
            .position(|g| g.kind == GateKind::And2)
            .unwrap() as u32;
        let mut ps = ParallelSim::new(&nl);
        ps.inject(
            Fault {
                site: FaultSite::Pin { gate: g1, pin: 0 },
                polarity: Polarity::StuckAt0,
            },
            5,
        );
        ps.set_port(&nl, "a", 1);
        ps.eval_all();
        assert_eq!(ps.net_lanes_word(nl.port("y1")[0], 0), !(1 << 5), "faulty branch");
        assert_eq!(ps.net_lanes_word(nl.port("y2")[0], 0), !0, "healthy branch");
    }

    #[test]
    fn dff_d_pin_fault_sticks_state() {
        let mut b = NetlistBuilder::new("d");
        let a = b.input("a");
        let q = b.dff(a, false);
        b.output("q", q);
        let nl = b.finish().unwrap();
        let mut ps = ParallelSim::new(&nl);
        ps.inject(
            Fault {
                site: FaultSite::DffD(0),
                polarity: Polarity::StuckAt1,
            },
            2,
        );
        ps.reset();
        ps.set_port(&nl, "a", 0);
        ps.eval_all();
        ps.clock();
        assert_eq!(ps.net_lanes_word(nl.port("q")[0], 0), 1 << 2);
    }

    #[test]
    fn high_lane_injection_lands_in_its_word() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl).collapsed(&nl);
        let f = faults.faults[0];
        let mut ps = sim(&nl, 4);
        // The same fault in lane 1 (word 0) and lane 130 (word 2) must
        // diverge identically, word-shifted.
        ps.inject(f, 1);
        ps.inject(f, 130);
        ps.reset_state();
        let z = nl.port("z");
        let mut diff = vec![0u64; 4];
        for _ in 0..30 {
            ps.set_port(&nl, "a", 0xA5);
            ps.set_port(&nl, "b", 0x3C);
            ps.eval_all();
            ps.diff_vs_lane0(z, &mut diff);
            ps.clock();
        }
        assert_eq!(
            (diff[0] >> 1) & 1,
            (diff[2] >> 2) & 1,
            "same fault, different verdicts across words"
        );
        assert_eq!(diff[0] & !0b10, 0);
        assert_eq!(diff[1], 0);
        assert_eq!(diff[2] & !0b100, 0);
        assert_eq!(diff[3], 0);
    }

    #[test]
    fn transpose_round_trips() {
        let mut vals = vec![0u64; 128];
        for (i, v) in vals.iter_mut().enumerate() {
            *v = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) & 0xFFFF_FFFF;
        }
        let mut out = Vec::new();
        transpose_lanes(&vals, 32, 2, &mut out);
        for lane in 0..128 {
            let t = lane >> 6;
            let b = lane & 63;
            let mut got = 0u64;
            for i in 0..32 {
                got |= ((out[i * 2 + t] >> b) & 1) << i;
            }
            assert_eq!(got, vals[lane], "lane {lane}");
        }
    }

    #[test]
    fn clear_faults_restores_health() {
        let nl = sample_netlist();
        let faults = FaultList::extract(&nl);
        let mut ps = sim(&nl, 2);
        for (lane, f) in faults.faults.iter().take(100).enumerate() {
            ps.inject(*f, 1 + lane % 127);
        }
        ps.clear_faults();
        ps.reset_state();
        let mut diff = [0u64; 2];
        for step in 0..20u64 {
            ps.set_port(&nl, "a", step * 11 % 256);
            ps.set_port(&nl, "b", step * 29 % 256);
            ps.eval_all();
            ps.diff_vs_lane0(nl.port("z"), &mut diff);
            ps.clock();
        }
        assert_eq!(diff, [0, 0]);
    }
}
