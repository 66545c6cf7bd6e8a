//! Helpers shared by the root integration tests.

use netlist::synth::{self, TechStyle};
use netlist::{Netlist, NetlistBuilder};

/// Small random sequential netlist: a couple of registers, an adder,
/// assorted gates, an 8-ish-bit `out` port.
pub fn random_netlist(seed: u64) -> Netlist {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s = s.wrapping_mul(0x2545_F491_4F6C_DD1D);
        s
    };
    let mut b = NetlistBuilder::new("rand");
    let width = 4 + (next() % 5) as usize;
    let a = b.inputs("a", width);
    let c = b.inputs("b", width);
    let mut pool: Vec<netlist::Net> = a.iter().chain(c.iter()).copied().collect();
    for _ in 0..(8 + next() % 24) {
        let x = pool[(next() % pool.len() as u64) as usize];
        let y = pool[(next() % pool.len() as u64) as usize];
        let g = match next() % 7 {
            0 => b.and2(x, y),
            1 => b.or2(x, y),
            2 => b.xor2(x, y),
            3 => b.nand2(x, y),
            4 => b.nor2(x, y),
            5 => b.not(x),
            _ => {
                let z = pool[(next() % pool.len() as u64) as usize];
                b.mux2(x, y, z)
            }
        };
        pool.push(g);
    }
    let zero = b.zero();
    let add = synth::add(
        &mut b,
        if next() % 2 == 0 {
            TechStyle::RippleMux
        } else {
            TechStyle::ClaAoi
        },
        &a,
        &c,
        zero,
    );
    let reg = b.dff_word(&add.sum, 0);
    let mix: Vec<netlist::Net> = reg
        .iter()
        .zip(pool.iter().rev())
        .map(|(&q, &p)| b.xor2(q, p))
        .collect();
    b.outputs("out", &mix);
    b.finish().expect("random netlist is structurally valid")
}
