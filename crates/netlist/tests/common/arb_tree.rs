//! A random hierarchical netlist whose sibling names stress natural
//! path order: letters, digit runs with leading zeros and runs longer
//! than `u64` holds, and the separators `-`, `.`, `_` and `+` (the
//! first three sort before `/`). A small alphabet makes one sibling
//! name a prefix of another often.
//!
//! Shared through `#[path]` modules by the netlist and core property
//! tests.

use ancstr_netlist::{Device, DeviceType, Geometry, Instance, Netlist, Subckt};
use proptest::prelude::*;

/// Name pieces: a name is one to three of them, starting with a letter.
const LETTERS: [&str; 3] = ["a", "b", "X"];
const PIECES: [&str; 14] = [
    "a",
    "X",
    "1",
    "01",
    "001",
    "2",
    "10",
    "99999999999999999999",
    "99999999999999999998",
    "0099999999999999999999",
    "-",
    ".",
    "_",
    "+",
];

/// splitmix64: a tiny deterministic stream, so one `u64` shrinks a whole
/// design.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn name(rng: &mut Rng) -> String {
    let mut s = LETTERS[rng.below(LETTERS.len())].to_owned();
    for _ in 0..rng.below(3) {
        s.push_str(PIECES[rng.below(PIECES.len())]);
    }
    s
}

/// Templates `t0` (the top) to `t{k}`; template `i` instantiates only
/// templates above `i`, so the library is acyclic. Each template has
/// ports `p0 p1` (sometimes `p0` twice), internal nets `n0 n1`, up to
/// nine uniquely named elements (resistors, capacitors and instances)
/// and a few designer pairs between same-kind elements.
pub fn build(seed: u64) -> Netlist {
    let mut rng = Rng(seed);
    let templates = 1 + rng.below(5);
    let ports: Vec<&[&str]> = (0..templates)
        .map(|_| {
            if rng.below(4) == 0 {
                &["p0", "p1", "p0"][..]
            } else {
                &["p0", "p1"][..]
            }
        })
        .collect();
    let mut nl = Netlist::new("t0");
    for i in 0..templates {
        let mut sub = Subckt::new(format!("t{i}"), ports[i].iter().copied());
        let nets = ["p0", "p1", "n0", "n1"];
        let net = |rng: &mut Rng| nets[rng.below(nets.len())].to_owned();
        let mut kinds: Vec<(String, usize)> = Vec::new();
        for _ in 0..rng.below(10) {
            let element = name(&mut rng);
            if kinds.iter().any(|(n, _)| *n == element) {
                continue;
            }
            let kind = if i + 1 < templates {
                rng.below(4).min(2)
            } else {
                rng.below(2)
            };
            match kind {
                0 | 1 => {
                    let dtype = if kind == 0 {
                        DeviceType::Resistor
                    } else {
                        DeviceType::Capacitor
                    };
                    let pins = vec![net(&mut rng), net(&mut rng)];
                    let d = Device::new(element.clone(), dtype, pins, Geometry::new(1.0, 1.0))
                        .expect("two pins");
                    sub.push_device(d).expect("fresh name");
                }
                _ => {
                    let child = i + 1 + rng.below(templates - i - 1);
                    sub.push_instance(Instance {
                        name: element.clone(),
                        subckt: format!("t{child}"),
                        connections: ports[child].iter().map(|_| net(&mut rng)).collect(),
                    })
                    .expect("fresh name");
                }
            }
            kinds.push((element, kind));
        }
        for _ in 0..rng.below(3) {
            if kinds.len() < 2 {
                break;
            }
            let (a, b) = (rng.below(kinds.len()), rng.below(kinds.len()));
            if a != b && kinds[a].1 == kinds[b].1 {
                sub.annotate_symmetry(kinds[a].0.clone(), kinds[b].0.clone());
            }
        }
        nl.add_subckt(sub).expect("fresh template");
    }
    nl
}

/// A random hierarchical netlist (see [`build`]).
pub fn arb_hierarchy() -> impl Strategy<Value = Netlist> {
    any::<u64>().prop_map(build)
}
