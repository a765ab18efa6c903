//! Six clocked-comparator benchmarks matching Table VI's COMP1–COMP6
//! device counts (47, 8, 34, 22, 17, 17).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ancstr_netlist::{CircuitClass, DeviceType, Netlist};

use crate::builder::CellBuilder;

fn draw_w(rng: &mut StdRng) -> f64 {
    const CHOICES: [f64; 5] = [1.0, 2.0, 3.0, 4.0, 6.0];
    CHOICES[rng.gen_range(0..CHOICES.len())]
}

fn netlist_of(name: &str, cell: ancstr_netlist::Subckt) -> Netlist {
    let mut nl = Netlist::new(name);
    nl.add_subckt(cell).expect("single template");
    nl
}

/// Add a StrongARM latch core (11 transistors) to a builder.
///
/// Prefix distinguishes multiple cores in one cell. Nets: `inp/inn`
/// inputs, `op/on` outputs, `ck` clock.
#[allow(clippy::too_many_arguments)]
fn strongarm(
    mut b: CellBuilder,
    pre: &str,
    inp: &str,
    inn: &str,
    op: &str,
    on: &str,
    ck: &str,
    w_in: f64,
    flavor: DeviceType,
) -> CellBuilder {
    let x1 = format!("{pre}x1");
    let x2 = format!("{pre}x2");
    let tail = format!("{pre}tail");
    let m = |i: usize| format!("M{pre}{i}");
    b = b
        .mos(&m(1), flavor, &x1, inp, &tail, "vss", w_in, 0.1)
        .mos(&m(2), flavor, &x2, inn, &tail, "vss", w_in, 0.1)
        .mos(&m(3), flavor, on, op, &x1, "vss", w_in, 0.1)
        .mos(&m(4), flavor, op, on, &x2, "vss", w_in, 0.1)
        .mos(&m(5), DeviceType::PchLvt, on, op, "vdd", "vdd", 2.0 * w_in, 0.1)
        .mos(&m(6), DeviceType::PchLvt, op, on, "vdd", "vdd", 2.0 * w_in, 0.1)
        .mos(&m(7), DeviceType::Nch, &tail, ck, "vss", "vss", 2.0 * w_in, 0.1)
        .mos(&m(8), DeviceType::PchLvt, op, ck, "vdd", "vdd", 1.0, 0.1)
        .mos(&m(9), DeviceType::PchLvt, on, ck, "vdd", "vdd", 1.0, 0.1)
        .mos(&m(10), DeviceType::PchLvt, &x1, ck, "vdd", "vdd", 1.0, 0.1)
        .mos(&m(11), DeviceType::PchLvt, &x2, ck, "vdd", "vdd", 1.0, 0.1);
    b = b
        .sym(&m(1), &m(2))
        .sym(&m(3), &m(4))
        .sym(&m(5), &m(6))
        .sym(&m(8), &m(9))
        .sym(&m(10), &m(11))
        .self_sym(&m(7));
    b
}

/// Add a NAND-based SR latch (8 transistors) to a builder.
fn sr_nand(mut b: CellBuilder, pre: &str, s: &str, r: &str, q: &str, qb: &str) -> CellBuilder {
    let m = |i: usize| format!("M{pre}s{i}");
    b = b
        .mos(&m(1), DeviceType::PchLvt, q, s, "vdd", "vdd", 2.0, 0.1)
        .mos(&m(2), DeviceType::PchLvt, q, qb, "vdd", "vdd", 2.0, 0.1)
        .mos(&m(3), DeviceType::NchLvt, q, s, &format!("{pre}n1"), "vss", 2.0, 0.1)
        .mos(&m(4), DeviceType::NchLvt, &format!("{pre}n1"), qb, "vss", "vss", 2.0, 0.1)
        .mos(&m(5), DeviceType::PchLvt, qb, r, "vdd", "vdd", 2.0, 0.1)
        .mos(&m(6), DeviceType::PchLvt, qb, q, "vdd", "vdd", 2.0, 0.1)
        .mos(&m(7), DeviceType::NchLvt, qb, r, &format!("{pre}n2"), "vss", 2.0, 0.1)
        .mos(&m(8), DeviceType::NchLvt, &format!("{pre}n2"), q, "vss", "vss", 2.0, 0.1);
    b = b
        .sym(&m(1), &m(5))
        .sym(&m(2), &m(6))
        .sym(&m(3), &m(7))
        .sym(&m(4), &m(8));
    b
}

/// Add an inverter pair (2 transistors) driving `y` from `a`.
fn inv_pair(b: CellBuilder, pre: &str, a: &str, y: &str, w: f64) -> CellBuilder {
    b.mos(
        &format!("M{pre}p"),
        DeviceType::PchLvt,
        y,
        a,
        "vdd",
        "vdd",
        2.0 * w,
        0.1,
    )
    .mos(&format!("M{pre}n"), DeviceType::NchLvt, y, a, "vss", "vss", w, 0.1)
}

/// COMP1: preamp + double-tail latch + SR latch + output buffers +
/// clock chain + calibration cap banks — 47 devices.
pub fn comp1(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0101);
    let w_pre = draw_w(&mut rng);
    let w_in = draw_w(&mut rng);
    let mut b = CellBuilder::new(
        "comp1",
        ["inp", "inn", "outp", "outn", "clk", "vbias", "vdd", "vss"],
    )
    .class(CircuitClass::Comparator)
    // Preamp: 5T OTA.
    .mos("MA1", DeviceType::NchLvt, "p1", "inp", "ptail", "vss", w_pre, 0.15)
    .mos("MA2", DeviceType::NchLvt, "p2", "inn", "ptail", "vss", w_pre, 0.15)
    .mos("MA3", DeviceType::Pch, "p1", "p1", "vdd", "vdd", w_pre, 0.2)
    .mos("MA4", DeviceType::Pch, "p2", "p1", "vdd", "vdd", w_pre, 0.2)
    .mos("MA5", DeviceType::Nch, "ptail", "vbias", "vss", "vss", 2.0, 0.3)
    // Double-tail stage 1.
    .mos("MB1", DeviceType::NchLvt, "d1", "p1", "t1", "vss", w_in, 0.1)
    .mos("MB2", DeviceType::NchLvt, "d2", "p2", "t1", "vss", w_in, 0.1)
    .mos("MB3", DeviceType::Nch, "t1", "clk", "vss", "vss", 3.0, 0.1)
    .mos("MB4", DeviceType::PchLvt, "d1", "clk", "vdd", "vdd", 1.5, 0.1)
    .mos("MB5", DeviceType::PchLvt, "d2", "clk", "vdd", "vdd", 1.5, 0.1)
    // Double-tail stage 2 (latch).
    .mos("MC1", DeviceType::PchLvt, "lq", "d1", "t2", "vdd", 2.0, 0.1)
    .mos("MC2", DeviceType::PchLvt, "lqb", "d2", "t2", "vdd", 2.0, 0.1)
    .mos("MC3", DeviceType::NchLvt, "lq", "lqb", "vss", "vss", 2.0, 0.1)
    .mos("MC4", DeviceType::NchLvt, "lqb", "lq", "vss", "vss", 2.0, 0.1)
    .mos("MC5", DeviceType::PchLvt, "lq", "lqb", "t2", "vdd", 2.0, 0.1)
    .mos("MC6", DeviceType::PchLvt, "lqb", "lq", "t2", "vdd", 2.0, 0.1)
    .mos("MC7", DeviceType::Pch, "t2", "clkb", "vdd", "vdd", 4.0, 0.1);
    b = sr_nand(b, "L", "lq", "lqb", "sq", "sqb");
    // Output buffers: two inverters per side.
    b = inv_pair(b, "Ba1", "sq", "b1", 1.0);
    b = inv_pair(b, "Ba2", "b1", "outp", 2.0);
    b = inv_pair(b, "Bb1", "sqb", "b2", 1.0);
    b = inv_pair(b, "Bb2", "b2", "outn", 2.0);
    // Clock chain: three inverters of growing drive (unmatched decoys).
    b = inv_pair(b, "Ck1", "clk", "ck1", 1.0);
    b = inv_pair(b, "Ck2", "ck1", "clkb", 2.0);
    b = inv_pair(b, "Ck3", "clkb", "ckd", 4.0);
    // Calibration capacitor banks on the latch nodes (3 units each).
    let mut ca = Vec::new();
    let mut cb = Vec::new();
    for i in 0..3 {
        let a = format!("Cca{i}");
        let c = format!("Ccb{i}");
        b = b.cfmom(&a, "d1", "vss", 2.0, 2.0, 3);
        b = b.cfmom(&c, "d2", "vss", 2.0, 2.0, 3);
        ca.push(a);
        cb.push(c);
    }
    let all: Vec<&str> = ca.iter().chain(cb.iter()).map(String::as_str).collect();
    let cell = b
        .cap("CL1", "outp", "vss", 20e-15)
        .cap("CL2", "outn", "vss", 20e-15)
        .sym("CL1", "CL2")
        .sym("MA1", "MA2")
        .sym("MA3", "MA4")
        .sym("MB1", "MB2")
        .sym("MB4", "MB5")
        .sym("MC1", "MC2")
        .sym("MC3", "MC4")
        .sym("MC5", "MC6")
        .sym("MBa1p", "MBb1p")
        .sym("MBa1n", "MBb1n")
        .sym("MBa2p", "MBb2p")
        .sym("MBa2n", "MBb2n")
        .sym_group(&all)
        .build();
    netlist_of("comp1", cell)
}

/// COMP2: bare StrongARM core without precharge on the internal nodes —
/// 8 devices.
pub fn comp2(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0102);
    let w_in = draw_w(&mut rng);
    let cell = CellBuilder::new(
        "comp2",
        ["inp", "inn", "outp", "outn", "clk", "vdd", "vss"],
    )
    .class(CircuitClass::Comparator)
    .mos("M1", DeviceType::NchLvt, "x1", "inp", "tail", "vss", w_in, 0.1)
    .mos("M2", DeviceType::NchLvt, "x2", "inn", "tail", "vss", w_in, 0.1)
    .mos("M3", DeviceType::NchLvt, "outn", "outp", "x1", "vss", w_in, 0.1)
    .mos("M4", DeviceType::NchLvt, "outp", "outn", "x2", "vss", w_in, 0.1)
    .mos("M5", DeviceType::PchLvt, "outn", "outp", "vdd", "vdd", 2.0 * w_in, 0.1)
    .mos("M6", DeviceType::PchLvt, "outp", "outn", "vdd", "vdd", 2.0 * w_in, 0.1)
    .mos("M7", DeviceType::Nch, "tail", "clk", "vss", "vss", 3.0, 0.1)
    // Symmetric output equalizer (keeps the mirror automorphism intact).
    .mos("M8", DeviceType::PchLvt, "outp", "clk", "outn", "vdd", 1.0, 0.1)
    .sym("M1", "M2")
    .sym("M3", "M4")
    .sym("M5", "M6")
    .self_sym("M7")
    .build();
    netlist_of("comp2", cell)
}

/// COMP3: preamp + StrongARM + SR latch + output buffers — 34 devices.
pub fn comp3(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0103);
    let w_pre = draw_w(&mut rng);
    let w_in = draw_w(&mut rng);
    let mut b = CellBuilder::new(
        "comp3",
        ["inp", "inn", "outp", "outn", "clk", "vbias", "vdd", "vss"],
    )
    .class(CircuitClass::Comparator)
    .mos("MA1", DeviceType::NchLvt, "p1", "inp", "ptail", "vss", w_pre, 0.15)
    .mos("MA2", DeviceType::NchLvt, "p2", "inn", "ptail", "vss", w_pre, 0.15)
    .mos("MA3", DeviceType::Pch, "p1", "p1", "vdd", "vdd", w_pre, 0.2)
    .mos("MA4", DeviceType::Pch, "p2", "p1", "vdd", "vdd", w_pre, 0.2)
    .mos("MA5", DeviceType::Nch, "ptail", "vbias", "vss", "vss", 2.0, 0.3);
    b = b.sym("MA1", "MA2").sym("MA3", "MA4");
    b = strongarm(b, "S", "p1", "p2", "lq", "lqb", "clk", w_in, DeviceType::NchLvt);
    b = sr_nand(b, "L", "lq", "lqb", "sq", "sqb");
    b = inv_pair(b, "Ba", "sq", "b1", 1.0);
    b = inv_pair(b, "Ba2", "b1", "outp", 2.0);
    b = inv_pair(b, "Bb", "sqb", "b2", 1.0);
    b = inv_pair(b, "Bb2", "b2", "outn", 2.0);
    b = b
        .sym("MBap", "MBbp")
        .sym("MBan", "MBbn")
        .sym("MBa2p", "MBb2p")
        .sym("MBa2n", "MBb2n")
        .cap("C1", "lq", "vss", 10e-15)
        .cap("C2", "lqb", "vss", 10e-15)
        .sym("C1", "C2");
    netlist_of("comp3", b.build())
}

/// COMP4: double-tail comparator + SR latch — 22 devices.
pub fn comp4(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0104);
    let w_in = draw_w(&mut rng);
    let mut b = CellBuilder::new(
        "comp4",
        ["inp", "inn", "outp", "outn", "clk", "clkb", "vdd", "vss"],
    )
    .class(CircuitClass::Comparator)
    .mos("M1", DeviceType::NchLvt, "d1", "inp", "t1", "vss", w_in, 0.1)
    .mos("M2", DeviceType::NchLvt, "d2", "inn", "t1", "vss", w_in, 0.1)
    .mos("M3", DeviceType::Nch, "t1", "clk", "vss", "vss", 3.0, 0.1)
    .mos("M4", DeviceType::PchLvt, "d1", "clk", "vdd", "vdd", 1.5, 0.1)
    .mos("M5", DeviceType::PchLvt, "d2", "clk", "vdd", "vdd", 1.5, 0.1)
    .mos("M6", DeviceType::PchLvt, "lq", "d1", "t2", "vdd", 2.0, 0.1)
    .mos("M7", DeviceType::PchLvt, "lqb", "d2", "t2", "vdd", 2.0, 0.1)
    .mos("M8", DeviceType::NchLvt, "lq", "lqb", "vss", "vss", 2.0, 0.1)
    .mos("M9", DeviceType::NchLvt, "lqb", "lq", "vss", "vss", 2.0, 0.1)
    .mos("M10", DeviceType::PchLvt, "lq", "lqb", "t2", "vdd", 2.0, 0.1)
    .mos("M11", DeviceType::PchLvt, "lqb", "lq", "t2", "vdd", 2.0, 0.1)
    .mos("M12", DeviceType::Pch, "t2", "clkb", "vdd", "vdd", 4.0, 0.1)
    .sym("M1", "M2")
    .sym("M4", "M5")
    .sym("M6", "M7")
    .sym("M8", "M9")
    .sym("M10", "M11");
    b = sr_nand(b, "L", "lq", "lqb", "outp", "outn");
    b = b
        .cap("C1", "d1", "vss", 5e-15)
        .cap("C2", "d2", "vss", 5e-15)
        .sym("C1", "C2");
    netlist_of("comp4", b.build())
}

/// COMP5: StrongARM + cross-coupled NOR SR latch — 17 devices.
pub fn comp5(seed: u64) -> Netlist {
    comp5_variant(seed, DeviceType::NchLvt, "comp5")
}

/// COMP6: the COMP5 topology in a high-Vt flavour (a "different
/// topology for the same functionality" in the paper's sense) — 17
/// devices.
pub fn comp6(seed: u64) -> Netlist {
    comp5_variant(seed.wrapping_add(1), DeviceType::NchHvt, "comp6")
}

fn comp5_variant(seed: u64, flavor: DeviceType, name: &str) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0105);
    let w_in = draw_w(&mut rng);
    let mut b = CellBuilder::new(
        name,
        ["inp", "inn", "outp", "outn", "clk", "vdd", "vss"],
    )
    .class(CircuitClass::Comparator);
    b = strongarm(b, "S", "inp", "inn", "lq", "lqb", "clk", w_in, flavor);
    // Cross-coupled inverter SR (4 transistors).
    b = b
        .mos("MR1", DeviceType::PchLvt, "outp", "lq", "vdd", "vdd", 2.0, 0.1)
        .mos("MR2", DeviceType::NchLvt, "outp", "lqb", "vss", "vss", 1.0, 0.1)
        .mos("MR3", DeviceType::PchLvt, "outn", "lqb", "vdd", "vdd", 2.0, 0.1)
        .mos("MR4", DeviceType::NchLvt, "outn", "lq", "vss", "vss", 1.0, 0.1)
        .sym("MR1", "MR3")
        .sym("MR2", "MR4")
        .cap("C1", "outp", "vss", 8e-15)
        .cap("C2", "outn", "vss", 8e-15)
        .sym("C1", "C2");
    netlist_of(name, b.build())
}

/// The complete comparator suite, in Table VI order.
pub fn comparator_suite(seed: u64) -> Vec<Netlist> {
    vec![
        comp1(seed),
        comp2(seed),
        comp3(seed),
        comp4(seed),
        comp5(seed),
        comp6(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;

    #[test]
    fn device_counts_match_table6() {
        let expect = [47usize, 8, 34, 22, 17, 17];
        for (nl, &n) in comparator_suite(1).iter().zip(&expect) {
            let flat = FlatCircuit::elaborate(nl).unwrap();
            assert_eq!(flat.devices().len(), n, "{}", nl.top());
        }
    }

    #[test]
    fn suite_totals_match_table4() {
        let total: usize = comparator_suite(1)
            .iter()
            .map(|nl| FlatCircuit::elaborate(nl).unwrap().devices().len())
            .sum();
        assert_eq!(total, 145);
    }

    #[test]
    fn comp5_and_comp6_differ_only_in_flavor() {
        let a = FlatCircuit::elaborate(&comp5(1)).unwrap();
        let b = FlatCircuit::elaborate(&comp6(1)).unwrap();
        assert_eq!(a.devices().len(), b.devices().len());
        let hvt = b
            .devices()
            .iter()
            .filter(|d| d.dtype == DeviceType::NchHvt)
            .count();
        assert!(hvt >= 4, "comp6 should use high-Vt NMOS, found {hvt}");
        assert_eq!(
            a.devices()
                .iter()
                .filter(|d| d.dtype == DeviceType::NchHvt)
                .count(),
            0
        );
    }

    #[test]
    fn ground_truth_pairs_share_type_and_size() {
        for nl in comparator_suite(4) {
            let flat = FlatCircuit::elaborate(&nl).unwrap();
            assert!(!flat.ground_truth().is_empty(), "{}", nl.top());
            for c in flat.ground_truth().iter() {
                let a = flat.node(c.pair.lo()).device_index().unwrap();
                let b = flat.node(c.pair.hi()).device_index().unwrap();
                let (da, db) = (&flat.devices()[a], &flat.devices()[b]);
                let (pa, pb) = (&flat.node(c.pair.lo()).path, &flat.node(c.pair.hi()).path);
                assert_eq!(da.dtype, db.dtype, "{pa} vs {pb}");
                assert!((da.geometry.width - db.geometry.width).abs() < 1e-12);
            }
        }
    }
}
