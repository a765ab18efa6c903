//! Six operational-transconductance-amplifier benchmarks, matching the
//! per-circuit device/net statistics of the paper's Table VI (OTA1–OTA6).
//!
//! Each generator draws its device sizes from a seeded RNG: matched
//! pairs share the drawn size (that is what makes them matched), while
//! same-type *unmatched* devices get distinct sizes — the true negatives
//! a sizing-aware detector must reject.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ancstr_netlist::{CircuitClass, DeviceType, Netlist};

use crate::builder::CellBuilder;

/// Draw a width from a plausible analog set (µm).
fn draw_w(rng: &mut StdRng) -> f64 {
    const CHOICES: [f64; 6] = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0];
    CHOICES[rng.gen_range(0..CHOICES.len())]
}

/// Draw a distinct second width.
fn draw_w_distinct(rng: &mut StdRng, other: f64) -> f64 {
    loop {
        let w = draw_w(rng);
        if (w - other).abs() > 1e-9 {
            return w;
        }
    }
}

fn netlist_of(name: &str, cell: ancstr_netlist::Subckt) -> Netlist {
    let mut nl = Netlist::new(name);
    nl.add_subckt(cell).expect("single template");
    nl
}

/// OTA1: two-stage Miller-compensated OTA — 12 devices.
///
/// Ground truth: the input pair and the mirror load. The three distinct
/// NMOS bias/tail/sink devices are same-type decoys with different
/// sizes.
pub fn ota1(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A1);
    let w_in = draw_w(&mut rng);
    let w_ld = draw_w(&mut rng);
    let w_tail = draw_w(&mut rng);
    let w_sink = draw_w_distinct(&mut rng, w_tail);
    let w_bias = draw_w_distinct(&mut rng, w_tail);
    let cell = CellBuilder::new("ota1", ["inp", "inn", "out", "ibias", "vdd", "vss"])
        .class(CircuitClass::Ota)
        .mos("M1", DeviceType::NchLvt, "x1", "inp", "tail", "vss", w_in, 0.2)
        .mos("M2", DeviceType::NchLvt, "x2", "inn", "tail", "vss", w_in, 0.2)
        .mos("M3", DeviceType::Pch, "x1", "x1", "vdd", "vdd", w_ld, 0.2)
        .mos("M4", DeviceType::Pch, "x2", "x1", "vdd", "vdd", w_ld, 0.2)
        .mos("M5", DeviceType::Nch, "tail", "ibias", "vss", "vss", w_tail, 0.5)
        .mos("M6", DeviceType::Pch, "out", "x2", "vdd", "vdd", 2.0 * w_ld, 0.2)
        .mos("M7", DeviceType::Nch, "out", "ibias", "vss", "vss", w_sink, 0.5)
        .mos("M8", DeviceType::Nch, "ibias", "ibias", "vss", "vss", w_bias, 0.5)
        .res("Rz", "x2", "zc", 2.0e3)
        .cap("Cc", "zc", "out", 500e-15)
        .cap("CL", "out", "vss", 1e-12)
        .res("Rb", "ibias", "vdd", 20e3)
        .sym("M1", "M2")
        .sym("M3", "M4")
        .self_sym("M5")
        .build();
    netlist_of("ota1", cell)
}

/// OTA2: fully differential folded-cascode with resistive CMFB — 20
/// devices.
pub fn ota2(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A2);
    let w_in = draw_w(&mut rng);
    let w_src = draw_w(&mut rng);
    let w_casc = draw_w(&mut rng);
    let w_pcasc = draw_w(&mut rng);
    let w_psrc = draw_w(&mut rng);
    let cell = CellBuilder::new(
        "ota2",
        ["inp", "inn", "outp", "outn", "vcm", "ibias", "vdd", "vss"],
    )
    .class(CircuitClass::Ota)
    .mos("M0", DeviceType::PchLvt, "tail", "ibias", "vdd", "vdd", 2.0 * w_in, 0.3)
    .mos("M1", DeviceType::PchLvt, "f1", "inp", "tail", "vdd", w_in, 0.2)
    .mos("M2", DeviceType::PchLvt, "f2", "inn", "tail", "vdd", w_in, 0.2)
    .mos("M3", DeviceType::Nch, "f1", "ibias", "vss", "vss", w_src, 0.3)
    .mos("M4", DeviceType::Nch, "f2", "ibias", "vss", "vss", w_src, 0.3)
    .mos("M5", DeviceType::NchLvt, "outn", "bcn", "f1", "vss", w_casc, 0.15)
    .mos("M6", DeviceType::NchLvt, "outp", "bcn", "f2", "vss", w_casc, 0.15)
    .mos("M7", DeviceType::PchLvt, "outn", "bcp", "s1", "vdd", w_pcasc, 0.15)
    .mos("M8", DeviceType::PchLvt, "outp", "bcp", "s2", "vdd", w_pcasc, 0.15)
    .mos("M9", DeviceType::Pch, "s1", "cmfb", "vdd", "vdd", w_psrc, 0.3)
    .mos("M10", DeviceType::Pch, "s2", "cmfb", "vdd", "vdd", w_psrc, 0.3)
    .mos("M11", DeviceType::Nch, "cmfb", "sense", "vss", "vss", 2.0, 0.3)
    .mos("M12", DeviceType::Nch, "cmfb", "vcm", "vss", "vss", 2.0, 0.3)
    .mos("M13", DeviceType::Pch, "cmfb", "ibias", "vdd", "vdd", 1.0, 0.3)
    .res("Rc1", "outp", "sense", 100e3)
    .res("Rc2", "outn", "sense", 100e3)
    .cap("Cc1", "outp", "sense", 50e-15)
    .cap("Cc2", "outn", "sense", 50e-15)
    .cap("CL1", "outp", "vss", 400e-15)
    // decoy: CL2 deliberately equals CL1 (matched loads).
    .cap("CL2", "outn", "vss", 400e-15)
    .sym("M1", "M2")
    .sym("M3", "M4")
    .sym("M5", "M6")
    .sym("M7", "M8")
    .sym("M9", "M10")
    .sym("Rc1", "Rc2")
    .sym("Cc1", "Cc2")
    .sym("CL1", "CL2")
    .self_sym("M0")
    .build();
    netlist_of("ota2", cell)
}

/// OTA3: symmetrical current-mirror OTA — 12 devices.
pub fn ota3(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A3);
    let w_in = draw_w(&mut rng);
    let w_ld = draw_w(&mut rng);
    let w_mir = draw_w(&mut rng);
    let w_bot = draw_w(&mut rng);
    let cell = CellBuilder::new("ota3", ["inp", "inn", "out", "ibias", "vdd", "vss"])
        .class(CircuitClass::Ota)
        .mos("M1", DeviceType::NchLvt, "a1", "inp", "tail", "vss", w_in, 0.2)
        .mos("M2", DeviceType::NchLvt, "a2", "inn", "tail", "vss", w_in, 0.2)
        .mos("M3", DeviceType::Pch, "a1", "a1", "vdd", "vdd", w_ld, 0.2)
        .mos("M4", DeviceType::Pch, "a2", "a2", "vdd", "vdd", w_ld, 0.2)
        .mos("M5", DeviceType::Nch, "tail", "ibias", "vss", "vss", 2.0, 0.5)
        .mos("M6", DeviceType::Pch, "mid", "a1", "vdd", "vdd", w_mir, 0.2)
        .mos("M7", DeviceType::Pch, "out", "a2", "vdd", "vdd", w_mir, 0.2)
        .mos("M8", DeviceType::Nch, "mid", "mid", "vss", "vss", w_bot, 0.3)
        .mos("M9", DeviceType::Nch, "out", "mid", "vss", "vss", w_bot, 0.3)
        .mos("M10", DeviceType::Nch, "ibias", "ibias", "vss", "vss", 1.0, 0.5)
        .cap("CL", "out", "vss", 800e-15)
        .res("Rb", "ibias", "vdd", 30e3)
        .sym("M1", "M2")
        .sym("M3", "M4")
        .sym("M6", "M7")
        .sym("M8", "M9")
        .self_sym("M5")
        .build();
    netlist_of("ota3", cell)
}

/// OTA4: two-stage fully differential amplifier with first-stage folded
/// cascode, second-stage class-A outputs, two CMFB loops and a bias
/// ladder — 36 devices.
pub fn ota4(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A4);
    let w_in = draw_w(&mut rng);
    let w_src = draw_w(&mut rng);
    let w_casc = draw_w(&mut rng);
    let w_pc = draw_w(&mut rng);
    let w_ps = draw_w(&mut rng);
    let w_gm2 = draw_w(&mut rng);
    let w_sk2 = draw_w(&mut rng);
    let cell = CellBuilder::new(
        "ota4",
        ["inp", "inn", "outp", "outn", "vcm", "ibias", "vdd", "vss"],
    )
    .class(CircuitClass::Ota)
    // Stage 1: folded cascode (NMOS input).
    .mos("M0", DeviceType::Nch, "tail", "bn1", "vss", "vss", 2.0 * w_in, 0.3)
    .mos("M1", DeviceType::NchLvt, "f1", "inp", "tail", "vss", w_in, 0.15)
    .mos("M2", DeviceType::NchLvt, "f2", "inn", "tail", "vss", w_in, 0.15)
    .mos("M3", DeviceType::Pch, "f1", "bp1", "vdd", "vdd", w_src, 0.3)
    .mos("M4", DeviceType::Pch, "f2", "bp1", "vdd", "vdd", w_src, 0.3)
    .mos("M5", DeviceType::PchLvt, "o1n", "bp2", "f1", "vdd", w_pc, 0.15)
    .mos("M6", DeviceType::PchLvt, "o1p", "bp2", "f2", "vdd", w_pc, 0.15)
    .mos("M7", DeviceType::NchLvt, "o1n", "bn2", "g1", "vss", w_casc, 0.15)
    .mos("M8", DeviceType::NchLvt, "o1p", "bn2", "g2", "vss", w_casc, 0.15)
    .mos("M9", DeviceType::Nch, "g1", "cm1", "vss", "vss", w_ps, 0.3)
    .mos("M10", DeviceType::Nch, "g2", "cm1", "vss", "vss", w_ps, 0.3)
    // CMFB 1 (sensing stage-1 outputs).
    .mos("M11", DeviceType::Nch, "cm1", "sns1", "vss", "vss", 1.5, 0.3)
    .mos("M12", DeviceType::Nch, "cm1", "vcm", "vss", "vss", 1.5, 0.3)
    .mos("M13", DeviceType::Pch, "cm1", "bp1", "vdd", "vdd", 1.0, 0.3)
    // Stage 2 (class A).
    .mos("M15", DeviceType::PchLvt, "outn", "o1n", "vdd", "vdd", w_gm2, 0.1)
    .mos("M16", DeviceType::PchLvt, "outp", "o1p", "vdd", "vdd", w_gm2, 0.1)
    .mos("M17", DeviceType::Nch, "outn", "cm2", "vss", "vss", w_sk2, 0.2)
    .mos("M18", DeviceType::Nch, "outp", "cm2", "vss", "vss", w_sk2, 0.2)
    // CMFB 2.
    .mos("M19", DeviceType::Nch, "cm2", "sns2", "vss", "vss", 1.5, 0.3)
    .mos("M20", DeviceType::Nch, "cm2", "vcm", "vss", "vss", 1.5, 0.3)
    .mos("M21", DeviceType::Pch, "cm2", "bp1", "vdd", "vdd", 1.0, 0.3)
    // Bias ladder.
    .mos("M22", DeviceType::Nch, "bn1", "ibias", "vss", "vss", 1.0, 0.5)
    .mos("M23", DeviceType::Nch, "bn2", "bn2", "bn1", "vss", 1.0, 0.5)
    .mos("M24", DeviceType::Pch, "bp1", "bp1", "vdd", "vdd", 1.0, 0.5)
    .mos("M25", DeviceType::Pch, "bp2", "bp2", "bp1", "vdd", 1.0, 0.5)
    .mos("M26", DeviceType::Nch, "ibias", "ibias", "vss", "vss", 1.0, 0.5)
    // Compensation and loads.
    .res("Rz1", "o1n", "z1", 1.5e3)
    .res("Rz2", "o1p", "z2", 1.5e3)
    .cap("Cc1", "z1", "outn", 300e-15)
    .cap("Cc2", "z2", "outp", 300e-15)
    .res("Rs1", "outp", "sns1", 200e3)
    .res("Rs2", "outn", "sns1", 200e3)
    .res("Rs3", "outp", "sns2", 150e3)
    .res("Rs4", "outn", "sns2", 150e3)
    .cap("CL1", "outp", "vss", 500e-15)
    .cap("CL2", "outn", "vss", 500e-15)
    .sym("M1", "M2")
    .sym("M3", "M4")
    .sym("M5", "M6")
    .sym("M7", "M8")
    .sym("M9", "M10")
    .sym("M15", "M16")
    .sym("M17", "M18")
    .sym("Rz1", "Rz2")
    .sym("Cc1", "Cc2")
    .sym("Rs1", "Rs2")
    .sym("Rs3", "Rs4")
    .sym("CL1", "CL2")
    .self_sym("M0")
    .build();
    netlist_of("ota4", cell)
}

/// OTA5: telescopic fully differential OTA with unit-capacitor load
/// arrays and a parallel bias resistor bank — 38 devices on few nets.
pub fn ota5(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A5);
    let w_in = draw_w(&mut rng);
    let w_casc = draw_w(&mut rng);
    let w_ld = draw_w(&mut rng);
    let mut b = CellBuilder::new(
        "ota5",
        ["inp", "inn", "outp", "outn", "ibias", "vdd", "vss"],
    )
    .class(CircuitClass::Ota)
    .mos("M1", DeviceType::NchLvt, "x1", "inp", "tail", "vss", w_in, 0.15)
    .mos("M2", DeviceType::NchLvt, "x2", "inn", "tail", "vss", w_in, 0.15)
    .mos("M3", DeviceType::NchLvt, "outn", "cn", "x1", "vss", w_casc, 0.15)
    .mos("M4", DeviceType::NchLvt, "outp", "cn", "x2", "vss", w_casc, 0.15)
    .mos("M5", DeviceType::Pch, "outn", "cp", "y1", "vdd", w_casc, 0.2)
    .mos("M6", DeviceType::Pch, "outp", "cp", "y2", "vdd", w_casc, 0.2)
    .mos("M7", DeviceType::Pch, "y1", "cm", "vdd", "vdd", w_ld, 0.3)
    .mos("M8", DeviceType::Pch, "y2", "cm", "vdd", "vdd", w_ld, 0.3)
    .mos("M9", DeviceType::Nch, "tail", "ibias", "vss", "vss", 3.0, 0.5)
    .mos("M10", DeviceType::Nch, "ibias", "ibias", "vss", "vss", 1.0, 0.5);
    // Unit-capacitor load arrays: 10 units per side, all matched.
    let mut group: Vec<String> = Vec::new();
    for i in 0..10 {
        let na = format!("Ca{i}");
        let nb = format!("Cb{i}");
        b = b.cfmom(&na, "outp", "vss", 3.0, 3.0, 4);
        b = b.cfmom(&nb, "outn", "vss", 3.0, 3.0, 4);
        group.push(na);
        group.push(nb);
    }
    // Parallel bias resistor bank (8 units on shared nets).
    let mut rgroup: Vec<String> = Vec::new();
    for i in 0..8 {
        let n = format!("Rb{i}");
        b = b.res(&n, "cm", "vdd", 80e3);
        rgroup.push(n);
    }
    let group_refs: Vec<&str> = group.iter().map(String::as_str).collect();
    let rgroup_refs: Vec<&str> = rgroup.iter().map(String::as_str).collect();
    let cell = b
        .sym("M1", "M2")
        .sym("M3", "M4")
        .sym("M5", "M6")
        .sym("M7", "M8")
        .sym_group(&group_refs)
        .sym_group(&rgroup_refs)
        .self_sym("M9")
        .build();
    netlist_of("ota5", cell)
}

/// OTA6: compact 5T OTA whose output stage is a bank of paralleled
/// drivers — 15 devices on 9 nets.
pub fn ota6(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x07A6);
    let w_in = draw_w(&mut rng);
    let w_ld = draw_w(&mut rng);
    let mut b = CellBuilder::new("ota6", ["inp", "inn", "out", "ibias", "vdd", "vss"])
        .class(CircuitClass::Ota)
        .mos("M1", DeviceType::NchLvt, "x1", "inp", "tail", "vss", w_in, 0.2)
        .mos("M2", DeviceType::NchLvt, "x2", "inn", "tail", "vss", w_in, 0.2)
        .mos("M3", DeviceType::Pch, "x1", "x1", "vdd", "vdd", w_ld, 0.2)
        .mos("M4", DeviceType::Pch, "x2", "x1", "vdd", "vdd", w_ld, 0.2)
        .mos("M5", DeviceType::Nch, "tail", "ibias", "vss", "vss", 2.0, 0.5);
    // Paralleled output drivers: 4 PMOS + 4 NMOS unit devices.
    let mut pgroup = Vec::new();
    let mut ngroup = Vec::new();
    for i in 0..4 {
        let np = format!("MPo{i}");
        let nn = format!("MNo{i}");
        b = b.mos(&np, DeviceType::Pch, "out", "x2", "vdd", "vdd", 6.0, 0.1);
        b = b.mos(&nn, DeviceType::Nch, "out", "ibias", "vss", "vss", 3.0, 0.2);
        pgroup.push(np);
        ngroup.push(nn);
    }
    let pg: Vec<&str> = pgroup.iter().map(String::as_str).collect();
    let ng: Vec<&str> = ngroup.iter().map(String::as_str).collect();
    let cell = b
        .cap("CL", "out", "vss", 1e-12)
        .res("Rb", "ibias", "vdd", 25e3)
        .sym("M1", "M2")
        .sym("M3", "M4")
        .sym_group(&pg)
        .sym_group(&ng)
        .build();
    netlist_of("ota6", cell)
}

/// The complete OTA suite, in Table VI order.
pub fn ota_suite(seed: u64) -> Vec<Netlist> {
    vec![
        ota1(seed),
        ota2(seed),
        ota3(seed),
        ota4(seed),
        ota5(seed),
        ota6(seed),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;

    #[test]
    fn device_counts_match_table6() {
        let expect = [12usize, 20, 36, 38, 15];
        let otas = [ota1(1), ota2(1), ota4(1), ota5(1), ota6(1)];
        for (nl, &n) in otas.iter().zip(&expect) {
            let flat = FlatCircuit::elaborate(nl).unwrap();
            assert_eq!(flat.devices().len(), n, "{}", nl.top());
        }
        assert_eq!(
            FlatCircuit::elaborate(&ota3(1)).unwrap().devices().len(),
            12
        );
    }

    #[test]
    fn suite_totals_match_table4() {
        // Table IV: OTA row = 133 devices over 6 circuits.
        let total: usize = ota_suite(1)
            .iter()
            .map(|nl| FlatCircuit::elaborate(nl).unwrap().devices().len())
            .sum();
        assert_eq!(total, 133);
    }

    #[test]
    fn matched_pairs_share_sizes() {
        let nl = ota1(7);
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        for c in flat.ground_truth().iter() {
            let a = flat.node(c.pair.lo()).device_index().unwrap();
            let b = flat.node(c.pair.hi()).device_index().unwrap();
            let (da, db) = (&flat.devices()[a], &flat.devices()[b]);
            assert_eq!(da.dtype, db.dtype);
            assert!((da.geometry.width - db.geometry.width).abs() < 1e-12);
            assert!((da.geometry.length - db.geometry.length).abs() < 1e-12);
        }
    }

    #[test]
    fn generators_are_seed_deterministic() {
        assert_eq!(ota2(5), ota2(5));
        assert_ne!(ota2(5), ota2(6));
    }

    #[test]
    fn ota5_has_group_ground_truth() {
        let flat = FlatCircuit::elaborate(&ota5(1)).unwrap();
        // 20-cap group → C(20,2) = 190 pairs; 8-res group → 28; plus 5
        // MOS pairs (wait: 4 MOS pairs) = 4.
        assert_eq!(flat.ground_truth().len(), 190 + 28 + 4);
    }

    #[test]
    fn decoys_have_distinct_sizes() {
        let nl = ota1(3);
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let w = |name: &str| {
            flat.devices()
                .iter()
                .find(|d| flat.node(d.node).path.ends_with(name))
                .unwrap()
                .geometry
                .width
        };
        // Tail vs sink vs bias diode: same type, intentionally different.
        assert!((w("M5") - w("M7")).abs() > 1e-9);
        assert!((w("M5") - w("M8")).abs() > 1e-9);
    }
}
