//! Additional AMS circuit classes beyond the paper's Table IV corpus:
//! bandgap reference, LDO, ring VCO, charge pump, Gilbert mixer, and a
//! biquad filter.
//!
//! These exist to exercise the paper's *generalizability* claim ("the
//! framework is generalizable to every design"): the experiment harness
//! trains the unsupervised model on the Table IV corpus only and
//! extracts constraints on these unseen classes zero-shot (see the
//! `generalize` binary).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

use ancstr_netlist::{CircuitClass, DeviceType, Netlist};

use crate::builder::CellBuilder;
use crate::digital::{install_digital_library, inv_name};

fn draw_w(rng: &mut StdRng) -> f64 {
    const CHOICES: [f64; 5] = [1.0, 2.0, 4.0, 6.0, 8.0];
    CHOICES[rng.gen_range(0..CHOICES.len())]
}

fn netlist_of(name: &str, cell: ancstr_netlist::Subckt) -> Netlist {
    let mut nl = Netlist::new(name);
    nl.add_subckt(cell).expect("single template");
    nl
}

/// A Brokaw-style bandgap reference: ratioed BJT pair (deliberately
/// unmatched), matched mirror and resistor pairs — 14 devices.
pub fn bandgap(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB6A9);
    let w_mir = draw_w(&mut rng);
    let cell = CellBuilder::new("bandgap", ["vref", "vdd", "vss"])
        .class(CircuitClass::Bias)
        // 1:8 BJT pair — same type, different area: a sizing decoy.
        .mos("Mm1", DeviceType::Pch, "c1", "cm", "vdd", "vdd", w_mir, 0.5)
        .mos("Mm2", DeviceType::Pch, "c2", "cm", "vdd", "vdd", w_mir, 0.5)
        .mos("Mm3", DeviceType::Pch, "vref", "cm", "vdd", "vdd", w_mir, 0.5)
        .mos("Mcm", DeviceType::Pch, "cm", "cm", "vdd", "vdd", w_mir, 0.5)
        .mos("Ma1", DeviceType::NchLvt, "cm", "c1", "fb", "vss", 4.0, 0.2)
        .mos("Ma2", DeviceType::NchLvt, "cmx", "c2", "fb", "vss", 4.0, 0.2)
        .mos("Mt", DeviceType::Nch, "fb", "cmx", "vss", "vss", 2.0, 0.5)
        .res("R1", "c2", "e2", 40e3)
        .res("R2a", "e1", "vss", 80e3)
        .res("R2b", "e2x", "vss", 80e3)
        .res("Rout", "vref", "vss", 120e3)
        .cap("Cc", "vref", "vss", 2e-12)
        .sym("Mm1", "Mm2")
        .sym("Ma1", "Ma2")
        .sym("R2a", "R2b")
        .self_sym("Mt")
        .build();
    let mut nl = netlist_of("bandgap", cell);
    // BJTs live in their own card space; add via a second template to
    // keep the main builder simple.
    let bg = nl.subckt_mut("bandgap").expect("just added");
    use ancstr_netlist::{Device, Geometry};
    let mut q1 = Device::new(
        "Q1",
        DeviceType::Pnp,
        vec!["vss".into(), "vss".into(), "e1".into()],
        Geometry::new(5.0, 5.0),
    )
    .expect("3 pins");
    q1.multiplier = 1;
    bg.push_device(q1).expect("fresh name");
    let mut q2 = Device::new(
        "Q2",
        DeviceType::Pnp,
        vec!["vss".into(), "vss".into(), "e2x".into()],
        Geometry::new(5.0, 5.0),
    )
    .expect("3 pins");
    q2.multiplier = 8; // the 1:8 area ratio
    bg.push_device(q2).expect("fresh name");
    nl
}

/// A low-dropout regulator: 5T error amplifier, PMOS pass device,
/// matched feedback divider — 12 devices.
pub fn ldo(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1D0);
    let w_in = draw_w(&mut rng);
    let cell = CellBuilder::new("ldo", ["vin", "vout", "vref", "ib", "vss"])
        .class(CircuitClass::Bias)
        .mos("M1", DeviceType::NchLvt, "a1", "vref", "tail", "vss", w_in, 0.2)
        .mos("M2", DeviceType::NchLvt, "a2", "fb", "tail", "vss", w_in, 0.2)
        .mos("M3", DeviceType::Pch, "a1", "a1", "vin", "vin", w_in, 0.3)
        .mos("M4", DeviceType::Pch, "a2", "a1", "vin", "vin", w_in, 0.3)
        .mos("M5", DeviceType::Nch, "tail", "ib", "vss", "vss", 2.0, 0.5)
        .mos("Mpass", DeviceType::Pch, "vout", "a2", "vin", "vin", 50.0, 0.15)
        .mos("Mb", DeviceType::Nch, "ib", "ib", "vss", "vss", 1.0, 0.5)
        .res("Rf1", "vout", "fb", 100e3)
        .res("Rf2", "fb", "vss", 100e3)
        .cap("Cout", "vout", "vss", 10e-12)
        .cap("Cc", "a2", "vout", 1e-12)
        .res("Resd", "vout", "vss", 500e3)
        .sym("M1", "M2")
        .sym("M3", "M4")
        .sym("Rf1", "Rf2")
        .self_sym("M5")
        .build();
    netlist_of("ldo", cell)
}

/// A five-stage ring VCO of identical current-starved inverter cells:
/// the stages are a matched group (system-level) — 12 devices.
pub fn ring_vco(seed: u64) -> Netlist {
    let _ = seed; // stages must be identical; nothing to draw
    let mut nl = Netlist::new("ringvco");
    install_digital_library(&mut nl, &[2], false);
    let mut b = CellBuilder::new("ringvco", ["ctl", "out", "vdd", "vss"])
        .class(CircuitClass::Custom("vco".into()))
        .mos("Mctl", DeviceType::Nch, "vtail", "ctl", "vss", "vss", 4.0, 0.3)
        .mos("Mcm", DeviceType::Pch, "vhead", "vhead", "vdd", "vdd", 4.0, 0.3);
    let stages = 5;
    let mut names = Vec::new();
    for i in 0..stages {
        let a = if i == 0 { "out".to_owned() } else { format!("r{i}") };
        let y = if i == stages - 1 { "out".to_owned() } else { format!("r{}", i + 1) };
        let nm = format!("Xs{i}");
        b = b.inst(&nm, &inv_name(2), [a, y, "vhead".to_owned(), "vtail".to_owned()]);
        names.push(nm);
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let cell = b.sym_group(&refs).build();
    nl.add_subckt(cell).expect("fresh");
    nl
}

/// A charge pump: matched up/down current branches with switch pairs —
/// 10 devices.
pub fn charge_pump(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC9);
    let w_src = draw_w(&mut rng);
    let cell = CellBuilder::new("chargepump", ["up", "dn", "out", "vb", "vdd", "vss"])
        .class(CircuitClass::Bias)
        .mos("Msrc", DeviceType::Pch, "pu", "vb", "vdd", "vdd", w_src, 0.4)
        .mos("Msnk", DeviceType::Nch, "pd", "vb", "vss", "vss", w_src / 2.0, 0.4)
        .mos("Msw1", DeviceType::PchLvt, "out", "up", "pu", "vdd", 2.0, 0.1)
        .mos("Msw2", DeviceType::PchLvt, "dump", "up", "pu", "vdd", 2.0, 0.1)
        .mos("Msw3", DeviceType::NchLvt, "out", "dn", "pd", "vss", 1.0, 0.1)
        .mos("Msw4", DeviceType::NchLvt, "dump", "dn", "pd", "vss", 1.0, 0.1)
        .mos("Mbuf", DeviceType::Nch, "dump", "dump", "vss", "vss", 1.0, 0.2)
        .cap("Cp", "out", "vss", 5e-12)
        .res("Rz", "out", "zx", 10e3)
        .cap("Cz", "zx", "vss", 20e-12)
        .sym("Msw1", "Msw2")
        .sym("Msw3", "Msw4")
        .build();
    netlist_of("chargepump", cell)
}

/// A Gilbert-cell mixer with inductive loads: switching quad, RF pair,
/// matched inductors — 11 devices. Exercises [`DeviceType::Inductor`].
pub fn gilbert_mixer(seed: u64) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x611B);
    let w_rf = draw_w(&mut rng);
    let w_lo = draw_w(&mut rng);
    let mut cell = CellBuilder::new(
        "mixer",
        ["lop", "lon", "rfp", "rfn", "ifp", "ifn", "ib", "vdd", "vss"],
    )
    .class(CircuitClass::Custom("mixer".into()))
    // Switching quad.
    .mos("Mq1", DeviceType::NchLvt, "ifp", "lop", "s1", "vss", w_lo, 0.1)
    .mos("Mq2", DeviceType::NchLvt, "ifn", "lon", "s1", "vss", w_lo, 0.1)
    .mos("Mq3", DeviceType::NchLvt, "ifn", "lop", "s2", "vss", w_lo, 0.1)
    .mos("Mq4", DeviceType::NchLvt, "ifp", "lon", "s2", "vss", w_lo, 0.1)
    // RF transconductors.
    .mos("Mr1", DeviceType::NchLvt, "s1", "rfp", "tail", "vss", w_rf, 0.15)
    .mos("Mr2", DeviceType::NchLvt, "s2", "rfn", "tail", "vss", w_rf, 0.15)
    .mos("Mt", DeviceType::Nch, "tail", "ib", "vss", "vss", 3.0, 0.4)
    .sym("Mq1", "Mq2")
    .sym("Mq3", "Mq4")
    .sym("Mr1", "Mr2")
    .self_sym("Mt")
    .build();
    // Matched inductive loads + IF caps.
    use ancstr_netlist::{Device, Geometry};
    for (name, a, b) in [("L1", "vdd", "ifp"), ("L2", "vdd", "ifn")] {
        let mut d = Device::new(
            name,
            DeviceType::Inductor,
            vec![a.into(), b.into()],
            Geometry::from_value(3e-9, 1e-9),
        )
        .expect("2 pins");
        d.value = Some(3e-9);
        cell.push_device(d).expect("fresh");
    }
    cell.annotate_symmetry("L1", "L2");
    for (name, a) in [("C1", "ifp"), ("C2", "ifn")] {
        let mut d = Device::new(
            name,
            DeviceType::Capacitor,
            vec![a.into(), "vss".into()],
            Geometry::from_value(200e-15, 1e-15),
        )
        .expect("2 pins");
        d.value = Some(200e-15);
        cell.push_device(d).expect("fresh");
    }
    cell.annotate_symmetry("C1", "C2");
    netlist_of("mixer", cell)
}

/// A Tow-Thomas biquad: two OTA instances with matched RC networks —
/// a small *system-level* benchmark outside the training classes.
pub fn biquad(seed: u64) -> Netlist {
    let mut nl = Netlist::new("biquad");
    crate::adc::import_netlist(&mut nl, &crate::ota::ota2(seed ^ 0xB1));
    let cell = CellBuilder::new(
        "biquad",
        ["vinp", "vinn", "voutp", "voutn", "vcm", "ib", "vdd", "vss"],
    )
    .class(CircuitClass::Custom("filter".into()))
    .inst("Xint1", "ota2", ["n1p", "n1n", "m1p", "m1n", "vcm", "ib", "vdd", "vss"])
    .inst("Xint2", "ota2", ["m1p", "m1n", "voutp", "voutn", "vcm", "ib", "vdd", "vss"])
    .res("Ri1", "vinp", "n1p", 20e3)
    .res("Ri2", "vinn", "n1n", 20e3)
    .res("Rq1", "m1p", "n1p", 40e3)
    .res("Rq2", "m1n", "n1n", 40e3)
    .res("Rf1", "voutp", "n1n", 20e3)
    .res("Rf2", "voutn", "n1p", 20e3)
    .cap("Cf1", "n1p", "m1n", 1e-12)
    .cap("Cf2", "n1n", "m1p", 1e-12)
    .cap("Cs1", "m1p", "voutn", 1e-12)
    .cap("Cs2", "m1n", "voutp", 1e-12)
    .sym("Xint1", "Xint2")
    .sym("Ri1", "Ri2")
    .sym("Rq1", "Rq2")
    .sym("Rf1", "Rf2")
    .sym("Cf1", "Cf2")
    .sym("Cs1", "Cs2")
    .build();
    nl.add_subckt(cell).expect("fresh");
    nl
}

/// The whole unseen-class suite, with names.
pub fn extra_benchmarks(seed: u64) -> Vec<(&'static str, Netlist)> {
    vec![
        ("BANDGAP", bandgap(seed)),
        ("LDO", ldo(seed)),
        ("RINGVCO", ring_vco(seed)),
        ("CHARGEPUMP", charge_pump(seed)),
        ("MIXER", gilbert_mixer(seed)),
        ("BIQUAD", biquad(seed)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;

    #[test]
    fn all_extras_elaborate_with_ground_truth() {
        for (name, nl) in extra_benchmarks(7) {
            let flat = FlatCircuit::elaborate(&nl).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                !flat.ground_truth().is_empty(),
                "{name} needs ground truth"
            );
            assert!(flat.devices().len() >= 7, "{name} too small");
        }
    }

    #[test]
    fn bandgap_bjt_ratio_is_a_decoy() {
        let flat = FlatCircuit::elaborate(&bandgap(1)).unwrap();
        let q1 = flat.devices().iter().find(|d| flat.node(d.node).path.ends_with("Q1")).unwrap();
        let q2 = flat.devices().iter().find(|d| flat.node(d.node).path.ends_with("Q2")).unwrap();
        assert_eq!(q1.dtype, DeviceType::Pnp);
        assert_eq!(q2.multiplier, 8);
        // Not ground truth despite same type.
        assert!(flat.ground_truth().get(q1.node, q2.node).is_none());
    }

    #[test]
    fn ring_vco_stage_group_is_system_level() {
        let flat = FlatCircuit::elaborate(&ring_vco(1)).unwrap();
        let sys = flat
            .ground_truth()
            .iter()
            .filter(|c| c.kind == ancstr_netlist::SymmetryKind::System)
            .count();
        // C(5,2) = 10 stage pairs.
        assert_eq!(sys, 10);
    }

    #[test]
    fn mixer_uses_inductors() {
        let flat = FlatCircuit::elaborate(&gilbert_mixer(1)).unwrap();
        let inductors = flat
            .devices()
            .iter()
            .filter(|d| d.dtype == DeviceType::Inductor)
            .count();
        assert_eq!(inductors, 2);
    }

    #[test]
    fn biquad_has_matched_ota_instances() {
        let flat = FlatCircuit::elaborate(&biquad(1)).unwrap();
        let i1 = flat.node_by_path("biquad/Xint1").unwrap().id;
        let i2 = flat.node_by_path("biquad/Xint2").unwrap().id;
        let c = flat.ground_truth().get(i1, i2).unwrap();
        assert_eq!(c.kind, ancstr_netlist::SymmetryKind::System);
    }

    #[test]
    fn extras_round_trip_through_spice() {
        use ancstr_netlist::{parse::parse_spice, write::write_spice};
        for (name, nl) in extra_benchmarks(3) {
            let text = write_spice(&nl);
            let back = parse_spice(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            let f1 = FlatCircuit::elaborate(&nl).unwrap();
            let f2 = FlatCircuit::elaborate(&back).unwrap();
            assert_eq!(f1.devices().len(), f2.devices().len(), "{name}");
        }
    }
}
