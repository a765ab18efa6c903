//! Scale-sweep stress corpus: flattened multi-channel ADC systems with
//! exact hierarchical ground truth, sized to a requested device count.
//!
//! The Table III benchmarks top out at 1233 devices; production SoCs
//! carry hundreds of thousands. [`stress_system`] assembles a
//! time-interleaved ADC array from the same structural motifs — a
//! per-channel CT ΔΣ front end (bootstrapped samplers, a matched
//! 4-integrator bank, feedback-DAC slice pairs, a comparator, a P/N
//! cap-DAC pair, matched passives) replicated until the flattened
//! design hits the requested device budget, with the remainder filled
//! by matched decap banks exactly like the ADC assemblers.
//!
//! Every constraint is annotated at construction time, so the ground
//! truth is hierarchically exact at any scale: per-pair device symmetry
//! inside leaf cells, the integrator-bank group (an *array* once
//! `ancstr-hier` promotes it), block-level P/N pairs, and adjacent
//! channel pairs at the top. The generator is a pure function of
//! `(devices, seed)` — two calls with the same arguments produce
//! byte-identical SPICE, which is what lets perfbench's stress workload
//! and the CI stress-smoke job pin wall times against a reproducible
//! input.

use ancstr_netlist::{CircuitClass, Netlist, Subckt};

use crate::adc::{
    bias_cell, bootstrap_cell, finish_with_fill, import_netlist, integrator_cell,
    template_device_count,
};
use crate::builder::CellBuilder;
use crate::comparator;
use crate::dac::{self, CURRENT_DAC};
use crate::ota;

/// One time-interleaved channel: samplers, a matched integrator bank,
/// feedback DACs, quantizer, and a differential cap-DAC pair.
fn channel_cell() -> Subckt {
    let mut b = CellBuilder::new(
        "channel",
        ["inp", "inn", "d0", "d1", "d2", "ck", "vref", "ibias", "vcm", "vdd", "vss"],
    )
    .class(CircuitClass::Custom("channel".into()))
    .inst("Xbias", "biasgen", ["ibias", "vb1", "vb2", "vbn", "vdd", "vss"])
    // Bootstrapped sampling switches (matched pair).
    .inst("Xswp", "bootsw", ["inp", "sip", "ck", "ckb", "vdd", "vss"])
    .inst("Xswn", "bootsw", ["inn", "sin", "ck", "ckb", "vdd", "vss"]);
    // A matched 4-integrator bank: four instances of one layout-matched
    // template, annotated as a group — the canonical *block array* that
    // ancstr-hier promotes to an ArrayConstraint.
    let mut prev = ("sip".to_owned(), "sin".to_owned());
    let mut bank = Vec::new();
    for i in 0..4 {
        let name = format!("Xint{i}");
        let (op, on) = (format!("a{i}p"), format!("a{i}n"));
        b = b.inst(
            &name,
            "integ_s",
            [
                prev.0.clone(),
                prev.1.clone(),
                op.clone(),
                on.clone(),
                "vcm".to_owned(),
                "vb1".to_owned(),
                "vdd".to_owned(),
                "vss".to_owned(),
            ],
        );
        prev = (op, on);
        bank.push(name);
    }
    let bank_refs: Vec<&str> = bank.iter().map(String::as_str).collect();
    b.inst("Xdaca", CURRENT_DAC, ["d0", "d1", "sip", "sin", "vb1", "vb2", "vdd"])
        .inst("Xdacb", CURRENT_DAC, ["d1", "d0", "sin", "sip", "vb1", "vb2", "vdd"])
        .inst("Xq", "comp1", ["a3p", "a3n", "q", "qb", "ck", "vbn", "vdd", "vss"])
        // Differential cap DACs: P and N banks from one template.
        .inst("Xcdp", "capdac3", ["d0", "d1", "d2", "topp", "vref", "vdd", "vss"])
        .inst("Xcdn", "capdac3", ["d0", "d1", "d2", "topn", "vref", "vdd", "vss"])
        // Matched feedforward passives.
        .res("Rf1", "inp", "a3p", 45e3)
        .res("Rf2", "inn", "a3n", 45e3)
        .cap("Cf1", "inp", "a3p", 90e-15)
        .cap("Cf2", "inn", "a3n", 90e-15)
        .sym_group(&bank_refs)
        .sym("Xswp", "Xswn")
        .sym("Xdaca", "Xdacb")
        .sym("Xcdp", "Xcdn")
        .sym("Rf1", "Rf2")
        .sym("Cf1", "Cf2")
        .build()
}

/// Install the cell library one stress system needs, with `seed`
/// perturbing drawn sizes so distinct seeds yield distinct (but equally
/// well-formed) corpora.
fn stress_library(nl: &mut Netlist, seed: u64) {
    let r_kohm = 8.0 + (seed % 5) as f64 * 2.0;
    let c_pf = 0.5 + (seed % 3) as f64 * 0.25;
    import_netlist(nl, &ota::ota4(seed));
    import_netlist(nl, &comparator::comp1(seed.wrapping_add(7)));
    nl.add_subckt(dac::current_dac_cell(3.0 + (seed % 4) as f64)).expect("fresh");
    nl.add_subckt(dac::cap_dac_cell("capdac3", 3)).expect("fresh");
    nl.add_subckt(bias_cell()).expect("fresh");
    nl.add_subckt(bootstrap_cell()).expect("fresh");
    nl.add_subckt(integrator_cell("integ_s", "ota4", r_kohm, c_pf)).expect("fresh");
    nl.add_subckt(channel_cell()).expect("fresh");
}

/// The smallest `devices` value [`stress_system`] accepts: one channel
/// (the generator replicates whole channels and decap-fills the rest).
pub fn min_stress_devices() -> usize {
    let mut nl = Netlist::new("probe");
    stress_library(&mut nl, 0);
    template_device_count(&nl, "channel")
}

/// Build a time-interleaved ADC array that flattens to exactly
/// `devices` primitive devices, deterministically in `(devices, seed)`.
///
/// Channels are replicated `devices / per_channel` times; adjacent
/// channels are annotated as matched pairs (interleaved lanes share a
/// layout track); the sub-channel remainder is filled with matched
/// decap banks, mirroring the ADC1–5 assemblers.
///
/// # Panics
///
/// Panics when `devices` is smaller than one channel (a few hundred
/// devices) — the stress corpus starts where the Table III benchmarks
/// leave off.
pub fn stress_system(devices: usize, seed: u64) -> Netlist {
    let mut nl = Netlist::new("stress");
    stress_library(&mut nl, seed);
    let per_channel = template_device_count(&nl, "channel");
    assert!(
        devices >= per_channel,
        "stress system needs at least {per_channel} devices, asked for {devices}"
    );
    let channels = devices / per_channel;

    let mut top = CellBuilder::new(
        "stress",
        ["vinp", "vinn", "clk", "vref", "ibias", "vcm", "vdd", "vss"],
    )
    .class(CircuitClass::Custom("adc_array".into()));
    let names: Vec<String> = (0..channels).map(|i| format!("Xch{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        top = top.inst(
            name,
            "channel",
            [
                "vinp".to_owned(),
                "vinn".to_owned(),
                format!("c{i}d0"),
                format!("c{i}d1"),
                format!("c{i}d2"),
                "clk".to_owned(),
                "vref".to_owned(),
                "ibias".to_owned(),
                "vcm".to_owned(),
                "vdd".to_owned(),
                "vss".to_owned(),
            ],
        );
    }
    for pair in names.chunks(2) {
        if let [a, b] = pair {
            top = top.sym(a, b);
        }
    }
    finish_with_fill(nl, top, "stress", devices)
}

/// A bank of `units` identical active-RC integrators annotated as one
/// matched group — the minimal fixture whose ground truth is a single
/// block array (used by the hierarchical extraction P/R tests).
pub fn integrator_bank(units: usize, seed: u64) -> Netlist {
    assert!(units >= 2, "a bank needs at least two units");
    let mut nl = Netlist::new("integ_bank");
    import_netlist(&mut nl, &ota::ota4(seed));
    nl.add_subckt(integrator_cell("integ_u", "ota4", 12.0, 1.0)).expect("fresh");
    let mut top = CellBuilder::new(
        "integ_bank",
        ["inp", "inn", "vcm", "ibias", "vdd", "vss"],
    )
    .class(CircuitClass::Custom("bank".into()));
    let names: Vec<String> = (0..units).map(|i| format!("Xu{i}")).collect();
    for (i, name) in names.iter().enumerate() {
        top = top.inst(
            name,
            "integ_u",
            [
                "inp".to_owned(),
                "inn".to_owned(),
                format!("o{i}p"),
                format!("o{i}n"),
                "vcm".to_owned(),
                "ibias".to_owned(),
                "vdd".to_owned(),
                "vss".to_owned(),
            ],
        );
    }
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    top = top.sym_group(&refs);
    nl.add_subckt(top.build()).expect("fresh top name");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;
    use ancstr_netlist::write::write_spice;
    use ancstr_netlist::SymmetryKind;

    #[test]
    fn hits_the_requested_device_count_exactly() {
        for devices in [1000usize, 4000] {
            let flat = FlatCircuit::elaborate(&stress_system(devices, 3)).unwrap();
            assert_eq!(flat.devices().len(), devices);
        }
    }

    #[test]
    fn same_arguments_give_byte_identical_spice() {
        let a = write_spice(&stress_system(2000, 9));
        let b = write_spice(&stress_system(2000, 9));
        assert_eq!(a, b);
        let c = write_spice(&stress_system(2000, 10));
        assert_ne!(a, c, "seed must perturb the corpus");
    }

    #[test]
    fn ground_truth_spans_all_hierarchy_levels() {
        let flat = FlatCircuit::elaborate(&stress_system(1500, 1)).unwrap();
        let gt = flat.ground_truth();
        // Top level: adjacent channels are a matched block pair.
        let a = flat.node_by_path("stress/Xch0").unwrap().id;
        let b = flat.node_by_path("stress/Xch1").unwrap().id;
        assert_eq!(gt.get(a, b).unwrap().kind, SymmetryKind::System);
        // Channel level: the integrator bank pairs up.
        let i0 = flat.node_by_path("stress/Xch0/Xint0").unwrap().id;
        let i3 = flat.node_by_path("stress/Xch0/Xint3").unwrap().id;
        assert_eq!(gt.get(i0, i3).unwrap().kind, SymmetryKind::System);
        // Leaf level: device pairs inside the integrator template.
        let r1 = flat.node_by_path("stress/Xch0/Xint0/Rin1").unwrap().id;
        let r2 = flat.node_by_path("stress/Xch0/Xint0/Rin2").unwrap().id;
        assert!(gt.get(r1, r2).is_some());
    }

    #[test]
    fn round_trips_through_spice() {
        use ancstr_netlist::parse::parse_spice;
        let nl = stress_system(1200, 5);
        let text = write_spice(&nl);
        let back = parse_spice(&text).expect("generated corpus parses back");
        let f1 = FlatCircuit::elaborate(&nl).unwrap();
        let f2 = FlatCircuit::elaborate(&back).unwrap();
        assert_eq!(f1.devices().len(), f2.devices().len());
        assert_eq!(f1.ground_truth().len(), f2.ground_truth().len());
    }

    #[test]
    fn integrator_bank_ground_truth_is_one_full_group() {
        let flat = FlatCircuit::elaborate(&integrator_bank(5, 2)).unwrap();
        let ids: Vec<_> = (0..5)
            .map(|i| flat.node_by_path(&format!("integ_bank/Xu{i}")).unwrap().id)
            .collect();
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                assert!(
                    flat.ground_truth().contains_pair(ids[i], ids[j]),
                    "Xu{i}/Xu{j} missing from the bank group"
                );
            }
        }
    }
}
