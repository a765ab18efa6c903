//! The Fig. 2 clock circuit: part of a SAR ADC clock tree whose
//! system-level symmetry constraints only hold *with sizing considered*.
//!
//! The template instantiates inverters of several drive strengths. The
//! matched groups pair instances of equal drive on mirrored paths; a
//! sizing-blind detector annotates *all* the inverters as one symmetry
//! group because their topologies are identical — the paper's
//! false-alarm example.

use ancstr_netlist::{CircuitClass, Netlist, Subckt};

use crate::builder::CellBuilder;
use crate::digital::{install_digital_library, inv_name};

/// The clock-tree template (instantiates `inv_x1/x2/x4/x8`).
fn clock_cell() -> Subckt {
    CellBuilder::new(
        "clkgen",
        ["clk_in", "ckp", "ckn", "ck_cmp", "vdd", "vss"],
    )
    .class(CircuitClass::Clock)
    // Mirrored complementary-clock branches off the same source:
    // x1 → x2 → x4 per side.
    .inst("Xp1", &inv_name(1), ["clk_in", "p1", "vdd", "vss"])
    .inst("Xp2", &inv_name(2), ["p1", "p2", "vdd", "vss"])
    .inst("Xp4", &inv_name(4), ["p2", "ckp", "vdd", "vss"])
    .inst("Xn1", &inv_name(1), ["clk_in", "n1", "vdd", "vss"])
    .inst("Xn2", &inv_name(2), ["n1", "n2", "vdd", "vss"])
    .inst("Xn4", &inv_name(4), ["n2", "ckn", "vdd", "vss"])
    // Comparator-clock branch with a *different* drive: same topology
    // as the others, but unmatched (the sizing trap).
    .inst("Xc8", &inv_name(8), ["clk_in", "ck_cmp", "vdd", "vss"])
    // Matched pairs: equal-drive instances across the two paths.
    .sym("Xp1", "Xn1")
    .sym("Xp2", "Xn2")
    .sym("Xp4", "Xn4")
    .build()
}

/// Build the clock circuit netlist (Fig. 2).
pub fn clock_circuit() -> Netlist {
    let mut nl = Netlist::new("clkgen");
    install_digital_library(&mut nl, &[1, 2, 4, 8], false);
    nl.add_subckt(clock_cell()).expect("single clkgen template");
    nl
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::flat::FlatCircuit;
    use ancstr_netlist::SymmetryKind;

    #[test]
    fn clock_elaborates_with_system_constraints() {
        let flat = FlatCircuit::elaborate(&clock_circuit()).unwrap();
        // 7 inverters × 2 devices.
        assert_eq!(flat.devices().len(), 14);
        let gt = flat.ground_truth();
        assert_eq!(gt.len(), 3);
        for c in gt.iter() {
            assert_eq!(c.kind, SymmetryKind::System);
        }
    }

    #[test]
    fn unmatched_inverter_has_distinct_sizing() {
        let flat = FlatCircuit::elaborate(&clock_circuit()).unwrap();
        let x8 = flat
            .devices()
            .iter()
            .find(|d| flat.node(d.node).path.contains("Xc8"))
            .unwrap();
        let x1 = flat
            .devices()
            .iter()
            .find(|d| flat.node(d.node).path.contains("Xp1"))
            .unwrap();
        assert!(x8.geometry.width > x1.geometry.width * 4.0);
    }
}
