//! Downstream hand-off: extract constraints, merge them into symmetry
//! groups, detect self-symmetric (axis) devices, and round-trip the
//! result through the MAGICAL-style constraint file format a placer
//! would consume.
//!
//! ```text
//! cargo run -p ancstr-bench --example export_constraints
//! ```

use ancstr_core::detect::detect_self_symmetric;
use ancstr_core::groups::merge_groups;
use ancstr_core::{read_constraints, write_constraints, ExtractorConfig, SymmetryExtractor};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::parse::parse_spice;

const NETLIST: &str = "\
.subckt latchcore q qb en vdd vss
M1 q qb tail vss nch_lvt w=4u l=0.1u
M2 qb q tail vss nch_lvt w=4u l=0.1u
M3 q qb vdd vdd pch_lvt w=8u l=0.1u
M4 qb q vdd vdd pch_lvt w=8u l=0.1u
M5 tail en vss vss nch w=2u l=0.2u
C1 q vss 10f
C2 qb vss 10f
C3 q vss 10f
C4 qb vss 10f
.ends
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nl = parse_spice(NETLIST)?;
    let flat = FlatCircuit::elaborate(&nl)?;

    let config = ExtractorConfig::default();
    let mut extractor = SymmetryExtractor::new(config.clone());
    extractor.fit(&[&flat]);
    let result = extractor.extract(&flat);

    // 1. Pairwise constraints merge into groups (the four caps form one
    //    matched array group, not six separate pairs).
    let groups = merge_groups(&result.detection.constraints);
    println!("{} pairwise constraints -> {} groups", result.detection.constraints.len(), groups.len());
    for g in &groups {
        let names: Vec<&str> = g.members.iter().map(|&m| flat.node(m).name.as_str()).collect();
        println!("  [{}] {}", g.kind, names.join(" "));
    }
    let cap_group = groups.iter().find(|g| g.len() == 4);
    assert!(cap_group.is_some(), "the 4 matched caps merge into one group");

    // 2. The tail device M5 bridges the matched halves: self-symmetric.
    let z = extractor.vertex_embeddings(&flat);
    let axis = detect_self_symmetric(&flat, &z, &result.detection, 0.99, &config.build);
    let axis_names: Vec<&str> = axis.iter().map(|&m| flat.node(m).name.as_str()).collect();
    println!("\nself-symmetric (axis) devices: {axis_names:?}");
    assert!(axis_names.contains(&"M5"), "tail flagged on the axis");

    // 3. File round trip.
    let text = write_constraints(&flat, &result.detection.constraints);
    println!("\nconstraint file:\n{text}");
    let back = read_constraints(&flat, &text)?;
    assert_eq!(back.len(), result.detection.constraints.len());
    println!("round trip preserved all {} constraints", back.len());
    Ok(())
}
