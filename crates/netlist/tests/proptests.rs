//! Property-based tests for the netlist crate: SI-value round trips,
//! parser/writer round trips over generated netlists, elaboration
//! invariants, and fault tolerance — byte soup and mutated-valid SPICE
//! must produce located errors, never panics.

use ancstr_netlist::error::ParseNetlistError;
use ancstr_netlist::flat::{FlatCircuit, FlatDevice, HierNode, HierNodeId, HierNodeKind, NetId};
use ancstr_netlist::order::natural_cmp;
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::units::{format_si_value, parse_si_value};
use ancstr_netlist::write::write_spice;
use ancstr_netlist::{
    ConstraintSet, Device, DeviceType, ElaborateError, Element, Geometry, Instance, Netlist,
    Subckt, SymmetryConstraint,
};
use proptest::prelude::*;

#[path = "common/arb_tree.rs"]
mod arb_tree;
/// The crate's test-only elaboration oracle, shared with its unit tests.
#[path = "../src/oracle.rs"]
mod oracle;

proptest! {
    /// format → parse is the identity up to relative rounding error.
    #[test]
    fn si_value_round_trip(mantissa in 0.001f64..999.0, exp in -15i32..9) {
        let v = mantissa * 10f64.powi(exp);
        let s = format_si_value(v);
        let back = parse_si_value(&s).expect("formatted values parse");
        prop_assert!((back - v).abs() <= v.abs() * 1e-5, "{v} -> {s} -> {back}");
    }

    /// parse never panics on arbitrary input — it returns Ok or Err.
    #[test]
    fn parser_never_panics(s in "\\PC{0,200}") {
        let _ = parse_spice(&s);
    }

    /// parse never panics on line-structured SPICE-ish input.
    #[test]
    fn parser_never_panics_on_cards(
        lines in prop::collection::vec("[MRCLXQD.*+][a-z0-9 =._]{0,40}", 0..20)
    ) {
        let src = lines.join("\n");
        let _ = parse_spice(&src);
    }
}

/// A parse error must render a message, and when it carries a source
/// location, that location must be a real line of the input.
fn prop_assert_parse_error_is_located(
    e: &ParseNetlistError,
    line_count: usize,
) -> Result<(), TestCaseError> {
    prop_assert!(!e.to_string().is_empty());
    let line = match e {
        ParseNetlistError::MalformedCard { line, .. }
        | ParseNetlistError::BadNumber { line, .. }
        | ParseNetlistError::UnmatchedEnds { line }
        | ParseNetlistError::NestedSubckt { line }
        | ParseNetlistError::DuplicateSubckt { line, .. }
        | ParseNetlistError::CardOutsideSubckt { line } => Some(*line),
        _ => None,
    };
    if let Some(line) = line {
        prop_assert!(
            (1..=line_count).contains(&line),
            "error names line {line}, input has {line_count}"
        );
    }
    Ok(())
}

/// Strategy: a random single-subckt netlist with MOS devices and passives.
fn arb_netlist() -> impl Strategy<Value = Netlist> {
    let dev = (0usize..7, 1u32..5, 1u32..5).prop_map(|(t, w, l)| {
        let types = [
            DeviceType::Nch,
            DeviceType::NchLvt,
            DeviceType::Pch,
            DeviceType::PchLvt,
            DeviceType::Resistor,
            DeviceType::Capacitor,
            DeviceType::CfmomCapacitor,
        ];
        (types[t], f64::from(w), f64::from(l))
    });
    prop::collection::vec(dev, 1..12).prop_map(|devs| {
        let mut leaf = Subckt::new("leaf", ["a", "b", "vdd", "vss"]);
        for (i, (t, w, l)) in devs.into_iter().enumerate() {
            let nets = ["a", "b", "vdd", "vss"];
            let pins: Vec<String> = (0..t.pin_count())
                .map(|p| nets[(i + p) % nets.len()].to_owned())
                .collect();
            let prefix = match t {
                t if t.is_mos() => "M",
                DeviceType::Resistor => "R",
                _ => "C",
            };
            let name = format!("{prefix}{i}");
            let mut d = Device::new(name, t, pins, Geometry::new(l, w)).expect("pin count matches");
            if t.is_mos() {
                d.bulk = Some("vss".to_owned());
            }
            leaf.push_device(d).expect("unique names");
        }
        let mut top = Subckt::new("top", ["x", "y", "vdd", "vss"]);
        for k in 0..2 {
            top.push_instance(Instance {
                name: format!("X{k}"),
                subckt: "leaf".into(),
                connections: vec!["x".into(), "y".into(), "vdd".into(), "vss".into()],
            })
            .expect("unique names");
        }
        let mut nl = Netlist::new("top");
        nl.add_subckt(leaf).expect("fresh library");
        nl.add_subckt(top).expect("fresh library");
        nl
    })
}

proptest! {
    /// write → parse preserves template structure.
    #[test]
    fn writer_round_trips(nl in arb_netlist()) {
        let text = write_spice(&nl);
        let back = parse_spice(&text).expect("writer output parses");
        prop_assert_eq!(back.top(), nl.top());
        for sub in nl.iter() {
            let b = back.subckt(&sub.name).expect("template survives");
            prop_assert_eq!(b.devices().count(), sub.devices().count());
            prop_assert_eq!(b.instances().count(), sub.instances().count());
        }
    }

    /// Dropping any one line from a valid netlist never panics in the
    /// parser or the elaborator, and any parse error points at a real
    /// source line.
    #[test]
    fn mutated_netlist_line_drop_never_panics(nl in arb_netlist(), pick in 0usize..4096) {
        let text = write_spice(&nl);
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(pick % lines.len());
        let mutated = lines.join("\n");
        match parse_spice(&mutated) {
            Ok(back) => { let _ = FlatCircuit::elaborate(&back); }
            Err(e) => prop_assert_parse_error_is_located(&e, lines.len())?,
        }
    }

    /// Dropping any one token from any one card never panics, and the
    /// error (if any) names the offending line or device.
    #[test]
    fn mutated_netlist_token_drop_never_panics(
        nl in arb_netlist(),
        pick_line in 0usize..4096,
        pick_token in 0usize..4096,
    ) {
        let text = write_spice(&nl);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let i = pick_line % lines.len();
        let mut tokens: Vec<&str> = lines[i].split_whitespace().collect();
        if !tokens.is_empty() {
            tokens.remove(pick_token % tokens.len());
            lines[i] = tokens.join(" ");
        }
        let mutated = lines.join("\n");
        match parse_spice(&mutated) {
            Ok(back) => {
                if let Err(e) = FlatCircuit::elaborate(&back) {
                    prop_assert!(!e.to_string().is_empty());
                }
            }
            Err(e) => prop_assert_parse_error_is_located(&e, lines.len())?,
        }
    }

    /// Overwriting any one character with arbitrary printable ASCII
    /// never panics anywhere in parse → elaborate.
    #[test]
    fn mutated_netlist_char_flip_never_panics(
        nl in arb_netlist(),
        pick in 0usize..4096,
        replacement in 0x20u8..0x7F,
    ) {
        let text = write_spice(&nl);
        let mut chars: Vec<char> = text.chars().collect();
        let i = pick % chars.len();
        chars[i] = char::from(replacement);
        let mutated: String = chars.into_iter().collect();
        match parse_spice(&mutated) {
            Ok(back) => { let _ = FlatCircuit::elaborate(&back); }
            Err(e) => prop_assert_parse_error_is_located(&e, mutated.lines().count())?,
        }
    }

    /// Elaboration invariants: device count is (leaf devices × instances),
    /// every node's span nests inside its parent's, and DFS leaf order
    /// matches the device list.
    #[test]
    fn elaboration_invariants(nl in arb_netlist()) {
        let flat = FlatCircuit::elaborate(&nl).expect("valid by construction");
        let per_leaf = nl.subckt("leaf").expect("exists").devices().count();
        prop_assert_eq!(flat.devices().len(), 2 * per_leaf);
        for n in flat.nodes() {
            if let Some(p) = n.parent {
                let ps = flat.node(p).device_span;
                prop_assert!(ps.0 <= n.device_span.0 && n.device_span.1 <= ps.1);
            }
            if let Some(i) = n.device_index() {
                prop_assert_eq!(flat.devices()[i].node, n.id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compiled templates elaborate to exactly what the name-keyed
    /// expansion builds: nets, nodes, devices and ground truth.
    #[test]
    fn compiled_elaboration_matches_the_oracle(nl in arb_tree::arb_hierarchy()) {
        match (FlatCircuit::elaborate(&nl), oracle::elaborate(&nl)) {
            (Ok(flat), Ok(reference)) => oracle::assert_matches(&flat, &reference),
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "{:?} vs {:?}", a.err(), b.err()),
        }
    }

    /// One tree walk ranks every node exactly as sorting the full paths
    /// with `natural_cmp` does.
    #[test]
    fn path_rank_is_natural_path_order(nl in arb_tree::arb_hierarchy()) {
        let flat = FlatCircuit::elaborate(&nl).expect("valid by construction");
        let mut by_path: Vec<&HierNode> = flat.nodes().iter().collect();
        by_path.sort_by(|a, b| natural_cmp(&a.path, &b.path));
        for (i, n) in by_path.iter().enumerate() {
            prop_assert_eq!(flat.path_rank(n.id), i, "{}", n.path);
        }
    }
}
