//! Constraint file export/import in the MAGICAL/ALIGN convention:
//! one `sym` line per pair (or `sym_group` per merged group), addressed
//! by hierarchical path relative to the constraint's `T_c`. Reading
//! expands a group to all its pairs; the unmerged pair form
//! ([`write_constraint_pairs`]) reads back as exactly the set written.
//!
//! ```text
//! # hierarchy: adc1
//! sym        system Xdac1a Xdac1b
//! sym_group  device Ca0 Ca1 Cb0 Cb1
//! ```

use std::collections::HashMap;
use std::fmt::Write as _;

use ancstr_netlist::flat::{FlatCircuit, HierNodeId};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};

use crate::groups::merged_groups_sorted;

/// Error returned when parsing a constraint file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseConstraintError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseConstraintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseConstraintError {}

/// Serialize a detection's constraints, grouped per hierarchy and merged
/// into symmetry groups.
pub fn write_constraints(flat: &FlatCircuit, constraints: &ConstraintSet) -> String {
    let groups = merged_groups_sorted(flat, constraints);
    let mut out = String::new();
    let mut current: Option<HierNodeId> = None;
    for g in &groups {
        if current != Some(g.hierarchy) {
            let _ = writeln!(out, "# hierarchy: {}", flat.node(g.hierarchy).path);
            current = Some(g.hierarchy);
        }
        write_group(flat, g.kind, &g.members, &mut out);
    }
    out
}

/// Serialize every constraint as its own `sym` line, with no merging:
/// [`read_constraints`] reads the text back as exactly this set. Lines
/// follow the export order — hierarchy path, then member paths — so the
/// text is canonical for the set.
pub fn write_constraint_pairs(flat: &FlatCircuit, constraints: &ConstraintSet) -> String {
    let rank = |id: HierNodeId| flat.path_rank(id);
    let mut pairs: Vec<(HierNodeId, [HierNodeId; 2], SymmetryKind)> = constraints
        .iter()
        .map(|c| {
            let (a, b) = (c.pair.lo(), c.pair.hi());
            let members = if rank(a) < rank(b) { [a, b] } else { [b, a] };
            (c.hierarchy, members, c.kind)
        })
        .collect();
    pairs.sort_unstable_by_key(|&(h, [a, b], _)| (rank(h), rank(a), rank(b)));
    let mut out = String::new();
    let mut current: Option<HierNodeId> = None;
    for (hierarchy, members, kind) in pairs {
        if current != Some(hierarchy) {
            let _ = writeln!(out, "# hierarchy: {}", flat.node(hierarchy).path);
            current = Some(hierarchy);
        }
        write_group(flat, kind, &members, &mut out);
    }
    out
}

fn write_group(flat: &FlatCircuit, kind: SymmetryKind, members: &[HierNodeId], out: &mut String) {
    out.push_str(if members.len() == 2 { "sym        " } else { "sym_group  " });
    out.push_str(kind.as_str());
    for &m in members {
        out.push(' ');
        out.push_str(&flat.node(m).name);
    }
    out.push('\n');
}

/// Parse a constraint file back against a circuit, resolving local
/// names under each `# hierarchy:` header.
///
/// # Errors
///
/// Returns [`ParseConstraintError`] on unknown hierarchies, unknown
/// member names, bad levels, or malformed lines.
pub fn read_constraints(
    flat: &FlatCircuit,
    text: &str,
) -> Result<ConstraintSet, ParseConstraintError> {
    // First node per full path, as a scan in id order would find it.
    let mut by_path: HashMap<&str, HierNodeId> = HashMap::with_capacity(flat.nodes().len());
    for n in flat.nodes() {
        by_path.entry(n.path.as_str()).or_insert(n.id);
    }
    let mut path = String::new();
    let mut set = ConstraintSet::new();
    let mut hierarchy: Option<HierNodeId> = None;
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# hierarchy:") {
            let header = rest.trim();
            let &node = by_path.get(header).ok_or_else(|| ParseConstraintError {
                line: lineno,
                reason: format!("unknown hierarchy `{header}`"),
            })?;
            hierarchy = Some(node);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let mut tok = line.split_whitespace();
        let keyword = tok.next().expect("non-empty line");
        if keyword != "sym" && keyword != "sym_group" {
            return Err(ParseConstraintError {
                line: lineno,
                reason: format!("unknown keyword `{keyword}`"),
            });
        }
        let Some(tc) = hierarchy else {
            return Err(ParseConstraintError {
                line: lineno,
                reason: "constraint before any `# hierarchy:` header".to_owned(),
            });
        };
        let kind = match tok.next() {
            Some("system") => SymmetryKind::System,
            Some("device") => SymmetryKind::Device,
            other => {
                return Err(ParseConstraintError {
                    line: lineno,
                    reason: format!("bad level `{other:?}`"),
                })
            }
        };
        let tc_path = &flat.node(tc).path;
        let mut members = Vec::new();
        for name in tok {
            path.clear();
            path.push_str(tc_path);
            path.push('/');
            path.push_str(name);
            let &node = by_path.get(path.as_str()).ok_or_else(|| ParseConstraintError {
                line: lineno,
                reason: format!("unknown member `{name}` under `{tc_path}`"),
            })?;
            members.push(node);
        }
        if members.len() < 2 {
            return Err(ParseConstraintError {
                line: lineno,
                reason: "a constraint needs at least two members".to_owned(),
            });
        }
        for a in 0..members.len() {
            for b in (a + 1)..members.len() {
                set.insert(SymmetryConstraint::new(tc, members[a], members[b], kind));
            }
        }
    }
    Ok(set)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;

    fn fixture() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt inv in out vdd vss
Mp out in vdd vdd pch w=2u l=0.1u
Mn out in vss vss nch w=1u l=0.1u
.ends
.subckt top a y vdd vss
X1 a m vdd vss inv
X2 m y vdd vss inv
C1 a vss 10f
C2 y vss 10f
C3 m vss 10f
*.symmetry X1 X2
*.symmetry C1 C2
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    #[test]
    fn round_trip_preserves_constraints() {
        let flat = fixture();
        let text = write_constraints(&flat, flat.ground_truth());
        let back = read_constraints(&flat, &text).unwrap();
        assert_eq!(back.len(), flat.ground_truth().len());
        for c in flat.ground_truth().iter() {
            assert!(back.contains_key(c.pair));
        }
    }

    #[test]
    fn groups_expand_to_all_pairs() {
        let flat = fixture();
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x2 = flat.node_by_path("top/X2").unwrap().id;
        let root = flat.root().id;
        let c1 = flat.node_by_path("top/C1").unwrap().id;
        let c2 = flat.node_by_path("top/C2").unwrap().id;
        let c3 = flat.node_by_path("top/C3").unwrap().id;
        let set: ConstraintSet = [
            SymmetryConstraint::new(root, x1, x2, SymmetryKind::System),
            SymmetryConstraint::new(root, c1, c2, SymmetryKind::System),
            SymmetryConstraint::new(root, c2, c3, SymmetryKind::System),
        ]
        .into_iter()
        .collect();
        let text = write_constraints(&flat, &set);
        assert!(text.contains("sym_group"), "caps merge to a group:\n{text}");
        let back = read_constraints(&flat, &text).unwrap();
        // The 3-cap group expands to all C(3,2) = 3 pairs.
        assert!(back.contains_pair(c1, c3));
        assert_eq!(back.len(), 4);
    }

    /// The pair form is not merged: {X1–X2, C1–C2, C2–C3} reads back as
    /// those three pairs, where the group form yields C1–C3 as well.
    #[test]
    fn pair_form_reads_back_as_the_same_set() {
        let flat = fixture();
        let id = |p: &str| flat.node_by_path(p).unwrap().id;
        let root = flat.root().id;
        let set: ConstraintSet = [
            SymmetryConstraint::new(root, id("top/C2"), id("top/C3"), SymmetryKind::System),
            SymmetryConstraint::new(root, id("top/X1"), id("top/X2"), SymmetryKind::System),
            SymmetryConstraint::new(root, id("top/C1"), id("top/C2"), SymmetryKind::System),
            SymmetryConstraint::new(
                id("top/X1"),
                id("top/X1/Mp"),
                id("top/X1/Mn"),
                SymmetryKind::Device,
            ),
        ]
        .into_iter()
        .collect();
        let text = write_constraint_pairs(&flat, &set);
        assert_eq!(
            text,
            "# hierarchy: top\n\
             sym        system C1 C2\n\
             sym        system C2 C3\n\
             sym        system X1 X2\n\
             # hierarchy: top/X1\n\
             sym        device Mn Mp\n"
        );
        let back = read_constraints(&flat, &text).unwrap();
        assert_eq!(back.len(), set.len());
        for c in set.iter() {
            assert_eq!(back.get(c.pair.lo(), c.pair.hi()), Some(c));
        }
        assert!(!back.contains_pair(id("top/C1"), id("top/C3")));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let flat = fixture();
        let err = read_constraints(&flat, "# hierarchy: nonexistent\n").unwrap_err();
        assert_eq!(err.line, 1);
        let err = read_constraints(&flat, "sym device Mp Mn\n").unwrap_err();
        assert!(err.reason.contains("header"));
        let err =
            read_constraints(&flat, "# hierarchy: top\nsym device X1 GHOST\n").unwrap_err();
        assert!(err.reason.contains("GHOST"));
        let err = read_constraints(&flat, "# hierarchy: top\nfrob device X1 X2\n").unwrap_err();
        assert!(err.reason.contains("frob"));
        let err = read_constraints(&flat, "# hierarchy: top\nsym wrong X1 X2\n").unwrap_err();
        assert!(err.reason.contains("level"));
        let err = read_constraints(&flat, "# hierarchy: top\nsym device X1\n").unwrap_err();
        assert!(err.reason.contains("two members"));
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let flat = fixture();
        let set = read_constraints(
            &flat,
            "\n# a comment\n# hierarchy: top\n\nsym system X1 X2\n",
        )
        .unwrap();
        assert_eq!(set.len(), 1);
    }
}
