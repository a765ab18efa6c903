//! ALIGN-compatible JSON constraint export.
//!
//! ALIGN-style placers ingest a JSON document of `SymmBlock` (matched
//! block/device groups around an axis), `SymmNet` (net pairs that must
//! mirror), and array constraints. This module renders the
//! [`HierAnalysis`] of a circuit into that
//! convention — one canonical document:
//!
//! ```json
//! {"Align":[{"count":3,"hierarchy":"top/Xdac","instances":["Cu0","Cu1","Cu2"],
//!            "level":"device","unit":"cap"}],
//!  "SymmBlock":[{"axis":"V","blocks":[],"hierarchy":"top","level":"system",
//!                "pairs":[["X1","X2"]]}],
//!  "SymmNet":[{"axis":"V","hierarchy":"top","net1":"inp","net2":"inn"}],
//!  "circuit":"top","schema":"ancstr-align-v1","warnings":[]}
//! ```
//!
//! Rendering goes through [`ancstr_obs::json::Json`], whose object keys
//! are sorted and whose output is compact and deterministic — so
//! `parse` followed by [`AlignDoc::render`] reproduces the exact bytes,
//! a property the proptest suite pins.

use std::collections::BTreeSet;

use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::order::natural_cmp;
use ancstr_netlist::{ConstraintSet, SymmetryKind};
use ancstr_obs::json::{self, Json};

use crate::HierAnalysis;

/// Schema tag stamped into (and required from) every document.
pub const ALIGN_SCHEMA: &str = "ancstr-align-v1";

/// One matched group: a pair or a block list under one hierarchy node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmBlock {
    /// Hierarchy path the group lives under.
    pub hierarchy: String,
    /// Constraint level (`system` / `device`).
    pub level: String,
    /// Symmetry axis (always `V` — vertical — in this exporter).
    pub axis: String,
    /// Two-member groups, as local-name pairs.
    pub pairs: Vec<(String, String)>,
    /// Groups of three or more, as local names in placement order.
    pub blocks: Vec<String>,
}

/// A mirrored net pair implied by a matched device pair.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SymmNet {
    /// Hierarchy path of the constraint that implied the pair.
    pub hierarchy: String,
    /// First net (natural order).
    pub net1: String,
    /// Second net.
    pub net2: String,
}

/// An array constraint in serialized form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignArray {
    /// Hierarchy path the bank lives under.
    pub hierarchy: String,
    /// Constraint level of the underlying group.
    pub level: String,
    /// Unit cell (device model or subcircuit template).
    pub unit: String,
    /// Member count.
    pub count: usize,
    /// Local instance names in placement order.
    pub instances: Vec<String>,
}

/// The full ALIGN-compatible constraint document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AlignDoc {
    /// Top cell name.
    pub circuit: String,
    /// Matched groups.
    pub symm_blocks: Vec<SymmBlock>,
    /// Mirrored net pairs.
    pub symm_nets: Vec<SymmNet>,
    /// Unit-cell arrays.
    pub arrays: Vec<AlignArray>,
    /// Rendered hierarchy warnings.
    pub warnings: Vec<String>,
}

/// Build the document for an analysis.
pub fn align_doc(flat: &FlatCircuit, analysis: &HierAnalysis) -> AlignDoc {
    let mut symm_blocks = Vec::new();
    for g in &analysis.groups {
        let names: Vec<String> =
            g.members.iter().map(|&m| flat.node(m).name.clone()).collect();
        let (pairs, blocks) = if names.len() == 2 {
            (vec![(names[0].clone(), names[1].clone())], Vec::new())
        } else {
            (Vec::new(), names)
        };
        symm_blocks.push(SymmBlock {
            hierarchy: flat.node(g.hierarchy).path.clone(),
            level: g.kind.to_string(),
            axis: "V".to_owned(),
            pairs,
            blocks,
        });
    }
    AlignDoc {
        circuit: flat.root().name.clone(),
        symm_blocks,
        symm_nets: derive_symm_nets(flat, &analysis.constraints),
        arrays: analysis
            .arrays
            .iter()
            .map(|a| AlignArray {
                hierarchy: flat.node(a.hierarchy).path.clone(),
                level: a.kind.to_string(),
                unit: a.unit.clone(),
                count: a.count,
                instances: a.order.iter().map(|&m| flat.node(m).name.clone()).collect(),
            })
            .collect(),
        warnings: analysis.warnings.iter().map(|w| w.to_string()).collect(),
    }
}

/// Mirror nets: for every matched device pair, pins at the same
/// position whose nets differ must mirror each other. Equal nets are
/// the shared (self-symmetric) nets and carry no pair constraint.
fn derive_symm_nets(flat: &FlatCircuit, constraints: &ConstraintSet) -> Vec<SymmNet> {
    let mut seen = BTreeSet::new();
    for c in constraints.iter() {
        let (a, b) = (c.pair.lo(), c.pair.hi());
        let (Some(da), Some(db)) =
            (flat.node(a).device_index(), flat.node(b).device_index())
        else {
            continue;
        };
        let (da, db) = (&flat.devices()[da], &flat.devices()[db]);
        if da.dtype != db.dtype {
            continue;
        }
        for (&na, &nb) in da.pins.iter().zip(db.pins.iter()) {
            if na == nb {
                continue;
            }
            let (n1, n2) = (flat.net_name(na), flat.net_name(nb));
            let (n1, n2) = if natural_cmp(n1, n2).is_le() { (n1, n2) } else { (n2, n1) };
            seen.insert(SymmNet {
                hierarchy: flat.node(c.hierarchy).path.clone(),
                net1: n1.to_owned(),
                net2: n2.to_owned(),
            });
        }
    }
    let mut nets: Vec<SymmNet> = seen.into_iter().collect();
    nets.sort_by(|x, y| {
        natural_cmp(&x.hierarchy, &y.hierarchy)
            .then_with(|| natural_cmp(&x.net1, &y.net1))
            .then_with(|| natural_cmp(&x.net2, &y.net2))
    });
    nets
}

impl AlignDoc {
    /// The document as a [`Json`] value (sorted keys, canonical).
    pub fn to_json(&self) -> Json {
        let pair_arr = |p: &(String, String)| {
            Json::Arr(vec![Json::from(p.0.as_str()), Json::from(p.1.as_str())])
        };
        let symm_blocks: Vec<Json> = self
            .symm_blocks
            .iter()
            .map(|b| {
                Json::obj()
                    .set("axis", b.axis.as_str())
                    .set("blocks", b.blocks.iter().map(|s| Json::from(s.as_str())).collect::<Vec<_>>())
                    .set("hierarchy", b.hierarchy.as_str())
                    .set("level", b.level.as_str())
                    .set("pairs", b.pairs.iter().map(pair_arr).collect::<Vec<_>>())
            })
            .collect();
        let symm_nets: Vec<Json> = self
            .symm_nets
            .iter()
            .map(|n| {
                Json::obj()
                    .set("axis", "V")
                    .set("hierarchy", n.hierarchy.as_str())
                    .set("net1", n.net1.as_str())
                    .set("net2", n.net2.as_str())
            })
            .collect();
        let arrays: Vec<Json> = self
            .arrays
            .iter()
            .map(|a| {
                Json::obj()
                    .set("count", a.count as u64)
                    .set("hierarchy", a.hierarchy.as_str())
                    .set(
                        "instances",
                        a.instances.iter().map(|s| Json::from(s.as_str())).collect::<Vec<_>>(),
                    )
                    .set("level", a.level.as_str())
                    .set("unit", a.unit.as_str())
            })
            .collect();
        Json::obj()
            .set("Align", arrays)
            .set("SymmBlock", symm_blocks)
            .set("SymmNet", symm_nets)
            .set("circuit", self.circuit.as_str())
            .set("schema", ALIGN_SCHEMA)
            .set(
                "warnings",
                self.warnings.iter().map(|s| Json::from(s.as_str())).collect::<Vec<_>>(),
            )
    }

    /// Serialize to the canonical compact JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Parse a document back from its JSON text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field, or
    /// an unknown schema tag.
    pub fn parse(text: &str) -> Result<AlignDoc, String> {
        let v = json::parse(text)?;
        let schema = str_field(&v, "schema")?;
        if schema != ALIGN_SCHEMA {
            return Err(format!("unknown schema `{schema}` (expected {ALIGN_SCHEMA})"));
        }
        let symm_blocks = arr_field(&v, "SymmBlock")?
            .iter()
            .map(|b| {
                Ok(SymmBlock {
                    hierarchy: str_field(b, "hierarchy")?.to_owned(),
                    level: parse_level(str_field(b, "level")?)?,
                    axis: str_field(b, "axis")?.to_owned(),
                    pairs: arr_field(b, "pairs")?
                        .iter()
                        .map(parse_pair)
                        .collect::<Result<_, String>>()?,
                    blocks: str_list(arr_field(b, "blocks")?)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let symm_nets = arr_field(&v, "SymmNet")?
            .iter()
            .map(|n| {
                Ok(SymmNet {
                    hierarchy: str_field(n, "hierarchy")?.to_owned(),
                    net1: str_field(n, "net1")?.to_owned(),
                    net2: str_field(n, "net2")?.to_owned(),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let arrays = arr_field(&v, "Align")?
            .iter()
            .map(|a| {
                let count = a
                    .get("count")
                    .and_then(Json::as_num)
                    .ok_or("Align entry is missing a numeric `count`")?
                    as usize;
                let instances = str_list(arr_field(a, "instances")?)?;
                if instances.len() != count {
                    return Err(format!(
                        "Align entry count {count} disagrees with {} instances",
                        instances.len()
                    ));
                }
                Ok(AlignArray {
                    hierarchy: str_field(a, "hierarchy")?.to_owned(),
                    level: parse_level(str_field(a, "level")?)?,
                    unit: str_field(a, "unit")?.to_owned(),
                    count,
                    instances,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(AlignDoc {
            circuit: str_field(&v, "circuit")?.to_owned(),
            symm_blocks,
            symm_nets,
            arrays,
            warnings: str_list(arr_field(&v, "warnings")?)?,
        })
    }
}

fn parse_level(s: &str) -> Result<String, String> {
    let system = SymmetryKind::System.to_string();
    let device = SymmetryKind::Device.to_string();
    if s == system || s == device {
        Ok(s.to_owned())
    } else {
        Err(format!("bad level `{s}` (expected `{system}` or `{device}`)"))
    }
}

fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field `{key}`"))
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field `{key}`"))
}

fn str_list(items: &[Json]) -> Result<Vec<String>, String> {
    items
        .iter()
        .map(|s| s.as_str().map(str::to_owned).ok_or_else(|| "non-string list entry".to_owned()))
        .collect()
}

fn parse_pair(p: &Json) -> Result<(String, String), String> {
    match p.as_arr() {
        Some([a, b]) => Ok((
            a.as_str().ok_or("non-string pair member")?.to_owned(),
            b.as_str().ok_or("non-string pair member")?.to_owned(),
        )),
        _ => Err("a pair must be a two-element array".to_owned()),
    }
}

/// One-call exporter: analyze `constraints` hierarchically and render
/// the ALIGN document. This is the formatter the serving layer and the
/// CLI's `--constraint-format align-json` both use.
pub fn export_align(flat: &FlatCircuit, constraints: &ConstraintSet) -> String {
    let analysis = HierAnalysis::analyze(flat, constraints);
    align_doc(flat, &analysis).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_netlist::parse::parse_spice;

    fn fixture() -> FlatCircuit {
        let nl = parse_spice(
            "\
.subckt ota inp inn out vdd vss
M1 out inp tail vss nch w=4u l=0.2u
M2 out inn tail vss nch w=4u l=0.2u
M3 tail vdd vss vss nch w=2u l=0.5u
*.symmetry M1 M2
.ends
.subckt top a b y vdd vss
X1 a b m vdd vss ota
X2 b a y vdd vss ota
C1 a vss 10f
C2 b vss 10f
C3 y vss 10f
*.symmetry X1 X2
*.symmetry C1 C2
*.symmetry C2 C3
.ends
",
        )
        .unwrap();
        FlatCircuit::elaborate(&nl).unwrap()
    }

    #[test]
    fn the_document_round_trips_byte_identically() {
        let flat = fixture();
        let text = export_align(&flat, flat.ground_truth());
        let doc = AlignDoc::parse(&text).unwrap();
        assert_eq!(doc.render(), text);
    }

    #[test]
    fn mirrored_nets_are_derived_from_device_pairs() {
        let flat = fixture();
        let analysis = HierAnalysis::analyze(&flat, flat.ground_truth());
        let doc = align_doc(&flat, &analysis);
        // M1/M2 inside each OTA mirror their gate nets.
        assert!(
            doc.symm_nets.iter().any(|n| n.hierarchy == "top/X1"),
            "expected a net pair under top/X1: {:?}",
            doc.symm_nets
        );
        // The shared tail net is self-symmetric, never a pair with itself.
        assert!(doc.symm_nets.iter().all(|n| n.net1 != n.net2));
    }

    #[test]
    fn parse_rejects_wrong_schema_and_malformed_fields() {
        let flat = fixture();
        let text = export_align(&flat, flat.ground_truth());
        let wrong = text.replace(ALIGN_SCHEMA, "other-v9");
        assert!(AlignDoc::parse(&wrong).unwrap_err().contains("schema"));
        assert!(AlignDoc::parse("{}").is_err());
        assert!(AlignDoc::parse("not json").is_err());
        let bad_level = text.replace("\"system\"", "\"sideways\"");
        if bad_level != text {
            assert!(AlignDoc::parse(&bad_level).is_err());
        }
    }

    #[test]
    fn the_capacitor_group_appears_as_a_blocks_entry() {
        let flat = fixture();
        let analysis = HierAnalysis::analyze(&flat, flat.ground_truth());
        let doc = align_doc(&flat, &analysis);
        let caps: Vec<&SymmBlock> =
            doc.symm_blocks.iter().filter(|b| b.blocks.len() == 3).collect();
        assert_eq!(caps.len(), 1);
        assert_eq!(caps[0].blocks, vec!["C1", "C2", "C3"]);
        assert!(doc.arrays.iter().any(|a| a.unit == "cap" && a.count == 3));
    }
}
