//! Test-only oracle for elaboration: the name-keyed expansion that
//! resolves every instance's nets through a `HashMap<String, NetId>`
//! built from [`Subckt::nets`], which the compiled templates of
//! `flat.rs` must reproduce exactly.
//!
//! Compiled only into tests — as `crate::oracle` for this crate's unit
//! tests and, through a `#[path]` module, into the integration tests
//! that elaborate generated designs. It reads nothing but public API
//! and imports it through `super`: the crate root here, the test
//! crate's root (which imports it from `ancstr_netlist`) there.

use std::collections::HashMap;

use super::{
    ConstraintSet, ElaborateError, Element, FlatCircuit, FlatDevice, HierNode, HierNodeId,
    HierNodeKind, NetId, Netlist, Subckt, SymmetryConstraint,
};

/// Everything elaboration produces, as the oracle builds it.
#[derive(Debug)]
pub struct Reference {
    /// Flat devices in DFS order.
    pub devices: Vec<FlatDevice>,
    /// Global net names by id.
    pub net_names: Vec<String>,
    /// Hierarchy nodes by id.
    pub nodes: Vec<HierNode>,
    /// The root's id.
    pub root: HierNodeId,
    /// `(T_c, a, b)` ground-truth triples in expansion order.
    pub ground_truth: Vec<(HierNodeId, HierNodeId, HierNodeId)>,
}

/// Elaborate `netlist` the name-keyed way.
pub fn elaborate(netlist: &Netlist) -> Result<Reference, ElaborateError> {
    netlist.validate()?;
    let top = netlist
        .top_subckt()
        .ok_or_else(|| ElaborateError::UnknownSubckt {
            instance: "<top>".to_owned(),
            subckt: netlist.top().to_owned(),
        })?;
    let mut b = Builder {
        netlist,
        reference: Reference {
            devices: Vec::new(),
            net_names: Vec::new(),
            nodes: Vec::new(),
            root: HierNodeId(0),
            ground_truth: Vec::new(),
        },
    };
    let root = b.new_node(
        top.name.clone(),
        top.name.clone(),
        HierNodeKind::Block {
            subckt: top.name.clone(),
            class: top.class.clone(),
        },
        None,
        0,
    );
    let mut port_map = HashMap::new();
    for p in &top.ports {
        let id = NetId(b.reference.net_names.len());
        b.reference.net_names.push(p.clone());
        port_map.insert(p.clone(), id);
    }
    b.expand(top, root, &top.name.clone(), port_map, 0)?;
    b.reference.root = root;
    Ok(b.reference)
}

/// Panic unless `flat` holds exactly what the oracle built: the same
/// devices, nodes, root, net names and classified ground truth (in
/// insertion order).
pub fn assert_matches(flat: &FlatCircuit, r: &Reference) {
    assert_eq!(flat.devices(), r.devices.as_slice(), "devices");
    assert_eq!(flat.nodes(), r.nodes.as_slice(), "hierarchy nodes");
    assert_eq!(flat.root().id, r.root, "root");
    let names: Vec<&str> = (0..flat.net_count())
        .map(|i| flat.net_name(NetId(i)))
        .collect();
    assert_eq!(names, r.net_names, "net names");
    let gt: ConstraintSet = r
        .ground_truth
        .iter()
        .map(|&(tc, a, b)| SymmetryConstraint::new(tc, a, b, flat.classify_pair(tc, a, b)))
        .collect();
    assert_eq!(flat.ground_truth(), &gt, "ground truth");
}

struct Builder<'a> {
    netlist: &'a Netlist,
    reference: Reference,
}

impl Builder<'_> {
    fn new_node(
        &mut self,
        name: String,
        path: String,
        kind: HierNodeKind,
        parent: Option<HierNodeId>,
        depth: usize,
    ) -> HierNodeId {
        let nodes = &mut self.reference.nodes;
        let id = HierNodeId(nodes.len());
        let span_start = self.reference.devices.len();
        nodes.push(HierNode {
            id,
            name,
            path,
            kind,
            parent,
            children: Vec::new(),
            device_span: (span_start, span_start),
            depth,
        });
        if let Some(p) = parent {
            nodes[p.0].children.push(id);
        }
        id
    }

    fn expand(
        &mut self,
        subckt: &Subckt,
        node: HierNodeId,
        path: &str,
        port_map: HashMap<String, NetId>,
        depth: usize,
    ) -> Result<(), ElaborateError> {
        let mut net_of: HashMap<String, NetId> = port_map;
        for local in subckt.nets() {
            if let std::collections::hash_map::Entry::Vacant(slot) = net_of.entry(local) {
                let name = format!("{path}/{}", slot.key());
                let id = NetId(self.reference.net_names.len());
                self.reference.net_names.push(name);
                slot.insert(id);
            }
        }

        let mut child_of_element: HashMap<&str, HierNodeId> = HashMap::new();
        for element in &subckt.elements {
            match element {
                Element::Device(d) => {
                    let dev_path = format!("{path}/{}", d.name);
                    let dev_index = self.reference.devices.len();
                    let child = self.new_node(
                        d.name.clone(),
                        dev_path,
                        HierNodeKind::Device(dev_index),
                        Some(node),
                        depth + 1,
                    );
                    let pins = d.pins.iter().map(|n| net_of[n.as_str()]).collect();
                    let bulk = d.bulk.as_ref().map(|n| net_of[n.as_str()]);
                    self.reference.devices.push(FlatDevice {
                        dtype: d.dtype,
                        geometry: d.geometry,
                        value: d.value,
                        multiplier: d.multiplier,
                        pins,
                        bulk,
                        node: child,
                    });
                    self.reference.nodes[child.0].device_span = (dev_index, dev_index + 1);
                    child_of_element.insert(d.name.as_str(), child);
                }
                Element::Instance(inst) => {
                    let template = self
                        .netlist
                        .subckt(&inst.subckt)
                        .expect("netlist validated before expansion");
                    let inst_path = format!("{path}/{}", inst.name);
                    let child = self.new_node(
                        inst.name.clone(),
                        inst_path.clone(),
                        HierNodeKind::Block {
                            subckt: template.name.clone(),
                            class: template.class.clone(),
                        },
                        Some(node),
                        depth + 1,
                    );
                    let child_ports: HashMap<String, NetId> = template
                        .ports
                        .iter()
                        .zip(&inst.connections)
                        .map(|(port, net)| (port.clone(), net_of[net.as_str()]))
                        .collect();
                    self.expand(template, child, &inst_path, child_ports, depth + 1)?;
                    let end = self.reference.devices.len();
                    let start = self.reference.nodes[child.0].device_span.0;
                    self.reference.nodes[child.0].device_span = (start, end);
                    child_of_element.insert(inst.name.as_str(), child);
                }
            }
        }

        for (a, b) in &subckt.sym_pairs {
            let (Some(&na), Some(&nb)) = (
                child_of_element.get(a.as_str()),
                child_of_element.get(b.as_str()),
            ) else {
                return Err(ElaborateError::UnknownSymmetryElement {
                    subckt: subckt.name.clone(),
                    element: if child_of_element.contains_key(a.as_str()) {
                        b.clone()
                    } else {
                        a.clone()
                    },
                });
            };
            self.reference.ground_truth.push((node, na, nb));
        }

        let end = self.reference.devices.len();
        let start = self.reference.nodes[node.0].device_span.0;
        self.reference.nodes[node.0].device_span = (start, end);
        Ok(())
    }
}
