//! Elaboration: expand a hierarchical [`Netlist`] into a flat device/net
//! list plus the hierarchy tree `T` of Problem 1.
//!
//! The tree's internal nodes are *building blocks* (subcircuit instances)
//! and its leaves are *primitive elements* (devices). Devices are laid out
//! in DFS order so every node's descendant devices form a contiguous
//! range, which makes per-subcircuit multigraph extraction cheap.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::constraint::{ConstraintSet, SymmetryConstraint, SymmetryKind};
use crate::device::{Device, DeviceType, Geometry, PortType};
use crate::error::ElaborateError;
use crate::netlist::Netlist;
use crate::order::natural_cmp_suffixed;
use crate::subckt::{CircuitClass, Element, Instance, Subckt};

/// Identifier of a node in the elaborated hierarchy tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierNodeId(pub usize);

impl fmt::Display for HierNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Identifier of a global (elaborated) net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a hierarchy node is: a building block or a primitive element.
#[derive(Debug, Clone, PartialEq)]
pub enum HierNodeKind {
    /// An instance of a subcircuit template.
    Block {
        /// Template name.
        subckt: String,
        /// Functional class of the template.
        class: CircuitClass,
    },
    /// A primitive device; the payload indexes [`FlatCircuit::devices`].
    Device(usize),
}

/// The *module type* of a hierarchy node, used by the valid-pair rule
/// ("nonidentical types is considered invalid", Section III-A).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModuleType {
    /// A primitive device of the given type.
    Device(DeviceType),
    /// A building block of the given class.
    Block(CircuitClass),
}

/// A node of the elaborated hierarchy tree `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct HierNode {
    /// This node's id.
    pub id: HierNodeId,
    /// Local element name (instance or device name); the root uses the
    /// top template's name.
    pub name: String,
    /// Full hierarchical path (`top/X1/M2`).
    pub path: String,
    /// Block or device.
    pub kind: HierNodeKind,
    /// Parent node (`None` for the root).
    pub parent: Option<HierNodeId>,
    /// Children in declaration order (empty for devices).
    pub children: Vec<HierNodeId>,
    /// Half-open range of flat-device indices beneath this node.
    pub device_span: (usize, usize),
    /// Depth in the tree (root = 0).
    pub depth: usize,
}

impl HierNode {
    /// Whether this node is a building block (internal node).
    pub fn is_block(&self) -> bool {
        matches!(self.kind, HierNodeKind::Block { .. })
    }

    /// The flat-device index, if this node is a device.
    pub fn device_index(&self) -> Option<usize> {
        match self.kind {
            HierNodeKind::Device(i) => Some(i),
            HierNodeKind::Block { .. } => None,
        }
    }

    /// Number of devices beneath (or at) this node.
    pub fn device_count(&self) -> usize {
        self.device_span.1 - self.device_span.0
    }
}

/// A fully elaborated (flattened) device with globally resolved nets.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatDevice {
    /// Device type.
    pub dtype: DeviceType,
    /// Shape parameters.
    pub geometry: Geometry,
    /// Component value where applicable.
    pub value: Option<f64>,
    /// Device multiplier.
    pub multiplier: u32,
    /// Globally resolved nets, one per typed pin.
    pub pins: Vec<NetId>,
    /// Globally resolved bulk net, if any.
    pub bulk: Option<NetId>,
    /// The hierarchy leaf representing this device; its path is the
    /// device's path.
    pub node: HierNodeId,
}

impl FlatDevice {
    /// Iterator over `(net, port_type)` pairs for the typed pins.
    pub fn typed_pins(&self) -> impl Iterator<Item = (NetId, PortType)> + '_ {
        self.pins
            .iter()
            .copied()
            .zip(self.dtype.port_types().iter().copied())
    }
}

/// The elaborated design: flat devices, global nets, the hierarchy tree,
/// and the expanded ground-truth constraints.
#[derive(Debug, Clone)]
pub struct FlatCircuit {
    devices: Vec<FlatDevice>,
    net_names: Vec<String>,
    nodes: Vec<HierNode>,
    root: HierNodeId,
    /// The expanded `(T_c, a, b)` annotations, in expansion order.
    annotated: Vec<(HierNodeId, HierNodeId, HierNodeId)>,
    /// `annotated` classified, built by the first
    /// [`FlatCircuit::ground_truth`] call: extraction never reads it.
    ground_truth: OnceLock<ConstraintSet>,
    /// Each node's position in natural path order, by node id.
    path_rank: Vec<usize>,
}

/// Equal designs have equal annotations; whether either has classified
/// them yet does not matter.
impl PartialEq for FlatCircuit {
    fn eq(&self, other: &FlatCircuit) -> bool {
        self.devices == other.devices
            && self.net_names == other.net_names
            && self.nodes == other.nodes
            && self.root == other.root
            && self.annotated == other.annotated
            && self.path_rank == other.path_rank
    }
}

impl FlatCircuit {
    /// Elaborate a netlist from its top cell.
    ///
    /// # Errors
    ///
    /// Propagates any [`ElaborateError`] from validation (unknown
    /// templates, port/pin mismatches, recursion, bad annotations).
    pub fn elaborate(netlist: &Netlist) -> Result<FlatCircuit, ElaborateError> {
        netlist.validate()?;
        let top = netlist.top_subckt().ok_or_else(|| ElaborateError::UnknownSubckt {
            instance: "<top>".to_owned(),
            subckt: netlist.top().to_owned(),
        })?;

        let templates = compile_templates(netlist, top);
        let mut b = Builder {
            devices: Vec::new(),
            net_names: Vec::new(),
            nodes: Vec::new(),
            annotated: Vec::new(),
        };

        // Root node for the top cell.
        let root = b.new_node(
            top.name.clone(),
            top.name.clone(),
            HierNodeKind::Block { subckt: top.name.clone(), class: top.class.clone() },
            None,
            0,
        );
        // Top-level ports get fresh global nets named after themselves; a
        // repeated port name resolves to its last net.
        let mut nets = vec![None; templates[0].nets.len()];
        for (p, &local) in top.ports.iter().zip(&templates[0].port_local) {
            nets[local] = Some(b.new_net(p.clone()));
        }
        b.expand(&templates, 0, root, &top.name, nets, 0);

        let path_rank = natural_path_ranks(&b.nodes, root);
        Ok(FlatCircuit {
            devices: b.devices,
            net_names: b.net_names,
            nodes: b.nodes,
            root,
            annotated: b.annotated,
            ground_truth: OnceLock::new(),
            path_rank,
        })
    }

    /// The flattened devices in DFS order.
    pub fn devices(&self) -> &[FlatDevice] {
        &self.devices
    }

    /// All hierarchy nodes, indexed by [`HierNodeId`].
    pub fn nodes(&self) -> &[HierNode] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn node(&self, id: HierNodeId) -> &HierNode {
        &self.nodes[id.0]
    }

    /// The root (top cell) node.
    pub fn root(&self) -> &HierNode {
        &self.nodes[self.root.0]
    }

    /// Number of global nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a global net.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this circuit.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.0]
    }

    /// The designer ground-truth constraints, expanded per instance.
    /// Classified on the first call.
    pub fn ground_truth(&self) -> &ConstraintSet {
        self.ground_truth.get_or_init(|| {
            self.annotated
                .iter()
                .map(|&(tc, a, b)| SymmetryConstraint::new(tc, a, b, self.classify_pair(tc, a, b)))
                .collect()
        })
    }

    /// Indices of the flat devices beneath `node` (contiguous DFS range).
    pub fn subtree_device_indices(&self, node: HierNodeId) -> std::ops::Range<usize> {
        let n = self.node(node);
        n.device_span.0..n.device_span.1
    }

    /// Iterator over block (internal) nodes in DFS order.
    pub fn blocks(&self) -> impl Iterator<Item = &HierNode> {
        self.nodes.iter().filter(|n| n.is_block())
    }

    /// The module type of a node (device type for leaves, circuit class
    /// for blocks).
    pub fn module_type(&self, id: HierNodeId) -> ModuleType {
        match &self.node(id).kind {
            HierNodeKind::Device(i) => ModuleType::Device(self.devices[*i].dtype),
            HierNodeKind::Block { class, .. } => ModuleType::Block(class.clone()),
        }
    }

    /// Classify the pair `{a, b}` under `tc` as system- or device-level
    /// per Section III-A: system-level when the pair are building blocks,
    /// or are passive devices while other subcircuits exist under `T_c`;
    /// device-level otherwise.
    pub fn classify_pair(&self, tc: HierNodeId, a: HierNodeId, b: HierNodeId) -> SymmetryKind {
        self.classify_pair_under(self.has_sub_blocks(tc), a, b)
    }

    /// Whether some child of `tc` is a building block.
    pub fn has_sub_blocks(&self, tc: HierNodeId) -> bool {
        self.node(tc).children.iter().any(|&c| self.node(c).is_block())
    }

    /// [`FlatCircuit::classify_pair`] under a parent whose
    /// [`FlatCircuit::has_sub_blocks`] is `parent_has_blocks`, so a
    /// caller that classifies many pairs of one parent scans its
    /// children once.
    pub fn classify_pair_under(
        &self,
        parent_has_blocks: bool,
        a: HierNodeId,
        b: HierNodeId,
    ) -> SymmetryKind {
        let both_blocks = self.node(a).is_block() && self.node(b).is_block();
        let both_passive = [a, b].iter().all(|&n| match &self.node(n).kind {
            HierNodeKind::Device(i) => self.devices[*i].dtype.is_passive(),
            HierNodeKind::Block { .. } => false,
        });
        if both_blocks || (parent_has_blocks && both_passive) {
            SymmetryKind::System
        } else {
            SymmetryKind::Device
        }
    }

    /// The node's position when every node is sorted by
    /// [`natural_cmp`](crate::order::natural_cmp) of its full path:
    /// comparing two ranks compares the two paths, with no string work.
    /// Holds whenever sibling names are distinct and contain no `/`.
    pub fn path_rank(&self, id: HierNodeId) -> usize {
        self.path_rank[id.0]
    }

    /// Look up a hierarchy node by full path.
    pub fn node_by_path(&self, path: &str) -> Option<&HierNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Size of the largest proper subcircuit (block other than the root),
    /// in devices — the `|N̂_sub|` of Eq. 4. Zero when the design is flat.
    pub fn max_subcircuit_size(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.is_block() && n.id != self.root)
            .map(HierNode::device_count)
            .max()
            .unwrap_or(0)
    }
}

/// Every node's rank in natural path order, from one walk of the tree.
///
/// A child's path extends its parent's by `/name`, so two paths under
/// the same parent first differ inside the sibling names — or one
/// sibling's path ends where the other's continues. Below each block
/// the walk therefore visits two kinds of entry per child, sorted
/// together: the child itself, keyed by its name, and the subtree below
/// a block child, keyed by its name plus `/`. Mostly a child's subtree
/// directly follows the child (plain pre-order), but a sibling such as
/// `X-1` sorts between `X` and `X/...` (`-` precedes `/`), and the
/// separate entries keep that.
fn natural_path_ranks(nodes: &[HierNode], root: HierNodeId) -> Vec<usize> {
    let mut rank = vec![0; nodes.len()];
    let mut next = 0;
    // (node, whether the entry is the subtree below it)
    let mut stack = vec![(root, true), (root, false)];
    let mut entries = Vec::new();
    while let Some((id, below)) = stack.pop() {
        if !below {
            rank[id.0] = next;
            next += 1;
            continue;
        }
        entries.clear();
        for &c in &nodes[id.0].children {
            entries.push((c, false));
            if !nodes[c.0].children.is_empty() {
                entries.push((c, true));
            }
        }
        entries.sort_by(|&(a, a_below), &(b, b_below)| {
            natural_cmp_suffixed(&nodes[a.0].name, a_below, &nodes[b.0].name, b_below)
        });
        stack.extend(entries.iter().rev());
    }
    rank
}

/// A subcircuit template resolved to local indices once per
/// elaboration, so expanding an instance touches no net or element
/// names beyond the paths it creates.
struct Template<'a> {
    subckt: &'a Subckt,
    /// Local net names: ports first, then every other net in first-use
    /// order (the order of [`Subckt::nets`]).
    nets: Vec<&'a str>,
    /// Local net of each port, in port order.
    port_local: Vec<usize>,
    /// The body's elements with their connectivity, in order.
    body: Vec<Body<'a>>,
    /// `sym_pairs` as element indices (validation has rejected unknown
    /// names).
    sym_pairs: Vec<(usize, usize)>,
}

/// One element with its connectivity in local net indices.
enum Body<'a> {
    Device { device: &'a Device, pins: Vec<usize>, bulk: Option<usize> },
    Instance { instance: &'a Instance, template: usize, connections: Vec<usize> },
}

/// Compile the templates reachable from the top cell, the top first.
fn compile_templates<'a>(netlist: &'a Netlist, top: &'a Subckt) -> Vec<Template<'a>> {
    let mut slots = Vec::new();
    compile_template(netlist, top, &mut slots, &mut HashMap::new());
    slots.into_iter().map(|t| t.expect("every slot compiled")).collect()
}

/// Compile `subckt` and every template beneath it not yet in `index`;
/// returns its slot. Recursion ends because validation rejects cycles.
fn compile_template<'a>(
    netlist: &'a Netlist,
    subckt: &'a Subckt,
    slots: &mut Vec<Option<Template<'a>>>,
    index: &mut HashMap<&'a str, usize>,
) -> usize {
    if let Some(&slot) = index.get(subckt.name.as_str()) {
        return slot;
    }
    let slot = slots.len();
    slots.push(None);
    index.insert(&subckt.name, slot);

    let mut local: HashMap<&'a str, usize> = HashMap::new();
    let mut nets = Vec::new();
    let mut intern = |name: &'a str| {
        *local.entry(name).or_insert_with(|| {
            nets.push(name);
            nets.len() - 1
        })
    };
    let port_local = subckt.ports.iter().map(|p| intern(p)).collect();
    let body = subckt
        .elements
        .iter()
        .map(|element| match element {
            Element::Device(device) => Body::Device {
                device,
                pins: device.pins.iter().map(|p| intern(p)).collect(),
                bulk: device.bulk.as_deref().map(&mut intern),
            },
            Element::Instance(instance) => {
                let connections = instance.connections.iter().map(|c| intern(c)).collect();
                let child =
                    netlist.subckt(&instance.subckt).expect("netlist validated before expansion");
                let template = compile_template(netlist, child, slots, index);
                Body::Instance { instance, template, connections }
            }
        })
        .collect();

    // A repeated element name resolves to its last element.
    let element_of: HashMap<&str, usize> =
        subckt.elements.iter().enumerate().map(|(i, e)| (e.name(), i)).collect();
    let element = |name: &String| element_of[name.as_str()];
    let sym_pairs = subckt.sym_pairs.iter().map(|(a, b)| (element(a), element(b))).collect();

    slots[slot] = Some(Template { subckt, nets, port_local, body, sym_pairs });
    slot
}

/// State while expanding the instance tree.
struct Builder {
    devices: Vec<FlatDevice>,
    net_names: Vec<String>,
    nodes: Vec<HierNode>,
    /// (T_c, a, b) triples, classified only by their first reader.
    annotated: Vec<(HierNodeId, HierNodeId, HierNodeId)>,
}

impl Builder {
    fn new_net(&mut self, name: String) -> NetId {
        let id = NetId(self.net_names.len());
        self.net_names.push(name);
        id
    }

    fn new_node(
        &mut self,
        name: String,
        path: String,
        kind: HierNodeKind,
        parent: Option<HierNodeId>,
        depth: usize,
    ) -> HierNodeId {
        let id = HierNodeId(self.nodes.len());
        let span_start = self.devices.len();
        self.nodes.push(HierNode {
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
            self.nodes[p.0].children.push(id);
        }
        id
    }

    /// Expand template `t`'s body under tree node `node` at hierarchical
    /// `path`. `nets` holds the global net of each local net bound
    /// through a port; the others get fresh global nets here.
    fn expand(
        &mut self,
        templates: &[Template<'_>],
        t: usize,
        node: HierNodeId,
        path: &str,
        mut nets: Vec<Option<NetId>>,
        depth: usize,
    ) {
        let template = &templates[t];
        for (slot, local) in nets.iter_mut().zip(&template.nets) {
            if slot.is_none() {
                *slot = Some(self.new_net(format!("{path}/{local}")));
            }
        }
        let net = |local: usize| nets[local].expect("every local net resolved");

        for body in &template.body {
            match body {
                Body::Device { device: d, pins, bulk } => {
                    let dev_path = format!("{path}/{}", d.name);
                    let dev_index = self.devices.len();
                    let child = self.new_node(
                        d.name.clone(),
                        dev_path,
                        HierNodeKind::Device(dev_index),
                        Some(node),
                        depth + 1,
                    );
                    self.devices.push(FlatDevice {
                        dtype: d.dtype,
                        geometry: d.geometry,
                        value: d.value,
                        multiplier: d.multiplier,
                        pins: pins.iter().map(|&l| net(l)).collect(),
                        bulk: bulk.map(net),
                        node: child,
                    });
                    self.nodes[child.0].device_span = (dev_index, dev_index + 1);
                }
                Body::Instance { instance: inst, template: child_t, connections } => {
                    let child_template = &templates[*child_t];
                    let inst_path = format!("{path}/{}", inst.name);
                    let child = self.new_node(
                        inst.name.clone(),
                        inst_path.clone(),
                        HierNodeKind::Block {
                            subckt: child_template.subckt.name.clone(),
                            class: child_template.subckt.class.clone(),
                        },
                        Some(node),
                        depth + 1,
                    );
                    // A repeated port name binds its last connection.
                    let mut child_nets = vec![None; child_template.nets.len()];
                    for (&port, &conn) in child_template.port_local.iter().zip(connections) {
                        child_nets[port] = Some(net(conn));
                    }
                    self.expand(templates, *child_t, child, &inst_path, child_nets, depth + 1);
                    let end = self.devices.len();
                    let start = self.nodes[child.0].device_span.0;
                    self.nodes[child.0].device_span = (start, end);
                }
            }
        }

        // Expand designer annotations into per-instance ground truth:
        // element `i` is this node's `i`-th child.
        let children = &self.nodes[node.0].children;
        let pairs = template.sym_pairs.iter().map(|&(a, b)| (node, children[a], children[b]));
        self.annotated.extend(pairs);

        // Close this node's device span.
        let end = self.devices.len();
        let start = self.nodes[node.0].device_span.0;
        self.nodes[node.0].device_span = (start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::subckt::Instance;

    /// Two-level fixture: top instantiates `inv` twice and holds one cap.
    fn fixture() -> Netlist {
        let mut nl = Netlist::new("top");
        let mut inv = Subckt::new("inv", ["in", "out", "vdd", "vss"]);
        inv.class = CircuitClass::Inverter;
        inv.push_device(
            Device::new(
                "Mp",
                DeviceType::PchLvt,
                vec!["out".into(), "in".into(), "vdd".into()],
                Geometry::new(0.1, 2.0),
            )
            .unwrap(),
        )
        .unwrap();
        inv.push_device(
            Device::new(
                "Mn",
                DeviceType::NchLvt,
                vec!["out".into(), "in".into(), "vss".into()],
                Geometry::new(0.1, 1.0),
            )
            .unwrap(),
        )
        .unwrap();
        inv.annotate_symmetry("Mp", "Mn");
        nl.add_subckt(inv).unwrap();

        let mut top = Subckt::new("top", ["a", "y", "vdd", "vss"]);
        top.push_instance(Instance {
            name: "X1".into(),
            subckt: "inv".into(),
            connections: vec!["a".into(), "mid".into(), "vdd".into(), "vss".into()],
        })
        .unwrap();
        top.push_instance(Instance {
            name: "X2".into(),
            subckt: "inv".into(),
            connections: vec!["mid".into(), "y".into(), "vdd".into(), "vss".into()],
        })
        .unwrap();
        top.push_device(
            Device::new(
                "C1",
                DeviceType::Capacitor,
                vec!["y".into(), "vss".into()],
                Geometry::new(5.0, 5.0),
            )
            .unwrap(),
        )
        .unwrap();
        top.annotate_symmetry("X1", "X2");
        nl.add_subckt(top).unwrap();
        nl
    }

    #[test]
    fn elaborates_counts_and_paths() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        assert_eq!(flat.devices().len(), 5);
        // Nets: a, y, vdd, vss, mid = 5 globals (inv internals all map to ports).
        assert_eq!(flat.net_count(), 5);
        assert!(flat.node_by_path("top/X1/Mp").is_some());
        assert!(flat.node_by_path("top/X2/Mn").is_some());
        assert!(flat.node_by_path("top/C1").is_some());
    }

    #[test]
    fn device_spans_are_contiguous_and_nested() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        let root = flat.root();
        assert_eq!(root.device_span, (0, 5));
        let x1 = flat.node_by_path("top/X1").unwrap();
        let x2 = flat.node_by_path("top/X2").unwrap();
        assert_eq!(x1.device_count(), 2);
        assert_eq!(x2.device_count(), 2);
        assert!(x1.device_span.1 <= x2.device_span.0);
        // Child spans are inside the parent span.
        for n in flat.nodes() {
            if let Some(p) = n.parent {
                let ps = flat.node(p).device_span;
                assert!(ps.0 <= n.device_span.0 && n.device_span.1 <= ps.1);
            }
        }
    }

    #[test]
    fn nets_resolve_across_hierarchy() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        // X1's output and X2's input are the same global net `mid`.
        let x1_mp = flat.node_by_path("top/X1/Mp").unwrap();
        let x2_mp = flat.node_by_path("top/X2/Mp").unwrap();
        let d1 = &flat.devices()[x1_mp.device_index().unwrap()];
        let d2 = &flat.devices()[x2_mp.device_index().unwrap()];
        // d1 drain (pin 0) = mid; d2 gate (pin 1) = mid.
        assert_eq!(d1.pins[0], d2.pins[1]);
        assert_eq!(flat.net_name(d1.pins[0]), "top/mid");
    }

    #[test]
    fn ground_truth_expands_per_instance() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        // One (Mp, Mn) pair per inv instance + one (X1, X2) system pair.
        assert_eq!(flat.ground_truth().len(), 3);
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x2 = flat.node_by_path("top/X2").unwrap().id;
        let c = flat.ground_truth().get(x1, x2).unwrap();
        assert_eq!(c.kind, SymmetryKind::System);
        let mp = flat.node_by_path("top/X1/Mp").unwrap().id;
        let mn = flat.node_by_path("top/X1/Mn").unwrap().id;
        assert_eq!(flat.ground_truth().get(mp, mn).unwrap().kind, SymmetryKind::Device);
    }

    /// Ground truth is classified by its first reader. A clone taken
    /// before that compares equal to one taken after, and both yield
    /// the oracle's classified set.
    #[test]
    fn ground_truth_is_classified_on_first_use() {
        let nl = fixture();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let before = flat.clone();
        assert!(flat.ground_truth.get().is_none(), "elaboration classified ground truth");
        let first: *const ConstraintSet = flat.ground_truth();
        assert!(std::ptr::eq(first, flat.ground_truth()), "classified twice");
        let after = flat.clone();
        assert!(before.ground_truth.get().is_none() && after.ground_truth.get().is_some());
        assert_eq!(before, after);
        let reference = crate::oracle::elaborate(&nl).unwrap();
        crate::oracle::assert_matches(&before, &reference);
        crate::oracle::assert_matches(&after, &reference);
        assert_eq!(before.ground_truth(), after.ground_truth());
    }

    #[test]
    fn classify_passives_among_blocks_as_system() {
        // Add two matched caps at top level (next to the inverters).
        let mut nl = fixture();
        let top = nl.subckt_mut("top").unwrap();
        top.push_device(
            Device::new(
                "C2",
                DeviceType::Capacitor,
                vec!["a".into(), "vss".into()],
                Geometry::new(5.0, 5.0),
            )
            .unwrap(),
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let c1 = flat.node_by_path("top/C1").unwrap().id;
        let c2 = flat.node_by_path("top/C2").unwrap().id;
        let root = flat.root().id;
        assert_eq!(flat.classify_pair(root, c1, c2), SymmetryKind::System);
        // But a MOS pair inside inv (no blocks under inv) is device-level.
        let mp = flat.node_by_path("top/X1/Mp").unwrap().id;
        let mn = flat.node_by_path("top/X1/Mn").unwrap().id;
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        assert_eq!(flat.classify_pair(x1, mp, mn), SymmetryKind::Device);
    }

    #[test]
    fn module_types_distinguish_leaves_and_blocks() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let c1 = flat.node_by_path("top/C1").unwrap().id;
        assert_eq!(
            flat.module_type(x1),
            ModuleType::Block(CircuitClass::Inverter)
        );
        assert_eq!(
            flat.module_type(c1),
            ModuleType::Device(DeviceType::Capacitor)
        );
    }

    #[test]
    fn max_subcircuit_size_ignores_root() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        assert_eq!(flat.max_subcircuit_size(), 2);
    }

    #[test]
    fn blocks_iterator_lists_internal_nodes() {
        let flat = FlatCircuit::elaborate(&fixture()).unwrap();
        let names: Vec<_> = flat.blocks().map(|n| n.name.as_str()).collect();
        assert_eq!(names, vec!["top", "X1", "X2"]);
    }

    #[test]
    fn compiled_templates_match_the_name_keyed_oracle() {
        let nl = fixture();
        crate::oracle::assert_matches(
            &FlatCircuit::elaborate(&nl).unwrap(),
            &crate::oracle::elaborate(&nl).unwrap(),
        );
    }

    /// A port name listed twice binds the instance's last connection for
    /// it, as collecting `(port, net)` pairs into a map did; the top's
    /// repeated port gets two nets and resolves to the second.
    #[test]
    fn repeated_port_names_bind_the_last_connection() {
        let mut nl = Netlist::new("top");
        let mut cell = Subckt::new("cell", ["a", "a", "b"]);
        cell.push_device(
            Device::new(
                "R1",
                DeviceType::Resistor,
                vec!["a".into(), "b".into()],
                Geometry::new(1.0, 1.0),
            )
            .unwrap(),
        )
        .unwrap();
        nl.add_subckt(cell).unwrap();
        let mut top = Subckt::new("top", ["p", "q", "p"]);
        top.push_instance(Instance {
            name: "X1".into(),
            subckt: "cell".into(),
            connections: vec!["p".into(), "q".into(), "r".into()],
        })
        .unwrap();
        top.push_device(
            Device::new(
                "R2",
                DeviceType::Resistor,
                vec!["p".into(), "r".into()],
                Geometry::new(1.0, 1.0),
            )
            .unwrap(),
        )
        .unwrap();
        nl.add_subckt(top).unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        crate::oracle::assert_matches(&flat, &crate::oracle::elaborate(&nl).unwrap());
        let r1 = &flat.devices()[0];
        assert_eq!(flat.net_name(r1.pins[0]), "q", "second binding of `a` wins");
        let r2 = &flat.devices()[1];
        assert_eq!(r2.pins[0], NetId(2), "the top's second `p` net");
    }

    #[test]
    fn unknown_symmetry_element_names_the_same_element() {
        for (a, b, missing) in [("Mp", "Mz", "Mz"), ("Mz", "Mp", "Mz"), ("Mx", "My", "Mx")] {
            let mut nl = fixture();
            nl.subckt_mut("inv").unwrap().annotate_symmetry(a, b);
            // Validation rejects the annotation before any expansion.
            let err = FlatCircuit::elaborate(&nl).unwrap_err();
            assert_eq!(err, crate::oracle::elaborate(&nl).unwrap_err());
            assert_eq!(
                err,
                ElaborateError::UnknownSymmetryElement {
                    subckt: "inv".into(),
                    element: missing.into()
                }
            );
        }
    }

    /// Ranks sort like full paths, including a sibling (`X-1`) that
    /// falls between a block (`X`) and the paths beneath it.
    #[test]
    fn path_ranks_follow_natural_path_order() {
        let mut nl = fixture();
        let top = nl.subckt_mut("top").unwrap();
        for name in ["X-1", "X1.5", "X10", "X02"] {
            top.push_instance(Instance {
                name: name.into(),
                subckt: "inv".into(),
                connections: vec!["a".into(), "y".into(), "vdd".into(), "vss".into()],
            })
            .unwrap();
        }
        top.push_device(
            Device::new(
                "X",
                DeviceType::Capacitor,
                vec!["y".into(), "vss".into()],
                Geometry::new(5.0, 5.0),
            )
            .unwrap(),
        )
        .unwrap();
        let flat = FlatCircuit::elaborate(&nl).unwrap();
        let mut by_path: Vec<&HierNode> = flat.nodes().iter().collect();
        by_path.sort_by(|a, b| crate::order::natural_cmp(&a.path, &b.path));
        let by_rank: Vec<usize> = by_path.iter().map(|n| flat.path_rank(n.id)).collect();
        assert_eq!(by_rank, (0..flat.nodes().len()).collect::<Vec<_>>());
        let x1 = flat.node_by_path("top/X1").unwrap().id;
        let x1_5 = flat.node_by_path("top/X1.5").unwrap().id;
        let x1_mp = flat.node_by_path("top/X1/Mp").unwrap().id;
        assert!(flat.path_rank(x1) < flat.path_rank(x1_5));
        assert!(flat.path_rank(x1_5) < flat.path_rank(x1_mp), "`.` sorts before `/`");
    }

    #[test]
    fn missing_top_is_an_error() {
        let nl = Netlist::new("ghost");
        assert!(FlatCircuit::elaborate(&nl).is_err());
    }
}
