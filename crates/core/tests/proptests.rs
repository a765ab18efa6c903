//! Property tests for the extraction pipeline: feature invariants,
//! candidate-pair rules, threshold behaviour, and metric identities.

use ancstr_core::detect::ThresholdConfig;
use ancstr_core::metrics::{roc_curve, Confusion};
use ancstr_core::{
    circuit_features, embed_all_blocks, valid_pairs, EmbedOptions, FeatureConfig, FEATURE_DIM,
};
use ancstr_graph::pagerank::top_m_by_pagerank;
use ancstr_graph::{pagerank, HetMultigraph, SimpleDigraph, VertexId};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_netlist::parse::parse_spice;
use ancstr_netlist::{Device, DeviceType, Geometry, Netlist, Subckt};
use ancstr_nn::Matrix;
use proptest::prelude::*;

use ancstr_core::groups::{merged_groups_sorted, SymmetryGroup};
use ancstr_netlist::{ConstraintSet, SymmetryConstraint, SymmetryKind};

#[path = "../../netlist/tests/common/arb_tree.rs"]
mod arb_tree;
/// The crate's test-only group-merge oracle, shared with its unit tests.
#[path = "../src/oracle.rs"]
mod oracle;

/// A constraint set over random sibling pairs of `flat`: not closed
/// under transitivity, spread over every block with two children, with
/// random levels — and, now and then, a hierarchy other than the pair's
/// parent, so a node can meet two hierarchies or both levels.
fn random_pairs(flat: &FlatCircuit, picks: &[(usize, usize, usize, u8)]) -> ConstraintSet {
    let blocks: Vec<_> = flat.blocks().filter(|b| b.children.len() >= 2).collect();
    let mut set = ConstraintSet::new();
    if blocks.is_empty() {
        return set;
    }
    for &(block, i, j, bits) in picks {
        let b = blocks[block % blocks.len()];
        let (i, j) = (i % b.children.len(), j % b.children.len());
        if i == j {
            continue;
        }
        let kind = if bits & 1 == 0 {
            SymmetryKind::Device
        } else {
            SymmetryKind::System
        };
        let hierarchy = if bits & 6 == 0 {
            blocks[(block + 1) % blocks.len()].id
        } else {
            b.id
        };
        set.insert(SymmetryConstraint::new(
            hierarchy,
            b.children[i],
            b.children[j],
            kind,
        ));
    }
    set
}

fn arb_cell() -> impl Strategy<Value = FlatCircuit> {
    let dev = (0usize..5, 1u32..6, 0usize..3, 0usize..3, 0usize..3);
    prop::collection::vec(dev, 2..15).prop_map(|devs| {
        let nets = ["n0", "n1", "n2"];
        let types = [
            DeviceType::Nch,
            DeviceType::Pch,
            DeviceType::Resistor,
            DeviceType::Capacitor,
            DeviceType::NchLvt,
        ];
        let mut sub = Subckt::new("cell", ["n0"]);
        for (i, (t, w, a, b, c)) in devs.into_iter().enumerate() {
            let t = types[t];
            let pins: Vec<String> = match t.pin_count() {
                3 => vec![nets[a].into(), nets[b].into(), nets[c].into()],
                _ => vec![nets[a].into(), nets[b].into()],
            };
            let prefix = match t {
                t if t.is_mos() => "M",
                DeviceType::Resistor => "R",
                _ => "C",
            };
            sub.push_device(
                Device::new(
                    format!("{prefix}{i}"),
                    t,
                    pins,
                    Geometry::new(0.1, f64::from(w)),
                )
                .expect("pin count ok"),
            )
            .expect("unique");
        }
        let mut nl = Netlist::new("cell");
        nl.add_subckt(sub).expect("fresh");
        FlatCircuit::elaborate(&nl).expect("valid")
    })
}

/// Strategy: a top made of random instances of two random masters,
/// each instance's three ports tied to random top nets (so some
/// instances tie two ports together and others do not).
fn arb_two_master_top() -> impl Strategy<Value = FlatCircuit> {
    // A device: nch or resistor, over the master's ports and one
    // internal net.
    let master = || prop::collection::vec((any::<bool>(), 0usize..4, 0usize..4, 0usize..4), 1..6);
    let instance = (0usize..2, 0usize..4, 0usize..4, 0usize..4);
    (master(), master(), prop::collection::vec(instance, 2..9)).prop_map(|(m0, m1, xs)| {
        let nets = ["p0", "p1", "p2", "x"];
        let mut src = String::new();
        for (name, devs) in [("m0", m0), ("m1", m1)] {
            src += &format!(".subckt {name} p0 p1 p2\n");
            for (i, (mos, a, b, c)) in devs.into_iter().enumerate() {
                let (a, b, c) = (nets[a], nets[b], nets[c]);
                src += &if mos {
                    format!("M{i} {a} {b} {c} {a} nch w=1u l=0.1u\n")
                } else {
                    format!("R{i} {a} {b} 1k\n")
                };
            }
            src += ".ends\n";
        }
        src += ".subckt top t0 t1 t2 t3\n";
        for (i, (m, a, b, c)) in xs.into_iter().enumerate() {
            src += &format!("X{i} t{a} t{b} t{c} m{m}\n");
        }
        src += ".ends\n";
        FlatCircuit::elaborate(&parse_spice(&src).expect("valid SPICE")).expect("elaborates")
    })
}

/// Algorithm 2 on one block, the unshared way: its own multigraph,
/// collapsed, ranked, and its top-M rows gathered.
fn per_block_embedding(
    flat: &FlatCircuit,
    node: ancstr_netlist::HierNodeId,
    z: &Matrix,
    options: &EmbedOptions,
) -> Vec<f64> {
    let g = HetMultigraph::from_subtree(flat, node, &options.build);
    let pr = pagerank(&SimpleDigraph::from_multigraph(&g), &options.pagerank);
    let mut out = Vec::new();
    for v in top_m_by_pagerank(&pr, options.m.min(g.vertex_count())) {
        out.extend_from_slice(z.row(g.device_index(VertexId(v))));
    }
    out
}

proptest! {
    /// Ranking each distinct block pin stream once gives every compared
    /// block the bits of its own per-block Algorithm 2.
    #[test]
    fn shared_block_ranks_match_the_per_block_reference(flat in arb_two_master_top()) {
        let z = Matrix::from_fn(flat.devices().len(), 2, |r, c| (r * (c + 1)) as f64);
        let options = EmbedOptions::default();
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        let got = embed_all_blocks(&flat, &z, &options);
        let mut compared = 0;
        for b in flat.blocks() {
            if let Some(e) = &got[b.id.0] {
                let want = per_block_embedding(&flat, b.id, &z, &options);
                prop_assert_eq!(bits(e), bits(&want), "{}", &b.path);
                compared += 1;
            }
        }
        // Every instance has a same-class sibling, so all are compared.
        prop_assert_eq!(compared, flat.root().children.len());
    }

    /// Features: one row per device, 18 wide, one-hot block exact,
    /// geometry block within [0, 1].
    #[test]
    fn feature_invariants(flat in arb_cell()) {
        let f = circuit_features(&flat, &FeatureConfig::default());
        prop_assert_eq!(f.shape(), (flat.devices().len(), FEATURE_DIM));
        for r in 0..f.rows() {
            let ones: usize = (0..DeviceType::COUNT)
                .filter(|&c| f[(r, c)] == 1.0)
                .count();
            prop_assert_eq!(ones, 1);
            for c in DeviceType::COUNT..FEATURE_DIM {
                prop_assert!((0.0..=1.0).contains(&f[(r, c)]));
            }
        }
    }

    /// Valid pairs: symmetric-type, sibling-only, and complete — any two
    /// same-type siblings appear exactly once.
    #[test]
    fn valid_pair_rules(flat in arb_cell()) {
        let pairs = valid_pairs(&flat);
        // No duplicates.
        let mut keys: Vec<_> = pairs.iter().map(|p| p.pair).collect();
        keys.sort();
        let before = keys.len();
        keys.dedup();
        prop_assert_eq!(keys.len(), before);
        // Completeness + type match against a brute-force count.
        let root = flat.root();
        let mut expected = 0usize;
        for i in 0..root.children.len() {
            for j in (i + 1)..root.children.len() {
                if flat.module_type(root.children[i]) == flat.module_type(root.children[j]) {
                    expected += 1;
                }
            }
        }
        prop_assert_eq!(pairs.len(), expected);
    }

    /// Eq. 4 threshold: bounded by the cap, decreasing in design size,
    /// never below alpha.
    #[test]
    fn threshold_eq4_properties(size in 0usize..100_000) {
        let t = ThresholdConfig::default();
        let lam = t.system_threshold(size);
        prop_assert!(lam <= t.cap + 1e-12);
        prop_assert!(lam >= t.alpha - 1e-12);
        prop_assert!(lam >= t.system_threshold(size + 1) - 1e-12);
    }

    /// Metric identities on random confusions: ACC is a convex mix of
    /// TPR and TNR; F1 is the harmonic mean of PPV and TPR.
    #[test]
    fn metric_identities(tp in 0usize..50, fp in 0usize..50, tn in 0usize..50, fn_ in 0usize..50) {
        prop_assume!(tp + fn_ > 0 && fp + tn > 0 && tp + fp > 0);
        let c = Confusion { tp, fp, tn, fn_ };
        // ACC decomposition.
        let p = (tp + fn_) as f64;
        let n = (fp + tn) as f64;
        let acc = (c.tpr() * p + (1.0 - c.fpr()) * n) / (p + n);
        prop_assert!((acc - c.acc()).abs() < 1e-12);
        // F1 harmonic mean (when tp > 0).
        if tp > 0 {
            let hm = 2.0 * c.ppv() * c.tpr() / (c.ppv() + c.tpr());
            prop_assert!((hm - c.f1()).abs() < 1e-12);
        }
    }

    /// ROC curves over random samples are monotone with AUC in [0, 1],
    /// and flipping all labels maps AUC to 1 − AUC.
    #[test]
    fn roc_properties(
        samples in prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..60)
    ) {
        let pos = samples.iter().filter(|(_, a)| *a).count();
        prop_assume!(pos > 0 && pos < samples.len());
        let roc = roc_curve(&samples);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&roc.auc));
        for w in roc.points.windows(2) {
            prop_assert!(w[1].fpr >= w[0].fpr - 1e-12);
            prop_assert!(w[1].tpr >= w[0].tpr - 1e-12);
        }
        let flipped: Vec<(f64, bool)> =
            samples.iter().map(|&(s, a)| (s, !a)).collect();
        let roc_f = roc_curve(&flipped);
        // Complement holds when there are no tied scores across classes;
        // allow tie slack.
        prop_assert!((roc.auc + roc_f.auc - 1.0).abs() < 0.35);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The dense, rank-ordered merge returns exactly what the `HashMap`
    /// union-find followed by the path-string sort returns.
    #[test]
    fn dense_group_merge_matches_the_oracle(
        nl in arb_tree::arb_hierarchy(),
        picks in prop::collection::vec((0usize..64, 0usize..16, 0usize..16, any::<u8>()), 0..40),
    ) {
        let flat = FlatCircuit::elaborate(&nl).expect("valid by construction");
        let set = random_pairs(&flat, &picks);
        let dense: Vec<SymmetryGroup> = merged_groups_sorted(&flat, &set);
        prop_assert_eq!(dense, oracle::merged_groups_sorted(&flat, &set));
        let gt = flat.ground_truth();
        prop_assert_eq!(merged_groups_sorted(&flat, gt), oracle::merged_groups_sorted(&flat, gt));
    }
}
