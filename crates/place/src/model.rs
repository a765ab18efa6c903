//! The placement problem: cells, nets, and symmetry requirements
//! distilled from a circuit and a constraint set.

use std::collections::HashMap;

use ancstr_netlist::flat::{FlatCircuit, NetId};
use ancstr_netlist::{ConstraintSet, SymmetryKind};

/// A rectangular cell to place (one primitive device).
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Device path (diagnostics).
    pub name: String,
    /// Width (µm).
    pub width: f64,
    /// Height (µm).
    pub height: f64,
}

/// A placement problem over the devices of one circuit.
///
/// Nets are hyperedges over cell indices; `sym_pairs` lists the matched
/// pairs a symmetry-aware placer must mirror about a common vertical
/// axis; `self_sym` lists cells to centre on that axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementProblem {
    /// Cells, indexed by flat-device order.
    pub cells: Vec<Cell>,
    /// Hyperedges (nets touching ≥ 2 cells).
    pub nets: Vec<Vec<usize>>,
    /// Matched pairs (cell indices).
    pub sym_pairs: Vec<(usize, usize)>,
    /// Axis-centred cells.
    pub self_sym: Vec<usize>,
}

impl PlacementProblem {
    /// Build from a circuit, taking *device-level* constraints from
    /// `constraints` (block-level constraints are a floorplanning
    /// concern above this flat device placer). When one cell appears in
    /// several pairs (an array group), a chain of pairs is kept so each
    /// cell is mirrored at most once.
    pub fn from_circuit(flat: &FlatCircuit, constraints: &ConstraintSet) -> PlacementProblem {
        let cells: Vec<Cell> = flat
            .devices()
            .iter()
            .map(|d| Cell {
                name: flat.node(d.node).path.clone(),
                width: d.geometry.width.max(0.1),
                height: d.geometry.length.max(0.1),
            })
            .collect();

        // Nets: group pins by NetId.
        let mut by_net: HashMap<NetId, Vec<usize>> = HashMap::new();
        for (i, d) in flat.devices().iter().enumerate() {
            for (net, _) in d.typed_pins() {
                let entry = by_net.entry(net).or_default();
                if entry.last() != Some(&i) {
                    entry.push(i);
                }
            }
        }
        let mut nets: Vec<Vec<usize>> = by_net
            .into_iter()
            .filter(|(_, cells)| cells.len() >= 2 && cells.len() <= 32)
            .map(|(_, cells)| cells)
            .collect();
        nets.sort(); // deterministic order

        // Symmetry pairs: device-level constraints, each cell used once.
        let mut used = vec![false; cells.len()];
        let mut sym_pairs = Vec::new();
        for c in constraints.iter() {
            if c.kind != SymmetryKind::Device {
                continue;
            }
            let (Some(a), Some(b)) = (
                flat.node(c.pair.lo()).device_index(),
                flat.node(c.pair.hi()).device_index(),
            ) else {
                continue;
            };
            if !used[a] && !used[b] {
                used[a] = true;
                used[b] = true;
                sym_pairs.push((a, b));
            }
        }
        PlacementProblem { cells, nets, sym_pairs, self_sym: Vec::new() }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the problem is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total cell area (placement-region sizing).
    pub fn total_area(&self) -> f64 {
        self.cells.iter().map(|c| c.width * c.height).sum()
    }
}

/// Cell positions: lower-left corners.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// One `(x, y)` per cell.
    pub positions: Vec<(f64, f64)>,
    /// The shared vertical symmetry axis (x coordinate).
    pub axis: f64,
}

impl Placement {
    /// Centre `(x, y)` of cell `i`.
    pub fn center(&self, problem: &PlacementProblem, i: usize) -> (f64, f64) {
        let (x, y) = self.positions[i];
        let c = &problem.cells[i];
        (x + c.width / 2.0, y + c.height / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ancstr_circuits::comparator::comp2;
    use ancstr_netlist::flat::FlatCircuit;

    #[test]
    fn problem_from_comp2() {
        let flat = FlatCircuit::elaborate(&comp2(1)).unwrap();
        let p = PlacementProblem::from_circuit(&flat, flat.ground_truth());
        assert_eq!(p.len(), 8);
        assert!(!p.is_empty());
        assert!(p.total_area() > 0.0);
        // Three matched pairs from the ground truth.
        assert_eq!(p.sym_pairs.len(), 3);
        // Each cell mirrored at most once.
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &p.sym_pairs {
            assert!(seen.insert(a));
            assert!(seen.insert(b));
        }
        assert!(!p.nets.is_empty());
    }

    #[test]
    fn empty_constraints_give_no_pairs() {
        let flat = FlatCircuit::elaborate(&comp2(1)).unwrap();
        let p = PlacementProblem::from_circuit(&flat, &ConstraintSet::new());
        assert!(p.sym_pairs.is_empty());
        assert_eq!(p.len(), 8);
    }
}
