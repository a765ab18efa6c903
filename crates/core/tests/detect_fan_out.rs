//! Algorithm 3's one pass over sibling groups on a corpus-scale design:
//! enough parents that the pass really fans out over the pool, and a
//! detection that is the same at one and two threads and equal to the
//! candidate-list scorer.
//!
//! `ancstr_par::set_threads` is process-global, so this file is its own
//! test binary and holds a single test.

use ancstr_core::{
    detect_constraints, embed_all_blocks, valid_pairs, DetectionResult, EmbedOptions,
    NumericWarning, ScoredPair, ThresholdConfig,
};
use ancstr_netlist::flat::{FlatCircuit, HierNodeId, HierNodeKind};
use ancstr_netlist::{CircuitClass, ConstraintSet, SymmetryConstraint, SymmetryKind};
use ancstr_nn::{cosine_similarity, Matrix};

/// The candidate-list scorer, built from the public pieces: every valid
/// pair in enumeration order, the cosine of its two features (device
/// rows of `z`, Algorithm 2 embeddings of blocks), and one counted
/// warning per non-finite node in first-skip order.
fn candidate_list_oracle(
    flat: &FlatCircuit,
    z: &Matrix,
    thresholds: &ThresholdConfig,
    embed: &EmbedOptions,
) -> DetectionResult {
    let blocks = embed_all_blocks(flat, z, embed);
    let feature = |id: HierNodeId| -> &[f64] {
        match &flat.node(id).kind {
            HierNodeKind::Device(i) => z.row(*i),
            HierNodeKind::Block { .. } => blocks[id.0].as_deref().unwrap(),
        }
    };
    let finite = |id: HierNodeId| feature(id).iter().all(|x| x.is_finite());
    let lambda_sys = thresholds.system_threshold(flat.max_subcircuit_size());
    let mut scored = Vec::new();
    let mut constraints = ConstraintSet::new();
    let mut warnings: Vec<NumericWarning> = Vec::new();
    let mut skipped = 0;
    for candidate in valid_pairs(flat) {
        let (a, b) = (candidate.pair.lo(), candidate.pair.hi());
        if !finite(a) || !finite(b) {
            skipped += 1;
            for id in [a, b].into_iter().filter(|&id| !finite(id)) {
                match warnings.iter_mut().find(|w| w.node == id) {
                    Some(w) => w.skipped_pairs += 1,
                    None => warnings.push(NumericWarning {
                        node: id,
                        path: flat.node(id).path.clone(),
                        skipped_pairs: 1,
                    }),
                }
            }
            continue;
        }
        let score = cosine_similarity(feature(a), feature(b));
        let threshold = match candidate.kind {
            SymmetryKind::System => lambda_sys,
            SymmetryKind::Device => thresholds.device,
        };
        let accepted = score > threshold;
        if accepted {
            constraints.insert(SymmetryConstraint {
                hierarchy: candidate.hierarchy,
                pair: candidate.pair,
                kind: candidate.kind,
            });
        }
        scored.push(ScoredPair {
            candidate,
            score,
            accepted,
            threshold,
        });
    }
    DetectionResult {
        scored,
        constraints,
        system_threshold: lambda_sys,
        warnings,
        skipped,
        block_ranking: None,
    }
}

/// Everything a detection reports, with scores and thresholds as bits
/// and warnings as their rendered text.
fn view(d: &DetectionResult) -> impl PartialEq + std::fmt::Debug {
    let scored: Vec<_> = d
        .scored
        .iter()
        .map(|s| {
            (
                s.candidate.clone(),
                s.score.to_bits(),
                s.accepted,
                s.threshold.to_bits(),
            )
        })
        .collect();
    let constraints: Vec<SymmetryConstraint> = d.constraints.iter().cloned().collect();
    let warnings: Vec<(HierNodeId, usize, String)> = d
        .warnings
        .iter()
        .map(|w| (w.node, w.skipped_pairs, w.to_string()))
        .collect();
    (
        scored,
        constraints,
        warnings,
        d.skipped,
        d.system_threshold.to_bits(),
    )
}

#[test]
fn detection_fans_out_over_parents_and_matches_the_candidate_list() {
    let flat = FlatCircuit::elaborate(&ancstr_circuits::stress::stress_system(40_000, 7)).unwrap();
    assert_eq!(flat.blocks().count(), 2_424);
    let parents: Vec<_> = flat
        .blocks()
        .filter(|b| {
            !matches!(
                &b.kind,
                HierNodeKind::Block {
                    class: CircuitClass::Logic,
                    ..
                }
            )
        })
        .collect();
    assert!(
        parents.len() >= ancstr_par::PAR_ITEM_FLOOR,
        "{} non-Logic parents: the pass would run inline",
        parents.len()
    );

    // Repeating rows, so pairs are both accepted and rejected, and a
    // NaN every 4,999 devices, so warnings come from all over the
    // design.
    let n = flat.devices().len();
    let z = Matrix::from_fn(n, 4, |r, c| {
        if r % 4_999 == 123 && c == 2 {
            f64::NAN
        } else {
            ((r * 7 + c * 3) % 5) as f64 - 1.5
        }
    });
    let (cfg, opts) = (ThresholdConfig::default(), EmbedOptions::default());

    let before = ancstr_par::threads();
    ancstr_par::set_threads(1);
    let one = detect_constraints(&flat, &z, &cfg, &opts);
    ancstr_par::set_threads(2);
    assert!(ancstr_par::would_parallelize(parents.len(), 1));
    let two = detect_constraints(&flat, &z, &cfg, &opts);
    ancstr_par::set_threads(before);

    assert_eq!(
        view(&one),
        view(&two),
        "the detection differs at 1 and 2 threads"
    );
    assert_eq!(one.block_ranking, two.block_ranking);
    assert_eq!(
        view(&one),
        view(&candidate_list_oracle(&flat, &z, &cfg, &opts))
    );

    assert!(!one.constraints.is_empty() && one.constraints.len() < one.scored.len());
    // The skipped pairs sit under parents spread over many of the
    // pass's chunks: at this size the pass splits the parents into
    // `ancstr_par::MAX_CHUNKS` chunks of `chunk_size(parents, 1)`.
    let chunk = ancstr_par::chunk_size(parents.len(), 1);
    let mut chunks: Vec<usize> = one
        .warnings
        .iter()
        .map(|w| {
            let parent = flat.node(w.node).parent.unwrap();
            parents.iter().position(|p| p.id == parent).unwrap() / chunk
        })
        .collect();
    chunks.sort_unstable();
    chunks.dedup();
    assert!(chunks.len() >= 4, "warnings from chunks {chunks:?} only");
    assert_eq!(one.candidates(), valid_pairs(&flat).len());
}
