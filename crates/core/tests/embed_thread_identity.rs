//! Algorithm 2 gives every compared block the same embedding bits at
//! one and two threads, equal to the block's own [`embed_circuit`],
//! including on a corpus with enough compared blocks that the ranking
//! pass really fans out over the pool.
//!
//! `ancstr_par::set_threads` is process-global, so this file is its own
//! test binary and holds a single test.

use ancstr_core::{embed_all_blocks, embed_circuit, EmbedOptions};
use ancstr_netlist::flat::FlatCircuit;
use ancstr_nn::Matrix;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn option_bits(v: &[Option<Vec<f64>>]) -> Vec<Option<Vec<u64>>> {
    v.iter().map(|e| e.as_deref().map(bits)).collect()
}

#[test]
fn block_embeddings_are_bit_identical_at_one_and_two_threads() {
    let mut designs = ancstr_circuits::adc::adc_benchmarks();
    designs.extend(ancstr_circuits::block_benchmarks(20210705));
    designs.push(ancstr_circuits::stress::stress_system(2000, 7));
    designs.push(ancstr_circuits::stress::stress_system(60_000, 7));
    let opts = EmbedOptions::default();
    let before = ancstr_par::threads();
    let (mut compared, mut fanned_out) = (0, false);
    for nl in &designs {
        let f = FlatCircuit::elaborate(nl).unwrap();
        // Distinct rows, so the embedding spells out the top-M order.
        let z = Matrix::from_fn(f.devices().len(), 2, |r, c| (r * (c + 1)) as f64);
        ancstr_par::set_threads(1);
        let one = embed_all_blocks(&f, &z, &opts);
        ancstr_par::set_threads(2);
        let blocks = one.iter().filter(|e| e.is_some()).count();
        fanned_out |= ancstr_par::would_parallelize(blocks, 1);
        let two = embed_all_blocks(&f, &z, &opts);
        ancstr_par::set_threads(before);
        assert_eq!(option_bits(&one), option_bits(&two), "{}: 1 vs 2 threads", nl.top());
        for b in f.blocks() {
            if let Some(got) = &one[b.id.0] {
                let want = embed_circuit(&f, b.id, &z, &opts);
                assert_eq!(bits(got), bits(&want), "{}: {}", nl.top(), b.path);
            }
        }
        compared += blocks;
    }
    assert!(compared > 100, "only {compared} blocks compared");
    assert!(fanned_out, "no design has enough compared blocks to fan out");
}
