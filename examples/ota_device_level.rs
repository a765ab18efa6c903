//! Device-level extraction across the OTA suite, comparing the GNN with
//! the SFA pattern baseline on the same circuits — a miniature Table VI.
//!
//! ```text
//! cargo run -p ancstr-bench --example ota_device_level --release
//! ```

use ancstr_baselines::sfa_extract;
use ancstr_bench::quick_config;
use ancstr_circuits::ota::ota_suite;
use ancstr_core::pipeline::evaluate_detection;
use ancstr_core::SymmetryExtractor;
use ancstr_netlist::flat::FlatCircuit;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 99;
    let circuits: Vec<FlatCircuit> = ota_suite(seed)
        .iter()
        .map(FlatCircuit::elaborate)
        .collect::<Result<_, _>>()?;

    // Train once on the whole suite (unsupervised — no labels used).
    let mut extractor = SymmetryExtractor::new(quick_config());
    let refs: Vec<&FlatCircuit> = circuits.iter().collect();
    extractor.fit(&refs);

    println!(
        "{:<6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "", "GNN", "", "", "SFA", "", ""
    );
    println!(
        "{:<6} | {:>6} {:>6} {:>6} | {:>6} {:>6} {:>6}",
        "OTA", "TPR", "FPR", "F1", "TPR", "FPR", "F1"
    );
    for (i, flat) in circuits.iter().enumerate() {
        let ours = extractor.evaluate(flat);
        let sfa = evaluate_detection(flat, sfa_extract(flat));
        println!(
            "OTA{:<3} | {:>6.3} {:>6.3} {:>6.3} | {:>6.3} {:>6.3} {:>6.3}",
            i + 1,
            ours.device.tpr(),
            ours.device.fpr(),
            ours.device.f1(),
            sfa.device.tpr(),
            sfa.device.fpr(),
            sfa.device.f1(),
        );
    }

    // The headline property: the GNN's false-positive rate is far below
    // SFA's on the same designs.
    let gnn_fpr: f64 = circuits
        .iter()
        .map(|f| extractor.evaluate(f).device.fpr())
        .sum::<f64>()
        / circuits.len() as f64;
    let sfa_fpr: f64 = circuits
        .iter()
        .map(|f| evaluate_detection(f, sfa_extract(f)).device.fpr())
        .sum::<f64>()
        / circuits.len() as f64;
    println!("\nmean FPR: GNN {gnn_fpr:.3} vs SFA {sfa_fpr:.3}");
    assert!(
        gnn_fpr < sfa_fpr,
        "the GNN must produce fewer false alarms than SFA"
    );
    println!("GNN produces fewer false alarms, as in the paper");
    Ok(())
}
