//! Regenerates **Fig. 7**: the ROC curve of this work on the merged
//! block-level dataset (device-level pairs), plus the single operating
//! point of the SFA heuristic in ROC space.
//!
//! Prints CSV (`series,threshold,fpr,tpr`) and the AUC (paper: 0.956),
//! and writes `fig7.csv`.
//!
//! ```text
//! cargo run -p ancstr-bench --bin fig7 --release
//! ```

use std::fs;

use ancstr_baselines::sfa_extract;
use ancstr_bench::{block_dataset, experiment_config, train_extractor};
use ancstr_core::pipeline::evaluate_detection;
use ancstr_core::{roc_curve, Confusion};

fn main() {
    println!("Fig. 7: ROC on the merged block-level dataset (device level)");
    println!();
    let dataset = block_dataset();

    println!("[1/2] SFA operating point ...");
    let mut sfa_confusion = Confusion::default();
    for b in &dataset {
        let ex = sfa_extract(&b.flat);
        let eval = evaluate_detection(&b.flat, ex);
        sfa_confusion.merge(&eval.device);
    }

    println!("[2/2] GNN curve ...");
    let extractor = train_extractor(&dataset, experiment_config());
    let mut samples = Vec::new();
    for b in &dataset {
        let eval = extractor.evaluate(&b.flat);
        samples.extend(eval.device_samples);
    }
    let roc = roc_curve(&samples);

    let mut csv = String::from("series,threshold,fpr,tpr\n");
    for p in &roc.points {
        csv.push_str(&format!(
            "this_work,{:.6},{:.6},{:.6}\n",
            p.threshold, p.fpr, p.tpr
        ));
    }
    csv.push_str(&format!(
        "sfa_point,0.5,{:.6},{:.6}\n",
        sfa_confusion.fpr(),
        sfa_confusion.tpr()
    ));
    print!("{csv}");

    println!();
    println!("AUC this work = {:.3}  (paper: 0.956)", roc.auc);
    println!(
        "SFA point: FPR = {:.3}, TPR = {:.3}",
        sfa_confusion.fpr(),
        sfa_confusion.tpr()
    );
    let enclosed = roc
        .points
        .windows(2)
        .any(|w| {
            // The SFA point is enclosed if at its FPR the curve's TPR is
            // at least as high.
            w[0].fpr <= sfa_confusion.fpr() && sfa_confusion.fpr() <= w[1].fpr && {
                let t = if (w[1].fpr - w[0].fpr).abs() < 1e-12 {
                    w[1].tpr
                } else {
                    w[0].tpr
                        + (w[1].tpr - w[0].tpr) * (sfa_confusion.fpr() - w[0].fpr)
                            / (w[1].fpr - w[0].fpr)
                };
                t >= sfa_confusion.tpr()
            }
        });
    println!(
        "Curve encloses the SFA point: {}  (paper: yes)",
        if enclosed { "yes" } else { "no" }
    );

    if let Err(e) = fs::write("fig7.csv", &csv) {
        eprintln!("note: could not write fig7.csv: {e}");
    } else {
        println!("wrote fig7.csv");
    }
}
