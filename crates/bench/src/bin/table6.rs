//! Regenerates **Table VI**: device-level symmetry constraint
//! extraction — SFA vs this work on the 15 block-level circuits.
//!
//! ```text
//! cargo run -p ancstr-bench --bin table6 --release
//! ```

use ancstr_baselines::sfa_extract;
use ancstr_bench::{
    block_dataset, experiment_config, metric_header, render_average, train_extractor, MetricRow,
};
use ancstr_core::pipeline::evaluate_detection;

/// Paper reference averages: (detector, TPR, FPR, PPV, ACC, F1).
const PAPER_AVG: [(&str, f64, f64, f64, f64, f64); 2] = [
    ("SFA", 0.839, 0.052, 0.699, 0.930, 0.717),
    ("ours", 0.790, 0.007, 0.896, 0.969, 0.815),
];

/// Paper per-design rows for SFA: (TPR, FPR, PPV, ACC, F1).
const PAPER_SFA: [(f64, f64, f64, f64, f64); 15] = [
    (0.667, 0.000, 1.000, 0.941, 0.800),
    (0.875, 0.171, 0.333, 0.833, 0.483),
    (0.667, 0.083, 0.667, 0.867, 0.667),
    (0.667, 0.131, 0.170, 0.861, 0.271),
    (0.833, 0.004, 0.909, 0.989, 0.870),
    (0.571, 0.000, 1.000, 0.870, 0.727),
    (1.000, 0.108, 0.197, 0.895, 0.329),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (0.875, 0.016, 0.778, 0.978, 0.824),
    (0.625, 0.057, 0.455, 0.921, 0.526),
    (1.000, 0.143, 0.500, 0.875, 0.667),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (0.800, 0.074, 0.471, 0.917, 0.593),
];

/// Paper per-design rows for this work.
const PAPER_OURS: [(f64, f64, f64, f64, f64); 15] = [
    (0.333, 0.000, 1.000, 0.882, 0.500),
    (0.625, 0.049, 0.556, 0.922, 0.588),
    (0.333, 0.000, 1.000, 0.867, 0.500),
    (0.667, 0.007, 0.800, 0.981, 0.727),
    (0.667, 0.011, 0.727, 0.975, 0.696),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.011, 0.700, 0.989, 0.824),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.004, 0.941, 0.996, 0.970),
    (0.625, 0.019, 0.714, 0.956, 0.667),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (1.000, 0.000, 1.000, 1.000, 1.000),
    (0.600, 0.000, 1.000, 0.970, 0.750),
];

fn paper_line(p: &(f64, f64, f64, f64, f64)) -> String {
    format!(
        "{:<8} {:>6.3} {:>6.3} {:>6.3} {:>6.3} {:>8.3} {:>10}",
        " paper", p.0, p.1, p.2, p.3, p.4, "-"
    )
}

fn main() {
    println!("Table VI: device-level symmetry constraint extraction");
    println!();
    let dataset = block_dataset();

    println!("[1/2] running SFA (signal-flow patterns) ...");
    let mut sfa_rows = Vec::new();
    for b in &dataset {
        let extraction = sfa_extract(&b.flat);
        let eval = evaluate_detection(&b.flat, extraction);
        sfa_rows.push(MetricRow::from_evaluation(b.name, &eval, |e| e.device));
    }

    println!("[2/2] training the GNN on all 15 block circuits ...");
    let extractor = train_extractor(&dataset, experiment_config());
    let mut our_rows = Vec::new();
    for b in &dataset {
        let eval = extractor.evaluate(&b.flat);
        our_rows.push(MetricRow::from_evaluation(b.name, &eval, |e| e.device));
    }

    println!();
    println!("== SFA [6] ==  (indented lines: paper's values)");
    println!("{}", metric_header());
    for (r, p) in sfa_rows.iter().zip(&PAPER_SFA) {
        println!("{}", r.render());
        println!("{}", paper_line(p));
    }
    println!("{}", render_average(&sfa_rows));
    let p = PAPER_AVG[0];
    println!(
        "(paper avg: TPR {} FPR {} PPV {} ACC {} F1 {})",
        p.1, p.2, p.3, p.4, p.5
    );

    println!();
    println!("== This work ==  (indented lines: paper's values)");
    println!("{}", metric_header());
    for (r, p) in our_rows.iter().zip(&PAPER_OURS) {
        println!("{}", r.render());
        println!("{}", paper_line(p));
    }
    println!("{}", render_average(&our_rows));
    let p = PAPER_AVG[1];
    println!(
        "(paper avg: TPR {} FPR {} PPV {} ACC {} F1 {})",
        p.1, p.2, p.3, p.4, p.5
    );
}
