//! Evaluation metrics (paper Eq. 6) and ROC analysis (Figs. 6–7).

/// Confusion counts over the valid pairs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// Predicted matched, truly matched.
    pub tp: usize,
    /// Predicted matched, truly unmatched.
    pub fp: usize,
    /// Predicted unmatched, truly unmatched.
    pub tn: usize,
    /// Predicted unmatched, truly matched.
    pub fn_: usize,
}

impl Confusion {
    /// Accumulate one decision.
    pub fn record(&mut self, predicted: bool, actual: bool) {
        match (predicted, actual) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, false) => self.tn += 1,
            (false, true) => self.fn_ += 1,
        }
    }

    /// Merge another confusion (dataset merging).
    pub fn merge(&mut self, other: &Confusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.tn += other.tn;
        self.fn_ += other.fn_;
    }

    /// Total decisions.
    pub fn total(&self) -> usize {
        self.tp + self.fp + self.tn + self.fn_
    }

    /// True positive rate `TP / (TP + FN)` (1 when no positives exist).
    pub fn tpr(&self) -> f64 {
        ratio(self.tp, self.tp + self.fn_, 1.0)
    }

    /// False positive rate `FP / (FP + TN)` (0 when no negatives exist).
    pub fn fpr(&self) -> f64 {
        ratio(self.fp, self.fp + self.tn, 0.0)
    }

    /// Positive predictive value `TP / (TP + FP)` (1 when nothing was
    /// predicted positive).
    pub fn ppv(&self) -> f64 {
        ratio(self.tp, self.tp + self.fp, 1.0)
    }

    /// Accuracy `(TP + TN) / total` (1 on an empty set).
    pub fn acc(&self) -> f64 {
        ratio(self.tp + self.tn, self.total(), 1.0)
    }

    /// F₁-score `2TP / (2TP + FP + FN)` (1 when there is nothing to
    /// find and nothing was claimed).
    pub fn f1(&self) -> f64 {
        ratio(2 * self.tp, 2 * self.tp + self.fp + self.fn_, 1.0)
    }
}

fn ratio(num: usize, den: usize, empty: f64) -> f64 {
    if den == 0 {
        empty
    } else {
        num as f64 / den as f64
    }
}

/// Build a confusion from `(predicted, actual)` pairs.
pub fn confusion_from_decisions(
    decisions: impl IntoIterator<Item = (bool, bool)>,
) -> Confusion {
    let mut c = Confusion::default();
    for (p, a) in decisions {
        c.record(p, a);
    }
    c
}

/// One point of an ROC curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RocPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// False positive rate.
    pub fpr: f64,
    /// True positive rate.
    pub tpr: f64,
}

/// An ROC curve with its AUC.
#[derive(Debug, Clone, PartialEq)]
pub struct RocCurve {
    /// Points ordered by increasing FPR (threshold decreasing), always
    /// starting at (0,0) and ending at (1,1).
    pub points: Vec<RocPoint>,
    /// Area under the curve (trapezoidal).
    pub auc: f64,
}

/// Compute the ROC curve of `(score, actual)` samples by sweeping the
/// threshold over every distinct score.
///
/// Degenerate inputs (no positives or no negatives) yield the diagonal
/// endpoints with `auc` computed over whatever axis varies.
pub fn roc_curve(samples: &[(f64, bool)]) -> RocCurve {
    let positives = samples.iter().filter(|(_, a)| *a).count();
    let negatives = samples.len() - positives;

    let mut sorted: Vec<(f64, bool)> = samples.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));

    let mut points = vec![RocPoint { threshold: f64::INFINITY, fpr: 0.0, tpr: 0.0 }];
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut i = 0;
    while i < sorted.len() {
        // Consume ties together so the curve is threshold-consistent.
        let score = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == score {
            if sorted[i].1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        points.push(RocPoint {
            threshold: score,
            fpr: if negatives > 0 { fp as f64 / negatives as f64 } else { 0.0 },
            tpr: if positives > 0 { tp as f64 / positives as f64 } else { 0.0 },
        });
    }
    let last = points.last().copied().expect("at least the origin");
    if last.fpr < 1.0 || last.tpr < 1.0 {
        points.push(RocPoint { threshold: f64::NEG_INFINITY, fpr: 1.0, tpr: 1.0 });
    }

    // Trapezoidal AUC over FPR.
    let mut auc = 0.0;
    for w in points.windows(2) {
        auc += (w[1].fpr - w[0].fpr) * (w[0].tpr + w[1].tpr) / 2.0;
    }
    RocCurve { points, auc }
}

/// One point of a precision-recall curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// Decision threshold producing this point.
    pub threshold: f64,
    /// Recall (= TPR).
    pub recall: f64,
    /// Precision (= PPV).
    pub precision: f64,
}

/// A precision-recall curve with its average precision (AP, the
/// recall-weighted mean of precision — the step-function integral).
#[derive(Debug, Clone, PartialEq)]
pub struct PrCurve {
    /// Points ordered by increasing recall (decreasing threshold).
    pub points: Vec<PrPoint>,
    /// Average precision.
    pub average_precision: f64,
}

/// Compute the precision-recall curve of `(score, actual)` samples.
///
/// Complements [`roc_curve`] for the heavily class-imbalanced regime of
/// symmetry detection, where negatives vastly outnumber positives and
/// ROC can look optimistic. Returns an empty curve with AP = 0 when
/// there are no positives.
pub fn pr_curve(samples: &[(f64, bool)]) -> PrCurve {
    let positives = samples.iter().filter(|(_, a)| *a).count();
    if positives == 0 {
        return PrCurve { points: Vec::new(), average_precision: 0.0 };
    }
    let mut sorted: Vec<(f64, bool)> = samples.to_vec();
    sorted.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("scores are finite"));

    let mut points = Vec::new();
    let (mut tp, mut fp) = (0usize, 0usize);
    let mut ap = 0.0;
    let mut prev_recall = 0.0;
    let mut i = 0;
    while i < sorted.len() {
        let score = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == score {
            if sorted[i].1 {
                tp += 1;
            } else {
                fp += 1;
            }
            i += 1;
        }
        let recall = tp as f64 / positives as f64;
        let precision = tp as f64 / (tp + fp) as f64;
        ap += (recall - prev_recall) * precision;
        prev_recall = recall;
        points.push(PrPoint { threshold: score, recall, precision });
    }
    PrCurve { points, average_precision: ap }
}

/// Table V / Table VI confusions of a constraint set against a
/// circuit's ground truth, per symmetry level: `overall`, `system`,
/// `device` (in that order).
///
/// This is the single source of truth behind both the CLI's
/// `--metrics` table ([`render_metrics_table`]) and the Prometheus
/// quality gauges, so the two can never drift apart. One walk over the
/// valid pairs decides each pair once and records it in `overall` and
/// in its level.
pub fn level_confusions(
    flat: &ancstr_netlist::FlatCircuit,
    constraints: &ancstr_netlist::constraint::ConstraintSet,
) -> [(&'static str, Confusion); 3] {
    use ancstr_netlist::SymmetryKind;
    let gt = flat.ground_truth();
    let (mut overall, mut system, mut device) =
        (Confusion::default(), Confusion::default(), Confusion::default());
    for p in crate::pairs::valid_pairs(flat) {
        let (a, b) = (p.pair.lo(), p.pair.hi());
        let (predicted, actual) = (constraints.contains_pair(a, b), gt.contains_pair(a, b));
        overall.record(predicted, actual);
        match p.kind {
            SymmetryKind::System => system.record(predicted, actual),
            SymmetryKind::Device => device.record(predicted, actual),
        }
    }
    [("overall", overall), ("system", system), ("device", device)]
}

/// Render the Table V / Table VI metric columns (TPR, FPR, PPV, ACC,
/// F₁) of the extracted constraints against the netlist's ground
/// truth, overall and per symmetry level. Deterministic given the same
/// constraints. CI diffs it across crash/resume runs and between a
/// finished run and its resume, which reloads the sealed `detect`
/// stage.
pub fn render_metrics_table(
    flat: &ancstr_netlist::FlatCircuit,
    constraints: &ancstr_netlist::constraint::ConstraintSet,
) -> String {
    render_confusions(&level_confusions(flat, constraints))
}

/// [`render_metrics_table`] of confusions already computed by
/// [`level_confusions`].
pub fn render_confusions(levels: &[(&'static str, Confusion); 3]) -> String {
    let mut out = String::from("# level tpr fpr ppv acc f1\n");
    for (level, c) in levels {
        out.push_str(&format!(
            "{level} {:.6} {:.6} {:.6} {:.6} {:.6}\n",
            c.tpr(),
            c.fpr(),
            c.ppv(),
            c.acc(),
            c.f1()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq6_identities() {
        let c = Confusion { tp: 8, fp: 2, tn: 85, fn_: 5 };
        assert!((c.tpr() - 8.0 / 13.0).abs() < 1e-12);
        assert!((c.fpr() - 2.0 / 87.0).abs() < 1e-12);
        assert!((c.ppv() - 0.8).abs() < 1e-12);
        assert!((c.acc() - 93.0 / 100.0).abs() < 1e-12);
        assert!((c.f1() - 16.0 / 23.0).abs() < 1e-12);
    }

    #[test]
    fn empty_denominators_take_conventions() {
        let c = Confusion::default();
        assert_eq!(c.tpr(), 1.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.ppv(), 1.0);
        assert_eq!(c.acc(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn record_and_merge() {
        let mut a = confusion_from_decisions([(true, true), (false, true)]);
        let b = confusion_from_decisions([(true, false), (false, false)]);
        a.merge(&b);
        assert_eq!(a, Confusion { tp: 1, fn_: 1, fp: 1, tn: 1 });
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn perfect_separation_gives_auc_one() {
        let samples = vec![(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let roc = roc_curve(&samples);
        assert!((roc.auc - 1.0).abs() < 1e-12);
        assert_eq!(roc.points.first().unwrap().tpr, 0.0);
        assert_eq!(roc.points.last().unwrap().tpr, 1.0);
    }

    #[test]
    fn random_scores_give_auc_half() {
        // Interleaved scores → stepwise diagonal.
        let samples = vec![
            (0.9, true),
            (0.8, false),
            (0.7, true),
            (0.6, false),
            (0.5, true),
            (0.4, false),
        ];
        let roc = roc_curve(&samples);
        assert!((roc.auc - 0.5).abs() < 0.2);
    }

    #[test]
    fn inverted_scores_give_auc_zero() {
        let samples = vec![(0.1, true), (0.9, false)];
        let roc = roc_curve(&samples);
        assert!(roc.auc.abs() < 1e-12);
    }

    #[test]
    fn ties_are_consumed_together() {
        let samples = vec![(0.5, true), (0.5, false), (0.5, true), (0.5, false)];
        let roc = roc_curve(&samples);
        // Origin plus one interior point at (1, 1): AUC = 0.5 (the tie
        // diagonal); the (1, 1) terminus is already reached, so no extra
        // endpoint is appended.
        assert!((roc.auc - 0.5).abs() < 1e-12);
        assert_eq!(roc.points.len(), 2);
    }

    #[test]
    fn curve_is_monotone() {
        let samples: Vec<(f64, bool)> = (0..100)
            .map(|i| ((i as f64 * 37.0) % 101.0 / 101.0, i % 3 == 0))
            .collect();
        let roc = roc_curve(&samples);
        for w in roc.points.windows(2) {
            assert!(w[1].fpr >= w[0].fpr);
            assert!(w[1].tpr >= w[0].tpr);
        }
        assert!((0.0..=1.0).contains(&roc.auc));
    }

    #[test]
    fn pr_curve_perfect_separation() {
        let samples = vec![(0.9, true), (0.8, true), (0.2, false)];
        let pr = pr_curve(&samples);
        assert!((pr.average_precision - 1.0).abs() < 1e-12);
        let last = pr.points.last().unwrap();
        assert!((last.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pr_curve_inverted_scores() {
        let samples = vec![(0.1, true), (0.9, false)];
        let pr = pr_curve(&samples);
        // The single positive is found last: AP = 1 × 1/2.
        assert!((pr.average_precision - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pr_curve_no_positives_is_empty() {
        let pr = pr_curve(&[(0.5, false), (0.6, false)]);
        assert!(pr.points.is_empty());
        assert_eq!(pr.average_precision, 0.0);
    }

    #[test]
    fn pr_recall_is_monotone() {
        let samples: Vec<(f64, bool)> = (0..50)
            .map(|i| ((i as f64 * 17.0) % 23.0 / 23.0, i % 4 == 0))
            .collect();
        let pr = pr_curve(&samples);
        for w in pr.points.windows(2) {
            assert!(w[1].recall >= w[0].recall);
        }
        assert!((0.0..=1.0).contains(&pr.average_precision));
    }

    #[test]
    fn degenerate_all_positive() {
        let roc = roc_curve(&[(0.7, true), (0.3, true)]);
        assert!(roc.points.iter().all(|p| p.fpr == 0.0 || p.threshold == f64::NEG_INFINITY));
    }
}
