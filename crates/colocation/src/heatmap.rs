//! The consolidation heatmap (paper Fig. 5): normalized foreground
//! runtime for every ordered (foreground, background) pair.

use serde::{Deserialize, Serialize};

use crate::classify::{classify, PairClass};
use crate::study::Study;
use crate::sweep::{supervised_map, CellFailure, Supervisor, SweepPolicy, SweepReport};

/// Measurement quality of one heatmap cell.
///
/// Anything other than `Ok` means the cell's value must not be trusted as
/// a slowdown: `Truncated` and `Stalled` carry a (lower-bound / poisoned)
/// number, `Failed` cells hold NaN.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum CellStatus {
    /// The measurement completed normally.
    #[default]
    Ok,
    /// The co-run hit the cycle cap before the foreground finished; the
    /// recorded slowdown is a lower bound.
    Truncated,
    /// The forward-progress watchdog fired; the recorded value is
    /// meaningless.
    Stalled,
    /// The cell's simulation panicked through all its attempts; the value
    /// is NaN.
    Failed,
}

/// An N x N matrix of normalized foreground execution times.
/// `norm[fg][bg]` is fg's co-run time over its solo time.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Heatmap {
    /// Application names (row/column order).
    pub names: Vec<String>,
    /// Normalized foreground times: `norm[fg][bg]`. Failed cells are NaN.
    pub norm: Vec<Vec<f64>>,
    /// Measurement quality of each cell, same shape as `norm`.
    pub status: Vec<Vec<CellStatus>>,
}

impl Heatmap {
    /// Builds a heatmap from values alone, marking every cell `Ok`
    /// (test fixtures, precomputed matrices).
    pub fn from_norm(names: Vec<String>, norm: Vec<Vec<f64>>) -> Heatmap {
        let status = norm.iter().map(|row| vec![CellStatus::Ok; row.len()]).collect();
        Heatmap { names, norm, status }
    }

    /// The row-major ordered-pair cell list for an `n`-application sweep —
    /// the canonical cell order shared by the local supervisor and the
    /// distributed fabric, so their result indexing agrees.
    pub fn pair_cells(n: usize) -> Vec<(usize, usize)> {
        (0..n).flat_map(|i| (0..n).map(move |j| (i, j))).collect()
    }

    /// The campaign over [`Heatmap::pair_cells`]`(n)` that both executors
    /// drive. Cell `(i, 0)` gates the rest of row `i`: it computes
    /// foreground `i`'s solo run, the denominator of every cell in the
    /// row, so the row's other cells find it cached instead of each
    /// simulating it again.
    pub fn campaign(n: usize, policy: SweepPolicy) -> Supervisor<(f64, CellStatus)> {
        let gates = (0..n * n).map(|k| (k % n != 0).then_some(k - k % n)).collect();
        Supervisor::new(gates, policy)
    }

    /// Assembles a heatmap from individually settled cells. Cells never
    /// supplied stay NaN/`Failed`.
    pub fn from_cells(
        names: Vec<String>,
        cells: impl IntoIterator<Item = (usize, usize, f64, CellStatus)>,
    ) -> Heatmap {
        let n = names.len();
        let mut norm = vec![vec![f64::NAN; n]; n];
        let mut status = vec![vec![CellStatus::Failed; n]; n];
        for (i, j, v, st) in cells {
            norm[i][j] = v;
            status[i][j] = st;
        }
        Heatmap { names, norm, status }
    }

    /// Assembles a heatmap from a sweep over [`Heatmap::pair_cells`]:
    /// failed cells become NaN holes, and their failures come back in
    /// cell order. Both campaign executors finish here.
    pub fn from_report(
        names: Vec<String>,
        report: SweepReport<(f64, CellStatus)>,
    ) -> (Heatmap, Vec<CellFailure>) {
        let n = names.len();
        let mut cells = Vec::with_capacity(report.results.len());
        let mut failures = Vec::new();
        for (k, res) in report.results.into_iter().enumerate() {
            match res {
                Ok((v, st)) => cells.push((k / n, k % n, v, st)),
                Err(f) => failures.push(f),
            }
        }
        (Heatmap::from_cells(names, cells), failures)
    }

    /// The label of pair cell `index` (`"fg/bg"`), as failure records
    /// name it.
    pub fn cell_label(names: &[impl AsRef<str>], index: usize) -> String {
        let n = names.len();
        format!("{}/{}", names[index / n].as_ref(), names[index % n].as_ref())
    }

    /// Measures one cell: `fg` under `bg` as retry `attempt`, with the
    /// measurement's quality.
    pub fn measure_cell(study: &Study, fg: &str, bg: &str, attempt: u32) -> (f64, CellStatus) {
        let pair = study.pair_attempt(fg, bg, attempt);
        let status = if pair.stalled {
            CellStatus::Stalled
        } else if pair.truncated {
            CellStatus::Truncated
        } else {
            CellStatus::Ok
        };
        (pair.fg_slowdown, status)
    }

    /// Runs the full ordered-pair sweep over `names` (625 runs for the
    /// paper's 25 applications), parallelized across host cores.
    ///
    /// Any cell failure is fatal (after the sweep settles); use
    /// [`Heatmap::compute_supervised`] to keep going past failed cells.
    pub fn compute(study: &Study, names: &[&str]) -> Heatmap {
        let (map, failures) =
            Self::compute_supervised(study, names, SweepPolicy::default(), |_, _| {});
        if let Some(f) = failures.first() {
            panic!(
                "heatmap cell {} failed after {} attempt(s): {}",
                f.spec, f.attempts, f.cause
            );
        }
        map
    }

    /// The fault-tolerant sweep: cells run under panic isolation with
    /// `policy`'s retry budget, failed cells become NaN holes marked
    /// [`CellStatus::Failed`], and the failures come back as data.
    ///
    /// With `policy.keep_going` unset, the first failure also skips every
    /// cell not yet claimed (those are reported as failures too).
    ///
    /// `on_cell(completed, total)` ticks as each pair cell settles. With a
    /// store-backed study every completed cell is already journaled when
    /// its tick fires, so the progress line doubles as a durability
    /// indicator for resumable sweeps.
    pub fn compute_supervised(
        study: &Study,
        names: &[&str],
        policy: SweepPolicy,
        on_cell: impl Fn(usize, usize) + Sync,
    ) -> (Heatmap, Vec<CellFailure>) {
        let report = supervised_map(
            &Self::pair_cells(names.len()),
            Self::campaign(names.len(), policy),
            |k, _| Self::cell_label(names, k),
            |&(i, j), attempt| Self::measure_cell(study, names[i], names[j], attempt),
            on_cell,
        );
        Self::from_report(names.iter().map(|s| s.to_string()).collect(), report)
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the map is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Index of an application by name.
    pub fn index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Normalized time of foreground `fg` under background `bg`.
    pub fn cell(&self, fg: usize, bg: usize) -> f64 {
        self.norm[fg][bg]
    }

    /// Measurement quality of cell `(fg, bg)`.
    pub fn cell_status(&self, fg: usize, bg: usize) -> CellStatus {
        self.status[fg][bg]
    }

    /// Counts of `(truncated, stalled, failed)` cells — the ledger the
    /// CLI prints after a sweep.
    pub fn status_counts(&self) -> (usize, usize, usize) {
        let (mut t, mut s, mut f) = (0, 0, 0);
        for row in &self.status {
            for st in row {
                match st {
                    CellStatus::Ok => {}
                    CellStatus::Truncated => t += 1,
                    CellStatus::Stalled => s += 1,
                    CellStatus::Failed => f += 1,
                }
            }
        }
        (t, s, f)
    }

    /// Classifies the unordered pair `(a, b)` from both directions.
    pub fn class(&self, a: usize, b: usize) -> PairClass {
        classify(self.norm[a][b], self.norm[b][a])
    }

    /// Counts (harmony, victim-offender, both-victim) over unordered
    /// pairs including self-pairs.
    pub fn class_counts(&self) -> (usize, usize, usize) {
        let n = self.len();
        let (mut h, mut vo, mut bv) = (0, 0, 0);
        for a in 0..n {
            for b in a..n {
                match self.class(a, b) {
                    PairClass::Harmony => h += 1,
                    PairClass::VictimOffender { .. } => vo += 1,
                    PairClass::BothVictim => bv += 1,
                }
            }
        }
        (h, vo, bv)
    }

    /// The worst slowdown any foreground suffers under background `bg` —
    /// a scalar "offender score". NaN holes are skipped.
    pub fn offender_score(&self, bg: usize) -> f64 {
        (0..self.len()).map(|fg| self.norm[fg][bg]).fold(0.0, f64::max)
    }

    /// The worst slowdown application `fg` suffers under any background —
    /// a scalar "victim score". NaN holes are skipped.
    pub fn victim_score(&self, fg: usize) -> f64 {
        self.norm[fg].iter().copied().fold(0.0, f64::max)
    }

    /// Renders the matrix as CSV (first column = foreground name, one
    /// column per background) for external plotting. Failed cells render
    /// as `NaN`.
    pub fn to_csv(&self) -> String {
        let mut headers = vec!["fg\\bg".to_string()];
        headers.extend(self.names.iter().cloned());
        let mut w = crate::report::csv::CsvWriter::new(&headers);
        for (i, name) in self.names.iter().enumerate() {
            let mut row = vec![name.clone()];
            row.extend(self.norm[i].iter().map(|v| format!("{v:.4}")));
            w.row(&row);
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Heatmap {
        Heatmap::from_norm(
            vec!["a".into(), "b".into(), "c".into()],
            vec![
                vec![1.0, 1.6, 1.1],
                vec![1.2, 1.0, 1.7],
                vec![1.0, 1.8, 1.05],
            ],
        )
    }

    #[test]
    fn cell_and_index() {
        let h = sample();
        assert_eq!(h.index("b"), Some(1));
        assert_eq!(h.index("zz"), None);
        assert!((h.cell(0, 1) - 1.6).abs() < 1e-12);
        assert_eq!(h.len(), 3);
        assert!(!h.is_empty());
    }

    #[test]
    fn from_cells_assembles_and_missing_cells_stay_failed() {
        assert_eq!(Heatmap::pair_cells(2), vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
        let h = Heatmap::from_cells(
            vec!["a".into(), "b".into()],
            vec![
                (0, 0, 1.0, CellStatus::Ok),
                (0, 1, 1.5, CellStatus::Truncated),
                (1, 0, 1.2, CellStatus::Ok),
            ],
        );
        assert_eq!(h.cell_status(0, 1), CellStatus::Truncated);
        assert!(h.cell(1, 1).is_nan());
        assert_eq!(h.cell_status(1, 1), CellStatus::Failed);
    }

    #[test]
    fn from_norm_marks_every_cell_ok() {
        let h = sample();
        assert_eq!(h.status_counts(), (0, 0, 0));
        assert_eq!(h.cell_status(1, 2), CellStatus::Ok);
    }

    #[test]
    fn status_counts_tally_by_kind() {
        let mut h = sample();
        h.status[0][1] = CellStatus::Truncated;
        h.status[1][0] = CellStatus::Stalled;
        h.status[2][2] = CellStatus::Failed;
        h.status[2][1] = CellStatus::Failed;
        assert_eq!(h.status_counts(), (1, 1, 2));
    }

    #[test]
    fn class_uses_both_directions() {
        let h = sample();
        // a under b = 1.6 (victim), b under a = 1.2: victim-offender.
        assert_eq!(h.class(0, 1), PairClass::VictimOffender { victim_is_a: true });
        // b under c = 1.7, c under b = 1.8: both-victim.
        assert_eq!(h.class(1, 2), PairClass::BothVictim);
        // a under c = 1.1, c under a = 1.0: harmony.
        assert_eq!(h.class(0, 2), PairClass::Harmony);
    }

    #[test]
    fn class_counts_cover_all_unordered_pairs() {
        let h = sample();
        let (harmony, vo, bv) = h.class_counts();
        // 3 diagonal + 3 off-diagonal unordered pairs.
        assert_eq!(harmony + vo + bv, 6);
        assert_eq!(bv, 1);
        assert_eq!(vo, 1);
    }

    #[test]
    fn csv_round_trips_dimensions() {
        let h = sample();
        let csv = h.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 rows
        assert!(lines[0].starts_with("fg\\bg,a,b,c"));
        assert!(lines[1].starts_with("a,1.0000,1.6000"));
    }

    #[test]
    fn nan_holes_render_and_do_not_poison_scores() {
        let mut h = sample();
        h.norm[0][1] = f64::NAN;
        h.status[0][1] = CellStatus::Failed;
        assert!(h.to_csv().contains("NaN"));
        // Column b still has a defined max from the other rows.
        assert!((h.offender_score(1) - 1.8).abs() < 1e-12);
        assert!((h.victim_score(0) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn offender_and_victim_scores() {
        let h = sample();
        // Column b: worst fg slowdown is max(1.6, 1.0, 1.8) = 1.8.
        assert!((h.offender_score(1) - 1.8).abs() < 1e-12);
        // Row b: worst is 1.7.
        assert!((h.victim_score(1) - 1.7).abs() < 1e-12);
    }
}
