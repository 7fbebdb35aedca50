//! Sliding-window and cumulative aggregation of audit scores.

use std::collections::VecDeque;

use aqp_diagnostics::DiagnosticOutcome;

/// Counts of the four diagnostic confusion-matrix cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionCounts {
    /// Diagnostic accepted, CI covered.
    pub true_accepts: u64,
    /// Diagnostic rejected, CI missed.
    pub true_rejects: u64,
    /// Diagnostic accepted, CI missed (dangerous).
    pub false_positives: u64,
    /// Diagnostic rejected, CI covered (wasteful).
    pub false_negatives: u64,
}

impl ConfusionCounts {
    /// Record one confusion cell.
    pub fn add(&mut self, o: DiagnosticOutcome) {
        match o {
            DiagnosticOutcome::TrueAccept => self.true_accepts += 1,
            DiagnosticOutcome::TrueReject => self.true_rejects += 1,
            DiagnosticOutcome::FalsePositive => self.false_positives += 1,
            DiagnosticOutcome::FalseNegative => self.false_negatives += 1,
        }
    }

    /// False-positive rate among diagnostic *accepts* (the paper's
    /// dangerous direction), `None` with no accepts.
    pub fn false_positive_rate(&self) -> Option<f64> {
        let accepts = self.true_accepts + self.false_positives;
        (accepts > 0).then(|| self.false_positives as f64 / accepts as f64)
    }

    /// False-negative rate among diagnostic *rejects* (needless
    /// fallbacks), `None` with no rejects.
    pub fn false_negative_rate(&self) -> Option<f64> {
        let rejects = self.true_rejects + self.false_negatives;
        (rejects > 0).then(|| self.false_negatives as f64 / rejects as f64)
    }
}

/// A fixed-capacity sliding window over coverage verdicts (`None` for a
/// score without a CI) with an O(1) coverage query (running hit/miss
/// counts maintained on push/evict).
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    cap: usize,
    entries: VecDeque<Option<bool>>,
    hits: u64,
    misses: u64,
}

impl SlidingWindow {
    /// A window keeping the last `cap` verdicts (capacity at least 1).
    pub fn new(cap: usize) -> Self {
        SlidingWindow {
            cap: cap.max(1),
            entries: VecDeque::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Push one score's coverage verdict, evicting the oldest at capacity.
    pub fn push(&mut self, covered: Option<bool>) {
        if self.entries.len() == self.cap {
            if let Some(old) = self.entries.pop_front() {
                match old {
                    Some(true) => self.hits = self.hits.saturating_sub(1),
                    Some(false) => self.misses = self.misses.saturating_sub(1),
                    None => {}
                }
            }
        }
        match covered {
            Some(true) => self.hits += 1,
            Some(false) => self.misses += 1,
            None => {}
        }
        self.entries.push_back(covered);
    }

    /// Verdicts currently in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the window empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in the window that carry a coverage verdict (had a CI).
    pub fn coverage_verdicts(&self) -> u64 {
        self.hits + self.misses
    }

    /// CI coverage rate over the window (`None` with no CI verdicts).
    pub fn coverage(&self) -> Option<f64> {
        let n = self.hits + self.misses;
        (n > 0).then(|| self.hits as f64 / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_over_window() {
        let mut w = SlidingWindow::new(4);
        assert_eq!(w.coverage(), None);
        for covered in [true, true, true, false] {
            w.push(Some(covered));
        }
        assert_eq!(w.coverage(), Some(0.75));
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn eviction_slides_the_stats() {
        let mut w = SlidingWindow::new(2);
        w.push(Some(false));
        w.push(Some(true));
        w.push(Some(true));
        // The miss fell out.
        assert_eq!(w.coverage(), Some(1.0));
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn scores_without_verdicts_occupy_slots_but_not_rates() {
        let mut w = SlidingWindow::new(3);
        w.push(None);
        w.push(Some(true));
        assert_eq!(w.len(), 2);
        assert_eq!(w.coverage(), Some(1.0));
        assert_eq!(w.coverage_verdicts(), 1);
    }

    #[test]
    fn confusion_rates() {
        let mut c = ConfusionCounts::default();
        c.add(DiagnosticOutcome::TrueAccept);
        c.add(DiagnosticOutcome::TrueAccept);
        c.add(DiagnosticOutcome::FalsePositive);
        c.add(DiagnosticOutcome::TrueReject);
        assert!((c.false_positive_rate().unwrap() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.false_negative_rate(), Some(0.0));
        assert_eq!(ConfusionCounts::default().false_positive_rate(), None);
    }
}
