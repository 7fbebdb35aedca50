//! Online drift detection: an EWMA control chart and a Page-Hinkley
//! test streaming over per-query indicators (relative error, coverage
//! misses), so miscalibration fires *between* audit windows instead of
//! only after a full replay window latches.
//!
//! Both detectors are pure functions of the observed event sequence —
//! no randomness, no wall clock — so a seeded run signals at exactly
//! the same event ordinal every time.

/// EWMA smoothing weight λ in `(0, 1]`.
const EWMA_ALPHA: f64 = 0.1;
/// EWMA control-limit width in baseline standard deviations.
const EWMA_K: f64 = 4.0;
/// Page-Hinkley tolerated magnitude δ (drift smaller than this is
/// ignored).
const PH_DELTA: f64 = 0.005;
/// Page-Hinkley alarm threshold λ on the accumulated excess.
const PH_LAMBDA: f64 = 2.0;
/// Events before either detector may signal (baseline warm-up).
const MIN_SAMPLES: u64 = 10;

/// Which detector raised a [`DriftSignal`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Detector {
    /// The EWMA control chart left its control limits.
    Ewma,
    /// The Page-Hinkley accumulated excess crossed its threshold.
    PageHinkley,
}

impl Detector {
    /// Stable lowercase name for logs and dashboards.
    pub fn as_str(self) -> &'static str {
        match self {
            Detector::Ewma => "ewma",
            Detector::PageHinkley => "page_hinkley",
        }
    }
}

/// One drift signal: stream `stream` drifted upward at event
/// `at_event` (1-based within the stream).
#[derive(Debug, Clone)]
pub struct DriftSignal {
    /// Stream name, e.g. `default/coverage_miss`.
    pub stream: String,
    /// Which detector fired.
    pub detector: Detector,
    /// 1-based ordinal of the observation that tripped the detector.
    pub at_event: u64,
    /// The detector statistic at signal time (EWMA deviation in σ
    /// units, or the Page-Hinkley accumulated excess).
    pub statistic: f64,
}

impl std::fmt::Display for DriftSignal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drift[{}] on {} at event {} (statistic {:.3})",
            self.detector.as_str(),
            self.stream,
            self.at_event,
            self.statistic
        )
    }
}

/// EWMA control chart for an upward mean shift: smooth the stream with
/// weight λ and signal when the smoothed value exceeds the running
/// baseline mean by `k` asymptotic EWMA standard deviations
/// (`σ·sqrt(λ/(2−λ))`), with baseline mean/variance tracked by
/// Welford's algorithm.
#[derive(Debug, Clone, Default)]
struct Ewma {
    n: u64,
    mean: f64,
    m2: f64,
    z: f64,
}

impl Ewma {
    /// Observe `x`; returns the deviation in σ units when out of
    /// control (upward only).
    fn observe(&mut self, x: f64) -> Option<f64> {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.z = if self.n == 1 { x } else { EWMA_ALPHA * x + (1.0 - EWMA_ALPHA) * self.z };
        if self.n <= MIN_SAMPLES || self.n < 2 {
            return None;
        }
        let var = self.m2 / (self.n - 1) as f64;
        let sigma_z = (var * EWMA_ALPHA / (2.0 - EWMA_ALPHA)).sqrt();
        if sigma_z <= 0.0 {
            return None;
        }
        let dev = (self.z - self.mean) / sigma_z;
        (dev > EWMA_K).then_some(dev)
    }
}

/// Page-Hinkley test for an upward mean shift: accumulate
/// `x_t − mean_t − δ` and signal when the accumulation exceeds its
/// running minimum by λ.
#[derive(Debug, Clone, Default)]
struct PageHinkley {
    n: u64,
    mean: f64,
    m: f64,
    m_min: f64,
}

impl PageHinkley {
    /// Observe `x`; returns the accumulated excess when it crosses λ.
    fn observe(&mut self, x: f64) -> Option<f64> {
        self.n += 1;
        self.mean += (x - self.mean) / self.n as f64;
        self.m += x - self.mean - PH_DELTA;
        self.m_min = self.m_min.min(self.m);
        if self.n <= MIN_SAMPLES {
            return None;
        }
        let excess = self.m - self.m_min;
        (excess > PH_LAMBDA).then_some(excess)
    }
}

/// Both detectors over one named stream. After a signal the detectors
/// re-baseline (fresh state) so a later, separate drift episode can
/// signal again.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    stream: String,
    ewma: Ewma,
    ph: PageHinkley,
    events: u64,
    signals: u64,
    last_signal_at: Option<u64>,
}

impl DriftDetector {
    /// A fresh detector pair for `stream`.
    pub fn new(stream: &str) -> Self {
        DriftDetector {
            stream: stream.to_string(),
            ewma: Ewma::default(),
            ph: PageHinkley::default(),
            events: 0,
            signals: 0,
            last_signal_at: None,
        }
    }

    /// Observe one value; at most one signal per observation (the
    /// Page-Hinkley verdict wins when both fire at once).
    pub fn observe(&mut self, x: f64) -> Option<DriftSignal> {
        self.events += 1;
        let ph = self.ph.observe(x);
        let ewma = self.ewma.observe(x);
        let (detector, statistic) = match (ph, ewma) {
            (Some(s), _) => (Detector::PageHinkley, s),
            (None, Some(s)) => (Detector::Ewma, s),
            (None, None) => return None,
        };
        self.signals += 1;
        self.last_signal_at = Some(self.events);
        // Re-baseline so the detector can flag a later episode.
        self.ewma = Ewma::default();
        self.ph = PageHinkley::default();
        Some(DriftSignal {
            stream: self.stream.clone(),
            detector,
            at_event: self.events,
            statistic,
        })
    }

    /// Deterministic status line for reports/dashboards.
    pub fn status(&self) -> DriftStatus {
        DriftStatus {
            stream: self.stream.clone(),
            events: self.events,
            signals: self.signals,
            last_signal_at: self.last_signal_at,
        }
    }
}

/// Snapshot of one stream's drift state.
#[derive(Debug, Clone)]
pub struct DriftStatus {
    /// Stream name.
    pub stream: String,
    /// Observations so far.
    pub events: u64,
    /// Signals raised so far.
    pub signals: u64,
    /// Ordinal of the most recent signal, if any.
    pub last_signal_at: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detector() -> DriftDetector {
        DriftDetector::new("t/stream")
    }

    #[test]
    fn stable_stream_never_signals() {
        let mut d = detector();
        for i in 0..500u64 {
            // Deterministic small oscillation around 0.05.
            let x = 0.05 + if i % 2 == 0 { 0.01 } else { -0.01 };
            assert!(d.observe(x).is_none(), "spurious signal at event {i}");
        }
        assert_eq!(d.status().signals, 0);
    }

    #[test]
    fn step_change_signals_quickly_and_deterministically() {
        let run = || {
            let mut d = detector();
            let mut fired = None;
            for i in 0..200u64 {
                let x = if i < 60 { 0.05 } else { 0.95 }; // drift at event 61
                if let Some(sig) = d.observe(x) {
                    fired = Some((sig.at_event, sig.detector));
                    break;
                }
            }
            fired
        };
        let a = run().expect("step change must signal");
        let b = run().expect("step change must signal");
        assert_eq!(a, b, "signal ordinal must be deterministic");
        // The 0.9 jump accumulates ~0.9/event of Page-Hinkley excess:
        // the signal lands within a handful of post-change events.
        assert!(a.0 > 60 && a.0 <= 70, "signaled at {}", a.0);
    }

    #[test]
    fn rebaselines_after_a_signal_and_can_fire_again() {
        let mut d = detector();
        let mut signals = Vec::new();
        for i in 0..400u64 {
            // Two separate drift episodes with a calm stretch between.
            let x = match i {
                0..=59 => 0.0,
                60..=99 => 1.0,
                100..=299 => 0.0,
                _ => 1.0,
            };
            if let Some(sig) = d.observe(x) {
                signals.push(sig.at_event);
            }
        }
        assert!(signals.len() >= 2, "expected both episodes to signal: {signals:?}");
        assert!(signals[0] > 60 && signals[0] <= 80, "{signals:?}");
        assert!(signals.iter().any(|&s| s > 300), "{signals:?}");
        let st = d.status();
        assert_eq!(st.signals as usize, signals.len());
        assert_eq!(st.last_signal_at, signals.last().copied());
    }

    #[test]
    fn constant_stream_has_zero_variance_and_stays_quiet() {
        let mut d = detector();
        for _ in 0..100 {
            assert!(d.observe(0.3).is_none());
        }
    }
}
