//! Time sources: a monotonic real clock and a deterministic mock.
//!
//! All timing in the workspace routes through [`Clock`] (enforced by the
//! `timing-discipline` lint rule): production code uses [`Clock::Real`],
//! tests use [`Clock::mock`] so latency-dependent assertions are exactly
//! reproducible.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// A monotonic point in time, in nanoseconds since the clock's epoch.
///
/// For [`Clock::Real`] the epoch is the first observation made by any
/// real clock in the process; for mocks it is whatever the mock was
/// constructed at. Timestamps from different clocks are not comparable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// Construct from raw nanoseconds since the clock epoch.
    pub fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Nanoseconds since the clock epoch.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is
    /// in the future (which can only happen across distinct clocks).
    pub fn duration_since(self, earlier: Timestamp) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

/// The process-wide monotonic anchor for the real clock. All real
/// timestamps are measured relative to this single `Instant`, which
/// keeps them mutually comparable.
fn real_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// A time source: the real monotonic clock, or a manually-advanced mock.
///
/// Clones share the underlying source: advancing one mock handle is
/// visible through every clone.
#[derive(Debug, Clone, Default)]
pub enum Clock {
    /// The OS monotonic clock (process-wide epoch).
    #[default]
    Real,
    /// A deterministic clock that only moves when [`Clock::advance`] is
    /// called. Starts at the nanosecond count it was constructed with.
    Mock(Arc<AtomicU64>),
}

impl Clock {
    /// The real monotonic clock.
    pub fn real() -> Self {
        Clock::Real
    }

    /// A deterministic mock starting at t = 0.
    pub fn mock() -> Self {
        Clock::mock_at(0)
    }

    /// A deterministic mock starting at `nanos` since its epoch.
    pub fn mock_at(nanos: u64) -> Self {
        Clock::Mock(Arc::new(AtomicU64::new(nanos)))
    }

    /// The current time on this clock.
    pub fn now(&self) -> Timestamp {
        match self {
            Clock::Real => {
                let anchor = real_anchor();
                Timestamp(anchor.elapsed().as_nanos() as u64)
            }
            Clock::Mock(t) => Timestamp(t.load(Ordering::SeqCst)),
        }
    }

    /// Advance a mock clock by `d`. On the real clock this is a no-op —
    /// real time cannot be steered.
    pub fn advance(&self, d: Duration) {
        if let Clock::Mock(t) = self {
            t.fetch_add(d.as_nanos() as u64, Ordering::SeqCst);
        }
    }

    /// Run `f` and return its result together with the elapsed time on
    /// this clock.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = self.now();
        let out = f();
        (out, self.now().duration_since(start))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mock_clock_is_deterministic_and_shared_across_clones() {
        let c = Clock::mock();
        assert_eq!(c.now(), Timestamp::from_nanos(0));
        let c2 = c.clone();
        c.advance(Duration::from_micros(5));
        assert_eq!(c2.now().nanos(), 5_000);
        c2.advance(Duration::from_nanos(3));
        assert_eq!(c.now().nanos(), 5_003);
    }

    #[test]
    fn mock_time_measures_exactly_the_advance() {
        let c = Clock::mock_at(1_000);
        let (v, d) = c.time(|| {
            c.advance(Duration::from_millis(7));
            42
        });
        assert_eq!(v, 42);
        assert_eq!(d, Duration::from_millis(7));
    }

    #[test]
    fn real_clock_is_monotone() {
        let c = Clock::real();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
        // advance() on the real clock is a documented no-op.
        c.advance(Duration::from_secs(1_000_000));
        let d = c.now();
        assert!(d.duration_since(b) < Duration::from_secs(1_000));
    }

    #[test]
    fn duration_since_saturates() {
        let early = Timestamp::from_nanos(10);
        let late = Timestamp::from_nanos(30);
        assert_eq!(late.duration_since(early), Duration::from_nanos(20));
        assert_eq!(early.duration_since(late), Duration::ZERO);
    }
}
