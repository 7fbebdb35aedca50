//! How fast the machine is right now, in units of a fixed reference loop.
//!
//! The runner is a shared two-core VM whose speed changes for minutes at
//! a time: within one set of forty runs, ten in a row read 0.6 of the
//! throughput of those before and after them (`groupby_fanout` 11.4 and
//! 21.6 queries/s on the same seed), CPU time per query moving with wall
//! time. Ten-run sets spread 27-45 % of their median on two workloads as
//! the clock read them, and the driver refuses a metric that spreads more
//! than a quarter. Medians over the passes of a run cannot remove what
//! outlasts the run.
//!
//! So a batch of slices of the loop in this file runs before and after
//! every timed pass and every set-up, outside their timed windows, and
//! the time metrics are divided by how much slower than
//! [`REFERENCE_SLICE_S`] the slices around them ran. On a quiet machine
//! of the reference kind that factor is 1 and the figures are plain
//! milliseconds; every report prints the factor of each pass and the
//! figures as the clock read them. The loop allocates nothing once built
//! and shares no code with the engine, so the engine cannot move it; it
//! streams, filters, gathers, hashes and sorts, which is what the engine
//! spends its time on.

use aqp_obs::Clock;

/// Seconds one slice takes on the quiet reference machine (the two-core
/// 2.1 GHz runner this benchmark was written on). A unit, not a setting:
/// another value rescales every time metric alike.
pub const REFERENCE_SLICE_S: f64 = 0.0072;

/// Slices per batch; a batch reads as its median slice, so one
/// preemption does not move it.
const SLICES_PER_BATCH: usize = 3;

/// Values streamed per slice: 8 MB, past the 4 MB second-level cache, as
/// the samples the engine scans are.
const STREAMED: usize = 1 << 20;

/// Values gathered, hashed and sorted per slice.
const GATHERED: usize = 1 << 16;

/// The reference loop and its buffers.
pub struct Reference {
    clock: Clock,
    values: Vec<f64>,
    order: Vec<u32>,
    kept: Vec<f64>,
}

impl Reference {
    /// Build the buffers (the only allocation).
    pub fn new(clock: &Clock) -> Reference {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        Reference {
            clock: clock.clone(),
            values: (0..STREAMED)
                .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64)
                .collect(),
            order: (0..GATHERED)
                .map(|_| (next() % STREAMED as u64) as u32)
                .collect(),
            kept: vec![0.0; GATHERED],
        }
    }

    /// One slice: the same work every time.
    fn slice(&mut self) -> f64 {
        // Stream and filter, as `collect` does over a sample.
        let mut sum = 0.0;
        let mut n = 0usize;
        for &v in &self.values {
            if v > 0.5 {
                sum += v;
                n += 1;
            }
        }
        // Gather through scattered indices, as grouping does, and hash.
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for (slot, &i) in self.kept.iter_mut().zip(&self.order) {
            let v = self.values[i as usize];
            *slot = v;
            hash = (hash ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3);
        }
        // Sort, as percentiles and trimmed means do.
        self.kept.sort_unstable_by(f64::total_cmp);
        sum + n as f64 + self.kept[GATHERED / 2] + (hash >> 40) as f64
    }

    /// Seconds per slice right now: the median of a batch.
    pub fn batch(&mut self) -> f64 {
        let mut took = [0.0; SLICES_PER_BATCH];
        for t in &mut took {
            let clock = self.clock.clone();
            let (out, d) = clock.time(|| self.slice());
            std::hint::black_box(out);
            *t = d.as_secs_f64();
        }
        took.sort_unstable_by(f64::total_cmp);
        took[SLICES_PER_BATCH / 2]
    }
}

/// How many times slower than the reference machine the work between two
/// batches ran (1 = reference speed). Times measured in between are
/// divided by this.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_SLICE_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_do_the_same_work_every_time() {
        let mut r = Reference::new(&Clock::real());
        assert_eq!(r.slice().to_bits(), r.slice().to_bits());
        assert!(r.batch() > 0.0);
    }

    #[test]
    fn factor_is_the_mean_slice_over_the_reference() {
        assert_eq!(factor(REFERENCE_SLICE_S, REFERENCE_SLICE_S), 1.0);
        assert!((factor(REFERENCE_SLICE_S, 2.0 * REFERENCE_SLICE_S) - 1.5).abs() < 1e-12);
    }
}
