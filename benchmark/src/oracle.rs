//! The exact oracle: every answer is checked against
//! `aqp_exec::engine::execute_exact` on the base table, and the quality
//! figures (approximate share, CI coverage, CI width) are read off the
//! same comparison.

use std::collections::BTreeMap;

use aqp_core::{AnswerMode, AqpAnswer};
use aqp_exec::result::ExactResult;

/// Relative tolerance for values the engine itself computed exactly. The
/// oracle may sum partitions in another order than the session did.
const EXACT_TOLERANCE: f64 = 1e-9;

/// FNV-1a over a byte stream: the fingerprint two runs of one commit and
/// seed are diffed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Fnv {
    /// The empty fingerprint.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mix `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The fingerprint so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Fingerprint of a query list.
pub fn list_hash<'a>(sqls: impl Iterator<Item = &'a str>) -> u64 {
    let mut h = Fnv::new();
    for sql in sqls {
        h.write(sql.as_bytes());
        h.write(&[0]);
    }
    h.finish()
}

/// Fingerprint of one answer: mode, and per cell the estimate and CI
/// bits. Identical in every pass, or the engine is not deterministic.
pub fn answer_hash(answer: &AqpAnswer) -> u64 {
    let mut h = Fnv::new();
    h.write(&[answer.mode as u8]);
    for g in &answer.groups {
        h.write(g.key.as_bytes());
        h.write(&[0]);
        for a in &g.aggs {
            h.write(&a.estimate.to_bits().to_le_bytes());
            match &a.ci {
                Some(ci) => {
                    h.write(&ci.center.to_bits().to_le_bytes());
                    h.write(&ci.half_width.to_bits().to_le_bytes());
                }
                None => h.write(&[0xff]),
            }
        }
    }
    h.finish()
}

/// What the oracle found in one answer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Verdict {
    /// Result cells (group x aggregate).
    pub cells: usize,
    /// Cells answered from the sample with accepted error bars.
    pub reliable_cells: usize,
    /// Reliable cells whose CI contains the exact value.
    pub covered_cells: usize,
    /// Half-width / |estimate| of each reliable cell.
    pub rel_half_widths: Vec<f64>,
    /// Why the answer is wrong, if it is.
    pub violations: Vec<String>,
}

impl Verdict {
    /// Share of this answer's cells that are reliable approximations.
    pub fn approx_share(&self) -> f64 {
        if self.cells == 0 {
            0.0
        } else {
            self.reliable_cells as f64 / self.cells as f64
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= EXACT_TOLERANCE * a.abs().max(b.abs())
}

/// Check `answer` against the exact result of the same plan.
pub fn judge(answer: &AqpAnswer, exact: &ExactResult) -> Verdict {
    let mut v = Verdict::default();
    let truth: BTreeMap<&str, &Vec<f64>> = exact
        .groups
        .iter()
        .map(|(k, vals)| (k.as_str(), vals))
        .collect();
    if answer.fell_back || answer.mode == AnswerMode::Exact {
        // The exact run's group set is authoritative once it has run.
        if answer.groups.len() != exact.groups.len() {
            v.violations.push(format!(
                "{} groups after exact execution, oracle has {}",
                answer.groups.len(),
                exact.groups.len()
            ));
        }
    }
    for g in &answer.groups {
        let exact_vals = truth.get(g.key.as_str());
        for (ai, a) in g.aggs.iter().enumerate() {
            v.cells += 1;
            if !a.estimate.is_finite() {
                v.violations.push(format!(
                    "group `{}` {}: estimate {}",
                    g.key, a.name, a.estimate
                ));
            }
            let exact_v = exact_vals.and_then(|vals| vals.get(ai)).copied();
            match &a.ci {
                None => {
                    // An exact or exact-substituted value.
                    match exact_v {
                        Some(t) if close(a.estimate, t) => {}
                        other => v.violations.push(format!(
                            "group `{}` {}: served {} as exact, oracle says {other:?}",
                            g.key, a.name, a.estimate
                        )),
                    }
                }
                Some(ci) => {
                    if !(ci.half_width.is_finite() && ci.half_width >= 0.0) {
                        v.violations.push(format!(
                            "group `{}` {}: half-width {}",
                            g.key, a.name, ci.half_width
                        ));
                    }
                    if a.error_bars_reliable() && answer.mode != AnswerMode::ApproximateUnchecked {
                        v.reliable_cells += 1;
                        if exact_v.is_some_and(|t| ci.contains(t)) {
                            v.covered_cells += 1;
                        }
                        if a.estimate != 0.0 {
                            v.rel_half_widths.push(ci.half_width / a.estimate.abs());
                        }
                    }
                }
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqp_exec::result::{AggResult, GroupResult, MethodUsed, StageTimings};
    use aqp_stats::ci::Ci;

    fn answer(mode: AnswerMode, cells: Vec<(f64, Option<Ci>)>) -> AqpAnswer {
        AqpAnswer {
            groups: vec![GroupResult {
                key: String::new(),
                aggs: cells
                    .into_iter()
                    .map(|(estimate, ci)| AggResult {
                        name: "AVG(x)".into(),
                        estimate,
                        ci,
                        method: MethodUsed::None,
                        diagnostic: None,
                    })
                    .collect(),
            }],
            mode,
            fell_back: matches!(
                mode,
                AnswerMode::ExactFallback | AnswerMode::PartialFallback
            ),
            sample_rows: 10,
            population_rows: 100,
            timings: StageTimings::default(),
            trace: Default::default(),
            plan: String::new(),
            profile: None,
            degraded: None,
        }
    }

    fn exact(vals: Vec<f64>) -> ExactResult {
        ExactResult {
            groups: vec![(String::new(), vals)],
            rows_scanned: 100,
            timings: StageTimings::default(),
            trace: Default::default(),
        }
    }

    #[test]
    fn exact_values_must_match_the_oracle() {
        let ok = judge(
            &answer(AnswerMode::ExactFallback, vec![(5.0, None)]),
            &exact(vec![5.0]),
        );
        assert!(ok.violations.is_empty(), "{:?}", ok.violations);
        assert_eq!((ok.cells, ok.reliable_cells), (1, 0));
        let off = judge(
            &answer(AnswerMode::ExactFallback, vec![(5.1, None)]),
            &exact(vec![5.0]),
        );
        assert_eq!(off.violations.len(), 1);
    }

    #[test]
    fn coverage_and_width_come_from_cis() {
        // No diagnostic attached: `error_bars_reliable` treats the bars
        // as unchallenged.
        let a = answer(
            AnswerMode::Approximate,
            vec![
                (10.0, Some(Ci::new(10.0, 1.0, 0.95))),
                (20.0, Some(Ci::new(20.0, 1.0, 0.95))),
            ],
        );
        let v = judge(&a, &exact(vec![10.5, 30.0]));
        assert!(v.violations.is_empty());
        assert_eq!((v.cells, v.reliable_cells, v.covered_cells), (2, 2, 1));
        assert_eq!(v.rel_half_widths, vec![0.1, 0.05]);
        assert_eq!(v.approx_share(), 1.0);
    }

    #[test]
    fn non_finite_answers_are_violations() {
        let a = answer(
            AnswerMode::Approximate,
            vec![(
                f64::NAN,
                Some(Ci {
                    center: 0.0,
                    half_width: -1.0,
                    confidence: 0.95,
                }),
            )],
        );
        let v = judge(&a, &exact(vec![1.0]));
        assert_eq!(v.violations.len(), 2, "{:?}", v.violations);
    }

    #[test]
    fn hashes_see_every_bit() {
        let a = answer(
            AnswerMode::Approximate,
            vec![(1.0, Some(Ci::new(1.0, 0.5, 0.95)))],
        );
        let b = answer(
            AnswerMode::Approximate,
            vec![(1.0, Some(Ci::new(1.0, 0.5000001, 0.95)))],
        );
        let c = answer(
            AnswerMode::ExactFallback,
            vec![(1.0, Some(Ci::new(1.0, 0.5, 0.95)))],
        );
        assert_eq!(answer_hash(&a), answer_hash(&a.clone()));
        assert_ne!(answer_hash(&a), answer_hash(&b));
        assert_ne!(answer_hash(&a), answer_hash(&c));
        assert_ne!(
            list_hash(["a", "b"].into_iter()),
            list_hash(["ab"].into_iter())
        );
    }
}
