//! Correctness: every task's value against the native `gendp-kernels`
//! reference, which is also the ceiling row.

use gendp::core::spm1d::INF;
use gendp::kernels::bellman_ford::bellman_ford;
use gendp::kernels::chain::chain_reordered;
use gendp::kernels::dtw::{dtw, dtw_band_asymmetric};
use gendp::kernels::pairhmm::{forward_f32, forward_log_fixed};
use gendp::kernels::{bsw_i32, bsw_i8};
use gendp::runtime::{Task, TaskValue};

/// Band wide enough that the banded software BSW computes the full table.
const FULL_BAND: i32 = 1 << 20;

/// The value the native software kernel computes for `task`.
pub fn native(task: &Task) -> TaskValue {
    match task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode,
        } => TaskValue::Score(bsw_i32(query, target, scoring, FULL_BAND, *mode).score),
        Task::BswSimd { pairs, scoring } => TaskValue::SimdScores(
            pairs
                .iter()
                .map(|(q, t)| bsw_i8(q, t, scoring, FULL_BAND).score as i8)
                .collect(),
        ),
        Task::PairHmm {
            read,
            haplotype,
            qual,
            scale,
            params,
        } => {
            let quals = vec![*qual; read.len()];
            TaskValue::LogLikelihood(forward_log_fixed(read, &quals, haplotype, params, *scale))
        }
        Task::PairHmmFloat {
            read,
            haplotype,
            qual,
            params,
        } => {
            let quals = vec![*qual; read.len()];
            TaskValue::Likelihood(forward_f32(read, &quals, haplotype, params))
        }
        Task::Dtw { xs, ys } => TaskValue::Distance(dtw(xs, ys).distance),
        // The accelerator's static band is the asymmetric diagonal band
        // 0 <= j - i < width.
        Task::DtwBanded { xs, ys, width } => {
            TaskValue::Distance(dtw_band_asymmetric(xs, ys, 0, *width as i64 - 1).distance)
        }
        Task::Chain { anchors, params } => {
            TaskValue::ChainScores(chain_reordered(anchors, params).scores)
        }
        Task::Poa {
            graph,
            probe,
            scoring,
        } => TaskValue::Score(graph.align(probe, scoring).score),
        Task::BellmanFord { graph, source, .. } => TaskValue::Distances(
            bellman_ford(graph, *source)
                .dist
                .iter()
                .map(|d| d.map_or(INF, |v| v as i32))
                .collect(),
        ),
    }
}

/// Whether `got` agrees with the native kernel's value for `task`:
/// integers exactly; an f32 likelihood within one unit in the last place
/// per step of the forward recursion (read + haplotype length), the
/// rounding a different summation order may accumulate (see
/// `float_pairhmm_is_bit_exact_on_unrelated_pairs`).
pub fn matches_native(task: &Task, got: &TaskValue) -> bool {
    let want = native(task);
    match (task, got, &want) {
        (
            Task::PairHmmFloat {
                read, haplotype, ..
            },
            TaskValue::Likelihood(x),
            TaskValue::Likelihood(y),
        ) => within_ulps(*x, *y, (read.len() + haplotype.len()) as u32),
        _ => *got == want,
    }
}

fn within_ulps(x: f32, y: f32, ulps: u32) -> bool {
    x.to_bits() == y.to_bits()
        || (x.is_finite()
            && y.is_finite()
            && x.is_sign_positive() == y.is_sign_positive()
            && x.to_bits().abs_diff(y.to_bits()) <= ulps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{n_pes, Stream, Workload};

    #[test]
    fn accelerator_matches_native_on_every_workload() {
        let cfg = crate::workload_config();
        for w in [
            Workload::ShortReads,
            Workload::LongReads,
            Workload::ServeMixed,
        ] {
            let n = if w == Workload::LongReads { 5 } else { 12 };
            for item in Stream::new(w, 11).take(n) {
                let (got, _) = item
                    .task
                    .execute_configured(n_pes(), cfg)
                    .expect("simulation");
                assert!(matches_native(&item.task, &got), "{w:?}: {:?}", item.task);
            }
        }
    }

    /// Semi-global BSW never scores the empty overlap, so on unrelated
    /// pairs whose best overlap is negative it reports that negative
    /// score where the reference reports 0 (about 46% of random 24x32
    /// pairs). The workloads leave semi-global BSW out until this passes.
    #[test]
    #[ignore = "known defect in the semi-global BSW accelerator"]
    fn semiglobal_unrelated_pairs_match_reference() {
        use gendp::kernels::{AlignMode, Scoring};
        use gendp::seq::DnaSeq;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        let task = Task::Bsw {
            query: DnaSeq::random(24, &mut rng),
            target: DnaSeq::random(32, &mut rng),
            scoring: Scoring::bwa_mem(),
            mode: AlignMode::SemiGlobal,
        };
        let (got, _) = task.execute(n_pes()).expect("simulation");
        assert!(
            matches_native(&task, &got),
            "{got:?} vs {:?}",
            native(&task)
        );
    }

    /// The FP PairHMM accelerator is bit-exact with `forward_f32` on the
    /// related read/haplotype pairs the repository's tests use, but on
    /// unrelated random pairs about 15% of likelihoods differ, mostly by
    /// 1-2 ULP and rarely by more than 4.
    #[test]
    #[ignore = "known defect: FP PairHMM is not bit-exact with forward_f32"]
    fn float_pairhmm_is_bit_exact_on_unrelated_pairs() {
        use gendp::kernels::pairhmm::PairHmmParams;
        use gendp::seq::DnaSeq;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..20 {
            let task = Task::PairHmmFloat {
                read: DnaSeq::random(16, &mut rng),
                haplotype: DnaSeq::random(24, &mut rng),
                qual: 30,
                params: PairHmmParams::gatk(),
            };
            let (got, _) = task.execute(n_pes()).expect("simulation");
            assert_eq!(got, native(&task));
        }
    }

    #[test]
    fn floats_agree_within_the_recursion_length_and_integers_exactly() {
        let x = 8.354_091e-19f32;
        let step = |n: u32| f32::from_bits(x.to_bits() + n);
        assert!(within_ulps(x, x, 0));
        assert!(within_ulps(x, step(40), 40));
        assert!(!within_ulps(x, step(41), 40));
        assert!(!within_ulps(x, -x, 40));
        let task = Task::dtw(vec![1, 2, 3], vec![1, 2, 4]);
        let want = native(&task);
        assert!(matches_native(&task, &want));
        assert!(!matches_native(&task, &TaskValue::Distance(-1)));
    }
}
