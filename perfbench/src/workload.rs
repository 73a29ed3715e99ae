//! Seeded task streams for the three workloads.
//!
//! The program under test only ever sees the generated [`Task`]s; the
//! seed stays in the benchmark. Every stream is a pure function of
//! `(workload, seed)`: the `i`-th task is the same on every run.

use std::collections::HashSet;

use gendp::kernels::bellman_ford::{random_roadmap, Graph};
use gendp::kernels::chain::ChainParams;
use gendp::kernels::pairhmm::PairHmmParams;
use gendp::kernels::poa::Poa;
use gendp::kernels::Scoring;
use gendp::runtime::Task;
use gendp::seq::{Anchor, DnaSeq, Genome, MutationProfile};
use gendp::serve::Priority;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The named workloads of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ShortReads,
    LongReads,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "short-reads" => Some(Workload::ShortReads),
            "long-reads" => Some(Workload::LongReads),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    /// Tenants the served phases register, as (name, priority, weight).
    /// The closed-loop workloads serve through one default tenant; the
    /// served mix keeps `bench-serve`'s three QoS contracts.
    pub fn tenants(self) -> &'static [(&'static str, Priority, u32)] {
        match self {
            Workload::ShortReads | Workload::LongReads => &[("bulk", Priority::Normal, 1)],
            Workload::ServeMixed => &[
                ("interactive", Priority::Interactive, 2),
                ("pipeline", Priority::Normal, 1),
                ("batch", Priority::Batch, 1),
            ],
        }
    }
}

/// One generated request: the tenant that submits it and the task.
#[derive(Debug, Clone)]
pub struct Item {
    pub tenant: usize,
    pub task: Task,
}

/// The deterministic task stream of one workload.
pub struct Stream {
    workload: Workload,
    rng: SmallRng,
    next: usize,
    /// Long-read lengths, one spread per kernel.
    spreads: Vec<Spread>,
}

/// Lengths spread evenly over a range by a golden-ratio (Weyl) sequence
/// from a seeded offset: any run covers the range the same way, so
/// per-run statistics do not hinge on a lucky draw, and a length
/// repeats only once a run holds about half the range's values.
struct Spread {
    range: std::ops::Range<usize>,
    at: f64,
}

impl Spread {
    fn new(range: std::ops::Range<usize>, rng: &mut SmallRng) -> Spread {
        Spread {
            range,
            at: rng.gen::<f64>(),
        }
    }

    fn deal(&mut self) -> usize {
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        self.at = (self.at + GOLDEN).fract();
        let span = self.range.len();
        self.range.start + ((self.at * span as f64) as usize).min(span - 1)
    }
}

/// Long-read spreads, indexed by kernel slot.
const CHAIN_ANCHORS: usize = 0;
const DTW_SAMPLES: usize = 1;
const GAP_TARGET: usize = 2;
const POA_PROBE: usize = 3;
const BF_VERTICES: usize = 4;

/// Number of PEs per simulated array, as the serving device configures it.
pub fn n_pes() -> usize {
    gendp::runtime::DeviceConfig::default().pes_per_array
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let salt = match workload {
            Workload::ShortReads => 0x5348_4f52_5400_0000,
            Workload::LongReads => 0x4c4f_4e47_0000_0000,
            Workload::ServeMixed => 0x5345_5256_4500_0000,
        };
        let mut rng = SmallRng::seed_from_u64(seed ^ salt);
        let spreads = [50..301, 100..401, 40..121, 40..121, 50..201]
            .into_iter()
            .map(|range| Spread::new(range, &mut rng))
            .collect();
        Stream {
            workload,
            rng,
            next: 0,
            spreads,
        }
    }

    /// How many items the stream has handed out.
    pub fn generated(&self) -> usize {
        self.next
    }

    /// The next `n` items of the stream.
    pub fn take(&mut self, n: usize) -> Vec<Item> {
        (0..n).map(|_| self.next_item()).collect()
    }

    pub fn next_item(&mut self) -> Item {
        let i = self.next;
        self.next += 1;
        match self.workload {
            Workload::ShortReads => Item {
                tenant: 0,
                task: short_read_task(&mut self.rng, i % SHORT_READ_KINDS),
            },
            Workload::LongReads => Item {
                tenant: 0,
                task: long_read_task(&mut self.rng, &mut self.spreads, i % LONG_READ_KINDS),
            },
            Workload::ServeMixed => {
                let tenant = i % 3;
                let k = i / 3;
                let task = match tenant {
                    0 => interactive_task(&mut self.rng, k % 3),
                    1 => pipeline_task(&mut self.rng, k % 3),
                    _ => batch_task(&mut self.rng, k % 4),
                };
                Item { tenant, task }
            }
        }
    }
}

fn seq(rng: &mut SmallRng, len: usize) -> DnaSeq {
    DnaSeq::random(len, rng)
}

fn signal(rng: &mut SmallRng, len: usize) -> Vec<i32> {
    (0..len).map(|_| rng.gen_range(0..200)).collect()
}

const SHORT_READ_KINDS: usize = 7;

/// The short-read mix: the wavefront kernels at the fixed 16–32 bp
/// shapes `bench-serve` uses, so every shape repeats. Semi-global BSW is
/// left out: on unrelated pairs its accelerator score disagrees with the
/// reference (see `semiglobal_unrelated_pairs_match_reference`).
fn short_read_task(rng: &mut SmallRng, kind: usize) -> Task {
    let scoring = Scoring::bwa_mem();
    match kind {
        0 => Task::bsw_local(seq(rng, 24), seq(rng, 32), scoring),
        1 => Task::bsw_global(seq(rng, 24), seq(rng, 24), scoring),
        2 => Task::bsw_simd(
            (0..4).map(|_| (seq(rng, 16), seq(rng, 16))).collect(),
            scoring,
        ),
        3 => Task::PairHmm {
            read: seq(rng, 20),
            haplotype: seq(rng, 28),
            qual: 30,
            scale: 1024,
            params: PairHmmParams::gatk(),
        },
        4 => Task::PairHmmFloat {
            read: seq(rng, 16),
            haplotype: seq(rng, 24),
            qual: 30,
            params: PairHmmParams::gatk(),
        },
        5 => Task::dtw(signal(rng, 18), signal(rng, 18)),
        _ => Task::DtwBanded {
            xs: signal(rng, 20),
            ys: signal(rng, 24),
            width: 8,
        },
    }
}

const LONG_READ_KINDS: usize = 5;

/// Band width of long-read signal DTW, in cells per row.
const DTW_BAND: usize = 16;

/// Chaining window (PE count) of the long-read mix, as minimap2 uses.
const CHAIN_WINDOW: usize = 8;

/// The long-read polishing mix. Lengths come from [`Spread`]s, so
/// shapes almost never repeat within a run.
fn long_read_task(rng: &mut SmallRng, spreads: &mut [Spread], kind: usize) -> Task {
    match kind {
        0 => {
            // Anchors of one read against its reference window: mostly
            // collinear with indel jitter, as a k-mer index emits them.
            let n = spreads[CHAIN_ANCHORS].deal();
            let (mut rpos, mut qpos) = (0i32, 0i32);
            let anchors: Vec<Anchor> = (0..n)
                .map(|_| {
                    let step: i32 = rng.gen_range(5..40);
                    rpos += step;
                    qpos += (step + rng.gen_range(-3..4)).max(1);
                    Anchor {
                        rpos,
                        qpos,
                        span: 15,
                    }
                })
                .collect();
            Task::Chain {
                anchors,
                params: ChainParams {
                    n_prev: CHAIN_WINDOW,
                    ..ChainParams::minimap2(15.0)
                },
            }
        }
        1 => {
            let m = spreads[DTW_SAMPLES].deal();
            let n = m + rng.gen_range(0..DTW_BAND);
            Task::DtwBanded {
                xs: signal(rng, m),
                ys: signal(rng, n),
                width: DTW_BAND,
            }
        }
        2 => {
            // Gap filling between two chained anchors: global alignment
            // of the read and reference stretches the anchors bracket.
            let t = spreads[GAP_TARGET].deal();
            let target = seq(rng, t);
            let query = MutationProfile::pacbio().apply(&target, rng);
            Task::bsw_global(query, target, Scoring::bwa_mem())
        }
        3 => {
            let truth = Genome::random(spreads[POA_PROBE].deal(), rng).seq().clone();
            let scoring = Scoring::racon();
            let mut graph = Poa::new();
            for _ in 0..rng.gen_range(2..6) {
                graph.add_sequence(&MutationProfile::nanopore().apply(&truth, rng), &scoring);
            }
            let probe = MutationProfile::nanopore().apply(&truth, rng);
            Task::Poa {
                graph,
                probe,
                scoring,
            }
        }
        _ => {
            let n = spreads[BF_VERTICES].deal();
            let graph = random_roadmap(n, 3, 6, rng);
            let rounds = rounds_to_converge(&graph, 0).max(1);
            Task::BellmanFord {
                graph,
                source: 0,
                rounds,
            }
        }
    }
}

/// Relaxation rounds after which synchronous (Jacobi) Bellman-Ford stops
/// changing. Any sweep order converges at least as fast, so running this
/// many rounds makes the accelerator agree with the converged reference.
pub fn rounds_to_converge(graph: &Graph, source: usize) -> usize {
    const INF: i64 = i64::MAX / 4;
    let mut dist = vec![INF; graph.vertex_count()];
    dist[source] = 0;
    for round in 0..graph.vertex_count() {
        let prev = dist.clone();
        for &(u, v, w) in graph.edges() {
            if prev[u] < INF && prev[u] + w < dist[v] {
                dist[v] = prev[u] + w;
            }
        }
        if dist == prev {
            return round;
        }
    }
    graph.vertex_count()
}

/// `bench-serve`'s latency-sensitive tenant: local BSW, banded DTW,
/// chaining.
fn interactive_task(rng: &mut SmallRng, kind: usize) -> Task {
    match kind {
        0 => Task::bsw_local(seq(rng, 24), seq(rng, 32), Scoring::bwa_mem()),
        1 => Task::DtwBanded {
            xs: signal(rng, 20),
            ys: signal(rng, 24),
            width: 8,
        },
        _ => {
            let mut rpos = 0;
            let anchors: Vec<Anchor> = (0..10)
                .map(|_| {
                    rpos += rng.gen_range(5..40);
                    Anchor {
                        rpos,
                        qpos: rpos - rng.gen_range(0..5),
                        span: 15,
                    }
                })
                .collect();
            Task::Chain {
                anchors,
                params: ChainParams {
                    n_prev: 8,
                    ..ChainParams::minimap2(15.0)
                },
            }
        }
    }
}

/// `bench-serve`'s default tenant: global BSW, SIMD BSW, fixed-point
/// PairHMM (its semi-global BSW is left out, as in the short-read mix).
fn pipeline_task(rng: &mut SmallRng, kind: usize) -> Task {
    match kind {
        0 => Task::bsw_global(seq(rng, 24), seq(rng, 24), Scoring::bwa_mem()),
        1 => Task::bsw_simd(
            (0..4).map(|_| (seq(rng, 16), seq(rng, 16))).collect(),
            Scoring::bwa_mem(),
        ),
        _ => Task::PairHmm {
            read: seq(rng, 20),
            haplotype: seq(rng, 28),
            qual: 30,
            scale: 1024,
            params: PairHmmParams::gatk(),
        },
    }
}

/// `bench-serve`'s background tenant: POA, Bellman-Ford, FP PairHMM,
/// full DTW. Bellman-Ford runs to convergence so its distances can be
/// checked against the reference.
fn batch_task(rng: &mut SmallRng, kind: usize) -> Task {
    match kind {
        0 => {
            let truth = seq(rng, 24);
            let mut graph = Poa::new();
            graph.add_sequence(&truth, &Scoring::racon());
            Task::Poa {
                graph,
                probe: seq(rng, 24),
                scoring: Scoring::racon(),
            }
        }
        1 => {
            let n = 14;
            let mut graph = Graph::new(n);
            for v in 0..n - 1 {
                graph.add_edge(v, v + 1, rng.gen_range(1..9));
                let far = rng.gen_range(0..n);
                if far != v {
                    graph.add_edge(v, far, rng.gen_range(1..20));
                }
            }
            let rounds = rounds_to_converge(&graph, 0).max(1);
            Task::BellmanFord {
                graph,
                source: 0,
                rounds,
            }
        }
        2 => Task::PairHmmFloat {
            read: seq(rng, 16),
            haplotype: seq(rng, 24),
            qual: 30,
            params: PairHmmParams::gatk(),
        },
        _ => Task::dtw(signal(rng, 18), signal(rng, 18)),
    }
}

/// Everything a shape-keyed compile cache would key on: the kernel and
/// its configuration plus the table dimensions. Graph kernels bake the
/// graph itself into their programs, so their key is the whole graph.
pub fn shape_key(task: &Task) -> String {
    match task {
        Task::Bsw {
            query,
            target,
            scoring,
            mode,
        } => format!("bsw/{mode:?}/{scoring:?}/{}x{}", target.len(), query.len()),
        Task::BswSimd { pairs, scoring } => {
            let dims: Vec<_> = pairs.iter().map(|(q, t)| (t.len(), q.len())).collect();
            format!("bsw-simd/{scoring:?}/{dims:?}")
        }
        Task::PairHmm {
            read,
            haplotype,
            qual,
            scale,
            ..
        } => format!("pairhmm/{qual}/{scale}/{}x{}", read.len(), haplotype.len()),
        Task::PairHmmFloat {
            read,
            haplotype,
            qual,
            ..
        } => format!("pairhmm-f32/{qual}/{}x{}", read.len(), haplotype.len()),
        Task::Dtw { xs, ys } => format!("dtw/{}x{}", xs.len(), ys.len()),
        Task::DtwBanded { xs, ys, width } => {
            format!("dtw-banded/{width}/{}x{}", xs.len(), ys.len())
        }
        Task::Chain { anchors, params } => {
            format!("chain/{}/{}", params.n_prev, anchors.len())
        }
        Task::Poa { graph, probe, .. } => {
            let edges: Vec<_> = (0..graph.node_count())
                .map(|v| (graph.base(v), graph.preds(v).to_vec()))
                .collect();
            format!("poa/{}/{edges:?}", probe.len())
        }
        Task::BellmanFord {
            graph,
            source,
            rounds,
        } => format!("bf/{source}/{rounds}/{:?}", graph.edges()),
    }
}

/// The kernel and, for BSW, its alignment mode: the groups whose costs
/// differ by design within a mix.
pub fn kind(task: &Task) -> String {
    match task {
        Task::Bsw { mode, .. } => format!("bsw-{mode:?}"),
        _ => task.kernel().name().to_string(),
    }
}

/// Share of tasks whose shape already occurred earlier in the sequence:
/// the hit rate an unbounded shape-keyed cache would see.
pub fn shape_repeat_share<'a>(tasks: impl IntoIterator<Item = &'a Task>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeats) = (0usize, 0usize);
    for task in tasks {
        total += 1;
        if !seen.insert(shape_key(task)) {
            repeats += 1;
        }
    }
    repeats as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fingerprint(workload: Workload, seed: u64, n: usize) -> Vec<String> {
        Stream::new(workload, seed)
            .take(n)
            .iter()
            .map(|item| format!("{}:{:?}", item.tenant, item.task))
            .collect()
    }

    #[test]
    fn same_seed_gives_same_stream() {
        for w in [
            Workload::ShortReads,
            Workload::LongReads,
            Workload::ServeMixed,
        ] {
            assert_eq!(fingerprint(w, 7, 24), fingerprint(w, 7, 24), "{w:?}");
        }
    }

    #[test]
    fn new_seed_gives_different_stream() {
        for w in [
            Workload::ShortReads,
            Workload::LongReads,
            Workload::ServeMixed,
        ] {
            assert_ne!(fingerprint(w, 7, 24), fingerprint(w, 8, 24), "{w:?}");
        }
    }

    #[test]
    fn short_reads_repeat_shapes_and_long_reads_do_not() {
        let short = Stream::new(Workload::ShortReads, 1).take(400);
        let share = shape_repeat_share(short.iter().map(|i| &i.task));
        assert!(share > 0.97, "short-reads repeat share {share}");
        let long = Stream::new(Workload::LongReads, 1).take(400);
        let share = shape_repeat_share(long.iter().map(|i| &i.task));
        assert!(share < 0.05, "long-reads repeat share {share}");
    }

    #[test]
    fn every_generated_task_passes_preflight() {
        for w in [
            Workload::ShortReads,
            Workload::LongReads,
            Workload::ServeMixed,
        ] {
            for item in Stream::new(w, 3).take(60) {
                assert!(
                    !item.task.preflight().has_errors(),
                    "{w:?}: {:?}",
                    item.task
                );
            }
        }
    }

    #[test]
    fn convergence_rounds_match_a_path() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1);
        g.add_edge(1, 2, 1);
        g.add_edge(2, 3, 1);
        g.add_edge(0, 3, 10);
        assert_eq!(rounds_to_converge(&g, 0), 3);
    }
}
