//! The closed-loop phase: one caller, `Task::execute_configured` back to
//! back. With tracing on, each task instead goes through every layer's
//! public entry point in turn, one span per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use gendp::core::{
    AccelConfig, Accelerator, BandSpec, BellmanFordTask, ChainTask, GendpPipeline, PoaTask,
    Wavefront2d, WavefrontTask,
};
use gendp::dpax::{RunStats, Tier, TierPolicy};
use gendp::isa::{DecodedComputeProgram, DecodedControlProgram};
use gendp::kernels::{AlignMode, GapModel};
use gendp::runtime::{Task, DTW_BAND_SENTINEL};
use gendp::seq::DnaSeq;

use crate::calib::Calibration;
use crate::check::{matches_native, native};
use crate::trace::Tracer;
use crate::workload::{kind, n_pes, Item, Stream};
use crate::workload_config;

/// Tasks generated (untimed) ahead of each timed stretch.
const CHUNK: usize = 8;

/// What the closed loop measured and checked.
#[derive(Default)]
pub struct DirectOut {
    /// Time inside the timed calls, seconds.
    pub busy_s: f64,
    /// Per-task `execute_configured` latency, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Each latency's [`kind`](crate::workload::kind).
    pub kinds: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// The first tasks run (as many as the caller keeps), with the
    /// statistics their runs reported.
    pub runs: Vec<(Task, RunStats)>,
    /// Tasks that resolved to the functional tier (traced run).
    pub functional: u64,
    /// Cycles of the decoded reference executions (traced run).
    pub reference_cycles: u64,
}

/// Runs tasks from `stream` until `seconds` have passed, each one timed
/// `execute_configured` call, with a calibration sample after every
/// chunk of timed calls. Traced, each call gets a span, and after every
/// chunk each task of the chunk also goes through [`probe`]; the phase
/// then counts the probes' time too. Keeps the first `keep` correct runs.
pub fn run(
    stream: &mut Stream,
    seconds: f64,
    cal: &mut Calibration,
    tracer: &mut Tracer,
    first_id: u64,
    keep: usize,
) -> DirectOut {
    let mut out = DirectOut::default();
    let budget = Duration::from_secs_f64(seconds);
    let (mut busy, mut spent) = (Duration::ZERO, Duration::ZERO);
    let mut id = first_id;
    while spent < budget {
        let items: Vec<Item> = stream.take(CHUNK);
        let started = Instant::now();
        let mut results = Vec::with_capacity(CHUNK);
        for (k, item) in items.iter().enumerate() {
            let t0 = Instant::now();
            let r = tracer.time("runtime.execute", None, id + k as u64, || {
                item.task.execute_configured(n_pes(), workload_config())
            });
            out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            results.push(r.map_err(|e| e.to_string()));
        }
        busy += started.elapsed();
        cal.sample();
        if tracer.enabled() {
            for (item, result) in items.iter().zip(&mut results) {
                if let Err(e) = probe(tracer, id, &item.task, &mut out) {
                    *result = Err(e);
                }
                id += 1;
            }
        } else {
            id += items.len() as u64;
        }
        spent += started.elapsed();
        for (item, result) in items.into_iter().zip(results) {
            out.attempted += 1;
            out.kinds.push(kind(&item.task));
            match result {
                Ok((value, stats)) if matches_native(&item.task, &value) => {
                    if out.runs.len() < keep {
                        out.runs.push((item.task, stats));
                    }
                }
                Ok((value, _)) => {
                    eprintln!("wrong value {value:?} for {:?}", item.task);
                    out.failed += 1;
                }
                Err(e) => {
                    eprintln!("task failed: {e}");
                    out.failed += 1;
                }
            }
        }
    }
    out.busy_s = busy.as_secs_f64();
    out
}

impl DirectOut {
    /// Pools another phase's samples and counts into this one.
    pub fn merge(&mut self, other: DirectOut) {
        self.busy_s += other.busy_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.kinds.extend(other.kinds);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.runs.extend(other.runs);
        self.functional += other.functional;
        self.reference_cycles += other.reference_cycles;
    }
}

/// One task through every layer's public entry point, each call in its
/// own span under a `probe` root. A functional-tier output that differs
/// from the decoded tier's is an error.
fn probe(tr: &mut Tracer, id: u64, task: &Task, out: &mut DirectOut) -> Result<(), String> {
    let root = tr.open("probe", None, id);
    tr.time("runtime.preflight", root, id, || {
        black_box(task.preflight())
    });
    tr.time("runtime.certified_cost", root, id, || {
        black_box(task.certified_cost(n_pes()))
    });
    tr.time("kernels.native", root, id, || black_box(native(task)));
    let mut p = Probe {
        tr: &mut *tr,
        root,
        id,
        out,
    };
    let layers = p.layers_of(task);
    tr.close(root);
    layers
}

struct Probe<'a> {
    tr: &'a mut Tracer,
    root: Option<usize>,
    id: u64,
    out: &'a mut DirectOut,
}

fn codes(s: &DnaSeq) -> Vec<i32> {
    s.codes().iter().map(|&c| c as i32).collect()
}

impl Probe<'_> {
    /// Mirrors `Task::execute_configured`'s dispatch: the same
    /// constructor and the same task bundle per kernel.
    fn layers_of(&mut self, task: &Task) -> Result<(), String> {
        let n_pes = n_pes();
        match task {
            Task::Bsw {
                query,
                target,
                scoring,
                mode,
            } => {
                let (rows, cols) = (codes(target), codes(query));
                let make = || match (mode, scoring.gap) {
                    (AlignMode::Local, GapModel::Convex { .. }) => {
                        GendpPipeline::bsw_convex(scoring)
                    }
                    (AlignMode::Local, _) => GendpPipeline::bsw(scoring),
                    (AlignMode::Global, _) => GendpPipeline::bsw_global(scoring),
                    (AlignMode::SemiGlobal, _) => {
                        GendpPipeline::bsw_semiglobal(scoring, query.len())
                    }
                };
                self.wavefront(&make, &rows, &cols, None)
            }
            Task::BswSimd { pairs, scoring } => {
                let qs: Vec<Vec<u8>> = pairs.iter().map(|(q, _)| q.codes()).collect();
                let ts: Vec<Vec<u8>> = pairs.iter().map(|(_, t)| t.codes()).collect();
                let cols = gendp::core::pack_lanes([&qs[0], &qs[1], &qs[2], &qs[3]]);
                let rows = gendp::core::pack_lanes([&ts[0], &ts[1], &ts[2], &ts[3]]);
                self.wavefront(&|| GendpPipeline::bsw_simd(scoring), &rows, &cols, None)
            }
            Task::PairHmm {
                read,
                haplotype,
                qual,
                scale,
                params,
            } => self.wavefront(
                &|| GendpPipeline::pairhmm(params, *qual, *scale, haplotype.len()),
                &codes(read),
                &codes(haplotype),
                None,
            ),
            Task::PairHmmFloat {
                read,
                haplotype,
                qual,
                params,
            } => self.wavefront(
                &|| GendpPipeline::pairhmm_float(params, *qual, haplotype.len()),
                &codes(read),
                &codes(haplotype),
                None,
            ),
            Task::Dtw { xs, ys } => self.wavefront(&GendpPipeline::dtw, xs, ys, None),
            Task::DtwBanded { xs, ys, width } => self.wavefront(
                &|| GendpPipeline::dtw_banded(ys.len()),
                xs,
                ys,
                Some(BandSpec {
                    width: *width,
                    sentinel: DTW_BAND_SENTINEL,
                }),
            ),
            Task::Chain { anchors, params } => self.layers(
                &|| GendpPipeline::chain(*params),
                &ChainTask {
                    anchors,
                    n_pes: params.n_prev,
                },
            ),
            Task::Poa {
                graph,
                probe,
                scoring,
            } => self.layers(
                &|| GendpPipeline::poa(*scoring),
                &PoaTask {
                    graph,
                    seq: probe,
                    n_pes,
                },
            ),
            Task::BellmanFord {
                graph,
                source,
                rounds,
            } => self.layers(
                &GendpPipeline::bellman_ford,
                &BellmanFordTask {
                    graph,
                    source: *source,
                    rounds: *rounds,
                },
            ),
        }
    }

    /// The common layers, then codegen and decode on their own. Only the
    /// full-table wavefront programs are generated by a public function,
    /// so banded tasks skip those two spans.
    fn wavefront(
        &mut self,
        make: &dyn Fn() -> Wavefront2d,
        rows: &[i32],
        cols: &[i32],
        band: Option<BandSpec>,
    ) -> Result<(), String> {
        let n_pes = n_pes();
        let task = WavefrontTask {
            rows,
            cols,
            n_pes,
            band,
        };
        self.layers(make, &task)?;
        if band.is_none() {
            let (tr, root, id) = (&mut *self.tr, self.root, self.id);
            let accel = make();
            let programs = tr.time("core.codegen", root, id, || {
                accel.generate_programs(rows, cols, n_pes)
            });
            tr.time("isa.decode", root, id, || {
                for program in &programs {
                    black_box(DecodedControlProgram::decode(program));
                }
                black_box(DecodedComputeProgram::decode(&accel.mapping().program));
            });
        }
        Ok(())
    }

    /// Construct, verify, prepare and execute under the workload's tier
    /// policy through the `Accelerator` trait, then prepare and execute
    /// again under the strict decoded tier and require identical output
    /// words.
    fn layers<A: Accelerator>(
        &mut self,
        make: &dyn Fn() -> A,
        task: &A::Task<'_>,
    ) -> Result<(), String> {
        let (tr, root, id) = (&mut *self.tr, self.root, self.id);
        let accel = tr.time("dpmap.construct", root, id, || {
            make().configure(workload_config())
        });
        tr.time("verify.verify_task", root, id, || {
            black_box(accel.verify_task(task))
        });
        let mut prep = tr.time("core.prepare", root, id, || {
            Accelerator::prepare(&accel, task)
        });
        // The span is named after the tier that ran, which the run's
        // statistics report.
        let started = Instant::now();
        let ran = prep.execute().map_err(|e| e.to_string())?;
        let functional = ran.tier == Tier::Functional;
        let name = if functional {
            "execute.functional"
        } else {
            "execute.fallback"
        };
        tr.record(name, started, Instant::now(), root, id);
        self.out.functional += u64::from(functional);

        let strict = make().configure(AccelConfig::new().tiers(TierPolicy::decoded().strict()));
        let mut reference = tr.time("reference.prepare", root, id, || {
            Accelerator::prepare(&strict, task)
        });
        let stats = tr
            .time("execute.simulated", root, id, || reference.execute())
            .map_err(|e| e.to_string())?;
        self.out.reference_cycles += stats.cycles;
        if prep.output() != reference.output() {
            return Err(format!(
                "functional-tier output differs from the decoded tier on task {id}"
            ));
        }
        Ok(())
    }
}

/// Cycle accuracy of the workload's tier policy: every run is repeated
/// under the strict decoded tier, whose cycles are simulated exactly.
/// Returns (simulated cells per cycle, cycle error, value mismatches).
pub fn cycle_reference(runs: &[(Task, RunStats)]) -> (f64, f64, u64) {
    let strict = AccelConfig::new().tiers(TierPolicy::decoded().strict());
    let (mut cells, mut cycles, mut error, mut mismatches) = (0u64, 0u64, 0u64, 0u64);
    for (task, reported) in runs {
        match task.execute_configured(n_pes(), strict) {
            Ok((value, simulated)) => {
                if !matches_native(task, &value) {
                    mismatches += 1;
                }
                cells += simulated.cells();
                cycles += simulated.cycles;
                error += reported.cycles.abs_diff(simulated.cycles);
            }
            Err(e) => {
                eprintln!("decoded reference failed: {e}");
                mismatches += 1;
            }
        }
    }
    let cycles = cycles.max(1) as f64;
    (cells as f64 / cycles, error as f64 / cycles, mismatches)
}
