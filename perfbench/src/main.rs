//! The repository benchmark: one workload per run, every output checked
//! against the native kernels, every metric printed by name and unit.
//!
//! ```text
//! gendp-perfbench --workload <short-reads|long-reads|serve-mixed>
//!                 --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! same phases with a span around every layer call and reports per-layer
//! metrics instead. The last line of standard output is the JSON result.
//! See `README.md` beside this file for what each metric means.

mod calib;
mod check;
mod direct;
mod served;
mod stats;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::time::Instant;

use gendp::core::AccelConfig;
use gendp::dpax::TierPolicy;
use gendp::runtime::Task;

use calib::Calibration;
use check::matches_native;
use served::PhaseOut;
use stats::{mean, median, quantile, tail};
use trace::{self_times, Tracer};
use workload::{n_pes, shape_repeat_share, Stream, Workload};

/// The tier policy every workload runs under: functional with fallback,
/// the tier ROADMAP's latency targets are stated for.
pub fn workload_config() -> AccelConfig {
    AccelConfig::new().tiers(TierPolicy::functional())
}

/// Times the set-up is repeated in a run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Outstanding requests the burst phase keeps in flight: several full
/// batches, so the device never waits on the submitter.
const BURST_WINDOW: usize = 256;

/// Runs whose cycles are repeated under the strict decoded tier for
/// `cells_per_cycle` and `cycle_error`.
const CYCLE_SAMPLE: usize = 96;

/// Open-loop rate as a fraction of the capacity the bursts measured.
/// A shard runs one batch at a time and delivers when the batch ends, so
/// at low concurrency small batches leave one of two workers idle and
/// the shard sustains about half the burst capacity. From about 0.4 up
/// the queue turns bistable (it grows until batches get large) and tail
/// latency spreads several-fold between identical runs.
const LOADED_FRACTION: f64 = 0.35;

/// How a workload spends its `--seconds`: the same phases in each of
/// `rounds` rounds, run in turn, so host speed drifting during a run
/// reaches every metric alike.
struct Plan {
    rounds: usize,
    /// Share of the run in the one-caller closed loop.
    direct_share: f64,
    /// Capacity assumed to size the first burst, requests per second: about
    /// what a 2-vCPU host serves. Later bursts are sized from the capacity
    /// measured so far, so each takes the rest of its round after the
    /// direct phase however fast the host, and a run lasts `--seconds`.
    nominal_rps: f64,
    /// Share of the run, on top of the others, in the loaded open loop
    /// (traced runs only).
    loaded_share: f64,
    /// Warm-up requests per set-up: one of each kernel in the mix.
    warm_items: usize,
}

fn plan(workload: Workload) -> Plan {
    match workload {
        Workload::ShortReads => Plan {
            rounds: 6,
            direct_share: 0.7,
            nominal_rps: 700.0,
            loaded_share: 0.3,
            warm_items: 7,
        },
        Workload::LongReads => Plan {
            rounds: 3,
            direct_share: 0.6,
            nominal_rps: 35.0,
            loaded_share: 0.5,
            warm_items: 5,
        },
        Workload::ServeMixed => Plan {
            rounds: 6,
            direct_share: 0.6,
            nominal_rps: 700.0,
            loaded_share: 0.4,
            warm_items: 12,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<Option<&str>, String> {
        match args.iter().position(|a| a == flag) {
            None => Ok(None),
            Some(i) => args
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or(format!("{flag} needs a value")),
        }
    };
    let name = value("--workload")?.ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
    let number = |flag: &str, default: &str| -> Result<f64, String> {
        let v = value(flag)?.unwrap_or(default);
        v.parse::<f64>().map_err(|e| format!("{flag} {v}: {e}"))
    };
    let seconds = number("--seconds", "10")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: value("--seed")?
            .unwrap_or("1")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: number("--trace", "0")? != 0.0,
        trace_out: value("--trace-out")?.map(str::to_string),
    })
}

/// Metric name → (value, unit), printed in name order.
type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// Totals every phase adds to.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }
}

/// Calibration samples taken around each set-up, and after each burst.
const CAL_AROUND: usize = 8;

/// Everything before the first timed request: server start, tenant
/// registration, and one warm-up request of each kernel both called
/// directly and served. Repeated [`SETUP_REPS`] times, each at the
/// reference speed of the calibration samples around it; the last server
/// is kept for the served phases.
fn setup(
    args: &Args,
    plan: &Plan,
    cal: &mut Calibration,
    tally: &mut Tally,
) -> (gendp::serve::Server, Vec<gendp::serve::TenantClient>, f64) {
    // The same warm-up in every run, so `setup_s` times the same work.
    let warm = Stream::new(args.workload, 0).take(plan.warm_items);
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        if let Some((mut server, _)) = kept.take() {
            gendp::serve::Server::shutdown(&mut server);
        }
        (0..CAL_AROUND / 2).for_each(|_| cal.sample());
        let t0 = Instant::now();
        let (server, clients) = served::start(args.workload);
        let mut results = Vec::with_capacity(2 * warm.len());
        for item in &warm {
            let direct = item
                .task
                .execute_configured(n_pes(), workload_config())
                .map(|(v, _)| v)
                .map_err(|e| e.to_string());
            results.push((&item.task, direct));
        }
        // Served together, as one batch: one request at a time would time
        // thread wake-ups more than work.
        let tickets: Vec<_> = warm
            .iter()
            .map(|item| clients[item.tenant].submit(item.task.clone()))
            .collect();
        for (item, ticket) in warm.iter().zip(tickets) {
            let value = ticket
                .map_err(|e| e.to_string())
                .and_then(|t| t.wait().map(|c| c.value).map_err(|e| format!("{e:?}")));
            results.push((&item.task, value));
        }
        let took = t0.elapsed().as_secs_f64();
        (0..CAL_AROUND / 2).for_each(|_| cal.sample());
        times.push(took * cal.factor());
        for (task, result) in results {
            tally.add(1, u64::from(!ok(task, result)));
        }
        kept = Some((server, clients));
    }
    let (server, clients) = kept.expect("at least one set-up");
    (server, clients, median(&times))
}

fn ok(task: &Task, result: Result<gendp::runtime::TaskValue, String>) -> bool {
    match result {
        Ok(v) if matches_native(task, &v) => true,
        Ok(v) => {
            eprintln!("wrong warm-up value {v:?} for {task:?}");
            false
        }
        Err(e) => {
            eprintln!("warm-up failed: {e}");
            false
        }
    }
}

/// Starts a new peak resident set: the kernel sets `VmHWM` to the current
/// resident set. Without it (before Linux 4.0) the peak is the process's.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last [`reset_peak_rss`], MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let plan = plan(args.workload);
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(args.trace);
    let mut cal = Calibration::new();
    let (mut server, clients, setup_s) = setup(&args, &plan, &mut cal, &mut tally);

    let mut stream = Stream::new(args.workload, args.seed);
    let mut direct = direct::DirectOut::default();
    let (mut burst, mut loaded) = (PhaseOut::default(), PhaseOut::default());
    // Throughput and the direct median pool the whole run: host speed
    // shifts between regimes for tens of seconds, and a run-long average
    // moves less with them than a median over rounds. Tails, and served
    // latencies, are taken per round and reported as their median over
    // rounds: a slow patch covering a few percent of a run would
    // otherwise become the pooled tail. The direct and burst phases of a
    // round are brought to the reference speed by the calibration samples
    // taken during and after them; the loaded phase is not.
    let mut direct_p99 = Vec::with_capacity(plan.rounds);
    // Peak resident set of each round's direct and burst phases. The
    // process-wide peak moved by 20% between identical runs, with the
    // tasks that happened to be prepared at once in the burst.
    let mut round_rss = Vec::with_capacity(plan.rounds);
    let mut loaded_p50 = Vec::with_capacity(plan.rounds);
    let mut loaded_p99 = Vec::with_capacity(plan.rounds);
    // Served requests completed per second as measured, for sizing the
    // served phases to the host: (completed, wall seconds).
    let mut served_raw = (0u64, 0f64);
    let rounds_s = args.seconds / plan.rounds as f64;
    for round in 0..plan.rounds {
        // Ids: the round in the top bits, then the phase, then the item.
        let id = |phase: u64| ((round as u64) << 40) | (phase << 36);
        let keep = CYCLE_SAMPLE.saturating_sub(direct.runs.len());
        reset_peak_rss();
        let mut d = direct::run(
            &mut stream,
            rounds_s * plan.direct_share,
            &mut cal,
            &mut tracer,
            id(0),
            keep,
        );
        let rps = if served_raw.0 == 0 {
            plan.nominal_rps
        } else {
            served_raw.0 as f64 / served_raw.1
        };
        let burst_s = rounds_s * (1.0 - plan.direct_share);
        let items = stream.take((rps * burst_s).round().max(1.0) as usize);
        let mut b = served::burst(&clients, &items, BURST_WINDOW, id(1));
        round_rss.push(peak_rss_mb());
        served_raw = (served_raw.0 + b.completed, served_raw.1 + b.wall_s);
        (0..CAL_AROUND).for_each(|_| cal.sample());
        let factor = cal.factor();
        d.latencies_ms.iter_mut().for_each(|l| *l *= factor);
        d.busy_s *= factor;
        b.wall_s *= factor;
        direct_p99.push(tail(&d.latencies_ms));
        direct.merge(d);
        burst.merge(b);

        if !args.trace {
            continue;
        }
        // The open-loop rate follows the capacity measured so far, so
        // every run offers the same utilisation however fast the host.
        let rate = LOADED_FRACTION * served_raw.0 as f64 / served_raw.1;
        let n = ((rate * plan.loaded_share * rounds_s).ceil() as usize).max(1);
        let items = stream.take(n);
        // The arrival schedule is the same in every run (the seed picks
        // the tasks): with a few hundred requests a round, the luck of
        // the arrival draw would otherwise move the latencies.
        let arrivals = 0xa881_7a15 ^ round as u64;
        let l = served::open_loop(&server, &clients, &items, rate, arrivals, id(2));
        loaded_p50.push(median(&l.latencies_ms));
        loaded_p99.push(tail(&l.latencies_ms));
        loaded.merge(l);
    }
    server.shutdown();
    for (attempted, failed) in [
        (direct.attempted, direct.failed),
        (burst.attempted, burst.failed),
        (loaded.attempted, loaded.failed),
    ] {
        tally.add(attempted, failed);
    }

    let mut metrics = Metrics::new();
    if args.trace {
        let served = [&burst, &loaded];
        for phase in served {
            for &(id, due, start, end, delivered) in &phase.timeline {
                let root = tracer.record("serve.request", due.min(start), delivered, None, id);
                tracer.record("serve.admit", start, end, root, id);
                tracer.record("serve.server", end, delivered, root, id);
            }
        }
        per_layer(&mut metrics, &tracer, &direct, &served, &loaded);
        // The stream is a function of the seed: regenerate what the run
        // used rather than hold every task during it.
        let run_tasks = Stream::new(args.workload, args.seed).take(stream.generated());
        let share = shape_repeat_share(run_tasks.iter().map(|i| &i.task));
        metrics.insert("shape_repeat_share", (share, "ratio"));
        metrics.insert("host.calibration_us", (cal.median_s() * 1e6, "us"));
        metrics.insert("loaded_p50_ms", (median(&loaded_p50), "ms"));
        metrics.insert("loaded_p99_ms", (median(&loaded_p99), "ms"));
        if let Some(path) = &args.trace_out {
            if let Err(e) = tracer.write_jsonl(std::path::Path::new(path)) {
                eprintln!("error: writing spans to {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {} spans to {path}", tracer.spans().len());
        }
    } else {
        // Cycle accuracy on the first runs of the measured stream (stream
        // order, so the sample depends only on the seed).
        let sample = &direct.runs;
        let (cells_per_cycle, cycle_error, mismatches) = direct::cycle_reference(sample);
        tally.add(sample.len() as u64, mismatches);

        let kinds = direct.kinds.iter().zip(direct.latencies_ms.iter().copied());
        metrics.insert("setup_s", (setup_s, "s"));
        metrics.insert(
            "tasks_per_s",
            (direct.latencies_ms.len() as f64 / direct.busy_s, "1/s"),
        );
        metrics.insert("latency_p50_ms", (stats::median_of_groups(kinds), "ms"));
        metrics.insert("latency_p99_ms", (median(&direct_p99), "ms"));
        metrics.insert("capacity_rps", (burst.rate(), "1/s"));
        metrics.insert("cells_per_cycle", (cells_per_cycle, "cells/cycle"));
        metrics.insert("cycle_error", (cycle_error, "ratio"));
        let failed_ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
        metrics.insert("ok_ratio", (1.0 - failed_ratio, "ratio"));
        metrics.insert("peak_rss_mb", (median(&round_rss), "MiB"));
        let n_direct = direct.latencies_ms.len() / plan.rounds;
        eprintln!(
            "samples: latency {n_direct} a round (tail q {:.4}), burst {}, cycle sample {}",
            stats::tail_q(n_direct),
            burst.completed,
            sample.len(),
        );
        eprintln!(
            "host: calibration {:.1} us a call, times scaled to {:.1} us",
            cal.median_s() * 1e6,
            calib::REFERENCE_S * 1e6,
        );
    }

    for (name, (value, unit)) in &metrics {
        eprintln!("{name:<28} {value:>14.6} {unit}");
    }
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// JSON has no NaN or infinity; a metric without samples reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Per-layer metrics from the traced run's spans and served phases.
fn per_layer(
    metrics: &mut Metrics,
    tracer: &Tracer,
    direct: &direct::DirectOut,
    served: &[&PhaseOut],
    loaded: &PhaseOut,
) {
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut by_task: BTreeMap<(u64, &str), f64> = BTreeMap::new();
    for (span, &self_ns) in spans.iter().zip(&selfs) {
        by_name.entry(span.name).or_default().push(self_ns as f64);
        by_task.insert((span.task, span.name), self_ns as f64);
    }
    let samples = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let sum = |name: &str| samples(name).iter().sum::<f64>();
    let med_us = |name: &str| median(&samples(name)) / 1e3;

    for (metric, span) in [
        ("dpmap.construct_us", "dpmap.construct"),
        ("core.codegen_us", "core.codegen"),
        ("isa.decode_us", "isa.decode"),
        ("core.prepare_us", "core.prepare"),
        ("execute.functional_us", "execute.functional"),
        ("execute.simulated_us", "execute.simulated"),
        ("kernels.native_us", "kernels.native"),
        ("runtime.preflight_us", "runtime.preflight"),
        ("runtime.certified_cost_us", "runtime.certified_cost"),
    ] {
        metrics.insert(metric, (med_us(span), "us"));
    }
    // Summarised as `latency_p50_ms` is, so the two runs compare: the
    // gap is the tracing overhead.
    let kinds = direct.kinds.iter().zip(direct.latencies_ms.iter().copied());
    metrics.insert(
        "runtime.execute_us",
        (stats::median_of_groups(kinds) * 1e3, "us"),
    );
    // verify_task regenerates the programs; certification is the rest.
    let certify: Vec<f64> = by_task
        .iter()
        .filter(|((_, name), _)| *name == "core.codegen")
        .filter_map(|((task, _), codegen)| {
            by_task
                .get(&(*task, "verify.verify_task"))
                .map(|verify| (verify - codegen).max(0.0))
        })
        .collect();
    metrics.insert("verify.certify_us", (median(&certify) / 1e3, "us"));
    let executed = sum("execute.functional") + sum("execute.fallback");
    let prepare = sum("core.prepare");
    metrics.insert(
        "core.prepare_share",
        (prepare / (prepare + executed).max(1.0), "ratio"),
    );
    let probed = samples("probe").len().max(1) as f64;
    metrics.insert(
        "execute.functional_share",
        (direct.functional as f64 / probed, "ratio"),
    );
    metrics.insert(
        "execute.host_ns_per_cycle",
        (
            sum("execute.simulated") / direct.reference_cycles.max(1) as f64,
            "ns/cycle",
        ),
    );
    metrics.insert(
        "ceiling_ratio",
        (
            sum("runtime.execute") / sum("kernels.native").max(1.0),
            "ratio",
        ),
    );

    let all = |f: fn(&PhaseOut) -> &Vec<f64>| -> Vec<f64> {
        served.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let admit = all(|p| &p.admit_us);
    metrics.insert(
        "runtime.attempts_per_task",
        (mean(&all(|p| &p.attempts)), "count"),
    );
    metrics.insert("serve.admit_us", (median(&admit), "us"));
    metrics.insert("serve.admit_p99_us", (tail(&admit), "us"));
    metrics.insert("serve.server_latency_ms", (median(&loaded.server_ms), "ms"));
    metrics.insert(
        "serve.server_latency_p99_ms",
        (tail(&loaded.server_ms), "ms"),
    );
    metrics.insert(
        "serve.backlog_max",
        (quantile(&loaded.backlog, 1.0), "count"),
    );
    metrics.insert("serve.generator_late_ms", (tail(&loaded.late_ms), "ms"));
}
