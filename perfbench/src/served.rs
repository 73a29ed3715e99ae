//! The served phases: requests through `gendp-serve`'s `Server`, one
//! submitter thread and one collector thread.

use std::collections::VecDeque;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use gendp::dpax::TierPolicy;
use gendp::runtime::DeviceConfig;
use gendp::serve::{Completed, ServeConfig, Server, TenantClient, TenantConfig, Ticket};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::matches_native;
use crate::workload::{Item, Workload};

/// Generator threads the benchmark may use, and the server's workers.
pub fn nproc() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// One shard with `nproc` workers, the functional tier with fallback,
/// no fault injection; batching and DRR quantum as `bench-serve`.
pub fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        shard_config: DeviceConfig {
            workers: nproc(),
            tiers: TierPolicy::functional(),
            fault: None,
            ..DeviceConfig::default()
        },
        batch_max: 64,
        quantum_cells: 2048,
        dispatch_queue: 2,
        ..ServeConfig::default()
    }
}

pub fn start(workload: Workload) -> (Server, Vec<TenantClient>) {
    let tenants = workload
        .tenants()
        .iter()
        .map(|&(name, priority, weight)| {
            TenantConfig::new(name)
                .priority(priority)
                .weight(weight)
                .quotas(1 << 14, 1 << 14)
        })
        .collect();
    let server = Server::start(config(), tenants).expect("server starts");
    let clients = workload
        .tenants()
        .iter()
        .map(|&(name, _, _)| server.client(name).expect("registered tenant"))
        .collect();
    (server, clients)
}

/// One request as the generator saw it.
struct Sent {
    item: usize,
    id: u64,
    due: Instant,
    submit_start: Instant,
    submit_end: Instant,
}

/// What one served phase measured and checked.
#[derive(Default)]
pub struct PhaseOut {
    pub attempted: u64,
    /// Rejected at admission, failed after admission, or wrong value.
    pub failed: u64,
    pub completed: u64,
    pub wall_s: f64,
    /// Due time to delivery, milliseconds (open loop only).
    pub latencies_ms: Vec<f64>,
    /// `Completed::latency`: admission to delivery, milliseconds.
    pub server_ms: Vec<f64>,
    /// Time inside `TenantClient::submit`, microseconds.
    pub admit_us: Vec<f64>,
    /// How late the generator submitted each request, milliseconds.
    pub late_ms: Vec<f64>,
    pub attempts: Vec<f64>,
    /// Sampled requests admitted and not yet delivered.
    pub backlog: Vec<f64>,
    /// Spans to record: (request id, due, submit start, submit end,
    /// delivered).
    pub timeline: Vec<(u64, Instant, Instant, Instant, Instant)>,
}

impl PhaseOut {
    /// Pools another phase's samples and counts into this one.
    pub fn merge(&mut self, other: PhaseOut) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.wall_s += other.wall_s;
        self.latencies_ms.extend(other.latencies_ms);
        self.server_ms.extend(other.server_ms);
        self.admit_us.extend(other.admit_us);
        self.late_ms.extend(other.late_ms);
        self.attempts.extend(other.attempts);
        self.backlog.extend(other.backlog);
        self.timeline.extend(other.timeline);
    }

    /// Completed requests per second of phase wall time.
    pub fn rate(&self) -> f64 {
        self.completed as f64 / self.wall_s.max(1e-9)
    }

    fn absorb(&mut self, items: &[Item], sent: Sent, delivery: Result<Completed, String>) {
        self.admit_us
            .push((sent.submit_end - sent.submit_start).as_secs_f64() * 1e6);
        self.late_ms.push(
            sent.submit_start
                .saturating_duration_since(sent.due)
                .as_secs_f64()
                * 1e3,
        );
        match delivery {
            Ok(done) if matches_native(&items[sent.item].task, &done.value) => {
                // `Completed::latency` starts inside `submit`, after
                // pricing; add the time from the due instant to the end
                // of `submit` to count admission and generator lag.
                let from_due = sent.submit_end.saturating_duration_since(sent.due) + done.latency;
                self.latencies_ms.push(from_due.as_secs_f64() * 1e3);
                self.server_ms.push(done.latency.as_secs_f64() * 1e3);
                self.attempts.push(done.attempts as f64);
                self.timeline.push((
                    sent.id,
                    sent.due,
                    sent.submit_start,
                    sent.submit_end,
                    sent.submit_end + done.latency,
                ));
                self.completed += 1;
            }
            Ok(done) => {
                eprintln!(
                    "wrong served value {:?} for {:?}",
                    done.value, items[sent.item].task
                );
                self.failed += 1;
            }
            Err(e) => {
                eprintln!("served request failed: {e}");
                self.failed += 1;
            }
        }
    }
}

fn submit(
    clients: &[TenantClient],
    item: &Item,
    due: Instant,
    idx: usize,
    id: u64,
) -> (Sent, Result<Ticket, String>) {
    let task = item.task.clone();
    let submit_start = Instant::now();
    let ticket = clients[item.tenant].submit(task).map_err(|e| e.to_string());
    let submit_end = Instant::now();
    let sent = Sent {
        item: idx,
        id,
        due,
        submit_start,
        submit_end,
    };
    (sent, ticket)
}

fn wait(ticket: Ticket) -> Result<Completed, String> {
    ticket.wait().map_err(|e| format!("{e:?}"))
}

/// Checks and tallies the deliveries of one phase, after it ended.
fn finish(items: &[Item], raw: Vec<(Sent, Result<Completed, String>)>) -> PhaseOut {
    let mut out = PhaseOut::default();
    for (sent, delivery) in raw {
        out.absorb(items, sent, delivery);
    }
    out
}

/// Submits `items` as fast as admission allows with at most `window`
/// requests outstanding; capacity is completions over the phase's wall
/// time. Request ids start at `first_id`.
pub fn burst(clients: &[TenantClient], items: &[Item], window: usize, first_id: u64) -> PhaseOut {
    let started = Instant::now();
    let mut raw = Vec::with_capacity(items.len());
    let mut pending: VecDeque<(Sent, Ticket)> = VecDeque::new();
    let mut rejected = 0u64;
    for (idx, item) in items.iter().enumerate() {
        if pending.len() == window {
            let (sent, ticket) = pending.pop_front().expect("window is full");
            raw.push((sent, wait(ticket)));
        }
        let (sent, ticket) = submit(clients, item, Instant::now(), idx, first_id + idx as u64);
        match ticket {
            Ok(ticket) => pending.push_back((sent, ticket)),
            Err(e) => {
                eprintln!("rejected at admission: {e}");
                rejected += 1;
            }
        }
    }
    for (sent, ticket) in pending {
        raw.push((sent, wait(ticket)));
    }
    let wall_s = started.elapsed().as_secs_f64();
    let mut out = finish(items, raw);
    out.wall_s = wall_s;
    out.attempted = items.len() as u64;
    out.failed += rejected;
    out.latencies_ms.clear();
    out
}

/// Open loop: exponential inter-arrival times at `rate` per second from
/// `seed`, submitted by this thread whether or not earlier requests have
/// completed; a collector thread waits on the tickets. The submitter
/// samples `ServerStats` every 16 requests.
/// Request ids start at `first_id`.
pub fn open_loop(
    server: &Server,
    clients: &[TenantClient],
    items: &[Item],
    rate: f64,
    seed: u64,
    first_id: u64,
) -> PhaseOut {
    let mut rng = SmallRng::seed_from_u64(seed);
    let epoch = Instant::now() + Duration::from_millis(1);
    let mut at = 0.0f64;
    let dues: Vec<Instant> = items
        .iter()
        .map(|_| {
            at += -(1.0 - rng.gen::<f64>()).ln() / rate;
            epoch + Duration::from_secs_f64(at)
        })
        .collect();
    let mut backlog = Vec::new();
    let mut rejected = 0u64;
    let (tx, rx) = mpsc::channel::<(Sent, Ticket)>();
    let raw = thread::scope(|scope| {
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(sent, ticket)| (sent, wait(ticket)))
                .collect::<Vec<_>>()
        });
        for (idx, (item, &due)) in items.iter().zip(&dues).enumerate() {
            let now = Instant::now();
            if due > now {
                thread::sleep(due - now);
            }
            let (sent, ticket) = submit(clients, item, due, idx, first_id + idx as u64);
            match ticket {
                Ok(ticket) => tx.send((sent, ticket)).expect("collector is running"),
                Err(e) => {
                    eprintln!("rejected at admission: {e}");
                    rejected += 1;
                }
            }
            if idx % 16 == 0 {
                let stats = server.stats();
                backlog.push(stats.tenants.iter().map(|t| t.in_flight).sum::<usize>() as f64);
            }
        }
        drop(tx);
        collector.join().expect("collector thread")
    });
    let wall_s = (Instant::now() - epoch).as_secs_f64();
    let mut out = finish(items, raw);
    out.wall_s = wall_s;
    out.attempted = items.len() as u64;
    out.failed += rejected;
    out.backlog = backlog;
    out
}
