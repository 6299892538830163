//! One pass over one workload: set-up (build, preload, warm-up), the
//! measured phase in equal-count windows, and the end-of-run audit.

use std::collections::HashSet;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use aft_cluster::cluster::MaintenanceStats;
use aft_core::NodeStatsSnapshot;
use aft_faas::PlatformStatsSnapshot;
use aft_net::{ClientStatsSnapshot, EventSnapshot};
use aft_storage::{IoStatsSnapshot, StorageStatsSnapshot};
use aft_types::{payload_of_size, Key, TransactionRecord, Uuid, WireStats};
use aft_workload::{TransactionPlan, WorkloadGenerator};

use crate::host;
use crate::metrics::{median, percentile_ns};
use crate::spec::{Deployment, Spec, CLIENTS, WINDOW};
use crate::trace;

/// Keys one audit transaction reads together, so that cowritten keys are
/// judged as one read set.
const AUDIT_CHUNK: usize = 64;

#[derive(Clone, Copy)]
pub struct PassOptions {
    pub seed: u64,
    /// Measured transactions (a whole number of windows).
    pub count: u64,
    pub warmup: u64,
    pub num_keys: usize,
    pub traced: bool,
    /// Run a service workload's cluster shape without aft-net.
    pub in_process: bool,
}

/// Every counter the layers publish, at one instant.
#[derive(Clone, Default)]
pub struct Counters {
    pub cpu_s: f64,
    pub storage: StorageStatsSnapshot,
    pub nodes: NodeStatsSnapshot,
    pub batch_submitted: u64,
    pub batch_flushes: u64,
    pub batch_largest: u64,
    pub io: IoStatsSnapshot,
    pub platform: PlatformStatsSnapshot,
    pub server: Option<WireStats>,
    pub event: Option<EventSnapshot>,
    pub client: Option<ClientStatsSnapshot>,
    pub allocations: (u64, u64),
    pub nonvoluntary_switches: u64,
    pub steal_ticks: (u64, u64),
}

impl Counters {
    pub fn take(dep: &Deployment) -> Counters {
        let mut c = Counters {
            io: dep.cluster.io().stats(),
            ..Counters::default()
        };
        // Summed over the nodes: only the counters a metric reads.
        for node in dep.cluster.active_nodes() {
            let s = node.stats().snapshot();
            c.nodes.reads += s.reads;
            c.nodes.reads_from_write_buffer += s.reads_from_write_buffer;
            c.nodes.reads_from_data_cache += s.reads_from_data_cache;
            c.nodes.reads_from_storage += s.reads_from_storage;
            c.nodes.no_valid_version_aborts += s.no_valid_version_aborts;
            let batch = node.commit_batch_stats();
            c.batch_submitted += batch.submitted;
            c.batch_flushes += batch.flushes;
            c.batch_largest = c.batch_largest.max(batch.largest_batch);
            let io = node.io().stats();
            c.io.submitted += io.submitted;
            c.io.deferred += io.deferred;
            c.io.peak_in_flight = c.io.peak_in_flight.max(io.peak_in_flight);
            c.io.retries += io.retries;
        }
        c.cpu_s = host::cpu_seconds();
        c.storage = dep.storage.stats().snapshot();
        c.platform = dep.platform.stats().snapshot();
        c.server = dep.server.as_ref().map(|s| s.stats());
        c.event = dep.server.as_ref().and_then(|s| s.event_snapshot());
        c.client = dep.client.as_ref().map(|c| c.stats());
        c.allocations = host::allocation_totals();
        c.nonvoluntary_switches = host::nonvoluntary_switches();
        c.steal_ticks = host::steal_and_total_ticks();
        c
    }
}

/// One maintenance round of the measured phase.
pub struct Round {
    pub took: Duration,
    pub stats: MaintenanceStats,
}

/// One window of the measured phase: `WINDOW` consecutive transactions by
/// draw order, whichever client ran them, and the one maintenance round
/// among them.
pub struct Window {
    pub seconds: f64,
    pub cpu_seconds: f64,
    /// Begin-to-commit-ack latencies of the window's committed transactions.
    pub latencies_ns: Vec<u32>,
}

impl Window {
    pub fn rate(&self) -> f64 {
        WINDOW as f64 / self.seconds
    }
}

pub struct Pass {
    pub setup_s: f64,
    /// Go to last client done.
    pub wall_s: f64,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    /// Committed transactions that saw a read-your-writes or fractured read.
    pub flagged: u64,
    pub windows: Vec<Window>,
    pub before: Counters,
    pub after: Counters,
    pub peak_rss_mib: f64,
    pub rounds: Vec<Round>,
    pub plan_hash: u64,
    pub audit: Result<usize, String>,
}

/// The timing metrics of a pass, taken over its quiet windows.
pub struct Timing {
    pub txn_per_s: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub cpu_ms_per_txn: f64,
    pub quiet_windows: usize,
    pub samples: usize,
}

impl Pass {
    /// Interference from the host only ever slows a window down, so the
    /// fastest quarter of the windows is the closest view of the program
    /// itself; every timing metric is taken over those. Each window holds
    /// the same number of transactions and exactly one maintenance round, so
    /// choosing by speed does not choose by work.
    pub fn timing(&self) -> Timing {
        let mut order: Vec<usize> = (0..self.windows.len()).collect();
        order.sort_by(|a, b| {
            self.windows[*a]
                .seconds
                .total_cmp(&self.windows[*b].seconds)
        });
        order.truncate(self.windows.len().div_ceil(4).max(1));
        let quiet: Vec<&Window> = order.iter().map(|i| &self.windows[*i]).collect();
        let rates: Vec<f64> = quiet.iter().map(|w| w.rate()).collect();
        let mut latencies: Vec<u32> = quiet
            .iter()
            .flat_map(|w| w.latencies_ns.iter().copied())
            .collect();
        let cpu: f64 = quiet.iter().map(|w| w.cpu_seconds).sum();
        Timing {
            txn_per_s: median(&rates),
            p50_ms: percentile_ns(&mut latencies, 0.5) / 1e6,
            p99_ms: percentile_ns(&mut latencies, 0.99) / 1e6,
            cpu_ms_per_txn: cpu * 1e3 / (quiet.len() * WINDOW as usize) as f64,
            quiet_windows: quiet.len(),
            samples: latencies.len(),
        }
    }
}

/// Hands out the run's transactions in one seeded order to whichever client
/// asks next, so the plans (and their count) do not depend on how the work
/// happened to split between the clients.
struct Feed {
    state: Mutex<FeedState>,
}

struct FeedState {
    generator: WorkloadGenerator,
    drawn: u64,
    hash: u64,
}

const HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

impl Feed {
    fn draw(&self, limit: u64) -> Option<(u64, TransactionPlan)> {
        let mut state = self.state.lock().expect("feed lock");
        if state.drawn >= limit {
            return None;
        }
        let plan = state.generator.next_plan();
        state.hash = hash_plan(state.hash, &plan);
        state.drawn += 1;
        Some((state.drawn - 1, plan))
    }

    /// Starts the next phase's numbering; returns the hash of the plans
    /// drawn in the one that ended.
    fn restart(&self) -> u64 {
        let mut state = self.state.lock().expect("feed lock");
        state.drawn = 0;
        std::mem::replace(&mut state.hash, HASH_SEED)
    }
}

struct ClientOut {
    /// `(draw index, latency)` of committed transactions.
    latencies: Vec<(u32, u32)>,
    /// `(window, time, process CPU seconds)` at each window start drawn here.
    marks: Vec<(usize, Instant, f64)>,
    committed: u64,
    failed: u64,
    flagged: u64,
    rounds: Vec<Round>,
}

fn hash_plan(mut h: u64, plan: &TransactionPlan) -> u64 {
    for function in &plan.functions {
        for key in function.reads.iter().chain(&function.writes) {
            h = h.rotate_left(7) ^ trace::hash_str(key.as_str());
        }
    }
    h
}

fn maintenance(dep: &Deployment, rounds: Option<&mut Vec<Round>>) {
    let started = Instant::now();
    let stats = trace::timed_maintenance(|| dep.cluster.run_maintenance_round());
    if let (Some(rounds), Ok(stats)) = (rounds, stats) {
        rounds.push(Round {
            took: started.elapsed(),
            stats,
        });
    }
}

/// Builds the deployment, preloads every key and warms up; with
/// `opts.count == 0` that is all (a set-up repetition). Otherwise goes on to
/// the measured phase and the audit. The deployment is handed back alive.
pub fn run(spec: &Spec, opts: PassOptions) -> Result<(Pass, Deployment), String> {
    let setup_started = Instant::now();
    let dep = Deployment::build(spec, opts.seed, opts.traced, opts.in_process)
        .map_err(|e| format!("building the deployment: {e}"))?;
    let keys = WorkloadGenerator::new(spec.workload(opts.num_keys), opts.seed).preload_plan();
    dep.driver
        .preload(&keys, spec.value_size)
        .map_err(|e| format!("preload: {e}"))?;
    // The preload commits on whichever nodes the router picked; one round
    // tells every other node, so no transaction reads a key as missing.
    dep.cluster
        .run_maintenance_round()
        .map_err(|e| format!("maintenance round after the preload: {e}"))?;

    let measuring = opts.count > 0;
    let feed = Feed {
        state: Mutex::new(FeedState {
            generator: WorkloadGenerator::new(spec.workload(opts.num_keys), opts.seed + 1),
            drawn: 0,
            hash: HASH_SEED,
        }),
    };
    let barrier = Barrier::new(CLIENTS + 1);
    let outs: Mutex<Vec<ClientOut>> = Mutex::new(Vec::new());
    let mut pass = Pass {
        setup_s: 0.0,
        wall_s: 0.0,
        attempted: opts.count,
        committed: 0,
        failed: 0,
        flagged: 0,
        windows: Vec::new(),
        before: Counters::default(),
        after: Counters::default(),
        peak_rss_mib: 0.0,
        rounds: Vec::new(),
        plan_hash: 0,
        audit: Ok(0),
    };
    let mut logged_before = 0;
    let mut finished = (Instant::now(), 0.0);

    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            let (dep, barrier, outs, feed) = (&dep, &barrier, &outs, &feed);
            scope.spawn(move || {
                while let Some((index, plan)) = feed.draw(opts.warmup) {
                    if index % WINDOW == WINDOW / 2 {
                        maintenance(dep, None);
                    }
                    let _ = dep.driver.execute(&plan);
                }
                barrier.wait();
                if !measuring {
                    return;
                }
                barrier.wait();
                let mut out = ClientOut {
                    latencies: Vec::with_capacity(opts.count as usize),
                    marks: Vec::new(),
                    committed: 0,
                    failed: 0,
                    flagged: 0,
                    rounds: Vec::new(),
                };
                while let Some((index, plan)) = feed.draw(opts.count) {
                    if index % WINDOW == 0 {
                        let window = (index / WINDOW) as usize;
                        out.marks
                            .push((window, Instant::now(), host::cpu_seconds()));
                    } else if index % WINDOW == WINDOW / 2 {
                        maintenance(dep, Some(&mut out.rounds));
                    }
                    let root = opts.traced.then(|| trace::open_root(index as u32 + 1));
                    let started = Instant::now();
                    let result = dep.driver.execute(&plan);
                    let took = started.elapsed();
                    if let Some(root) = root {
                        trace::close_root(root);
                    }
                    match result {
                        Ok(flags) => {
                            out.committed += 1;
                            out.flagged += u64::from(flags.any());
                            let ns = took.as_nanos().min(u128::from(u32::MAX)) as u32;
                            out.latencies.push((index as u32, ns));
                        }
                        Err(e) => {
                            if out.failed == 0 {
                                eprintln!("# first failure of a client: {e}");
                            }
                            out.failed += 1;
                        }
                    }
                }
                outs.lock().expect("results lock").push(out);
                barrier.wait();
            });
        }

        barrier.wait();
        pass.setup_s = setup_started.elapsed().as_secs_f64();
        if !measuring {
            return;
        }
        feed.restart();
        logged_before = dep.large.as_ref().map_or(0, |d| d.logged());
        if opts.traced {
            trace::enable(opts.count as usize * 8);
            host::count_allocations(true);
        }
        pass.before = Counters::take(&dep);
        let go = Instant::now();
        barrier.wait();
        barrier.wait();
        finished = (Instant::now(), host::cpu_seconds());
        pass.wall_s = go.elapsed().as_secs_f64();
        pass.after = Counters::take(&dep);
        pass.peak_rss_mib = host::peak_rss_mib();
        trace::disable();
        host::count_allocations(false);
    });
    if !measuring {
        return Ok((pass, dep));
    }
    pass.plan_hash = feed.restart();

    let outs = outs.into_inner().expect("results lock");
    let mut marks: Vec<(usize, Instant, f64)> = outs
        .iter()
        .flat_map(|out| out.marks.iter().copied())
        .collect();
    marks.sort_by_key(|(window, _, _)| *window);
    marks.push((marks.len(), finished.0, finished.1));
    pass.windows = marks
        .windows(2)
        .map(|pair| Window {
            seconds: pair[1].1.duration_since(pair[0].1).as_secs_f64(),
            cpu_seconds: pair[1].2 - pair[0].2,
            latencies_ns: Vec::with_capacity(WINDOW as usize),
        })
        .collect();
    for out in outs {
        for (index, ns) in &out.latencies {
            pass.windows[(u64::from(*index) / WINDOW) as usize]
                .latencies_ns
                .push(*ns);
        }
        pass.committed += out.committed;
        pass.failed += out.failed;
        pass.flagged += out.flagged;
        pass.rounds.extend(out.rounds);
    }
    if let Some(large) = &dep.large {
        pass.flagged = large.analyze_from(logged_before).0;
    }
    pass.audit = audit(spec, &dep, &keys);
    Ok((pass, dep))
}

/// Reads every key once through the deployment's endpoint and checks that
/// each value was written by the preload or an acknowledged commit, has the
/// workload's payload, is the version of a durably committed transaction,
/// and that each chunk read together is an atomic read set.
fn audit(spec: &Spec, dep: &Deployment, keys: &[Key]) -> Result<usize, String> {
    // Let every node learn every commit first.
    dep.cluster
        .run_maintenance_round()
        .map_err(|e| format!("audit: maintenance round: {e}"))?;
    let durable: HashSet<Uuid> = dep
        .storage
        .list_prefix(&TransactionRecord::storage_prefix())
        .map_err(|e| format!("audit: listing the commit set: {e}"))?
        .iter()
        .filter_map(|key| TransactionRecord::id_from_storage_key(key).ok())
        .map(|id| id.uuid)
        .collect();
    let acknowledged: Option<HashSet<Uuid>> = dep
        .large
        .as_ref()
        .map(|large| large.acknowledged().into_iter().collect());
    let expected = payload_of_size(spec.value_size);

    for chunk in keys.chunks(AUDIT_CHUNK) {
        let txid = dep.api.begin().map_err(|e| format!("audit: begin: {e}"))?;
        let mut reads = Vec::with_capacity(chunk.len());
        for key in chunk {
            let (value, version) = match dep.api.get_versioned(&txid, key) {
                Ok(Some((value, Some(version)))) => (value, version),
                Ok(_) => return Err(format!("audit: {key} has no committed version")),
                Err(e) => return Err(format!("audit: reading {key}: {e}")),
            };
            if !durable.contains(&version.uuid) {
                return Err(format!(
                    "audit: {key} is at {version}, which has no commit record"
                ));
            }
            match (&dep.large, &acknowledged) {
                (Some(large), Some(acknowledged)) => {
                    let writer = large
                        .check_value(&value, &version)
                        .map_err(|e| format!("audit: {key}: {e}"))?;
                    if writer != crate::large::PRELOAD_UUID && !acknowledged.contains(&writer) {
                        return Err(format!("audit: {key} written by unacknowledged {writer}"));
                    }
                }
                _ => {
                    if value != expected {
                        return Err(format!(
                            "audit: {key} holds {} bytes that are not the workload's payload",
                            value.len()
                        ));
                    }
                }
            }
            reads.push((key.clone(), version));
        }
        let outcome = dep
            .api
            .commit(&txid, &reads)
            .map_err(|e| format!("audit: commit: {e}"))?;
        if !outcome.atomic {
            return Err(format!(
                "audit: keys {}..{} read together are not an atomic read set",
                chunk[0],
                chunk[chunk.len() - 1]
            ));
        }
    }
    Ok(keys.len())
}
