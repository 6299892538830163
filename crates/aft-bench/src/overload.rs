//! `fig11_overload`: the overload-protection sweep, in virtual time.
//!
//! The paper's experiments stop at the load its deployments can carry;
//! this experiment asks what the shim does *past* that point. It measures
//! the deployment's closed-loop capacity, then offers paced open loops at
//! 1×–8× that capacity against a server running admission control and
//! queue-age shedding; a generator answers a rejected commit with a fresh
//! transaction after jittered backoff. A **chaos leg** repeats the 4× point
//! with seeded connection faults ([`Seeded::resets`]: resets at
//! `RESET_RATE`, 0.05, and late answers at `DELAY_RATE`, 0.03) on top. Its
//! client holds one connection per generator, as each FaaS instance holds
//! its own, so a reset fails the one request on that connection rather
//! than every generator's request on a shared one.
//!
//! Every leg runs over in-memory pipes ([`aft_net::ServerBuilder::pipe`])
//! into a cluster of `NODES` (2) nodes over the virtual Redis row, whose
//! commits take their timestamps from the seats
//! ([`SeatClock`](aft_storage::latency::SeatClock)). Each generator thread
//! is seated at one `Turns` table ([`run_seated`]): its pacing, backoff and
//! deadline are its seat's clock, and maintenance runs on a timer seat
//! every second. The server's
//! `WORKERS` (2) are that many permits: a request holds one across its own
//! RPC and storage charges, counts in the depth admission reads while it
//! waits for one, and is shed when that wait passes `QUEUE_DEADLINE`
//! (75 ms). A report is a function of its configuration and seed, counts
//! included.
//!
//! The claim under test is *graceful degradation*: past saturation the
//! server turns excess load into fast typed rejections, not unbounded
//! queueing. At 4× or more, a point's whole-leg goodput holds
//! `GOODPUT_FLOOR` of the sweep's peak, the p999 of its successful commits
//! stays within `P999_CAP_MS`, and the protection trips; in every leg, the
//! history checker ([`aft_workload::history`]) finds zero read anomalies
//! and zero acknowledged-but-lost commits. Every transaction reads its
//! thread's previous write over the wire and reads its own write back.
//! Each generator waits for its transaction before pacing the next, so a
//! multiplier bounds the load offered rather than fixing it; the `points`
//! sheet prints both. At the default seed the fast 4× point offers 1 543
//! of its 1 613 requests/s, and the full 2× point only 401 of 796: its 16
//! threads are never rejected under the admission limit of 16, so they
//! queue, and each waits about 40 ms for its transaction.
//!
//! The report's sheets are `capacity`, `points` (a row per multiplier) and
//! `chaos`, in `BENCH_overload.json`; [`checks`] names each clause of the
//! gate that CI's `overload-gate` job enforces.
//!
//! The `chaos` sheet's `duplicate_commits`, like the trajectory's
//! `fig11.tiny.duplicate_commits`, is 0 by construction: the client makes
//! one attempt a call (`max_attempts: 1` in `leg`) and a generator retries
//! a failed commit as a fresh transaction. ROADMAP item 8 walks resends.

use std::sync::Arc;
use std::time::Duration;

use aft_core::api::AftApi;
use aft_core::{NetFault, PhaseHook};
use aft_net::{AftClient, AftServer};
use aft_storage::io::RetryConfig;
use aft_storage::latency::Seat;
use aft_storage::BackendKind;
use aft_types::{Key, Value, WireStats};
use aft_workload::history::{self, History, Recorder};
use aft_workload::run_seated;
use aft_workload::sim::{Answered, Seeded, Shared};

use crate::cli::{Args, Outcome};
use crate::report::{ensure, percentile_ms, Report, Sheet, Verdict};
use crate::setup::{self, maintenance, settled_verdict, virtual_backend};

/// A saturated point's p999 of *successful* commits above this is
/// unbounded queueing — the protection stack failed to shed.
const P999_CAP_MS: f64 = 250.0;
/// A saturated point's goodput below this fraction of the sweep's peak is
/// a collapse: a real shedding failure (rejecting work the server had
/// capacity for, or thrashing instead of committing) lands far below half
/// of peak, whereas a healthy stack holds within 20% of it.
const GOODPUT_FLOOR: f64 = 0.5;

/// AFT nodes behind the server.
const NODES: usize = 2;
/// The server's workers: permits a request holds while it runs.
const WORKERS: usize = 2;
/// Server queue-age shedding deadline.
const QUEUE_DEADLINE: Duration = Duration::from_millis(75);
/// Connection-reset rate of the chaos leg.
const RESET_RATE: f64 = 0.05;
/// Delayed-ack rate of the chaos leg.
const DELAY_RATE: f64 = 0.03;

/// Configuration of the overload sweep. Durations are virtual time.
#[derive(Debug, Clone)]
pub(crate) struct OverloadConfig {
    /// Offered-load multipliers over measured capacity, in sweep order.
    pub(crate) multipliers: Vec<f64>,
    /// Closed-loop clients in the capacity phase.
    pub(crate) capacity_clients: usize,
    /// Length of the capacity phase.
    pub(crate) capacity_duration: Duration,
    /// Length of each sweep point and of the chaos leg.
    pub(crate) point_duration: Duration,
    /// Paced generator threads at 1× (scaled up with the multiplier).
    pub(crate) base_threads: usize,
    /// Server admission limit (queue depth; the protection under test).
    pub(crate) admission_limit: usize,
    /// Base seed.
    pub(crate) seed: u64,
}

impl OverloadConfig {
    /// The full sweep: 1×/2×/4×/8× offered load.
    pub(crate) fn standard() -> Self {
        OverloadConfig {
            multipliers: vec![1.0, 2.0, 4.0, 8.0],
            capacity_clients: 8,
            capacity_duration: Duration::from_millis(1_500),
            point_duration: Duration::from_millis(3_000),
            base_threads: 8,
            // Admission sits *between* the capacity phase's concurrency (8
            // closed-loop clients must never trip it) and the saturated
            // sweep's (32 paced threads overflow it): queue depth can never
            // exceed the requests outstanding. The deadline is the burst
            // backstop behind it; admission is the steady-state limiter.
            admission_limit: 16,
            seed: 0xF11_0AD,
        }
    }

    /// The CI sweep: 1× and 4×, shorter legs.
    pub(crate) fn fast() -> Self {
        OverloadConfig {
            multipliers: vec![1.0, 4.0],
            capacity_clients: 6,
            capacity_duration: Duration::from_millis(400),
            point_duration: Duration::from_millis(1000),
            ..OverloadConfig::standard()
        }
    }

    /// The unit tests' and the trajectory's sweep: three threads at 1×,
    /// twelve at 4×, and an admission limit between them.
    pub(crate) fn tiny() -> Self {
        OverloadConfig {
            multipliers: vec![1.0, 4.0],
            capacity_clients: 3,
            capacity_duration: Duration::from_millis(300),
            point_duration: Duration::from_millis(400),
            base_threads: 3,
            admission_limit: 6,
            ..OverloadConfig::fast()
        }
    }
}

/// The checks' names, in order.
const CHECKS: [&str; 9] = [
    "capacity > 0",
    "0 read anomalies",
    "0 lost acks",
    "0 failures without faults",
    "sweep reaches 4x",
    "p999 <= 250 ms at >= 4x",
    "goodput >= 0.5 x peak at >= 4x",
    "protection trips at >= 4x",
    "chaos leg delivers resets",
];

/// The `points` sheet's columns, a row per multiplier: the multiplier, its
/// paced threads, the load it targeted and the load it offered (requests/s
/// of virtual time), its goodput (commits/s), its transactions committed,
/// refused `Overloaded` and failed otherwise, the checker's anomalies and
/// lost acks, the successful commits' latency quantiles, the server's
/// admission rejections and queue-age sheds, and the requests the server
/// ran (the closing `Stats` call included).
const POINT_COLUMNS: &[&str] = &[
    "multiplier",
    "threads",
    "target_rps",
    "offered_rps",
    "goodput_rps",
    "committed",
    "rejected",
    "failed",
    "anomalies",
    "lost_acked_commits",
    "p50_ms",
    "p99_ms",
    "p999_ms",
    "overload_rejections",
    "shed_requests",
    "requests",
];

/// The `chaos` sheet's columns: as `points`, less the latencies and the
/// load, plus the resets and late answers delivered and the commits the
/// server acknowledged from its dedup ledger.
const CHAOS_COLUMNS: &[&str] = &[
    "threads",
    "committed",
    "rejected",
    "failed",
    "anomalies",
    "lost_acked_commits",
    "resets",
    "delayed_acks",
    "overload_rejections",
    "shed_requests",
    "duplicate_commits",
    "requests",
];

/// fig11's checks: a measured capacity; no anomaly and no lost ack in any
/// leg; no failure but `Overloaded` where no fault is injected; a point at
/// 4× or more; there, p999 within `P999_CAP_MS`, goodput at least
/// `GOODPUT_FLOOR` of the sweep's peak, and a protection that tripped; and
/// a chaos leg that delivered resets.
pub(crate) fn checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let capacity = report.sheet("capacity");
    let (points, chaos) = (report.sheet("points"), report.sheet("chaos"));
    let saturated: Vec<&[String]> = points
        .keys()
        .filter(|row| points.value(row, "multiplier") >= 4.0)
        .collect();
    let peak = points.keys().map(|row| points.value(row, "goodput_rps"));
    let peak = peak.fold(0.0, f64::max);
    let each_saturated = |column: &str, holds: &dyn Fn(f64) -> bool| {
        saturated.iter().try_for_each(|row| {
            let value = points.value(row, column);
            ensure(holds(value), || {
                format!("{}: {column} {value}", row.join("/"))
            })
        })
    };
    let tripped = |row: &&[String]| {
        points.value(row, "overload_rejections") + points.value(row, "shed_requests") > 0.0
    };
    let both = |column, holds: fn(f64) -> bool| {
        points
            .each(column, holds)
            .and_then(|()| chaos.each(column, holds))
    };
    let verdicts = [
        capacity.each("capacity_rps", |rps| rps > 0.0),
        both("anomalies", |n| n == 0.0),
        both("lost_acked_commits", |n| n == 0.0),
        points.each("failed", |n| n == 0.0),
        ensure(!saturated.is_empty(), || {
            "no point offers 4x capacity or more".to_owned()
        }),
        each_saturated("p999_ms", &|p999| p999 <= P999_CAP_MS),
        each_saturated("goodput_rps", &|rps| rps >= GOODPUT_FLOOR * peak)
            .map_err(|e| format!("{e}, peak {peak:.0}")),
        ensure(
            saturated.is_empty() || saturated.iter().any(tripped),
            || "no point at 4x or more tripped admission control or shedding".to_owned(),
        ),
        chaos.each("resets", |n| n > 0.0),
    ];
    CHECKS.into_iter().zip(verdicts).collect()
}

/// What one leg's generators observed, merged.
#[derive(Debug, Default)]
struct LegOutcome {
    issued: u64,
    committed: u64,
    rejected: u64,
    failed: u64,
    /// Successful-commit latencies, milliseconds, sorted ascending.
    latencies_ms: Vec<f64>,
    /// The latest generator clock once its last transaction ended.
    elapsed: Duration,
}

impl LegOutcome {
    fn per_second(&self, count: u64) -> f64 {
        count as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// One leg on a fresh deployment seeded `seed`: a `NODES`-node cluster
/// over the virtual Redis row, its piped server with the protections under
/// test, and `threads` seated generators through one client that asks
/// `hook` what the network does — with a connection per generator then, as
/// each FaaS instance holds its own, so a reset fails only the request on
/// it — each paced toward `target_rps / threads`
/// (`target_rps <= 0` means closed-loop: no pacing) until `duration`, with
/// maintenance on a timer. Returns the generators' outcome, the checker's
/// verdict on their history, and the server's counters from the `Stats`
/// verb.
///
/// The client does not retry: an open-loop generator must not block inside
/// a rejected call (a dropped read is a dropped request, and the thread
/// stays on its send schedule), and the one retry that matters, the
/// commit's, is the generator's own.
fn leg(
    config: &OverloadConfig,
    seed: u64,
    hook: Option<Arc<dyn PhaseHook>>,
    (threads, duration, target_rps): (usize, Duration, f64),
) -> (LegOutcome, history::Verdict, WireStats) {
    let storage = virtual_backend(BackendKind::Redis, seed);
    let cluster = setup::cluster(storage, NODES, true, true);
    let server = AftServer::builder()
        .workers(WORKERS)
        .admission_limit(config.admission_limit)
        .queue_deadline(QUEUE_DEADLINE)
        .pipe(Arc::clone(&cluster));
    let retry = RetryConfig {
        max_attempts: 1,
        ..RetryConfig::default()
    };
    let mut client = AftClient::builder().retry(retry).rng_seed(seed);
    if let Some(hook) = hook {
        client = client.phase_hook(hook).pool_size(threads);
    }
    let history = History::new();
    let api = Recorder::wrap(client.pipe(&server), Arc::clone(&history), None);
    let interval = if target_rps > 0.0 {
        Duration::from_secs_f64(threads as f64 / target_rps)
    } else {
        Duration::ZERO
    };
    let legs = run_seated(threads, vec![maintenance(&cluster)], |t, seat| {
        // Paced threads start spread over one interval, so the load
        // arrives spread out, not in bursts of `threads`.
        let first = interval * t as u32 / threads as u32;
        generate(&*api, t, seat, first, interval, duration)
    });
    let mut merged = LegOutcome::default();
    for leg in legs {
        merged.issued += leg.issued;
        merged.committed += leg.committed;
        merged.rejected += leg.rejected;
        merged.failed += leg.failed;
        merged.latencies_ms.extend(leg.latencies_ms);
        merged.elapsed = merged.elapsed.max(leg.elapsed);
    }
    merged.latencies_ms.sort_by(f64::total_cmp);
    let stats = AftClient::builder().pipe(&server).server_stats();
    let verdict = settled_verdict(&cluster, &history.attempts());
    (merged, verdict, stats.expect("the Stats verb over a pipe"))
}

/// One generator thread: from `first`, a transaction every `interval` (or
/// back to back when it is zero) until `deadline`, all on `seat`'s clock.
/// Each transaction reads the thread's key over the wire, writes the next
/// value, reads it back, and commits.
fn generate(
    api: &dyn AftApi,
    t: usize,
    seat: &Seat,
    first: Duration,
    interval: Duration,
    deadline: Duration,
) -> LegOutcome {
    let mut leg = LegOutcome::default();
    let key = Key::new(format!("ovl/{t:02}"));
    let mut next_send = first;
    for i in 0u64.. {
        let now = seat.now();
        if now >= deadline {
            break;
        }
        if !interval.is_zero() {
            if next_send >= deadline {
                break;
            }
            if next_send > now {
                seat.sleep(next_send - now);
            }
            next_send += interval;
        }
        leg.issued += 1;
        let txn_started = seat.now();
        let txid = api.begin().expect("begin is local");
        // Wire read of this thread's previous write, then the write and its
        // read-back (§3.5), overloaded or not.
        let value = Value::from(format!("{t}:{i}").into_bytes());
        let read = api.get_versioned(&txid, &key).and_then(|_| {
            api.put(&txid, key.clone(), value.clone())
                .expect("put is buffered client-side");
            api.get_versioned(&txid, &key)
        });
        if let Err(e) = read {
            leg.rejected += u64::from(e.is_overloaded());
            leg.failed += u64::from(!e.is_overloaded());
            let _ = api.abort(&txid);
            continue;
        }
        // The read above was admitted and cost worker time; giving the
        // request up at the first commit rejection would turn that work
        // into waste. A failed commit consumes the transaction client-side,
        // so the retry is the paper's at-least-once retry of the *logical
        // request* (§3.3.1): a fresh transaction re-buffering the same
        // write, after a jittered backoff whose cap exceeds the queue's
        // drain time, so a retry does not wake to the queue that just
        // rejected it.
        let mut lcg = ((t as u64) << 32) ^ i ^ 0x9E37_79B9_7F4A_7C15;
        let mut backoff = Duration::from_micros(200);
        let mut txid = txid;
        for attempt in 1.. {
            match api.commit(&txid, &[]) {
                Ok(_) => {
                    leg.committed += 1;
                    let latency = seat.now() - txn_started;
                    leg.latencies_ms.push(latency.as_secs_f64() * 1_000.0);
                    break;
                }
                Err(e) if e.is_overloaded() && attempt < 16 => {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let spread = backoff.saturating_mul(3).as_nanos() as u64;
                    let jittered = 200_000 + (lcg >> 33) % spread.max(1);
                    backoff = Duration::from_nanos(jittered).min(Duration::from_millis(8));
                    seat.sleep(backoff);
                    txid = api.begin().expect("begin is local");
                    api.put(&txid, key.clone(), value.clone())
                        .expect("put is buffered client-side");
                }
                Err(e) => {
                    leg.rejected += u64::from(e.is_overloaded());
                    leg.failed += u64::from(!e.is_overloaded());
                    break;
                }
            }
        }
    }
    leg.elapsed = seat.now();
    leg
}

/// Runs the capacity phase, the paced sweep, and the chaos leg.
pub(crate) fn fig11_overload(config: &OverloadConfig) -> Report {
    // Capacity phase: closed loop, self-clocked below the admission limit,
    // so the measured rate is the deployment's sustainable throughput.
    let clients = config.capacity_clients;
    let (capacity, _, _) = leg(
        config,
        config.seed,
        None,
        (clients, config.capacity_duration, 0.0),
    );
    let capacity_rps = capacity.per_second(capacity.committed);
    let mut capacity_sheet = Sheet::new(
        "capacity",
        "fig11_overload — closed-loop capacity",
        &["phase"],
        &["clients", "committed", "capacity_rps"],
    );
    let row = vec![clients as f64, capacity.committed as f64, capacity_rps];
    capacity_sheet.push(vec!["capacity".to_owned()], row);

    // Paced sweep: a fresh deployment per point, offered load pinned to a
    // multiple of measured capacity.
    let mut points = Sheet::new(
        "points",
        "fig11_overload — goodput and tail latency past saturation",
        &["offered"],
        POINT_COLUMNS,
    );
    for (i, &multiplier) in config.multipliers.iter().enumerate() {
        let threads = ((config.base_threads as f64 * multiplier).ceil() as usize).max(1);
        let target_rps = capacity_rps * multiplier;
        let seed = config.seed ^ ((i as u64 + 1) << 12);
        let point = (threads, config.point_duration, target_rps);
        let (outcome, verdict, server) = leg(config, seed, None, point);
        let latencies = &outcome.latencies_ms;
        points.push(
            vec![format!("{multiplier:.0}x")],
            vec![
                multiplier,
                threads as f64,
                target_rps,
                outcome.per_second(outcome.issued),
                outcome.per_second(outcome.committed),
                outcome.committed as f64,
                outcome.rejected as f64,
                outcome.failed as f64,
                verdict.anomalies() as f64,
                verdict.lost_acked_writes as f64,
                percentile_ms(latencies, 0.50),
                percentile_ms(latencies, 0.99),
                percentile_ms(latencies, 0.999),
                server.overload_rejections as f64,
                server.shed_requests as f64,
                server.requests as f64,
            ],
        );
    }

    // Chaos leg: connection faults layered on top of 4× saturation. The
    // protection stack and the lost-ack machinery must both hold at once.
    let delay = Duration::from_millis(1);
    let schedule = Seeded::new(config.seed ^ 0x0C4A05, None).resets(RESET_RATE, DELAY_RATE, delay);
    let schedule = Shared::new(schedule);
    let threads = ((config.base_threads as f64 * 4.0).ceil() as usize).max(1);
    let point = (threads, config.point_duration, capacity_rps * 4.0);
    let hook = Some(schedule.clone() as Arc<dyn PhaseHook>);
    let (outcome, verdict, server) = leg(config, config.seed ^ 0xC4A0, hook, point);
    let delivered = |fault| schedule.count(|a| matches!(a, Answered::Deliver(_, f) if *f == fault));
    let mut chaos = Sheet::new(
        "chaos",
        "fig11_overload — the 4x point with connection faults",
        &["leg"],
        CHAOS_COLUMNS,
    );
    chaos.push(
        vec!["chaos 4x".to_owned()],
        vec![
            threads as f64,
            outcome.committed as f64,
            outcome.rejected as f64,
            outcome.failed as f64,
            verdict.anomalies() as f64,
            verdict.lost_acked_writes as f64,
            (delivered(NetFault::ResetBeforeSend) + delivered(NetFault::ResetAfterSend)) as f64,
            delivered(NetFault::DelayAck(delay)) as f64,
            server.overload_rejections as f64,
            server.shed_requests as f64,
            server.duplicate_commits as f64,
            server.requests as f64,
        ],
    );

    Report {
        experiment: "fig11_overload",
        sheets: vec![capacity_sheet, points, chaos],
        checks,
    }
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut config = args
        .env
        .sized(OverloadConfig::standard(), OverloadConfig::fast());
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig11_overload(&config);
    Ok(Outcome::report(config.seed, &config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};

    /// The tiny sweep, measured once for every test here.
    fn report() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| fig11_overload(&OverloadConfig::tiny()))
    }

    #[test]
    fn sweep_holds_goodput_and_invariants_past_saturation() {
        let report = report();
        assert_eq!(report.sheet("points").keys().count(), 2);
        assert_eq!(report.gate(), Ok(()));
        let points = report.sheet("points");
        assert!(points.value(&["4x"], "overload_rejections") > 0.0);
        assert_eq!(points.value(&["1x"], "overload_rejections"), 0.0);
    }

    #[test]
    fn check_names_carry_their_bounds() {
        assert!(CHECKS[5].contains(&format!("{P999_CAP_MS}")));
        assert!(CHECKS[6].contains(&format!("{GOODPUT_FLOOR}")));
    }

    #[test]
    fn json_document_has_the_documented_schema() {
        assert_round_trips(report());
    }

    #[test]
    fn gate_fails_on_each_violated_invariant() {
        let capacity: [(&str, Plant<'_>); 1] = [(CHECKS[0], &|sheet| {
            sheet.set(&["capacity"], "capacity_rps", 0.0)
        })];
        assert_plants(report(), "capacity", &capacity);
        let points: [(&str, Plant<'_>); 7] = [
            (CHECKS[1], &|sheet| sheet.set(&["4x"], "anomalies", 1.0)),
            (CHECKS[2], &|sheet| {
                sheet.set(&["1x"], "lost_acked_commits", 1.0)
            }),
            (CHECKS[3], &|sheet| sheet.set(&["4x"], "failed", 3.0)),
            (CHECKS[4], &|sheet| sheet.set(&["4x"], "multiplier", 2.0)),
            (CHECKS[5], &|sheet| {
                sheet.set(&["4x"], "p999_ms", P999_CAP_MS + 1.0)
            }),
            (CHECKS[6], &|sheet| sheet.set(&["4x"], "goodput_rps", 0.1)),
            (CHECKS[7], &|sheet| {
                sheet.set(&["4x"], "overload_rejections", 0.0);
                sheet.set(&["4x"], "shed_requests", 0.0);
            }),
        ];
        assert_plants(report(), "points", &points);
        let chaos: [(&str, Plant<'_>); 3] = [
            (CHECKS[1], &|sheet| {
                sheet.set(&["chaos 4x"], "anomalies", 1.0)
            }),
            (CHECKS[2], &|sheet| {
                sheet.set(&["chaos 4x"], "lost_acked_commits", 2.0)
            }),
            (CHECKS[8], &|sheet| sheet.set(&["chaos 4x"], "resets", 0.0)),
        ];
        assert_plants(report(), "chaos", &chaos);
    }
}
