//! `fig8_service`: the networked-service throughput sweep plus the
//! connection-chaos verification leg.
//!
//! The paper's Figure 8 drives a cluster with 40 closed-loop clients per
//! node — but in-process. This experiment asks the same question across a
//! *real service boundary*: N client threads share an aft-net SDK over
//! loopback TCP to a served cluster of `NODES` (3) nodes behind `WORKERS`
//! (8) reactor threads, through a client pool of `POOL_SIZE` (4)
//! connections, and measure requests per second and p50/p99 latency per
//! client count, on the wall clock. Then a **chaos leg** repeats the run
//! with seeded connection faults ([`Seeded::resets`]: resets before/after
//! send at `RESET_RATE`, delayed acks at `DELAY_RATE`) and verifies the two invariants the wire
//! protocol must add on top of the paper's, both graded by
//! [`aft_workload::history`]'s checker over every call the SDK made:
//!
//! * **zero read-atomicity anomalies** — fractured reads and
//!   read-your-writes violations stay impossible across the service
//!   boundary;
//! * **zero lost acknowledged commits** — after a quiet maintenance round
//!   every key serves its newest acknowledged write, even though acks were
//!   being dropped mid-flight (the §4.2 window, closed by the server's
//!   dedup ledger).
//!
//! The chaos leg runs in virtual time: its clients are seated at one
//! `Turns` table ([`run_virtual_loop`]) and speak the wire protocol over
//! in-memory pipes ([`aft_net::ServerBuilder::pipe`]) into a cluster that
//! timestamps from the seats ([`SeatClock`](aft_storage::latency::SeatClock))
//! and whose maintenance runs on a timer, so its counts are a function of
//! its seed. The socket suites in `aft-net` cover resets on real sockets.
//!
//! A third **connection-scale leg** opens hundreds to thousands of raw
//! loopback connections against one server and holds them resident while a
//! small active subset keeps pinging: the server's reactor threads must
//! own every socket (zero per-connection reader threads, checked via
//! `/proc/self/task`), the bytes the server holds per connection must stay
//! flat, and tail latency must not collapse with the full fleet connected. It runs on
//! the wall clock, as the client sweep does.
//!
//! The report's sheets are `points` (a row per client count), `chaos`,
//! `conn_scale` (a row per resident-connection count) and `server` (the
//! `Ping` and `Stats` verbs after the sweep's last point), in
//! `BENCH_service.json`; each title names its clock, and a verb that failed
//! leaves its cells empty. [`checks`] names each clause of the gate that
//! CI's `service-gate` job enforces.

use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use aft_cluster::{Cluster, ClusterConfig};
use aft_core::api::AftApi;
use aft_core::NetFault;
use aft_faas::{FaasPlatform, PlatformConfig, RetryPolicy};
use aft_net::frame::{read_frame, write_frame};
use aft_net::{AftClient, AftServer};
use aft_storage::io::RetryConfig;
use aft_storage::{BackendConfig, BackendKind, SharedStorage};
use aft_types::wire::{decode_response, encode_request, WireRequest, WireResponse};
use aft_workload::history::{Attempt, History, Recorder};
use aft_workload::sim::{Answered, Seeded, Shared};
use aft_workload::{run_closed_loop, run_virtual_loop, AftDriver, RunConfig, WorkloadConfig};

use crate::cli::{Args, Outcome};
use crate::report::{ensure, percentile_ms, Report, Sheet, Verdict};
use crate::setup::{self, maintenance, settled_verdict};

/// AFT nodes behind the server.
const NODES: usize = 3;
/// Server reactor threads; the chaos leg's piped server has as many worker
/// permits.
const WORKERS: usize = 8;
/// Client connection-pool size.
const POOL_SIZE: usize = 4;
/// Connection-reset rate of the chaos leg.
const RESET_RATE: f64 = 0.08;
/// Delayed-ack rate of the chaos leg.
const DELAY_RATE: f64 = 0.04;
/// A scale point's ping p99 above this is a latency collapse.
const CONN_P99_COLLAPSE_MS: f64 = 250.0;
/// Bytes the server holds per open connection above this is per-connection
/// memory growth.
const CONN_HELD_CAP_BYTES: f64 = 64.0 * 1024.0;

/// Configuration of the service sweep.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Concurrent client threads per point of the sweep.
    pub client_counts: Vec<usize>,
    /// Requests each client issues per point.
    pub requests_per_client: usize,
    /// Clients in the chaos leg, seated in virtual time.
    pub chaos_clients: usize,
    /// Requests per client in the chaos leg.
    pub chaos_requests: usize,
    /// Concurrent resident connections per point of the scale leg.
    pub conn_counts: Vec<usize>,
    /// Connections that keep pinging while the rest of the fleet idles.
    pub conn_active: usize,
    /// Pings each active connection issues during the measured phase.
    pub conn_pings: usize,
    /// Base seed.
    pub seed: u64,
}

impl ServiceConfig {
    /// The full sweep: 1→16 clients, 150 requests each.
    pub fn standard() -> Self {
        ServiceConfig {
            client_counts: vec![1, 2, 4, 8, 16],
            requests_per_client: 150,
            chaos_clients: 8,
            chaos_requests: 60,
            conn_counts: vec![256, 1024, 2048],
            conn_active: 32,
            conn_pings: 40,
            seed: 0xF8_5E7,
        }
    }

    /// The CI sweep: same invariants, sub-minute runtime. Still climbs to
    /// 512 resident connections so the scale invariants run on every push.
    pub fn fast() -> Self {
        ServiceConfig {
            client_counts: vec![1, 4, 8],
            requests_per_client: 40,
            chaos_requests: 25,
            conn_counts: vec![256, 512],
            conn_active: 16,
            conn_pings: 20,
            ..ServiceConfig::standard()
        }
    }

    /// The unit tests' and the trajectory's size.
    pub fn tiny() -> Self {
        ServiceConfig {
            client_counts: vec![1, 4],
            requests_per_client: 8,
            chaos_clients: 4,
            chaos_requests: 12,
            conn_counts: vec![48],
            conn_active: 8,
            conn_pings: 5,
            ..ServiceConfig::fast()
        }
    }
}

/// The checks' names, in order.
const CHECKS: [&str; 10] = [
    "0 read-atomicity anomalies",
    "0 lost acks",
    "0 failures without faults",
    "Ping answers",
    "Stats answers",
    "resets in the lost-ack window > 0",
    "0 reader threads",
    "the reactors own every connection",
    "ping p99 <= 250 ms",
    "held bytes per connection <= 65536 B",
];

/// The `points` sheet's columns, a row per client count: requests per
/// second, the request latency quantiles, the requests completed and those
/// that exhausted their retries, and the checker's read anomalies.
const POINT_COLUMNS: &[&str] = &[
    "rps",
    "p50_ms",
    "p99_ms",
    "completed",
    "failed",
    "anomalies",
];

/// The `chaos` sheet's columns: requests completed and failed under
/// injection, the checker's anomalies, the resets delivered before the send
/// and in the lost-ack window, the late acks, the commit acks the SDK
/// returned (preload included), the acked commits the checker finds lost
/// after a quiet round, the acks served from the server's dedup ledger, the
/// SDK's transport retries, and the requests the server ran (the closing
/// `Stats` call included).
const CHAOS_COLUMNS: &[&str] = &[
    "completed",
    "failed",
    "anomalies",
    "resets_before_send",
    "resets_after_send",
    "delayed_acks",
    "acked_commits",
    "lost_acked_commits",
    "duplicate_acks",
    "transport_retries",
    "requests",
];

/// The `conn_scale` sheet's columns, a row per resident-connection count:
/// the ping latency quantiles and pings measured with the fleet resident;
/// the per-connection reader threads alive (the reactors must own every
/// socket), the process's threads and their change since server-up (zero
/// standalone, noisy under parallel tests); the bytes the server holds for
/// its open connections (`EventSnapshot::conn_bytes`: each one's slab slot,
/// its session's buffers and the pooled frame buffers) in all and per
/// connection; and the reactors' frames decoded, connections owned and
/// pooled frame buffers.
const CONN_COLUMNS: &[&str] = &[
    "p50_ms",
    "p99_ms",
    "pings",
    "reader_threads",
    "threads_total",
    "threads_delta",
    "held_bytes",
    "held_per_conn_bytes",
    "frames_read",
    "conns_open",
    "pooled_buffers",
];

/// The `server` sheet's columns: the `Ping` round trip, then the `Stats`
/// verb's counters.
const SERVER_COLUMNS: &[&str] = &[
    "ping_ms",
    "connections_accepted",
    "requests",
    "commits",
    "duplicate_commits",
    "errors",
];

/// fig8's checks: no anomaly in any leg and no lost ack; no failure where no
/// fault is injected; answers to `Ping` and `Stats`; a chaos leg that
/// resets in the lost-ack window; and at every scale point, no reader
/// thread, every connection on the reactors, ping p99 within
/// `CONN_P99_COLLAPSE_MS` and the bytes the server holds per connection
/// within `CONN_HELD_CAP_BYTES`.
pub fn checks(report: &Report) -> Vec<(&'static str, Verdict)> {
    let (points, chaos) = (report.sheet("points"), report.sheet("chaos"));
    let (conns, server) = (report.sheet("conn_scale"), report.sheet("server"));
    let zero = |n| n == 0.0;
    let owned = conns.keys().try_for_each(|row| {
        let open = conns.value(row, "conns_open");
        ensure(row[0].parse() == Ok(open), || {
            format!("the reactors own {open} of {} connections", row[0])
        })
    });
    let verdicts = [
        points
            .each("anomalies", zero)
            .and_then(|()| chaos.each("anomalies", zero)),
        chaos.each("lost_acked_commits", zero),
        points.each("failed", zero),
        server.each("ping_ms", |ms| !ms.is_nan()),
        server.each("requests", |n| !n.is_nan()),
        chaos.each("resets_after_send", |n| n > 0.0),
        conns.each("reader_threads", zero),
        owned,
        conns.each("p99_ms", |ms| ms <= CONN_P99_COLLAPSE_MS),
        conns.each("held_per_conn_bytes", |b| b <= CONN_HELD_CAP_BYTES),
    ];
    CHECKS.into_iter().zip(verdicts).collect()
}

/// Zero simulated latency: the experiment measures the service layer
/// itself, not the storage sims.
fn memory_store() -> SharedStorage {
    aft_storage::make_backend(BackendConfig::test(BackendKind::Memory))
}

/// The kernel's view of this process's thread count (`Threads:` in
/// `/proc/self/status`).
fn proc_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|line| line.starts_with("Threads:"))
                .and_then(|line| line.split_whitespace().nth(1))
                .and_then(|n| n.parse().ok())
        })
        .unwrap_or(0)
}

/// Threads named `aft-net-rd*` — the thread-per-connection model's reader
/// threads. The reactors spawn none, so with a resident fleet this count
/// proves the reactors own every socket (robust against unrelated threads
/// created by concurrently running tests).
fn reader_thread_count() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end().starts_with("aft-net-rd"))
        })
        .count() as u64
}

/// Connects to `addr`, retrying briefly: a fleet of thousands of connects
/// can outrun the accept backlog for a moment.
fn connect_patiently(addr: SocketAddr) -> TcpStream {
    let mut last_err = None;
    for _ in 0..200 {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                stream.set_nodelay(true).ok();
                return stream;
            }
            Err(e) => {
                last_err = Some(e);
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
    panic!("connect to {addr}: {last_err:?}");
}

/// One `Ping` round trip over a raw framed socket.
fn raw_ping(stream: &mut TcpStream) -> io::Result<Duration> {
    let started = Instant::now();
    write_frame(stream, &encode_request(1, &WireRequest::Ping))?;
    let Some(frame) = read_frame(stream)? else {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    };
    match decode_response(&frame) {
        Ok((_, WireResponse::Pong)) => Ok(started.elapsed()),
        Ok((_, other)) => Err(io::Error::other(format!("expected Pong, got {other:?}"))),
        Err(e) => Err(io::Error::other(format!("undecodable response: {e}"))),
    }
}

/// One point of the connection-scale leg: a fresh server, `connections`
/// raw sockets opened and proven live (one ping each), threads sampled with
/// the fleet resident, then an active subset pings for the latency
/// distribution while the rest idle, and the bytes the server holds for the
/// fleet are read. Returns the point's `conn_scale` row.
fn run_conn_point(config: &ServiceConfig, connections: usize) -> Vec<f64> {
    // One node and no background maintenance: `Ping` never reaches
    // storage, so the point measures the I/O core itself.
    let cluster =
        Cluster::new(ClusterConfig::test(1), memory_store()).expect("cluster construction");
    let server = AftServer::builder()
        .workers(WORKERS)
        .slab_capacity(connections)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .expect("serve on loopback");
    let addr = server.local_addr();

    let threads_before = proc_threads();

    // Open the fleet; one ping per connection proves the loop registered
    // and serves it before anything is counted.
    let mut socks: Vec<TcpStream> = (0..connections).map(|_| connect_patiently(addr)).collect();
    for sock in &mut socks {
        raw_ping(sock).expect("registration ping");
    }

    let reader_threads = reader_thread_count();
    let threads_total = proc_threads();
    let threads_delta = threads_total as i64 - threads_before as i64;

    // Active subset: keeps pinging with the full fleet resident, a few
    // driver threads multiplexing the subset.
    let active = config.conn_active.clamp(1, connections);
    let mut active_socks: Vec<TcpStream> = socks.drain(..active).collect();
    let drivers = active.min(4);
    let chunk = active.div_ceil(drivers);
    let collected = std::sync::Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for batch in active_socks.chunks_mut(chunk) {
            let collected = &collected;
            scope.spawn(move || {
                let mut local = Vec::with_capacity(config.conn_pings * batch.len());
                for _ in 0..config.conn_pings {
                    for sock in batch.iter_mut() {
                        let rtt = raw_ping(sock).expect("ping with the fleet resident");
                        local.push(rtt.as_secs_f64() * 1_000.0);
                    }
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut latencies = collected.into_inner().unwrap();
    latencies.sort_by(f64::total_cmp);

    let snapshot = server
        .event_snapshot()
        .expect("the scale leg runs the event-driven model");
    let point = vec![
        percentile_ms(&latencies, 0.50),
        percentile_ms(&latencies, 0.99),
        latencies.len() as f64,
        reader_threads as f64,
        threads_total as f64,
        threads_delta as f64,
        snapshot.conn_bytes as f64,
        snapshot.conn_bytes as f64 / connections.max(1) as f64,
        snapshot.frames_read as f64,
        snapshot.conns_open as f64,
        snapshot.pooled_buffers as f64,
    ];

    drop(active_socks);
    drop(socks);
    server.shutdown();
    cluster.shutdown();
    point
}

fn service_workload() -> WorkloadConfig {
    WorkloadConfig::standard()
        .with_keys(200)
        .with_value_size(256)
}

/// A driver over `client` whose every call `history` records.
fn driver_for(client: &Arc<AftClient>, history: &Arc<History>) -> AftDriver {
    let client = Arc::clone(client) as Arc<dyn AftApi>;
    AftDriver::from_api(
        Recorder::wrap(client, Arc::clone(history), None),
        FaasPlatform::new(PlatformConfig::test()),
        RetryPolicy::with_attempts(8),
    )
}

/// A fresh deployment for one point of the client sweep: `NODES` nodes over
/// memory, maintenance in the background, served on loopback by `WORKERS`
/// reactors, and a client of `POOL_SIZE` connections whose UUIDs come from
/// `seed`.
fn served(seed: u64) -> (Arc<Cluster>, AftServer, Arc<AftClient>) {
    let cluster =
        Cluster::new(ClusterConfig::test(NODES), memory_store()).expect("cluster construction");
    cluster.start_background();
    let server = AftServer::builder()
        .workers(WORKERS)
        .serve(Arc::clone(&cluster), "127.0.0.1:0")
        .expect("serve on loopback");
    let client = AftClient::builder()
        .pool_size(POOL_SIZE)
        .rng_seed(seed)
        .connect(server.local_addr())
        .expect("connect on loopback");
    (cluster, server, client)
}

/// Runs the sweep, the chaos leg and the connection-scale leg.
pub fn fig8_service(config: &ServiceConfig) -> Report {
    // Clean sweep: a fresh deployment per point, so points are independent.
    let mut points = Sheet::new(
        "points",
        "fig8_service — loopback service throughput, 3-node cluster behind aft-net (wall clock)",
        &["clients"],
        POINT_COLUMNS,
    );
    let mut verbs = vec![f64::NAN; SERVER_COLUMNS.len()];
    for (i, &clients) in config.client_counts.iter().enumerate() {
        let (cluster, _server, client) = served(config.seed + i as u64);
        let history = History::new();
        let driver = driver_for(&client, &history);
        let result = run_closed_loop(
            &driver,
            &RunConfig::new(service_workload())
                .with_clients(clients)
                .with_requests(config.requests_per_client)
                .with_seed(config.seed ^ (clients as u64) << 8),
        )
        .expect("closed-loop run");
        let anomalies = settled_verdict(&cluster, &history.attempts()).anomalies();
        points.push(
            vec![clients.to_string()],
            vec![
                result.throughput_tps(),
                result.latency.median_ms(),
                result.latency.p99_ms(),
                result.completed as f64,
                result.failed as f64,
                anomalies as f64,
            ],
        );
        // Operability verbs, checked on the last (largest) point.
        if i + 1 == config.client_counts.len() {
            if let Ok(rtt) = client.ping() {
                verbs[0] = rtt.as_secs_f64() * 1_000.0;
            }
            if let Ok(s) = client.server_stats() {
                let counters = [
                    s.connections_accepted,
                    s.requests,
                    s.commits,
                    s.duplicate_commits,
                    s.errors,
                ];
                verbs[1..].copy_from_slice(&counters.map(|n| n as f64));
            }
        }
    }
    let mut server = Sheet::new(
        "server",
        "fig8_service — Ping and Stats after the sweep's last point (wall clock)",
        &["clients"],
        SERVER_COLUMNS,
    );
    let last = config.client_counts.last().copied().unwrap_or(0);
    server.push(vec![last.to_string()], verbs);

    let chaos = chaos_leg(config);

    // Connection-scale leg: how many resident sockets the reactors own,
    // a fresh deployment per point so points are independent.
    let mut conn_scale = Sheet::new(
        "conn_scale",
        "fig8_service — resident connections on the server's reactor threads (wall clock)",
        &["connections"],
        CONN_COLUMNS,
    );
    for &connections in &config.conn_counts {
        let row = run_conn_point(config, connections);
        conn_scale.push(vec![connections.to_string()], row);
    }

    Report {
        experiment: "fig8_service",
        sheets: vec![points, chaos, conn_scale, server],
        checks,
    }
}

/// The chaos leg, in virtual time: `chaos_clients` seated clients share one
/// SDK client over pipes into a piped server of `WORKERS` permits, the
/// network faults drawn from the leg's seeded schedule, maintenance on a
/// timer; then the checker grades every call the SDK made and what the
/// cluster serves. Returns the `chaos` sheet.
pub fn chaos_leg(config: &ServiceConfig) -> Sheet {
    let delay = Duration::from_millis(1);
    let schedule = Seeded::new(config.seed ^ 0xC4A05, None).resets(RESET_RATE, DELAY_RATE, delay);
    let schedule = Shared::new(schedule);
    let cluster = setup::cluster(memory_store(), NODES, true, true);
    let server = AftServer::builder()
        .workers(WORKERS)
        .pipe(Arc::clone(&cluster));
    let client = AftClient::builder()
        .pool_size(POOL_SIZE)
        .retry(RetryConfig {
            max_attempts: 6,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(2),
        })
        .rng_seed(config.seed ^ 0xC4A1)
        .phase_hook(schedule.clone())
        .pipe(&server);
    let history = History::new();
    let driver = driver_for(&client, &history);
    let run = RunConfig::new(service_workload())
        .with_clients(config.chaos_clients)
        .with_requests(config.chaos_requests)
        .with_seed(config.seed ^ 0xC4A2);
    let result = run_virtual_loop(&driver, &run, vec![maintenance(&cluster)])
        .expect("chaos closed-loop run");

    let delivered = |fault| schedule.count(|a| matches!(a, Answered::Deliver(_, f) if *f == fault));
    let client_stats = client.stats();
    let server_stats = AftClient::builder().pipe(&server).server_stats();
    // The preload's commits are in the history too: they are acked as well.
    let attempts = history.attempts();
    let verdict = settled_verdict(&cluster, &attempts);
    let mut chaos = Sheet::new(
        "chaos",
        "fig8_service — connection chaos over pipes (virtual clock)",
        &["leg"],
        CHAOS_COLUMNS,
    );
    let row = [
        result.completed,
        result.failed,
        verdict.anomalies(),
        delivered(NetFault::ResetBeforeSend),
        delivered(NetFault::ResetAfterSend),
        delivered(NetFault::DelayAck(delay)),
        attempts.iter().filter_map(Attempt::acked).count() as u64,
        verdict.lost_acked_writes,
        client_stats.duplicate_acks,
        client_stats.transport_retries,
        server_stats.expect("the Stats verb over a pipe").requests,
    ];
    chaos.push(vec!["chaos".to_owned()], row.map(|n| n as f64).to_vec());
    chaos
}

/// The registry's entry point.
pub(crate) fn run(args: &Args) -> Result<Outcome, String> {
    let mut config = args
        .env
        .sized(ServiceConfig::standard(), ServiceConfig::fast());
    config.seed = args.seed.unwrap_or(config.seed);
    let report = fig8_service(&config);
    Ok(Outcome::report(config.seed, &config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{assert_plants, assert_round_trips, Plant};

    /// The tiny sweep, measured once for every test here.
    fn report() -> &'static Report {
        static REPORT: std::sync::OnceLock<Report> = std::sync::OnceLock::new();
        REPORT.get_or_init(|| fig8_service(&ServiceConfig::tiny()))
    }

    #[test]
    fn sweep_runs_clean_over_real_sockets() {
        let report = report();
        assert_eq!(report.gate(), Ok(()));
        let points = report.sheet("points");
        for (row, clients) in [("1", 1.0), ("4", 4.0)] {
            assert!(points.value(&[row], "rps") > 0.0);
            let completed = points.value(&[row], "completed");
            assert_eq!(completed, clients * 8.0, "every request completed");
        }
        assert_eq!(points.keys().count(), 2);
        assert!(report.sheet("server").value(&["4"], "commits") > 0.0);
        let scale = report.sheet("conn_scale");
        assert_eq!(scale.keys().collect::<Vec<_>>(), [["48"]]);
        assert!(scale.value(&["48"], "pings") > 0.0);
        assert!(scale.value(&["48"], "p99_ms") > 0.0);
    }

    #[test]
    fn the_server_counts_what_it_holds_for_each_connection() {
        // Each resident connection holds at least its slab slot, and far
        // less than the bound.
        let held = report()
            .sheet("conn_scale")
            .value(&["48"], "held_per_conn_bytes");
        assert!(held > 0.0 && held <= CONN_HELD_CAP_BYTES, "{held} B");
    }

    #[test]
    fn the_chaos_sheet_is_a_function_of_its_seed() {
        assert_eq!(*report().sheet("chaos"), chaos_leg(&ServiceConfig::tiny()));
    }

    #[test]
    fn check_names_carry_their_bounds() {
        assert!(CHECKS[8].contains(&format!("{CONN_P99_COLLAPSE_MS}")));
        assert!(CHECKS[9].contains(&format!("{CONN_HELD_CAP_BYTES}")));
    }

    #[test]
    fn json_document_has_the_documented_schema() {
        assert_round_trips(report());
    }

    #[test]
    fn a_planted_violation_fails_exactly_its_check() {
        let points: [(&str, Plant<'_>); 2] = [
            (CHECKS[0], &|sheet| sheet.set(&["4"], "anomalies", 1.0)),
            (CHECKS[2], &|sheet| sheet.set(&["1"], "failed", 2.0)),
        ];
        assert_plants(report(), "points", &points);
        let chaos: [(&str, Plant<'_>); 3] = [
            (CHECKS[0], &|sheet| sheet.set(&["chaos"], "anomalies", 1.0)),
            (CHECKS[1], &|sheet| {
                sheet.set(&["chaos"], "lost_acked_commits", 1.0)
            }),
            (CHECKS[5], &|sheet| {
                sheet.set(&["chaos"], "resets_after_send", 0.0)
            }),
        ];
        assert_plants(report(), "chaos", &chaos);
        // A verb that failed leaves its cells empty.
        let server: [(&str, Plant<'_>); 2] = [
            (CHECKS[3], &|sheet| sheet.set(&["4"], "ping_ms", f64::NAN)),
            (CHECKS[4], &|sheet| {
                for column in &SERVER_COLUMNS[1..] {
                    sheet.set(&["4"], column, f64::NAN);
                }
            }),
        ];
        assert_plants(report(), "server", &server);
        let conns: [(&str, Plant<'_>); 4] = [
            (CHECKS[6], &|sheet| {
                sheet.set(&["48"], "reader_threads", 3.0)
            }),
            (CHECKS[7], &|sheet| sheet.set(&["48"], "conns_open", 47.0)),
            (CHECKS[8], &|sheet| {
                sheet.set(&["48"], "p99_ms", CONN_P99_COLLAPSE_MS + 1.0)
            }),
            (CHECKS[9], &|sheet| {
                sheet.set(&["48"], "held_per_conn_bytes", CONN_HELD_CAP_BYTES + 1.0)
            }),
        ];
        assert_plants(report(), "conn_scale", &conns);
    }
}
