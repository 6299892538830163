//! One invocation over one workload: the untraced run that yields the
//! end-to-end metrics, or the traced pass that yields the per-layer ones.

use crate::analysis::{self, Attribution};
use crate::layers::{self, Probes, WireReplay};
use crate::metrics::{self, median, Values};
use crate::run::{self, Pass, PassOptions, Timing};
use crate::spec::{Dominant, Spec, CLIENTS};
use crate::trace::{self, Op};
use crate::{host, Args};
use aft_storage::OpKind;

/// Set-ups per untraced run; `setup_s` is their median. The measured phase
/// runs on the last; the others run before it, each in a process of its own.
const SETUPS: usize = 3;
/// Share of the untraced count the traced pass runs.
const TRACED_SHARE: f64 = 0.25;
/// A run with more than this share of host CPU time stolen, or more
/// involuntary context switches per second than this, is labelled
/// `perturbed`.
const STEAL_LIMIT: f64 = 0.02;
const SWITCH_LIMIT: f64 = 20_000.0;
/// Below this scale (the smoke mode) layer dominance is printed, not
/// enforced: a few hundred transactions do not fill the caches the
/// workloads are built around.
const DOMINANCE_SCALE: f64 = 0.5;

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

fn health(pass: &Pass) -> (f64, f64) {
    let switches =
        pass.after.nonvoluntary_switches as f64 - pass.before.nonvoluntary_switches as f64;
    let steal = pass.after.steal_ticks.0 as f64 - pass.before.steal_ticks.0 as f64;
    let total = pass.after.steal_ticks.1 as f64 - pass.before.steal_ticks.1 as f64;
    (ratio(switches.max(0.0), pass.wall_s), ratio(steal, total))
}

fn print_header(spec: &Spec, args: &Args, count: u64, warmup: u64) {
    println!(
        "# aft-benchmark workload={} seed={} seconds={} trace={} transactions={} warmup={} \
         clients={} (closed loop) windows={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        count,
        warmup,
        CLIENTS,
        count / crate::spec::WINDOW
    );
    println!(
        "# host cores={} kernel={} commit={}",
        host::cores(),
        host::kernel(),
        host::commit()
    );
}

fn print_values(values: &Values, traced: bool) {
    for (name, unit) in metrics::catalogue(traced) {
        if let Some(value) = values.get(name) {
            println!("{name} {value} {unit}");
        }
    }
}

fn print_health(pass: &Pass) {
    let (switches, steal) = health(pass);
    let label = if steal > STEAL_LIMIT || switches > SWITCH_LIMIT {
        " perturbed"
    } else {
        ""
    };
    println!("# run health: nonvoluntary_ctxsw_per_s={switches:.0} steal_share={steal:.4}{label}");
}

pub fn run_one(spec: &Spec, args: &Args) -> Result<(), String> {
    if args.trace {
        traced(spec, args)
    } else {
        untraced(spec, args)
    }
}

fn untraced(spec: &Spec, args: &Args) -> Result<(), String> {
    let count = spec.count(args.seconds, args.scale);
    let warmup = Spec::warmup(count);
    print_header(spec, args, count, warmup);
    let mut opts = PassOptions {
        seed: args.seed,
        count: 0,
        warmup,
        num_keys: spec.keys(args.scale),
        traced: false,
        in_process: false,
    };
    if args.setup_only {
        let (pass, dep) = run::run(spec, opts)?;
        dep.shutdown();
        println!("setup_s {}", pass.setup_s);
        return Ok(());
    }
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 1..SETUPS {
        setups.push(crate::modes::setup_once(
            spec.name,
            args.seed,
            args.seconds,
            args.scale,
        )?);
    }
    opts.count = count;
    let (pass, dep) = run::run(spec, opts)?;
    dep.shutdown();
    setups.push(pass.setup_s);

    let committed = pass.committed as f64;
    let storage = pass.after.storage.delta_since(&pass.before.storage);
    let mut values = Values::default();
    values.set("peak_rss_mb", pass.peak_rss_mib);
    values.set(
        "storage_ops_per_txn",
        ratio(storage.total_calls() as f64, committed),
    );
    values.set(
        "storage_write_amp",
        ratio(
            storage.bytes_written as f64,
            committed * spec.user_bytes_per_txn() as f64,
        ),
    );
    values.set("committed_share", ratio(committed, pass.attempted as f64));
    values.set(
        "anomaly_free_share",
        ratio(committed - pass.flagged as f64, committed),
    );
    values.set("setup_s", median(&setups));

    print_values(&values, false);
    let timing = print_timing(&pass);
    // Comments here: the result carries these four only in the traced
    // invocation's per-layer list.
    println!("# txn_per_s {} 1/s", timing.txn_per_s);
    println!("# txn_p50_ms {} ms", timing.p50_ms);
    println!("# txn_p99_ms {} ms", timing.p99_ms);
    println!("# cpu_ms_per_txn {} ms", timing.cpu_ms_per_txn);
    println!("# setup_s is the median of {SETUPS} set-ups: {setups:?}");
    print_health(&pass);
    let correct = report_audit(&pass) && pass.failed == 0 && pass.flagged == 0;
    println!(
        "{}",
        metrics::result_line(correct, pass.attempted, pass.failed, false, &values)
    );
    Ok(())
}

/// The timing of a pass over its quiet windows; prints what it was taken
/// over, every window's rate and the whole-phase figures beside it.
fn print_timing(pass: &Pass) -> Timing {
    let timing = pass.timing();
    println!(
        "# timing is over the {} fastest of {} windows of {} transactions; txn_p99_ms is over {} samples",
        timing.quiet_windows,
        pass.windows.len(),
        crate::spec::WINDOW,
        timing.samples
    );
    let rates: Vec<String> = pass
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.rate()))
        .collect();
    println!("# window txn/s: {}", rates.join(" "));
    let committed = pass.committed as f64;
    println!(
        "# whole phase: {:.0} txn/s, {:.4} CPU ms per transaction",
        ratio(committed, pass.wall_s),
        ratio((pass.after.cpu_s - pass.before.cpu_s) * 1e3, committed)
    );
    timing
}

fn report_audit(pass: &Pass) -> bool {
    match &pass.audit {
        Ok(keys) => {
            println!("# audit passed: {keys} keys read back");
            true
        }
        Err(e) => {
            println!("# audit FAILED: {e}");
            false
        }
    }
}

/// Self times of the layers as shares of client time (measured wall time
/// times clients), and the remainder.
struct Shares {
    faas: f64,
    types: f64,
    net: f64,
    core: f64,
    cluster: f64,
    storage: f64,
    unattributed: f64,
}

impl Shares {
    fn dominance(&self, spec: &Spec) -> Result<(), String> {
        let boundary = self.net + self.types + self.unattributed;
        if !spec.service && self.net + self.types != 0.0 {
            return Err(format!(
                "aft-net or aft-types time on in-process {}",
                spec.name
            ));
        }
        let others = [self.faas, self.cluster, self.storage, self.unattributed];
        match spec.dominant {
            Dominant::Boundary if boundary < 0.6 => Err(format!(
                "aft-net + aft-types + unattributed is {boundary:.2} of client time, below 0.6"
            )),
            Dominant::Core if others.iter().any(|other| *other >= self.core) => Err(format!(
                "aft-core self time ({:.2}) is not the largest share",
                self.core
            )),
            Dominant::Storage if self.storage < 0.6 => Err(format!(
                "aft-storage.backend.busy_share is {:.2}, below 0.6",
                self.storage
            )),
            _ => Ok(()),
        }
    }
}

fn traced(spec: &Spec, args: &Args) -> Result<(), String> {
    let full = spec.count(args.seconds, args.scale);
    let count = spec.count(args.seconds, args.scale * TRACED_SHARE);
    // Warm up as long as the untraced run does: the slow start it covers is
    // a matter of time, not of the measured count.
    let warmup = Spec::warmup(full);
    print_header(spec, args, count, warmup);
    let mut opts = PassOptions {
        seed: args.seed,
        count,
        warmup,
        num_keys: spec.keys(args.scale),
        traced: false,
        in_process: false,
    };
    let (plain, dep) = run::run(spec, opts)?;
    dep.shutdown();

    opts.traced = true;
    let (pass, dep) = run::run(spec, opts)?;
    let mut spans = trace::drain();
    let mut attribution = analysis::attribute(&mut spans);
    let plans = layers::sample_plans(spec, args.seed, opts.num_keys);
    let probes = layers::probe(spec, &dep, &plans);
    let nodes = dep.cluster.active_nodes();
    let records_end: usize = nodes.iter().map(|n| n.metadata().len()).sum();
    let indexed_keys_end: usize = nodes.iter().map(|n| n.metadata().indexed_keys()).sum();
    let cache_bytes_end: usize = nodes.iter().map(|n| n.data_cache().bytes()).sum();
    drop(nodes);
    dep.shutdown();
    match analysis::write_jsonl(spec.name, &spans) {
        Ok(path) => println!("# {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("# spans not written: {e}"),
    }
    drop(spans);

    // A service workload's aft-core verbs are timed on an in-process twin:
    // same seed, same cluster shape, no aft-net.
    let mut twin = if spec.service {
        opts.in_process = true;
        let (_, dep) = run::run(spec, opts)?;
        dep.shutdown();
        Some(analysis::attribute(&mut trace::drain()))
    } else {
        None
    };
    let wire = if spec.service {
        layers::replay_wire(spec, &plans)
    } else {
        WireReplay::default()
    };
    let (record_encode_ns, record_decode_ns) = layers::record_codec(&plans);

    let mut values = Values::default();
    let shares = layer_values(
        &mut values,
        &pass,
        &mut attribution,
        twin.as_mut(),
        &wire,
        &probes,
    );
    values.set("aft-types.codec.record_encode_ns", record_encode_ns);
    values.set("aft-types.codec.record_decode_ns", record_decode_ns);
    values.set("aft-core.metadata.records_end", records_end as f64);
    values.set(
        "aft-core.metadata.indexed_keys_end",
        indexed_keys_end as f64,
    );
    values.set("aft-core.data_cache.bytes_end", cache_bytes_end as f64);
    values.set(
        "harness.plan_hash",
        (pass.plan_hash & ((1 << 48) - 1)) as f64,
    );

    let plain_timing = print_timing(&plain);
    values.set("txn_per_s", plain_timing.txn_per_s);
    values.set("txn_p50_ms", plain_timing.p50_ms);
    values.set("txn_p99_ms", plain_timing.p99_ms);
    values.set("cpu_ms_per_txn", plain_timing.cpu_ms_per_txn);
    let traced_rate = pass.timing().txn_per_s;
    values.set(
        "harness.trace_overhead_share",
        ratio(plain_timing.txn_per_s - traced_rate, plain_timing.txn_per_s),
    );
    print_values(&values, true);
    println!(
        "# shares of client time: aft-faas {:.3} aft-types {:.3} aft-net {:.3} aft-core {:.3} \
         aft-cluster {:.3} aft-storage {:.3} unattributed {:.3}",
        shares.faas,
        shares.types,
        shares.net,
        shares.core,
        shares.cluster,
        shares.storage,
        shares.unattributed
    );
    println!(
        "# untraced {:.0} txn/s, traced {:.0} txn/s at {count} transactions; {} backend calls matched no caller",
        plain_timing.txn_per_s,
        traced_rate,
        attribution.orphan_storage
    );
    print_health(&pass);
    let mut correct = report_audit(&pass) && report_audit(&plain);
    correct &= pass.failed == 0 && pass.flagged == 0 && plain.failed == 0 && plain.flagged == 0;
    match shares.dominance(spec) {
        Ok(()) => println!("# layer dominance holds"),
        Err(e) if args.scale < DOMINANCE_SCALE => {
            println!("# layer dominance (not enforced at this scale): {e}")
        }
        Err(e) => {
            println!("# layer dominance FAILED: {e}");
            correct = false;
        }
    }
    println!(
        "{}",
        metrics::result_line(correct, pass.attempted, pass.failed, true, &values)
    );
    Ok(())
}

/// Fills in every per-layer metric that comes from the traced pass's spans
/// and counters.
fn layer_values(
    values: &mut Values,
    pass: &Pass,
    attribution: &mut Attribution,
    mut twin: Option<&mut Attribution>,
    wire: &WireReplay,
    probes: &Probes,
) -> Shares {
    let txns = pass.committed as f64;
    let client_ns = pass.wall_s * 1e9 * CLIENTS as f64;
    let per_txn_us = |ns: f64| ratio(ns, txns) / 1e3;

    // aft-types and aft-net: direct costs on the message mix, the client's
    // view of each verb, and the server's counters.
    values.set("aft-types.wire.encode_request_ns", wire.encode_request_ns);
    values.set("aft-types.wire.decode_request_ns", wire.decode_request_ns);
    values.set("aft-types.wire.encode_response_ns", wire.encode_response_ns);
    values.set("aft-types.wire.decode_response_ns", wire.decode_response_ns);
    values.set("aft-types.wire.allocs_per_msg", wire.allocs_per_msg);
    values.set("aft-types.wire.bytes_per_txn", wire.bytes_per_txn);
    values.set("aft-net.frame.encode_ns", wire.frame_encode_ns);
    values.set("aft-net.frame.decode_ns", wire.frame_decode_ns);
    values.set("aft-net.ping_p50_us", probes.ping_p50_us);
    let service = twin.is_some();
    let verbs = [Op::Get, Op::GetAll, Op::Commit];
    let client_p50: Vec<f64> = verbs
        .iter()
        .map(|op| {
            if service {
                attribution.p(*op, 0.5) / 1e3
            } else {
                0.0
            }
        })
        .collect();
    values.set("aft-net.client.get_p50_us", client_p50[0]);
    values.set("aft-net.client.get_all_p50_us", client_p50[1]);
    values.set("aft-net.client.commit_p50_us", client_p50[2]);
    values.set(
        "aft-net.client.commit_p99_us",
        if service {
            attribution.p(Op::Commit, 0.99) / 1e3
        } else {
            0.0
        },
    );
    let mut boundary = 0.0;
    if let Some(twin) = twin.as_deref_mut() {
        // The service boundary's cost per request: what the client saw minus
        // what the same verb costs in-process, weighted by the verb mix.
        let mut requests = 0.0;
        for (op, seen) in verbs.iter().zip(&client_p50) {
            let n = attribution.by_op.get(op).map_or(0, Vec::len) as f64;
            boundary += n * (seen - twin.p(*op, 0.5) / 1e3);
            requests += n;
        }
        boundary = ratio(boundary, requests);
    }
    values.set("aft-net.boundary_us_per_req", boundary);
    let event = pass.before.event.zip(pass.after.event);
    let event_delta = |f: fn(&aft_net::EventSnapshot) -> u64| {
        event.map_or(0.0, |(before, after)| f(&after) as f64 - f(&before) as f64)
    };
    values.set(
        "aft-net.event.frames_per_writev",
        ratio(
            event_delta(|e| e.frames_written),
            event_delta(|e| e.writev_calls),
        ),
    );
    values.set(
        "aft-net.event.bytes_read_per_txn",
        ratio(event_delta(|e| e.bytes_read), txns),
    );
    values.set(
        "aft-net.event.bytes_written_per_txn",
        ratio(event_delta(|e| e.bytes_written), txns),
    );
    values.set("aft-net.event.pauses", event_delta(|e| e.pauses));
    let reuses = event_delta(|e| e.buffer_reuses);
    values.set(
        "aft-net.event.buffer_reuse_share",
        ratio(reuses, reuses + event_delta(|e| e.buffer_allocations)),
    );
    let server = pass.before.server.zip(pass.after.server);
    values.set(
        "aft-net.server.requests_per_txn",
        ratio(
            server.map_or(0.0, |(b, a)| (a.requests - b.requests) as f64),
            txns,
        ),
    );
    values.set(
        "aft-net.server.errors",
        server.map_or(0.0, |(b, a)| (a.errors - b.errors) as f64),
    );
    let client = pass.before.client.zip(pass.after.client);
    values.set(
        "aft-net.client.transport_retries",
        client.map_or(0.0, |(b, a)| {
            (a.transport_retries - b.transport_retries) as f64
        }),
    );
    values.set(
        "aft-net.client.overload_retries",
        client.map_or(0.0, |(b, a)| {
            (a.overload_retries - b.overload_retries) as f64
        }),
    );

    // aft-faas.
    values.set(
        "aft-faas.run_request_self_us",
        per_txn_us(attribution.faas_self_ns as f64),
    );
    let platform = (pass.before.platform, pass.after.platform);
    values.set(
        "aft-faas.attempts_per_request",
        ratio(
            (platform.1.request_attempts - platform.0.request_attempts) as f64,
            (platform.1.requests_completed - platform.0.requests_completed) as f64,
        ),
    );

    // aft-cluster.
    values.set("aft-cluster.route_ns", probes.route_ns);
    let rounds = pass.rounds.len() as f64;
    let maintenance_s: f64 = pass.rounds.iter().map(|r| r.took.as_secs_f64()).sum();
    values.set(
        "aft-cluster.maintenance_ms_per_round",
        ratio(maintenance_s * 1e3, rounds),
    );
    values.set(
        "aft-cluster.maintenance_share",
        ratio(maintenance_s, pass.wall_s),
    );
    let drained: f64 = pass
        .rounds
        .iter()
        .map(|r| r.stats.broadcast.drained as f64)
        .sum();
    let pruned: f64 = pass
        .rounds
        .iter()
        .map(|r| r.stats.broadcast.pruned as f64)
        .sum();
    let dissem_bytes: f64 = pass
        .rounds
        .iter()
        .map(|r| r.stats.broadcast.bytes as f64)
        .sum();
    let gc_deleted: f64 = pass
        .rounds
        .iter()
        .map(|r| r.stats.global_gc.deleted as f64)
        .sum();
    values.set(
        "aft-cluster.dissem.records_per_round",
        ratio(drained, rounds),
    );
    values.set(
        "aft-cluster.dissem.bytes_per_txn",
        ratio(dissem_bytes, txns),
    );
    values.set("aft-cluster.dissem.pruned_share", ratio(pruned, drained));
    values.set("aft-cluster.gc.deleted_per_txn", ratio(gc_deleted, txns));

    // aft-core: verbs from the in-process decorator (the twin's, for a
    // service workload), counters from the nodes that served the pass.
    let core: &mut Attribution = match twin {
        Some(twin) => twin,
        None => &mut *attribution,
    };
    values.set("aft-core.begin_ns", core.p(Op::Begin, 0.5));
    values.set("aft-core.put_ns", core.p(Op::Put, 0.5));
    values.set("aft-core.get_p50_us", core.p(Op::Get, 0.5) / 1e3);
    values.set("aft-core.get_p99_us", core.p(Op::Get, 0.99) / 1e3);
    values.set("aft-core.get_all_p50_us", core.p(Op::GetAll, 0.5) / 1e3);
    values.set("aft-core.commit_p50_us", core.p(Op::Commit, 0.5) / 1e3);
    values.set("aft-core.commit_p99_us", core.p(Op::Commit, 0.99) / 1e3);
    let core_self_per_txn_ns = ratio(core.api_self_ns as f64, core.transactions as f64);
    values.set("aft-core.select_version_ns", probes.select_version_ns);
    values.set("aft-core.is_atomic_readset_ns", probes.is_atomic_readset_ns);
    let (nb, na) = (pass.before.nodes, pass.after.nodes);
    let reads = (na.reads - nb.reads) as f64;
    values.set(
        "aft-core.read.cache_hit_share",
        ratio(
            (na.reads_from_data_cache - nb.reads_from_data_cache) as f64,
            reads,
        ),
    );
    values.set(
        "aft-core.read.storage_share",
        ratio(
            (na.reads_from_storage - nb.reads_from_storage) as f64,
            reads,
        ),
    );
    values.set(
        "aft-core.read.write_buffer_share",
        ratio(
            (na.reads_from_write_buffer - nb.reads_from_write_buffer) as f64,
            reads,
        ),
    );
    values.set(
        "aft-core.read.no_valid_version_aborts",
        (na.no_valid_version_aborts - nb.no_valid_version_aborts) as f64,
    );
    values.set(
        "aft-core.batch.commits_per_flush",
        ratio(
            (pass.after.batch_submitted - pass.before.batch_submitted) as f64,
            (pass.after.batch_flushes - pass.before.batch_flushes) as f64,
        ),
    );
    values.set("aft-core.batch.largest", pass.after.batch_largest as f64);

    // aft-storage.
    values.set("aft-storage.io.execute_p50_us", probes.io_execute_p50_us);
    let (ib, ia) = (pass.before.io, pass.after.io);
    values.set("aft-storage.io.peak_in_flight", ia.peak_in_flight as f64);
    values.set(
        "aft-storage.io.deferred_share",
        ratio(
            (ia.deferred - ib.deferred) as f64,
            (ia.submitted - ib.submitted) as f64,
        ),
    );
    values.set("aft-storage.io.retries", (ia.retries - ib.retries) as f64);
    values.set(
        "aft-storage.backend.get_p50_us",
        attribution.p(Op::StoreGet, 0.5) / 1e3,
    );
    values.set(
        "aft-storage.backend.put_batch_p50_us",
        attribution.p(Op::StorePut, 0.5) / 1e3,
    );
    let storage = pass.after.storage.delta_since(&pass.before.storage);
    let calls = |ops: &[OpKind]| {
        ratio(
            ops.iter().map(|op| storage.calls(*op)).sum::<u64>() as f64,
            txns,
        )
    };
    values.set("aft-storage.calls.get_per_txn", calls(&[OpKind::Get]));
    values.set("aft-storage.calls.put_per_txn", calls(&[OpKind::Put]));
    values.set(
        "aft-storage.calls.batch_put_per_txn",
        calls(&[OpKind::BatchPut]),
    );
    values.set(
        "aft-storage.calls.delete_per_txn",
        calls(&[OpKind::Delete, OpKind::BatchDelete]),
    );
    values.set("aft-storage.calls.list_per_txn", calls(&[OpKind::List]));
    values.set(
        "aft-storage.bytes_read_per_txn",
        ratio(storage.bytes_read as f64, txns),
    );
    values.set(
        "aft-storage.bytes_written_per_txn",
        ratio(storage.bytes_written as f64, txns),
    );
    values.set(
        "aft-storage.blocked_us_per_txn",
        per_txn_us(attribution.storage_blocked_ns as f64),
    );

    // Shares of client time. Inside a service workload's client spans only
    // the codec, the framing, aft-core (from the twin) and the backend calls
    // can be priced from outside; the rest of the span — sockets, event
    // loop, job queue, worker wake-ups, the SDK's bookkeeping — is the
    // unattributed remainder.
    let types_ns = if service {
        wire.types_ns_per_txn() * txns
    } else {
        0.0
    };
    let net_ns = if service {
        wire.frame_ns_per_txn() * txns
    } else {
        0.0
    };
    let core_ns = core_self_per_txn_ns * txns;
    let cluster_ns = (attribution.cluster_self_ns + attribution.maintenance_blocked_ns) as f64;
    let shares = Shares {
        faas: ratio(attribution.faas_self_ns as f64, client_ns),
        types: ratio(types_ns, client_ns),
        net: ratio(net_ns, client_ns),
        core: ratio(core_ns, client_ns),
        cluster: ratio(cluster_ns, client_ns),
        storage: ratio(attribution.storage_blocked_ns as f64, client_ns),
        unattributed: 0.0,
    };
    let attributed =
        shares.faas + shares.types + shares.net + shares.core + shares.cluster + shares.storage;
    let shares = Shares {
        unattributed: 1.0 - attributed,
        ..shares
    };
    values.set("aft-types.self_us_per_txn", per_txn_us(types_ns));
    values.set("aft-net.self_us_per_txn", per_txn_us(net_ns));
    values.set("aft-core.self_us_per_txn", per_txn_us(core_ns));
    values.set("aft-storage.backend.busy_share", shares.storage);
    values.set("harness.unattributed_share", shares.unattributed);
    let (allocations, bytes) = (
        pass.after.allocations.0 - pass.before.allocations.0,
        pass.after.allocations.1 - pass.before.allocations.1,
    );
    values.set("harness.allocs_per_txn", ratio(allocations as f64, txns));
    values.set("harness.alloc_bytes_per_txn", ratio(bytes as f64, txns));
    let (switches, steal) = health(pass);
    values.set("harness.nonvoluntary_ctxsw_per_s", switches);
    values.set("harness.steal_share", steal);
    shares
}
