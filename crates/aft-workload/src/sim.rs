//! One seeded stepper: clients and maintenance rounds on one thread, so a
//! seed fixes the interleaving and replays a run, counts included.
//!
//! A client is data: a list of [`Request`]s, each a list of `r k` / `w k`
//! micro-ops in the shape of a Maelstrom `txn`. An attempt is `begin`, one
//! [`AftApi`] call per op, then `commit` with the versions it read, and each
//! call is one step. A read of a key the attempt already wrote checks
//! read-your-writes bytewise (§3.5); every written value is the writer's
//! UUID. A platform re-runs a request whose invocation died before, inside
//! or after its body (§3.3.1): [`FailurePoint::BeforeBody`] retries without
//! a `begin`, [`FailurePoint::MidBody`] aborts right after the attempt's
//! first write (the §1 fractional update), and [`FailurePoint::AfterBody`]
//! re-runs the request after its acknowledgement. A retryable error aborts
//! the attempt and retries the request; any other error is a bug.

use std::sync::Arc;

use aft_cluster::Cluster;
use aft_core::api::AftApi;
use aft_faas::{FailureInjector, FailurePoint};
use aft_types::{AftError, AftResult, Key, TransactionId, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One step in this many is a maintenance round, so multicast, GC and
/// fault-manager scans run *under load*, as in the paper (§4).
pub const MAINTENANCE_ONE_IN: u32 = 8;

/// One micro-op of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `r k`: reads `k`.
    Read(Key),
    /// `w k`: writes `k` the writer's UUID.
    Write(Key),
}

/// The micro-ops one invocation runs between its `begin` and its commit.
pub type Request = Vec<Op>;

/// What one run observed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Run {
    /// Final ids of every acknowledged commit, in order.
    pub acknowledged: Vec<TransactionId>,
    /// Fractured reads plus read-your-writes violations.
    pub anomalies: u64,
    /// The step at which a client observed the first anomaly.
    pub first_anomaly_step: Option<u64>,
    /// Attempts abandoned and re-invoked.
    pub client_retries: u64,
    /// Steps taken: client calls and maintenance rounds.
    pub steps: u64,
    /// Maintenance rounds run.
    pub rounds: u64,
    /// Maintenance rounds run while some attempt had a transaction open.
    pub racing_rounds: u64,
    /// Maintenance rounds that returned an error.
    pub failed_rounds: u64,
}

/// Runs every client's requests to completion: each step, drawn from `seed`,
/// is a maintenance round of `cluster` or one unfinished client's next call
/// through `route` (a node or a service client), whose fate `injector` decides.
pub fn run(
    cluster: &Cluster,
    route: &dyn Fn() -> AftResult<Arc<dyn AftApi>>,
    injector: Option<&FailureInjector>,
    clients: Vec<Vec<Request>>,
    seed: u64,
) -> Run {
    let mut rng = StdRng::seed_from_u64(seed);
    let to_client = |requests| Client {
        requests,
        ..Client::default()
    };
    let mut clients: Vec<Client> = clients.into_iter().map(to_client).collect();
    let mut stepper = Stepper {
        route,
        injector,
        run: Run::default(),
    };
    loop {
        let mut busy: Vec<&mut Client> = clients
            .iter_mut()
            .filter(|c| c.done < c.requests.len())
            .collect();
        if busy.is_empty() {
            return stepper.run;
        }
        if rng.gen_range(0..MAINTENANCE_ONE_IN) == 0 {
            let run = &mut stepper.run;
            run.rounds += 1;
            run.racing_rounds += u64::from(busy.iter().any(|c| c.open.is_some()));
            run.failed_rounds += u64::from(cluster.run_maintenance_round().is_err());
        } else {
            let pick = rng.gen_range(0..busy.len());
            stepper.step(busy[pick]);
        }
        stepper.run.steps += 1;
    }
}

/// One client: runs its requests one after another.
#[derive(Default)]
struct Client {
    requests: Vec<Request>,
    /// Requests finished so far.
    done: usize,
    /// Attempts made at the current request.
    attempt: usize,
    /// `None` between attempts: the next step invokes one.
    open: Option<Attempt>,
}

/// One attempt's transaction, open from its `begin` to its commit or abort.
struct Attempt {
    api: Arc<dyn AftApi>,
    txid: TransactionId,
    /// The platform's verdict on this invocation.
    failure: Option<FailurePoint>,
    /// The next op; the request's length means commit.
    next: usize,
    /// Whether the next step aborts the attempt.
    aborting: bool,
    /// Versions read from committed data, for the commit's verdict.
    reads: Vec<(Key, TransactionId)>,
}

/// What a client's step reaches: the route, the platform, the run's tally.
struct Stepper<'a> {
    route: &'a dyn Fn() -> AftResult<Arc<dyn AftApi>>,
    injector: Option<&'a FailureInjector>,
    run: Run,
}

impl Stepper<'_> {
    /// Takes `client`'s next step: at most one API call.
    fn step(&mut self, client: &mut Client) {
        let Some(mut attempt) = client.open.take() else {
            return self.invoke(client);
        };
        let (api, txid) = (Arc::clone(&attempt.api), attempt.txid);
        if attempt.aborting {
            let _ = api.abort(&txid);
            return self.retry(client, Ok(()));
        }
        let ops = &client.requests[client.done];
        let Some(op) = ops.get(attempt.next) else {
            let committed = api.commit(&txid, &attempt.reads).map(|outcome| {
                if !outcome.atomic {
                    self.anomaly();
                }
                self.run.acknowledged.push(outcome.final_id);
            });
            // After the body, the commit is durable and acknowledged but the
            // invocation's response was lost, so the client re-runs the
            // request. AFT's job is to keep the duplicate harmless.
            if committed.is_ok() && attempt.failure != Some(FailurePoint::AfterBody) {
                client.done += 1;
                client.attempt = 0;
                return;
            }
            return self.retry(client, committed);
        };
        let value = Value::from(txid.uuid.to_string());
        let result = match op {
            Op::Read(key) if ops[..attempt.next].contains(&Op::Write(key.clone())) => {
                api.get_versioned(&txid, key).map(|read| {
                    if !matches!(read, Some((seen, _)) if seen == value) {
                        self.anomaly();
                    }
                })
            }
            Op::Read(key) => api.get_versioned(&txid, key).map(|read| {
                if let Some((_, Some(version))) = read {
                    attempt.reads.push((key.clone(), version));
                }
            }),
            Op::Write(key) => api.put(&txid, key.clone(), value).map(|()| {
                attempt.aborting = attempt.failure == Some(FailurePoint::MidBody);
            }),
        };
        match result {
            Ok(()) => attempt.next += 1,
            Err(e) => {
                expect_retryable(&e);
                attempt.aborting = true;
            }
        }
        client.open = Some(attempt);
    }

    /// Invokes `client`'s next attempt: routes it, lets the platform decide
    /// its fate, and begins its transaction.
    fn invoke(&mut self, client: &mut Client) {
        assert!(client.attempt < 64, "a request's 64 attempts are exhausted");
        let begun = (self.route)().and_then(|api| {
            let failure = self.injector.and_then(FailureInjector::decide);
            if failure == Some(FailurePoint::BeforeBody) {
                return Ok(None);
            }
            Ok(Some(Attempt {
                txid: api.begin()?,
                api,
                failure,
                next: 0,
                aborting: false,
                reads: Vec::new(),
            }))
        });
        match begun {
            Ok(attempt @ Some(_)) => client.open = attempt,
            other => self.retry(client, other.map(drop)),
        }
    }

    /// Abandons `client`'s attempt, for `cause` if it failed.
    fn retry(&mut self, client: &mut Client, cause: AftResult<()>) {
        cause.unwrap_or_else(|e| expect_retryable(&e));
        self.run.client_retries += 1;
        client.attempt += 1;
    }

    fn anomaly(&mut self) {
        self.run.anomalies += 1;
        self.run.first_anomaly_step.get_or_insert(self.run.steps);
    }
}

/// Retryable failures are what chaos injects; any other is a bug.
fn expect_retryable(e: &AftError) {
    assert!(e.is_retryable(), "non-retryable failure: {e:?}");
}
