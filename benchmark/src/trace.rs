//! Spans recorded from outside the program: decorators around the public
//! `AftApi` and `StorageEngine` traits push one span per call into a
//! per-thread vector; nothing under `crates/` knows it is being traced.
//!
//! A span is `(layer, name, start_ns, end_ns, parent, trace, thread)`.
//! `trace` is the transaction's sequence number. Spans on a client thread
//! learn their parent from a thread-local; storage spans run on I/O-engine
//! or server worker threads, where no context can be carried from outside,
//! so their parent is resolved after the run from the transaction UUID every
//! AFT storage key ends in (see `analysis`).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use aft_cluster::Cluster;
use aft_core::api::{AftApi, CommitOutcome};
use aft_core::AftNode;
use aft_storage::latency::measure_cost;
use aft_storage::{SharedStorage, StorageEngine, StorageStats};
use aft_types::{AftError, AftResult, Key, TransactionId, Uuid, Value};

/// The layer (crate) a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Layer {
    Faas,
    Net,
    Core,
    Cluster,
    Storage,
}

impl Layer {
    pub fn label(self) -> &'static str {
        match self {
            Layer::Faas => "aft-faas",
            Layer::Net => "aft-net",
            Layer::Core => "aft-core",
            Layer::Cluster => "aft-cluster",
            Layer::Storage => "aft-storage",
        }
    }
}

/// What a span timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    RunRequest,
    Begin,
    Get,
    GetAll,
    Put,
    Commit,
    Abort,
    Maintenance,
    StoreGet,
    StorePut,
    StoreDelete,
    StoreList,
}

impl Op {
    pub fn label(self) -> &'static str {
        match self {
            Op::RunRequest => "run_request",
            Op::Begin => "begin",
            Op::Get => "get",
            Op::GetAll => "get_all",
            Op::Put => "put",
            Op::Commit => "commit",
            Op::Abort => "abort",
            Op::Maintenance => "maintenance_round",
            Op::StoreGet => "backend_get",
            Op::StorePut => "backend_put",
            Op::StoreDelete => "backend_delete",
            Op::StoreList => "backend_list",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// 0 = none (yet).
    pub parent: u64,
    /// Transaction sequence number, 0 outside any transaction.
    pub trace: u32,
    pub thread: u16,
    pub layer: Layer,
    pub op: Op,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Folded transaction UUID the span concerns (0 = unknown).
    pub txn: u64,
    /// Hash of the user key the span concerns (0 = none or several).
    pub key: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static CAPACITY: AtomicUsize = AtomicUsize::new(1 << 16);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Span>>>>> = Mutex::new(Vec::new());

struct ThreadBuf {
    index: u16,
    next: u64,
    spans: Arc<Mutex<Vec<Span>>>,
}

thread_local! {
    static BUF: RefCell<Option<ThreadBuf>> = const { RefCell::new(None) };
    /// (trace, parent span id) of the transaction running on this thread.
    static CTX: Cell<(u32, u64)> = const { Cell::new((0, 0)) };
}

pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns recording on; each thread that records preallocates room for
/// `spans_per_thread` spans on its first span.
pub fn enable(spans_per_thread: usize) {
    now_ns();
    CAPACITY.store(spans_per_thread.max(1024), Ordering::Relaxed);
    ENABLED.store(true, Ordering::SeqCst);
}

pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes every span recorded so far, from all threads.
pub fn drain() -> Vec<Span> {
    let registry = REGISTRY
        .lock()
        .expect("no recorder panics holding the registry");
    let mut all = Vec::new();
    for buf in registry.iter() {
        all.append(&mut buf.lock().expect("no recorder panics holding its buffer"));
    }
    all
}

fn with_buf<T>(f: impl FnOnce(&mut ThreadBuf) -> T) -> T {
    BUF.with(|cell| {
        let mut slot = cell.borrow_mut();
        let buf = slot.get_or_insert_with(|| {
            let spans = Arc::new(Mutex::new(Vec::with_capacity(
                CAPACITY.load(Ordering::Relaxed),
            )));
            let mut registry = REGISTRY.lock().expect("registry lock");
            registry.push(Arc::clone(&spans));
            ThreadBuf {
                index: registry.len() as u16,
                next: 0,
                spans,
            }
        });
        f(buf)
    })
}

fn next_id() -> u64 {
    with_buf(|buf| {
        buf.next += 1;
        (u64::from(buf.index) << 40) | buf.next
    })
}

#[allow(clippy::too_many_arguments)]
fn push(
    id: u64,
    parent: u64,
    trace: u32,
    layer: Layer,
    op: Op,
    start_ns: u64,
    end_ns: u64,
    txn: u64,
    key: u64,
) {
    with_buf(|buf| {
        let span = Span {
            id,
            parent,
            trace,
            thread: buf.index,
            layer,
            op,
            start_ns,
            end_ns,
            txn,
            key,
        };
        buf.spans.lock().expect("span buffer lock").push(span);
    });
}

/// An open root span: the transaction as the harness sees it.
pub struct Root {
    id: u64,
    trace: u32,
    start_ns: u64,
}

/// Opens the root span of transaction `trace` on this thread; calls made
/// through a [`TracedApi`] until [`close_root`] become its children.
pub fn open_root(trace: u32) -> Root {
    let id = next_id();
    CTX.with(|c| c.set((trace, id)));
    Root {
        id,
        trace,
        start_ns: now_ns(),
    }
}

pub fn close_root(root: Root) {
    let end_ns = now_ns();
    CTX.with(|c| c.set((0, 0)));
    push(
        root.id,
        0,
        root.trace,
        Layer::Faas,
        Op::RunRequest,
        root.start_ns,
        end_ns,
        0,
        0,
    );
}

/// Times `f` as a maintenance round: a root span outside any transaction.
pub fn timed_maintenance<T>(f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = next_id();
    let start_ns = now_ns();
    let out = f();
    push(
        id,
        0,
        0,
        Layer::Cluster,
        Op::Maintenance,
        start_ns,
        now_ns(),
        0,
        0,
    );
    out
}

pub fn fold_uuid(uuid: &Uuid) -> u64 {
    let raw = uuid.as_u128();
    (raw as u64) ^ ((raw >> 64) as u64)
}

pub fn hash_str(s: &str) -> u64 {
    // FNV-1a; never 0 so 0 can mean "no key".
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h | 1
}

/// Routes each transaction to a node of the cluster the way
/// `AftDriver::clustered` does (one `Cluster::route` per `begin`), as one
/// `AftApi` object a decorator can wrap.
pub struct RoutedApi {
    cluster: Arc<Cluster>,
    txns: Mutex<HashMap<Uuid, Arc<AftNode>>>,
}

impl RoutedApi {
    pub fn new(cluster: Arc<Cluster>) -> Self {
        RoutedApi {
            cluster,
            txns: Mutex::new(HashMap::new()),
        }
    }

    fn node(&self, txid: &TransactionId) -> AftResult<Arc<AftNode>> {
        self.txns
            .lock()
            .expect("routing table lock")
            .get(&txid.uuid)
            .cloned()
            .ok_or(AftError::UnknownTransaction(*txid))
    }

    fn finish(&self, txid: &TransactionId) -> AftResult<Arc<AftNode>> {
        self.txns
            .lock()
            .expect("routing table lock")
            .remove(&txid.uuid)
            .ok_or(AftError::UnknownTransaction(*txid))
    }
}

impl AftApi for RoutedApi {
    fn api_label(&self) -> &str {
        "in-process (routed)"
    }

    fn begin(&self) -> AftResult<TransactionId> {
        let node = self.cluster.route()?;
        let txid = node.start_transaction();
        self.txns
            .lock()
            .expect("routing table lock")
            .insert(txid.uuid, node);
        Ok(txid)
    }

    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        AftApi::get_versioned(&*self.node(txid)?, txid, key)
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        AftApi::get_all(&*self.node(txid)?, txid, keys)
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        AftApi::put(&*self.node(txid)?, txid, key, value)
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        AftApi::commit(&*self.finish(txid)?, txid, reads)
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        match self.finish(txid) {
            Ok(node) => AftApi::abort(&*node, txid),
            Err(_) => Ok(()),
        }
    }
}

/// Decorator recording one span per `AftApi` call, as a child of the
/// transaction open on the calling thread.
pub struct TracedApi {
    inner: Arc<dyn AftApi>,
    layer: Layer,
}

impl TracedApi {
    pub fn new(inner: Arc<dyn AftApi>, layer: Layer) -> Self {
        TracedApi { inner, layer }
    }

    fn span<T>(&self, op: Op, txn: u64, key: u64, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let (trace, parent) = CTX.with(Cell::get);
        let id = next_id();
        let start_ns = now_ns();
        let out = f();
        push(
            id,
            parent,
            trace,
            self.layer,
            op,
            start_ns,
            now_ns(),
            txn,
            key,
        );
        out
    }
}

impl AftApi for TracedApi {
    fn api_label(&self) -> &str {
        self.inner.api_label()
    }

    fn begin(&self) -> AftResult<TransactionId> {
        if !enabled() {
            return self.inner.begin();
        }
        // The UUID is only known once `begin` returns, so this span is
        // pushed by hand.
        let (trace, parent) = CTX.with(Cell::get);
        let id = next_id();
        let start_ns = now_ns();
        let out = self.inner.begin();
        let txn = out.as_ref().map_or(0, |txid| fold_uuid(&txid.uuid));
        push(
            id,
            parent,
            trace,
            self.layer,
            Op::Begin,
            start_ns,
            now_ns(),
            txn,
            0,
        );
        out
    }

    fn get_versioned(
        &self,
        txid: &TransactionId,
        key: &Key,
    ) -> AftResult<Option<(Value, Option<TransactionId>)>> {
        self.span(
            Op::Get,
            fold_uuid(&txid.uuid),
            hash_str(key.as_str()),
            || self.inner.get_versioned(txid, key),
        )
    }

    fn get_all(&self, txid: &TransactionId, keys: &[Key]) -> AftResult<Vec<Option<Value>>> {
        self.span(Op::GetAll, fold_uuid(&txid.uuid), 0, || {
            self.inner.get_all(txid, keys)
        })
    }

    fn put(&self, txid: &TransactionId, key: Key, value: Value) -> AftResult<()> {
        let hash = hash_str(key.as_str());
        self.span(Op::Put, fold_uuid(&txid.uuid), hash, || {
            self.inner.put(txid, key, value)
        })
    }

    fn commit(
        &self,
        txid: &TransactionId,
        reads: &[(Key, TransactionId)],
    ) -> AftResult<CommitOutcome> {
        self.span(Op::Commit, fold_uuid(&txid.uuid), 0, || {
            self.inner.commit(txid, reads)
        })
    }

    fn abort(&self, txid: &TransactionId) -> AftResult<()> {
        self.span(Op::Abort, fold_uuid(&txid.uuid), 0, || {
            self.inner.abort(txid)
        })
    }
}

/// Decorator recording one span per backend API call.
///
/// The I/O engine runs client-latency backends under `capture_deferred`: the
/// call returns at once and the sampled round trip is applied later by the
/// timer wheel. `measure_cost` reports that charge, so a span whose wall time
/// is shorter than its charge is extended by it — the span then covers what
/// the waiting transaction actually waited for.
pub struct TracedStorage {
    inner: SharedStorage,
}

impl TracedStorage {
    pub fn new(inner: SharedStorage) -> Self {
        TracedStorage { inner }
    }

    fn span<T>(&self, op: Op, storage_key: &str, f: impl FnOnce() -> T) -> T {
        if !enabled() {
            return f();
        }
        let id = next_id();
        let start_ns = now_ns();
        let (out, charged) = measure_cost(f);
        let mut end_ns = now_ns();
        let charged_ns = charged.as_nanos() as u64;
        if charged_ns > end_ns - start_ns {
            end_ns += charged_ns;
        }
        let (txn, key) = parse_storage_key(storage_key);
        push(id, 0, 0, Layer::Storage, op, start_ns, end_ns, txn, key);
        out
    }
}

/// `(folded uuid, user-key hash)` of `data/{key}/{uuid}` and
/// `commit/{ts}_{uuid}` storage keys; zeros for anything else.
fn parse_storage_key(storage_key: &str) -> (u64, u64) {
    let Some(tail_at) = storage_key.len().checked_sub(32) else {
        return (0, 0);
    };
    let Some(tail) = storage_key.get(tail_at..) else {
        return (0, 0);
    };
    let Ok(raw) = u128::from_str_radix(tail, 16) else {
        return (0, 0);
    };
    let txn = fold_uuid(&Uuid::from_u128(raw));
    let key = storage_key
        .strip_prefix("data/")
        .and_then(|rest| rest.get(..rest.len().checked_sub(33)?))
        .map_or(0, hash_str);
    (txn, key)
}

impl StorageEngine for TracedStorage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn get(&self, key: &str) -> AftResult<Option<Value>> {
        self.span(Op::StoreGet, key, || self.inner.get(key))
    }

    fn put(&self, key: &str, value: Value) -> AftResult<()> {
        self.span(Op::StorePut, key, || self.inner.put(key, value))
    }

    fn put_batch(&self, items: Vec<(String, Value)>) -> AftResult<()> {
        let first = items.first().map(|(k, _)| k.clone()).unwrap_or_default();
        self.span(Op::StorePut, &first, || self.inner.put_batch(items))
    }

    fn delete(&self, key: &str) -> AftResult<()> {
        self.span(Op::StoreDelete, "", || self.inner.delete(key))
    }

    fn delete_batch(&self, keys: &[String]) -> AftResult<()> {
        self.span(Op::StoreDelete, "", || self.inner.delete_batch(keys))
    }

    fn list_prefix(&self, prefix: &str) -> AftResult<Vec<String>> {
        self.span(Op::StoreList, "", || self.inner.list_prefix(prefix))
    }

    fn supports_batch_put(&self) -> bool {
        self.inner.supports_batch_put()
    }

    fn supports_deferred_latency(&self) -> bool {
        self.inner.supports_deferred_latency()
    }

    fn stats(&self) -> Arc<StorageStats> {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_keys_yield_the_uuid_and_the_user_key() {
        let uuid = Uuid::from_u128(0xdead_beef_0102_0304_0506_0708_090a_0b0c);
        let data = format!("data/key-00000007/{uuid}");
        let (txn, key) = parse_storage_key(&data);
        assert_eq!(txn, fold_uuid(&uuid));
        assert_eq!(key, hash_str("key-00000007"));
        let commit = format!("commit/{:020}_{uuid}", 17);
        assert_eq!(parse_storage_key(&commit), (fold_uuid(&uuid), 0));
        assert_eq!(parse_storage_key("commit/"), (0, 0));
    }
}
