//! Turns the spans of a traced pass into per-layer times.
//!
//! A layer's self time is its span minus the part its children cover.
//! Children of a transaction's root are the `AftApi` calls made on its
//! thread; children of an API call are the backend calls it waited for.
//! Those run on other threads, so they are matched here: a backend call
//! belongs to the API call that was open when it started and that it shares
//! a transaction UUID or a key with.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::PathBuf;

use crate::trace::{Layer, Op, Span};

/// Self and blocked time summed over a pass, in nanoseconds.
#[derive(Default)]
pub struct Attribution {
    /// Root spans: transactions as the harness timed them.
    pub transactions: u64,
    pub txn_wall_ns: u64,
    /// Root span minus its API children: `run_request`, the composition and
    /// the driver's own bookkeeping.
    pub faas_self_ns: u64,
    /// API spans minus the backend calls they waited for.
    pub api_self_ns: u64,
    /// Time API spans were covered by at least one of their backend calls.
    pub storage_blocked_ns: u64,
    /// Maintenance rounds minus their backend calls.
    pub cluster_self_ns: u64,
    pub maintenance_blocked_ns: u64,
    /// Backend spans no API call or maintenance round accounts for.
    pub orphan_storage: u64,
    /// Durations per API verb and per backend call kind.
    pub by_op: HashMap<Op, Vec<u32>>,
}

impl Attribution {
    pub fn p(&mut self, op: Op, q: f64) -> f64 {
        self.by_op
            .get_mut(&op)
            .map_or(0.0, |samples| crate::metrics::percentile_ns(samples, q))
    }
}

fn is_api(span: &Span) -> bool {
    matches!(span.layer, Layer::Net | Layer::Core)
}

/// How well `parent` explains backend call `child`; 0 = not at all.
fn affinity(parent: &Span, child: &Span) -> u8 {
    if parent.op == Op::Maintenance {
        return 1;
    }
    match child.op {
        Op::StorePut if child.txn != 0 && child.txn == parent.txn => match parent.op {
            Op::Commit => 4,
            Op::Put => 3,
            _ => 0,
        },
        Op::StoreGet => match parent.op {
            Op::Get if child.key != 0 && child.key == parent.key => 4,
            Op::GetAll => 3,
            Op::Get => 2,
            _ => 0,
        },
        _ => 0,
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Resolves backend spans' parents in place and sums self times.
pub fn attribute(spans: &mut [Span]) -> Attribution {
    spans.sort_by_key(|s| s.start_ns);
    // Candidate parents per thread, in start order; on one thread they never
    // overlap, so the open one at time t is the last that started before t.
    let mut parents_by_thread: HashMap<u16, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if is_api(span) || span.op == Op::Maintenance {
            parents_by_thread.entry(span.thread).or_default().push(i);
        }
    }
    let mut out = Attribution::default();
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for i in 0..spans.len() {
        let child = spans[i];
        if child.layer != Layer::Storage {
            continue;
        }
        let mut best: Option<(u8, usize)> = None;
        let mut queued_behind: Vec<usize> = Vec::new();
        for candidates in parents_by_thread.values() {
            let at = candidates.partition_point(|&p| spans[p].start_ns <= child.start_ns);
            let Some(&p) = at.checked_sub(1).and_then(|i| candidates.get(i)) else {
                continue;
            };
            let parent = &spans[p];
            if parent.end_ns <= child.start_ns {
                continue;
            }
            let score = affinity(parent, &child);
            if score == 0 && child.op == Op::StorePut && parent.op == Op::Commit {
                queued_behind.push(p);
            }
            if score > 0
                && best.is_none_or(|(s, b)| (score, parent.start_ns) > (s, spans[b].start_ns))
            {
                best = Some((score, p));
            }
        }
        match best {
            Some((_, p)) => {
                spans[i].parent = spans[p].id;
                spans[i].trace = spans[p].trace;
                children
                    .entry(spans[p].id)
                    .or_default()
                    .push((child.start_ns, child.end_ns));
            }
            None => out.orphan_storage += 1,
        }
        // Group commit: a commit that arrives while another transaction's
        // flush is in flight queues behind it, so that write blocks it too.
        for p in queued_behind {
            children
                .entry(spans[p].id)
                .or_default()
                .push((child.start_ns, child.end_ns));
        }
    }
    for span in spans.iter() {
        if is_api(span) && span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }

    for span in spans.iter() {
        let blocked = children
            .get_mut(&span.id)
            .map_or(0, |c| covered(c, span.start_ns, span.end_ns));
        let own = span.dur_ns() - blocked;
        match (span.layer, span.op) {
            (Layer::Faas, _) => {
                out.transactions += 1;
                out.txn_wall_ns += span.dur_ns();
                out.faas_self_ns += own;
            }
            (Layer::Cluster, _) => {
                out.cluster_self_ns += own;
                out.maintenance_blocked_ns += blocked;
            }
            (Layer::Net | Layer::Core, _) => {
                out.api_self_ns += own;
                out.storage_blocked_ns += blocked;
            }
            (Layer::Storage, _) => {}
        }
        if span.layer != Layer::Faas {
            let ns = span.dur_ns().min(u64::from(u32::MAX)) as u32;
            out.by_op.entry(span.op).or_default().push(ns);
        }
    }
    out
}

/// Writes the spans as one JSON object per line.
pub fn write_jsonl(workload: &str, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(
            file,
            "{{\"id\": {}, \"parent\": {}, \"trace\": {}, \"thread\": {}, \"layer\": \"{}\", \
             \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.trace,
            s.thread,
            s.layer.label(),
            s.op.label(),
            s.start_ns,
            s.end_ns
        )?;
    }
    file.flush()?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, thread: u16, layer: Layer, op: Op, start: u64, end: u64) -> Span {
        Span {
            id,
            parent: 0,
            trace: 0,
            thread,
            layer,
            op,
            start_ns: start,
            end_ns: end,
            txn: 0,
            key: 0,
        }
    }

    #[test]
    fn union_is_clipped_and_not_double_counted() {
        let mut intervals = vec![(5, 20), (10, 30), (50, 70)];
        assert_eq!(covered(&mut intervals, 0, 60), 25 + 10);
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let mut root = span(1, 1, Layer::Faas, Op::RunRequest, 0, 100);
        root.trace = 7;
        let mut commit = span(2, 1, Layer::Core, Op::Commit, 10, 90);
        commit.parent = 1;
        commit.trace = 7;
        commit.txn = 42;
        // Two overlapping backend writes of transaction 42 on an I/O thread,
        // and one of another transaction: not adopted, but the commit queued
        // behind it.
        let mut a = span(3, 2, Layer::Storage, Op::StorePut, 20, 50);
        a.txn = 42;
        let mut b = span(4, 3, Layer::Storage, Op::StorePut, 40, 70);
        b.txn = 42;
        let mut other = span(5, 3, Layer::Storage, Op::StorePut, 72, 80);
        other.txn = 43;
        let mut spans = vec![root, commit, a, b, other];
        let out = attribute(&mut spans);
        assert_eq!(out.transactions, 1);
        assert_eq!(out.txn_wall_ns, 100);
        assert_eq!(out.faas_self_ns, 20);
        assert_eq!(out.storage_blocked_ns, 50 + 8);
        assert_eq!(out.api_self_ns, 30 - 8);
        assert_eq!(out.orphan_storage, 1);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[2].trace, 7);
    }
}
