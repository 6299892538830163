//! What the kernel says about this process and host, read from `/proc`, and
//! the counting allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`, 100 on
/// every Linux this runs on; not queryable without libc).
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(status: &str, field: &str) -> u64 {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim_start_matches(':')
                .split_whitespace()
                .next()?
                .parse()
                .ok()
        })
        .unwrap_or(0)
}

/// User + system CPU seconds of the whole process so far.
pub fn cpu_seconds() -> f64 {
    let stat = read("/proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the line, so the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: u64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<u64>().ok())
        .sum();
    ticks as f64 / TICKS_PER_SECOND
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM") as f64 / 1024.0
}

/// Involuntary context switches summed over the process's live threads.
pub fn nonvoluntary_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|task| {
            let status = read(&format!("{}/status", task.path().display()));
            status_field(&status, "nonvoluntary_ctxt_switches")
        })
        .sum()
}

/// `(steal ticks, all ticks)` of the host so far, from the `cpu` line of
/// `/proc/stat`.
pub fn steal_and_total_ticks() -> (u64, u64) {
    let stat = read("/proc/stat");
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn kernel() -> String {
    read("/proc/sys/kernel/osrelease").trim().to_owned()
}

/// The commit the checkout was built from, when it is a git checkout (the
/// driver's is not).
pub fn commit() -> String {
    let head = read(concat!(env!("CARGO_MANIFEST_DIR"), "/../.git/HEAD"));
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => {
            let path = format!("{}/../.git/{reference}", env!("CARGO_MANIFEST_DIR"));
            let id = read(&path);
            if id.trim().is_empty() {
                "unknown".to_owned()
            } else {
                id.trim().to_owned()
            }
        }
        None if head.is_empty() => "unknown".to_owned(),
        None => head.to_owned(),
    }
}

/// Counts allocations while switched on (the traced pass); otherwise one
/// relaxed load per allocation.
pub struct CountingAllocator;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters touch no allocator state, and the thread-local is
// a `const`-initialised `Cell` with no destructor, so reading it never
// allocates or runs during its own teardown.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
            ALLOCATED_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        }
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

pub fn count_allocations(on: bool) {
    COUNTING.store(on, Ordering::SeqCst);
}

/// `(allocations, bytes)` counted process-wide so far.
pub fn allocation_totals() -> (u64, u64) {
    (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    )
}

/// Allocations counted on the calling thread so far.
pub fn thread_allocations() -> u64 {
    THREAD_ALLOCATIONS.with(Cell::get)
}
