//! Clocks and process counters: wall time, CPU time of the process and of
//! the calling thread (`clock_gettime` through `extern "C"`, no crate), the
//! peak resident set, and the allocation counter of the traced binary.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_ns(clock: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on) and both clock ids
    // are valid on every Linux kernel, so the call only writes into `ts`.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by every thread of this process, in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in kB.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Allocation calls seen by [`CountingAlloc`].
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Set once a binary installs [`CountingAlloc`] as its global allocator.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator plus a count of allocation calls. Only the traced
/// binary installs it, so the untimed end-to-end runs allocate exactly as
/// the production binaries do.
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a relaxed statistic that publishes no data.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        std::alloc::System.realloc(ptr, layout, new)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

impl CountingAlloc {
    /// Declares that this binary's global allocator is a `CountingAlloc`.
    pub fn activate() {
        COUNTING.store(true, Ordering::Relaxed);
    }
}

/// Allocation calls so far, or `None` when no counting allocator is
/// installed.
pub fn allocs() -> Option<u64> {
    COUNTING
        .load(Ordering::Relaxed)
        .then(|| ALLOCS.load(Ordering::Relaxed))
}

/// One reading of the wall and thread-CPU clocks plus the allocation count.
/// The wall clock is read innermost, so a span's wall time holds none of
/// the thread-CPU clock's reads, which are syscalls.
#[derive(Clone, Copy)]
pub struct Stamp {
    pub wall: Instant,
    pub cpu_ns: u64,
    pub allocs: u64,
}

impl Stamp {
    /// Reading at the start of a span: wall clock last.
    pub fn start() -> Self {
        let cpu_ns = thread_cpu_ns();
        let allocs = allocs().unwrap_or(0);
        Stamp {
            wall: Instant::now(),
            cpu_ns,
            allocs,
        }
    }

    /// Reading at the end of a span: wall clock first.
    pub fn end() -> Self {
        let wall = Instant::now();
        Stamp {
            wall,
            cpu_ns: thread_cpu_ns(),
            allocs: allocs().unwrap_or(0),
        }
    }
}
