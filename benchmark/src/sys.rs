//! The benchmark's only `unsafe` code: the glibc allocator calls that
//! keep first-touch page faults out of the measured phase, the thread
//! CPU clock, and the `/proc` reads that prove the faults stayed out.
//!
//! The store retains roughly 1 KiB of heap per request and never gives it
//! back, so a timed window grows the resident set by about 1 GiB per
//! million requests. A first touch of host-cold memory costs ~25 µs in
//! the sandbox VM and a host-warm one ~2 µs, and which one a run gets
//! changes from run to run. [`prefault_heap`] therefore faults the heap in
//! before set-up and makes glibc keep it.

use std::time::Instant;

#[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
mod glibc {
    use std::ffi::{c_char, c_int, CStr};

    /// `struct mallinfo2` from `<malloc.h>` (glibc ≥ 2.33): ten `size_t`s.
    #[repr(C)]
    pub struct Mallinfo2 {
        pub arena: usize,
        pub ordblks: usize,
        pub smblks: usize,
        pub hblks: usize,
        pub hblkhd: usize,
        pub usmblks: usize,
        pub fsmblks: usize,
        pub uordblks: usize,
        pub fordblks: usize,
        pub keepcost: usize,
    }

    /// `struct timespec` on 64-bit Linux: two 64-bit fields.
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    const M_TRIM_THRESHOLD: c_int = -1;
    const M_MMAP_THRESHOLD: c_int = -3;
    const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
        fn mallinfo2() -> Mallinfo2;
        fn gnu_get_libc_version() -> *const c_char;
        fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
    }

    /// CPU time the calling thread has consumed, in ns.
    pub fn thread_cpu_ns() -> Option<u64> {
        let mut time = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `clock_gettime` writes one `struct timespec` through
        // the pointer, which points at a live, properly laid out value
        // (the cfg above restricts this module to 64-bit Linux, where
        // both fields are 64 bits wide); a bad clock id is reported by
        // the return value.
        let ok = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut time) } == 0;
        ok.then(|| time.tv_sec as u64 * 1_000_000_000 + time.tv_nsec as u64)
    }

    /// Tells glibc never to trim the heap top and to serve every block up
    /// to `mmap_threshold` bytes from the heap. Returns whether both
    /// settings were accepted.
    pub fn retain_heap(mmap_threshold: i32) -> bool {
        // SAFETY: `mallopt` takes two plain integers, has no pointer
        // arguments and may be called at any time; an unsupported value
        // is reported by a zero return, not by undefined behaviour.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                && mallopt(M_MMAP_THRESHOLD, mmap_threshold) == 1
        }
    }

    /// Bytes the allocator has handed out and not got back, over all
    /// arenas: heap blocks in use plus `mmap`ed blocks.
    pub fn heap_in_use() -> u64 {
        // SAFETY: `mallinfo2` takes no arguments and returns the struct
        // declared above by value; the declaration matches glibc's
        // `struct mallinfo2` (ten `size_t` fields, in this order).
        let info = unsafe { mallinfo2() };
        (info.uordblks + info.hblkhd) as u64
    }

    pub fn libc_version() -> String {
        // SAFETY: `gnu_get_libc_version` returns a pointer to a static,
        // NUL-terminated string owned by glibc that is never freed.
        let version = unsafe { CStr::from_ptr(gnu_get_libc_version()) };
        format!("glibc {}", version.to_string_lossy())
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
mod glibc {
    pub fn retain_heap(_mmap_threshold: i32) -> bool {
        false
    }
    pub fn heap_in_use() -> u64 {
        0
    }
    pub fn libc_version() -> String {
        "not glibc".to_string()
    }
    pub fn thread_cpu_ns() -> Option<u64> {
        None
    }
}

pub use glibc::{heap_in_use, libc_version, thread_cpu_ns};

/// Blocks above this size would be `mmap`ed, unmapped on free, and retain
/// nothing; 32 MiB is the largest threshold glibc accepts.
const MMAP_THRESHOLD: i32 = 32 << 20;
const PREFAULT_BLOCK: usize = 64 << 10;

/// What [`prefault_heap`] did.
pub struct Prefault {
    /// False on a non-glibc target: nothing was retained and the run's
    /// timings include first-touch faults.
    pub retained: bool,
    pub seconds: f64,
}

/// Faults `mib` MiB of heap in and keeps it: allocates that much in
/// 64 KiB blocks (far below the `mmap` threshold, so they come from the
/// heap proper), fills them, and frees them with trimming
/// switched off.
pub fn prefault_heap(mib: usize) -> Prefault {
    let started = Instant::now();
    let retained = glibc::retain_heap(MMAP_THRESHOLD);
    if retained {
        let blocks = mib * (1 << 20) / PREFAULT_BLOCK;
        let mut held: Vec<Vec<u8>> = Vec::with_capacity(blocks);
        for _ in 0..blocks {
            // A non-zero fill: a zeroed request could be served by fresh
            // untouched pages.
            held.push(vec![1u8; PREFAULT_BLOCK]);
        }
        std::hint::black_box(&held);
    }
    Prefault { retained, seconds: started.elapsed().as_secs_f64() }
}

/// A vector with room for `n` elements whose pages have all been written
/// once, so pushing into it later takes no page fault even when the
/// allocation was large enough to be `mmap`ed.
pub fn presized<T: Copy>(n: usize, fill: T) -> Vec<T> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, fill);
    std::hint::black_box(&v);
    v.clear();
    v
}

/// Minor page faults taken so far by the calling thread (field 10 of
/// `/proc/thread-self/stat`), or `None` where `/proc` is not available.
pub fn thread_minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = &stat[stat.rfind(')')? + 1..];
    rest.split_whitespace().nth(7)?.parse().ok()
}

/// The facts a number must never be compared across.
pub struct HostInfo {
    pub nproc: usize,
    pub kernel: String,
    pub libc: String,
    pub commit: String,
}

pub fn host_info() -> HostInfo {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    HostInfo { nproc, kernel, libc: libc_version(), commit: git_commit() }
}

/// The checked-out commit, read from `.git` without running git; a bare
/// checkout (the driver's) has none.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head,
        Err(_) => return "unknown".to_string(),
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}
