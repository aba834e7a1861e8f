//! Process-wide resource readings: CPU time, context switches, peak
//! resident memory (`getrusage`, which also covers threads that have
//! already exited — the runtime spawns one short-lived thread per armed
//! timer), the live thread count (`/proc/self/status`), and what the
//! speed probe needs: a thread's own CPU clock and processor binding.

/// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime_sec: i64,
    utime_usec: i64,
    stime_sec: i64,
    stime_usec: i64,
    maxrss_kib: i64,
    _unused: [i64; 11],
    nvcsw: i64,
    nivcsw: i64,
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct TimeSpec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// `cpu_set_t`: 1 024 bits.
type CpuSet = [u64; 16];

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut TimeSpec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// One reading of the process's counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    /// User + system CPU consumed so far, µs.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches so far.
    pub ctx_switches: u64,
    /// Peak resident set size so far, MiB.
    pub peak_rss_mb: f64,
}

/// Reads the counters (zeros if the call fails, which `RUSAGE_SELF` on
/// a valid buffer does not).
pub fn usage() -> Usage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable, correctly laid-out `struct
    // rusage` (x86-64/aarch64 Linux: 144 bytes, matched field by field
    // above) and RUSAGE_SELF (0) is a valid `who`; the kernel writes
    // only inside the struct.
    let rc = unsafe { getrusage(0, &mut ru) };
    if rc != 0 {
        return Usage::default();
    }
    Usage {
        cpu_us: ((ru.utime_sec + ru.stime_sec) * 1_000_000 + ru.utime_usec + ru.stime_usec) as u64,
        ctx_switches: (ru.nvcsw + ru.nivcsw) as u64,
        peak_rss_mb: ru.maxrss_kib as f64 / 1024.0,
    }
}

/// CPU time the calling thread has consumed so far, ns: time spent
/// preempted or asleep does not count (0 if the call fails).
pub fn thread_cpu_ns() -> u64 {
    let mut ts = TimeSpec::default();
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) and the clock id is a valid constant.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// The processors the calling thread may run on (empty if the call
/// fails).
pub fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable 128-byte `cpu_set_t`, the size
    // passed is its size, and pid 0 means the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Binds the calling thread to processor `cpu`. Returns whether the
/// kernel accepted it.
pub fn pin_to_cpu(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live 128-byte `cpu_set_t`, the size passed is
    // its size, and pid 0 means the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// Threads alive right now (0 if `/proc` is unreadable).
pub fn threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_move_with_work() {
        let before = usage();
        let mut x = 0u64;
        while usage().cpu_us < before.cpu_us + 20_000 {
            for i in 0..100_000u64 {
                x = x.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(x);
        }
        let after = usage();
        assert!(after.cpu_us >= before.cpu_us + 20_000);
        assert!(after.peak_rss_mb > 1.0);
        assert!(threads() >= 1);
    }

    #[test]
    fn thread_clock_and_pinning() {
        let cpus = allowed_cpus();
        assert!(!cpus.is_empty());
        std::thread::spawn(move || {
            assert!(pin_to_cpu(cpus[0]));
            assert_eq!(allowed_cpus(), vec![cpus[0]]);
            let before = thread_cpu_ns();
            let mut x = 0u64;
            while thread_cpu_ns() < before + 1_000_000 {
                x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(1));
            }
        })
        .join()
        .expect("pinned thread");
    }
}
