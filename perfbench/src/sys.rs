//! Process and machine readings (CPU time, peak RSS, core count, CPU
//! model) and the scheduling set-up the benchmark runs under.

use std::time::Duration;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// User + system CPU time of the whole process, every thread included.
///
/// This is the figure `/proc/self/stat` reports as utime + stime, read
/// from the kernel's per-thread runtime in nanoseconds instead of in
/// 10 ms clock ticks, which would quantise a one-second window's CPU to
/// a few percent.
pub fn process_cpu() -> Duration {
    cpu_clock(CLOCK_PROCESS_CPUTIME_ID)
}

/// User + system CPU time of the calling thread.
pub fn thread_cpu() -> Duration {
    cpu_clock(CLOCK_THREAD_CPUTIME_ID)
}

fn cpu_clock(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec, and both clock ids are
    // valid on Linux; the call writes only through the pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return Duration::ZERO;
    }
    Duration::new(
        ts.tv_sec.max(0) as u64,
        ts.tv_nsec.clamp(0, 999_999_999) as u32,
    )
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Reset the peak RSS (`VmHWM`) to the current RSS, by writing `5` to
/// `/proc/self/clear_refs`, after handing the heap's free pages back to
/// the kernel, so the next peak does not start from memory a previous
/// workload freed but the allocator kept. Where the write fails the peak
/// stays the process's lifetime peak.
pub fn reset_peak_rss() {
    // SAFETY: malloc_trim only releases free heap memory; no live
    // allocation moves.
    unsafe { malloc_trim(0) };
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The CPU model string from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|v| v.split_once(':'))
                .map(|(_, m)| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Pin the process to the CPU it is running on, before any thread is
/// started, so every thread inherits the mask. Returns that CPU.
///
/// On a virtual machine whose vCPUs share less than one physical core
/// each, a wake-up that crosses vCPUs waits for the host to schedule the
/// halted one, which puts millisecond stalls into the figures that have
/// nothing to do with the program. On one CPU every hand-off is a plain
/// context switch.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and reads the caller's CPU.
    let cpu = unsafe { sched_getcpu() };
    if !(0..64).contains(&cpu) {
        return None;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: the mask is a live u64 of the size passed; pid 0 is this
    // process's calling thread, and threads started later inherit it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    (rc == 0).then_some(cpu as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let before = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        let after = process_cpu();
        assert!(after > before);
        assert!(thread_cpu() <= after);
        assert!(peak_rss_mb() > 0.0);
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with_big = peak_rss_mb();
        drop(big);
        reset_peak_rss();
        assert!(peak_rss_mb() < with_big - 32.0, "the peak resets");
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
    }
}
