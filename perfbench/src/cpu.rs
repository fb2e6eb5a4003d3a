//! CPU-time accounting: per-thread totals of the server's own threads
//! from `/proc/self/task/*/schedstat`, and the calling thread's CPU
//! clock for replays and for writes the store executes on its caller.

use std::fs;

/// Thread-name prefixes of the server's threads: the serve worker pool
/// and its maintenance thread (`ssam-serve-*`) and the TCP edge
/// (`ssam-net-*`). The benchmark names its own threads `perfbench-*`.
const SERVER_PREFIXES: [&str; 2] = ["ssam-serve", "ssam-net"];

/// Parses the first field of a `schedstat` line: nanoseconds the task
/// has spent on a CPU.
pub fn parse_schedstat(line: &str) -> Option<u64> {
    line.split_whitespace().next()?.parse().ok()
}

/// Sum of on-CPU nanoseconds over this process's live server threads.
pub fn server_cpu_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let path = task.path();
        let Ok(comm) = fs::read_to_string(path.join("comm")) else {
            continue;
        };
        if !SERVER_PREFIXES.iter().any(|p| comm.starts_with(p)) {
            continue;
        }
        if let Some(ns) = fs::read_to_string(path.join("schedstat"))
            .ok()
            .as_deref()
            .and_then(parse_schedstat)
        {
            total += ns;
        }
    }
    total
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU nanoseconds consumed by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // `clock_gettime` writes only through that pointer.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "thread CPU clock unavailable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_fixed_schedstat_line() {
        assert_eq!(
            parse_schedstat("1234567890 5550123 4711\n"),
            Some(1_234_567_890)
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
    }

    #[test]
    fn thread_clock_advances_with_work() {
        let t0 = thread_cpu_ns();
        let mut acc = 0u64;
        for i in 0..2_000_000u64 {
            acc = std::hint::black_box(acc.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(acc);
        assert!(thread_cpu_ns() > t0);
    }

    #[test]
    fn server_threads_are_found_by_name() {
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let h = std::thread::Builder::new()
            .name("ssam-serve-test".into())
            .spawn(move || {
                let mut acc = 0u64;
                while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                    acc = std::hint::black_box(acc.wrapping_add(1));
                }
            })
            .expect("spawn");
        std::thread::sleep(std::time::Duration::from_millis(30));
        let busy = server_cpu_ns();
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        h.join().expect("join");
        assert!(busy > 0);
    }
}
