//! Host fingerprint and process memory, read from `/proc` and `/sys`.

use netsim::Json;

/// `f64` elements per STREAM array: 64 MiB, 32× this host's 2 MiB of L2.
/// The VM reports a 260 MiB L3 it shares with other guests; no array that
/// fits this sandbox is 4× that, so the STREAM figure is a denominator for
/// orientation only and no %-of-STREAM is printed.
pub const STREAM_ELEMS: usize = 8 << 20;

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

/// Peak resident set of this process so far (`VmHWM`), in MiB; 0 where
/// `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pin the calling thread, and every thread it spawns from now on, to the
/// lowest-numbered CPU it is allowed on; returns that CPU, or `None` where
/// that is not possible (not Linux, or the kernel refused).
///
/// ompSZp spawns and joins a scoped thread on every call even at one thread.
/// Left free to use the second core of this two-core VM, each spawn waits for
/// an idle virtual CPU to wake up, which costs anything from 10 µs to 100 µs
/// depending on what the hypervisor is doing: unpinned, `ccoll_op_ms` on
/// `mixed_schedules` ran from 686 ms to 2249 ms between identical runs;
/// pinned, from 661 ms to 678 ms. One CPU is also what the benchmark means
/// to measure: one client, one host thread. Always the same CPU, because
/// the two differ (`hz_op_ms` on `mixed_schedules`: ≈ 590 ms on CPU 0,
/// ≈ 655 ms on CPU 1).
pub fn pin_to_first_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
        }
        let mut mask = [0u8; 128];
        // SAFETY: `mask` is a live, writable buffer whose length is passed
        // with it; pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let byte = mask.iter().position(|&b| b != 0)?;
        let bit = mask[byte].trailing_zeros() as usize;
        mask = [0u8; 128];
        mask[byte] = 1 << bit;
        // SAFETY: as above; the kernel only reads the buffer.
        let rc = unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) };
        (rc == 0).then_some(byte * 8 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Size in bytes of the level-`level` cache of CPU 0, 0 if unknown.
fn cache_bytes(level: u32) -> f64 {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Some(l) = read(&format!("{dir}/level")) else { break };
        if l.trim().parse::<u32>().ok() != Some(level) {
            continue;
        }
        let size = read(&format!("{dir}/size")).unwrap_or_default();
        let size = size.trim();
        let (digits, mult) = match size.strip_suffix('K') {
            Some(d) => (d, 1024.0),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1024.0 * 1024.0),
                None => (size, 1.0),
            },
        };
        return digits.parse::<f64>().map_or(0.0, |v| v * mult);
    }
    0.0
}

/// Single-thread STREAM peak in GB/s over [`STREAM_ELEMS`]-element arrays
/// (`elems` overrides the size for the smoke mode).
pub fn stream_peak_gbps(elems: usize) -> f64 {
    streambench::run(elems, 1, 3).peak()
}

/// Everything that identifies the host and the build. `rustc -V` and the
/// git commit come from `run.sh` through the environment (the benchmark
/// binary starts no process of its own for them).
pub fn fingerprint(
    seed: u64,
    nproc: usize,
    pinned_cpu: Option<usize>,
    stream_gbps: f64,
    stream_elems: usize,
) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
    let cpu = read("/proc/cpuinfo")
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        ("nproc", Json::Num(nproc as f64)),
        ("pinned_cpu", pinned_cpu.map_or(Json::Null, |c| Json::Num(c as f64))),
        ("cpu_model", Json::Str(cpu)),
        ("l2_bytes", Json::Num(cache_bytes(2))),
        ("l3_bytes", Json::Num(cache_bytes(3))),
        ("stream_peak_gbps", Json::Num(stream_gbps)),
        ("stream_array_bytes", Json::Num((stream_elems * 8) as f64)),
        ("rustc", Json::Str(env("HZBENCH_RUSTC"))),
        ("git_commit", Json::Str(env("HZBENCH_COMMIT"))),
        ("seed", Json::Num(seed as f64)),
    ])
}
