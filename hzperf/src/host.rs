//! The host fingerprint every result carries, so that `*_pct_stream` and
//! wall-clock numbers can be compared across machines.

use netsim::Json;

/// What the host and the build are.
pub struct Host {
    pub nproc: usize,
    /// Last-level cache in bytes (0 when the CPU does not report it).
    pub llc_bytes: u64,
    pub rustc: &'static str,
    /// STREAM peak in GB/s, single thread.
    pub stream_peak_gbps: f64,
    /// Bytes of each of the three STREAM arrays.
    pub stream_array_bytes: u64,
}

/// LLC size assumed when CPUID does not report one.
const FALLBACK_LLC: u64 = 32 << 20;

impl Host {
    /// Probe the host and measure the STREAM peak with its three arrays
    /// together at least four times the last-level cache.
    pub fn probe() -> Host {
        let llc_bytes = llc_bytes();
        let total = 4 * if llc_bytes > 0 { llc_bytes } else { FALLBACK_LLC };
        let elems = total.div_ceil(3 * 8) as usize;
        let stream = streambench::run(elems, 1, 3);
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            llc_bytes,
            rustc: env!("HZPERF_RUSTC"),
            stream_peak_gbps: stream.peak(),
            stream_array_bytes: elems as u64 * 8,
        }
    }

    pub fn to_json(&self) -> Json {
        let strs = |v: Vec<&str>| Json::Arr(v.into_iter().map(|s| Json::Str(s.into())).collect());
        Json::obj(vec![
            ("nproc", Json::Num(self.nproc as f64)),
            ("llc_bytes", Json::Num(self.llc_bytes as f64)),
            ("target_features_compiled", strs(compiled_features())),
            ("target_features_detected", strs(detected_features())),
            ("rustc", Json::Str(self.rustc.into())),
            ("stream_peak_gbps", Json::Num(self.stream_peak_gbps)),
            ("stream_array_bytes", Json::Num(self.stream_array_bytes as f64)),
            ("stream_threads", Json::Num(1.0)),
        ])
    }
}

/// SIMD features the benchmark binary was compiled to assume.
fn compiled_features() -> Vec<&'static str> {
    let all = [
        ("sse2", cfg!(target_feature = "sse2")),
        ("sse4.1", cfg!(target_feature = "sse4.1")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    all.into_iter().filter(|f| f.1).map(|f| f.0).collect()
}

/// SIMD features the CPU offers at run time.
fn detected_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        let all = [
            ("sse4.1", std::arch::is_x86_feature_detected!("sse4.1")),
            ("avx", std::arch::is_x86_feature_detected!("avx")),
            ("avx2", std::arch::is_x86_feature_detected!("avx2")),
            ("fma", std::arch::is_x86_feature_detected!("fma")),
            ("avx512f", std::arch::is_x86_feature_detected!("avx512f")),
        ];
        all.into_iter().filter(|f| f.1).map(|f| f.0).collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    Vec::new()
}

/// Largest data or unified cache CPUID leaf 4 reports, in bytes.
#[cfg(target_arch = "x86_64")]
fn llc_bytes() -> u64 {
    use std::arch::x86_64::__cpuid_count;
    let mut best = 0u64;
    for sub in 0..16 {
        let r = __cpuid_count(4, sub);
        if r.eax & 0x1f == 0 {
            break;
        }
        let ways = u64::from(r.ebx >> 22) + 1;
        let partitions = u64::from((r.ebx >> 12) & 0x3ff) + 1;
        let line = u64::from(r.ebx & 0xfff) + 1;
        let sets = u64::from(r.ecx) + 1;
        best = best.max(ways * partitions * line * sets);
    }
    best
}

#[cfg(not(target_arch = "x86_64"))]
fn llc_bytes() -> u64 {
    0
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User plus system CPU seconds this process has used (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // fields after the parenthesised command name: utime and stime are the
    // 12th and 13th, in clock ticks of 1/100 s
    let fields: Vec<&str> = stat.rsplit(')').next().unwrap_or("").split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(f64::NAN);
    (ticks(11) + ticks(12)) / 100.0
}

/// Fix glibc's malloc thresholds at the values its own adjustment can reach:
/// allocations under 32 MiB come from the heap, which is trimmed only past
/// 64 MiB of free top. Left dynamic, the thresholds rise as threads free
/// large blocks, and with `datasets` and `ompszp` threads racing the main
/// thread, one seed's peak resident set over 16-rank faulted ops ranged
/// from 16 to 22 MiB between runs; fixed, over 18-20 MiB. Returns whether
/// glibc took the settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn fix_malloc_thresholds() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; both values are in
    // the ranges glibc documents for them.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 64 << 20) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn fix_malloc_thresholds() -> bool {
    false
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// CPU it is running on; returns that CPU.
///
/// The timed code runs on one thread, but `ompszp` spawns a helper thread
/// per compress or decompress pass even single-threaded. Unpinned, that
/// helper can land on the VM's other vCPU, and waking an idle vCPU on a busy
/// host took long enough to triple ccoll op walls in some runs. Pinned
/// before set-up, `datasets::App::generate` also runs on one thread (it
/// sizes its thread count by the CPUs the process may use): with two racing
/// generator threads, `setup_s` took either ~18 or ~40 ms from run to run.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: sched_getcpu takes no arguments and only reports the calling
    // thread's current CPU.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| "sched_getcpu failed".to_string())?;
    // a glibc cpu_set_t: 1024 bits
    let mut mask = [0u64; 16];
    let word = mask.get_mut(cpu / 64).ok_or_else(|| format!("CPU {cpu} is beyond a cpu_set_t"))?;
    *word |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned 128-byte cpu_set_t for the
    // whole call, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc == 0 {
        Ok(cpu)
    } else {
        Err(format!("sched_setaffinity failed: {}", std::io::Error::last_os_error()))
    }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Result<usize, String> {
    Err("pinning is only implemented on Linux".into())
}
