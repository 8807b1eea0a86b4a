//! Host facts, process counters, order statistics and output digests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use yoloc_cim::KernelDispatch;
use yoloc_core::ExecutionReport;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts allocation events (alloc, zeroed alloc,
/// realloc) so a warm inference can be checked to allocate nothing.
pub struct CountingAllocator;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// relaxed statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller's `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller's `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from the caller's `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation events since process start, all threads.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set of this process, MiB (`VmHWM`).
///
/// # Panics
///
/// Panics off Linux, where `/proc/self/status` does not exist.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib / 1024.0
}

/// Cores the process may run on, read now.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The kernel tier `RomMvm::program` selects under the current
/// environment.
pub fn kernel_tier() -> &'static str {
    KernelDispatch::from_env().resolve().label()
}

/// Median of `v` (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mixes one word in.
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Mixes a float in by its bits.
    pub fn f64(self, v: f64) -> Self {
        self.word(v.to_bits())
    }

    /// The digest value.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of one inference: every output bit plus the modeled report
/// (macro activity per domain, latency, energy and traffic).
pub fn inference_digest(out: &[f32], report: &ExecutionReport) -> u64 {
    let mut d = Digest::default().word(out.len() as u64);
    for v in out {
        d = d.word(u64::from(v.to_bits()));
    }
    for s in [&report.rom, &report.sram] {
        d = d
            .word(s.analog_evaluations)
            .word(s.adc_conversions)
            .word(s.wl_pulses)
            .f64(s.energy_pj)
            .f64(s.latency_ns);
    }
    d.f64(report.latency_ns)
        .f64(report.energy.total_uj())
        .word(report.buffer_traffic_bits)
        .word(report.noc_traffic_bits)
        .word(report.link_traffic_bits)
        .word(report.dram_traffic_bits)
        .finish()
}

/// Runs `f` with `YOLOC_KERNEL=scalar`, restoring the previous value:
/// every `RomMvm` programmed inside runs the portable scalar tier, the
/// reference the SIMD tiers are pinned to. The benchmark is
/// single-threaded while it builds oracles.
pub fn with_scalar_kernels<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::env::var_os("YOLOC_KERNEL");
    std::env::set_var("YOLOC_KERNEL", "scalar");
    let out = f();
    match prev {
        Some(v) => std::env::set_var("YOLOC_KERNEL", v),
        None => std::env::remove_var("YOLOC_KERNEL"),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
    }

    #[test]
    fn allocations_are_counted() {
        let before = allocations();
        let v: Vec<u64> = Vec::with_capacity(16);
        std::hint::black_box(&v);
        assert!(allocations() > before);
    }
}
