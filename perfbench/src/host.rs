//! The host's speed, measured next to the workload.
//!
//! The benchmark runs on shared machines whose speed drifts: for seconds to
//! half an hour at a time a whole run can go 1.5–2x slower, with no steal
//! time visible to the guest. No statistic over one run's own timings
//! removes a slowdown that lasts the whole run. So a run also times a small
//! fixed reference kernel between its operations, and every end-to-end
//! timing is scaled by how slow the kernel ran, median against
//! [`REFERENCE_MS`]: the metrics read as wall times on a host on which the
//! kernel takes `REFERENCE_MS`. The kernel is plain `std` code (sorting,
//! a `BTreeMap`, small allocations) that shares nothing with the program
//! under test, so a change to the program cannot move it.

use crate::report::{median, Metrics};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What the reference kernel takes on a quiet host (a 2-vCPU Intel Xeon VM
/// at 2.1 GHz, rustc 1.95, release build: 1.9–2.0 ms). It only sets the
/// scale of the normalised metrics; their ratios between commits do not
/// depend on it.
pub const REFERENCE_MS: f64 = 2.0;

/// Time one run of the reference kernel, in milliseconds.
pub fn reference_ms() -> f64 {
    let t = Instant::now();
    // SplitMix64: a fixed stream, so every call does the same work.
    let mut x: u64 = 0;
    let mut next = || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut keys: Vec<u64> = (0..32_768).map(|_| next()).collect();
    keys.sort_unstable();
    let mut map = BTreeMap::new();
    for (i, k) in keys.iter().step_by(4).enumerate() {
        map.insert(k >> 20, vec![i as u32; 3]);
    }
    let mut acc = 0u64;
    for _ in 0..8_192 {
        if let Some((_, v)) = map.range(next() >> 20..).next() {
            acc = acc.wrapping_add(v[0] as u64);
        }
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Reference-kernel samples taken between a run's operations.
#[derive(Clone, Debug, Default)]
pub struct HostSpeed {
    samples_ms: Vec<f64>,
}

impl HostSpeed {
    /// Time the kernel once more. Its allocations are added to
    /// `allocs_before`, the start of the caller's counting window (counting
    /// builds only), so they stay out of the workload's counts.
    pub fn sample(&mut self, allocs_before: &mut Option<(u64, u64)>) {
        let a = crate::alloc::snapshot();
        self.samples_ms.push(reference_ms());
        *allocs_before = allocs_before
            .zip(a.zip(crate::alloc::snapshot()))
            .map(|(base, (a, b))| (base.0 + b.0 - a.0, base.1 + b.1 - a.1));
    }

    pub fn merge(&mut self, other: &HostSpeed) {
        self.samples_ms.extend_from_slice(&other.samples_ms);
    }

    /// How much slower than [`REFERENCE_MS`] the kernel ran over the run
    /// (median of the samples): divide a wall time by it, multiply a rate.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_ms) / REFERENCE_MS
    }

    /// The raw facts behind the scaling, for the detailed report: the
    /// measured wall times are the reported ones times `host.slowdown`.
    pub fn report(&self, m: &mut Metrics) {
        m.num("host.reference_ms", median(&self.samples_ms), "ms");
        m.num("host.slowdown", self.slowdown(), "ratio");
        m.num("host.samples", self.samples_ms.len() as f64, "count");
    }
}
