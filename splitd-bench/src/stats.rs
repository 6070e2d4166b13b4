//! Order statistics, the steal-filtered end-to-end figures, and the host
//! probes.

use crate::workload::{Op, Phase};
use std::time::Instant;

/// Length of the slices a timed phase is cut into.
pub const SLICE_NS: u64 = 500_000_000;

/// End-to-end figures of a timed phase, taken over its clean slices:
/// those in which the hypervisor stole no more CPU time from this host
/// than in the median slice. Other guests on the same machine take CPU
/// time in bursts of seconds; the slices they hit hardest are dropped
/// instead of moving the reported values, and a phase without stolen
/// time keeps every slice.
pub struct Clean {
    pub slices: usize,
    pub kept: usize,
    pub ops: usize,
    pub throughput_rps: f64,
    pub p50_ms: f64,
    pub tail_ms: f64,
}

/// Pools the operations of `phase`'s clean slices and reports their
/// throughput (operations over the summed slice spans), median latency
/// and `tail`-percentile latency.
pub fn clean(phase: &Phase, tail: f64) -> Clean {
    let steal: Vec<u64> = phase.slice_steal.windows(2).map(|w| w[1] - w[0]).collect();
    let mut sorted = steal.clone();
    sorted.sort_unstable();
    let limit = sorted[(sorted.len() - 1) / 2];
    let (mut ms, mut span_ns, mut kept) = (Vec::new(), 0u64, 0);
    for (k, _) in steal.iter().enumerate().filter(|(_, &s)| s <= limit) {
        kept += 1;
        let ops: Vec<&Op> = phase.ops.iter().filter(|op| op.slice == k).collect();
        let (Some(first), Some(last)) = (ops.first(), ops.last()) else {
            continue;
        };
        span_ns += last.done_ns - (first.done_ns - first.latency_ns);
        ms.extend(ops.iter().map(|op| op.latency_ns as f64 / 1e6));
    }
    Clean {
        slices: steal.len(),
        kept,
        ops: ms.len(),
        throughput_rps: ms.len() as f64 / (span_ns as f64 / 1e9),
        p50_ms: median(&ms),
        tail_ms: percentile(&ms, tail),
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Nearest-rank percentile of `values` (0 when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Times a fixed memory walk that does not use the repository: a
/// pointer chase through a 32 MiB single-cycle permutation. Its
/// seconds show how fast the host is right now; the benchmark records
/// them next to the results and never rescales a metric by them.
pub fn host_probe_s() -> f64 {
    const LEN: usize = 1 << 23;
    const STEPS: usize = 1 << 21;
    // Sattolo's algorithm with a fixed LCG: one cycle through every slot
    let mut next: Vec<u32> = (0..LEN as u32).collect();
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..LEN).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % i;
        next.swap(i, j);
    }
    let t = Instant::now();
    let mut at = 0u32;
    for _ in 0..STEPS {
        at = next[at as usize];
    }
    std::hint::black_box(at);
    t.elapsed().as_secs_f64()
}

/// CPU time the hypervisor gave to other guests while this host's
/// CPUs wanted to run: the `steal` column of `/proc/stat`, in clock
/// ticks (1/100 s) summed over CPUs; 0 where the kernel does not
/// report it.
pub fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}
