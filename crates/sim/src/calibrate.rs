//! Channel calibration (Section 2.1, Figure 2; Appendix A.1, Figure 23).
//!
//! The paper determines the relationship Γ between channel throughput and
//! the three key parameters — data size `d`, number of channels `n`, and
//! packet size `p` (AMD only) — by running a simple two-kernel chain: a
//! *producer* generates `N` integers and passes them through the channel
//! to a *consumer*, which materializes them. This module implements that
//! exact microbenchmark against the simulator; `gpl-model` tabulates the
//! results as the Γ input of Eq. 1 / Eq. 11.
//!
//! The characteristic inverted-U of Figure 2 emerges from the simulated
//! mechanisms: small `N` cannot amortize kernel-launch and pipeline-fill
//! overheads, while a working set larger than the data cache causes
//! write-back thrashing on the consumer side.
//!
//! Every point runs on a fresh [`Simulator`] that shares nothing with any
//! other, so a grid is a list of independent [`Job`]s: [`run_jobs`] runs
//! them on all cores and returns their points in list order, each
//! bit-identical to running that point alone, whatever the thread count.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::device::DeviceSpec;
use crate::engine::Simulator;
use crate::kernel::{ChannelView, KernelDesc, ResourceUsage, Work, WorkUnit};
use crate::mem::{MemRange, RegionClass};

/// One calibration measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationPoint {
    /// Number of channels `n`.
    pub n: u32,
    /// Packet size `p` in bytes.
    pub packet_bytes: u32,
    /// Total data size `d` in bytes.
    pub data_bytes: u64,
    /// Elapsed device cycles for the whole chain.
    pub cycles: u64,
    /// End-to-end throughput in bytes per cycle, launch overhead
    /// included — what Figure 2 plots.
    pub throughput: f64,
    /// Steady-state throughput with the one-off launch/fill overhead
    /// stripped — the Γ(n, p, d) the cost model's Eq. 6 consumes.
    pub steady_throughput: f64,
}

/// Work-groups used by each side of the chain. Enough to feed all 16
/// ports on either device.
const CHAIN_WGS: u32 = 32;
/// Packets a producer work-group reserves per quantum. The pipe is sized
/// for the whole data set (the paper's third channel parameter is "the
/// total size of data to be passed"), so nothing throttles the producer
/// and it streams large reservations.
const PRODUCER_BATCH: u64 = 256;
/// Packets a consumer work-group drains per quantum: consumers poll the
/// pipe and take what one reservation exposes.
const CONSUMER_BATCH: u64 = 64;

/// Run the producer→consumer chain once on a fresh (cold) device and
/// measure channel throughput.
pub fn run_producer_consumer(
    spec: &DeviceSpec,
    n: u32,
    packet_bytes: u32,
    data_bytes: u64,
) -> CalibrationPoint {
    run_producer_consumer_profiled(spec, n, packet_bytes, data_bytes).0
}

/// As [`run_producer_consumer`], also returning the launch profile (used
/// by the Figure 2 analysis and diagnostics).
pub fn run_producer_consumer_profiled(
    spec: &DeviceSpec,
    n: u32,
    packet_bytes: u32,
    data_bytes: u64,
) -> (CalibrationPoint, crate::counters::LaunchProfile) {
    let mut sim = Simulator::new(spec.clone());
    // Buffers are sized to the data — the paper's third channel parameter
    // is "the total size of data to be passed", so the pipe holds all of
    // it and nothing throttles the producer. A consumer lagging behind is
    // then up to the whole working set behind, and once the in-flight
    // ring footprint exceeds the cache, packet reads miss — the Figure 2
    // collapse.
    let cap_per_port = (data_bytes / (n as u64 * packet_bytes as u64)).clamp(64, 1 << 22) as u32;
    let ch = sim.create_channel_with_capacity(n, packet_bytes, cap_per_port);
    // A small result cell: the consumer folds packets into a checksum, so
    // the chain measures the channel mechanism itself rather than any
    // global-memory materialization.
    let out = sim.mem.alloc(256, RegionClass::Output, "calib-out");
    let out_base = sim.mem.base(out);

    let total_packets = data_bytes.div_ceil(packet_bytes as u64).max(1);
    let ints_per_packet = (packet_bytes as u64 / 4).max(1);
    let wavefront = spec.wavefront_size as u64;

    // Producer: generate integers (pure compute) and push packets.
    let mut produced = 0u64;
    let producer = move |view: &dyn ChannelView| {
        if produced == total_packets {
            return Work::Done;
        }
        let k = view
            .space(ch)
            .min(PRODUCER_BATCH)
            .min(total_packets - produced);
        if k == 0 {
            return Work::Wait;
        }
        produced += k;
        Work::Unit(
            WorkUnit {
                // ~2 instructions per generated integer, issued per
                // wavefront lane.
                compute_insts: (2 * k * ints_per_packet).div_ceil(wavefront),
                mem_insts: 0,
                ..Default::default()
            }
            .push(ch, k),
        )
    };

    // Consumer: pop packets and fold them into a checksum. Heavier per
    // integer than the producer, so a backlog builds up in the pipe.
    let consumer = move |view: &dyn ChannelView| {
        let avail = view.available(ch);
        if avail == 0 {
            return if view.eof(ch) { Work::Done } else { Work::Wait };
        }
        let k = avail.min(CONSUMER_BATCH);
        let u = WorkUnit {
            compute_insts: (8 * k * ints_per_packet).div_ceil(wavefront),
            mem_insts: k.div_ceil(wavefront),
            accesses: vec![MemRange::write(out_base, 8)],
            ..Default::default()
        }
        .pop(ch, k);
        Work::Unit(u)
    };

    let resources = ResourceUsage::new(spec.wavefront_size, 128, 1024);
    let profile = sim.run(vec![
        KernelDesc::new("calib_producer", resources, CHAIN_WGS, Box::new(producer))
            .writes_channel(ch),
        KernelDesc::new("calib_consumer", resources, CHAIN_WGS, Box::new(consumer))
            .reads_channel(ch),
    ]);

    let cycles = profile.elapsed_cycles.max(1);
    // Eq. 6 costs steady-state transfers inside a running pipeline —
    // strip the one-off launch/fill overhead (bounded below so tiny runs
    // do not divide by nothing).
    let steady = cycles
        .saturating_sub(2 * spec.launch_cycles)
        .max(cycles / 4);
    (
        CalibrationPoint {
            n,
            packet_bytes,
            data_bytes,
            cycles,
            throughput: data_bytes as f64 / cycles as f64,
            steady_throughput: data_bytes as f64 / steady as f64,
        },
        profile,
    )
}

/// Measure the *bounded-buffer* steady channel rate: a minimal-compute
/// producer→consumer chain with the device's default pipe capacity. This
/// is the regime a GPL pipeline operates in (channel buffers are sized to
/// the tile and bounded), so it is what the cost model's Eq. 6 should
/// consume — whereas [`run_producer_consumer`] reproduces the paper's
/// Figure 2 microbenchmark, whose pipe holds the entire data set and
/// collapses once it outgrows the cache.
pub fn run_channel_rate(
    spec: &DeviceSpec,
    n: u32,
    packet_bytes: u32,
    data_bytes: u64,
) -> CalibrationPoint {
    let mut sim = Simulator::new(spec.clone());
    let ch = sim.create_channel(n, packet_bytes);
    let out = sim.mem.alloc(256, RegionClass::Output, "rate-out");
    let out_base = sim.mem.base(out);
    let total_packets = data_bytes.div_ceil(packet_bytes as u64).max(1);
    let wavefront = spec.wavefront_size as u64;

    let mut produced = 0u64;
    let producer = move |view: &dyn ChannelView| {
        if produced == total_packets {
            return Work::Done;
        }
        let k = view
            .space(ch)
            .min(PRODUCER_BATCH)
            .min(total_packets - produced);
        if k == 0 {
            return Work::Wait;
        }
        produced += k;
        Work::Unit(
            WorkUnit {
                compute_insts: k.div_ceil(wavefront),
                ..Default::default()
            }
            .push(ch, k),
        )
    };
    let consumer = move |view: &dyn ChannelView| {
        let avail = view.available(ch);
        if avail == 0 {
            return if view.eof(ch) { Work::Done } else { Work::Wait };
        }
        let k = avail.min(PRODUCER_BATCH);
        Work::Unit(
            WorkUnit {
                compute_insts: k.div_ceil(wavefront),
                accesses: vec![MemRange::write(out_base, 8)],
                ..Default::default()
            }
            .pop(ch, k),
        )
    };
    let resources = ResourceUsage::new(spec.wavefront_size, 128, 1024);
    let profile = sim.run(vec![
        KernelDesc::new("rate_producer", resources, CHAIN_WGS, Box::new(producer))
            .writes_channel(ch),
        KernelDesc::new("rate_consumer", resources, CHAIN_WGS, Box::new(consumer))
            .reads_channel(ch),
    ]);
    let cycles = profile.elapsed_cycles.max(1);
    let steady = cycles
        .saturating_sub(2 * spec.launch_cycles)
        .max(cycles / 4);
    CalibrationPoint {
        n,
        packet_bytes,
        data_bytes,
        cycles,
        throughput: data_bytes as f64 / cycles as f64,
        steady_throughput: data_bytes as f64 / steady as f64,
    }
}

/// Which producer→consumer chain a [`Job`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// [`run_channel_rate`]: the bounded-buffer steady rate.
    Rate,
    /// [`run_producer_consumer`]: the Figure 2 chain, pipe sized to the data.
    Unbounded,
}

/// One calibration point to measure: a chain at `(n, p, d)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    pub chain: Chain,
    pub n: u32,
    pub packet_bytes: u32,
    pub data_bytes: u64,
}

impl Job {
    fn run(&self, spec: &DeviceSpec) -> CalibrationPoint {
        let run = match self.chain {
            Chain::Rate => run_channel_rate,
            Chain::Unbounded => run_producer_consumer,
        };
        run(spec, self.n, self.packet_bytes, self.data_bytes)
    }
}

/// Run every job, on all cores, and return their points in `jobs` order.
pub fn run_jobs(spec: &DeviceSpec, jobs: &[Job]) -> Vec<CalibrationPoint> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_jobs_on(spec, jobs, workers)
}

/// [`run_jobs`] on `workers` threads, the calling one included. Workers
/// claim jobs in descending packet count `d / p`, so the longest runs
/// start first, and each result lands at its job's index.
fn run_jobs_on(spec: &DeviceSpec, jobs: &[Job], workers: usize) -> Vec<CalibrationPoint> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| Reverse(jobs[i].data_bytes / jobs[i].packet_bytes as u64));
    // `Relaxed`: the counter only hands out indices; a helper's points come
    // back through `join`, which orders them before they are read.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((i, jobs[i].run(spec)));
        }
        done
    };
    let mut points = vec![None; jobs.len()];
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(jobs.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        for (i, p) in done {
            points[i] = Some(p);
        }
    });
    points
        .into_iter()
        .map(|p| p.expect("every job claimed once"))
        .collect()
}

/// Sweep the Figure 2 / Figure 23 grid of the unbounded chain, `n`
/// outermost and `d` innermost. On platforms without a tunable packet
/// size (NVIDIA, Appendix A.1) callers pass a single packet size.
pub fn calibrate(
    spec: &DeviceSpec,
    ns: &[u32],
    packet_sizes: &[u32],
    data_sizes: &[u64],
) -> Vec<CalibrationPoint> {
    let mut jobs = Vec::with_capacity(ns.len() * packet_sizes.len() * data_sizes.len());
    for &n in ns {
        for &packet_bytes in packet_sizes {
            for &data_bytes in data_sizes {
                jobs.push(Job {
                    chain: Chain::Unbounded,
                    n,
                    packet_bytes,
                    data_bytes,
                });
            }
        }
    }
    run_jobs(spec, &jobs)
}

/// The data sizes of Figure 2 / Figure 23: N from 512K to 8M integers.
pub fn figure2_data_sizes() -> Vec<u64> {
    [512 * 1024u64, 1 << 20, 2 << 20, 4 << 20, 8 << 20]
        .iter()
        .map(|ints| ints * 4)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{amd_a10, nvidia_k40};

    #[test]
    fn throughput_has_inverted_u_shape_in_data_size() {
        let spec = amd_a10();
        // 64 KiB (tiny), 4 MiB (≈ cache), 32 MiB (thrashes).
        let small = run_producer_consumer(&spec, 4, 16, 64 << 10);
        let sweet = run_producer_consumer(&spec, 4, 16, 4 << 20);
        let large = run_producer_consumer(&spec, 4, 16, 32 << 20);
        assert!(
            sweet.throughput > small.throughput,
            "sweet {} !> small {}",
            sweet.throughput,
            small.throughput
        );
        assert!(
            sweet.throughput > large.throughput,
            "sweet {} !> large {}",
            sweet.throughput,
            large.throughput
        );
    }

    #[test]
    fn more_channels_raise_throughput_until_saturation() {
        let spec = amd_a10();
        let t1 = run_producer_consumer(&spec, 1, 16, 2 << 20).throughput;
        let t4 = run_producer_consumer(&spec, 4, 16, 2 << 20).throughput;
        let t16 = run_producer_consumer(&spec, 16, 16, 2 << 20).throughput;
        assert!(t4 > t1, "n=4 ({t4}) must beat n=1 ({t1})");
        assert!(t16 >= t4 * 0.8, "n=16 should not collapse: {t16} vs {t4}");
    }

    #[test]
    fn nvidia_chain_runs() {
        let spec = nvidia_k40();
        let p = run_producer_consumer(&spec, 8, 16, 1 << 20);
        assert!(p.throughput > 0.0);
        assert!(p.cycles > 0);
    }

    #[test]
    fn calibration_grid_has_all_points() {
        let spec = amd_a10();
        let (ns, ps, ds) = ([1u32, 2], [16u32, 32], [1u64 << 16, 1 << 18]);
        let pts: Vec<_> = calibrate(&spec, &ns, &ps, &ds).iter().map(bits).collect();
        // Deterministic and in grid order: the sequential sweep, bit for bit.
        let mut sequential = Vec::new();
        for &n in &ns {
            for &p in &ps {
                for &d in &ds {
                    sequential.push(bits(&run_producer_consumer(&spec, n, p, d)));
                }
            }
        }
        assert_eq!(pts.len(), 8);
        assert_eq!(pts, sequential);
    }

    fn bits(p: &CalibrationPoint) -> (u32, u32, u64, u64, u64, u64) {
        (
            p.n,
            p.packet_bytes,
            p.data_bytes,
            p.cycles,
            p.throughput.to_bits(),
            p.steady_throughput.to_bits(),
        )
    }

    #[test]
    fn fan_out_is_bit_identical_to_each_point_alone() {
        let spec = amd_a10();
        let mut jobs = Vec::new();
        for chain in [Chain::Rate, Chain::Unbounded] {
            for (n, p) in [(1, 16), (4, 8), (2, 64)] {
                for d in [64 << 10, 1 << 20, 256 << 10] {
                    jobs.push(Job {
                        chain,
                        n,
                        packet_bytes: p,
                        data_bytes: d,
                    });
                }
            }
        }
        let alone: Vec<_> = jobs.iter().map(|j| bits(&j.run(&spec))).collect();
        for workers in [1, 3, jobs.len() + 5] {
            let got: Vec<_> = run_jobs_on(&spec, &jobs, workers)
                .iter()
                .map(bits)
                .collect();
            assert_eq!(got, alone, "{workers} workers");
        }
        assert!(run_jobs(&spec, &[]).is_empty());
    }

    #[test]
    fn figure2_sizes_cover_512k_to_8m_ints() {
        let s = figure2_data_sizes();
        assert_eq!(s.first(), Some(&(512 * 1024 * 4)));
        assert_eq!(s.last(), Some(&(8 * 1024 * 1024 * 4)));
    }
}
