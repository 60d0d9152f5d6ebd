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
//! A grid is a list of [`Job`]s, one chain at `(n, p)` over a list of
//! data sizes each, and [`run_jobs`] runs them on all cores, returning
//! every point bit-identical to its chain run alone on a fresh
//! [`Simulator`], whatever the thread count. The Figure 2 chain sizes its
//! pipe from the data, so its runs at different sizes share nothing and
//! each is a task of its own. The bounded-pipe rate chain runs as a
//! *ladder*: its producer reads the data size only once fewer than a
//! batch of packets remains, so its runs at different sizes agree event
//! for event until close to the smaller size's end. A ladder runs the
//! chain once, at the largest size, and at each smaller size forks a copy
//! of the simulator and launch just before the step that could first
//! tell them apart, finishing the copy with a producer that stops at that
//! size.

use std::cmp::Reverse;
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::channel::ChannelId;
use crate::device::DeviceSpec;
use crate::engine::{DeadlockError, Simulator};
use crate::kernel::{ChannelView, KernelDesc, ResourceUsage, Work, WorkSource, WorkUnit};
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

    let total_packets = packets(data_bytes, packet_bytes);
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

    (
        point(spec, n, packet_bytes, data_bytes, profile.elapsed_cycles),
        profile,
    )
}

/// A calibration point from a chain's elapsed cycles.
fn point(
    spec: &DeviceSpec,
    n: u32,
    packet_bytes: u32,
    data_bytes: u64,
    elapsed_cycles: u64,
) -> CalibrationPoint {
    let cycles = elapsed_cycles.max(1);
    // Eq. 6 costs steady-state transfers inside a running pipeline —
    // strip the one-off launch/fill overhead (bounded below so tiny runs
    // do not divide by nothing).
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

/// Packets a chain passes for `data_bytes` of data.
fn packets(data_bytes: u64, packet_bytes: u32) -> u64 {
    data_bytes.div_ceil(packet_bytes as u64).max(1)
}

/// The bounded-buffer chain of [`run_channel_rate`], set up on a fresh
/// simulator: its pipe and the consumer's result cell.
struct RateChain {
    ch: ChannelId,
    out_base: u64,
    wavefront: u64,
}

impl RateChain {
    fn new(sim: &mut Simulator, n: u32, packet_bytes: u32) -> Self {
        let ch = sim.create_channel(n, packet_bytes);
        let out = sim.mem.alloc(256, RegionClass::Output, "rate-out");
        RateChain {
            ch,
            out_base: sim.mem.base(out),
            wavefront: sim.spec().wavefront_size as u64,
        }
    }

    /// The producer of a `total`-packet run, `produced` packets into it.
    fn producer(&self, mut produced: u64, total: u64) -> Box<dyn WorkSource> {
        let (ch, wavefront) = (self.ch, self.wavefront);
        Box::new(move |view: &dyn ChannelView| {
            if produced == total {
                return Work::Done;
            }
            let k = view.space(ch).min(PRODUCER_BATCH).min(total - produced);
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
        })
    }

    /// The consumer, which keeps no state of its own.
    fn consumer(&self) -> Box<dyn WorkSource> {
        let (ch, wavefront, out_base) = (self.ch, self.wavefront, self.out_base);
        Box::new(move |view: &dyn ChannelView| {
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
        })
    }

    /// Both kernels of a `total`-packet run, from its start.
    fn kernels(&self, total: u64) -> Vec<KernelDesc> {
        let resources = ResourceUsage::new(self.wavefront as u32, 128, 1024);
        vec![
            KernelDesc::new(
                "rate_producer",
                resources,
                CHAIN_WGS,
                self.producer(0, total),
            )
            .writes_channel(self.ch),
            KernelDesc::new("rate_consumer", resources, CHAIN_WGS, self.consumer())
                .reads_channel(self.ch),
        ]
    }
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
    let chain = RateChain::new(&mut sim, n, packet_bytes);
    let profile = sim.run(chain.kernels(packets(data_bytes, packet_bytes)));
    point(spec, n, packet_bytes, data_bytes, profile.elapsed_cycles)
}

/// How far below a smaller size's packet count a ladder's pushed count
/// must stay for its next step to be shared with that size's run. A step
/// polls the producer only while fewer than `CHAIN_WGS` of its
/// work-groups are in flight, so its polls see at most `CHAIN_WGS - 1`
/// batches pushed past the boundary, and the producer reads its total
/// only once fewer than a batch remain: `CHAIN_WGS` batches suffice, and
/// one more is slack.
const LADDER_MARGIN: u64 = (CHAIN_WGS as u64 + 1) * PRODUCER_BATCH;

/// [`run_channel_rate`] at every size in `data_sizes`, in that order,
/// bit-identical to each run alone, from one simulated chain: it runs
/// at the largest size, and at every smaller size forks a copy whose
/// producer stops there, as long as no step so far could have seen the
/// difference.
fn run_rate_ladder(
    spec: &DeviceSpec,
    n: u32,
    packet_bytes: u32,
    data_sizes: &[u64],
) -> Vec<CalibrationPoint> {
    let mut sizes = data_sizes.to_vec();
    sizes.sort_unstable();
    sizes.dedup();
    let Some((&largest, smaller)) = sizes.split_last() else {
        return Vec::new();
    };
    let mut sim = Simulator::new(spec.clone());
    let chain = RateChain::new(&mut sim, n, packet_bytes);
    let ControlFlow::Continue(mut base) = sim.begin(chain.kernels(packets(largest, packet_bytes)))
    else {
        unreachable!("a simulator without a fault plan admits every launch")
    };
    // The chain cannot stall; a deadlock panics, as in `Simulator::run`.
    fn expect<T>(r: Result<T, DeadlockError>) -> T {
        r.unwrap_or_else(|e| panic!("{e}"))
    }
    // Every fork is copied into this one simulator.
    let mut forked = Simulator::new(spec.clone());
    // Elapsed cycles per size, in `sizes` order.
    let mut cycles = Vec::with_capacity(sizes.len());
    for &d in smaller {
        let total = packets(d, packet_bytes);
        while sim.channel_stats(chain.ch).packets_pushed + LADDER_MARGIN <= total {
            assert!(
                !expect(sim.step(&mut base)),
                "the larger run outlasts every smaller one"
            );
        }
        // Every step so far began inside the margin, so this boundary is
        // still a state of `d`'s own run.
        let pushed = sim.channel_stats(chain.ch).packets_pushed;
        let sources = vec![chain.producer(pushed, total), chain.consumer()];
        let launch = sim.fork(&base, sources, &mut forked);
        cycles.push(expect(forked.complete(launch)).elapsed_cycles);
    }
    cycles.push(expect(sim.complete(base)).elapsed_cycles);
    data_sizes
        .iter()
        .map(|&d| {
            let i = sizes.binary_search(&d).expect("every size ran");
            point(spec, n, packet_bytes, d, cycles[i])
        })
        .collect()
}

/// Which producer→consumer chain a [`Job`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// [`run_channel_rate`]: the bounded-buffer steady rate.
    Rate,
    /// [`run_producer_consumer`]: the Figure 2 chain, pipe sized to the data.
    Unbounded,
}

/// One chain at `(n, p)`, measured at every size in `data_sizes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    pub chain: Chain,
    pub n: u32,
    pub packet_bytes: u32,
    pub data_sizes: Vec<u64>,
}

/// Run every job, on all cores, and return their points in `jobs` order,
/// each job's in `data_sizes` order: every point bit-identical to its
/// chain run alone. A [`Chain::Rate`] job is one task, a ladder over its
/// sizes; a [`Chain::Unbounded`] job sizes its pipe from the data, so
/// each of its points is a task of its own. The longest tasks start
/// first.
pub fn run_jobs(spec: &DeviceSpec, jobs: &[Job]) -> Vec<CalibrationPoint> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    run_jobs_on(spec, jobs, workers)
}

/// [`run_jobs`] on `workers` threads, the calling one included. A task is
/// a job's run over some of its sizes; workers claim tasks in descending
/// packet count of their largest size, so the longest runs start first,
/// and each point lands at its own index.
fn run_jobs_on(spec: &DeviceSpec, jobs: &[Job], workers: usize) -> Vec<CalibrationPoint> {
    let mut tasks: Vec<(usize, Range<usize>)> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        match job.chain {
            Chain::Rate => tasks.push((j, 0..job.data_sizes.len())),
            Chain::Unbounded => tasks.extend((0..job.data_sizes.len()).map(|i| (j, i..i + 1))),
        }
    }
    tasks.sort_by_key(|(j, sizes)| {
        let job = &jobs[*j];
        let largest = job.data_sizes[sizes.clone()].iter().max().copied();
        Reverse(largest.unwrap_or(0) / job.packet_bytes as u64)
    });
    let run = |(j, sizes): &(usize, Range<usize>)| {
        let job = &jobs[*j];
        let ds = &job.data_sizes[sizes.clone()];
        match job.chain {
            Chain::Rate => run_rate_ladder(spec, job.n, job.packet_bytes, ds),
            Chain::Unbounded => ds
                .iter()
                .map(|&d| run_producer_consumer(spec, job.n, job.packet_bytes, d))
                .collect(),
        }
    };
    // `Relaxed`: the counter only hands out indices; a helper's points come
    // back through `join`, which orders them before they are read.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some(task) = tasks.get(next.fetch_add(1, Ordering::Relaxed)) {
            done.push((task, run(task)));
        }
        done
    };
    let mut points: Vec<Vec<Option<CalibrationPoint>>> = jobs
        .iter()
        .map(|job| vec![None; job.data_sizes.len()])
        .collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(tasks.len()))
            .map(|_| s.spawn(work))
            .collect();
        let mut done = work();
        for h in helpers {
            done.extend(h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        for ((j, sizes), pts) in done {
            for (slot, p) in points[*j][sizes.clone()].iter_mut().zip(pts) {
                *slot = Some(p);
            }
        }
    });
    points
        .into_iter()
        .flatten()
        .map(|p| p.expect("every point measured once"))
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
    let mut jobs = Vec::with_capacity(ns.len() * packet_sizes.len());
    for &n in ns {
        for &packet_bytes in packet_sizes {
            jobs.push(Job {
                chain: Chain::Unbounded,
                n,
                packet_bytes,
                data_sizes: data_sizes.to_vec(),
            });
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
    use crate::device::{amd_a10, cpu_host, nvidia_k40};

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
                jobs.push(Job {
                    chain,
                    n,
                    packet_bytes: p,
                    data_sizes: vec![64 << 10, 1 << 20, 256 << 10],
                });
            }
        }
        let mut alone = Vec::new();
        for job in &jobs {
            let run = match job.chain {
                Chain::Rate => run_channel_rate,
                Chain::Unbounded => run_producer_consumer,
            };
            for &d in &job.data_sizes {
                alone.push(bits(&run(&spec, job.n, job.packet_bytes, d)));
            }
        }
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
    fn every_ladder_point_equals_its_run_alone() {
        // Unsorted, with a duplicate. 64 KiB is below the fork margin at
        // every packet size here, so its fork comes before the first
        // step: a straight run.
        let ds = [1 << 20, 64 << 10, 4 << 20, 256 << 10, 1 << 20];
        for spec in [amd_a10(), nvidia_k40(), cpu_host()] {
            let ps = if spec.channel.tunable_packet_size {
                vec![8, 64]
            } else {
                vec![spec.channel.fixed_packet_bytes]
            };
            for n in [1, 4] {
                for &p in &ps {
                    assert!(packets(64 << 10, p) < LADDER_MARGIN);
                    let ladder: Vec<_> =
                        run_rate_ladder(&spec, n, p, &ds).iter().map(bits).collect();
                    let alone: Vec<_> = ds
                        .iter()
                        .map(|&d| bits(&run_channel_rate(&spec, n, p, d)))
                        .collect();
                    assert_eq!(ladder, alone, "{} n={n} p={p}", spec.name);
                }
            }
        }
        // On a pipe this wide the first step dispatches every producer
        // work-group, polling it up to `CHAIN_WGS - 1` batches in: a size
        // that many batches long would clip inside that step, so the
        // ladder must not share it.
        let (spec, d) = (amd_a10(), (CHAIN_WGS as u64 * PRODUCER_BATCH - 1) * 8);
        let ladder: Vec<_> = run_rate_ladder(&spec, 16, 8, &[d, 1 << 20]);
        assert_eq!(bits(&ladder[0]), bits(&run_channel_rate(&spec, 16, 8, d)));
        assert!(run_rate_ladder(&spec, 1, 16, &[]).is_empty());
    }

    #[test]
    fn figure2_sizes_cover_512k_to_8m_ints() {
        let s = figure2_data_sizes();
        assert_eq!(s.first(), Some(&(512 * 1024 * 4)));
        assert_eq!(s.last(), Some(&(8 * 1024 * 1024 * 4)));
    }
}
