//! Device specifications (Table 1 of the paper).
//!
//! A [`DeviceSpec`] captures every *platform input* of the analytical model
//! (Table 2): number of compute units, per-instruction issue cost `w`,
//! concurrency degree `C`, memory and cache latencies, and the private /
//! local memory capacities that bound work-group residency (Eq. 2).
//!
//! Two factory profiles mirror the paper's experimental hardware: the AMD
//! A10 APU ([`amd_a10`]) and the NVIDIA Tesla K40 ([`nvidia_k40`]).

/// Channel (OpenCL 2.0 pipe / CUDA direct-data-transfer) characteristics.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSpec {
    /// Cycles for a work-group to reserve space in a pipe before writing.
    pub reserve_cycles: u64,
    /// Cycles for the light-weight work-group-scope synchronization that
    /// publishes written packets to the consumer (Section 3.4, Figure 9).
    pub sync_cycles: u64,
    /// Bytes per cycle a single channel port can move. A channel serializes
    /// transfers on its port, so more channels give more aggregate
    /// throughput (until their buffers overflow the cache).
    pub port_bytes_per_cycle: u64,
    /// Maximum number of channels between two kernels. The paper observes
    /// throughput degrades past 16, so the model searches n in [1, 16].
    pub max_channels: u32,
    /// Per-channel buffer capacity in packets.
    pub capacity_packets: u32,
    /// Whether the platform exposes the packet size as a tunable (AMD pipes
    /// do; NVIDIA's mechanism fixes it — Appendix A.1).
    pub tunable_packet_size: bool,
    /// Packet size used when the platform does not expose it as a tunable.
    pub fixed_packet_bytes: u32,
}

/// Full specification of a simulated GPU (Table 1 + platform inputs of
/// Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Human-readable name, e.g. `"AMD A10 APU"`.
    pub name: String,
    /// Vendor tag used by the cost model to pick Eq. 1 vs Eq. 11.
    pub vendor: Vendor,
    /// Number of compute units (`#CU`).
    pub num_cus: u32,
    /// Core frequency in MHz (only used to convert cycles to wall time for
    /// reporting; the simulator itself is cycle-accurate).
    pub core_freq_mhz: u32,
    /// Work-items grouped for lock-step execution (wavefront / warp).
    pub wavefront_size: u32,
    /// Cycles to issue and execute one instruction (`w`; 4 on both GPUs).
    pub issue_cycles: u64,
    /// Concurrency degree `C`: concurrent kernels supported by the device.
    pub concurrency: u32,
    /// Private memory (registers) per CU in bytes (`pm_max`).
    pub private_mem_per_cu: u64,
    /// Local memory per CU in bytes (`lm_max`).
    pub local_mem_per_cu: u64,
    /// Global memory in bytes (capacity only; exceeded = simulation error).
    pub global_mem: u64,
    /// Last-level data cache size in bytes.
    pub cache_bytes: u64,
    /// Cache line size in bytes.
    pub cache_line: u32,
    /// Cache associativity (ways).
    pub cache_assoc: u32,
    /// One-off latency in cycles for a global-memory (cache miss) access
    /// stream (`mem_l`).
    pub mem_latency: u64,
    /// One-off latency in cycles for a cache-hit access stream (`c_l`).
    pub cache_latency: u64,
    /// Sustained global-memory bytes per cycle per CU on the miss path.
    pub mem_bytes_per_cycle: u64,
    /// Sustained cache bytes per cycle per CU on the hit path.
    pub cache_bytes_per_cycle: u64,
    /// Maximum resident work-groups per CU (`wg_max`).
    pub max_wg_per_cu: u32,
    /// Cycles to launch a kernel (host-side dispatch + setup). KBE pays
    /// this once per kernel; GPL (w/o CE) pays it per kernel *per tile*,
    /// which is one of the two overheads Section 5.3.1 attributes to it.
    pub launch_cycles: u64,
    /// Cycles to switch an asynchronous-compute lane between kernels when
    /// more kernels than `C` are interleaved (ACE behaviour on AMD).
    pub lane_switch_cycles: u64,
    /// Channel characteristics.
    pub channel: ChannelSpec,
}

/// GPU vendor, selecting the channel-throughput formulation (Eq. 1 vs 11).
/// `Cpu` marks the simulated CPU profile used by the heterogeneous
/// device pool; it shares AMD's tunable-pipe formulation (its channels
/// are plain shared-memory queues).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vendor {
    Amd,
    Nvidia,
    Cpu,
}

impl DeviceSpec {
    /// Convert a cycle count to milliseconds at this device's clock.
    pub fn cycles_to_ms(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.core_freq_mhz as f64 * 1e3)
    }

    /// Theoretical maximum resident wavefronts on the whole device, used as
    /// the denominator of the kernel-occupancy counter (Section 2.2).
    pub fn max_wavefronts(&self) -> u64 {
        self.num_cus as u64 * self.max_wg_per_cu as u64
    }

    /// Eq. 2: split each CU's private-memory, local-memory and `wg_max`
    /// budgets across `res.len()` co-launched kernels — the one rule the
    /// simulator's launches and the cost model's evaluations share.
    /// Every kernel is guaranteed one resident work-group so pipelines
    /// always make progress; beyond that, slots are handed out
    /// round-robin while they fit, capped by each kernel's own work-group
    /// count spread over the CUs. `kernel(i)` gives kernel i's private
    /// and local bytes per resident work-group and its work-group count.
    /// `want` and `res` (the kernels' length) are overwritten with the
    /// demand and the grant; the budgets are running sums, so a grant is
    /// three compares. Inlined: the cost model's `estimate_stage` calls it
    /// once per evaluation.
    #[inline]
    pub fn residency(
        &self,
        kernel: impl Fn(usize) -> (u64, u64, u32),
        want: &mut [u32],
        res: &mut [u32],
    ) {
        let (mut pm, mut lm) = (0u64, 0u64);
        for i in 0..res.len() {
            let (p, l, wg) = kernel(i);
            want[i] = wg.div_ceil(self.num_cus).max(1);
            res[i] = 1;
            pm += p;
            lm += l;
        }
        let mut wg = res.len() as u64;
        loop {
            let mut grew = false;
            for i in 0..res.len() {
                if res[i] >= want[i] {
                    continue;
                }
                let (p, l, _) = kernel(i);
                if pm + p <= self.private_mem_per_cu
                    && lm + l <= self.local_mem_per_cu
                    && wg < self.max_wg_per_cu as u64
                {
                    res[i] += 1;
                    pm += p;
                    lm += l;
                    wg += 1;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
    }
}

/// The AMD A10 APU used in Section 5 (8 CUs, OpenCL 2.0 pipes, C = 2).
///
/// The coupled architecture shares main memory with the CPU, hence the
/// large (32 GB) global memory and a comparatively large 4 MB cache.
pub fn amd_a10() -> DeviceSpec {
    DeviceSpec {
        name: "AMD A10 APU".to_string(),
        vendor: Vendor::Amd,
        num_cus: 8,
        core_freq_mhz: 720,
        wavefront_size: 64,
        issue_cycles: 4,
        concurrency: 2,
        private_mem_per_cu: 64 * 1024,
        local_mem_per_cu: 32 * 1024,
        global_mem: 32 * 1024 * 1024 * 1024,
        cache_bytes: 4 * 1024 * 1024,
        cache_line: 64,
        cache_assoc: 16,
        mem_latency: 400,
        cache_latency: 80,
        mem_bytes_per_cycle: 4,
        cache_bytes_per_cycle: 32,
        max_wg_per_cu: 40,
        launch_cycles: 15_000,
        lane_switch_cycles: 600,
        channel: ChannelSpec {
            reserve_cycles: 24,
            sync_cycles: 16,
            port_bytes_per_cycle: 32,
            max_channels: 16,
            capacity_packets: 1024,
            tunable_packet_size: true,
            fixed_packet_bytes: 16,
        },
    }
}

/// The NVIDIA Tesla K40 used in Appendix A (15 SMX, CUDA, C = 16).
pub fn nvidia_k40() -> DeviceSpec {
    DeviceSpec {
        name: "NVIDIA Tesla K40".to_string(),
        vendor: Vendor::Nvidia,
        num_cus: 15,
        core_freq_mhz: 875,
        wavefront_size: 32,
        issue_cycles: 4,
        concurrency: 16,
        private_mem_per_cu: 64 * 1024,
        local_mem_per_cu: 48 * 1024,
        global_mem: 12 * 1024 * 1024 * 1024,
        cache_bytes: 3 * 512 * 1024, // 1.5 MB L2
        cache_line: 64,
        cache_assoc: 16,
        mem_latency: 440,
        cache_latency: 96,
        mem_bytes_per_cycle: 6,
        cache_bytes_per_cycle: 48,
        max_wg_per_cu: 16,
        launch_cycles: 12_000,
        lane_switch_cycles: 400,
        channel: ChannelSpec {
            reserve_cycles: 20,
            sync_cycles: 12,
            port_bytes_per_cycle: 48,
            max_channels: 16,
            capacity_packets: 2048,
            tunable_packet_size: false,
            fixed_packet_bytes: 16,
        },
    }
}

/// A simulated host-CPU profile for the heterogeneous device pool.
///
/// The asymmetries follow the coupled CPU-GPU co-processing literature
/// (He et al., arXiv:1307.1955; Shanbhag et al., arXiv:2003.01178):
/// far fewer hardware threads (8 cores × 2 resident groups, SIMD width
/// 8 vs 32/64-wide wavefronts), but a 1-cycle scalar issue pipeline
/// (vs `w = 4` on both GPUs), a large last-level cache with low hit
/// latency, and — the decisive term for tiny kernels — a ~50× cheaper
/// dispatch: a host function call instead of a driver round-trip
/// (`launch_cycles` 300 vs 15 000 / 12 000). Channels degrade to plain
/// in-memory queues with no shared-memory staging: low port throughput,
/// shallow buffers, few ports.
pub fn cpu_host() -> DeviceSpec {
    DeviceSpec {
        name: "Host CPU x86".to_string(),
        vendor: Vendor::Cpu,
        num_cus: 8,
        core_freq_mhz: 3000,
        wavefront_size: 8,
        issue_cycles: 1,
        concurrency: 4,
        private_mem_per_cu: 64 * 1024,
        local_mem_per_cu: 16 * 1024,
        global_mem: 64 * 1024 * 1024 * 1024,
        cache_bytes: 32 * 1024 * 1024,
        cache_line: 64,
        cache_assoc: 16,
        mem_latency: 300,
        cache_latency: 40,
        mem_bytes_per_cycle: 2,
        cache_bytes_per_cycle: 16,
        max_wg_per_cu: 2,
        launch_cycles: 300,
        lane_switch_cycles: 100,
        channel: ChannelSpec {
            reserve_cycles: 8,
            sync_cycles: 4,
            port_bytes_per_cycle: 8,
            max_channels: 4,
            capacity_packets: 256,
            tunable_packet_size: true,
            fixed_packet_bytes: 16,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_amd_matches_paper() {
        let d = amd_a10();
        assert_eq!(d.num_cus, 8);
        assert_eq!(d.core_freq_mhz, 720);
        assert_eq!(d.local_mem_per_cu, 32 * 1024);
        assert_eq!(d.cache_bytes, 4 * 1024 * 1024);
        assert_eq!(d.concurrency, 2);
        assert_eq!(d.wavefront_size, 64);
        assert!(d.channel.tunable_packet_size);
    }

    #[test]
    fn table1_nvidia_matches_paper() {
        let d = nvidia_k40();
        assert_eq!(d.num_cus, 15);
        assert_eq!(d.core_freq_mhz, 875);
        assert_eq!(d.local_mem_per_cu, 48 * 1024);
        assert_eq!(d.cache_bytes, 1536 * 1024);
        assert_eq!(d.concurrency, 16);
        assert!(!d.channel.tunable_packet_size);
    }

    #[test]
    fn cache_geometry_is_consistent() {
        let d = amd_a10();
        let cache = crate::cache::CacheSim::new(d.cache_bytes, d.cache_line, d.cache_assoc);
        assert_eq!(cache.capacity_lines() * cache.line_bytes(), d.cache_bytes);
    }

    #[test]
    fn cycles_to_ms_uses_clock() {
        let d = amd_a10();
        // 720 MHz => 720_000 cycles per ms.
        assert!((d.cycles_to_ms(720_000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn issue_cost_w_is_four_on_both_platforms() {
        assert_eq!(amd_a10().issue_cycles, 4);
        assert_eq!(nvidia_k40().issue_cycles, 4);
    }

    #[test]
    fn cpu_profile_encodes_the_asymmetries() {
        let c = cpu_host();
        assert_eq!(c.vendor, Vendor::Cpu);
        // Higher per-CU issue rate than either GPU.
        assert!(c.issue_cycles < amd_a10().issue_cycles);
        // Lower parallelism: far fewer resident wavefronts.
        assert!(c.max_wavefronts() < nvidia_k40().max_wavefronts());
        assert!(c.max_wavefronts() < amd_a10().max_wavefronts());
        // Dispatch is a host call, not a driver round-trip.
        assert!(c.launch_cycles * 10 < nvidia_k40().launch_cycles);
        // No shared-memory staging: channel ports are narrow and few.
        assert!(c.channel.port_bytes_per_cycle < amd_a10().channel.port_bytes_per_cycle);
        assert!(c.channel.max_channels < amd_a10().channel.max_channels);
    }
}
