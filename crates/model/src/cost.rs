//! The analytical cost model (Section 4.1, Eq. 2–9).
//!
//! Given a [`StageModel`], a device, the calibrated Γ table and a
//! candidate configuration (Δ, n, p, wg_Ki), estimate the segment's
//! execution time:
//!
//! * **Eq. 2** — residency: the device's own grant,
//!   [`DeviceSpec::residency`], the rule every simulated launch applies.
//! * **Eq. 3/4** — computation cost: `(c_inst + m_inst) · w`, served by
//!   `a_wg · #CU` work-group slots in `req` rounds.
//! * **Eq. 5** — global-memory cost for leaf kernels (`set_l`) and
//!   post-blocking kernels (`set_b`), split by the cache-hit surrogate.
//! * **Eq. 6** — channel cost `Δ·λ / Γ(n, p, Δ·λ)` for the rest.
//! * **Eq. 7** — `T_Ki = c_Ki + m_Ki`.
//! * **Eq. 8** — delay between adjacent kernels of the pipeline.
//! * **Eq. 9** — segment time `(1/C)·Σ T_Ki + delay`.

use crate::analyze::StageModel;
use crate::gamma::GammaTable;
use gpl_core::{gpl, StageConfig};
use gpl_sim::DeviceSpec;

/// Estimated cost of one kernel, per tile (cycles).
#[derive(Debug, Clone, Copy)]
pub struct KernelCost {
    /// Computation cycles (Eq. 4).
    pub c: f64,
    /// Memory cycles: global (Eq. 5) plus channel (Eq. 6).
    pub m: f64,
    /// Channel component of `m` (for the Figure 20 breakdown).
    pub dc: f64,
    /// Resident work-groups per CU granted by Eq. 2.
    pub a_wg: u32,
}

impl KernelCost {
    /// Eq. 7.
    pub fn t(&self) -> f64 {
        self.c + self.m
    }
}

/// Estimated cost of one stage.
#[derive(Debug, Clone)]
pub struct StageEstimate {
    pub per_kernel: Vec<KernelCost>,
    pub num_tiles: u64,
    /// Eq. 8, whole stage.
    pub delay: f64,
    /// Launch and per-tile scheduling overheads.
    pub overhead: f64,
    /// Eq. 9, whole stage (cycles).
    pub total: f64,
}

/// Cache-hit-ratio surrogate for randomly-accessed structures: the
/// fraction of a structure that fits in cache alongside the streaming
/// tile (the "profiling input" `cr_Ki` of Table 2, obtained here in
/// closed form instead of from CodeXL).
fn cr_random(footprint: u64, tile_bytes: u64, cache_bytes: u64) -> f64 {
    if footprint == 0 {
        return 1.0;
    }
    let available = cache_bytes.saturating_sub(tile_bytes.min(cache_bytes / 2)) as f64;
    (available / footprint as f64).clamp(0.05, 1.0)
}

/// Estimate one stage under `cfg` (Eq. 2–9).
pub fn estimate_stage(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    sm: &StageModel,
    cfg: &StageConfig,
) -> StageEstimate {
    sm.ir.validate_config(cfg).unwrap_or_else(|e| panic!("{e}"));
    let tile_rows = (cfg.tile_bytes / sm.row_bytes).clamp(1, sm.driver_rows.max(1));
    let num_tiles = sm.driver_rows.div_ceil(tile_rows).max(1);
    let wavefront = spec.wavefront_size as f64;
    let edge_buffer = gpl::edge_buffer_bytes(cfg.tile_bytes);

    // Eq. 2: the device's own grant.
    let (mut want, mut residency) = (vec![0; sm.kernels.len()], vec![0; sm.kernels.len()]);
    spec.residency(
        |i| {
            let r = &sm.kernels[i].resources;
            (
                r.private_bytes_per_wg(),
                r.local_bytes_per_wg as u64,
                cfg.wg_counts[i],
            )
        },
        &mut want,
        &mut residency,
    );
    let num_cus = spec.num_cus as u64;

    let per_kernel = (sm.kernels.iter().zip(&cfg.wg_counts).zip(residency))
        .map(|((k, &wg), a_wg)| {
            let rows_in = tile_rows as f64 * k.in_ratio;
            let rows_out = rows_in * k.lambda;
            // Eq. 3/4: instruction issue. Vector ALUs serialize the resident
            // work-groups of a CU, so issue bandwidth scales with the number
            // of CUs the kernel's work-groups actually cover — `wg_Ki` and
            // the Eq. 2 residency bound how many that is.
            let insts = rows_in * (k.per_row_compute + k.per_row_mem) as f64 / wavefront;
            let slots = (a_wg as u64 * num_cus).min(wg as u64);
            let used_cus = (slots.min(num_cus)).max(1) as f64;
            let c = insts * spec.issue_cycles as f64 / used_cus;

            // Eq. 5: global memory for the leaf scan (set_l) — a cold stream,
            // so it moves at the miss-path bandwidth — plus random
            // hash-structure traffic split by the cr surrogate.
            let mut m = 0.0;
            if k.scan_bytes_per_row > 0 {
                let bytes =
                    rows_in * k.scan_bytes_per_row as f64 + rows_out * k.lazy_bytes_per_row as f64;
                m += bytes / spec.mem_bytes_per_cycle as f64 / used_cus + spec.mem_latency as f64;
            }
            if k.ht_access_bytes > 0 {
                // Hash-build bucket writes are first touches: whole-line cold
                // misses. Probe reads hit according to the footprint.
                let (bytes, cr) = if k.cold_ht {
                    (rows_in * 64.0, 0.0)
                } else {
                    (
                        rows_in * k.ht_access_bytes as f64,
                        cr_random(k.ht_footprint, cfg.tile_bytes, spec.cache_bytes),
                    )
                };
                m += (bytes * cr / spec.cache_bytes_per_cycle as f64
                    + bytes * (1.0 - cr) / spec.mem_bytes_per_cycle as f64)
                    / used_cus
                    + spec.cache_latency as f64;
            }
            // Eq. 6: channel transfers, in and out, over the calibrated Γ,
            // de-rated by the cache pressure of the in-flight working set
            // (at most an edge's channel buffer).
            let inflight = |d: f64| (d as u64).min(edge_buffer).max(1);
            let mut dc = 0.0;
            if k.in_width > 0 {
                let d = rows_in * k.in_width as f64;
                let g = gamma
                    .lookup(cfg.n_channels, cfg.packet_bytes, d as u64)
                    .max(1e-6);
                dc += d / (g * gamma.pressure(inflight(d)));
            }
            if k.out_width > 0 {
                let d = rows_out * k.out_width as f64;
                if d > 0.0 {
                    let g = gamma
                        .lookup(cfg.n_channels, cfg.packet_bytes, d as u64)
                        .max(1e-6);
                    dc += d / (g * gamma.pressure(inflight(d)));
                }
            }
            // The calibrated Γ covers a full producer→consumer round trip;
            // each endpoint bears half.
            dc *= 0.5;
            m += dc;
            KernelCost { c, m, dc, a_wg }
        })
        .collect::<Vec<_>>();

    // Eq. 8: imbalance between adjacent kernels, accumulated per tile.
    // The ½ is the pairwise-makespan identity max(a, b) = (a+b)/2 +
    // |a−b|/2, which is what the imbalance of two concurrently executing
    // kernels actually costs on top of the Eq. 9 term.
    let delay: f64 = 0.5
        * per_kernel
            .windows(2)
            .map(|w| (w[0].t() - w[1].t()).abs())
            .sum::<f64>()
        * num_tiles as f64;

    // Eq. 9. The effective concurrency is capped by the pipeline depth and
    // by the two hardware pipelines (VALU / memory unit) that actually
    // overlap on a CU — the AMD device's C = 2 coincides with that bound,
    // which is why the paper's 1/C works there.
    let c_eff = spec.concurrency.min(sm.kernels.len() as u32).clamp(1, 2) as f64;
    let sum_t: f64 = per_kernel.iter().map(KernelCost::t).sum::<f64>() * num_tiles as f64;
    // Per-tile overheads beyond Eq. 9: the workload scheduler's dispatch,
    // the pipeline-drain bubble at each tile barrier (downstream kernels
    // finish the last batch with the scan idle — what makes very small
    // tiles "dramatically degrade the data channel efficiency", Section
    // 3.3), and ACE lane interleaving when the pipeline is deeper than `C`.
    let batches_per_tile = (tile_rows as f64 / gpl::SCAN_BATCH_ROWS as f64).max(1.0);
    let bubble: f64 = per_kernel.iter().skip(1).map(KernelCost::t).sum::<f64>() / batches_per_tile
        * num_tiles as f64;
    let lane_cost = spec.lane_switch_cycles as f64
        * (sm.kernels.len() as f64 - spec.concurrency as f64).max(0.0)
        * num_tiles as f64
        * batches_per_tile
        * 0.15;
    let overhead = spec.launch_cycles as f64
        + num_tiles as f64 * gpl::TILE_DISPATCH_INSTS as f64 * spec.issue_cycles as f64
        + bubble
        + lane_cost;
    // Eq. 9 refined with a makespan lower bound: the slowest kernel's total
    // time floors the segment regardless of overlap.
    let slowest = per_kernel.iter().map(KernelCost::t).fold(0.0, f64::max) * num_tiles as f64;
    let total = (sum_t / c_eff + delay).max(slowest) + overhead;
    StageEstimate {
        per_kernel,
        num_tiles,
        delay,
        overhead,
        total,
    }
}

/// Estimate a whole query: the sum of its stage estimates (stages are
/// scheduled one by one, Section 3.1) plus the final sort launch.
pub fn estimate_query(
    spec: &DeviceSpec,
    gamma: &GammaTable,
    models: &[StageModel],
    cfg: &gpl_core::QueryConfig,
    has_sort: bool,
) -> f64 {
    let totals =
        (models.iter().zip(&cfg.stages)).map(|(m, c)| estimate_stage(spec, gamma, m, c).total);
    query_total(spec, totals, has_sort)
}

/// A query's estimate from its stage totals, summed in stage order, plus
/// one launch for the final sort. [`estimate_query`] and the search both
/// sum here, so a search's estimate equals `estimate_query` of its pick
/// to the last bit.
pub(crate) fn query_total(
    spec: &DeviceSpec,
    stage_totals: impl Iterator<Item = f64>,
    has_sort: bool,
) -> f64 {
    let mut total: f64 = stage_totals.sum();
    if has_sort {
        total += spec.launch_cycles as f64;
    }
    total
}

/// `estimate_stage` and `allocate_residency` written without the shared
/// rules: the residency budgets re-summed on every grant, the engine's
/// dispatch and channel-buffer constants restated. Kept as the reference
/// `estimate_stage` must match to the last bit.
#[cfg(test)]
mod reference {
    use super::{cr_random, KernelCost, StageEstimate};
    use crate::analyze::StageModel;
    use crate::gamma::GammaTable;
    use gpl_core::StageConfig;
    use gpl_sim::{DeviceSpec, ResourceUsage};

    pub fn allocate_residency(
        spec: &DeviceSpec,
        kernels: &[(ResourceUsage, u32)], // (resources, wg count)
    ) -> Vec<u32> {
        let want: Vec<u32> = kernels
            .iter()
            .map(|(_, wg)| wg.div_ceil(spec.num_cus).max(1))
            .collect();
        let mut res = vec![1u32; kernels.len()];
        let fits = |res: &[u32], extra: usize| -> bool {
            let mut pm = 0u64;
            let mut lm = 0u64;
            let mut wg = 0u64;
            for (i, (r, _)) in kernels.iter().enumerate() {
                let n = res[i] as u64 + u64::from(i == extra);
                pm += r.private_bytes_per_wg() * n;
                lm += r.local_bytes_per_wg as u64 * n;
                wg += n;
            }
            pm <= spec.private_mem_per_cu
                && lm <= spec.local_mem_per_cu
                && wg <= spec.max_wg_per_cu as u64
        };
        loop {
            let mut grew = false;
            for i in 0..kernels.len() {
                if res[i] < want[i] && fits(&res, i) {
                    res[i] += 1;
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        res
    }

    pub fn estimate_stage(
        spec: &DeviceSpec,
        gamma: &GammaTable,
        sm: &StageModel,
        cfg: &StageConfig,
    ) -> StageEstimate {
        sm.ir.validate_config(cfg).unwrap_or_else(|e| panic!("{e}"));
        let tile_rows = (cfg.tile_bytes / sm.row_bytes).clamp(1, sm.driver_rows.max(1));
        let num_tiles = sm.driver_rows.div_ceil(tile_rows).max(1);
        let wavefront = spec.wavefront_size as f64;

        let residency = allocate_residency(
            spec,
            &sm.kernels
                .iter()
                .zip(&cfg.wg_counts)
                .map(|(k, &wg)| (k.resources, wg))
                .collect::<Vec<_>>(),
        );

        let mut per_kernel = Vec::with_capacity(sm.kernels.len());
        for (i, k) in sm.kernels.iter().enumerate() {
            let rows_in = tile_rows as f64 * k.in_ratio;
            let rows_out = rows_in * k.lambda;
            // Eq. 3/4: instruction issue. Vector ALUs serialize the resident
            // work-groups of a CU, so issue bandwidth scales with the number
            // of CUs the kernel's work-groups actually cover — `wg_Ki` and
            // the Eq. 2 residency bound how many that is.
            let insts = rows_in * (k.per_row_compute + k.per_row_mem) as f64 / wavefront;
            let slots = (residency[i] as u64 * spec.num_cus as u64).min(cfg.wg_counts[i] as u64);
            let used_cus = (slots.min(spec.num_cus as u64)).max(1) as f64;
            let c = insts * spec.issue_cycles as f64 / used_cus;

            // Eq. 5: global memory for the leaf scan (set_l) — a cold stream,
            // so it moves at the miss-path bandwidth — plus random
            // hash-structure traffic split by the cr surrogate.
            let mut m = 0.0;
            if k.scan_bytes_per_row > 0 {
                let bytes =
                    rows_in * k.scan_bytes_per_row as f64 + rows_out * k.lazy_bytes_per_row as f64;
                m += bytes / spec.mem_bytes_per_cycle as f64 / used_cus + spec.mem_latency as f64;
            }
            if k.ht_access_bytes > 0 {
                // Hash-build bucket writes are first touches: whole-line cold
                // misses. Probe reads hit according to the footprint.
                let (bytes, cr) = if k.cold_ht {
                    (rows_in * 64.0, 0.0)
                } else {
                    (
                        rows_in * k.ht_access_bytes as f64,
                        cr_random(k.ht_footprint, cfg.tile_bytes, spec.cache_bytes),
                    )
                };
                m += (bytes * cr / spec.cache_bytes_per_cycle as f64
                    + bytes * (1.0 - cr) / spec.mem_bytes_per_cycle as f64)
                    / used_cus
                    + spec.cache_latency as f64;
            }
            // Eq. 6: channel transfers, in and out, over the calibrated Γ,
            // de-rated by the cache pressure of the in-flight working set
            // (channel buffers hold up to a quarter tile per edge).
            let inflight = |d: f64| (d as u64).min(cfg.tile_bytes / 4).max(1);
            let mut dc = 0.0;
            if k.in_width > 0 {
                let d = rows_in * k.in_width as f64;
                let g = gamma
                    .lookup(cfg.n_channels, cfg.packet_bytes, d as u64)
                    .max(1e-6);
                dc += d / (g * gamma.pressure(inflight(d)));
            }
            if k.out_width > 0 {
                let d = rows_out * k.out_width as f64;
                if d > 0.0 {
                    let g = gamma
                        .lookup(cfg.n_channels, cfg.packet_bytes, d as u64)
                        .max(1e-6);
                    dc += d / (g * gamma.pressure(inflight(d)));
                }
            }
            // The calibrated Γ covers a full producer→consumer round trip;
            // each endpoint bears half.
            dc *= 0.5;
            m += dc;
            per_kernel.push(KernelCost {
                c,
                m,
                dc,
                a_wg: residency[i],
            });
        }

        // Eq. 8: imbalance between adjacent kernels, accumulated per tile.
        // The ½ is the pairwise-makespan identity max(a, b) = (a+b)/2 +
        // |a−b|/2, which is what the imbalance of two concurrently executing
        // kernels actually costs on top of the Eq. 9 term.
        let delay: f64 = 0.5
            * per_kernel
                .windows(2)
                .map(|w| (w[0].t() - w[1].t()).abs())
                .sum::<f64>()
            * num_tiles as f64;

        // Eq. 9. The effective concurrency is capped by the pipeline depth
        // and by the two hardware pipelines (VALU / memory unit) that
        // actually overlap on a CU — the AMD device's C = 2 coincides with
        // that bound, which is why the paper's 1/C works there.
        let c_eff = spec.concurrency.min(sm.kernels.len() as u32).clamp(1, 2) as f64;
        let sum_t: f64 = per_kernel.iter().map(KernelCost::t).sum::<f64>() * num_tiles as f64;
        // Per-tile overheads beyond Eq. 9: the workload scheduler's dispatch,
        // the pipeline-drain bubble at each tile barrier (downstream kernels
        // finish the last batch with the scan idle — what makes very small
        // tiles "dramatically degrade the data channel efficiency",
        // Section 3.3), and ACE lane interleaving when the pipeline is deeper
        // than `C`.
        let batches_per_tile = (tile_rows as f64 / gpl_core::gpl::SCAN_BATCH_ROWS as f64).max(1.0);
        let bubble: f64 = per_kernel.iter().skip(1).map(KernelCost::t).sum::<f64>()
            / batches_per_tile
            * num_tiles as f64;
        let lane_cost = spec.lane_switch_cycles as f64
            * (sm.kernels.len() as f64 - spec.concurrency as f64).max(0.0)
            * num_tiles as f64
            * batches_per_tile
            * 0.15;
        let overhead = spec.launch_cycles as f64
            + num_tiles as f64 * 256.0 * spec.issue_cycles as f64
            + bubble
            + lane_cost;
        // Eq. 9 refined with a makespan lower bound: the slowest kernel's
        // total time floors the segment regardless of overlap.
        let slowest = per_kernel.iter().map(KernelCost::t).fold(0.0, f64::max) * num_tiles as f64;
        let total = (sum_t / c_eff + delay).max(slowest) + overhead;
        StageEstimate {
            per_kernel,
            num_tiles,
            delay,
            overhead,
            total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{channel_grid, packet_grid, tile_grid};
    use crate::{analyze, stats};
    use gpl_core::{plan_for, QueryConfig};
    use gpl_sim::{amd_a10, ResourceUsage};
    use gpl_tpch::{QueryId, TpchDb};

    fn gamma() -> GammaTable {
        gamma_for(&amd_a10())
    }

    /// The Eq. 2 grant `estimate_stage` asks of the device, for kernels of
    /// `(resources, wg count)`.
    fn grant(spec: &DeviceSpec, kernels: &[(ResourceUsage, u32)]) -> Vec<u32> {
        let (mut want, mut res) = (vec![0; kernels.len()], vec![0; kernels.len()]);
        spec.residency(
            |i| {
                let (r, wg) = &kernels[i];
                (r.private_bytes_per_wg(), r.local_bytes_per_wg as u64, *wg)
            },
            &mut want,
            &mut res,
        );
        res
    }

    #[test]
    fn residency_mirrors_simulator_budgets() {
        let spec = amd_a10();
        let big = ResourceUsage::new(64, 64, 16 * 1024);
        let r = grant(&spec, &[(big, 1024), (big, 1024)]);
        assert_eq!(r, vec![1, 1]);
        let small = ResourceUsage::new(64, 64, 1024);
        let r2 = grant(&spec, &[(small, 1024), (small, 1024)]);
        assert!(r2[0] > 4);
        assert!(r2.iter().map(|&x| x as u64).sum::<u64>() <= spec.max_wg_per_cu as u64);
    }

    /// A calibrated-enough Γ for any profile: every other channel count
    /// the device allows (1, 4, 16 under its cap), two packet sizes
    /// where tunable, three data sizes.
    fn gamma_for(spec: &DeviceSpec) -> GammaTable {
        let ns = channel_grid(spec).into_iter().step_by(2).collect();
        let ps = if spec.channel.tunable_packet_size {
            vec![16, 64]
        } else {
            vec![spec.channel.fixed_packet_bytes]
        };
        GammaTable::calibrate_grid(spec, ns, ps, vec![256 << 10, 2 << 20, 16 << 20])
    }

    /// splitmix64, for work-group vectors off the search's grid.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Calls `f` at every (Δ, n, p) point of every stage of every TPC-H
    /// plan on the three device profiles, with `wg_counts` at 4 × #CU.
    /// The channel grid is uncapped on every profile, past the CPU's
    /// fan-out too: the checks below must hold on any config.
    fn for_each_grid_point(mut f: impl FnMut(&DeviceSpec, &GammaTable, &StageModel, StageConfig)) {
        let db = TpchDb::at_scale(0.01);
        for spec in [amd_a10(), gpl_sim::nvidia_k40(), gpl_sim::cpu_host()] {
            let g = gamma_for(&spec);
            for q in QueryId::all() {
                let plan = plan_for(&db, q);
                let st = stats::estimate(&db, &plan);
                for sm in &analyze::build_models(&db, &plan, &st, &spec) {
                    for tile_bytes in tile_grid() {
                        for n_channels in channel_grid(&amd_a10()) {
                            for packet_bytes in packet_grid(&spec) {
                                let cfg = StageConfig {
                                    tile_bytes,
                                    n_channels,
                                    packet_bytes,
                                    wg_counts: vec![4 * spec.num_cus; sm.kernels.len()],
                                    overlap_slices: 0,
                                };
                                f(&spec, &g, sm, cfg);
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_search_estimate_is_estimate_query_of_its_pick() {
        let db = TpchDb::at_scale(0.01);
        for spec in [amd_a10(), gpl_sim::nvidia_k40(), gpl_sim::cpu_host()] {
            let g = gamma_for(&spec);
            for q in QueryId::all() {
                let plan = plan_for(&db, q);
                let st = stats::estimate(&db, &plan);
                let models = analyze::build_models(&db, &plan, &st, &spec);
                let out = crate::search::optimize_models(&spec, &g, &plan, &models);
                let has_sort = !plan.order_by.is_empty();
                let want = estimate_query(&spec, &g, &models, &out.config, has_sort);
                let at = format!("{} {q:?}", spec.name);
                assert_eq!(out.estimate.to_bits(), want.to_bits(), "{at}");
            }
        }
    }

    /// `total`, `delay`, `overhead` and every `KernelCost` `c`/`m`/`dc`
    /// of two estimates, by `to_bits()`.
    fn assert_same_costs(got: &StageEstimate, want: &StageEstimate, ctx: &str) {
        assert_eq!(got.total.to_bits(), want.total.to_bits(), "{ctx}");
        assert_eq!(got.delay.to_bits(), want.delay.to_bits(), "{ctx}");
        assert_eq!(got.overhead.to_bits(), want.overhead.to_bits(), "{ctx}");
        assert_eq!(got.num_tiles, want.num_tiles, "{ctx}");
        assert_eq!(got.per_kernel.len(), want.per_kernel.len(), "{ctx}");
        for (a, b) in got.per_kernel.iter().zip(&want.per_kernel) {
            assert_eq!(a.c.to_bits(), b.c.to_bits(), "{ctx}");
            assert_eq!(a.m.to_bits(), b.m.to_bits(), "{ctx}");
            assert_eq!(a.dc.to_bits(), b.dc.to_bits(), "{ctx}");
        }
    }

    #[test]
    fn evaluator_is_bit_identical_to_the_reference_body() {
        // wg counts of every kind: non-multiples of #CU, fewer
        // work-groups than CUs.
        let mut next = splitmix(0x9E37_79B9_7F4A_7C15);
        let mut compared = 0usize;
        for_each_grid_point(|spec, g, sm, mut cfg| {
            for _ in 0..3 {
                for wg in &mut cfg.wg_counts {
                    *wg = 1 + (next() % (17 * spec.num_cus as u64)) as u32;
                }
                let want = reference::estimate_stage(spec, g, sm, &cfg);
                let got = estimate_stage(spec, g, sm, &cfg);
                let ctx = format!("{} {} {cfg:?}", spec.name, sm.name);
                assert_same_costs(&got, &want, &ctx);
                for (a, b) in got.per_kernel.iter().zip(&want.per_kernel) {
                    assert_eq!(a.a_wg, b.a_wg, "{ctx}");
                }
                compared += 1;
            }
        });
        assert!(compared > 10_000, "compared {compared} evaluations");
    }

    /// Tripwire for the search's single `wg_Ki` value. Every work-group
    /// count at or above #CU costs the same to the last bit: `used_cus`
    /// saturates at #CU because the Eq. 2 grant gives every kernel at
    /// least one slot on each CU, so the residency never reaches Eq. 3–9
    /// (only `a_wg`, the grant itself, differs). That is why the search
    /// scores each (Δ, n, p) point once at 4 × #CU. This test is meant to
    /// fail once residency prices work-group counts (ROADMAP item 3(a));
    /// the search must then search `wg_Ki` again.
    #[test]
    fn work_group_counts_at_or_above_the_cu_count_cost_the_same() {
        let mut next = splitmix(0xD1B5_4A32_D192_ED03);
        let mut compared = 0usize;
        for_each_grid_point(|spec, g, sm, mut cfg| {
            let seed = estimate_stage(spec, g, sm, &cfg);
            let kernels = cfg.wg_counts.len();
            let cus = spec.num_cus;
            let mut vectors: Vec<Vec<u32>> = ([1, 2, 4, 8, 16].into_iter())
                .map(|mult| vec![mult * cus; kernels])
                .collect();
            for _ in 0..3 {
                let random = (0..kernels).map(|_| cus + (next() % (15 * cus as u64 + 1)) as u32);
                vectors.push(random.collect());
            }
            for wg_counts in vectors {
                cfg.wg_counts = wg_counts;
                let ctx = format!("{} {} {cfg:?}", spec.name, sm.name);
                assert_same_costs(&estimate_stage(spec, g, sm, &cfg), &seed, &ctx);
                compared += 1;
            }
        });
        assert!(compared > 10_000, "compared {compared} evaluations");
    }

    /// The device's Eq. 2 grant, which `estimate_stage` and every simulated
    /// launch call, against the reference's re-summing allocator.
    #[test]
    fn residency_wrapper_matches_the_reference_allocator() {
        for spec in [amd_a10(), gpl_sim::nvidia_k40(), gpl_sim::cpu_host()] {
            for local in [0u32, 1024, 4096, 16 * 1024] {
                for private in [16u32, 64, 256] {
                    for wgs in [[1u32, 1, 1], [8, 64, 3], [1024, 2, 1024], [40, 40, 40]] {
                        let r = ResourceUsage::new(spec.wavefront_size, private, local);
                        let ks: Vec<_> = wgs.iter().map(|&wg| (r, wg)).collect();
                        assert_eq!(
                            grant(&spec, &ks),
                            reference::allocate_residency(&spec, &ks),
                            "{} local {local} private {private} wgs {wgs:?}",
                            spec.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bigger_inputs_cost_more() {
        let spec = amd_a10();
        let g = gamma();
        let small_db = TpchDb::at_scale(0.005);
        let big_db = TpchDb::at_scale(0.04);
        let est = |db: &TpchDb| {
            let plan = plan_for(db, QueryId::Q14);
            let st = stats::estimate(db, &plan);
            let ms = analyze::build_models(db, &plan, &st, &spec);
            let cfg = QueryConfig::default_for(&spec, &plan);
            estimate_query(&spec, &g, &ms, &cfg, false)
        };
        assert!(est(&big_db) > 2.0 * est(&small_db));
    }

    #[test]
    fn delay_responds_to_wg_imbalance() {
        let spec = amd_a10();
        let g = gamma();
        let db = TpchDb::at_scale(0.01);
        let plan = plan_for(&db, QueryId::Q14);
        let st = stats::estimate(&db, &plan);
        let ms = analyze::build_models(&db, &plan, &st, &spec);
        let mut cfg = QueryConfig::default_for(&spec, &plan);
        let probe_cfg = cfg.stages.last_mut().unwrap();
        let balanced = estimate_stage(&spec, &g, ms.last().unwrap(), probe_cfg);
        // Starve the leaf kernel: imbalance should raise the delay term.
        probe_cfg.wg_counts[0] = 1;
        let starved = estimate_stage(&spec, &g, ms.last().unwrap(), probe_cfg);
        assert!(
            starved.delay + starved.per_kernel[0].c > balanced.delay + balanced.per_kernel[0].c
        );
    }

    #[test]
    fn estimate_is_finite_and_positive_for_all_queries() {
        let spec = amd_a10();
        let g = gamma();
        let db = TpchDb::at_scale(0.01);
        for q in QueryId::evaluation_set() {
            let plan = plan_for(&db, q);
            let st = stats::estimate(&db, &plan);
            let ms = analyze::build_models(&db, &plan, &st, &spec);
            let cfg = QueryConfig::default_for(&spec, &plan);
            let e = estimate_query(&spec, &g, &ms, &cfg, true);
            assert!(e.is_finite() && e > 0.0, "{}: {e}", q.name());
        }
    }
}
