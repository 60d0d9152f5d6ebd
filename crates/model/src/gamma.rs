//! The Γ relationship (Eq. 1 / Eq. 11): channel throughput as a function
//! of the number of channels `n`, packet size `p` (AMD only) and data
//! size `d`, obtained by calibration (Section 2.1) and consulted by the
//! memory-cost term of Eq. 6 / Eq. 12.
//!
//! A calibration is one list of jobs for [`calibrate::run_jobs`]: a
//! bounded-pipe ladder per `(n, p)`, which simulates the chain once at
//! the largest `d` and forks it at every smaller one, and the pressure
//! curve's unbounded-pipe runs, spread over all cores. Every Γ and
//! pressure value equals its point run alone, for any thread count.

use gpl_sim::{calibrate, DeviceSpec, Vendor};

/// Calibrated Γ table with nearest-grid lookup and log-space
/// interpolation over the data-size axis.
#[derive(Debug, Clone)]
pub struct GammaTable {
    vendor: Vendor,
    ns: Vec<u32>,
    ps: Vec<u32>,
    ds: Vec<u64>,
    /// throughput[n_idx][p_idx][d_idx] in bytes per cycle.
    throughput: Vec<Vec<Vec<f64>>>,
    /// Cache-pressure factor per d: the Figure-2 chain's throughput at an
    /// in-flight working set of d, normalized to its peak. ≤ 1; drops
    /// once the in-flight channel data outgrows the cache.
    pressure: Vec<f64>,
}

/// A grid axis in the order `lookup` and `pressure` search it: sorted,
/// each value once.
fn axis<T: Ord>(mut values: Vec<T>) -> Vec<T> {
    values.sort_unstable();
    values.dedup();
    values
}

/// The calibration grid used throughout the repository.
pub fn default_grid(spec: &DeviceSpec) -> (Vec<u32>, Vec<u32>, Vec<u64>) {
    let ns = crate::search::channel_grid(spec);
    let ps = crate::search::packet_grid(spec);
    let ds = vec![
        64 << 10,
        256 << 10,
        1 << 20,
        2 << 20,
        4 << 20,
        8 << 20,
        16 << 20,
        32 << 20,
    ];
    (ns, ps, ds)
}

impl GammaTable {
    /// Run the producer→consumer calibration over the default grid.
    pub fn calibrate(spec: &DeviceSpec) -> Self {
        let (ns, ps, ds) = default_grid(spec);
        Self::calibrate_grid(spec, ns, ps, ds)
    }

    /// Run the calibration over an explicit grid: the bounded-buffer rate
    /// at every `(n, p, d)`, then the cache-pressure curve, as one job
    /// list on all cores (the values do not depend on the thread count).
    /// Each axis is sorted and deduplicated first; every axis must be
    /// non-empty and every packet size at least one byte.
    pub fn calibrate_grid(spec: &DeviceSpec, ns: Vec<u32>, ps: Vec<u32>, ds: Vec<u64>) -> Self {
        let (ns, ps, ds) = (axis(ns), axis(ps), axis(ds));
        assert!(
            !ns.is_empty() && !ps.is_empty() && !ds.is_empty() && ps[0] > 0,
            "calibration grid needs non-empty axes and packets of at least one byte: \
             n {ns:?}, p {ps:?}, d {ds:?}"
        );
        let job = |chain, n, packet_bytes| calibrate::Job {
            chain,
            n,
            packet_bytes,
            data_sizes: ds.clone(),
        };
        // One bounded-buffer ladder per (n, p) over every d.
        let mut jobs = Vec::with_capacity(ns.len() * ps.len() + 1);
        for &n in &ns {
            for &p in &ps {
                jobs.push(job(calibrate::Chain::Rate, n, p));
            }
        }
        // Cache-pressure curve from the unbounded-pipe chain (Figure 2):
        // its in-flight working set grows with d, so its normalized
        // throughput is the penalty for keeping d bytes in flight.
        jobs.push(job(
            calibrate::Chain::Unbounded,
            ns[ns.len() / 2],
            ps[ps.len() / 2],
        ));
        let steady: Vec<f64> = calibrate::run_jobs(spec, &jobs)
            .iter()
            .map(|p| p.steady_throughput)
            .collect();
        let (rates, raw) = steady.split_at(ns.len() * ps.len() * ds.len());
        let throughput = rates
            .chunks(ps.len() * ds.len())
            .map(|per_n| per_n.chunks(ds.len()).map(<[f64]>::to_vec).collect())
            .collect();
        let peak = raw.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
        let pressure = raw.iter().map(|&t| (t / peak).clamp(0.05, 1.0)).collect();
        GammaTable {
            vendor: spec.vendor,
            ns,
            ps,
            ds,
            throughput,
            pressure,
        }
    }

    pub fn vendor(&self) -> Vendor {
        self.vendor
    }

    pub fn ns(&self) -> &[u32] {
        &self.ns
    }

    pub fn ps(&self) -> &[u32] {
        &self.ps
    }

    pub fn ds(&self) -> &[u64] {
        &self.ds
    }

    fn nearest(values: &[u32], v: u32) -> usize {
        values
            .iter()
            .enumerate()
            .min_by_key(|(_, &x)| (x as i64 - v as i64).abs())
            .map(|(i, _)| i)
            .expect("non-empty grid")
    }

    /// Γ(n, p, d) in bytes per cycle: nearest grid point in n and p,
    /// log-linear interpolation in d (clamped at the grid edges).
    pub fn lookup(&self, n: u32, p: u32, d: u64) -> f64 {
        let ni = Self::nearest(&self.ns, n);
        let pi = Self::nearest(&self.ps, p);
        let row = &self.throughput[ni][pi];
        let d = d.max(1);
        if d <= self.ds[0] {
            return row[0];
        }
        if d >= *self.ds.last().expect("non-empty") {
            return *row.last().expect("non-empty");
        }
        let hi = self.ds.partition_point(|&x| x < d);
        let lo = hi - 1;
        let (d0, d1) = (self.ds[lo] as f64, self.ds[hi] as f64);
        let t = ((d as f64).ln() - d0.ln()) / (d1.ln() - d0.ln());
        row[lo] + t * (row[hi] - row[lo])
    }

    /// Cache-pressure factor for an in-flight channel working set of
    /// `bytes`: 1.0 while it fits the cache, dropping as it thrashes.
    pub fn pressure(&self, bytes: u64) -> f64 {
        let b = bytes.max(1);
        if b <= self.ds[0] {
            return self.pressure[0];
        }
        if b >= *self.ds.last().expect("non-empty") {
            return *self.pressure.last().expect("non-empty");
        }
        let hi = self.ds.partition_point(|&x| x < b);
        let lo = hi - 1;
        let (d0, d1) = (self.ds[lo] as f64, self.ds[hi] as f64);
        let t = ((b as f64).ln() - d0.ln()) / (d1.ln() - d0.ln());
        self.pressure[lo] + t * (self.pressure[hi] - self.pressure[lo])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_sim::{amd_a10, CalibrationPoint};

    /// A table built straight from precomputed points.
    fn from_points(spec: &DeviceSpec, points: &[CalibrationPoint]) -> GammaTable {
        let ns = axis(points.iter().map(|p| p.n).collect());
        let ps = axis(points.iter().map(|p| p.packet_bytes).collect());
        let ds = axis(points.iter().map(|p| p.data_bytes).collect());
        let mut throughput = vec![vec![vec![0.0; ds.len()]; ps.len()]; ns.len()];
        for pt in points {
            let ni = ns.binary_search(&pt.n).expect("grid point");
            let pi = ps.binary_search(&pt.packet_bytes).expect("grid point");
            let di = ds.binary_search(&pt.data_bytes).expect("grid point");
            throughput[ni][pi][di] = pt.steady_throughput;
        }
        let pressure = vec![1.0; ds.len()];
        GammaTable {
            vendor: spec.vendor,
            ns,
            ps,
            ds,
            throughput,
            pressure,
        }
    }

    fn tiny_table() -> GammaTable {
        let spec = amd_a10();
        let pts = vec![
            CalibrationPoint {
                n: 1,
                packet_bytes: 16,
                data_bytes: 1 << 16,
                cycles: 1,
                throughput: 1.0,
                steady_throughput: 1.0,
            },
            CalibrationPoint {
                n: 1,
                packet_bytes: 16,
                data_bytes: 1 << 20,
                cycles: 1,
                throughput: 3.0,
                steady_throughput: 3.0,
            },
            CalibrationPoint {
                n: 4,
                packet_bytes: 16,
                data_bytes: 1 << 16,
                cycles: 1,
                throughput: 2.0,
                steady_throughput: 2.0,
            },
            CalibrationPoint {
                n: 4,
                packet_bytes: 16,
                data_bytes: 1 << 20,
                cycles: 1,
                throughput: 5.0,
                steady_throughput: 5.0,
            },
        ];
        from_points(&spec, &pts)
    }

    #[test]
    fn lookup_hits_grid_points_exactly() {
        let g = tiny_table();
        assert_eq!(g.lookup(1, 16, 1 << 16), 1.0);
        assert_eq!(g.lookup(4, 16, 1 << 20), 5.0);
    }

    #[test]
    fn lookup_interpolates_and_clamps() {
        let g = tiny_table();
        let mid = g.lookup(4, 16, 1 << 18);
        assert!(mid > 2.0 && mid < 5.0, "interpolated {mid}");
        assert_eq!(g.lookup(4, 16, 1), 2.0, "clamped below");
        assert_eq!(g.lookup(4, 16, 1 << 30), 5.0, "clamped above");
        // Nearest n: n=3 maps to n=4.
        assert_eq!(g.lookup(3, 16, 1 << 20), 5.0);
    }

    #[test]
    fn real_calibration_small_grid() {
        let spec = amd_a10();
        let g = GammaTable::calibrate_grid(&spec, vec![1, 4], vec![16], vec![1 << 20, 8 << 20]);
        assert!(g.lookup(4, 16, 1 << 20) > g.lookup(1, 16, 1 << 20));
    }

    #[test]
    fn calibration_is_bit_identical_to_each_point_alone() {
        for spec in [amd_a10(), gpl_sim::nvidia_k40(), gpl_sim::cpu_host()] {
            let (ns, ps, ds) = (vec![1, 4], default_grid(&spec).1, vec![64 << 10, 1 << 20]);
            let g = GammaTable::calibrate_grid(&spec, ns.clone(), ps.clone(), ds.clone());
            for (ni, &n) in ns.iter().enumerate() {
                for (pi, &p) in ps.iter().enumerate() {
                    for (di, &d) in ds.iter().enumerate() {
                        let alone = calibrate::run_channel_rate(&spec, n, p, d).steady_throughput;
                        assert_eq!(
                            g.throughput[ni][pi][di].to_bits(),
                            alone.to_bits(),
                            "{} Γ({n}, {p}, {d})",
                            spec.name
                        );
                    }
                }
            }
            let raw: Vec<f64> = ds
                .iter()
                .map(|&d| {
                    calibrate::run_producer_consumer(&spec, ns[1], ps[ps.len() / 2], d)
                        .steady_throughput
                })
                .collect();
            let peak = raw.iter().cloned().fold(f64::MIN, f64::max).max(1e-9);
            for (di, &t) in raw.iter().enumerate() {
                let alone = (t / peak).clamp(0.05, 1.0);
                assert_eq!(
                    g.pressure[di].to_bits(),
                    alone.to_bits(),
                    "{} pressure",
                    spec.name
                );
            }
        }
    }

    /// Every Γ and pressure value of each profile's default-grid
    /// calibration: any change to the chains, the simulator or the way
    /// the grid runs that moves one value trips it.
    #[test]
    fn default_grids_are_pinned() {
        let mut lines = Vec::new();
        for spec in [amd_a10(), gpl_sim::nvidia_k40(), gpl_sim::cpu_host()] {
            let g = GammaTable::calibrate(&spec);
            // `{:?}` prints the shortest f64 that reads back to the same bits.
            lines.push(format!("{} d={:?}", spec.name, g.ds));
            for (n, by_p) in g.ns.iter().zip(&g.throughput) {
                for (p, by_d) in g.ps.iter().zip(by_p) {
                    lines.push(format!("{} n={n} p={p} gamma={by_d:?}", spec.name));
                }
            }
            lines.push(format!("{} pressure={:?}", spec.name, g.pressure));
        }
        gpl_check::pins::check("gamma_default_grids", &lines.join("\n"))
            .unwrap_or_else(|e| panic!("{e}"));
    }

    #[test]
    fn grid_axes_are_sorted_and_deduplicated() {
        let spec = amd_a10();
        let sorted =
            GammaTable::calibrate_grid(&spec, vec![1, 4], vec![8, 32], vec![64 << 10, 1 << 20]);
        let shuffled = GammaTable::calibrate_grid(
            &spec,
            vec![4, 1, 4],
            vec![32, 8],
            vec![1 << 20, 64 << 10, 1 << 20],
        );
        assert_eq!(
            (shuffled.ns(), shuffled.ps(), shuffled.ds()),
            (sorted.ns(), sorted.ps(), sorted.ds())
        );
        let bits = |g: &GammaTable| -> Vec<u64> {
            let values = g.throughput.iter().flatten().flatten().chain(&g.pressure);
            values.map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(&shuffled), bits(&sorted));
        // Interpolation between the two data sizes reads the sorted axis.
        assert_eq!(
            shuffled.lookup(4, 8, 256 << 10).to_bits(),
            sorted.lookup(4, 8, 256 << 10).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "calibration grid needs non-empty axes")]
    fn empty_grid_axis_is_rejected() {
        GammaTable::calibrate_grid(&amd_a10(), vec![1], vec![], vec![64 << 10]);
    }

    #[test]
    #[should_panic(expected = "calibration grid needs non-empty axes")]
    fn zero_packet_size_is_rejected() {
        GammaTable::calibrate_grid(&amd_a10(), vec![1], vec![0, 16], vec![64 << 10]);
    }

    #[test]
    fn default_grid_respects_vendor_packet_tunability() {
        let (_, ps_amd, _) = default_grid(&amd_a10());
        assert!(ps_amd.len() > 1);
        let (_, ps_nv, _) = default_grid(&gpl_sim::nvidia_k40());
        assert_eq!(ps_nv.len(), 1, "NVIDIA packet size is fixed (Appendix A.1)");
    }
}
