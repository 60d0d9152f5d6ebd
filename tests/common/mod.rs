//! Helpers shared by the root integration tests. Every test binary
//! compiles its own copy and none uses all of it, hence `dead_code`.
#![allow(dead_code)]

use gpl_repro::model::GammaTable;
use gpl_repro::sim::{amd_a10, DeviceSpec};
use gpl_repro::tpch::{QueryOutput, TpchDb};
use std::sync::{Arc, OnceLock};

/// One shared SF-0.01 catalog per test binary (generation is
/// deterministic; per-query contexts borrow it via `Arc`).
pub fn db_sf001() -> Arc<TpchDb> {
    static DB: OnceLock<Arc<TpchDb>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(TpchDb::at_scale(0.01))).clone()
}

/// One shared SF-0.002 catalog per test binary.
pub fn db_sf0002() -> Arc<TpchDb> {
    static DB: OnceLock<Arc<TpchDb>> = OnceLock::new();
    DB.get_or_init(|| Arc::new(TpchDb::at_scale(0.002))).clone()
}

/// Γ over a coarse grid: these tests pin plan and result equivalence,
/// not placement quality, and the full grid takes seconds unoptimised.
/// Channel counts respect the device's fan-out cap (the CPU profile
/// stops at 4).
pub fn gamma_for(spec: &DeviceSpec) -> GammaTable {
    let ns = [1u32, 4, 16]
        .into_iter()
        .filter(|&n| n <= spec.channel.max_channels)
        .collect();
    GammaTable::calibrate_grid(spec, ns, vec![16, 64], vec![256 << 10, 2 << 20, 16 << 20])
}

/// [`gamma_for`] the AMD profile, calibrated once per test binary.
pub fn gamma() -> Arc<GammaTable> {
    static G: OnceLock<Arc<GammaTable>> = OnceLock::new();
    G.get_or_init(|| Arc::new(gamma_for(&amd_a10()))).clone()
}

/// FNV-1a's shape with prime `0x1000_0000_01b3`, not FNV's
/// `0x100_0000_01b3` ([`gpl_prng::Fnv1a`]). The golden result
/// fingerprints and the seed-42 TPC-H digest in `pins/` were taken with
/// this prime, so it stays.
pub fn fnv1a_pinned(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x1000_0000_01b3)
    })
}

/// [`fnv1a_pinned`] over the row count and the row values — order
/// matters, so it pins ORDER BY output too.
pub fn fingerprint(out: &QueryOutput) -> u64 {
    let values = out.rows.iter().flatten().copied();
    fnv1a_pinned(
        std::iter::once(out.rows.len() as i64)
            .chain(values)
            .flat_map(i64::to_le_bytes),
    )
}
