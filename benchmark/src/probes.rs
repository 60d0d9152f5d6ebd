//! Micro-probes: single layers driven through their public functions on
//! fixed seeded inputs, so a row-work or simulator optimisation has a
//! number that moves before the end-to-end ones do. Inputs never depend
//! on `--seed`; every figure is the median of five timed passes.

use crate::report::Report;
use crate::util::median;
use gpl_core::ht::{GroupStore, SimHashTable};
use gpl_core::{CmpOp, Expr, Pred};
use gpl_prng::{Rng, SeedableRng, StdRng};
use gpl_sim::{
    run_channel_rate, run_producer_consumer_profiled, CacheSim, DeviceSpec, MemRange, MemoryMap,
};
use gpl_tpch::TpchDb;
use std::hint::black_box;
use std::time::Instant;

const PROBE_SEED: u64 = 0x9e3779b97f4a7c15;

/// Median nanoseconds `f` takes, divided by `per` units of work.
fn time_ns_per(repeats: usize, per: u64, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..repeats)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples) / per.max(1) as f64
}

/// Besides the probes, prices the simulator as the by-hand pass used it:
/// `events` work units over `launches` launches took `exec_ns` of host
/// time, of which the bare event loop — at the probed cost per event —
/// explains `sim.engine_share`.
pub fn run(
    r: &mut Report,
    spec: &DeviceSpec,
    db: &TpchDb,
    events: u64,
    launches: u64,
    exec_ns: f64,
) {
    r.set("sim.events", events as f64);
    r.set("sim.launches", launches as f64);
    r.set(
        "sim.events_per_s",
        events as f64 / (exec_ns / 1e9).max(1e-12),
    );
    r.set(
        "sim.host_us_per_event",
        exec_ns / 1e3 / events.max(1) as f64,
    );

    // Element count of the row-work probes, and timed passes per probe.
    let (n, repeats) = if r.smoke { (20_000, 1) } else { (1_000_000, 5) };
    let mut rng = StdRng::seed_from_u64(PROBE_SEED);

    // Expression and predicate evaluation over three columns shaped like
    // lineitem's price, discount and ship date.
    let cols: Vec<Vec<i64>> = vec![
        (0..n)
            .map(|_| rng.gen_range(90_000i64..10_000_000))
            .collect(),
        (0..n).map(|_| rng.gen_range(0i64..=10)).collect(),
        (0..n).map(|_| rng.gen_range(8_000i64..10_600)).collect(),
    ];
    let revenue = Expr::slot(0).dec_mul(Expr::lit(100).sub(Expr::slot(1)));
    let window = Pred::And(vec![
        Pred::between_half_open(Expr::slot(2), 9_000, 9_365),
        Pred::cmp(CmpOp::Lt, Expr::slot(1), Expr::lit(7)),
    ]);
    r.set(
        "core.expr_eval_ns_per_row",
        time_ns_per(repeats, n as u64, || {
            black_box(revenue.eval_vec(black_box(&cols), n));
            black_box(window.eval_mask(black_box(&cols), n));
        }),
    );

    // Hash-table build and probe over unique shuffled keys.
    let mut keys: Vec<i64> = (1..=n as i64).collect();
    rng.shuffle(&mut keys);
    let mut insert = Vec::new();
    let mut probe = Vec::new();
    for _ in 0..repeats {
        let mut mem = MemoryMap::new();
        let mut ht = SimHashTable::new(&mut mem, n, 1, "probe-ht");
        let mut acc: Vec<MemRange> = Vec::with_capacity(4096);
        let t = Instant::now();
        for chunk in keys.chunks(4096) {
            acc.clear();
            for &k in chunk {
                ht.insert(k, &[k], &mut acc);
            }
        }
        insert.push(t.elapsed().as_nanos() as f64 / n as f64);
        let mut found = 0u64;
        let t = Instant::now();
        for chunk in keys.chunks(4096).rev() {
            acc.clear();
            for &k in chunk {
                found += u64::from(ht.probe(k, &mut acc).is_some());
            }
        }
        probe.push(t.elapsed().as_nanos() as f64 / n as f64);
        assert_eq!(black_box(found), n as u64, "every built key is found");
    }
    r.set("core.ht_insert_ns", median(&insert));
    r.set("core.ht_probe_ns", median(&probe));

    // Grouped aggregation: two sums over 64 two-column groups.
    let group_keys: Vec<[i64; 2]> = (0..n)
        .map(|_| [rng.gen_range(0i64..8), rng.gen_range(1992i64..2000)])
        .collect();
    r.set(
        "core.group_update_ns_per_row",
        time_ns_per(repeats, n as u64, || {
            let mut mem = MemoryMap::new();
            let mut store = GroupStore::new(&mut mem, 64, 2, 2, "probe-groups");
            let mut acc: Vec<MemRange> = Vec::with_capacity(8192);
            for (chunk, vals) in group_keys.chunks(4096).zip(cols[0].chunks(4096)) {
                acc.clear();
                for (k, &v) in chunk.iter().zip(vals) {
                    store.update(k, &[v, 1], &mut acc);
                }
            }
            black_box(store.num_groups());
        }),
    );

    // Column widening as the scan kernels do it: a contiguous range and
    // a seeded gather over lineitem's price column.
    let price = db.table("lineitem").col("l_extendedprice");
    let rows = price.len();
    let picks: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..rows)).collect();
    r.set(
        "storage.gather_ns_per_row",
        time_ns_per(repeats, 2 * rows as u64, || {
            black_box(price.range_i64(0, rows));
            black_box(price.gather_i64(black_box(&picks)));
        }),
    );

    // Simulator event loop + channels with no row work: the Section 2.1
    // producer→consumer chain, 4 channels × 16-byte packets.
    let chain_bytes = (n as u64 * 4).max(1 << 16);
    let mut chain_events = 0u64;
    let ns = time_ns_per(repeats, 1, || {
        let (_, profile) = run_producer_consumer_profiled(spec, 4, 16, chain_bytes);
        chain_events = profile.kernels.iter().map(|k| k.units).sum();
    });
    let engine_ns_per_event = ns / chain_events.max(1) as f64;
    r.set("sim.engine_ns_per_event", engine_ns_per_event);
    r.set(
        "sim.engine_share",
        engine_ns_per_event * events as f64 / exec_ns.max(1.0),
    );
    r.set(
        "sim.channel_ns_per_packet",
        time_ns_per(repeats, chain_bytes / 16, || {
            black_box(run_channel_rate(spec, 4, 16, chain_bytes));
        }),
    );

    // Cache model: line-sized reads at seeded addresses inside a range
    // half (fit) and twice (spill) the modelled L2, in unit-sized batches.
    let accesses = 2 * n;
    for (name, range_bytes) in [
        ("sim.cache_ns_per_access.fit", spec.cache_bytes / 2),
        ("sim.cache_ns_per_access.spill", spec.cache_bytes * 2),
    ] {
        let line = u64::from(spec.cache_line);
        let lines = range_bytes / line;
        let stream: Vec<MemRange> = (0..accesses)
            .map(|_| MemRange::read(4096 + rng.gen_range(0..lines) * line, line))
            .collect();
        let mut cache = CacheSim::new(spec.cache_bytes, spec.cache_line, spec.cache_assoc);
        for batch in stream.chunks(256) {
            cache.access_batch(batch); // fill before timing
        }
        r.set(
            name,
            time_ns_per(repeats, accesses as u64, || {
                for batch in stream.chunks(256) {
                    black_box(cache.access_batch(batch));
                }
            }),
        );
    }
}
