//! Table 1 and the channel calibration figures (Figure 2 / Figure 23).

use super::Opts;
use gpl_obs::Json;
use gpl_sim::{amd_a10, calibrate, nvidia_k40, DeviceSpec};

/// Table 1: hardware specification.
pub fn table1(opts: &Opts) {
    println!("{:<26} {:>14} {:>18}", "", "AMD", "NVIDIA");
    let a = amd_a10();
    let n = nvidia_k40();
    let rows: Vec<(&str, String, String)> = vec![
        ("#CU", a.num_cus.to_string(), n.num_cus.to_string()),
        (
            "Core frequency (MHz)",
            a.core_freq_mhz.to_string(),
            n.core_freq_mhz.to_string(),
        ),
        (
            "Private memory/CU (KB)",
            (a.private_mem_per_cu / 1024).to_string(),
            (n.private_mem_per_cu / 1024).to_string(),
        ),
        (
            "Local memory/CU (KB)",
            (a.local_mem_per_cu / 1024).to_string(),
            (n.local_mem_per_cu / 1024).to_string(),
        ),
        (
            "Global memory (GB)",
            (a.global_mem >> 30).to_string(),
            (n.global_mem >> 30).to_string(),
        ),
        (
            "Cache (MB)",
            format!("{:.1}", a.cache_bytes as f64 / (1 << 20) as f64),
            format!("{:.1}", n.cache_bytes as f64 / (1 << 20) as f64),
        ),
        (
            "Concurrent kernels",
            a.concurrency.to_string(),
            n.concurrency.to_string(),
        ),
        (
            "Programming API",
            "OpenCL (simulated)".into(),
            "CUDA (simulated)".into(),
        ),
    ];
    for (k, va, vn) in &rows {
        println!("{k:<26} {va:>14} {vn:>18}");
    }
    opts.artifact.fact(
        "spec_rows",
        Json::Arr(
            rows.iter()
                .map(|(k, va, vn)| {
                    Json::obj(vec![
                        ("key", Json::Str(k.to_string())),
                        ("amd", Json::Str(va.clone())),
                        ("nvidia", Json::Str(vn.clone())),
                    ])
                })
                .collect(),
        ),
    );
}

/// Run the producer→consumer sweep and return the measured points as a
/// JSON series for the experiment's artifact.
fn channel_sweep(spec: &DeviceSpec) -> Json {
    let packet = spec.channel.fixed_packet_bytes;
    println!(
        "producer→consumer chain, packet size {packet} B, N = 512K..8M integers ({})",
        spec.name
    );
    let header = "throughput (bytes/cycle) by #channels  n=1     n=2     n=4     n=8    n=16";
    println!("{:>10} {:>10} {header}", "N (ints)", "bytes");
    let ns = [1u32, 2, 4, 8, 16];
    let ds = calibrate::figure2_data_sizes();
    let swept = calibrate(spec, &ns, &[packet], &ds);
    let mut points = Vec::new();
    for (di, &d) in ds.iter().enumerate() {
        let ints = d / 4;
        print!("{:>10} {:>10}", ints, d);
        print!("{:38}", " ");
        for (ni, &n) in ns.iter().enumerate() {
            let p = swept[ni * ds.len() + di];
            print!(" {:>7.3}", p.throughput);
            points.push(Json::obj(vec![
                ("ints", Json::Int(ints as i64)),
                ("channels", Json::Int(n as i64)),
                ("throughput", Json::Num(p.throughput)),
            ]));
        }
        println!();
    }
    println!(
        "expected shape: throughput rises with n then saturates; inverted U in N with a knee \
         near the {} MiB cache (paper: suitable N = 1M integers on the 4 MiB AMD cache).",
        spec.cache_bytes >> 20
    );
    Json::Arr(points)
}

/// Figure 2: AMD channel calibration.
pub fn fig2(opts: &Opts) {
    let series = channel_sweep(&amd_a10());
    opts.artifact.fact("channel_sweep", series);
    // The paper additionally varies the packet size on AMD.
    println!("\npacket-size sweep at N = 1M ints, n = 4:");
    let ps = [8u32, 16, 32, 64];
    let swept = calibrate(&amd_a10(), &[4], &ps, &[4 << 20]);
    let mut pkt = Vec::new();
    for (&p, r) in ps.iter().zip(&swept) {
        println!("  p = {p:>3} B: {:.3} bytes/cycle", r.throughput);
        pkt.push(Json::obj(vec![
            ("packet_bytes", Json::Int(p as i64)),
            ("throughput", Json::Num(r.throughput)),
        ]));
    }
    opts.artifact.fact("packet_sweep", Json::Arr(pkt));
}

/// Figure 23: the NVIDIA profile (no packet-size knob, Appendix A.1).
pub fn fig23(opts: &Opts) {
    let series = channel_sweep(&nvidia_k40());
    opts.artifact.fact("channel_sweep", series);
}
