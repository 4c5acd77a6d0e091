//! TAB4 — Table IV: memory-bandwidth efficiency of fZ-light and ompSZp
//! (compressor throughput as a percentage of the STREAM peak).

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("TAB4", "Table IV — memory-bandwidth efficiency vs STREAM peak"));
    let threads = knobs.threads;
    let stream_n = knobs.stream_elems; // 128 MiB per array
    println!("running STREAM with {} MiB arrays on {threads} threads...", (stream_n * 8) >> 20);
    let peak = streambench::run(stream_n, threads, 3);
    println!(
        "STREAM: copy {:.2} scale {:.2} add {:.2} triad {:.2}  => peak {:.2} GB/s\n",
        peak.copy,
        peak.scale,
        peak.add,
        peak.triad,
        peak.peak()
    );

    let n = knobs.field_elems();
    let bytes = n * 4;
    let table = Table::new(&[
        ("App", 12),
        ("REL", 6),
        ("oSZp Compr.", 11),
        ("oSZp Decom.", 11),
        ("fZ Compr.", 11),
        ("fZ Decom.", 11),
    ]);
    for app in [App::SimSet2, App::Nyx] {
        let data = app.generate(n, 0);
        for rel in [1e-3, 1e-4] {
            let cfg = Config::new(ErrorBound::Rel(rel)).with_threads(threads);
            let mut fz_stream = None;
            let t_fc = time_best(3, || {
                fz_stream = Some(fzlight::compress(&data, &cfg).expect("fz"));
            });
            let fz_stream = fz_stream.unwrap();
            let mut out = vec![0f32; n];
            let t_fd = time_best(3, || {
                fzlight::decompress_into(&fz_stream, &mut out).expect("fz d");
            });
            let mut o_stream = None;
            let t_oc = time_best(3, || {
                o_stream = Some(ompszp::compress(&data, &cfg).expect("oszp"));
            });
            let o_stream = o_stream.unwrap();
            let t_od = time_best(3, || {
                ompszp::decompress_into(&o_stream, &mut out).expect("oszp d");
            });
            let eff = |t: f64| format!("{:.2}%", 100.0 * gbps(bytes, t) / peak.peak());
            table.row(&[
                app.name().into(),
                format!("{rel:.0e}"),
                eff(t_oc),
                eff(t_od),
                eff(t_fc),
                eff(t_fd),
            ]);
        }
    }
    println!("\nExpected shape (paper Table IV): fZ-light reaches a large fraction");
    println!("of STREAM peak (paper: up to 94.5% decompression on NYX) while");
    println!("ompSZp stays in single digits.");
}
