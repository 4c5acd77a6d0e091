//! ABL2 — ablation: fused vs unfused quantization+prediction in fZ-light
//! (Sec. III-B.2's memory-traffic argument). The two produce byte-identical
//! streams; only throughput differs.

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("ABL2", "ablation — fused vs unfused quantization+prediction"));
    let n = knobs.field_elems();
    let bytes = n * 4;
    let threads = knobs.threads;
    let table =
        Table::new(&[("App", 12), ("Fused GB/s", 11), ("Unfused GB/s", 12), ("Fused/Unfused", 13)]);
    for app in App::ALL {
        let data = app.generate(n, 0);
        let cfg = Config::new(ErrorBound::Rel(1e-3)).with_threads(threads);
        let fused_stream = fzlight::compress(&data, &cfg).expect("fused");
        let unfused_stream = fzlight::compress_unfused(&data, &cfg).expect("unfused");
        assert_eq!(
            fused_stream.as_bytes(),
            unfused_stream.as_bytes(),
            "variants must produce identical streams"
        );
        let t_f = time_best(3, || {
            std::hint::black_box(fzlight::compress(&data, &cfg).expect("fused"));
        });
        let t_u = time_best(3, || {
            std::hint::black_box(fzlight::compress_unfused(&data, &cfg).expect("unfused"));
        });
        table.row(&[
            app.name().into(),
            format!("{:.2}", gbps(bytes, t_f)),
            format!("{:.2}", gbps(bytes, t_u)),
            format!("{:.2}x", t_u / t_f),
        ]);
    }
    println!("\nExpected shape: fusion wins by cutting one full-size intermediate");
    println!("array's worth of memory traffic (and its allocation).");
}
