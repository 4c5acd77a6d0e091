//! FIG6 — Fig. 6: compression and decompression throughput (GB/s) of
//! fZ-light vs ompSZp across datasets and relative error bounds.

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};

const RELS: [f64; 2] = [1e-3, 1e-4];

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("FIG6", "Fig. 6 — compression/decompression throughput (GB/s)"));
    let n = knobs.field_elems();
    let bytes = n * 4;
    let threads = knobs.threads;
    println!("threads = {threads}\n");
    let table = Table::new(&[
        ("App", 12),
        ("REL", 6),
        ("fZ Comp", 9),
        ("fZ Decomp", 9),
        ("oSZp Comp", 9),
        ("oSZp Dec", 9),
        ("C speedup", 9),
        ("D speedup", 9),
    ]);
    for app in App::ALL {
        let data = app.generate(n, 0);
        for rel in RELS {
            let cfg = Config::new(ErrorBound::Rel(rel)).with_threads(threads);

            let mut fz_stream = None;
            let t_fc = time_best(3, || {
                fz_stream = Some(fzlight::compress(&data, &cfg).expect("fz compress"));
            });
            let fz_stream = fz_stream.unwrap();
            let mut out = vec![0f32; n];
            let t_fd = time_best(3, || {
                fzlight::decompress_into(&fz_stream, &mut out).expect("fz decompress");
            });

            let mut o_stream = None;
            let t_oc = time_best(3, || {
                o_stream = Some(ompszp::compress(&data, &cfg).expect("ompszp compress"));
            });
            let o_stream = o_stream.unwrap();
            let t_od = time_best(3, || {
                ompszp::decompress_into(&o_stream, &mut out).expect("ompszp decompress");
            });

            table.row(&[
                app.name().into(),
                format!("{rel:.0e}"),
                format!("{:.2}", gbps(bytes, t_fc)),
                format!("{:.2}", gbps(bytes, t_fd)),
                format!("{:.2}", gbps(bytes, t_oc)),
                format!("{:.2}", gbps(bytes, t_od)),
                format!("{:.2}x", t_oc / t_fc),
                format!("{:.2}x", t_od / t_fd),
            ]);
        }
    }
    println!("\nExpected shape (paper Fig. 6): fZ-light beats ompSZp on both");
    println!("directions everywhere, with the decompression gap the largest");
    println!("(paper: up to 9.71x compression / 28.33x decompression).");
}
