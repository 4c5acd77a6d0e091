//! ABL3 — ablation: small-block length. The paper fixes 32 (cuSZp's GPU
//! block size); this sweep shows the ratio/throughput trade-off that
//! justifies it: shorter blocks adapt better (ratio) but pay more per-block
//! overhead (code bytes, dispatch), longer blocks amortize overhead but mix
//! unlike deltas under one code length.

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("ABL3", "ablation — small-block length sweep"));
    let n = knobs.field_elems();
    let bytes = n * 4;
    let threads = knobs.threads;
    for app in [App::Hurricane, App::SimSet2] {
        println!("--- {} (REL 1e-3) ---", app.name());
        let data = app.generate(n, 0);
        let table = Table::new(&[
            ("block_len", 9),
            ("Ratio", 8),
            ("Compress GB/s", 13),
            ("Decompress GB/s", 15),
            ("hZ sum GB/s", 11),
        ]);
        for block_len in [8usize, 16, 32, 64] {
            let cfg =
                Config::new(ErrorBound::Rel(1e-3)).with_threads(threads).with_block_len(block_len);
            let stream = fzlight::compress(&data, &cfg).expect("compress");
            let t_c = time_best(3, || {
                std::hint::black_box(fzlight::compress(&data, &cfg).expect("compress"));
            });
            let mut out = vec![0f32; n];
            let t_d = time_best(3, || {
                fzlight::decompress_into(&stream, &mut out).expect("decompress");
            });
            let t_h = time_best(3, || {
                std::hint::black_box(hzdyn::homomorphic_sum(&stream, &stream).expect("hz"));
            });
            table.row(&[
                format!("{block_len}"),
                format!("{:.2}", stream.ratio()),
                format!("{:.2}", gbps(bytes, t_c)),
                format!("{:.2}", gbps(bytes, t_d)),
                format!("{:.2}", gbps(2 * bytes, t_h)),
            ]);
        }
        println!();
    }
    println!("Expected shape: 32 sits at the knee — near-best throughput with");
    println!("ratio within a few percent of the best block length per dataset.");
}
