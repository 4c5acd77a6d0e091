//! TAB6 — Table VI: overall reduce-operation performance of hZ-dynamic vs
//! the traditional fZ-light DOC workflow across datasets and relative error
//! bounds, with quality (NRMSE) and ratio of the reduced output.

use datasets::{App, Quality};
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};
use hzdyn::ReduceOp;

const RELS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];

fn main() {
    let knobs = Knobs::from_env();
    print!(
        "{}",
        knobs.banner("TAB6", "Table VI — hZ-dynamic vs fZ-light (DOC) overall performance")
    );
    let n = knobs.field_elems();
    let bytes = 2 * n * 4; // two inputs processed per reduce
    let threads = knobs.threads;
    let table = Table::new(&[
        ("App", 12),
        ("REL", 6),
        ("hZ GB/s", 9),
        ("hZ Ratio", 9),
        ("hZ NRMSE", 9),
        ("DOC GB/s", 9),
        ("DOC Ratio", 9),
        ("DOC NRMSE", 9),
        ("Speedup", 8),
    ]);
    for app in App::ALL {
        let a = app.generate(n, 0);
        let b = app.generate(n, 1);
        let exact: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        for rel in RELS {
            let eb = ErrorBound::Rel(rel).resolve(&a).expect("bound");
            let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(threads);
            let ca = fzlight::compress(&a, &cfg).expect("compress a");
            let cb = fzlight::compress(&b, &cfg).expect("compress b");

            let hz = hzdyn::homomorphic_sum(&ca, &cb).expect("hz");
            let t_hz = time_best(3, || {
                std::hint::black_box(hzdyn::homomorphic_sum(&ca, &cb).expect("hz"));
            });
            let hz_out = fzlight::decompress(&hz).expect("hz d");
            let hz_q = Quality::compare(&exact, &hz_out);

            let doc = hzdyn::doc_reduce(&ca, &cb, ReduceOp::Sum).expect("doc");
            let t_doc = time_best(3, || {
                std::hint::black_box(hzdyn::doc_reduce(&ca, &cb, ReduceOp::Sum).expect("doc"));
            });
            let doc_out = fzlight::decompress(&doc).expect("doc d");
            let doc_q = Quality::compare(&exact, &doc_out);

            table.row(&[
                app.name().into(),
                format!("{rel:.0e}"),
                format!("{:.2}", gbps(bytes, t_hz)),
                format!("{:.2}", hz.ratio()),
                format!("{:.1e}", hz_q.nrmse),
                format!("{:.2}", gbps(bytes, t_doc)),
                format!("{:.2}", doc.ratio()),
                format!("{:.1e}", doc_q.nrmse),
                format!("{:.2}x", t_doc / t_hz),
            ]);
        }
    }
    println!("\nExpected shape (paper Table VI): hZ-dynamic beats DOC on throughput");
    println!("everywhere (paper: up to 36.5x) with equal-or-better NRMSE, since it");
    println!("skips the DOC recompression's extra quantization.");
}
