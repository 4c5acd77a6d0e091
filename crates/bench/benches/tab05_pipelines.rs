//! TAB5 — Table V: hZ-dynamic throughput and pipeline-selection percentages
//! when homomorphically reducing two fields/snapshots per application at a
//! 1e-3 relative error bound. Speedups are against the fZ-light DOC
//! workflow, as in the paper.

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};
use hzdyn::ReduceOp;

fn main() {
    let knobs = Knobs::from_env();
    print!(
        "{}",
        knobs.banner("TAB5", "Table V — dynamic pipeline selection & throughput (REL 1e-3)")
    );
    let n = knobs.field_elems();
    let threads = knobs.threads;
    // "overall" throughput convention: two uncompressed inputs processed
    let bytes = 2 * n * 4;
    let table = Table::new(&[
        ("App", 12),
        ("Speedup", 8),
        ("hZ Thru GB/s", 12),
        ("P1", 8),
        ("P2", 8),
        ("P3", 8),
        ("P4", 8),
    ]);
    for app in App::ALL {
        let a = app.generate(n, 0);
        let b = app.generate(n, 1);
        // both snapshots must share one absolute bound for compatibility:
        // resolve 1e-3 REL against the first field, as the paper fixes the
        // bound per dataset
        let eb = ErrorBound::Rel(1e-3).resolve(&a).expect("bound");
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(threads);
        let ca = fzlight::compress(&a, &cfg).expect("compress a");
        let cb = fzlight::compress(&b, &cfg).expect("compress b");

        let (_, stats) = hzdyn::homomorphic_sum_with_stats(&ca, &cb).expect("hz");
        let t_hz = time_best(5, || {
            std::hint::black_box(hzdyn::homomorphic_sum(&ca, &cb).expect("hz"));
        });
        let t_doc = time_best(3, || {
            std::hint::black_box(hzdyn::doc_reduce(&ca, &cb, ReduceOp::Sum).expect("doc"));
        });
        let p = stats.percentages();
        table.row(&[
            app.name().into(),
            format!("{:.2}x", t_doc / t_hz),
            format!("{:.2}", gbps(bytes, t_hz)),
            format!("{:.2}%", p[0]),
            format!("{:.2}%", p[1]),
            format!("{:.2}%", p[2]),
            format!("{:.2}%", p[3]),
        ]);
    }
    println!("\nExpected shape (paper Table V): NYX/Sim.2 dominated by the cheap");
    println!("pipelines (1-3) with the biggest speedups; CESM-ATM dominated by");
    println!("pipeline 4 with the smallest (but still >1x) speedup.");
}
