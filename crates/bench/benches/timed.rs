//! `cargo bench -p hzccl-bench --bench timed`: the codec speed ratios no
//! other harness measures, per app at REL 1e-3 (`HZ_SIZE_MB`, `HZ_THREADS`;
//! wall clock, best of 5, no golden) — hZ-dynamic's homomorphic sum against
//! the DOC workflow (TAB5/TAB6's speedup), the dynamic pipeline against the
//! static one (ABL1), fused against unfused quantization+prediction (ABL2).
//! Above 1x the first-named side is faster. Absolute GB/s are `benchmark/`'s
//! (`fzlight.compress_gbps.*`, `hzdyn.hsum_gbps.*`, `hzdyn.doc_reduce_gbps.*`).

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{Knobs, Table};
use std::hint::black_box;
use std::time::Instant;

/// Best-of-5 wall time of `f`, in seconds.
fn time_best<T>(mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let knobs = Knobs::from_env();
    print!(
        "\n=== TIMED: codec speed ratios at REL 1e-3, best of 5 ===\n(HZ_SIZE_MB={} HZ_THREADS={})\n\n",
        knobs.size_mb, knobs.threads
    );
    let out = &mut std::io::stdout().lock();
    let columns =
        [("App", 12), ("hZ vs DOC", 9), ("dynamic vs static", 17), ("fused vs unfused", 16)];
    let table = Table::start(out, &columns).expect("stdout");
    let n = knobs.field_elems();
    for app in App::ALL {
        let (a, b) = (app.generate(n, 0), app.generate(n, 1));
        // one absolute bound for both snapshots, so they sum homomorphically
        let eb = ErrorBound::Rel(1e-3).resolve(&a).expect("bound");
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(knobs.threads);
        let [ca, cb] = [&a, &b].map(|f| fzlight::compress(f, &cfg).expect("compress"));
        let hz = time_best(|| hzdyn::homomorphic_sum(&ca, &cb).expect("hz"));
        let doc = time_best(|| hzdyn::doc_reduce(&ca, &cb, hzdyn::ReduceOp::Sum).expect("doc"));
        let stat = time_best(|| hzdyn::homomorphic_sum_static(&ca, &cb).expect("static"));
        let fused = time_best(|| fzlight::compress(&a, &cfg).expect("fused"));
        let unfused = time_best(|| fzlight::compress_unfused(&a, &cfg).expect("unfused"));
        let cells = [doc / hz, stat / hz, unfused / fused].map(|r| format!("{r:.2}x"));
        table
            .write_row(out, &[[app.name().to_string()].as_slice(), &cells].concat())
            .expect("stdout");
    }
}
