//! ABL1 — ablation: the dynamic pipeline heuristic vs the static
//! homomorphic pipeline (always partial-decode + re-encode, as HoSZp-style
//! designs do). Quantifies how much of hZ-dynamic's Table V speedup comes
//! from pipelines ①-③.

use datasets::App;
use fzlight::{Config, ErrorBound};
use hzccl_bench::{gbps, time_best, Knobs, Table};

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("ABL1", "ablation — dynamic vs static homomorphic pipeline"));
    let n = knobs.field_elems();
    let bytes = 2 * n * 4;
    let threads = knobs.threads;
    let table = Table::new(&[
        ("App", 12),
        ("Dynamic GB/s", 12),
        ("Static GB/s", 12),
        ("Dyn/Static", 10),
        ("P1-P3 share", 11),
    ]);
    for app in App::ALL {
        let a = app.generate(n, 0);
        let b = app.generate(n, 1);
        let eb = ErrorBound::Rel(1e-3).resolve(&a).expect("bound");
        let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(threads);
        let ca = fzlight::compress(&a, &cfg).expect("compress a");
        let cb = fzlight::compress(&b, &cfg).expect("compress b");

        let (dyn_out, stats) = hzdyn::homomorphic_sum_with_stats(&ca, &cb).expect("dyn");
        let stat_out = hzdyn::homomorphic_sum_static(&ca, &cb).expect("static");
        assert_eq!(dyn_out.as_bytes(), stat_out.as_bytes(), "pipelines must agree");

        let t_dyn = time_best(5, || {
            std::hint::black_box(hzdyn::homomorphic_sum(&ca, &cb).expect("dyn"));
        });
        let t_stat = time_best(5, || {
            std::hint::black_box(hzdyn::homomorphic_sum_static(&ca, &cb).expect("static"));
        });
        let p = stats.percentages();
        table.row(&[
            app.name().into(),
            format!("{:.2}", gbps(bytes, t_dyn)),
            format!("{:.2}", gbps(bytes, t_stat)),
            format!("{:.2}x", t_stat / t_dyn),
            format!("{:.1}%", p[0] + p[1] + p[2]),
        ]);
    }
    println!("\nExpected shape: the dynamic advantage tracks the share of cheap");
    println!("pipelines — large on NYX/Sim sets, near 1x on CESM-ATM (all-P4).");
}
