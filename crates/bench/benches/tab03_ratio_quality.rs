//! TAB3 — Table III: compression ratio and quality (NRMSE ± STD) of
//! fZ-light vs ompSZp across the five application datasets and relative
//! error bounds 1e-1..1e-4.

use datasets::{mean_std, App, Quality};
use fzlight::{Config, ErrorBound};
use hzccl_bench::{Knobs, Table};

const RELS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];
const FIELDS_PER_APP: u64 = 2;

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("TAB3", "Table III — ratio & NRMSE, fZ-light vs ompSZp"));
    let n = knobs.field_elems();
    let threads = knobs.threads;
    let table = Table::new(&[
        ("App", 12),
        ("REL", 6),
        ("fZ Ratio", 9),
        ("fZ NRMSE", 10),
        ("fZ STD", 9),
        ("oSZp Ratio", 10),
        ("oSZp NRMSE", 10),
        ("oSZp STD", 9),
    ]);
    for app in App::ALL {
        let fields: Vec<Vec<f32>> = (0..FIELDS_PER_APP).map(|seed| app.generate(n, seed)).collect();
        for rel in RELS {
            let cfg = Config::new(ErrorBound::Rel(rel)).with_threads(threads);
            let mut fz_ratio = Vec::new();
            let mut fz_nrmse = Vec::new();
            let mut o_ratio = Vec::new();
            let mut o_nrmse = Vec::new();
            for f in &fields {
                let s = fzlight::compress(f, &cfg).expect("fz compress");
                fz_ratio.push(s.ratio());
                let d = fzlight::decompress(&s).expect("fz decompress");
                fz_nrmse.push(Quality::compare(f, &d).nrmse);

                let s = ompszp::compress(f, &cfg).expect("ompszp compress");
                o_ratio.push(s.ratio());
                let d = ompszp::decompress(&s).expect("ompszp decompress");
                o_nrmse.push(Quality::compare(f, &d).nrmse);
            }
            let (fr, _) = mean_std(&fz_ratio);
            let (fn_, fs) = mean_std(&fz_nrmse);
            let (or, _) = mean_std(&o_ratio);
            let (on, os) = mean_std(&o_nrmse);
            table.row(&[
                app.name().into(),
                format!("{rel:.0e}"),
                format!("{fr:.2}"),
                format!("{fn_:.2e}"),
                format!("{fs:.0e}"),
                format!("{or:.2}"),
                format!("{on:.2e}"),
                format!("{os:.0e}"),
            ]);
        }
    }
    println!("\nExpected shape (paper Table III): fZ-light ratio >= ompSZp on all");
    println!("non-zero-dominated datasets, with the largest gaps on CESM-ATM/NYX;");
    println!("NRMSE columns are equal here by construction (shared quantizer).");
}
