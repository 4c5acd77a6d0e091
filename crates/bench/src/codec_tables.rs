//! The paper's codec evaluation as five deterministic tables: Table III
//! (TAB3), Table V's pipeline mix (TAB5), Table VI's ratio and error (TAB6),
//! the block-length ablation (ABL3) and the Sec. III-C paper-scale
//! projection (PROJ). Every cell is a ratio, an error, a pipeline share or a
//! cost-model time — a function of `HZ_SIZE_MB` and `HZ_THREADS` alone — so
//! `tests/figure_goldens/<target>.txt` pins each table and this module's
//! tests assert each expected shape at the goldens' scale. Codec speed is
//! `benchmark/`'s to measure, and the `timed` bench target's for the three
//! ratios nothing else times.

use crate::{kernels, Knobs, Table};
use costmodel::{predict, Algo, Op, Scenario};
use datasets::{mean_std, App, Quality};
use fzlight::{CompressedStream, Config, ErrorBound};
use std::io::{self, Write};

/// A table's renderer: compute under the knobs, write to `out`.
type Render = fn(&Knobs, &mut dyn Write) -> io::Result<()>;

/// Every codec table as `(target, renderer)`, selected like a figure
/// (`cargo bench --bench figures -- <target>`).
pub const ALL: [(&str, Render); 5] = [
    ("tab03_ratio_quality", tab03),
    ("tab05_pipelines", tab05),
    ("tab06_overall", tab06),
    ("abl_block_len", abl_block_len),
    ("proj_paper_scale", proj),
];

/// The relative error bounds of Tables III and VI.
const RELS: [f64; 4] = [1e-1, 1e-2, 1e-3, 1e-4];

/// A computed row: the dataset, the row's x (REL bound or block length) and
/// the numeric cells in column order.
type Row<const K: usize> = (App, f64, [f64; K]);

/// Write the banner `head`, a table of `(header, width)` columns with one
/// line per `rows` item, and the expected shape.
fn write(
    (out, k): (&mut dyn Write, &Knobs),
    head: &str,
    columns: &[(&str, usize)],
    rows: impl IntoIterator<Item = Vec<String>>,
    expected: &str,
) -> io::Result<()> {
    writeln!(out, "\n=== {head} ===\n(HZ_SIZE_MB={} HZ_THREADS={})\n", k.size_mb, k.threads)?;
    let table = Table::start(out, columns)?;
    rows.into_iter().try_for_each(|row| table.write_row(out, &row))?;
    write!(out, "\nExpected shape {expected}")
}

/// An app's two snapshots compressed under one absolute bound, `rel`
/// resolved against the first (the paper fixes the bound per dataset).
fn compressed_pair(a: &[f32], b: &[f32], rel: f64, knobs: &Knobs) -> [CompressedStream; 2] {
    let eb = ErrorBound::Rel(rel).resolve(a).expect("bound");
    let cfg = Config::new(ErrorBound::Abs(eb)).with_threads(knobs.threads);
    [a, b].map(|f| fzlight::compress(f, &cfg).expect("compress"))
}

/// TAB3: per app × REL, `[ratio, NRMSE, NRMSE std]` of fZ-light then of
/// ompSZp, means over two fields.
fn tab03_rows(knobs: &Knobs) -> Vec<Row<6>> {
    let n = knobs.field_elems();
    let mut rows = Vec::new();
    for app in App::ALL {
        let fields = [0, 1].map(|seed| app.generate(n, seed));
        for rel in RELS {
            let cfg = Config::new(ErrorBound::Rel(rel)).with_threads(knobs.threads);
            let (mut ratio, mut nrmse) = ([vec![], vec![]], [vec![], vec![]]);
            for f in &fields {
                let fz = fzlight::compress(f, &cfg).expect("fZ-light compress");
                let o = ompszp::compress(f, &cfg).expect("ompSZp compress");
                ratio[0].push(fz.ratio());
                ratio[1].push(o.ratio());
                nrmse[0].push(Quality::compare(f, &fzlight::decompress(&fz).expect("fZ")).nrmse);
                nrmse[1].push(Quality::compare(f, &ompszp::decompress(&o).expect("oSZp")).nrmse);
            }
            let [(fr, _), (or, _)] = ratio.map(|r| mean_std(&r));
            let [(fzn, fzs), (on, os)] = nrmse.map(|e| mean_std(&e));
            rows.push((app, rel, [fr, fzn, fzs, or, on, os]));
        }
    }
    rows
}

fn tab03(knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = tab03_rows(knobs).into_iter().map(|(app, rel, v)| {
        let codec = |i: usize| {
            [format!("{:.2}", v[i]), format!("{:.2e}", v[i + 1]), format!("{:.0e}", v[i + 2])]
        };
        [vec![app.name().into(), format!("{rel:.0e}")], codec(0).into(), codec(3).into()].concat()
    });
    let columns = [
        ("App", 12),
        ("REL", 6),
        ("fZ Ratio", 9),
        ("fZ NRMSE", 10),
        ("fZ STD", 9),
        ("oSZp Ratio", 10),
        ("oSZp NRMSE", 10),
        ("oSZp STD", 9),
    ];
    write(
        (out, knobs),
        "TAB3: Table III — ratio & NRMSE, fZ-light vs ompSZp",
        &columns,
        rows,
        "(paper Table III): every ratio falls as the bound tightens;\n\
         fZ-light >= ompSZp on nearly every row, the largest gap on CESM-ATM;\n\
         NRMSE columns equal by construction (shared quantizer).\n",
    )
}

/// TAB5: per app, the `[P1, P2, P3, P4]` shares (%) of the homomorphic sum
/// of two snapshots at REL 1e-3.
fn tab05_rows(knobs: &Knobs) -> Vec<Row<4>> {
    let n = knobs.field_elems();
    Vec::from(App::ALL.map(|app| {
        let [a, b] = compressed_pair(&app.generate(n, 0), &app.generate(n, 1), 1e-3, knobs);
        let (_, stats) = hzdyn::homomorphic_sum_with_stats(&a, &b).expect("hz");
        (app, 1e-3, stats.percentages())
    }))
}

fn tab05(knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = tab05_rows(knobs).into_iter().map(|(app, _, p)| {
        [vec![app.name().to_string()], p.map(|p| format!("{p:.2}%")).into()].concat()
    });
    write(
        (out, knobs),
        "TAB5: Table V — dynamic pipeline selection (REL 1e-3)",
        &[("App", 12), ("P1", 8), ("P2", 8), ("P3", 8), ("P4", 8)],
        rows,
        "(paper Table V): NYX and Sim. Set. 2 dominated by the cheap\n\
         pipelines (1-3; their sum is ABL1's share), CESM-ATM all pipeline 4.\n",
    )
}

/// TAB6: per app × REL, `[ratio, NRMSE]` of the hZ-dynamic sum of two
/// snapshots, then of the DOC workflow's, NRMSE against the exact f32 sum.
fn tab06_rows(knobs: &Knobs) -> Vec<Row<4>> {
    let n = knobs.field_elems();
    let mut rows = Vec::new();
    for app in App::ALL {
        let (a, b) = (app.generate(n, 0), app.generate(n, 1));
        let exact: Vec<f32> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        for rel in RELS {
            let [ca, cb] = compressed_pair(&a, &b, rel, knobs);
            let hz = hzdyn::homomorphic_sum(&ca, &cb).expect("hz");
            let doc = hzdyn::doc_reduce(&ca, &cb, hzdyn::ReduceOp::Sum).expect("doc");
            let [h, d] = [hz, doc].map(|s| {
                (s.ratio(), Quality::compare(&exact, &fzlight::decompress(&s).expect("sum")).nrmse)
            });
            rows.push((app, rel, [h.0, h.1, d.0, d.1]));
        }
    }
    rows
}

fn tab06(knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = tab06_rows(knobs).into_iter().map(|(app, rel, v)| {
        let (r, e) = (|i: usize| format!("{:.2}", v[i]), |i: usize| format!("{:.1e}", v[i]));
        vec![app.name().into(), format!("{rel:.0e}"), r(0), e(1), r(2), e(3)]
    });
    let columns = [
        ("App", 12),
        ("REL", 6),
        ("hZ Ratio", 9),
        ("hZ NRMSE", 9),
        ("DOC Ratio", 9),
        ("DOC NRMSE", 9),
    ];
    write(
        (out, knobs),
        "TAB6: Table VI — hZ-dynamic vs fZ-light (DOC): ratio and error",
        &columns,
        rows,
        "(paper Table VI): hZ-dynamic's NRMSE is equal or better on\n\
         every row; equal here, as DOC re-quantizes a sum already on the grid.\n",
    )
}

/// ABL3: per app and block length, `[ratio]` at REL 1e-3.
fn abl_block_len_rows(knobs: &Knobs) -> Vec<Row<1>> {
    let cfg = Config::new(ErrorBound::Rel(1e-3)).with_threads(knobs.threads);
    let mut rows = Vec::new();
    for app in [App::Hurricane, App::SimSet2] {
        let data = app.generate(knobs.field_elems(), 0);
        for len in [8, 16, 32, 64] {
            let cfg = cfg.clone().with_block_len(len);
            rows.push((app, len as f64, [fzlight::compress(&data, &cfg).expect("fZ").ratio()]));
        }
    }
    rows
}

fn abl_block_len(knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = abl_block_len_rows(knobs)
        .into_iter()
        .map(|(app, len, [r])| vec![app.name().into(), len.to_string(), format!("{r:.2}")]);
    write(
        (out, knobs),
        "ABL3: ablation — small-block length sweep (REL 1e-3)",
        &[("App", 12), ("block_len", 9), ("Ratio", 8)],
        rows,
        "(no paper counterpart): the ratio rises with block length on\n\
         smooth Sim. Set. 2; on rough Hurricane 32 is within a few percent of\n\
         the best. The paper's 32 is cuSZp's GPU block, not a ratio optimum.\n",
    )
}

/// PROJ: per node count, the Allreduce seconds `costmodel::predict` gives
/// MPI, C-Coll ST, hZCCL ST, C-Coll MT and hZCCL MT at the paper's 646
/// MB/rank, ratio 7.18 (paper Table III, RTM-class data at 1e-4), paper
/// throughputs and the effective-goodput net model.
fn proj_rows() -> Vec<(usize, [f64; 5])> {
    // the paper's message, Table III ratio and 18-thread socket; each cell
    // sets the rank count and the kernel
    let k = kernels(18);
    let thr = hzccl::paper_model(k[0].1, k[0].2);
    let p =
        Scenario { nranks: 2, message_bytes: 646 << 20, ratio: 7.18, net: Default::default(), thr };
    let t = |nranks, (_, v, m): (&str, hzccl::Variant, _)| {
        let s = Scenario { nranks, thr: hzccl::paper_model(v, m), ..p };
        predict(&s, Op::Allreduce, v.flavor(), Algo::Ring, 1, None)
    };
    let nodes = [2, 8, 16, 64, 128, 256, 512];
    nodes.into_iter().map(|n| (n, [0, 3, 4, 1, 2].map(|i| t(n, k[i])))).collect()
}

fn proj(knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let rows = proj_rows().into_iter().map(|(nodes, t)| {
        let cells = t[1..].iter().map(|x| format!("{x:.2}s {:.2}x", t[0] / x));
        [vec![nodes.to_string(), format!("{:.2}", t[0])], cells.collect()].concat()
    });
    let columns = [
        ("Nodes", 6),
        ("MPI (s)", 9),
        ("C-Coll ST", 11),
        ("hZCCL ST", 11),
        ("C-Coll MT", 11),
        ("hZCCL MT", 11),
    ];
    write(
        (out, knobs),
        "PROJ: paper-scale projection (646 MB/rank, ratio 7.18, closed-form cost model)",
        &columns,
        rows,
        "(paper Figs. 10-12): every speedup over MPI rises with node\n\
         count, toward the paper's 512-node observations (hZCCL ~1.9-2.1x ST,\n\
         ~5.6-6.8x MT), and hZCCL beats C-Coll in both modes at every count.\n",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The goldens' scale (`tests/figure_goldens.rs`).
    fn knobs() -> Knobs {
        Knobs { size_mb: 1, threads: 2, ..Knobs::from_env() }
    }

    /// Each app's rows, in table order.
    fn by_app<const K: usize>(rows: &[Row<K>]) -> Vec<Vec<Row<K>>> {
        App::ALL
            .iter()
            .map(|a| rows.iter().filter(|r| r.0 == *a).copied().collect::<Vec<_>>())
            .filter(|rows| !rows.is_empty())
            .collect()
    }

    #[test]
    fn tab03_shape() {
        let rows = tab03_rows(&knobs());
        assert_eq!(rows.len(), 20);
        for app in by_app(&rows) {
            for codec in [0, 3] {
                let ratios: Vec<f64> = app.iter().map(|r| r.2[codec]).collect();
                assert!(ratios.windows(2).all(|w| w[0] > w[1]), "{:?}: {ratios:?}", app[0].0);
            }
        }
        // one quantizer, so one reconstruction: equal to the last bit
        for (app, rel, v) in &rows {
            assert_eq!(v[1..3], v[4..6], "{app:?} {rel}: NRMSE differs");
        }
        // ompSZp's zero-block elision wins three RTM rows at this scale
        let below: Vec<(App, f64)> =
            rows.iter().filter(|r| r.2[0] < r.2[3]).map(|r| (r.0, r.1)).collect();
        assert_eq!(below, [(App::SimSet1, 1e-4), (App::SimSet2, 1e-2), (App::SimSet2, 1e-3)]);
        let gap = |r: &Row<6>| r.2[0] / r.2[3];
        let widest = rows.iter().max_by(|a, b| gap(a).total_cmp(&gap(b))).unwrap();
        assert_eq!((widest.0, widest.1), (App::CesmAtm, 1e-1), "{widest:?}");
    }

    #[test]
    fn tab05_shape() {
        let rows = tab05_rows(&knobs());
        let p = |app: App| rows.iter().find(|r| r.0 == app).unwrap().2;
        for app in [App::SimSet2, App::Nyx] {
            assert!(p(app)[0] >= 88.0, "{app:?}: P1 {:?}", p(app));
        }
        for app in [App::CesmAtm, App::Hurricane] {
            assert_eq!(p(app)[3], 100.0, "{app:?}: P4 {:?}", p(app));
        }
    }

    #[test]
    fn tab06_shape() {
        let rows = tab06_rows(&knobs());
        assert_eq!(rows.len(), 20);
        for (app, rel, v) in &rows {
            assert!(v[1] <= v[3], "{app:?} {rel}: hZ NRMSE {} > DOC {}", v[1], v[3]);
        }
    }

    #[test]
    fn abl_block_len_shape() {
        let rows = abl_block_len_rows(&knobs());
        let ratios = |app| rows.iter().filter(|r| r.0 == app).map(|r| r.2[0]).collect::<Vec<_>>();
        // block lengths 8, 16, 32, 64
        let hurricane = ratios(App::Hurricane);
        let best = hurricane.iter().copied().fold(0.0, f64::max);
        assert!(hurricane[2] >= 0.94 * best, "Hurricane: {hurricane:?}");
        let sim2 = ratios(App::SimSet2);
        assert!(sim2.windows(2).all(|w| w[0] < w[1]), "Sim. Set. 2: {sim2:?}");
    }

    #[test]
    fn proj_shape() {
        let rows = proj_rows();
        for col in 1..5 {
            let speedups: Vec<f64> = rows.iter().map(|(_, t)| t[0] / t[col]).collect();
            assert!(speedups.windows(2).all(|w| w[0] < w[1]), "column {col}: {speedups:?}");
        }
        for (nodes, t) in &rows {
            assert!(t[2] < t[1] && t[4] < t[3], "{nodes} nodes: hZCCL {t:?}");
        }
    }
}
