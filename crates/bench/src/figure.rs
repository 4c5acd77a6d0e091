//! The paper's collective evaluation as data: every collective figure and
//! table (FIG2, FIG7–13, TAB7) and the collective extensions (EXT1–4, ABL4)
//! is one [`Figure`] declaration — id, title, op, app(s), x-axis, series,
//! columns, expected-shape text — and [`render`] is the one program that
//! turns a declaration into [`suite::CaseSpec`]s, runs them through
//! [`suite::run_case`] and prints the table. `cargo bench --bench figures --
//! <target>` is [`main`] on the declaration of that name;
//! `tests/figure_goldens.rs` renders every declaration at a tiny
//! deterministic scale and compares the text byte for byte.

use crate::suite::{self, CaseSpec, Fields, Runner, SuiteConfig, Timing};
use crate::{kernels, Knobs, Table};
use costmodel::Scenario;
use datasets::{App, Quality};
use hzccl::{Mode, Variant};
use netsim::{Breakdown, NetConfig};
use std::io::{self, Write};
use tuner::{Algo, Engine, Flavor, Op};

/// One curve of a figure: `(label, who runs, thread mode)`.
type Series = (&'static str, Runner, Mode);

/// In a [`Cell`], "the series this row (or section) is about" — for tables
/// whose rows are the series themselves.
const ROW: usize = usize::MAX;

/// The paper's multi-thread operating point: one 18-core Broadwell socket.
const SOCKET: Mode = Mode::MultiThread(18);

/// What varies down the rows of a table.
#[derive(Debug, Clone)]
enum Axis {
    /// Message size in multiples of the figure's base message (MiB).
    SizesMb(Vec<usize>),
    /// Message size in KiB.
    SizesKb(Vec<usize>),
    /// Message size in KiB, each row a tuner sweep ([`suite::tune_case`])
    /// followed by the plan the tuner then decides on: the row's runs are
    /// `[best static, worst static, auto]`.
    TunedKb(Vec<usize>),
    /// Rank count: 2, 8, 32, … up to `HZ_MAX_RANKS`.
    Nodes,
    /// Pipeline segment count.
    Segments(Vec<usize>),
    /// The network model.
    Nets(Vec<(&'static str, NetConfig)>),
    /// Nothing: one operating point, one row per series (the first `skip`
    /// series run — as baselines — but get no row).
    Kernels {
        /// Leading series without a row.
        skip: usize,
    },
}

/// What a figure's tables are split by.
#[derive(Debug, Clone)]
enum Split {
    /// One table.
    None,
    /// One table per application.
    Apps(Vec<App>),
    /// One table per collective, `(op, display name)`.
    Ops(Vec<(Op, &'static str)>),
    /// One table per series.
    Series,
}

/// One table cell as a function of the row's runs (indexed like the
/// figure's series; [`ROW`] = the row's own).
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// The row label: the x value, or the series label.
    X,
    /// Makespan in ms at this many decimals, plus a unit suffix.
    Ms(usize, usize, &'static str),
    /// `t[a] / t[b]` as `1.23x`.
    Ratio(usize, usize),
    /// `1.23ms 4.56x`: makespan, and speedup over the baseline series.
    MsRatio(usize, usize),
    /// Share of the summed cost buckets: 0 = DOC (CPR+DPR+CPT+HPR),
    /// 1 = MPI, 2 = other.
    Share(usize, usize),
    /// Label of the faster of two series (the second on a tie).
    Winner(usize, usize),
    /// Speedup over the table's first row.
    VsFirst(usize),
    /// Whether rank 0's result has the bits of the table's first row
    /// (asserted, too).
    SameBits(usize),
    /// The runner's name (a plan's label).
    Who(usize),
    /// `t[a]` over `t[b]` as a signed percentage.
    Over(usize, usize),
}

/// Figure-specific output beyond the table.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extra {
    /// Nothing.
    None,
    /// Quality of the stacked image series `.0` produced, against exact f32
    /// stacking; `images` also writes both as PGM under `target/fig13/`.
    Stack(usize, bool),
    /// The cost model's view of the hz ring at this operating point: ratio
    /// and optimal segment count for the lead, per-`S` predictions after
    /// the tables.
    PipelineModel,
}

/// One figure or table of the evaluation.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Selector (`cargo bench --bench figures -- <target>`) and golden file
    /// stem.
    pub target: &'static str,
    /// Experiment id of EXPERIMENTS.md.
    id: &'static str,
    /// Banner title.
    title: &'static str,
    /// The collective (unless split by op).
    op: Op,
    /// The application (unless split by app), its seed and field recipe.
    app: App,
    /// Field seed.
    seed: u64,
    /// How ranks derive their fields.
    fields: Fields,
    /// Rank count (unless the axis varies it).
    ranks: usize,
    /// Per-rank message in elements (unless the axis varies it; the base
    /// of [`Axis::SizesMb`]), a `side` x `side` image when that is set.
    msg: usize,
    side: usize,
    /// Timed by the paper calibration whatever `HZ_PAPER_MODEL` says (the
    /// extensions are defined at the paper's operating point).
    paper_timed: bool,
    /// What the tables are split by, and the header line of each
    /// (`{name}`, `{ranks}`, `{mb}`).
    split: Split,
    /// Section header template.
    section: &'static str,
    /// Text between banner and first table (`{ranks}`, `{mb}`, `{side}`,
    /// `{ratio}`, `{s_star}`).
    lead: &'static str,
    /// The x-axis.
    x: Axis,
    /// Who runs at every point.
    series: Vec<Series>,
    /// `(header, width, cell)` per column; empty = no table.
    columns: Vec<(&'static str, usize, Cell)>,
    /// Output beyond the table.
    extra: Extra,
    /// Closing text: the shape the paper reports.
    expected: &'static str,
}

/// What a cell needs of one run.
struct Run {
    secs: f64,
    breakdown: Breakdown,
    who: String,
    /// Rank 0's result.
    value: Vec<f32>,
}

/// One row's operating point.
struct Point {
    label: String,
    ranks: usize,
    elems: usize,
    segments: usize,
    net: NetConfig,
}

impl Cell {
    fn text(
        self,
        x: &str,
        runs: &[Run],
        first: Option<&[Run]>,
        labels: &[&str],
        row: usize,
    ) -> String {
        let at = |i: usize| if i == ROW { row } else { i };
        let t = |i: usize| runs[at(i)].secs;
        match self {
            Cell::X => x.to_string(),
            Cell::Ms(i, decimals, unit) => format!("{:.*}{unit}", decimals, t(i) * 1e3),
            Cell::Ratio(a, b) => format!("{:.2}x", t(a) / t(b)),
            Cell::MsRatio(i, base) => format!("{:.2}ms {:.2}x", t(i) * 1e3, t(base) / t(i)),
            Cell::Share(i, bucket) => {
                let (doc, mpi, other) = runs[at(i)].breakdown.percentages();
                format!("{:.2}%", [doc, mpi, other][bucket])
            }
            Cell::Winner(a, b) => labels[at(if t(a) < t(b) { a } else { b })].to_string(),
            Cell::VsFirst(i) => format!("{:.2}x", first.unwrap_or(runs)[at(i)].secs / t(i)),
            Cell::SameBits(i) => match first {
                None => "ref".to_string(),
                Some(first) => {
                    let same = first[at(i)].value == runs[at(i)].value;
                    assert!(same, "{}: row {x} changed the result bits", labels[at(i)]);
                    "yes".to_string()
                }
            },
            Cell::Who(i) => runs[at(i)].who.clone(),
            Cell::Over(a, b) => format!("{:+.1}%", (t(a) / t(b) - 1.0) * 100.0),
        }
    }
}

/// Substitute `{key}` placeholders.
fn fill(template: &str, vars: &[(&str, String)]) -> String {
    vars.iter().fold(template.to_string(), |s, (k, v)| s.replace(&format!("{{{k}}}"), v))
}

/// Render `fig` under `knobs` to `out`, row by row as the runs complete.
pub fn render(fig: &Figure, knobs: &Knobs, out: &mut dyn Write) -> io::Result<()> {
    let ranks = fig.ranks.max(2);
    let shown = Knobs { ranks: Some(fig.ranks), ..knobs.clone() };
    write!(out, "{}", shown.banner(fig.id, fig.title))?;

    let (msg, side) = (fig.msg, fig.side);
    let point =
        |label: String| Point { label, ranks, elems: msg, segments: 1, net: NetConfig::default() };
    let points: Vec<Point> = match &fig.x {
        Axis::SizesMb(ks) => ks
            .iter()
            .map(|k| Point { elems: k * msg, ..point(format!("{} MB", (k * msg) >> 18)) })
            .collect(),
        Axis::SizesKb(kbs) | Axis::TunedKb(kbs) => {
            kbs.iter().map(|kb| Point { elems: kb << 8, ..point(format!("{kb} KB")) }).collect()
        }
        Axis::Nodes => std::iter::successors(Some(2usize), |n| Some(n * 4))
            .take_while(|&n| n <= knobs.max_ranks)
            .map(|n| Point { ranks: n, ..point(n.to_string()) })
            .collect(),
        Axis::Segments(list) => {
            list.iter().map(|&s| Point { segments: s, ..point(s.to_string()) }).collect()
        }
        Axis::Nets(nets) => {
            nets.iter().map(|&(name, net)| Point { net, ..point(name.to_string()) }).collect()
        }
        Axis::Kernels { .. } => vec![point(String::new())],
    };

    let timing = if fig.paper_timed || knobs.paper_model { Timing::Paper } else { Timing::Host };
    let base_cfg = SuiteConfig {
        seed: fig.seed,
        app: fig.app,
        fields: fig.fields,
        timing,
        ..Default::default()
    };
    let run = |spec: &CaseSpec, cfg: &SuiteConfig| -> Run {
        let mut done = suite::run_case(spec, cfg);
        Run {
            secs: done.result.virtual_secs,
            breakdown: done.result.breakdown,
            who: spec.runner.name(),
            value: done.report.outcomes.swap_remove(0).value.result.value,
        }
    };
    let spec_at = |op: Op, (_, runner, mode): &Series, p: &Point| CaseSpec {
        elems: p.elems,
        segments: p.segments,
        mode: *mode,
        ..CaseSpec::new(op, *runner, p.ranks, 0)
    };

    let mut vars = vec![
        ("ranks", ranks.to_string()),
        ("mb", ((msg * 4) >> 20).to_string()),
        ("side", side.to_string()),
    ];
    // the cost model's hz ring at this operating point (EXT4)
    let model = (fig.extra == Extra::PipelineModel).then(|| {
        let fields = suite::rank_fields(&spec_at(fig.op, &fig.series[0], &points[0]), &base_cfg);
        let sample = &fields[0][..msg.min(1 << 20)];
        let fz = fzlight::Config::new(fzlight::ErrorBound::Abs(base_cfg.eb));
        let ratio = fzlight::compress(sample, &fz)
            .map(|s| (sample.len() * 4) as f64 / s.compressed_size().max(1) as f64)
            .unwrap_or(1.0)
            .max(1.0);
        let thr = hzccl::paper_model(Variant::Hzccl, SOCKET);
        Scenario { nranks: ranks, message_bytes: msg * 4, ratio, net: base_cfg.net, thr }
    });
    if let Some(scen) = &model {
        vars.push(("ratio", format!("{:.1}", scen.ratio)));
        vars.push(("s_star", costmodel::optimal_segments_hzccl(scen).to_string()));
    }
    write!(out, "{}", fill(fig.lead, &vars))?;

    let sections: Vec<(String, App, Op, Vec<Series>)> = match &fig.split {
        Split::None => vec![(String::new(), fig.app, fig.op, fig.series.clone())],
        Split::Apps(apps) => {
            apps.iter().map(|a| (a.name().into(), *a, fig.op, fig.series.clone())).collect()
        }
        Split::Ops(ops) => {
            ops.iter().map(|&(op, name)| (name.into(), fig.app, op, fig.series.clone())).collect()
        }
        Split::Series => {
            fig.series.iter().map(|s| (s.0.into(), fig.app, fig.op, vec![*s])).collect()
        }
    };
    let headers: Vec<(&str, usize)> = fig.columns.iter().map(|&(h, w, _)| (h, w)).collect();
    let mut engine = Engine::paper(); // a tuned axis feeds one cache down its rows
    let mut stacked = None;
    for (name, app, op, series) in sections {
        let labels: Vec<&str> = series.iter().map(|s| s.0).collect();
        let cfg = SuiteConfig { app, ..base_cfg.clone() };
        if !fig.section.is_empty() {
            vars.push(("name", name));
            writeln!(out, "{}", fill(fig.section, &vars))?;
            vars.pop();
        }
        let table = match headers.is_empty() {
            true => None,
            false => Some(Table::start(out, &headers)?),
        };
        let mut first: Option<Vec<Run>> = None;
        for p in &points {
            let cfg = SuiteConfig { net: p.net, ..cfg.clone() };
            let runs: Vec<Run> = match fig.x {
                Axis::TunedKb(_) => {
                    let spec =
                        spec_at(op, &("", Runner::Variant(Variant::Auto), Mode::SingleThread), p);
                    let (mut best, mut worst) = (f64::INFINITY, 0f64);
                    let scenario = suite::tune_case(&mut engine, &spec, &cfg, |_, _, secs, _| {
                        best = best.min(secs);
                        worst = worst.max(secs);
                    });
                    // what Auto runs once the plan is agreed: the decided
                    // plan, timed by the calibration the sweep left behind
                    let plan = engine.decide(&scenario).plan;
                    let timing = Timing::Model(engine.calib.model(plan.flavor, plan.mode));
                    let auto = CaseSpec { runner: Runner::Plan(plan), ..spec };
                    let auto = run(&auto, &SuiteConfig { timing, ..cfg.clone() });
                    let bound = |secs| Run {
                        secs,
                        breakdown: auto.breakdown,
                        who: String::new(),
                        value: Vec::new(),
                    };
                    vec![bound(best), bound(worst), auto]
                }
                _ => series.iter().map(|s| run(&spec_at(op, s, p), &cfg)).collect(),
            };
            if let Some(table) = &table {
                let rows = match fig.x {
                    Axis::Kernels { skip } => skip..series.len(),
                    _ => 0..1,
                };
                for row in rows {
                    let x = if p.label.is_empty() { labels[row] } else { &p.label };
                    let cells: Vec<String> = fig
                        .columns
                        .iter()
                        .map(|(_, _, c)| c.text(x, &runs, first.as_deref(), &labels, row))
                        .collect();
                    table.write_row(out, &cells)?;
                }
            }
            if let Extra::Stack(i, _) = fig.extra {
                let fields = suite::rank_fields(&spec_at(op, &series[i], p), &cfg);
                stacked = Some((fields, runs[i].value.clone()));
            }
            first.get_or_insert(runs);
        }
        if !matches!(fig.split, Split::None) {
            writeln!(out)?;
        }
    }

    if let (Extra::Stack(_, images), Some((fields, stacked))) = (fig.extra, &stacked) {
        // exact f32 stacking, in rank order
        let exact: Vec<f32> = (0..msg).map(|i| fields.iter().map(|f| f[i]).sum::<f32>()).collect();
        let q = Quality::compare(&exact, stacked);
        if images {
            let dir = std::path::Path::new("target/fig13");
            std::fs::create_dir_all(dir)?;
            datasets::save_pgm(&dir.join("stack_mpi.pgm"), &exact, side, side)?;
            datasets::save_pgm(&dir.join("stack_hzccl.pgm"), stacked, side, side)?;
            let bound = ranks as f64 * base_cfg.eb;
            writeln!(
                out,
                "wrote {}/stack_mpi.pgm and stack_hzccl.pgm ({side}x{side})\n\
                 PSNR = {:.2} dB, NRMSE = {:.1e}, max abs err = {:.2e}\n\
                 max abs err vs theoretical bound N*eb = {bound:.2e}: {}",
                dir.display(),
                q.psnr,
                q.nrmse,
                q.max_abs_err,
                if q.max_abs_err <= bound * 1.01 { "WITHIN BOUND" } else { "EXCEEDED" }
            )?;
        } else {
            writeln!(
                out,
                "\nhZCCL stacked-image quality: PSNR = {:.2} dB, NRMSE = {:.1e}",
                q.psnr, q.nrmse
            )?;
        }
    }
    if let (Some(scen), Axis::Segments(list)) = (&model, &fig.x) {
        writeln!(out, "cost-model hz predictions:")?;
        for &s in list {
            let t = costmodel::predict(scen, Op::Allreduce, Flavor::Hzccl, Algo::Ring, s, None);
            writeln!(out, "  S={s:<3} {:.3} ms", t * 1e3)?;
        }
    }
    write!(out, "{}", fig.expected)
}

/// `fn main` of the `figures` bench target: render the declarations named on
/// the command line (none = every one) in [`all`] order under the
/// environment's knobs to stdout. The `--bench` token cargo passes to
/// `harness = false` binaries is ignored.
pub fn main() {
    let knobs = Knobs::from_env();
    let figs = all(&knobs);
    let names: Vec<String> = std::env::args().skip(1).filter(|a| !a.starts_with("--")).collect();
    if let Some(unknown) = names.iter().find(|n| figs.iter().all(|f| f.target != *n)) {
        let known: Vec<&str> = figs.iter().map(|f| f.target).collect();
        eprintln!("no figure is declared for '{unknown}' (declared: {})", known.join(", "));
        std::process::exit(2);
    }
    let out = &mut io::stdout().lock();
    for fig in figs.iter().filter(|f| names.is_empty() || names.iter().any(|n| n == f.target)) {
        render(fig, &knobs, out).expect("stdout");
    }
}

/// Every collective figure of EXPERIMENTS.md, with the knobs' values (or
/// the figure's own defaults) filled in.
pub fn all(knobs: &Knobs) -> Vec<Figure> {
    let k = kernels(knobs.threads);
    let pick = |ids: &[usize]| -> Vec<Series> {
        ids.iter().map(|&i| (k[i].0, Runner::Variant(k[i].1), k[i].2)).collect()
    };
    let flavours = |labels: [&'static str; 3]| -> Vec<Series> {
        let variants = [Variant::Mpi, Variant::CColl, Variant::Hzccl];
        labels.iter().zip(variants).map(|(&l, v)| (l, Runner::Variant(v), SOCKET)).collect()
    };
    let ranks_or = |default: usize| knobs.ranks.unwrap_or(default);
    let node_mb = |default: usize| knobs.node_msg_mb.unwrap_or(default) << 18;
    let blank = Figure {
        target: "",
        id: "",
        title: "",
        op: Op::Allreduce,
        app: App::SimSet1,
        seed: 0,
        fields: Fields::Scaled,
        ranks: ranks_or(64),
        msg: node_mb(4),
        side: 0,
        paper_timed: false,
        split: Split::None,
        section: "",
        lead: "",
        x: Axis::Kernels { skip: 0 },
        series: Vec::new(),
        columns: Vec::new(),
        extra: Extra::None,
        expected: "",
    };
    // the image-stacking use case: one noisy observation of a scene per rank
    let image = |default: usize| {
        let side = knobs.img_side.unwrap_or(default);
        let (app, seed, fields) = (App::Hurricane, 42, Fields::Stacking);
        Figure { app, seed, fields, msg: side * side, side, ..blank.clone() }
    };
    // the five-kernel sweeps of Figs. 9-12: speedups relative to plain MPI
    let vs_mpi = |x: &'static str, width: usize| Figure {
        series: pick(&[0, 3, 4, 1, 2]),
        columns: vec![
            (x, width, Cell::X),
            ("MPI (ms)", 10, Cell::Ms(0, 2, "")),
            ("C-Coll ST", 12, Cell::MsRatio(1, 0)),
            ("hZCCL ST", 12, Cell::MsRatio(2, 0)),
            ("C-Coll MT", 12, Cell::MsRatio(3, 0)),
            ("hZCCL MT", 12, Cell::MsRatio(4, 0)),
        ],
        ..blank.clone()
    };
    let sizes = || Figure {
        lead: "{ranks} ranks, RTM (Sim. Set. 1) data, abs eb = 1e-4\n\n",
        x: Axis::SizesMb(vec![1, 2, 4, 8]),
        ..vs_mpi("Size/rank", 10)
    };
    let nodes = || Figure {
        lead: "per-rank message: {mb} MB, RTM (Sim. Set. 1) data\n\n",
        msg: node_mb(8),
        x: Axis::Nodes,
        ..vs_mpi("Nodes", 6)
    };
    // hZCCL against C-Coll on the two RTM datasets (Figs. 7-8)
    let rtm = || Figure {
        split: Split::Apps(vec![App::SimSet1, App::SimSet2]),
        section: "--- {name} ({ranks} ranks) ---",
        x: Axis::SizesMb(vec![1, 2, 4]),
        series: pick(&[3, 4, 1, 2]),
        ..blank.clone()
    };
    vec![
        Figure {
            target: "fig02_breakdown",
            id: "FIG2",
            title: "Fig. 2 — Allreduce cost breakdown (C-Coll ST/MT), 16 ranks",
            ranks: ranks_or(16),
            msg: knobs.field_elems(),
            series: pick(&[3, 1, 4, 2]),
            columns: vec![
                ("Kernel", 24, Cell::X),
                ("DPR+CPT+CPR", 12, Cell::Share(ROW, 0)),
                ("MPI", 8, Cell::Share(ROW, 1)),
                ("OTHER", 8, Cell::Share(ROW, 2)),
                ("makespan (ms)", 13, Cell::Ms(ROW, 3, "")),
            ],
            expected: "\nExpected shape (paper Fig. 2): C-Coll ST ~78% DOC / ~22% MPI;\n\
                       C-Coll MT ~52% DOC / ~47% MPI; hZCCL shifts weight from DOC to MPI.\n",
            ..blank.clone()
        },
        Figure {
            target: "fig07_reduce_scatter",
            id: "FIG7",
            title: "Fig. 7 — Reduce_scatter: hZCCL vs C-Coll, RTM datasets",
            op: Op::ReduceScatter,
            columns: vec![
                ("Size/rank", 10, Cell::X),
                ("C-Coll ST (ms)", 14, Cell::Ms(0, 3, "")),
                ("hZCCL ST (ms)", 13, Cell::Ms(1, 3, "")),
                ("ST speedup", 10, Cell::Ratio(0, 1)),
                ("C-Coll MT (ms)", 14, Cell::Ms(2, 3, "")),
                ("hZCCL MT (ms)", 13, Cell::Ms(3, 3, "")),
                ("MT speedup", 10, Cell::Ratio(2, 3)),
            ],
            expected: "Expected shape (paper Fig. 7): hZCCL beats C-Coll in both modes\n\
                       (paper: up to 1.82x ST / 2.01x MT), improvement growing with size.\n",
            ..rtm()
        },
        Figure {
            target: "fig08_allreduce",
            id: "FIG8",
            title: "Fig. 8 — Allreduce: hZCCL vs C-Coll (+ unfused ablation)",
            // DESIGN.md ablation 4: the Sec. III-C.2 stage fusion
            series: [rtm().series, vec![("hZ unfused MT", Runner::Unfused, k[2].2)]].concat(),
            columns: vec![
                ("Size/rank", 10, Cell::X),
                ("C-Coll ST", 10, Cell::Ms(0, 2, "ms")),
                ("hZCCL ST", 10, Cell::Ms(1, 2, "ms")),
                ("ST spd", 8, Cell::Ratio(0, 1)),
                ("C-Coll MT", 10, Cell::Ms(2, 2, "ms")),
                ("hZCCL MT", 10, Cell::Ms(3, 2, "ms")),
                ("MT spd", 8, Cell::Ratio(2, 3)),
                ("hZ unfused MT", 13, Cell::Ms(4, 2, "ms")),
            ],
            expected: "Expected shape (paper Fig. 8): hZCCL beats C-Coll in both modes\n\
                       (paper: 1.55-1.78x ST, 2.00-2.10x MT); the fused Allreduce beats\n\
                       the unfused ablation.\n",
            ..rtm()
        },
        Figure {
            target: "fig09_rs_sizes",
            id: "FIG9",
            title: "Fig. 9 — Reduce_scatter vs MPI/C-Coll across data sizes",
            op: Op::ReduceScatter,
            expected: "\nExpected shape (paper Fig. 9): hZCCL > C-Coll > MPI at every size\n\
                       (paper: up to 1.58x ST / 4.04x MT over MPI), speedup growing with size.\n",
            ..sizes()
        },
        Figure {
            target: "fig10_rs_nodes",
            id: "FIG10",
            title: "Fig. 10 — Reduce_scatter scalability across node counts",
            op: Op::ReduceScatter,
            expected: "\nExpected shape (paper Fig. 10): speedup over MPI rises with node\n\
                       count (congestion), then dips/stabilizes as shrinking chunks raise\n\
                       per-round compression latency (paper: up to 1.9x ST / 5.85x MT).\n",
            ..nodes()
        },
        Figure {
            target: "fig11_ar_sizes",
            id: "FIG11",
            title: "Fig. 11 — Allreduce vs MPI/C-Coll across data sizes",
            expected: "\nExpected shape (paper Fig. 11): hZCCL > C-Coll > MPI at every size\n\
                       (paper: up to 1.96x ST / 5.35x MT over MPI), speedup growing with size.\n",
            ..sizes()
        },
        Figure {
            target: "fig12_ar_nodes",
            id: "FIG12",
            title: "Fig. 12 — Allreduce scalability across node counts",
            expected: "\nExpected shape (paper Fig. 12): hZCCL sustains its advantage at\n\
                       every node count (paper: up to 2.12x ST / 6.77x MT; still 1.88x /\n\
                       5.58x at 512 nodes), since Allreduce output does not shrink with N.\n",
            ..nodes()
        },
        Figure {
            target: "fig13_stacking_image",
            id: "FIG13",
            title: "Fig. 13 — stacking-image visualization (PGM output)",
            ranks: ranks_or(32),
            series: pick(&[4]),
            extra: Extra::Stack(0, true),
            expected: "\nExpected (paper Fig. 13 + Sec. IV-E): no visual difference between\n\
                       the two images; paper reports PSNR 62.00 / NRMSE 8.0e-4.\n",
            ..image(512)
        },
        Figure {
            target: "tab07_stacking",
            id: "TAB7",
            title: "Table VII — image stacking (Allreduce use case)",
            lead: "{ranks} ranks stacking {side}x{side} images, abs eb = 1e-4\n\n",
            x: Axis::Kernels { skip: 1 },
            series: pick(&[0, 4, 3, 2, 1]),
            columns: vec![
                ("Kernel", 24, Cell::X),
                ("Speedup", 8, Cell::Ratio(0, ROW)),
                ("CPR+CPT", 9, Cell::Share(ROW, 0)),
                ("MPI", 8, Cell::Share(ROW, 1)),
                ("Others", 8, Cell::Share(ROW, 2)),
            ],
            extra: Extra::Stack(1, false),
            expected: "(paper: PSNR 62.00, NRMSE 8.0e-4 at abs eb 1e-4)\n\
                       \nExpected shape (paper Table VII): hZCCL > C-Coll in both modes\n\
                       (paper: 1.81x/5.02x vs MPI against C-Coll's 1.45x/3.34x), with\n\
                       hZCCL's CPR+CPT share clearly below C-Coll's in MT mode.\n",
            ..image(1024)
        },
        Figure {
            target: "ext_reduce_bcast",
            id: "EXT1",
            title: "extension — Reduce-to-root and Bcast across flavours",
            ranks: ranks_or(16),
            paper_timed: true,
            split: Split::Ops(vec![(Op::Reduce, "Reduce(sum) to root"), (Op::Bcast, "Bcast")]),
            section: "--- {name} ({ranks} ranks, {mb} MB/rank) ---",
            series: flavours(["MPI", "C-Coll", "hZCCL"]),
            columns: vec![
                ("Flavour", 10, Cell::X),
                ("time (ms)", 10, Cell::Ms(ROW, 2, "")),
                ("speedup vs MPI", 14, Cell::Ratio(0, ROW)),
            ],
            expected: "Expected shape: hZCCL >= C-Coll > MPI for Reduce (homomorphic rounds\n\
                       + no gather recompression); for Bcast both compressed flavours\n\
                       collapse to 'compress once, ship compressed' and tie near ratio x.\n",
            ..blank.clone()
        },
        Figure {
            target: "ext_ring_vs_rd",
            id: "EXT2",
            title: "extension — ring vs recursive-doubling Allreduce crossover",
            // independent per-rank fields: partial sums grow like sqrt(k),
            // the realistic regime for ensemble/shot accumulation
            fields: Fields::PerRank,
            ranks: ranks_or(32),
            paper_timed: true,
            lead: "{ranks} ranks, hZCCL compression, RTM data\n\n",
            x: Axis::SizesKb(vec![1, 16, 256, 4096, 16384]),
            series: vec![
                ("ring", Runner::Variant(Variant::Hzccl), SOCKET),
                ("rec-dbl", Runner::rd(Flavor::Hzccl, SOCKET), SOCKET),
            ],
            columns: vec![
                ("Size/rank", 10, Cell::X),
                ("ring hZ (ms)", 12, Cell::Ms(0, 3, "")),
                ("rec-dbl hZ (ms)", 15, Cell::Ms(1, 3, "")),
                ("winner", 8, Cell::Winner(1, 0)),
            ],
            expected: "\nExpected shape: recursive doubling wins the latency-bound small-\n\
                       message regime outright. For large messages the classic ring\n\
                       advantage (2S vs log2(N)*S on the wire) is partly eroded by a\n\
                       compression effect the uncompressed analysis misses: the ring's\n\
                       Allgather ships fully-accumulated chunks whose deltas are ~sqrt(N)\n\
                       larger and compress worse, while recursive doubling ships mostly\n\
                       low-order partial sums — so the crossover moves to much larger\n\
                       messages than MPICH's uncompressed switch point.\n",
            ..blank.clone()
        },
        Figure {
            target: "ext_autotune",
            id: "EXT3",
            title: "extension — autotuned Allreduce vs every static flavour",
            app: App::SimSet2,
            seed: 7,
            ranks: ranks_or(16),
            lead: "{ranks} ranks, paper ST calibration, sim2 data; tune pass feeds the cache\n\n",
            x: Axis::TunedKb(vec![1, 16, 64, 256, 1024, 4096]),
            columns: vec![
                ("Size/rank", 10, Cell::X),
                ("best static (ms)", 16, Cell::Ms(0, 3, "")),
                ("worst static (ms)", 17, Cell::Ms(1, 3, "")),
                ("auto (ms)", 10, Cell::Ms(2, 3, "")),
                ("auto runs", 16, Cell::Who(2)),
                ("vs best", 8, Cell::Over(2, 0)),
            ],
            expected: "\nExpected shape: 'auto runs' flips from rd at small sizes to the\n\
                       homomorphic ring at large ones, and 'vs best' stays within a few\n\
                       percent everywhere — the tuner never pays the worst-static cost a\n\
                       fixed flavour choice would hit on the wrong side of a crossover.\n",
            ..blank.clone()
        },
        Figure {
            target: "ext_pipeline",
            id: "EXT4",
            title: "extension — segmented pipelined ring vs phase-serial",
            ranks: ranks_or(16),
            paper_timed: true,
            split: Split::Series,
            section: "--- {name} ---",
            lead: "{ranks} ranks, {mb} MiB/rank, ratio ~{ratio}; model-optimal S* = {s_star}\n\n",
            x: Axis::Segments(vec![1, 2, 4, 8, 16]),
            series: flavours(["MPI (no compression)", "C-Coll (DOC)", "hZCCL (homomorphic)"]),
            columns: vec![
                ("Segments", 9, Cell::X),
                ("time (ms)", 10, Cell::Ms(ROW, 3, "")),
                ("speedup vs S=1", 14, Cell::VsFirst(ROW)),
                ("bit-identical", 13, Cell::SameBits(ROW)),
            ],
            extra: Extra::PipelineModel,
            expected: "\nExpected shape: the speedup grows until the per-segment alpha cost\n\
                       eats the overlap win (steady state S*alpha + max(W, C)); the model's\n\
                       S* should land near the simulated sweet spot, and every row must\n\
                       report bit-identical results — segmentation only moves time, not bits.\n",
            ..blank.clone()
        },
        Figure {
            target: "abl_net_sensitivity",
            id: "ABL4",
            title: "ablation — network-model sensitivity of the Allreduce comparison",
            ranks: ranks_or(16),
            paper_timed: true,
            x: Axis::Nets(vec![
                ("effective goodput (default)", NetConfig::default()),
                ("100 Gbps line rate", NetConfig::opa_line_rate()),
                (
                    "congested fabric (10x slower)",
                    NetConfig { latency_s: 3e-6, bandwidth_gbps: 1.2, congestion: 0.3 },
                ),
            ]),
            series: flavours(["MPI", "C-Coll MT", "hZCCL MT"]),
            columns: vec![
                ("Fabric", 30, Cell::X),
                ("MPI (ms)", 10, Cell::Ms(0, 2, "")),
                ("C-Coll MT", 12, Cell::MsRatio(1, 0)),
                ("hZCCL MT", 12, Cell::MsRatio(2, 0)),
            ],
            expected: "\nExpected shape: the slower the effective fabric, the bigger the\n\
                       compression win; on an ideal uncongested line rate the advantage\n\
                       narrows (and can invert for fast networks + slow compressors) —\n\
                       the crossover the costmodel crate expresses in closed form.\n",
            ..blank
        },
    ]
}
