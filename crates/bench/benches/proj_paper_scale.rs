//! PROJ — paper-scale projection: evaluate the Sec. III-C cost model
//! (`costmodel::predict`) at the paper's full configuration (646 MB messages, 2-512
//! Broadwell nodes, Omni-Path) with the paper-calibrated throughputs, and
//! print the projected Allreduce speedups over MPI.

use costmodel::{predict, Algo, Op, Scenario};
use hzccl::{paper_model, Mode, Variant};
use hzccl_bench::{Knobs, Table};
use netsim::NetConfig;

fn main() {
    let knobs = Knobs::from_env();
    print!("{}", knobs.banner("PROJ", "paper-scale projection (646 MB, closed-form cost model)"));
    let message_bytes = 646 << 20;
    let ratio = 7.18; // paper Table III, RTM-class data at 1e-4
    println!("message 646 MB/rank, compression ratio {ratio}, effective-goodput net model\n");

    let table = Table::new(&[
        ("Nodes", 6),
        ("MPI (s)", 9),
        ("C-Coll ST", 11),
        ("hZCCL ST", 11),
        ("C-Coll MT", 11),
        ("hZCCL MT", 11),
    ]);
    for nranks in [2usize, 8, 16, 64, 128, 256, 512] {
        let base = Scenario {
            nranks,
            message_bytes,
            ratio,
            net: NetConfig::default(),
            thr: paper_model(Variant::Mpi, Mode::SingleThread),
        };
        let t = |variant: Variant, mode: Mode| -> f64 {
            let s = Scenario { thr: paper_model(variant, mode), ..base };
            predict(&s, Op::Allreduce, variant.flavor(), Algo::Ring, 1, None)
        };
        let t_mpi = t(Variant::Mpi, Mode::SingleThread);
        let cell = |v: Variant, m: Mode| {
            let x = t(v, m);
            format!("{:.2}s {:.2}x", x, t_mpi / x)
        };
        table.row(&[
            format!("{nranks}"),
            format!("{t_mpi:.2}"),
            cell(Variant::CColl, Mode::SingleThread),
            cell(Variant::Hzccl, Mode::SingleThread),
            cell(Variant::CColl, Mode::MultiThread(18)),
            cell(Variant::Hzccl, Mode::MultiThread(18)),
        ]);
    }
    println!("\nExpected shape: speedups over MPI rise with node count toward the");
    println!("paper's 512-node observations (hZCCL ~1.9-2.1x ST, ~5.6-6.8x MT).");
}
