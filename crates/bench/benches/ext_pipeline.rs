//! EXT4 — extension: the segmented pipelined ring. Splitting each ring-step
//! block into `S` segments lets the compute of segment `k` (HPR for hZCCL,
//! DPR+CPT for C-Coll, pack/unpack for MPI) overlap the wire time of segment
//! `k+1`; this sweep measures the virtual-time speedup across segment
//! counts, checks the cost model's predicted optimum, and verifies the
//! schedule is bit-identical to the phase-serial ring at every `S`.

use costmodel::{predict, Algo, Flavor, Op};
use datasets::App;
use hzccl::collectives::{self, CollectiveOpts};
use hzccl::{paper_model, Mode, Variant};
use hzccl_bench::{banner, env_usize, net, scaled_rank_fields, Table};
use netsim::{ComputeTiming, SimBuilder};

fn main() {
    banner("EXT4", "extension — segmented pipelined ring vs phase-serial");
    let nranks = env_usize("HZ_RANKS", 16);
    let n = env_usize("HZ_NODE_MSG_MB", 4) * (1 << 20) / 4;
    let eb = 1e-4;
    let mode = Mode::MultiThread(18);
    let base = App::SimSet1.generate(n, 0);
    let fields = scaled_rank_fields(&base, nranks);

    // cost-model prediction for the hz ring at this operating point
    let thr = paper_model(Variant::Hzccl, mode);
    let fz = fzlight::Config::new(fzlight::ErrorBound::Abs(eb));
    let ratio = fzlight::compress(&base[..n.min(1 << 20)], &fz)
        .map(|s| (n.min(1 << 20) * 4) as f64 / s.compressed_size().max(1) as f64)
        .unwrap_or(1.0)
        .max(1.0);
    let scen = costmodel::Scenario { nranks, message_bytes: n * 4, ratio, net: net(), thr };
    let s_star = costmodel::optimal_segments_hzccl(&scen);

    println!(
        "{nranks} ranks, {} MiB/rank, ratio ~{ratio:.1}; model-optimal S* = {s_star}\n",
        (n * 4) >> 20
    );

    let run = |variant: Variant, segments: usize| -> (f64, Vec<f32>) {
        let opts = CollectiveOpts::for_variant(variant, eb).with_mode(mode).with_segments(segments);
        let timing = ComputeTiming::Modeled(paper_model(variant, mode));
        let cluster = SimBuilder::new(nranks).net(net()).timing(timing);
        let report = cluster
            .run(|comm| {
                collectives::allreduce(comm, &fields[comm.rank()], &opts).expect("allreduce")
            })
            .expect_clean();
        (report.stats.makespan, report.values().into_iter().next().unwrap())
    };

    for variant in [Variant::Mpi, Variant::CColl, Variant::Hzccl] {
        let label = match variant {
            Variant::Mpi => "MPI (no compression)",
            Variant::CColl => "C-Coll (DOC)",
            _ => "hZCCL (homomorphic)",
        };
        println!("--- {label} ---");
        let table = Table::new(&[
            ("Segments", 9),
            ("time (ms)", 10),
            ("speedup vs S=1", 14),
            ("bit-identical", 13),
        ]);
        let (t_serial, ref_out) = run(variant, 1);
        table.row(&["1".into(), format!("{:.3}", t_serial * 1e3), "1.00x".into(), "ref".into()]);
        for segments in [2usize, 4, 8, 16] {
            let (t, out) = run(variant, segments);
            table.row(&[
                format!("{segments}"),
                format!("{:.3}", t * 1e3),
                format!("{:.2}x", t_serial / t),
                if out == ref_out { "yes".into() } else { "NO".into() },
            ]);
            assert!(out == ref_out, "{label}: S={segments} changed the result bits");
        }
        println!();
    }

    // model-vs-simulation agreement for the hz ring
    let predicted = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&s| (s, predict(&scen, Op::Allreduce, Flavor::Hzccl, Algo::Ring, s, None)))
        .collect::<Vec<_>>();
    println!("cost-model hz predictions:");
    for (s, t) in &predicted {
        println!("  S={s:<3} {:.3} ms", t * 1e3);
    }
    println!("\nExpected shape: the speedup grows until the per-segment alpha cost");
    println!("eats the overlap win (steady state S*alpha + max(W, C)); the model's");
    println!("S* should land near the simulated sweet spot, and every row must");
    println!("report bit-identical results — segmentation only moves time, not bits.");
}
