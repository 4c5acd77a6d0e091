//! Hierarchical Allreduce on a two-tier fabric: 8 nodes x 8 ranks/node with
//! inter-node links 10x slower than the node-local wire (the paper cluster's
//! shape). The flat hz ring drags the full ring over the slow tier; the
//! hierarchical schedule reduces inside each node first, runs the compressed
//! ring over one leader per node, and broadcasts back — so the slow tier
//! carries `1/ppn` of the traffic. The per-tier critical-path table shows
//! exactly where the virtual time goes.
//!
//! ```text
//! cargo run --release --example hierarchical_allreduce
//! ```

use datasets::App;
use hzccl::collectives::{self, CollectiveOpts, RecoveryPolicy};
use hzccl::error_bounds::{bound, Call};
use hzccl::{Mode, Variant};
use netsim::{ComputeTiming, LinkTier, NetConfig, SimBuilder, Topology};
use tuner::{Algo, Flavor, Op, Plan};

const NODES: usize = 8;
const PPN: usize = 8;
const ELEMS: usize = 1 << 18; // 1 MiB of f32 per rank
const EB: f64 = 1e-4;

fn main() {
    let topo = Topology::paper(NODES, PPN);
    let nranks = topo.nranks();
    let base = App::SimSet1.generate(ELEMS, 0);
    let fields: Vec<Vec<f32>> =
        (0..nranks).map(|r| base.iter().map(|&v| v * (1.0 + 0.001 * r as f32)).collect()).collect();

    let net = NetConfig::default();
    let timing = ComputeTiming::Modeled(hzccl::paper_model(Variant::Hzccl, Mode::SingleThread));
    println!(
        "{} ({} ranks), {} MiB per rank, eb {EB:.0e}",
        topo.describe(),
        nranks,
        (ELEMS * 4) >> 20
    );
    println!(
        "intra {:.0} Gb/s, inter {:.0} Gb/s effective\n",
        topo.link(LinkTier::Intra).bandwidth_gbps,
        topo.link(LinkTier::Inter).bandwidth_gbps
    );

    // Run one flavour, return its makespan plus the per-tier critical path.
    let run = |label: &str, opts: &CollectiveOpts| -> (Vec<f32>, f64, netsim::CriticalPath) {
        let cluster = SimBuilder::new(nranks)
            .net(net)
            .timing(timing)
            .topology(topo)
            .trace(netsim::TraceConfig::default());
        let report = cluster
            .run(|comm| collectives::allreduce(comm, &fields[comm.rank()], opts).expect(label))
            .expect_clean();
        let makespan = report.stats.makespan;
        let cp = netsim::CriticalPath::analyze_with_topology(&report.traces, &net, Some(&topo));
        (report.values().swap_remove(0), makespan, cp)
    };

    let (flat_out, t_flat, _) = run("flat hz ring", &CollectiveOpts::hz(EB));
    let (hier_out, t_hier, cp) =
        run("hierarchical hz", &CollectiveOpts::hz(EB).with_topology(topo));

    println!("{:<28} {:>10.3} ms", "flat hz ring", t_flat * 1e3);
    println!("{:<28} {:>10.3} ms", "hierarchical hz", t_hier * 1e3);
    println!(
        "\nhierarchy wins {:.1}% ({:.2}x) by keeping {}/{} of each ring off the slow tier\n",
        (1.0 - t_hier / t_flat) * 100.0,
        t_flat / t_hier,
        PPN - 1,
        PPN
    );

    // Per-tier attribution of the hierarchical run's causal critical path:
    // which fabric tier the path's communication time was actually spent on.
    println!("critical path of the hierarchical run: {:.3} ms", cp.length * 1e3);
    println!(
        "{:<8} {:>6} {:>12} {:>12} {:>12} {:>8}",
        "tier", "hops", "alpha s", "wire s", "jitter s", "share"
    );
    for tier in LinkTier::ALL {
        let tt = cp.by_tier[tier.index()];
        if tt.hops == 0 {
            continue;
        }
        println!(
            "{:<8} {:>6} {:>12.6} {:>12.6} {:>12.6} {:>7.2}%",
            tier.name(),
            tt.hops,
            tt.alpha,
            tt.wire,
            tt.jitter,
            tt.total() * 100.0 / cp.length
        );
    }

    // Both schedules stay within hZCCL's bound (`hzccl::error_bounds`) of
    // the exact sum: the hierarchy sums each node in f32 first and quantizes
    // one partial per node.
    let exact: Vec<f64> =
        (0..ELEMS).map(|i| fields.iter().map(|f| f64::from(f[i])).sum()).collect();
    let at = |i: usize| fields.iter().map(|f| f64::from(f[i]).abs()).sum::<f64>();
    let peak = (0..ELEMS).map(at).fold(0.0, f64::max);
    for (label, out, hierarchical) in
        [("flat", &flat_out, false), ("hierarchical", &hier_out, true)]
    {
        let plan = Plan {
            hierarchical,
            ..Plan::serial(
                Flavor::Hzccl,
                Algo::Ring,
                Mode::SingleThread,
                fzlight::DEFAULT_BLOCK_LEN,
            )
        };
        let policy = RecoveryPolicy::FailFast;
        let call = Call {
            op: Op::Allreduce,
            plan,
            policy,
            degraded: 0,
            launched: nranks,
            contributors: nranks,
        };
        let (quantization, representation) = bound(&call, EB, peak);
        let max_err =
            out.iter().zip(&exact).map(|(a, b)| (f64::from(*a) - b).abs()).fold(0.0f64, f64::max);
        println!("{label} max abs err {max_err:.2e} (bound {:.1e})", quantization + representation);
        assert!(max_err <= quantization + representation);
    }
    assert!(
        t_hier <= t_flat * 0.7,
        "hierarchy should win >= 30% on this fabric ({t_hier} vs {t_flat})"
    );
}
