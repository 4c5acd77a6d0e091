//! Golden-output guard for the figure declarations
//! (`hzccl_bench::figure::all`): every collective figure bench, rendered
//! in-process at a tiny deterministic scale, must reproduce byte for byte
//! the stdout its hand-written bench program printed before the programs
//! were folded into declarations.
//!
//! `tests/figure_goldens/<target>.txt` was captured at commit f3e4c19 from
//! `cargo bench --bench <target>` (now `--bench figures -- <target>`) under
//! `HZ_PAPER_MODEL=1 HZ_THREADS=2 HZ_RANKS=4 HZ_MAX_RANKS=8 HZ_NODE_MSG_MB=1
//! HZ_SIZE_MB=1 HZ_IMG_SIDE=64` — paper timing, so every number is virtual
//! time and byte-stable on any host. A declaration edit that moves a number
//! or a character fails here; regenerate a file only for a deliberate,
//! explained change.

use hzccl_bench::{figure, Knobs};

/// The knob values the goldens were captured under.
fn golden_knobs() -> Knobs {
    Knobs {
        size_mb: 1,
        ranks: Some(4),
        max_ranks: 8,
        threads: 2,
        node_msg_mb: Some(1),
        img_side: Some(64),
        paper_model: true,
        ..Knobs::from_env()
    }
}

/// Render the declaration for `target` and compare with its golden.
fn check(target: &str) {
    let knobs = golden_knobs();
    let fig = figure::all(&knobs).into_iter().find(|f| f.target == target).expect("declared");
    let mut out = Vec::new();
    figure::render(&fig, &knobs, &mut out).expect("render");
    let got = String::from_utf8(out).expect("figures print UTF-8");
    let path = format!("tests/figure_goldens/{target}.txt");
    let want = std::fs::read_to_string(&path).expect("golden");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(g, w)| g != w);
        let at = line.unwrap_or(got.lines().count().min(want.lines().count()));
        panic!(
            "{target} drifted from {path} at line {}:\n  got:  {:?}\n  want: {:?}",
            at + 1,
            got.lines().nth(at),
            want.lines().nth(at)
        );
    }
}

/// One test per figure, so they run in parallel and fail by name.
macro_rules! goldens {
    ($($target:ident)*) => {
        $(#[test]
        fn $target() {
            check(stringify!($target));
        })*

        #[test]
        fn every_declared_figure_has_a_golden_and_a_bench_target() {
            let declared: Vec<&str> =
                figure::all(&golden_knobs()).iter().map(|f| f.target).collect();
            assert_eq!(declared, [$(stringify!($target)),*], "declarations vs this list");
            // one bench target renders them all: `--bench figures -- <target>`
            let manifest = include_str!("../crates/bench/Cargo.toml");
            assert!(manifest.contains("name = \"figures\""), "no `figures` bench target");
            for target in declared {
                assert!(std::path::Path::new(&format!("tests/figure_goldens/{target}.txt")).exists());
            }
        }
    };
}

goldens! {
    fig02_breakdown fig07_reduce_scatter fig08_allreduce fig09_rs_sizes fig10_rs_nodes
    fig11_ar_sizes fig12_ar_nodes fig13_stacking_image tab07_stacking ext_reduce_bcast
    ext_ring_vs_rd ext_autotune ext_pipeline abl_net_sensitivity
}
