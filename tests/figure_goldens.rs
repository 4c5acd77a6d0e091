//! Golden-output guard for the figure declarations
//! (`hzccl_bench::figure::all`) and the codec tables
//! (`hzccl_bench::codec_tables::ALL`): every one, rendered in-process at a
//! tiny deterministic scale, must reproduce its golden byte for byte.
//!
//! A collective figure's golden is the stdout its hand-written bench program
//! printed before the programs were folded into declarations, captured at
//! commit f3e4c19 from
//! `cargo bench --bench <target>` (now `--bench figures -- <target>`) under
//! `HZ_PAPER_MODEL=1 HZ_THREADS=2 HZ_RANKS=4 HZ_MAX_RANKS=8 HZ_NODE_MSG_MB=1
//! HZ_SIZE_MB=1 HZ_IMG_SIDE=64` — paper timing, so every number is virtual
//! time and byte-stable on any host. A codec table's golden is its renderer's
//! output under the same knobs (it reads only `HZ_SIZE_MB=1 HZ_THREADS=2`);
//! its numbers are the deterministic columns the hand-written `tab03`,
//! `tab05`, `tab06`, `abl_block_len` and `proj_paper_scale` programs printed
//! at that scale. A declaration or codec edit that moves a number or a
//! character fails here; regenerate a file only for a deliberate, explained
//! change.

use hzccl_bench::{codec_tables, figure, Knobs};

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
    }
}

/// Render the declaration or codec table for `target` and compare with its
/// golden.
fn check(target: &str) {
    let knobs = golden_knobs();
    let mut out = Vec::new();
    match codec_tables::ALL.iter().find(|t| t.0 == target) {
        Some((_, table)) => table(&knobs, &mut out),
        None => {
            let fig = figure::all(&knobs).into_iter().find(|f| f.target == target);
            figure::render(&fig.expect("declared"), &knobs, &mut out)
        }
    }
    .expect("render");
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

/// One test per figure and table, so they run in parallel and fail by name.
macro_rules! goldens {
    ($($target:ident)*) => {
        $(#[test]
        fn $target() {
            check(stringify!($target));
        })*

        #[test]
        fn every_declared_figure_has_a_golden_and_a_bench_target() {
            let figures = figure::all(&golden_knobs());
            let declared: Vec<&str> =
                figures.iter().map(|f| f.target).chain(codec_tables::ALL.map(|t| t.0)).collect();
            assert_eq!(declared, [$(stringify!($target)),*], "declarations vs this list");
            // one bench target renders them all (`--bench figures -- <target>`),
            // one more times the codec ratios nothing else measures
            let manifest = include_str!("../crates/bench/Cargo.toml");
            let benches: Vec<&str> = manifest
                .split("[[bench]]")
                .skip(1)
                .map(|b| b.split('"').nth(1).expect("a named bench"))
                .collect();
            assert_eq!(benches, ["figures", "timed"], "bench targets");
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
    tab03_ratio_quality tab05_pipelines tab06_overall abl_block_len proj_paper_scale
}
