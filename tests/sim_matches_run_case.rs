//! `hzc sim` is "parse → spec → `run_case` → print": for every op × variant
//! the CLI accepts, the `makespan:` it prints is the one
//! `hzccl_bench::suite::run_case` returns for the equal `CaseSpec`.

use hzccl::{Mode, Variant};
use hzccl_bench::suite::{run_case, CaseSpec, Runner, SuiteConfig};
use std::process::Command;
use tuner::{Flavor, Op};

#[test]
fn sim_prints_the_makespan_run_case_returns_for_every_op_and_variant() {
    let cfg = SuiteConfig::default();
    for op in Op::ALL {
        for variant in ["mpi", "ccoll", "hz", "rd", "auto"] {
            let out = Command::new(env!("CARGO_BIN_EXE_hzc"))
                .args(["sim", op.name(), "--ranks", "4", "--kb", "64", "--variant", variant])
                .output()
                .unwrap();
            if variant == "rd" && op != Op::Allreduce {
                assert!(!out.status.success(), "rd is an allreduce, not a {}", op.name());
                continue;
            }
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().find(|l| l.starts_with("makespan:")).expect("makespan line");
            let runner = match variant {
                "rd" => Runner::rd(Flavor::Hzccl, Mode::SingleThread),
                name => Runner::Variant(Variant::parse(name).unwrap()),
            };
            let secs = run_case(&CaseSpec::new(op, runner, 4, 64), &cfg).result.virtual_secs;
            let want = format!("makespan: {secs:.6} s (slowest rank)");
            assert_eq!(line, want, "{} --variant {variant}", op.name());
        }
    }
}
