//! `hzc` — command-line front end for the hZCCL compression stack.
//!
//! ```text
//! hzc gen <app> <out.f32> [--mb N] [--seed S]     generate a synthetic field
//! hzc compress <in.f32> <out.fzl> [--eb E] [--rel E] [--threads T] [--block B]
//! hzc decompress <in.fzl> <out.f32>
//! hzc info <in.fzl>                                header + block statistics
//! hzc sum <a.fzl> <b.fzl> <out.fzl>                homomorphic a + b
//! hzc diff <a.fzl> <b.fzl> <out.fzl>               homomorphic a - b
//! hzc check <in.f32> <stream.fzl>                  verify the error bound
//! hzc sim <op> [--ranks N] [--mb M] [--variant V] [--topology NxP[:oversub]]
//!                                                  run a simulated collective
//! hzc tune [--ranks L] [--sizes-kb L] [--out F]    offline autotune sweep
//! hzc bench [--quick] [--against baseline.json]    deterministic perf suite
//! hzc kernels [--quick] [--gate R] [--out F]       kernel roofline harness
//! ```
//!
//! `.f32` files are raw little-endian floats (the SDRBench layout); `<app>`
//! is one of `sim1`, `sim2`, `nyx`, `cesm`, `hurricane`.

use std::process::ExitCode;

mod bench_cmd;
mod chaos;
mod files;
mod kernels_cmd;
mod sim;
mod tune;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("hzc: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  hzc gen <sim1|sim2|nyx|cesm|hurricane> <out.f32> [--mb N] [--seed S]
  hzc compress <in.f32> <out.fzl> [--eb E | --rel E] [--threads T] [--block B]
  hzc decompress <in.fzl> <out.f32>
  hzc info <in.fzl>
  hzc sum <a.fzl> <b.fzl> <out.fzl>
  hzc diff <a.fzl> <b.fzl> <out.fzl>
  hzc check <in.f32> <stream.fzl>
  hzc sim <allreduce|reduce_scatter|reduce|bcast> [--ranks N] [--mb M | --kb K]
          [--variant hz|ccoll|mpi|rd|auto] [--eb E] [--threads T] [--segments S]
          [--topology NxP[:oversub]] [--app A] [--seed S] [--cache state.json]
          [--trace out.json] [--metrics] [--width W] [--critical-path] [--slack]
  hzc bench [--quick] [--scale] [--out F] [--against baseline.json] [--tol-time R]
          [--tol-bytes R] [--seed S] [--eb E] [--app A] [--engine events|threads]
          [--ops L] [--variants L] [--ranks-list L] [--sizes-kb L]
          [--segments-list L] [--no-fault]
          deterministic perf suite; nonzero exit on regression vs baseline
  hzc kernels [--quick] [--elems N] [--trials K] [--threads T] [--gate R]
          [--out BENCH_kernels.json] [--check BENCH_kernels.json]
          kernel micro-benchmarks vs scalar references + STREAM roofline;
          --gate enforces a minimum speedup, --check verifies a snapshot
  hzc tune [--ops L] [--ranks L] [--sizes-kb L] [--eb E] [--app A] [--seed S]
          [--out state.json]   (L = comma-separated list, e.g. 8,64)
  hzc chaos [--seed S] [--ranks N] [--kb K] [--eb E] [--drop P[,P..]]
          [--corrupt P] [--jitter SECS] [--app A] [--crash-rate P[,P..]]
          soak the resilient collectives under injected faults;
          --crash-rate switches to the crash-recovery gate: seeded rank
          crashes under the Shrink policy, survivor sums checked bit-exact
          (mpi) or error-bounded (ccoll/hz), nonzero exit on divergence";

fn run(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    let rest = &args[1..];
    match cmd.as_str() {
        "gen" => files::gen(rest),
        "compress" => files::compress(rest),
        "decompress" => files::decompress(rest),
        "info" => files::info(rest),
        "sum" => files::reduce(rest, hzdyn::ReduceOp::Sum),
        "diff" => files::reduce(rest, hzdyn::ReduceOp::Diff),
        "check" => files::check(rest),
        "sim" => sim::sim(rest),
        "tune" => tune::tune(rest),
        "chaos" => chaos::chaos(rest),
        "bench" => bench_cmd::bench(rest),
        "kernels" => kernels_cmd::kernels(rest),
        other => Err(format!("unknown command '{other}'")),
    }
}

/// Fetch the value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            let v = args.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            return v.parse().map(Some).map_err(|_| format!("invalid value '{v}' for {name}"));
        }
    }
    Ok(None)
}

/// The `idx`-th positional argument.
fn positional<'a>(args: &'a [String], idx: usize, what: &str) -> Result<&'a String, String> {
    positionals(args).get(idx).copied().ok_or_else(|| format!("missing {what}"))
}

/// Positional args ignoring `--flag value` pairs.
fn positionals(args: &[String]) -> Vec<&String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if a.starts_with("--") {
            skip = true;
            continue;
        }
        out.push(a);
    }
    out
}

/// Presence of a boolean `--flag` (no value).
fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// The `--app` flag (default `sim2`).
fn app_flag(args: &[String]) -> Result<datasets::App, String> {
    datasets::App::parse(flag::<String>(args, "--app")?.as_deref().unwrap_or("sim2"))
}

/// Parse the comma-separated list following `--flag` (or `default`), each
/// entry through `parse`; an empty list is an error.
fn list_flag<T>(
    args: &[String],
    name: &str,
    default: &str,
    parse: impl Fn(&str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let text = flag::<String>(args, name)?.unwrap_or_else(|| default.into());
    let out: Vec<T> = text
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .map(|t| parse(t).map_err(|e| format!("{name}: {e}")))
        .collect::<Result<_, _>>()?;
    if out.is_empty() {
        return Err(format!("empty {name} list"));
    }
    Ok(out)
}

/// [`list_flag`] of positive integers.
fn usize_list_flag(args: &[String], name: &str, default: &str) -> Result<Vec<usize>, String> {
    list_flag(args, name, default, |t| match t.parse::<usize>() {
        Ok(0) => Err("entries must be positive".into()),
        Ok(v) => Ok(v),
        Err(_) => Err(format!("invalid entry '{t}'")),
    })
}

/// [`list_flag`] of floats, e.g. `0.01,0.05`.
fn f64_list_flag(args: &[String], name: &str, default: &str) -> Result<Vec<f64>, String> {
    list_flag(args, name, default, |t| t.parse::<f64>().map_err(|_| format!("invalid value '{t}'")))
}
