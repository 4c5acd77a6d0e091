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
//! hzc chaos [--drop P] [--crash-rate P]            fault-injection soak
//! ```
//!
//! `.f32` files are raw little-endian floats (the SDRBench layout); `<app>`
//! is one of `sim1`, `sim2`, `nyx`, `cesm`, `hurricane`.

use hzdyn::ReduceOp;
use std::process::ExitCode;

mod chaos;
mod files;
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
          [--trace out.json] [--width W] [--critical-path] [--slack]
  hzc tune [--ops L] [--ranks L] [--sizes-kb L] [--eb E] [--app A] [--seed S]
          [--out state.json]   (L = comma-separated list, e.g. 8,64)
  hzc chaos [--seed S] [--ranks N] [--kb K] [--eb E] [--drop P[,P..]]
          [--corrupt P] [--jitter SECS] [--app A] [--crash-rate P[,P..]]
          soak the resilient collectives under injected faults;
          --crash-rate switches to the crash-recovery gate: seeded rank
          crashes under the Shrink policy, survivor sums checked bit-exact
          (mpi) or error-bounded (ccoll/hz), nonzero exit on divergence";

/// One subcommand: its name, the value-taking and the boolean flags it
/// accepts (space-separated; declared here and nowhere else), its handler.
struct Command {
    name: &'static str,
    valued: &'static str,
    boolean: &'static str,
    run: fn(&Args) -> Result<(), String>,
}

const COMMANDS: &[Command] = &[
    Command { name: "gen", valued: "--mb --seed", boolean: "", run: files::gen },
    Command {
        name: "compress",
        valued: "--eb --rel --threads --block",
        boolean: "",
        run: files::compress,
    },
    Command { name: "decompress", valued: "", boolean: "", run: files::decompress },
    Command { name: "info", valued: "", boolean: "", run: files::info },
    Command { name: "sum", valued: "", boolean: "", run: |a| files::reduce(a, ReduceOp::Sum) },
    Command { name: "diff", valued: "", boolean: "", run: |a| files::reduce(a, ReduceOp::Diff) },
    Command { name: "check", valued: "", boolean: "", run: files::check },
    Command {
        name: "sim",
        valued: "--ranks --mb --kb --variant --eb --threads --segments --topology --app --seed \
                 --cache --trace --width",
        boolean: "--critical-path --slack",
        run: sim::sim,
    },
    Command {
        name: "tune",
        valued: "--ops --ranks --sizes-kb --eb --app --seed --out",
        boolean: "",
        run: tune::tune,
    },
    Command {
        name: "chaos",
        valued: "--seed --ranks --kb --eb --drop --corrupt --jitter --app --crash-rate",
        boolean: "",
        run: chaos::chaos,
    },
];

fn run(args: &[String]) -> Result<(), String> {
    let name = args.first().ok_or("missing command")?;
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command '{name}'"))?;
    (cmd.run)(&Args::parse(cmd, &args[1..])?)
}

/// A subcommand's arguments, checked against the flags it declares: an
/// unknown or repeated `--flag`, or a value-taking one with nothing after it,
/// never reaches the handler.
struct Args<'a> {
    cmd: &'static Command,
    positionals: Vec<&'a str>,
    /// `(--flag, value)` in command-line order; a boolean flag's value is "".
    flags: Vec<(&'a str, &'a str)>,
}

impl<'a> Args<'a> {
    fn parse(cmd: &'static Command, raw: &'a [String]) -> Result<Self, String> {
        let mut args = Args { cmd, positionals: Vec::new(), flags: Vec::new() };
        let bad = |what: &str, flag: &str| {
            let known = format!("{} {}", cmd.valued, cmd.boolean);
            let known = if known == " " { "no flags" } else { known.trim() };
            format!("{what} {flag} (hzc {} takes: {known})", cmd.name)
        };
        let mut words = raw.iter().map(String::as_str);
        while let Some(word) = words.next() {
            if !word.starts_with("--") {
                args.positionals.push(word);
            } else if args.value(word).is_some() {
                return Err(bad("repeated flag", word));
            } else if declares(cmd.valued, word) {
                let value = words.next().ok_or_else(|| bad("missing value after", word))?;
                args.flags.push((word, value));
            } else if declares(cmd.boolean, word) {
                args.flags.push((word, ""));
            } else {
                return Err(bad("unknown flag", word));
            }
        }
        Ok(args)
    }

    /// The value given for `--flag`, if it is on the command line.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags.iter().find(|f| f.0 == name).map(|f| f.1)
    }
}

/// Whether `name` is one of the space-separated `flags`.
fn declares(flags: &str, name: &str) -> bool {
    flags.split(' ').any(|f| f == name)
}

/// Fetch the value following `--flag`, parsed.
fn flag<T: std::str::FromStr>(args: &Args, name: &str) -> Result<Option<T>, String> {
    debug_assert!(declares(args.cmd.valued, name), "hzc {} does not declare {name}", args.cmd.name);
    let parse = |v: &str| v.parse().map_err(|_| format!("invalid value '{v}' for {name}"));
    args.value(name).map(parse).transpose()
}

/// The `idx`-th positional argument.
fn positional<'a>(args: &Args<'a>, idx: usize, what: &str) -> Result<&'a str, String> {
    args.positionals.get(idx).copied().ok_or_else(|| format!("missing {what}"))
}

/// Presence of `--flag` (the whole of a boolean flag).
fn has_flag(args: &Args, name: &str) -> bool {
    args.value(name).is_some()
}

/// The `--eb` flag (or `default`) as an absolute error bound, refused by the
/// rule every codec applies to one (`ErrorBound::Abs(eb).resolve`): it and
/// `1/(2·eb)` must be positive and finite.
fn eb_flag(args: &Args, default: f64) -> Result<f64, String> {
    let eb = flag(args, "--eb")?.unwrap_or(default);
    fzlight::ErrorBound::Abs(eb).resolve(&[]).map_err(|e| {
        format!("invalid value '{}' for --eb ({e})", args.value("--eb").unwrap_or_default())
    })
}

/// The `--app` flag (default `sim2`).
fn app_flag(args: &Args) -> Result<datasets::App, String> {
    datasets::App::parse(flag::<String>(args, "--app")?.as_deref().unwrap_or("sim2"))
}

/// Parse the comma-separated list following `--flag` (or `default`), each
/// entry through `parse`; an empty list is an error.
fn list_flag<T>(
    args: &Args,
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
fn usize_list_flag(args: &Args, name: &str, default: &str) -> Result<Vec<usize>, String> {
    list_flag(args, name, default, |t| match t.parse::<usize>() {
        Ok(0) => Err("entries must be positive".into()),
        Ok(v) => Ok(v),
        Err(_) => Err(format!("invalid entry '{t}'")),
    })
}

/// [`list_flag`] of floats, e.g. `0.01,0.05`.
fn f64_list_flag(args: &Args, name: &str, default: &str) -> Result<Vec<f64>, String> {
    list_flag(args, name, default, |t| t.parse::<f64>().map_err(|_| format!("invalid value '{t}'")))
}
