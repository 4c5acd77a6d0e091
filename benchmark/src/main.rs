//! `hzbench run | all | compare` — see `benchmark/run.sh` for the front end.

use hzbench::run::{run_and_report, RunArgs};
use hzbench::suite::{compare, run_all, SuiteArgs};
use std::path::PathBuf;

const USAGE: &str = "usage:
  hzbench run --workload W [--seed S] [--seconds T] [--trace 0|1] [--smoke]
              [--build-s X] [--out-dir DIR] [--detail FILE]
  hzbench all [--workload W] [--seed S] [--seconds T] [--traced] [--smoke]
              [--build-s X] [--out-dir DIR] [--out FILE]
  hzbench compare A.json B.json";

/// `--key value` pairs and bare `--flag`s, in any order.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, key: &str) -> Option<String> {
        let i = self.0.iter().position(|a| a == key)?;
        if i + 1 >= self.0.len() {
            fail(&format!("{key} needs a value"));
        }
        let value = self.0.remove(i + 1);
        self.0.remove(i);
        Some(value)
    }

    fn parsed<T: std::str::FromStr>(&mut self, key: &str, default: T) -> T {
        match self.take(key) {
            Some(v) => v.parse().unwrap_or_else(|_| fail(&format!("bad value for {key}: {v}"))),
            None => default,
        }
    }

    fn flag(&mut self, key: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != key);
        self.0.len() != before
    }

    fn done(self) {
        if let Some(extra) = self.0.first() {
            fail(&format!("unexpected argument {extra}"));
        }
    }
}

/// Length of the timed loop when `--seconds` is not given: what
/// `BENCHMARK.json` asks for, or a blink in smoke mode.
fn default_seconds(smoke: bool) -> f64 {
    if smoke {
        0.5
    } else {
        15.0
    }
}

fn fail(msg: &str) -> ! {
    eprintln!("hzbench: {msg}\n{USAGE}");
    std::process::exit(2)
}

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() {
        fail("no command");
    }
    let command = argv.remove(0);
    let mut flags = Flags(argv);
    let code = match command.as_str() {
        "run" => {
            let smoke = flags.flag("--smoke");
            let args = RunArgs {
                workload: flags.take("--workload").unwrap_or_else(|| fail("run needs --workload")),
                seed: flags.parsed("--seed", 0),
                seconds: flags.parsed("--seconds", default_seconds(smoke)),
                trace: match flags.parsed("--trace", 0u8) {
                    0 => false,
                    1 => true,
                    other => fail(&format!("--trace is 0 or 1, not {other}")),
                },
                smoke,
                build_s: flags.parsed("--build-s", 0.0),
                out_dir: PathBuf::from(flags.parsed("--out-dir", "benchmark/out".to_string())),
                detail: flags.take("--detail").map(PathBuf::from),
            };
            flags.done();
            run_and_report(&args)
        }
        "all" => {
            let smoke = flags.flag("--smoke");
            let args = SuiteArgs {
                workload: flags.take("--workload"),
                seed: flags.parsed("--seed", 0),
                seconds: flags.parsed("--seconds", default_seconds(smoke)),
                traced: flags.flag("--traced"),
                smoke,
                build_s: flags.parsed("--build-s", 0.0),
                out_dir: PathBuf::from(flags.parsed("--out-dir", "benchmark/out".to_string())),
                out: flags.take("--out").map(PathBuf::from),
            };
            flags.done();
            run_all(&args).unwrap_or_else(|e| fail(&e))
        }
        "compare" => match flags.0.as_slice() {
            [a, b] => compare(a.as_ref(), b.as_ref()).unwrap_or_else(|e| fail(&e)),
            _ => fail("compare needs two result files"),
        },
        other => fail(&format!("unknown command {other}")),
    };
    std::process::exit(code)
}
