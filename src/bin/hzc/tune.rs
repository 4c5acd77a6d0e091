//! `hzc tune`: the offline autotune sweep.

use crate::{app_flag, eb_flag, flag, list_flag, usize_list_flag, Args};
use hzccl::Variant;
use hzccl_bench::suite::{self, CaseSpec, Runner, SuiteConfig};
use std::path::Path;

/// For every `(op, rank count, size)` scenario, measure every candidate
/// static plan on the virtual cluster, feed each run's flight-recorder
/// traces to the calibration loop, record winners in the tuning cache
/// ([`suite::tune_case`]), and persist the engine state to `--out` — ready
/// for `hzc sim --variant auto --cache <out>`.
pub(crate) fn tune(args: &Args) -> Result<(), String> {
    let ops = list_flag(args, "--ops", "allreduce", |t| {
        tuner::Op::parse(t).ok_or_else(|| format!("unknown op '{t}'"))
    })?;
    let ranks_list = usize_list_flag(args, "--ranks", "8")?;
    let sizes_kb = usize_list_flag(args, "--sizes-kb", "16,256,1024")?;
    let mut cfg = SuiteConfig { app: app_flag(args)?, ..SuiteConfig::default() };
    cfg.eb = eb_flag(args, cfg.eb)?;
    cfg.seed = flag(args, "--seed")?.unwrap_or(cfg.seed);
    let out: String = flag(args, "--out")?.unwrap_or_else(|| "hz_tune.json".into());

    // Resume an existing state file, otherwise start from the paper prior.
    let mut engine = if Path::new(&out).exists() {
        tuner::Engine::load(Path::new(&out))?
    } else {
        tuner::Engine::paper()
    };

    println!(
        "tune: ops={:?} ranks={ranks_list:?} sizes_kb={sizes_kb:?} eb={:e} app={} -> {out}",
        ops.iter().map(|o| o.name()).collect::<Vec<_>>(),
        cfg.eb,
        cfg.app.name(),
    );
    println!();
    println!(
        "{:<16} {:<26} {:<16} {:>12} {:>12}",
        "scenario", "bucket", "plan", "measured", "model"
    );

    for &op in &ops {
        for &nranks in &ranks_list {
            for &kb in &sizes_kb {
                let label = format!("{}:{}r:{}K", op.name(), nranks, kb);
                let spec = CaseSpec::new(op, Runner::Variant(Variant::Auto), nranks, kb);
                suite::tune_case(&mut engine, &spec, &cfg, |scenario, plan, measured, model| {
                    println!(
                        "{label:<16} {:<26} {:<16} {measured:>10.6}s {model:>10.6}s",
                        scenario.bucket_key(),
                        plan.label(),
                    );
                });
            }
        }
    }

    engine.save(Path::new(&out)).map_err(|e| format!("{out}: {e}"))?;
    println!();
    println!(
        "saved tuner state to {out}: {} bucket(s), {} calibration run(s) absorbed",
        engine.cache.len(),
        engine.calib.samples,
    );
    for (key, e) in &engine.cache.entries {
        println!(
            "  {key}: {} at {:.6} s ({} sample(s))",
            e.plan.label(),
            e.measured_secs,
            e.samples
        );
    }
    Ok(())
}
