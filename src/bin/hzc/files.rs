//! The file-based compressor path: `hzc gen / compress / decompress / info /
//! sum / diff / check` over raw little-endian `.f32` fields and `.fzl`
//! streams.

use crate::{flag, positional, Args};
use datasets::{App, Quality};
use fzlight::{CompressedStream, Config, ErrorBound, StreamStats};
use std::path::Path;

pub(crate) fn gen(args: &Args) -> Result<(), String> {
    let app = App::parse(positional(args, 0, "app")?)?;
    let out = positional(args, 1, "output path")?;
    let mb: usize = flag(args, "--mb")?.unwrap_or(16);
    let seed: u64 = flag(args, "--seed")?.unwrap_or(0);
    let data = app.generate(mb * (1 << 20) / 4, seed);
    datasets::save_f32(Path::new(out), &data).map_err(|e| e.to_string())?;
    println!("wrote {out}: {} ({} MiB, seed {seed})", app.name(), mb);
    Ok(())
}

pub(crate) fn compress(args: &Args) -> Result<(), String> {
    let input = positional(args, 0, "input .f32")?;
    let output = positional(args, 1, "output .fzl")?;
    let abs: Option<f64> = flag(args, "--eb")?;
    let rel: Option<f64> = flag(args, "--rel")?;
    let eb = match (abs, rel) {
        (Some(_), Some(_)) => return Err("--eb and --rel are mutually exclusive".into()),
        (Some(e), None) => ErrorBound::Abs(e),
        (None, Some(e)) => ErrorBound::Rel(e),
        (None, None) => ErrorBound::Abs(1e-4),
    };
    let threads: usize = flag(args, "--threads")?
        .unwrap_or_else(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1));
    let block: usize = flag(args, "--block")?.unwrap_or(fzlight::DEFAULT_BLOCK_LEN);
    let data = datasets::load_f32(Path::new(input)).map_err(|e| e.to_string())?;
    let cfg = Config::new(eb).with_threads(threads).with_block_len(block);
    let t0 = std::time::Instant::now();
    let stream = fzlight::compress(&data, &cfg).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    std::fs::write(output, stream.as_bytes()).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {output}: {} -> {} bytes (ratio {:.2}) in {:.3}s ({:.2} GB/s)",
        data.len() * 4,
        stream.compressed_size(),
        stream.ratio(),
        dt,
        (data.len() * 4) as f64 / dt / 1e9
    );
    Ok(())
}

pub(crate) fn decompress(args: &Args) -> Result<(), String> {
    let input = positional(args, 0, "input .fzl")?;
    let output = positional(args, 1, "output .f32")?;
    let stream = load_stream(input)?;
    let t0 = std::time::Instant::now();
    let data = fzlight::decompress(&stream).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    datasets::save_f32(Path::new(output), &data).map_err(|e| e.to_string())?;
    println!(
        "{input} -> {output}: {} values in {:.3}s ({:.2} GB/s)",
        data.len(),
        dt,
        (data.len() * 4) as f64 / dt / 1e9
    );
    Ok(())
}

pub(crate) fn info(args: &Args) -> Result<(), String> {
    let input = positional(args, 0, "input .fzl")?;
    let stream = load_stream(input)?;
    let h = stream.header();
    println!("{input}:");
    println!(
        "  n = {} f32 ({} bytes raw), abs eb = {:e}, block_len = {}, chunks = {}",
        h.n,
        h.n * 4,
        h.eb,
        h.block_len,
        h.nchunks
    );
    let stats = StreamStats::inspect(&stream).map_err(|e| e.to_string())?;
    println!("  {stats}");
    Ok(())
}

pub(crate) fn reduce(args: &Args, op: hzdyn::ReduceOp) -> Result<(), String> {
    let a = positional(args, 0, "first .fzl")?;
    let b = positional(args, 1, "second .fzl")?;
    let out = positional(args, 2, "output .fzl")?;
    let sa = load_stream(a)?;
    let sb = load_stream(b)?;
    let t0 = std::time::Instant::now();
    let result = hzdyn::homomorphic_op(&sa, &sb, op).map_err(|e| e.to_string())?;
    let dt = t0.elapsed().as_secs_f64();
    std::fs::write(out, result.as_bytes()).map_err(|e| e.to_string())?;
    println!(
        "{a} {op:?} {b} -> {out} ({} bytes, ratio {:.2}) in {:.3}s — no decompression performed",
        result.compressed_size(),
        result.ratio(),
        dt
    );
    Ok(())
}

pub(crate) fn check(args: &Args) -> Result<(), String> {
    let original = positional(args, 0, "original .f32")?;
    let compressed = positional(args, 1, "stream .fzl")?;
    let data = datasets::load_f32(Path::new(original)).map_err(|e| e.to_string())?;
    let stream = load_stream(compressed)?;
    let restored = fzlight::decompress(&stream).map_err(|e| e.to_string())?;
    if restored.len() != data.len() {
        return Err(format!("length mismatch: {} vs {}", data.len(), restored.len()));
    }
    let q = Quality::compare(&data, &restored);
    let eb = stream.eb();
    let ulp = q.max.abs().max(q.min.abs()) * f32::EPSILON as f64;
    println!(
        "max abs err {:.3e} (bound {eb:.3e}), NRMSE {:.3e}, PSNR {:.2} dB",
        q.max_abs_err, q.nrmse, q.psnr
    );
    if q.max_abs_err <= eb + ulp {
        println!("WITHIN BOUND");
        Ok(())
    } else {
        Err("ERROR BOUND VIOLATED".into())
    }
}

fn load_stream(path: &str) -> Result<CompressedStream, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    CompressedStream::from_bytes(bytes).map_err(|e| format!("{path}: {e}"))
}
