//! The `codec` workload: fzlight, ompszp and hzdyn do all the work, netsim
//! and hzccl none.
//!
//! Three applications span the input axis the codecs' behaviour depends on:
//! `cesm` (rough everywhere: the both-non-constant pipeline dominates),
//! `nyx` (range-relative bound under rare spikes: most blocks are constant)
//! and `sim1` (exact-zero background). One op of a flavour is one reduction
//! round of two fields, the way a ring step of that flavour performs it;
//! compress and decompress are timed side by side, so a gain for one that
//! costs the other shows.

use crate::catalog::{Flavour, APPS};
use crate::inputs;
use crate::report::{MetricSet, Ops};
use crate::spans::Recorder;
use crate::workload::{OpSample, Scale, WarmUp, Workload};
use fzlight::{Config, ErrorBound};
use hzdyn::ReduceOp;
use netsim::{NetConfig, OpKind};
use std::time::Instant;

/// Range-relative error bound of the workload, resolved to an absolute
/// bound once per app at set-up.
const REL_EB: f64 = 1e-4;
/// Elements the raw flavour adds per pass: 256 KiB per operand, resident in
/// this host's 2 MiB L2. One pass over a whole 16 MiB field is a DRAM stream,
/// and on the shared VM this was written on a DRAM stream measures the
/// neighbours: its median ran from 4.5 to 7.0 ms between identical runs
/// (spread over ten seeds up to 35 %), the cache-resident form stays within
/// a few percent — and shows a change to the kernel that DRAM would hide.
const MPI_TILE: usize = 64 << 10;
/// Traced ops per flavour in [`Workload::layers`].
const TRACED_REPS: usize = 3;

struct AppInput {
    name: &'static str,
    a: Vec<f32>,
    b: Vec<f32>,
    cfg: Config,
    eb: f64,
}

impl AppInput {
    fn bytes(&self) -> usize {
        self.a.len() * 4
    }
}

/// What one op on one app produced, beyond its time.
struct AppOut {
    secs: f64,
    /// Digest of the op's output (decoded sum, final stream, raw sum).
    digest: u64,
    /// Bytes of the compressed input streams (0 for `mpi`).
    stream_bytes: usize,
    /// Bytes a ring step would send: the reduced stream, or raw `f32`.
    sent_bytes: usize,
}

/// The `codec` workload with its inputs generated.
pub struct Codec {
    apps: Vec<AppInput>,
    /// The seed's fabric, for the modeled message of each round.
    net: NetConfig,
    /// MB/s of `App::generate` + seeding over all fields.
    pub generate_mbps: f64,
    /// Per flavour, per app: digest every later op must reproduce.
    refs: [Vec<u64>; 3],
}

impl Codec {
    /// Generate the three apps' field pairs (`b = a × 1.001`).
    pub fn generate(scale: &Scale, seed: u64) -> Codec {
        let t0 = Instant::now();
        let apps: Vec<AppInput> = APPS
            .iter()
            .map(|&(name, app)| {
                let a = inputs::field(app, scale.codec_elems, seed, 1);
                let b: Vec<f32> = a.iter().map(|&v| v * 1.001).collect();
                let eb = ErrorBound::Rel(REL_EB).resolve(&a).expect("finite field");
                AppInput { name, a, b, cfg: Config::new(ErrorBound::Abs(eb)), eb }
            })
            .collect();
        let bytes: usize = apps.iter().map(|x| 2 * x.bytes()).sum();
        let generate_mbps = bytes as f64 / t0.elapsed().as_secs_f64() / 1e6;
        Codec { apps, net: inputs::net(seed), generate_mbps, refs: Default::default() }
    }

    /// hZCCL's round: compress both, sum homomorphically, decompress once.
    fn hz(x: &AppInput, rec: &mut Recorder) -> (AppOut, Vec<f32>) {
        let op = format!("codec:hz:{}", x.name);
        let t0 = Instant::now();
        let (c1, c2, out, sent) = rec.span(&op, "harness", |rec| {
            let c1 = rec.call("fzlight::compress", "fzlight", || fzlight::compress(&x.a, &x.cfg));
            let c2 = rec.call("fzlight::compress", "fzlight", || fzlight::compress(&x.b, &x.cfg));
            let (c1, c2) = (c1.expect("compress a"), c2.expect("compress b"));
            let sum = rec
                .call("hzdyn::homomorphic_sum", "hzdyn", || hzdyn::homomorphic_sum(&c1, &c2))
                .expect("homomorphic sum");
            let out = rec
                .call("fzlight::decompress", "fzlight", || fzlight::decompress(&sum))
                .expect("decompress sum");
            (c1, c2, out, sum.compressed_size())
        });
        let secs = t0.elapsed().as_secs_f64();
        let stream_bytes = c1.compressed_size() + c2.compressed_size();
        let digest = inputs::digest_f32(&out);
        (AppOut { secs, digest, stream_bytes, sent_bytes: sent }, out)
    }

    /// C-Coll's round: compress both, decompress both, add, recompress.
    fn ccoll(x: &AppInput, rec: &mut Recorder) -> (AppOut, ompszp::OszpStream) {
        let op = format!("codec:ccoll:{}", x.name);
        let t0 = Instant::now();
        let (o1, o2, o) = rec.span(&op, "harness", |rec| {
            let o1 = rec.call("ompszp::compress", "ompszp", || ompszp::compress(&x.a, &x.cfg));
            let o2 = rec.call("ompszp::compress", "ompszp", || ompszp::compress(&x.b, &x.cfg));
            let (o1, o2) = (o1.expect("compress a"), o2.expect("compress b"));
            let d1 = rec.call("ompszp::decompress", "ompszp", || ompszp::decompress(&o1));
            let d2 = rec.call("ompszp::decompress", "ompszp", || ompszp::decompress(&o2));
            let (mut d1, d2) = (d1.expect("decompress a"), d2.expect("decompress b"));
            rec.call("hzdyn::doc::reduce_in_place", "hzdyn", || {
                hzdyn::doc::reduce_in_place(&mut d1, &d2, ReduceOp::Sum, 1)
            });
            let o = rec.call("ompszp::compress", "ompszp", || ompszp::compress(&d1, &x.cfg));
            (o1, o2, o.expect("recompress"))
        });
        let secs = t0.elapsed().as_secs_f64();
        let stream_bytes = o1.compressed_size() + o2.compressed_size();
        let digest = inputs::digest_bytes(o.as_bytes());
        (AppOut { secs, digest, stream_bytes, sent_bytes: o.compressed_size() }, o)
    }

    /// Plain MPI's round: add the raw values — [`MPI_TILE`] elements, as many
    /// passes as make up one field's worth of additions.
    fn mpi(x: &AppInput, rec: &mut Recorder) -> (AppOut, Vec<f32>) {
        let tile = MPI_TILE.min(x.a.len());
        let mut acc = x.a[..tile].to_vec();
        let op = format!("codec:mpi:{}", x.name);
        let t0 = Instant::now();
        rec.span(&op, "harness", |rec| {
            for _ in 0..x.a.len() / tile {
                rec.call("hzdyn::doc::reduce_in_place", "hzdyn", || {
                    hzdyn::doc::reduce_in_place(&mut acc, &x.b[..tile], ReduceOp::Sum, 1)
                });
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        let digest = inputs::digest_f32(&acc);
        (AppOut { secs, digest, stream_bytes: 0, sent_bytes: x.bytes() }, acc)
    }

    fn run_app(f: Flavour, x: &AppInput, rec: &mut Recorder) -> AppOut {
        match f {
            Flavour::Hz => Codec::hz(x, rec).0,
            Flavour::Ccoll => Codec::ccoll(x, rec).0,
            Flavour::Mpi => Codec::mpi(x, rec).0,
        }
    }

    /// The paper model's time for the round: its compute stages at the
    /// paper's single-thread throughputs plus the reduced message on the
    /// seed's two-rank wire. The codec workload's stand-in for a simulated
    /// makespan (netsim itself does not run here).
    fn model_secs(&self, f: Flavour, bytes: usize, sent_bytes: usize) -> f64 {
        let m = hzccl::paper_model(f.variant(), hzccl::Mode::SingleThread);
        let t = |kind, times: usize| times as f64 * m.duration(kind, bytes);
        let compute = match f {
            Flavour::Hz => t(OpKind::Cpr, 2) + t(OpKind::Hpr, 1) + t(OpKind::Dpr, 1),
            Flavour::Ccoll => t(OpKind::Cpr, 3) + t(OpKind::Dpr, 2) + t(OpKind::Cpt, 1),
            Flavour::Mpi => t(OpKind::Cpt, 1),
        };
        compute + self.net.transfer_time(sent_bytes, 2)
    }

    fn sample(&self, f: Flavour, outs: &[AppOut], ok: bool) -> OpSample {
        let virtual_s = self
            .apps
            .iter()
            .zip(outs)
            .map(|(x, o)| self.model_secs(f, x.bytes(), o.sent_bytes))
            .sum();
        let logical: usize = self.apps.iter().map(|x| 2 * x.bytes()).sum();
        let wire: usize = outs.iter().map(|o| o.stream_bytes).sum();
        OpSample {
            parts: outs.iter().map(|o| o.secs).collect(),
            virtual_s,
            wire: f.compresses().then_some((logical as u64, wire as u64)),
            ok,
        }
    }
}

/// `max_i |got[i] - want(i)| / bound`, the bound widened by the `f32`
/// rounding of the result. `want` is evaluated on the fly: an `f64` copy of
/// a field would be harness memory inside `peak_rss_mb`.
fn slack(got: &[f32], want: impl Fn(usize) -> f64, bound: f64) -> f64 {
    let (mut err, mut peak) = (0f64, 0f64);
    for (i, &g) in got.iter().enumerate() {
        let w = want(i);
        err = err.max((f64::from(g) - w).abs());
        peak = peak.max(w.abs());
    }
    err / (bound + 2.0 * f64::from(f32::EPSILON) * peak)
}

impl Workload for Codec {
    fn parts(&self, _f: Flavour) -> Vec<String> {
        self.apps.iter().map(|x| x.name.to_string()).collect()
    }

    fn warm_up(&mut self, f: Flavour) -> WarmUp {
        let mut rec = Recorder::new(false);
        let mut outs = Vec::new();
        let mut worst = 0f64;
        for x in &self.apps {
            let input = |i: usize| f64::from(x.a[i]);
            let exact = |i: usize| f64::from(x.a[i]) + f64::from(x.b[i]);
            let out = match f {
                Flavour::Hz => {
                    // round trip within eb, homomorphic sum within 2·eb
                    let c = fzlight::compress(&x.a, &x.cfg).expect("compress");
                    let back = fzlight::decompress(&c).expect("decompress");
                    worst = worst.max(slack(&back, input, x.eb));
                    let (out, sum) = Codec::hz(x, &mut rec);
                    worst = worst.max(slack(&sum, exact, 2.0 * x.eb));
                    out
                }
                Flavour::Ccoll => {
                    // round trip within eb; the DOC round re-quantizes: 3·eb
                    let o = ompszp::compress(&x.a, &x.cfg).expect("compress");
                    let back = ompszp::decompress(&o).expect("decompress");
                    worst = worst.max(slack(&back, input, x.eb));
                    let (out, stream) = Codec::ccoll(x, &mut rec);
                    let sum = ompszp::decompress(&stream).expect("decompress result");
                    worst = worst.max(slack(&sum, exact, 3.0 * x.eb));
                    out
                }
                Flavour::Mpi => {
                    // the raw sum is the f32 sum, bit for bit, pass by pass
                    let (out, sum) = Codec::mpi(x, &mut rec);
                    let passes = x.a.len() / sum.len();
                    let same = sum
                        .iter()
                        .enumerate()
                        .all(|(i, &g)| g == (0..passes).fold(x.a[i], |acc, _| acc + x.b[i]));
                    worst = worst.max(if same { 0.0 } else { f64::INFINITY });
                    out
                }
            };
            outs.push(out);
        }
        self.refs[f.index()] = outs.iter().map(|o| o.digest).collect();
        WarmUp { sample: self.sample(f, &outs, worst <= 1.0), err_over_bound: worst }
    }

    fn op(&mut self, f: Flavour, rec: &mut Recorder) -> OpSample {
        let outs: Vec<AppOut> = self.apps.iter().map(|x| Codec::run_app(f, x, rec)).collect();
        let refs = &self.refs[f.index()];
        assert_eq!(refs.len(), outs.len(), "warm_up({f:?}) must run before op");
        let ok = outs.iter().zip(refs).all(|(o, &r)| o.digest == r);
        self.sample(f, &outs, ok)
    }

    fn layers(&mut self, rec: &mut Recorder, out: &mut MetricSet, ops: &mut Ops) {
        assert!(rec.enabled(), "the per-layer pass needs spans");
        let mut slowest = [0f64; 3];
        for _ in 0..TRACED_REPS {
            for f in Flavour::ALL {
                let s = self.op(f, rec);
                ops.record(s.ok);
                slowest[f.index()] = slowest[f.index()].max(s.parts.iter().sum());
            }
        }
        for f in Flavour::ALL {
            // overwritten by the collective workloads' own passes
            out.set(&format!("harness.op_ms_hi.{}", f.name()), slowest[f.index()] * 1e3);
        }
        out.set("datasets.generate_mbps", self.generate_mbps);
        for x in &self.apps {
            let gb = x.bytes() as f64 / 1e9;
            let mut gbps = |metric: &str, root: &str, call: &str| {
                let secs = rec.durations(&format!("codec:{root}:{}", x.name), call);
                let rates: Vec<f64> = secs.iter().map(|s| gb / s).collect();
                out.set_samples(&format!("{metric}.{}", x.name), &rates);
            };
            gbps("fzlight.compress_gbps", "hz", "fzlight::compress");
            gbps("fzlight.decompress_gbps", "hz", "fzlight::decompress");
            gbps("hzdyn.hsum_gbps", "hz", "hzdyn::homomorphic_sum");
            gbps("ompszp.compress_gbps", "ccoll", "ompszp::compress");
            gbps("ompszp.decompress_gbps", "ccoll", "ompszp::decompress");
            gbps("hzdyn.doc_reduce_gbps", "ccoll", "hzdyn::doc::reduce_in_place");
            // exact counts, computed twice: they must repeat
            let exact = || {
                let c1 = fzlight::compress(&x.a, &x.cfg).expect("compress a");
                let c2 = fzlight::compress(&x.b, &x.cfg).expect("compress b");
                let (_, stats) = hzdyn::homomorphic_sum_with_stats(&c1, &c2).expect("hsum");
                let o = ompszp::compress(&x.a, &x.cfg).expect("ompszp compress");
                [c1.ratio(), o.ratio(), stats.percentages()[3]]
            };
            let counts = exact();
            ops.record(counts == exact());
            out.set(&format!("fzlight.ratio.{}", x.name), counts[0]);
            out.set(&format!("ompszp.ratio.{}", x.name), counts[1]);
            out.set(&format!("hzdyn.p4_share.{}", x.name), counts[2]);
        }
        let raw: Vec<f64> = self
            .apps
            .iter()
            .flat_map(|x| {
                let secs =
                    rec.durations(&format!("codec:mpi:{}", x.name), "hzdyn::doc::reduce_in_place");
                let pass_bytes = MPI_TILE.min(x.a.len()) * 4;
                secs.into_iter().map(move |s| pass_bytes as f64 / 1e9 / s)
            })
            .collect();
        out.set_samples("hzdyn.reduce_gbps", &raw);
    }
}
