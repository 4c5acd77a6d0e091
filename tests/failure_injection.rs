//! Failure injection: corrupted and adversarial compressed streams flowing
//! through the stack must surface as clean `Err`s — never panics, hangs or
//! out-of-bounds reads.

use datasets::App;
use fzlight::{compress, CompressedStream, Config, ErrorBound};
use netsim::{ComputeTiming, SimBuilder, ThroughputModel};

fn valid_stream_bytes() -> Vec<u8> {
    let data = App::Hurricane.generate(4096, 9);
    let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
    compress(&data, &cfg).unwrap().into_bytes()
}

/// Flip every byte (one at a time, sampled) of a valid stream and verify the
/// stack never panics: parse either rejects the bytes, or decompression and
/// homomorphic ops return a clean result/error.
#[test]
fn single_byte_corruption_never_panics() {
    let bytes = valid_stream_bytes();
    let reference = CompressedStream::from_bytes(bytes.clone()).unwrap();
    // sample positions across header, offset table and body
    let step = (bytes.len() / 200).max(1);
    for at in (0..bytes.len()).step_by(step) {
        for flip in [0x01u8, 0x80, 0xFF] {
            let mut corrupted = bytes.clone();
            corrupted[at] ^= flip;
            if let Ok(stream) = CompressedStream::from_bytes(corrupted) {
                let _ = fzlight::decompress(&stream);
                let _ = fzlight::StreamStats::inspect(&stream);
                let _ = hzdyn::homomorphic_sum(&stream, &reference);
            }
        }
    }
}

/// Truncation at every sampled length must be a clean parse error.
#[test]
fn truncation_never_panics() {
    let bytes = valid_stream_bytes();
    let step = (bytes.len() / 100).max(1);
    for cut in (0..bytes.len()).step_by(step) {
        assert!(
            CompressedStream::from_bytes(bytes[..cut].to_vec()).is_err(),
            "cut at {cut} must be rejected"
        );
    }
}

/// A rank that receives garbage instead of a compressed chunk must fail its
/// collective with an error, not bring the simulation down.
#[test]
fn garbage_on_the_wire_fails_cleanly() {
    let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
    let cluster = SimBuilder::new(2).timing(timing);
    let outcomes = cluster
        .run(|comm| {
            if comm.rank() == 0 {
                // rank 0 maliciously sends noise instead of a stream
                comm.send(1, 7, vec![0xAB; 100]);
                Ok(())
            } else {
                let got = comm.recv(0, 7);
                CompressedStream::from_bytes(got).map(|_| ())
            }
        })
        .expect_clean()
        .outcomes;
    assert!(outcomes[0].value.is_ok());
    assert!(outcomes[1].value.is_err());
}

/// Mismatched-parameter streams must be rejected by every homomorphic entry
/// point, including the accumulator.
#[test]
fn parameter_mismatches_rejected_everywhere() {
    let data = App::Nyx.generate(2048, 0);
    let a = compress(&data, &Config::new(ErrorBound::Abs(1e-3))).unwrap();
    let b = compress(&data, &Config::new(ErrorBound::Abs(1e-4))).unwrap();
    assert!(hzdyn::homomorphic_sum(&a, &b).is_err());
    assert!(hzdyn::homomorphic_op(&a, &b, hzdyn::ReduceOp::Diff).is_err());
    assert!(hzdyn::homomorphic_axpby(&a, 1, &b, 1).is_err());
    assert!(hzdyn::homomorphic_sum_static(&a, &b).is_err());
    assert!(hzdyn::doc_reduce(&a, &b, hzdyn::ReduceOp::Sum).is_err());
    let mut acc = hzdyn::Accumulator::new(&a).unwrap();
    assert!(acc.push(&b).is_err());
}

/// ompSZp is held to the same robustness bar.
#[test]
fn ompszp_corruption_never_panics() {
    let data = App::CesmAtm.generate(4096, 2);
    let cfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
    let bytes = ompszp::compress(&data, &cfg).unwrap().as_bytes().to_vec();
    let step = (bytes.len() / 150).max(1);
    for at in (0..bytes.len()).step_by(step) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0xFF;
        if let Ok(stream) = ompszp::OszpStream::from_bytes(corrupted) {
            let _ = ompszp::decompress(&stream);
        }
    }
}

/// A wire header chooses how many chunks a decoder walks in parallel; it
/// must not thereby choose how many OS threads it starts (`thread::scope`
/// panics when the OS refuses one). A stream that really has 50 000 chunks
/// or groups decodes to its values on however many cores there are, and a
/// forged group count the blocks cannot fill is refused in the header.
#[test]
fn a_wire_header_cannot_ask_for_unbounded_workers() {
    const PARTS: usize = 50_000;
    let data = App::CesmAtm.generate(2 * PARTS, 4);
    // one-element blocks, so ompSZp too can be cut 50 000 ways
    let narrow = Config::new(ErrorBound::Abs(1e-3)).with_block_len(1);
    let wide = narrow.clone().with_threads(PARTS);

    let stream = compress(&data, &wide).unwrap();
    assert_eq!(stream.nchunks(), PARTS);
    let received = CompressedStream::from_bytes(stream.into_bytes()).unwrap();
    let expect = fzlight::decompress(&compress(&data, &narrow).unwrap()).unwrap();
    assert_eq!(fzlight::decompress(&received).unwrap(), expect);
    let doubled = hzdyn::homomorphic_sum(&received, &received).unwrap();
    assert_eq!(doubled.nchunks(), PARTS);

    let stream = ompszp::compress(&data, &wide).unwrap();
    assert_eq!(stream.nchunks(), PARTS);
    let received = ompszp::OszpStream::from_bytes(stream.as_bytes().to_vec()).unwrap();
    assert_eq!(ompszp::decompress(&received).unwrap(), expect);

    // 64 elements in two blocks, 50 000 groups claimed, offset table and all
    let mut forged = ompszp::compress(&data[..64], &Config::new(ErrorBound::Abs(1e-3)))
        .unwrap()
        .as_bytes()[..32]
        .to_vec();
    forged[28..32].copy_from_slice(&(PARTS as u32).to_le_bytes());
    forged.resize(32 + 8 * (PARTS + 1), 0);
    assert!(matches!(poke_oszp(forged), Err(fzlight::Error::Corrupt(_))));
}

/// Parse-then-decompress one mutated codec byte string.
type Poke = fn(Vec<u8>) -> fzlight::Result<()>;

fn poke_fz(bytes: Vec<u8>) -> fzlight::Result<()> {
    let stream = CompressedStream::from_bytes(bytes)?;
    fzlight::decompress(&stream).map(|_| ())
}

/// Parse-then-decompress one mutated ompSZp byte string.
fn poke_oszp(bytes: Vec<u8>) -> fzlight::Result<()> {
    let stream = ompszp::OszpStream::from_bytes(bytes)?;
    ompszp::decompress(&stream).map(|_| ())
}

/// `decode_planes` used to read past the end of a short plane buffer (a
/// panic in the block walk); it now validates up front. Every truncated
/// prefix, across block lengths and all code lengths, must surface as a
/// typed `Truncated` error carrying the exact byte requirement — on the
/// bit-parallel fast path and the scalar reference alike.
#[test]
fn bitshuffle_truncation_fuzz_table() {
    use ompszp::bitshuffle;
    for len in [1usize, 7, 8, 31, 32, 64] {
        for c in 0..=32u8 {
            let mask = ((1u64 << c) - 1) as u32;
            let mags: Vec<u32> =
                (0..len).map(|i| (i as u32).wrapping_mul(0x9E37_79B9) & mask).collect();
            let mut planes = Vec::new();
            bitshuffle::encode_planes(&mags, c, &mut planes);
            let need = bitshuffle::planes_size(c, len);
            assert_eq!(planes.len(), need);
            let mut out = vec![0u32; len];
            for cut in 0..need {
                let err = bitshuffle::decode_planes(&planes[..cut], c, &mut out)
                    .expect_err("short plane buffer must be rejected");
                assert!(
                    matches!(err, fzlight::Error::Truncated { need: n, have } if n == need && have == cut),
                    "len={len} c={c} cut={cut}: unexpected error {err:?}"
                );
                assert!(bitshuffle::decode_planes_scalar(&planes[..cut], c, &mut out).is_err());
            }
        }
    }
}

/// Fuzz-style table over both codecs × {truncation, single-bit flip}: every
/// truncation must surface as a *typed* error (`Truncated`/`Corrupt` — the
/// variants the resilient transport reacts to with a NACK), and every
/// single-bit flip must end in a clean `Ok`/`Err` — never a panic or an
/// out-of-bounds read.
#[test]
fn codec_fuzz_table_truncation_and_bitflips() {
    let fz = valid_stream_bytes();
    let data = App::CesmAtm.generate(4096, 2);
    let ocfg = Config::new(ErrorBound::Abs(1e-3)).with_threads(2);
    let oz = ompszp::compress(&data, &ocfg).unwrap().as_bytes().to_vec();
    let table: [(&str, &[u8], Poke); 2] = [("fzlight", &fz, poke_fz), ("ompszp", &oz, poke_oszp)];
    for (name, bytes, poke) in table {
        let step = (bytes.len() / 64).max(1);
        for cut in (0..bytes.len()).step_by(step) {
            let err = poke(bytes[..cut].to_vec())
                .expect_err(&format!("{name}: truncation at {cut} must be rejected"));
            assert!(
                matches!(err, fzlight::Error::Truncated { .. } | fzlight::Error::Corrupt(_)),
                "{name}: truncation at {cut} surfaced unexpected error {err:?}"
            );
        }
        for at in (0..bytes.len()).step_by(step) {
            for bit in 0..8 {
                let mut mutated = bytes.to_vec();
                mutated[at] ^= 1 << bit;
                // any typed outcome is acceptable; panics/OOB are not
                let _ = poke(mutated);
            }
        }
    }
}

/// The compress entry points are total on their scalar arguments: a block
/// length outside `1..=64` and an error bound the quantizer cannot turn into
/// a finite positive step `1 / (2·eb)` are typed errors from every one of
/// them. `compress_resolved` — the one the collectives call — used to check
/// neither (divide by zero, slice index, `unreachable!`, or an `Ok` stream
/// decoding to `-0, 2, 2, -0` or NaN), and a bound whose reciprocal overflows
/// got through `ErrorBound::resolve` to the same `unreachable!` on data
/// holding a zero (`0 · ∞` is a NaN no element can be blamed for).
#[test]
fn compress_argument_table_returns_typed_errors() {
    use fzlight::Error::{InvalidBlockLen, InvalidErrorBound};
    let ramp: Vec<f32> = (0..130).map(|i| i as f32).collect();
    let zeros = vec![0.0f32; 130];
    let rows: [(usize, f64, &[f32]); 6] = [
        (0, 1e-3, &ramp),
        (65, 1e-3, &ramp),
        (32, f64::NAN, &ramp),
        (32, -1.0, &ramp),
        (32, f64::INFINITY, &ramp),
        (32, 1e-310, &zeros),
    ];
    type Entry = fn(&[f32], &Config) -> fzlight::Result<()>;
    let entries: [(&str, Entry); 4] = [
        ("compress_resolved", |d, c| {
            let ErrorBound::Abs(eb) = c.eb else { unreachable!() };
            fzlight::compress_resolved(d, eb, c.block_len, c.threads).map(drop)
        }),
        ("compress", |d, c| compress(d, c).map(drop)),
        ("compress_unfused", |d, c| fzlight::compress_unfused(d, c).map(drop)),
        ("ompszp::compress", |d, c| ompszp::compress(d, c).map(drop)),
    ];
    for (name, entry) in entries {
        for &(block_len, eb, data) in &rows {
            for threads in [1usize, 3] {
                let at = format!("{name} block_len={block_len} eb={eb:e} threads={threads}");
                let cfg = Config::new(ErrorBound::Abs(eb))
                    .with_block_len(block_len)
                    .with_threads(threads);
                match entry(data, &cfg) {
                    Err(InvalidBlockLen { block_len: got }) if !(1..=64).contains(&block_len) => {
                        assert_eq!(got, block_len, "{at}")
                    }
                    Err(InvalidErrorBound { eb: got }) if (1..=64).contains(&block_len) => {
                        assert_eq!(got.to_bits(), eb.to_bits(), "{at}")
                    }
                    other => panic!("{at}: {other:?}"),
                }
            }
        }
    }
    // the smallest bounds with a finite step still compress, zeros included
    for eb in [2.8e-309, 1e-300] {
        let s = fzlight::compress_resolved(&zeros, eb, 32, 1).unwrap();
        assert_eq!(fzlight::decompress(&s).unwrap(), zeros, "eb={eb:e}");
    }
}

/// One rank whose vector is 64 elements longer than its peers': the two
/// ranks that meet a payload of the wrong length — the long rank and its
/// right neighbour, on the first ring step — return a typed error in every
/// flavour, where raw and DOC traffic once died in an `assert_eq!` of the
/// reduction kernel. Ranks further round the ring never see such a payload;
/// what they report is the early exit of a neighbour (the crash cascade).
#[test]
fn a_payload_of_the_wrong_length_is_a_typed_error_in_every_flavour() {
    use hzccl::{collectives, CollectiveOpts};
    type Verb = fn(&mut netsim::Comm, &[f32], &CollectiveOpts) -> collectives::Result<Vec<f32>>;
    let verbs: [(&str, Verb); 2] =
        [("allreduce", collectives::allreduce), ("reduce_scatter", collectives::reduce_scatter)];
    let flavours = [
        ("mpi", CollectiveOpts::mpi()),
        ("ccoll", CollectiveOpts::ccoll(1e-4)),
        ("hz", CollectiveOpts::hz(1e-4)),
    ];
    let nranks = 4;
    let timing = ComputeTiming::Modeled(ThroughputModel::new(5.0, 10.0, 50.0, 20.0, 40.0));
    for (flavour, opts) in &flavours {
        for (verb_name, verb) in verbs {
            for long in [0, 1, nranks - 1] {
                let at = format!("{flavour} {verb_name}, rank {long} long");
                let report = SimBuilder::new(nranks).timing(timing).run(|comm| {
                    let len = 4096 + if comm.rank() == long { 64 } else { 0 };
                    verb(comm, &App::Hurricane.generate(len, comm.rank() as u64), opts).map(drop)
                });
                for rank in [long, (long + 1) % nranks] {
                    let err = report.value(rank).as_ref().expect_err(&at);
                    let text = err.to_string();
                    assert!(
                        text.contains("length") || text.contains("element count"),
                        "{at}: {text}"
                    );
                }
                for p in &report.panics {
                    let m = &p.message;
                    let kernel = m.contains("assert") || m.contains("slice");
                    assert!(!kernel, "{at}: rank {} died in a kernel check — {m}", p.rank);
                }
            }
        }
    }
}
