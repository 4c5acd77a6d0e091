//! Byte-identity goldens for the codec layer (`fzlight`, `ompszp`, `hzdyn`).
//! Each row of `codec_goldens.tsv` pins one (dataset, length, block length,
//! thread count): the FNV-1a of the stream bytes every compress and
//! homomorphic entry point produces, and of the values they decompress to.
//! The table was generated before the three crates' per-entry-point
//! fork-join, assembly and header code was folded into one chunk driver and
//! one stream container, and is committed unchanged — a refactor that moves
//! one output byte, or turns a result into an error, fails here.
//!
//! Regenerate (only when a format change is intended) with
//! `cargo test --release --test codec_goldens -- --ignored --nocapture print_goldens`.

use datasets::App;
use fzlight::{CompressedStream, Config, ErrorBound, Result};
use hzdyn::reference::homomorphic_sum_scalar;
use hzdyn::{
    homomorphic_axpby, homomorphic_op, homomorphic_scale, homomorphic_sum, homomorphic_sum_static,
    Accumulator, ReduceOp,
};

const GOLDENS: &str = include_str!("codec_goldens.tsv");
const APPS: [(&str, App); 3] = [("cesm", App::CesmAtm), ("nyx", App::Nyx), ("sim1", App::SimSet1)];
const LENS: [usize; 7] = [0, 1, 31, 32, 33, 4096, 100_003];
const BLOCK_LENS: [usize; 2] = [32, 64];
const THREADS: [usize; 4] = [1, 2, 3, 8];
const COLUMNS: &str = "fz\tunfused\toszp\tsum\tdiff\taxpby(1,1)\taxpby(1,-1)\taxpby(2,3)\t\
                       axpby(0,5)\tscale(0)\tscale(1)\tscale(-2)\tstatic\tscalar\taccumulator\tvalues";

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, bytes);
    h
}

/// One row: the stream digests in `COLUMNS` order, then one digest over the
/// values every one of those streams decompresses to.
struct Row {
    streams: Vec<u64>,
    values: u64,
}

impl Row {
    fn new() -> Row {
        Row { streams: Vec::new(), values: FNV_OFFSET }
    }

    fn values(&mut self, values: Result<Vec<f32>>) {
        match values {
            Ok(vs) => vs.iter().for_each(|v| fnv1a(&mut self.values, &v.to_bits().to_le_bytes())),
            Err(e) => fnv1a(&mut self.values, format!("{e:?}").as_bytes()),
        }
    }

    /// Pin a homomorphic result: its bytes and what it decodes to, or the
    /// error it is refused with.
    fn fz(&mut self, stream: Result<CompressedStream>) {
        match stream {
            Ok(s) => {
                self.streams.push(digest(s.as_bytes()));
                self.values(fzlight::decompress(&s));
            }
            Err(e) => self.streams.push(digest(format!("{e:?}").as_bytes())),
        }
    }
}

fn row(fields: &[Vec<f32>], block_len: usize, threads: usize) -> Row {
    // one absolute bound for all four fields, as a collective would bake in
    let eb = ErrorBound::Rel(1e-3).resolve(&fields[0]).expect("finite field");
    let cfg = Config::new(ErrorBound::Abs(eb)).with_block_len(block_len).with_threads(threads);
    let mut row = Row::new();
    row.fz(fzlight::compress(&fields[0], &cfg));
    row.fz(fzlight::compress_unfused(&fields[0], &cfg));
    let oszp = ompszp::compress(&fields[0], &cfg).expect("ompszp compress");
    row.streams.push(digest(oszp.as_bytes()));
    row.values(ompszp::decompress(&oszp));

    let s: Vec<CompressedStream> =
        fields.iter().map(|f| fzlight::compress(f, &cfg).expect("compress")).collect();
    let (a, b) = (&s[0], &s[1]);
    row.fz(homomorphic_sum(a, b));
    row.fz(homomorphic_op(a, b, ReduceOp::Diff));
    for (alpha, beta) in [(1, 1), (1, -1), (2, 3), (0, 5)] {
        row.fz(homomorphic_axpby(a, alpha, b, beta));
    }
    for k in [0, 1, -2] {
        row.fz(homomorphic_scale(a, k));
    }
    row.fz(homomorphic_sum_static(a, b));
    row.fz(homomorphic_sum_scalar(a, b));
    row.fz(Accumulator::new(a).and_then(|mut acc| {
        s[1..].iter().try_for_each(|x| acc.push(x))?;
        acc.finish()
    }));
    row
}

fn render(id: &str, row: &Row) -> String {
    let cols: Vec<String> = row.streams.iter().map(|h| format!("{h:016x}")).collect();
    format!("{id}\t{}\t{:016x}", cols.join("\t"), row.values)
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for (name, app) in APPS {
        for n in LENS {
            let fields: Vec<Vec<f32>> = (1..=4).map(|seed| app.generate(n, seed)).collect();
            for block_len in BLOCK_LENS {
                for threads in THREADS {
                    let id = format!("{name}/n{n}/b{block_len}/t{threads}");
                    out.push(render(&id, &row(&fields, block_len, threads)));
                }
            }
        }
    }
    out
}

#[test]
fn every_codec_entry_point_matches_its_golden() {
    let want: Vec<&str> = GOLDENS.lines().filter(|l| !l.starts_with('#')).collect();
    let got = rows();
    assert_eq!(got.len(), want.len(), "one golden row per case");
    for (got, want) in got.iter().zip(want) {
        if got != want {
            let names = std::iter::once("id").chain(COLUMNS.split('\t'));
            let moved: Vec<&str> = names
                .zip(got.split('\t').zip(want.split('\t')))
                .filter_map(|(name, (g, w))| (g != w).then_some(name))
                .collect();
            panic!(
                "{} drifted in {moved:?}\n got {got}\nwant {want}",
                &got[..got.find('\t').unwrap()]
            );
        }
    }
}

#[test]
#[ignore = "prints the table this file checks; see the module docs"]
fn print_goldens() {
    println!("# id\t{COLUMNS}");
    for line in rows() {
        println!("{line}");
    }
}
