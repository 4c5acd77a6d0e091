//! Byte-identity goldens for the synthetic fields of `datasets`. Each row of
//! `dataset_goldens.tsv` pins one `(app, n, seed)`: the FNV-1a of the bits of
//! every value `App::generate(n, seed)` returns. The lengths sit on both
//! sides of the generator's 16 Ki-element parallel threshold, and 33 333 is
//! no cube (its worker ranges start mid-row), so a change to the fill order,
//! the row-wise noise evaluation or the worker split that moves one bit of
//! one value fails here. Every harness reads its
//! inputs from these generators, so this table sits under all the others.
//!
//! Regenerate (only when a field is meant to change) with
//! `cargo test --release --test dataset_goldens -- --ignored --nocapture print_goldens`.

use datasets::App;

const GOLDENS: &str = include_str!("dataset_goldens.tsv");
const APPS: [(&str, App); 5] = [
    ("sim1", App::SimSet1),
    ("sim2", App::SimSet2),
    ("nyx", App::Nyx),
    ("cesm", App::CesmAtm),
    ("hurricane", App::Hurricane),
];
const LENS: [usize; 4] = [1, 1000, 33_333, 1 << 18];
const SEEDS: [u64; 2] = [0, 42];

fn digest(values: &[f32]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn rows() -> Vec<String> {
    let mut out = Vec::new();
    for (name, app) in APPS {
        for n in LENS {
            for seed in SEEDS {
                let field = app.generate(n, seed);
                assert_eq!(field.len(), n);
                out.push(format!("{name}/n{n}/s{seed}\t{:016x}", digest(&field)));
            }
        }
    }
    out
}

#[test]
fn every_field_matches_its_golden() {
    let want: Vec<&str> = GOLDENS.lines().filter(|l| !l.starts_with('#')).collect();
    let got = rows();
    assert_eq!(got.len(), want.len(), "one golden row per case");
    let drifted: Vec<String> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!(" got {g}\nwant {w}"))
        .collect();
    assert!(
        drifted.is_empty(),
        "{} of {} fields drifted:\n{}",
        drifted.len(),
        got.len(),
        drifted.join("\n")
    );
}

#[test]
#[ignore = "prints the table this file checks; see the module docs"]
fn print_goldens() {
    println!("# id\tfnv1a");
    for line in rows() {
        println!("{line}");
    }
}
