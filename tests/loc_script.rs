//! `scripts/loc.sh` on a fixture tree: a `#[cfg(test)]` attribute takes the
//! one item it annotates out of the non-test count — a `use` up to its `;`,
//! a function up to its closing brace, braces inside literals ignored — and
//! the code after that item counts again.

use std::path::Path;
use std::process::Command;

const FIXTURE: &str = r#"pub fn before() -> u32 {
    1
}
#[cfg(test)]
use std::fmt;
#[cfg(test)]
fn helper() -> [u8; 2] {
    [b'{', 0]
}
pub fn after() -> u32 {
    before() + 1
}
#[cfg(test)]
mod tests {
    #[test]
    fn braces_in_literals() {
        assert_eq!("}", "}");
    }
}
"#;

#[test]
fn cfg_test_excludes_only_the_item_it_annotates() {
    let root = std::env::temp_dir().join(format!("loc-fixture-{}", std::process::id()));
    let src = root.join("crates/fixture/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(src.join("lib.rs"), FIXTURE).unwrap();
    let script = Path::new(env!("CARGO_MANIFEST_DIR")).join("scripts/loc.sh");
    let out = Command::new("bash").arg(script).arg(&root).output().expect("bash runs");
    std::fs::remove_dir_all(&root).unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
    let row: Vec<&str> = stdout
        .lines()
        .find(|l| l.starts_with("fixture "))
        .unwrap_or_else(|| panic!("no fixture row in\n{stdout}"))
        .split_whitespace()
        .collect();
    // crate, total, non-test, pub: lines 1-3 and 10-12, `before` and `after`
    assert_eq!(row[..4], ["fixture", "19", "6", "2"], "{stdout}");
}
