//! The docs name what exists. In `README.md` and `DESIGN.md`, every
//! backticked repository path (`crates/core/src/ring.rs`,
//! `tests/{ring,codec}_goldens.tsv`, `tests/figure_goldens/<target>.txt`)
//! must exist, and every backticked `krate::…::item` must name a non-test
//! `pub` declaration of that crate: a `pub` item, a name a `pub use`
//! re-exports, a `pub` field or a variant of a `pub enum`. Code blocks are
//! not read. `benchmark/README.md` is not checked here: files under
//! `benchmark/` change only with the benchmark.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["README.md", "DESIGN.md"];

/// Library name → crate directory.
const CRATES: [(&str, &str); 10] = [
    ("costmodel", "crates/costmodel"),
    ("datasets", "crates/datasets"),
    ("fzlight", "crates/fzlight"),
    ("hzccl", "crates/core"),
    ("hzccl_bench", "crates/bench"),
    ("hzdyn", "crates/hzdyn"),
    ("netsim", "crates/netsim"),
    ("ompszp", "crates/ompszp"),
    ("streambench", "crates/streambench"),
    ("tuner", "crates/tuner"),
];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// `(line, text)` of every inline code span outside fenced blocks.
fn code_spans(doc: &str) -> Vec<(usize, String)> {
    let text = std::fs::read_to_string(root().join(doc)).unwrap();
    let mut fenced = false;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            out.extend(line.split('`').skip(1).step_by(2).map(|s| (i + 1, s.trim().to_string())));
        }
    }
    out
}

/// `a{b,c}d` → `abd`, `acd` (one brace group at a time).
fn expand(s: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (s.find('{'), s.find('}')) else {
        return vec![s.to_string()];
    };
    if close < open {
        return vec![s.to_string()];
    }
    let (head, alts, tail) = (&s[..open], &s[open + 1..close], &s[close + 1..]);
    alts.split(',').flat_map(|alt| expand(&format!("{head}{}{tail}", alt.trim()))).collect()
}

/// Whether `name` matches `pattern`, where `*` matches any run of characters.
fn glob(pattern: &str, name: &str) -> bool {
    match pattern.split_once('*') {
        None => pattern == name,
        Some((head, rest)) => {
            let Some(name) = name.strip_prefix(head) else { return false };
            (0..=name.len()).any(|i| name.is_char_boundary(i) && glob(rest, &name[i..]))
        }
    }
}

/// Whether a repository path (`*` and `<placeholder>` match anything within
/// one path segment) names at least one file or directory.
fn exists(path: &str) -> bool {
    let mut dirs = vec![root().to_path_buf()];
    for segment in path.split('/').filter(|s| !s.is_empty()) {
        let pattern: String = {
            let mut p = String::new();
            let mut in_placeholder = false;
            for c in segment.chars() {
                match c {
                    '<' => {
                        in_placeholder = true;
                        p.push('*');
                    }
                    '>' => in_placeholder = false,
                    c if !in_placeholder => p.push(c),
                    _ => {}
                }
            }
            p
        };
        dirs = dirs
            .iter()
            .flat_map(|dir| -> Vec<PathBuf> {
                if !pattern.contains('*') {
                    return vec![dir.join(&pattern)];
                }
                let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
                entries
                    .map(|e| e.unwrap().path())
                    .filter(|p| glob(&pattern, &p.file_name().unwrap().to_string_lossy()))
                    .collect()
            })
            .filter(|p| p.exists())
            .collect();
    }
    !dirs.is_empty()
}

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The leading identifier of `s`.
fn ident(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_alphanumeric() || c == '_')).unwrap_or(s.len());
    &s[..end]
}

/// The names a `use` tree (the text after `use`, up to `;`) brings in.
fn use_names(tree: &str) -> Vec<String> {
    let inner = match (tree.find('{'), tree.rfind('}')) {
        (Some(open), Some(close)) => &tree[open + 1..close],
        _ => tree.trim_end_matches(';'),
    };
    inner
        .split(',')
        .map(|item| item.rsplit(" as ").next().unwrap().rsplit("::").next().unwrap().trim())
        .filter(|name| !name.is_empty() && *name != "self" && *name != "*")
        .map(str::to_string)
        .collect()
}

/// A `#[cfg(test)]` item being skipped, as `scripts/loc.sh` skips it: from
/// the attribute to the item's outermost closing brace, or to its `;` when
/// it has no body. String and char literals and `//` comments are not read.
#[derive(Default)]
struct TestItem {
    depth: isize,
    nest: isize,
    opened: bool,
}

impl TestItem {
    /// Scan one line of the item; true when the item ends on it.
    fn ends(&mut self, line: &str) -> bool {
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    while let Some(c) = chars.next() {
                        match c {
                            '\\' => drop(chars.next()),
                            '"' => break,
                            _ => {}
                        }
                    }
                }
                // `'x'` and `'\x'` are char literals, `'a` a lifetime
                '\'' => {
                    let mut ahead = chars.clone();
                    let quoted = match ahead.next() {
                        Some('\\') => ahead.next().is_some() && ahead.next() == Some('\''),
                        Some('\'') | None => false,
                        Some(_) => ahead.next() == Some('\''),
                    };
                    if quoted {
                        chars = ahead;
                    }
                }
                '/' if chars.peek() == Some(&'/') => break,
                '{' => (self.depth, self.opened) = (self.depth + 1, true),
                '}' => {
                    self.depth -= 1;
                    if self.depth == 0 && self.opened {
                        return true;
                    }
                }
                '(' | '[' => self.nest += 1,
                ')' | ']' => self.nest -= 1,
                ';' if !self.opened && self.nest == 0 => return true,
                _ => {}
            }
        }
        false
    }
}

/// Every name a crate declares `pub` outside its `#[cfg(test)]` items.
fn pub_names(crate_dir: &str) -> BTreeSet<String> {
    let mut files = Vec::new();
    rs_files(&root().join(crate_dir).join("src"), &mut files);
    let mut names = BTreeSet::new();
    for file in files {
        names.extend(file_pub_names(&std::fs::read_to_string(&file).unwrap()));
    }
    names
}

/// Every name one source file declares `pub` outside its `#[cfg(test)]`
/// items.
fn file_pub_names(text: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let (mut in_enum, mut in_use, mut test_item) = (false, None::<String>, None::<TestItem>);
    for line in text.lines() {
        let t = line.trim_start();
        if let Some(item) = &mut test_item {
            if item.ends(t) {
                test_item = None;
            }
            continue;
        }
        if let Some(rest) = t.strip_prefix("#[cfg(test)]") {
            let mut item = TestItem::default();
            test_item = (!item.ends(rest)).then_some(item);
            continue;
        }
        if let Some(tree) = &mut in_use {
            tree.push_str(t);
            if t.contains(';') {
                names.extend(use_names(tree));
                in_use = None;
            }
            continue;
        }
        if in_enum {
            if line.starts_with('}') {
                in_enum = false;
            } else if let Some(variant) = line.strip_prefix("    ") {
                if variant.starts_with(|c: char| c.is_ascii_uppercase()) {
                    names.insert(ident(variant).to_string());
                }
            }
        }
        let Some(rest) = t.strip_prefix("pub ") else { continue };
        let words: Vec<&str> = rest.split_whitespace().collect();
        let qualifiers = words.iter().take_while(|w| ["const", "unsafe", "async"].contains(w));
        let at = if words.get(qualifiers.count()) == Some(&"fn") {
            words.iter().position(|w| *w == "fn").unwrap()
        } else {
            0
        };
        match words.get(at).copied() {
            Some("use") => {
                let tree = rest["use".len()..].to_string();
                if tree.contains(';') {
                    names.extend(use_names(&tree));
                } else {
                    in_use = Some(tree);
                }
            }
            Some(
                kw @ ("fn" | "struct" | "enum" | "trait" | "const" | "static" | "type" | "mod"),
            ) => {
                if let Some(name) = words.get(at + 1) {
                    names.insert(ident(name).to_string());
                }
                in_enum = kw == "enum" && t.trim_end().ends_with('{');
            }
            // a field: `pub name: Type`
            Some(field) if field.ends_with(':') => {
                names.insert(ident(field).to_string());
            }
            _ => {}
        }
    }
    names
}

#[test]
fn backticked_repo_paths_exist() {
    let mut missing = Vec::new();
    for doc in DOCS {
        for (line, span) in code_spans(doc) {
            let first = span.split('/').next().unwrap();
            let is_path = span.contains('/')
                && !span.contains(char::is_whitespace)
                && !first.is_empty()
                && first != "target"
                && root().join(first).exists();
            if !is_path {
                continue;
            }
            // `file.rs::test_name` and `file.rs:12-20` name places in a file
            let path = span.split(':').next().unwrap();
            for path in expand(path) {
                if !exists(&path) {
                    missing.push(format!("{doc}:{line}: `{span}` ({path} does not exist)"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "stale paths:\n{}", missing.join("\n"));
}

#[test]
fn backticked_crate_items_are_public() {
    let public: Vec<(&str, BTreeSet<String>)> =
        CRATES.iter().map(|&(lib, dir)| (lib, pub_names(dir))).collect();
    let mut stale = Vec::new();
    for doc in DOCS {
        for (line, span) in code_spans(doc) {
            let Some((krate, _)) = span.split_once("::") else { continue };
            let Some((_, names)) = public.iter().find(|(lib, _)| *lib == krate) else {
                continue;
            };
            // the path up to a call, generics or prose: `predict(s, ..)`, `Stream<L>`
            let end = span
                .find(|c: char| !(c.is_alphanumeric() || "_:{},* ".contains(c)))
                .unwrap_or(span.len());
            let path: String = span[..end].split_whitespace().collect();
            for path in expand(&path) {
                let item = path.rsplit("::").next().unwrap();
                if !item.is_empty() && !item.contains('*') && !names.contains(item) {
                    stale.push(format!("{doc}:{line}: `{span}` ({item} is not pub in {krate})"));
                }
            }
        }
    }
    assert!(stale.is_empty(), "stale item references:\n{}", stale.join("\n"));
}

/// The checks above on a known answer: the parser finds the `pub` names of
/// each declaration kind and no crate-private ones.
#[test]
fn the_checks_read_declarations_and_paths_as_written() {
    let netsim = pub_names("crates/netsim");
    for name in ["SimBuilder", "trace", "chrome_trace", "Tally", "tally", "traces"] {
        assert!(netsim.contains(name), "{name} missing from netsim's pub names");
    }
    assert!(pub_names("crates/fzlight").contains("Mismatch"), "a pub enum's variant");
    // a `#[cfg(test)]` item hides itself only, braces in its literals and
    // comments included, not the `pub` items after it
    let fixture = "pub fn before() {}\n#[cfg(test)]\nfn helper(c: char) -> bool {\n    \
                   c == '}' || c == '\\'' || \"}\".contains(c) // }\n}\n#[cfg(test)]\nuse std::fmt;\n\
                   pub struct After;\n#[cfg(test)]\nmod tests {\n    pub fn hidden() {}\n}\n";
    let names = file_pub_names(fixture);
    assert_eq!(names, ["After", "before"].map(String::from).into(), "{names:?}");
    for name in ["json", "critpath", "parse_value"] {
        assert!(!netsim.contains(name), "{name} is not pub in netsim");
    }
    assert_eq!(expand("tests/{ring,codec}_goldens.tsv").len(), 2);
    assert!(exists("tests/figure_goldens/<target>.txt") && exists("crates/*/src/lib.rs"));
    assert!(!exists("tests/figure_goldens/<target>.json"));
}
