//! `xtask loc`: the workspace's non-test Rust line count, per crate.
//!
//! Counts every `.rs` file under `crates/*/src` and the root `src/`. A line
//! counts when it still holds code after [`mask_source`] has blanked
//! comments and literals, and it sits outside every `#[cfg(test)]` region.
//! `tests/`, `benches/`, `examples/`, `vendor/` and `perfbench/` are never
//! walked.

use std::fs;
use std::io;
use std::path::Path;

use crate::{mask_source, walk_rs_files};

/// Non-test code lines of one crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrateLoc {
    /// Directory name under `crates/`, or `wedgeblock` for the root `src/`.
    pub name: String,
    /// Non-test code lines across the crate's `src/` tree.
    pub lines: usize,
}

/// Non-test code lines in one source text.
pub fn count_source(text: &str) -> usize {
    mask_source(text)
        .iter()
        .filter(|line| !line.in_test && !line.code.trim().is_empty())
        .count()
}

fn count_dir(src: &Path) -> io::Result<usize> {
    let mut files = Vec::new();
    walk_rs_files(src, &mut files)?;
    let mut lines = 0;
    for file in files {
        lines += count_source(&fs::read_to_string(&file)?);
    }
    Ok(lines)
}

/// Counts every crate of the workspace rooted at `root`, sorted by name.
pub fn count_workspace(root: &Path) -> io::Result<Vec<CrateLoc>> {
    let mut out = vec![CrateLoc {
        name: "wedgeblock".into(),
        lines: count_dir(&root.join("src"))?,
    }];
    for entry in fs::read_dir(root.join("crates"))? {
        let dir = entry?.path();
        let Some(name) = dir.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if dir.join("src").is_dir() {
            out.push(CrateLoc {
                name: name.to_string(),
                lines: count_dir(&dir.join("src"))?,
            });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_code_lines_outside_tests_only() {
        let src = "//! doc\n\nfn f() {\n    // note\n    let s = \"x\";\n}\n\
                   #[cfg(test)]\nmod tests {\n    fn g() {}\n}\n";
        // `fn f() {`, `let s = ..;`, `}` — the doc, the blank line, the
        // comment and the whole test module do not count.
        assert_eq!(count_source(src), 3);
    }
}
