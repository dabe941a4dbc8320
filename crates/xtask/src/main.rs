//! CLI entry point: `cargo run -p xtask -- lint [--root <path>] [--allows]`
//! and `cargo run -p xtask -- loc [--root <path>]`.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask -> workspace root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint(root: &Path) -> ExitCode {
    let diags = match xtask::lint_workspace(root) {
        Ok(diags) => diags,
        Err(err) => {
            eprintln!(
                "error: failed to read sources under {}: {err}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    for diag in &diags {
        println!("{diag}");
    }
    if diags.is_empty() {
        println!("wedge-lint: clean (L1–L9)");
        ExitCode::SUCCESS
    } else {
        eprintln!("wedge-lint: {} violation(s)", diags.len());
        ExitCode::FAILURE
    }
}

fn run_allows_audit(root: &Path) -> ExitCode {
    let markers = match xtask::audit_allows(root) {
        Ok(markers) => markers,
        Err(err) => {
            eprintln!(
                "error: failed to read sources under {}: {err}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    let mut stale = 0usize;
    for m in &markers {
        let kind = if m.file_level { "allow-file" } else { "allow" };
        let verdict = if m.used {
            "used"
        } else {
            stale += 1;
            if !m.known {
                "STALE (unknown rule)"
            } else if m.reason.is_empty() {
                "STALE (missing reason)"
            } else {
                "STALE (suppresses nothing)"
            }
        };
        let reason = if m.reason.is_empty() {
            "<no reason>".to_string()
        } else {
            m.reason.clone()
        };
        println!(
            "{}:{}: {kind}({}) — {reason} [{verdict}]",
            m.file.display(),
            m.line,
            m.name,
        );
    }
    if stale == 0 {
        println!(
            "wedge-lint: {} allow marker(s), all still earning their keep",
            markers.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "wedge-lint: {} allow marker(s), {stale} stale — remove the marker or \
             restore the code it justified",
            markers.len()
        );
        ExitCode::FAILURE
    }
}

fn run_loc(root: &Path) -> ExitCode {
    let crates = match xtask::loc::count_workspace(root) {
        Ok(crates) => crates,
        Err(err) => {
            eprintln!(
                "error: failed to read sources under {}: {err}",
                root.display()
            );
            return ExitCode::FAILURE;
        }
    };
    for c in &crates {
        println!("{:<12} {:>7}", c.name, c.lines);
    }
    let total: usize = crates.iter().map(|c| c.lines).sum();
    println!("{:<12} {:>7}", "total", total);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let command = args.next();
    let mut root = workspace_root();
    let mut rest: Vec<String> = args.collect();
    if let Some(pos) = rest.iter().position(|a| a == "--root") {
        if pos + 1 < rest.len() {
            root = PathBuf::from(rest.remove(pos + 1));
            rest.remove(pos);
        } else {
            eprintln!("--root requires a path");
            return ExitCode::FAILURE;
        }
    }
    let allows = if let Some(pos) = rest.iter().position(|a| a == "--allows") {
        rest.remove(pos);
        true
    } else {
        false
    };

    match command.as_deref() {
        Some("lint") if allows => run_allows_audit(&root),
        Some("lint") => run_lint(&root),
        Some("loc") => run_loc(&root),
        _ => {
            eprintln!("usage: cargo run -p xtask -- lint [--root <path>] [--allows]");
            eprintln!("       cargo run -p xtask -- loc [--root <path>]");
            eprintln!();
            eprintln!("  lint           run the wedge-lint static-analysis pass (L1–L9)");
            eprintln!("  lint --allows  audit every allow marker; fail on stale ones");
            eprintln!("  loc            print the non-test Rust line count per crate");
            ExitCode::FAILURE
        }
    }
}
