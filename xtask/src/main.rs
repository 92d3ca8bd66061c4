//! Repo-specific developer tasks. The one that matters is
//!
//! ```text
//! cargo xtask analyze [--format text|json] [--baseline <path> | --no-baseline]
//!                     [--write-baseline] [--root <path>]
//!                     [--only <lint,…>] [--files <glob>]
//!                     [--callgraph-json <path|->]
//! ```
//!
//! the static-analysis pass over the workspace (see the
//! `spanner-analyze` crate for the lint list and waiver syntax).
//!
//! `--only` and `--files` narrow the *reported* view — the analysis
//! itself always covers the whole workspace, so interprocedural passes
//! keep their call chains and waiver hygiene still judges the full
//! ledger. `--callgraph-json` dumps the workspace call graph (the
//! structure the interprocedural passes run on) to a file, or to
//! stdout with `-`.
//!
//! Exit codes form a contract CI and scripts rely on:
//!
//! * `0` — clean: every file read, no findings beyond the baseline;
//! * `1` — new findings (not in `analyze-baseline.json`);
//! * `2` — unreadable / non-UTF8 sources were skipped. A tree the
//!   analyzer could not fully read is never reported clean, so this
//!   dominates the other codes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use spanner_analyze::report::parse_baseline;

fn workspace_root() -> PathBuf {
    // xtask lives at <root>/xtask, so the workspace root is one level up
    // from this crate's manifest.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("xtask must live inside the workspace")
        .to_path_buf()
}

enum Format {
    Text,
    Json,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask analyze [--format text|json] [--baseline <path> | --no-baseline]"
    );
    eprintln!("                           [--write-baseline] [--root <path>]");
    eprintln!("                           [--only <lint,...>] [--files <glob>]");
    eprintln!("                           [--callgraph-json <path|->]");
    eprintln!();
    eprintln!("Static analysis over the workspace: determinism-taint,");
    eprintln!("lock-nesting, panic-path, raw-sync, stray-spawn,");
    eprintln!("unsafe-comment, unused-waiver, wall-clock.");
    eprintln!();
    eprintln!("--only / --files filter the report, not the analysis; repeatable.");
    eprintln!("--callgraph-json writes the workspace call graph (`-` = stdout).");
    eprintln!();
    eprintln!("exit codes: 0 clean · 1 new findings · 2 unreadable files skipped");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    if args.next().as_deref() != Some("analyze") {
        return usage();
    }

    let mut format = Format::Text;
    let mut root = workspace_root();
    let mut baseline_path: Option<PathBuf> = None;
    let mut use_baseline = true;
    let mut write_baseline = false;
    let mut opts = spanner_analyze::Options::default();
    let mut callgraph_out: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!("--format takes `text` or `json`, got {other:?}");
                    return usage();
                }
            },
            "--root" => match args.next() {
                Some(p) => root = PathBuf::from(p),
                None => return usage(),
            },
            "--baseline" => match args.next() {
                Some(p) => baseline_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--no-baseline" => use_baseline = false,
            "--write-baseline" => write_baseline = true,
            "--only" => match args.next() {
                Some(lints) => {
                    let set = opts.only.get_or_insert_with(BTreeSet::new);
                    for lint in lints.split(',').map(str::trim).filter(|l| !l.is_empty()) {
                        set.insert(lint.to_string());
                    }
                }
                None => return usage(),
            },
            "--files" => match args.next() {
                Some(glob) => opts.files.get_or_insert_with(Vec::new).push(glob),
                None => return usage(),
            },
            "--callgraph-json" => match args.next() {
                Some(p) => callgraph_out = Some(PathBuf::from(p)),
                None => return usage(),
            },
            _ => {
                eprintln!("unknown argument: {arg}");
                return usage();
            }
        }
    }

    let baseline_file = baseline_path.unwrap_or_else(|| root.join("analyze-baseline.json"));
    let baseline: BTreeSet<String> = if use_baseline {
        match std::fs::read_to_string(&baseline_file) {
            Ok(content) => parse_baseline(&content),
            Err(_) => BTreeSet::new(), // no baseline yet: everything is new
        }
    } else {
        BTreeSet::new()
    };

    if let Some(out) = &callgraph_out {
        let json = spanner_analyze::callgraph_json(&root);
        if out.as_os_str() == "-" {
            print!("{json}");
        } else if let Err(e) = std::fs::write(out, &json) {
            eprintln!("cannot write {}: {e}", out.display());
            return ExitCode::FAILURE;
        }
    }

    let report = spanner_analyze::run_with(&root, &opts);

    if write_baseline {
        let mut s = String::from("{\"version\": 1, \"findings\": [");
        for (i, f) in report.findings.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&spanner_analyze::report::json_str(&f.baseline_key()));
        }
        s.push_str("]}\n");
        if let Err(e) = std::fs::write(&baseline_file, s) {
            eprintln!("cannot write {}: {e}", baseline_file.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "wrote {} finding(s) to {}",
            report.findings.len(),
            baseline_file.display()
        );
    }

    let new = report.new_findings(&baseline);

    match format {
        Format::Json => print!("{}", report.to_json(&baseline)),
        Format::Text => {
            for f in &new {
                println!(
                    "{}:{}: [{}] {}\n    {}",
                    f.file, f.line, f.lint, f.message, f.excerpt
                );
            }
            let summary = format!(
                "{} files scanned, {} finding(s) ({} new), {} waived, {} unreadable",
                report.files_scanned,
                report.findings.len(),
                new.len(),
                report.waived.len(),
                report.skipped_files.len()
            );
            if new.is_empty() && report.skipped_files.is_empty() {
                println!("analyze: ok — {summary}");
            } else {
                println!(
                    "analyze: {summary}; waive a line with `// analyze:allow(<lint>): reason` \
                     on it or the line above"
                );
            }
        }
    }

    // Unreadable files dominate: the tree cannot be declared clean.
    if !report.skipped_files.is_empty() {
        for f in &report.skipped_files {
            eprintln!("analyze: skipped unreadable/non-UTF8 file: {f}");
        }
        return ExitCode::from(2);
    }
    if new.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
