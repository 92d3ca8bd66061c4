//! Waiver hygiene: an `// analyze:allow(<lint>)` comment that no
//! longer suppresses any finding is itself a finding.
//!
//! Waivers are the analyzer's escape hatch, and stale ones are worse
//! than none: they read as "this danger is known and justified" about
//! code that no longer has the danger — or, after a typo or a lint
//! rename, about code that was never being checked at all. This pass
//! runs after every other pass and checks the ledger both ways:
//!
//! * a marker for a known lint that matched no waived finding on its
//!   line or the line below → `unused-waiver`;
//! * a marker naming a lint the analyzer doesn't have → also
//!   `unused-waiver` (it suppresses nothing and never will).
//!
//! A deliberately kept marker (say, a fixture-style doc example) can be
//! waived in turn with `analyze:allow(unused-waiver)` on the marker's
//! line or the line above. That meta-waiver is judged too — but
//! unconditionally, since a third tier would let a marker justify
//! itself.
//!
//! Caveat: the check compares against the waivers the *current run*
//! produced, so a filtered run (`--only`, `--files`) judges a filtered
//! ledger. The unfiltered CI run is authoritative for waiver hygiene.

use crate::items::FileIndex;
use crate::report::{Finding, Waived};
use crate::waiver_on;

pub const LINT: &str = "unused-waiver";

/// Every lint name the analyzer can emit; a waiver naming anything else
/// is dead on arrival.
pub const KNOWN_LINTS: &[&str] = &[
    "determinism-taint",
    "lock-nesting",
    "panic-path",
    "raw-sync",
    "stray-spawn",
    "unsafe-comment",
    "unused-waiver",
    "wall-clock",
];

struct Marker {
    line: u32,
    lint: String,
}

/// Judge every waiver marker in `files` against the `waived` ledger the
/// other passes produced.
pub fn run(files: &[FileIndex], waived: &[Waived]) -> (Vec<Finding>, Vec<Waived>) {
    let mut findings = Vec::new();
    let mut meta_waived: Vec<Waived> = Vec::new();

    for file in files {
        let rel = file.rel.to_string_lossy().replace('\\', "/");
        let markers = markers_in(file);

        // Pass 1: ordinary markers; their findings honor meta-waivers.
        for m in markers.iter().filter(|m| m.lint != LINT) {
            let known = KNOWN_LINTS.contains(&m.lint.as_str());
            let used = known
                && waived.iter().any(|w| {
                    w.file == rel && w.lint == m.lint && (w.line == m.line || w.line == m.line + 1)
                });
            if used {
                continue;
            }
            let message = if known {
                format!(
                    "waiver for `{}` no longer suppresses any finding — fix the comment or \
                     delete it",
                    m.lint
                )
            } else {
                format!(
                    "waiver names unknown lint `{}` — it will never suppress anything",
                    m.lint
                )
            };
            match waiver_on(&file.lexed, m.line, LINT) {
                Some(justification) => meta_waived.push(Waived {
                    file: rel.clone(),
                    line: m.line,
                    lint: LINT.to_string(),
                    justification,
                }),
                None => findings.push(Finding {
                    file: rel.clone(),
                    line: m.line,
                    lint: LINT.to_string(),
                    message,
                    excerpt: file.excerpt(m.line),
                }),
            }
        }

        // Pass 2: the meta-markers themselves. Used iff pass 1 consumed
        // them; an unused one is reported without a further escape
        // hatch (it would match its own marker and self-suppress).
        for m in markers.iter().filter(|m| m.lint == LINT) {
            let used = meta_waived
                .iter()
                .any(|w| w.file == rel && (w.line == m.line || w.line == m.line + 1));
            if !used {
                findings.push(Finding {
                    file: rel.clone(),
                    line: m.line,
                    lint: LINT.to_string(),
                    message: "meta-waiver for `unused-waiver` no longer covers a kept marker \
                              — delete it"
                        .to_string(),
                    excerpt: file.excerpt(m.line),
                });
            }
        }
    }

    (findings, meta_waived)
}

/// Every live `analyze:allow(<lint>)` marker in the file's comments.
///
/// Doc comments *about* the waiver syntax don't count: anything after a
/// backtick on the line is quoted prose (`` `// analyze:allow(…)` ``),
/// and a "lint" with characters outside a marker-shaped name (the
/// `<lint>` placeholder itself) is documentation, not a waiver.
fn markers_in(file: &FileIndex) -> Vec<Marker> {
    const NEEDLE: &str = "analyze:allow(";
    let mut out = Vec::new();
    for (line, text) in &file.lexed.comments {
        let mut at = 0usize;
        while let Some(pos) = text[at..].find(NEEDLE) {
            let start = at + pos + NEEDLE.len();
            let Some(close) = text[start..].find(')') else {
                break;
            };
            at = start + close + 1;
            if text[..start].contains('`') {
                continue;
            }
            let lint = text[start..start + close].trim();
            let marker_shaped = !lint.is_empty()
                && lint
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '-' || c == '_');
            if marker_shaped {
                out.push(Marker {
                    line: *line,
                    lint: lint.to_string(),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::index_file;
    use std::path::PathBuf;

    const REL: &str = "crates/core/src/pipeline/queue.rs";

    fn judge(src: &str, waived: &[Waived]) -> (Vec<Finding>, Vec<Waived>) {
        let files = vec![index_file(&PathBuf::from(REL), src)];
        run(&files, waived)
    }

    fn waived_at(line: u32, lint: &str) -> Waived {
        Waived {
            file: REL.to_string(),
            line,
            lint: lint.to_string(),
            justification: "x".to_string(),
        }
    }

    #[test]
    fn a_marker_that_suppressed_a_finding_is_fine() {
        let src = "
            // analyze:allow(panic-path): lane checked non-empty
            fn f() {}
        ";
        let (findings, _) = judge(src, &[waived_at(3, "panic-path")]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn a_marker_with_no_matching_waiver_fires() {
        let src = "
            // analyze:allow(panic-path): stale — the unwrap is gone
            fn f() {}
        ";
        let (findings, _) = judge(src, &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].lint, LINT);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("no longer suppresses"));
    }

    #[test]
    fn wrong_lint_or_wrong_line_does_not_count_as_used() {
        let src = "
            // analyze:allow(panic-path): stale
            fn f() {}
        ";
        // Same line, different lint.
        let (findings, _) = judge(src, &[waived_at(2, "raw-sync")]);
        assert_eq!(findings.len(), 1);
        // Right lint, line out of reach (markers cover L and L+1).
        let (findings, _) = judge(src, &[waived_at(4, "panic-path")]);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn unknown_lint_names_are_flagged() {
        let src = "
            // analyze:allow(panick-path): typo never suppressed anything
            fn f() {}
        ";
        let (findings, _) = judge(src, &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("unknown lint `panick-path`"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn meta_waiver_keeps_a_marker_and_is_itself_accounted_for() {
        let src = "
            // analyze:allow(unused-waiver): kept as the doc example for waiver syntax
            // analyze:allow(panic-path): illustrative only
            fn f() {}
        ";
        let (findings, waived) = judge(src, &[]);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(waived.len(), 1);
        assert_eq!(waived[0].lint, LINT);
        assert!(waived[0].justification.contains("doc example"));
    }

    #[test]
    fn a_dangling_meta_waiver_fires_unconditionally() {
        let src = "
            // analyze:allow(unused-waiver): nothing underneath anymore
            fn f() {}
        ";
        let (findings, _) = judge(src, &[]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(
            findings[0].message.contains("meta-waiver"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn doc_prose_about_waiver_syntax_is_not_a_marker() {
        let src = "
            //! Waive with `// analyze:allow(panic-path): why`.
            //! The general form is analyze:allow(<lint>): justification.
            fn f() {}
        ";
        let (findings, _) = judge(src, &[]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn several_markers_on_one_line_are_judged_separately() {
        let src = "
            // analyze:allow(panic-path): a  analyze:allow(raw-sync): b
            fn f() {}
        ";
        let (findings, _) = judge(src, &[waived_at(2, "panic-path")]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("`raw-sync`"));
    }
}
