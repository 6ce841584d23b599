//! Per-file context analysis on top of the lexer: enclosing-function
//! attribution, `#[cfg(test)]` / `#[test]` region tracking, and the
//! `// lint:allow(rule): justification` escape hatch.

use crate::lexer::{scan_source, LineView};
use std::collections::{BTreeMap, BTreeSet};

/// The names of the functions every scanned file defines, by repo-relative
/// path: what a rule's list of files and functions is checked against.
pub type Defined = BTreeMap<String, BTreeSet<String>>;

/// A lint finding: machine-readable, deterministic, sortable.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Stable rule identifier (e.g. `charge-taint`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// An inline suppression parsed from `// lint:allow(rule-a, rule-b): why`.
#[derive(Debug, Clone)]
struct Allow {
    rules: Vec<String>,
    /// The 1-based line the suppression applies to (the directive's own line
    /// for trailing comments, the next code line for standalone comments).
    target: usize,
}

/// A scanned file plus everything the rules need to interrogate it.
pub struct FileScan {
    /// Repo-relative path (forward slashes).
    pub rel_path: String,
    /// Line views from the lexer.
    pub lines: Vec<LineView>,
    /// Innermost enclosing function name per line (empty when at item level).
    pub enclosing_fn: Vec<String>,
    /// Whether each line sits inside test code (`#[cfg(test)]` region,
    /// `#[test]` function, or a file under a `tests/` directory).
    pub in_test: Vec<bool>,
    allows: Vec<Allow>,
    /// Findings raised by the scan itself (malformed allow directives).
    pub scan_findings: Vec<Finding>,
}

#[derive(Debug)]
enum Frame {
    Fn(String, u32),
    Test(u32),
}

fn tokenize(code: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for c in code.chars() {
        if c.is_alphanumeric() || c == '_' {
            cur.push(c);
        } else {
            if !cur.is_empty() {
                out.push(std::mem::take(&mut cur));
            }
            if !c.is_whitespace() {
                out.push(c.to_string());
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

impl FileScan {
    /// Scan `src` as the file at `rel_path`.  `force_test` marks the whole
    /// file as test code (integration tests under `tests/`).
    #[must_use]
    pub fn new(rel_path: &str, src: &str, force_test: bool) -> Self {
        let lines = scan_source(src);
        let mut enclosing_fn = Vec::with_capacity(lines.len());
        let mut in_test = Vec::with_capacity(lines.len());
        let mut frames: Vec<Frame> = Vec::new();
        let mut depth: u32 = 0;
        let mut pending_fn: Option<String> = None;
        let mut pending_test = false;

        for line in &lines {
            let code = &line.code;
            if code.contains("#[cfg(test")
                || code.contains("#[test]")
                || code.contains("#[cfg(all(test")
            {
                pending_test = true;
            }
            let innermost_fn = |frames: &[Frame]| {
                frames
                    .iter()
                    .rev()
                    .find_map(|f| match f {
                        Frame::Fn(name, _) => Some(name.clone()),
                        Frame::Test(_) => None,
                    })
                    .unwrap_or_default()
            };
            let mut line_fn = innermost_fn(&frames);
            let mut line_test =
                force_test || pending_test || frames.iter().any(|f| matches!(f, Frame::Test(_)));

            let toks = tokenize(code);
            let mut t = 0;
            while t < toks.len() {
                match toks[t].as_str() {
                    "fn" => {
                        if let Some(name) = toks.get(t + 1) {
                            if name
                                .chars()
                                .next()
                                .is_some_and(|c| c.is_alphabetic() || c == '_')
                            {
                                pending_fn = Some(name.clone());
                            }
                        }
                    }
                    "{" => {
                        depth += 1;
                        if pending_test {
                            frames.push(Frame::Test(depth));
                            pending_test = false;
                            pending_fn = None;
                            line_test = true;
                        } else if let Some(name) = pending_fn.take() {
                            line_fn.clone_from(&name);
                            frames.push(Frame::Fn(name, depth));
                        }
                    }
                    "}" => {
                        frames.retain(|f| match f {
                            Frame::Fn(_, d) | Frame::Test(d) => *d != depth,
                        });
                        depth = depth.saturating_sub(1);
                    }
                    ";" => {
                        // A semicolon before any `{` ends a declaration-only
                        // item (`fn f();` in traits, `#[cfg(test)] use x;`).
                        pending_fn = None;
                        pending_test = false;
                    }
                    _ => {}
                }
                t += 1;
            }
            enclosing_fn.push(line_fn);
            in_test.push(line_test);
        }

        let (allows, scan_findings) = parse_allows(rel_path, &lines);
        FileScan {
            rel_path: rel_path.to_string(),
            lines,
            enclosing_fn,
            in_test,
            allows,
            scan_findings,
        }
    }

    /// True when findings of `rule` at 1-based `line` are suppressed by an
    /// adjacent justified `lint:allow` directive.
    #[must_use]
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.target == line && a.rules.iter().any(|r| r == rule))
    }

    /// Enclosing function name for a 0-based line index.
    #[must_use]
    pub fn fn_at(&self, idx: usize) -> &str {
        self.enclosing_fn.get(idx).map_or("", |s| s.as_str())
    }

    /// The names of the functions this file defines (every function with a
    /// body, nested and test functions included).
    #[must_use]
    pub fn defined_fns(&self) -> BTreeSet<String> {
        self.enclosing_fn
            .iter()
            .filter(|f| !f.is_empty())
            .cloned()
            .collect()
    }
}

/// Findings for the entries of a rule's `list` (named in the messages) that
/// name no scanned file, or a function their file does not define.  Each
/// entry is a (path suffix, function name) pair; `"*"` names the whole
/// file.  A deleted or renamed module would otherwise drop out of the rule
/// without notice.
#[must_use]
pub(crate) fn stale_entries(
    rule: &'static str,
    list: &str,
    entries: &[(&str, &str)],
    defined: &Defined,
) -> Vec<Finding> {
    let mut out = Vec::new();
    for &(file, func) in entries {
        let fns: Vec<&BTreeSet<String>> = defined
            .iter()
            .filter(|(path, _)| path.ends_with(file))
            .map(|(_, fns)| fns)
            .collect();
        let message = if fns.is_empty() {
            format!("`{list}` names this file, but no scanned file has this path")
        } else if func != "*" && !fns.iter().any(|f| f.contains(func)) {
            format!("`{list}` names function `{func}`, which this file does not define")
        } else {
            continue;
        };
        out.push(Finding {
            file: file.to_string(),
            line: 0,
            rule,
            message: format!("{message} — update the entry in the `{rule}` rule"),
        });
    }
    out
}

/// Parse every `lint:allow(...)` directive in the file.  Directives must
/// carry a justification (`lint:allow(rule): because …`); a bare directive is
/// itself a finding — the escape hatch is for *documented* exceptions.
fn parse_allows(rel_path: &str, lines: &[LineView]) -> (Vec<Allow>, Vec<Finding>) {
    let mut allows = Vec::new();
    let mut findings = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        // Only a comment that *is* a directive counts — `lint:allow` must
        // open the comment text.  Prose that merely mentions the directive
        // mid-sentence (docs, rule messages) is not a suppression.
        let Some(rest) = line.comment.trim_start().strip_prefix("lint:allow") else {
            continue;
        };
        let parsed = rest.strip_prefix('(').and_then(|r| {
            let close = r.find(')')?;
            let rules: Vec<String> = r[..close]
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            let after = r[close + 1..].trim_start();
            let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
            Some((rules, justification.to_string()))
        });
        let line_no = idx + 1;
        match parsed {
            Some((rules, justification)) if !rules.is_empty() && !justification.is_empty() => {
                // A standalone comment line suppresses the next code line;
                // a trailing comment suppresses its own line.
                let target = if line.is_code_blank() {
                    lines[idx + 1..]
                        .iter()
                        .position(|l| !l.is_code_blank())
                        .map_or(line_no, |off| line_no + 1 + off)
                } else {
                    line_no
                };
                allows.push(Allow { rules, target });
            }
            _ => findings.push(Finding {
                file: rel_path.to_string(),
                line: line_no,
                rule: "lint-allow",
                message: "malformed lint:allow — use \
                          `lint:allow(rule-id): justification` with a \
                          non-empty justification"
                    .to_string(),
            }),
        }
    }
    (allows, findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enclosing_fn_tracks_nesting() {
        let src = "fn outer() {\n    let x = 1;\n    fn inner() {\n        body();\n    }\n    tail();\n}\ntop();\n";
        let s = FileScan::new("t.rs", src, false);
        assert_eq!(s.fn_at(1), "outer");
        assert_eq!(s.fn_at(3), "inner");
        assert_eq!(s.fn_at(5), "outer");
        assert_eq!(s.fn_at(7), "");
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn live() { a(); }\n#[cfg(test)]\nmod tests {\n    fn helper() { b(); }\n}\nfn live2() { c(); }\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(!s.in_test[0]);
        assert!(s.in_test[1]);
        assert!(s.in_test[3]);
        assert!(!s.in_test[5]);
    }

    #[test]
    fn test_attr_on_fn_marks_its_body() {
        let src = "#[test]\nfn check() {\n    x();\n}\nfn live() { y(); }\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(s.in_test[2]);
        assert!(!s.in_test[4]);
    }

    #[test]
    fn cfg_test_on_use_does_not_leak() {
        let src = "#[cfg(test)]\nuse helper::x;\nfn live() {\n    y();\n}\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(!s.in_test[3], "the `;` must clear the pending test attr");
    }

    #[test]
    fn allow_directive_targets_next_code_line() {
        let src = "// lint:allow(demo-rule): baseline engine allocates by design\nlet v = vec![];\nlet w = vec![];\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(s.allowed("demo-rule", 2));
        assert!(!s.allowed("demo-rule", 3));
        assert!(s.scan_findings.is_empty());
    }

    #[test]
    fn trailing_allow_targets_own_line() {
        let src = "let v = vec![]; // lint:allow(demo-rule): warm-up only\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(s.allowed("demo-rule", 1));
    }

    #[test]
    fn allow_without_justification_is_a_finding() {
        let src = "// lint:allow(demo-rule)\nlet v = vec![];\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(!s.allowed("demo-rule", 2));
        assert_eq!(s.scan_findings.len(), 1);
        assert_eq!(s.scan_findings[0].rule, "lint-allow");
    }

    #[test]
    fn multi_rule_allow() {
        let src = "// lint:allow(rule-a, rule-b): shared justification\ncall();\n";
        let s = FileScan::new("t.rs", src, false);
        assert!(s.allowed("rule-a", 2));
        assert!(s.allowed("rule-b", 2));
    }
}
