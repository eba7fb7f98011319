//! The committed corpora under `tests/golden/`, and the one way a corpus
//! test compares its text against them.
//!
//! A corpus test renders what it pins as text and hands it to [`check`].
//! On a mismatch `check` names the first differing line and the section it
//! falls under, writes the actual text under the cargo target tmpdir, and
//! fails.  Only a run with `SAMPLECF_BLESS=1` in its environment rewrites
//! the committed file instead:
//!
//! ```text
//! SAMPLECF_BLESS=1 cargo test --test draw_corpus --test measure_corpus
//! ```
//!
//! A change that blesses says in its description which lines moved and why.

use std::path::Path;

/// `None` when equal; otherwise the first differing line (1-based), the
/// header it falls under — the last line before it that starts with one of
/// `headers` — and both sides of it.
pub fn first_difference(expected: &str, actual: &str, headers: &[&str]) -> Option<String> {
    let mut expected_lines = expected.lines();
    let mut actual_lines = actual.lines();
    let mut header = "(before the first header)";
    for line_no in 1.. {
        let (want, got) = (expected_lines.next(), actual_lines.next());
        if want.is_none() && got.is_none() {
            return None;
        }
        if want != got {
            let clip = |line: Option<&str>| match line {
                None => "<end of text>".to_string(),
                Some(line) => line.chars().take(200).collect(),
            };
            return Some(format!(
                "line {line_no}, in `{header}`:\n  expected: {}\n  actual:   {}",
                clip(want),
                clip(got)
            ));
        }
        if let Some(line) = got.filter(|line| headers.iter().any(|h| line.starts_with(h))) {
            header = line;
        }
    }
    unreachable!()
}

/// Compare `actual` with the committed `tests/golden/<name>`, failing on
/// the first difference — or, under `SAMPLECF_BLESS=1`, rewriting the
/// committed file with `actual`.
pub fn check(name: &str, actual: &str, headers: &[&str]) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    let Some(diff) = first_difference(&expected, actual, headers) else {
        return;
    };
    if std::env::var_os("SAMPLECF_BLESS").is_some_and(|v| v == "1") {
        std::fs::write(&golden, actual).unwrap();
        eprintln!("blessed {}, first change at {diff}", golden.display());
        return;
    }
    let written = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&written, actual).unwrap();
    panic!(
        "{} differs, {diff}\nactual text written to {}; rerun with SAMPLECF_BLESS=1 to accept it",
        golden.display(),
        written.display()
    );
}
