//! `docs/API.md` documents the request grammar the service actually
//! parses: every op's field table there must list exactly the fields of
//! the one request field table — same names, types, defaults and notes.

use samplecf_server::protocol::{Field, FieldDefault, CANDIDATE_FIELDS};
use samplecf_server::RequestKind;

/// One field as a row of an API.md field table.
fn row(field: &Field) -> String {
    format!(
        "| `{}` | {} | {} | {} | {} |",
        field.name,
        field.ty.label(),
        if field.default == FieldDefault::Required {
            "yes"
        } else {
            "no"
        },
        field.default_label(),
        field.doc
    )
}

#[test]
fn api_md_field_tables_match_the_request_field_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/docs/API.md");
    let doc = std::fs::read_to_string(path).expect("docs/API.md is readable");
    for kind in RequestKind::ALL {
        let mut fields = kind.fields().to_vec();
        if kind == RequestKind::Advise {
            fields.extend_from_slice(CANDIDATE_FIELDS);
        }
        if fields.is_empty() {
            continue;
        }
        let heading = format!("### `{}`", kind.name());
        let section = doc
            .split(&heading)
            .nth(1)
            .unwrap_or_else(|| panic!("API.md has no {heading} section"));
        let section = section.split("\n### ").next().unwrap_or(section);
        let documented: Vec<&str> = section.lines().filter(|l| l.starts_with("| `")).collect();
        let expected: Vec<String> = fields.iter().map(row).collect();
        assert_eq!(
            documented,
            expected,
            "the field table(s) under {heading} in docs/API.md disagree with \
             RequestKind::fields(); they should read:\n{}\n",
            expected.join("\n")
        );
    }
}
