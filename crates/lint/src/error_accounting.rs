//! The error-accounting pass: every `ErrorCode` variant declared in
//! `crates/wire/src/envelope.rs` must have a per-code counter increment
//! site in `crates/service/src` — concretely, a fully-qualified
//! `ErrorCode::Variant` inside the argument list of a call to
//! `record_error`, `error_reply` or `error_response` (the three funnels
//! that feed `Metrics::errors_by_code`). A new error code that ships
//! without an accounting site would be invisible in the deep stats, and
//! operators debug what they can see.
//!
//! Findings anchor at the variant's declaration line in `envelope.rs`,
//! because the fix usually lands with the variant. Trees with no service
//! sources skip the pass.

use std::collections::BTreeSet;

use crate::scan::SourceFile;
use crate::Finding;

/// The pass name, as used in findings and `lint:allow`.
pub const PASS: &str = "error-accounting";

/// The service-side funnels whose argument lists count as accounting
/// evidence; all three record into `Metrics::errors_by_code`.
const COUNTING_FNS: [&str; 3] = ["record_error", "error_reply", "error_response"];

/// Runs the pass: `ErrorCode` variants come from the wire `envelope.rs`,
/// evidence from the vaq-service sources.
pub fn run(envelope: &SourceFile, service: &[&SourceFile]) -> Vec<Finding> {
    if service.is_empty() {
        return Vec::new();
    }
    let variants = enum_variants(envelope, "ErrorCode");
    if variants.is_empty() {
        return Vec::new();
    }
    let mut counted: BTreeSet<String> = BTreeSet::new();
    for file in service {
        collect_counted(file, &mut counted);
    }
    variants
        .into_iter()
        .filter(|(variant, _)| !counted.contains(variant))
        .map(|(variant, line)| Finding {
            pass: PASS,
            file: envelope.path.clone(),
            line,
            message: format!(
                "`ErrorCode::{variant}` has no per-code counter increment site in \
                 crates/service/src; pass it through record_error / error_reply / \
                 error_response so the deep stats account for it"
            ),
        })
        .collect()
}

/// The variants of `enum <name> { … }`: identifiers at the enum's own brace
/// depth, outside parens/brackets, directly after `{`, `,` or an
/// attribute's `]`.
fn enum_variants(file: &SourceFile, name: &str) -> Vec<(String, u32)> {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if tokens[i].text != "enum"
            || tokens.get(i + 1).map(|t| t.text.as_str()) != Some(name)
            || file.is_masked(tokens[i].line)
        {
            continue;
        }
        let mut j = i + 2;
        while j < tokens.len() && tokens[j].text != "{" {
            j += 1;
        }
        let mut brace = 0i32;
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut prev = "";
        let mut variants = Vec::new();
        while j < tokens.len() {
            let text = tokens[j].text.as_str();
            match text {
                "{" => brace += 1,
                "}" => {
                    brace -= 1;
                    if brace == 0 {
                        return variants;
                    }
                }
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                _ => {
                    let at_variant_position =
                        brace == 1 && paren == 0 && bracket == 0 && matches!(prev, "{" | "," | "]");
                    if at_variant_position
                        && tokens[j].is_ident()
                        && text.chars().next().is_some_and(|c| c.is_uppercase())
                    {
                        variants.push((text.to_string(), tokens[j].line));
                    }
                }
            }
            prev = text;
            j += 1;
        }
        return variants;
    }
    Vec::new()
}

/// Collects every `ErrorCode::X` mentioned inside the balanced argument
/// list of a non-test call to one of the counting funnels.
fn collect_counted(file: &SourceFile, counted: &mut BTreeSet<String>) {
    let tokens = &file.tokens;
    for i in 0..tokens.len() {
        if !COUNTING_FNS.contains(&tokens[i].text.as_str())
            || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("(")
            || file.is_masked(tokens[i].line)
        {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "ErrorCode" if tokens.get(j + 1).map(|t| t.text.as_str()) == Some("::") => {
                    if let Some(variant) = tokens.get(j + 2) {
                        if variant.is_ident() {
                            counted.insert(variant.text.clone());
                        }
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use std::path::Path;

    use super::*;

    fn file(name: &str, source: &str) -> SourceFile {
        SourceFile::from_source(Path::new(name), source)
    }

    const ENVELOPE: &str = concat!(
        "pub enum ErrorCode {\n",
        "    Malformed,\n",
        "    Overloaded,\n",
        "}\n",
    );

    #[test]
    fn an_uncounted_variant_is_flagged_at_its_declaration_line() {
        let envelope = file("crates/wire/src/envelope.rs", ENVELOPE);
        let server = file(
            "crates/service/src/server.rs",
            "fn f(m: &Metrics) { error_reply(m, ErrorCode::Malformed, text()); }\n",
        );
        let findings = run(&envelope, &[&server]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].line, 3);
        assert!(
            findings[0].message.contains("`ErrorCode::Overloaded`"),
            "{findings:?}"
        );
    }

    #[test]
    fn evidence_in_any_counting_funnel_covers_the_variant() {
        let envelope = file("crates/wire/src/envelope.rs", ENVELOPE);
        let server = file(
            "crates/service/src/server.rs",
            concat!(
                "fn f(m: &Metrics) {\n",
                "    m.record_error(ErrorCode::Malformed);\n",
                "    error_response(shared, ErrorCode::Overloaded, text());\n",
                "}\n",
            ),
        );
        assert!(run(&envelope, &[&server]).is_empty());
    }

    #[test]
    fn mentions_outside_a_funnel_call_or_in_tests_do_not_count() {
        let envelope = file("crates/wire/src/envelope.rs", ENVELOPE);
        let server = file(
            "crates/service/src/server.rs",
            concat!(
                "fn f(m: &Metrics) {\n",
                "    let code = ErrorCode::Malformed;\n",
                "    m.record_error(code);\n",
                "}\n",
                "#[test]\n",
                "fn t(m: &Metrics) { m.record_error(ErrorCode::Overloaded); }\n",
            ),
        );
        let findings = run(&envelope, &[&server]);
        assert_eq!(findings.len(), 2, "{findings:?}");
    }

    #[test]
    fn wire_only_trees_skip_the_pass() {
        let envelope = file("crates/wire/src/envelope.rs", ENVELOPE);
        assert!(run(&envelope, &[]).is_empty());
    }
}
