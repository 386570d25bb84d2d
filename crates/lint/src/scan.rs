//! Lexical front-end for the lint passes: comment/string stripping,
//! `lint:allow` annotation parsing, tokenisation and `#[cfg(test)]` masking.
//!
//! The scanner is deliberately **not** a Rust parser. It works on a token
//! stream plus brace depth, which is all the workspace passes need,
//! and keeps the crate std-only with no rustc internals. Stripping is
//! length- and line-preserving (comments and literal bodies are blanked,
//! not removed), so every token keeps its real source line.

use std::path::{Path, PathBuf};

/// The pass names a `// lint:allow(<pass>, <reason>)` annotation may name.
pub const PASSES: [&str; 3] = ["panic-path", "epoch-discipline", "error-accounting"];

/// Two-character punctuation tokens, matched with maximal munch.
const TWO_CHAR: [&str; 14] = [
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "..", "<<", ">>",
];

/// One lexical token: an identifier/number run or a (one- or two-character)
/// punctuation symbol, with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// The token text.
    pub text: String,
    /// The 1-based source line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this token is an identifier (or number) run rather than
    /// punctuation.
    pub fn is_ident(&self) -> bool {
        self.text
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_')
    }
}

/// A parsed, well-formed `lint:allow` annotation.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The pass the annotation silences.
    pub pass: String,
    /// The line the annotation sits on. It applies to findings on this line
    /// and the line directly below it.
    pub line: u32,
}

/// One scanned source file, ready for the passes to walk.
#[derive(Debug)]
pub struct SourceFile {
    /// The path the file was read from.
    pub path: PathBuf,
    /// The token stream of the stripped source.
    pub tokens: Vec<Token>,
    /// Well-formed allow annotations found in comments.
    pub allows: Vec<Allow>,
    /// Malformed allow annotations: `(line, what is wrong)`. These become
    /// findings of their own and never suppress anything.
    pub malformed_allows: Vec<(u32, String)>,
    /// Per-line flag: `true` when the line belongs to `#[cfg(test)]` /
    /// `#[test]` code (index 0 unused; lines are 1-based).
    masked: Vec<bool>,
}

impl SourceFile {
    /// Reads and scans `path`.
    pub fn read(path: &Path) -> std::io::Result<SourceFile> {
        let source = std::fs::read_to_string(path)?;
        Ok(SourceFile::from_source(path, &source))
    }

    /// Scans an in-memory source (exposed for the self-tests).
    pub fn from_source(path: &Path, source: &str) -> SourceFile {
        let (stripped, comments) = strip(source);
        let (allows, malformed_allows) = parse_allows(&comments);
        let tokens = tokenize(&stripped);
        let line_count = source.lines().count() as u32;
        let masked = masked_lines(&tokens, line_count);
        SourceFile {
            path: path.to_path_buf(),
            tokens,
            allows,
            malformed_allows,
            masked,
        }
    }

    /// Whether `line` belongs to test-only (`#[cfg(test)]` / `#[test]`) code.
    pub fn is_masked(&self, line: u32) -> bool {
        self.masked.get(line as usize).copied().unwrap_or(false)
    }

    /// The file's name (final path component), used for per-file pass scoping.
    pub fn file_name(&self) -> &str {
        self.path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
    }
}

/// Blanks comments and string/char literals (preserving length and
/// newlines) and collects comment bodies with their start lines, so allow
/// annotations can be parsed from exactly the commented text.
fn strip(source: &str) -> (String, Vec<(u32, String)>) {
    let chars: Vec<char> = source.chars().collect();
    let mut out = String::with_capacity(source.len());
    let mut comments = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            out.push('\n');
            line += 1;
            i += 1;
            continue;
        }
        // Line comment (also covers `///` and `//!` doc comments).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            let start = line;
            let mut text = String::new();
            while i < chars.len() && chars[i] != '\n' {
                text.push(chars[i]);
                out.push(' ');
                i += 1;
            }
            comments.push((start, text));
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let start = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < chars.len() {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    text.push_str("*/");
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else if chars[i] == '\n' {
                    text.push('\n');
                    out.push('\n');
                    line += 1;
                    i += 1;
                } else {
                    text.push(chars[i]);
                    out.push(' ');
                    i += 1;
                }
            }
            comments.push((start, text));
            continue;
        }
        let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
        // Raw (and raw byte) strings: `r"…"`, `r#"…"#`, `br##"…"##`, …
        if !prev_is_ident && (c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r'))) {
            let after_prefix = if c == 'b' { i + 2 } else { i + 1 };
            let mut hashes = 0usize;
            while chars.get(after_prefix + hashes) == Some(&'#') {
                hashes += 1;
            }
            if chars.get(after_prefix + hashes) == Some(&'"') {
                // Blank the prefix and opening quote.
                for _ in i..=(after_prefix + hashes) {
                    out.push(' ');
                }
                i = after_prefix + hashes + 1;
                // Blank the body until `"` followed by `hashes` hashes.
                while i < chars.len() {
                    if chars[i] == '"'
                        && chars[i + 1..].iter().take_while(|&&h| h == '#').count() >= hashes
                    {
                        for _ in 0..=hashes {
                            out.push(' ');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    if chars[i] == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 1;
                }
                continue;
            }
        }
        // Byte string `b"…"` shares the plain-string scanner below.
        let string_start = if c == '"' {
            Some(i)
        } else if !prev_is_ident && c == 'b' && chars.get(i + 1) == Some(&'"') {
            out.push(' ');
            i += 1;
            Some(i)
        } else {
            None
        };
        if let Some(start) = string_start {
            debug_assert_eq!(chars[start], '"');
            out.push(' ');
            i += 1;
            while i < chars.len() {
                if chars[i] == '\\' && i + 1 < chars.len() {
                    out.push(' ');
                    if chars[i + 1] == '\n' {
                        out.push('\n');
                        line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                    continue;
                }
                if chars[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                }
                if chars[i] == '\n' {
                    out.push('\n');
                    line += 1;
                } else {
                    out.push(' ');
                }
                i += 1;
            }
            continue;
        }
        // Char literal vs lifetime: `'x'` / `'\n'` are literals, `'a` in
        // `&'a str` is a lifetime and passes through as punctuation.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped literal: skip the escaped char, then blank to the
                // closing quote.
                out.push_str("   ");
                i += 3;
                while i < chars.len() && chars[i] != '\'' {
                    out.push(' ');
                    i += 1;
                }
                if i < chars.len() {
                    out.push(' ');
                    i += 1;
                }
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                out.push_str("   ");
                i += 3;
                continue;
            }
        }
        out.push(c);
        i += 1;
    }
    (out, comments)
}

/// Parses `lint:allow(pass, reason)` annotations out of comment bodies.
///
/// An allow must name a known pass **and** carry a non-empty reason;
/// anything else is reported as malformed and suppresses nothing.
fn parse_allows(comments: &[(u32, String)]) -> (Vec<Allow>, Vec<(u32, String)>) {
    const MARKER: &str = "lint:allow";
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for (start_line, text) in comments {
        let mut search = 0usize;
        while let Some(found) = text[search..].find(MARKER) {
            let at = search + found;
            let line = start_line + text[..at].matches('\n').count() as u32;
            let rest = &text[at + MARKER.len()..];
            search = at + MARKER.len();
            let Some(body) = rest
                .strip_prefix('(')
                .and_then(|r| r.find(')').map(|close| &r[..close]))
            else {
                malformed.push((
                    line,
                    "malformed lint:allow: expected `lint:allow(<pass>, <reason>)`".to_string(),
                ));
                continue;
            };
            let (pass, reason) = match body.split_once(',') {
                Some((pass, reason)) => (pass.trim(), reason.trim()),
                None => (body.trim(), ""),
            };
            if !PASSES.contains(&pass) {
                malformed.push((
                    line,
                    format!(
                        "lint:allow names unknown pass '{pass}' (expected one of: {})",
                        PASSES.join(", ")
                    ),
                ));
            } else if reason.is_empty() {
                malformed.push((
                    line,
                    format!("lint:allow({pass}) is missing a reason; every exemption must say why"),
                ));
            } else {
                allows.push(Allow {
                    pass: pass.to_string(),
                    line,
                });
            }
        }
    }
    (allows, malformed)
}

/// Tokenises stripped source into identifier runs and punctuation.
fn tokenize(stripped: &str) -> Vec<Token> {
    let chars: Vec<char> = stripped.chars().collect();
    let mut tokens = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        if c.is_alphanumeric() || c == '_' {
            let start = i;
            while i < chars.len() && (chars[i].is_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            tokens.push(Token {
                text: chars[start..i].iter().collect(),
                line,
            });
            continue;
        }
        if i + 1 < chars.len() {
            let pair: String = [c, chars[i + 1]].iter().collect();
            if TWO_CHAR.contains(&pair.as_str()) {
                tokens.push(Token { text: pair, line });
                i += 2;
                continue;
            }
        }
        tokens.push(Token {
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    tokens
}

/// Computes the set of lines covered by test-only items: any item (or
/// module) under a `#[test]`-ish attribute — an outer attribute containing
/// the identifier `test` and not `not` (so `#[cfg(not(test))]` stays live).
/// The mask runs from the attribute through the end of the following item
/// (its closing `}`, or `;` for item-less forms).
fn masked_lines(tokens: &[Token], line_count: u32) -> Vec<bool> {
    let mut masked = vec![false; line_count as usize + 2];
    let mut i = 0;
    while i < tokens.len() {
        // Outer attributes only: `#[…]`, not the crate-level `#![…]`.
        if tokens[i].text != "#" || tokens.get(i + 1).map(|t| t.text.as_str()) != Some("[") {
            i += 1;
            continue;
        }
        let (attr_end, is_test) = scan_attribute(tokens, i + 1);
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        let start_line = tokens[i].line;
        // Skip any further attributes stacked on the same item.
        let mut j = attr_end + 1;
        while j + 1 < tokens.len() && tokens[j].text == "#" && tokens[j + 1].text == "[" {
            let (end, _) = scan_attribute(tokens, j + 1);
            j = end + 1;
        }
        // Mask through the item body: to the matching `}` of its first
        // top-level brace, or to a `;` before any brace opens.
        let mut depth = 0i32;
        let mut end_line = start_line;
        while j < tokens.len() {
            end_line = tokens[j].line;
            match tokens[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    j += 1;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        for line in start_line..=end_line {
            if let Some(flag) = masked.get_mut(line as usize) {
                *flag = true;
            }
        }
        i = j;
    }
    masked
}

/// Scans one attribute starting at the `[` token; returns the index of the
/// matching `]` and whether the attribute marks test-only code.
fn scan_attribute(tokens: &[Token], open: usize) -> (usize, bool) {
    let mut depth = 0i32;
    let mut has_test = false;
    let mut has_not = false;
    let mut j = open;
    while j < tokens.len() {
        match tokens[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (j, has_test && !has_not);
                }
            }
            "test" => has_test = true,
            "not" => has_not = true,
            _ => {}
        }
        j += 1;
    }
    (tokens.len().saturating_sub(1), false)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(source: &str) -> SourceFile {
        SourceFile::from_source(Path::new("mem.rs"), source)
    }

    #[test]
    fn strings_comments_and_chars_are_blanked_but_lines_survive() {
        let file = scan(concat!(
            "let a = \"un\\\"wrap()\"; // .unwrap() in comment\n",
            "let b = r#\"panic!()\"#;\n",
            "let c = '\\n'; let lt: &'static str = b\"todo!()\";\n",
            "a.unwrap();\n",
        ));
        let unwraps: Vec<u32> = file
            .tokens
            .iter()
            .filter(|t| t.text == "unwrap")
            .map(|t| t.line)
            .collect();
        assert_eq!(unwraps, vec![4]);
        assert!(!file.tokens.iter().any(|t| t.text == "panic"));
        assert!(!file.tokens.iter().any(|t| t.text == "todo"));
        assert!(file.tokens.iter().any(|t| t.text == "static"));
    }

    #[test]
    fn allow_annotations_parse_with_pass_and_reason() {
        let file = scan(concat!(
            "// lint:allow(panic-path, constant index below a checked bound)\n",
            "x[0].unwrap();\n",
            "// lint:allow(panic-path)\n",
            "// lint:allow(bogus-pass, reason)\n",
        ));
        assert_eq!(file.allows.len(), 1);
        assert_eq!(file.allows[0].pass, "panic-path");
        assert_eq!(file.allows[0].line, 1);
        assert_eq!(file.malformed_allows.len(), 2);
        assert_eq!(file.malformed_allows[0].0, 3);
        assert!(file.malformed_allows[0].1.contains("missing a reason"));
        assert!(file.malformed_allows[1].1.contains("unknown pass"));
    }

    #[test]
    fn retired_pass_names_are_unknown_passes() {
        for pass in ["lock-order", "reactor-discipline", "bounded-queue"] {
            let file = scan(&format!("// lint:allow({pass}, a reason)\n"));
            assert!(file.allows.is_empty(), "{pass}");
            assert_eq!(file.malformed_allows.len(), 1, "{pass}");
            assert!(
                file.malformed_allows[0].1.contains("unknown pass"),
                "{pass}"
            );
        }
    }

    #[test]
    fn cfg_test_items_are_masked_but_cfg_not_test_is_live() {
        let file = scan(concat!(
            "fn live() { x.unwrap(); }\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn helper() { y.unwrap(); }\n",
            "}\n",
            "#[cfg(not(test))]\n",
            "fn also_live() { z.unwrap(); }\n",
            "#[test]\n",
            "fn a_test() { w.unwrap(); }\n",
        ));
        assert!(!file.is_masked(1));
        assert!(file.is_masked(2));
        assert!(file.is_masked(4));
        assert!(file.is_masked(5));
        assert!(!file.is_masked(6));
        assert!(!file.is_masked(7));
        assert!(file.is_masked(9));
    }

    #[test]
    fn two_char_punctuation_is_munched() {
        let file = scan("a..b; e::f; g->h; i=>j; k<=l;\n");
        let texts: Vec<&str> = file.tokens.iter().map(|t| t.text.as_str()).collect();
        for expected in ["..", "::", "->", "=>", "<="] {
            assert!(texts.contains(&expected), "missing {expected} in {texts:?}");
        }
    }
}
