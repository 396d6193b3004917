//! A small hand-rolled Rust lexer — just enough syntax awareness for the
//! rule engine: comments (line, nested block, doc), string literals
//! (cooked, raw, byte), char literals vs lifetimes, identifiers, numbers
//! and single-character punctuation, each tagged with its 1-based source
//! line. No external parser: the vendored-deps-only build cannot pull in
//! `syn`, and the rules only need token-level structure plus brace
//! tracking.

use std::collections::{BTreeMap, BTreeSet};

/// One lexical token of the source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident(String),
    /// Any string literal (cooked, raw or byte); contents discarded so
    /// string text can never trip a token-pattern rule.
    Str,
    /// Character literal.
    Char,
    /// Lifetime such as `'a`.
    Lifetime,
    /// Numeric literal (integer or float, any base, with suffix).
    Num,
    /// A single punctuation character.
    Punct(char),
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token kind and payload.
    pub kind: TokKind,
    /// 1-based source line of the token's first character.
    pub line: usize,
}

/// The lexed view of one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order (comments and whitespace stripped).
    pub tokens: Vec<Token>,
    /// Comment text per line, concatenated when a line holds several
    /// pieces. Text keeps its delimiters (`//`, `///`, `/*`…) so rules can
    /// tell doc comments from plain ones.
    pub comments: BTreeMap<usize, String>,
    /// Lines carrying at least one code token.
    pub code_lines: BTreeSet<usize>,
}

impl Lexed {
    /// True when `line` holds comment text and no code tokens.
    pub fn is_comment_only(&self, line: usize) -> bool {
        self.comments.contains_key(&line) && !self.code_lines.contains(&line)
    }

    /// Comment text on `line`, empty when there is none.
    pub fn comment_on(&self, line: usize) -> &str {
        self.comments.get(&line).map(String::as_str).unwrap_or("")
    }
}

/// Lex `src` into tokens and a per-line comment map.
pub fn lex(src: &str) -> Lexed {
    let bytes = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1usize;

    let push = |out: &mut Lexed, kind: TokKind, line: usize| {
        out.code_lines.insert(line);
        out.tokens.push(Token { kind, line });
    };
    let note_comment = |out: &mut Lexed, line: usize, text: &str| {
        let slot = out.comments.entry(line).or_default();
        if !slot.is_empty() {
            slot.push(' ');
        }
        slot.push_str(text);
    };

    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
                note_comment(&mut out, line, src[start..i].trim_end());
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                // Nested block comment; record the text each line carries.
                let mut depth = 1usize;
                let mut seg_start = i;
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else if bytes[i] == b'\n' {
                        note_comment(&mut out, line, src[seg_start..i].trim());
                        line += 1;
                        i += 1;
                        seg_start = i;
                    } else {
                        i += 1;
                    }
                }
                if seg_start < i {
                    note_comment(&mut out, line, src[seg_start..i].trim());
                }
            }
            b'"' => {
                let tok_line = line;
                i = skip_cooked_string(bytes, i, &mut line);
                push(&mut out, TokKind::Str, tok_line);
            }
            b'\'' => {
                let tok_line = line;
                // Lifetime (`'a`) vs char literal (`'x'`, `'\n'`, `'\u{..}'`).
                let next = bytes.get(i + 1).copied();
                let is_lifetime = match next {
                    Some(n) if n == b'_' || n.is_ascii_alphabetic() => {
                        // `'a'` is a char; `'a` followed by non-quote is a
                        // lifetime. Multi-byte idents (`'static`) always are.
                        bytes.get(i + 2) != Some(&b'\'')
                    }
                    _ => false,
                };
                if is_lifetime {
                    i += 1;
                    while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                    {
                        i += 1;
                    }
                    push(&mut out, TokKind::Lifetime, tok_line);
                } else {
                    i = skip_char_literal(bytes, i, &mut line);
                    push(&mut out, TokKind::Char, tok_line);
                }
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let tok_line = line;
                let start = i;
                while i < bytes.len() && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                let ident = &src[start..i];
                // String-literal prefixes: r"", r#""#, b"", b'', br#"..."#…
                // (`rb` is not a Rust prefix but costs nothing to accept.)
                let raw_capable = matches!(ident, "r" | "br" | "rb");
                if matches!(ident, "r" | "b" | "br" | "rb") && bytes.get(i) == Some(&b'"') {
                    // Zero-hash literal. Raw forms (`r"…"`) have no escapes
                    // and end at the first quote — routing them through the
                    // cooked scanner would mis-scan `r"…\"` — while `b"…"`
                    // escapes exactly like a cooked string.
                    i = if raw_capable {
                        skip_raw_string(bytes, i, 0, &mut line)
                    } else {
                        skip_cooked_string(bytes, i, &mut line)
                    };
                    push(&mut out, TokKind::Str, tok_line);
                } else if ident == "b" && bytes.get(i) == Some(&b'\'') {
                    // Byte char literal `b'x'` / `b'\n'`: one Char token, no
                    // stray `b` identifier.
                    i = skip_char_literal(bytes, i, &mut line);
                    push(&mut out, TokKind::Char, tok_line);
                } else if raw_capable && bytes.get(i) == Some(&b'#') {
                    let mut hashes = 0usize;
                    while bytes.get(i + hashes) == Some(&b'#') {
                        hashes += 1;
                    }
                    if bytes.get(i + hashes) == Some(&b'"') {
                        i = skip_raw_string(bytes, i + hashes, hashes, &mut line);
                        push(&mut out, TokKind::Str, tok_line);
                    } else if ident == "r" {
                        // Raw identifier `r#ident`. The payload keeps the
                        // `r#` prefix: `r#type` is *not* the `type` keyword
                        // and must never satisfy a keyword match, nor can
                        // `r#fn` be confused with the `fn` the item tree
                        // patterns on.
                        i += 1; // consume '#'
                        let id_start = i;
                        while i < bytes.len()
                            && (bytes[i] == b'_' || bytes[i].is_ascii_alphanumeric())
                        {
                            i += 1;
                        }
                        push(
                            &mut out,
                            TokKind::Ident(format!("r#{}", &src[id_start..i])),
                            tok_line,
                        );
                    } else {
                        push(&mut out, TokKind::Ident(ident.to_string()), tok_line);
                    }
                } else {
                    push(&mut out, TokKind::Ident(ident.to_string()), tok_line);
                }
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                i += 1;
                while i < bytes.len() {
                    let b = bytes[i];
                    if b == b'_' || b.is_ascii_alphanumeric() {
                        i += 1;
                    } else if b == b'.'
                        && bytes
                            .get(i + 1)
                            .map(|n| n.is_ascii_digit())
                            .unwrap_or(false)
                    {
                        // `1.5` continues the number; `1..n` and `1.max()`
                        // leave the dot to punctuation.
                        i += 1;
                    } else {
                        break;
                    }
                }
                push(&mut out, TokKind::Num, tok_line);
            }
            c => {
                push(&mut out, TokKind::Punct(c as char), line);
                i += 1;
            }
        }
    }
    out
}

/// Skip a cooked (escaped) string starting at the opening quote; returns
/// the index one past the closing quote.
fn skip_cooked_string(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    while i < bytes.len() {
        match bytes[i] {
            b'\\' => i += 2,
            b'"' => return i + 1,
            b'\n' => {
                *line += 1;
                i += 1;
            }
            _ => i += 1,
        }
    }
    i
}

/// Skip a raw string `"..."###` with `hashes` trailing hashes (zero for
/// `r"…"`); `i` is the opening quote. Raw strings have no escapes: the
/// literal ends at the first quote followed by `hashes` hashes.
fn skip_raw_string(bytes: &[u8], mut i: usize, hashes: usize, line: &mut usize) -> usize {
    i += 1;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            *line += 1;
            i += 1;
            continue;
        }
        if bytes[i] == b'"' {
            let mut ok = true;
            for h in 0..hashes {
                if bytes.get(i + 1 + h) != Some(&b'#') {
                    ok = false;
                    break;
                }
            }
            if ok {
                return i + 1 + hashes;
            }
        }
        i += 1;
    }
    i
}

/// Skip a char literal starting at the opening quote.
fn skip_char_literal(bytes: &[u8], mut i: usize, line: &mut usize) -> usize {
    i += 1; // opening quote
    if bytes.get(i) == Some(&b'\\') {
        i += 2; // escape lead-in plus escaped char
                // `\u{...}` spans to the closing brace.
        while i < bytes.len() && bytes[i] != b'\'' {
            i += 1;
        }
        return (i + 1).min(bytes.len());
    }
    while i < bytes.len() && bytes[i] != b'\'' {
        if bytes[i] == b'\n' {
            *line += 1;
        }
        i += 1;
    }
    (i + 1).min(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn comments_are_not_tokens() {
        let l = lex("let x = 1; // unwrap() here is text\n/* expect( */ let y;\n");
        assert!(idents("let x = 1; // unwrap()").contains(&"let".to_string()));
        assert!(l.comments.get(&1).is_some_and(|c| c.contains("unwrap")));
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unwrap" || s == "expect")));
    }

    #[test]
    fn strings_hide_their_contents() {
        let l = lex(r##"let s = "call .unwrap() now"; let r = r#"panic!"#; "##);
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unwrap" || s == "panic")));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokKind::Str))
                .count(),
            2
        );
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) -> char { 'x' }");
        let lifetimes = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Lifetime))
            .count();
        let chars = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Char))
            .count();
        assert_eq!((lifetimes, chars), (2, 1));
    }

    #[test]
    fn nested_block_comments_and_lines() {
        let l = lex("a /* outer /* inner */ still */ b\nc\n");
        assert_eq!(idents("a /* x */ b"), vec!["a", "b"]);
        assert_eq!(l.tokens.len(), 3);
        assert_eq!(l.tokens[1].line, 1);
        let c = lex("x\n/* spans\ntwo lines */\ny\n");
        assert_eq!(c.tokens[1].line, 4);
        assert!(c.comments.contains_key(&2) && c.comments.contains_key(&3));
    }

    #[test]
    fn numbers_do_not_swallow_ranges_or_methods() {
        let l = lex("for i in 0..n { 1.max(2); 1.5f32; }");
        let nums = l
            .tokens
            .iter()
            .filter(|t| matches!(t.kind, TokKind::Num))
            .count();
        assert_eq!(nums, 4); // 0, 1, 2, 1.5f32
        assert!(idents("1.max(2)").contains(&"max".to_string()));
    }

    #[test]
    fn raw_identifiers_keep_their_prefix() {
        // `r#type` must not satisfy a `type` keyword match, and `r#unwrap`
        // must not look like a bare `unwrap` identifier.
        let l = lex("pub r#type: u32, let r#fn = x.r#unwrap();");
        assert!(idents("let r#fn = 1;").contains(&"r#fn".to_string()));
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "type"
                || s == "fn"
                || s == "unwrap")));
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "r#type")));
    }

    #[test]
    fn byte_and_raw_byte_strings_hide_their_contents() {
        let l = lex(r###"let a = b"call unwrap() now"; let b = br#"panic! expect("#; "###);
        assert!(!l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unwrap"
                || s == "panic"
                || s == "expect")));
        assert_eq!(
            l.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokKind::Str))
                .count(),
            2
        );
    }

    #[test]
    fn zero_hash_raw_strings_do_not_escape() {
        // `r"…\"` ends at the quote: the backslash is a literal character,
        // not an escape. The cooked scanner would swallow the closing quote
        // and mis-lex everything after it.
        let l = lex(r#"let p = r"C:\"; x.unwrap();"#);
        assert!(l
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "unwrap")));
        let m = lex("let nl = b'\\n'; let c = b'x';");
        assert_eq!(
            m.tokens
                .iter()
                .filter(|t| matches!(t.kind, TokKind::Char))
                .count(),
            2
        );
        assert!(!m
            .tokens
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Ident(s) if s == "b")));
    }

    #[test]
    fn line_numbers_survive_multiline_strings() {
        let l = lex("let s = \"line one\nline two\";\nlet t = 1;");
        let last = l.tokens.last().expect("tokens");
        assert_eq!(last.line, 3);
    }
}
