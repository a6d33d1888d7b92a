//! A minimal, dependency-free Rust lexer.
//!
//! The lint rules in this crate operate on token streams, not source
//! text, so occurrences inside string literals, doc comments and
//! regular comments never trigger findings. The build environment has
//! no registry access (see `vendor/README.md`), so instead of `syn`
//! this is a small hand-rolled lexer that understands exactly as much
//! Rust as the rules need: identifiers, punctuation, lifetimes, and
//! every literal form that can hide a `"` or `'` (strings, raw
//! strings, byte/C strings, char literals), plus nested block
//! comments.

/// What kind of token a [`Tok`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// A single punctuation character.
    Punct,
    /// Any literal (string, raw string, char, number).
    Lit,
    /// A lifetime such as `'a` (distinct from a char literal).
    Lifetime,
}

/// One lexed token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    /// Token class.
    pub kind: TokKind,
    /// Source text of the token (for `Punct`, a single character).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// `true` when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }

    /// `true` when this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }
}

/// The result of lexing one file: code tokens plus the comments that
/// were stripped (kept so rules can look for justification markers).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// `(line, text)` for every comment, including doc comments. Block
    /// comments are recorded on their starting line.
    pub comments: Vec<(usize, String)>,
}

impl Lexed {
    /// `true` when any comment on `line` contains `needle`.
    pub fn comment_on_line_contains(&self, line: usize, needle: &str) -> bool {
        self.comments
            .iter()
            .any(|(l, text)| *l == line && text.contains(needle))
    }
}

/// Lexes `src` into tokens and comments. Never fails: unterminated
/// constructs consume to end of input.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0;
    let mut line = 1;
    let n = chars.len();

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
            }
            i += 1;
        }};
    }

    while i < n {
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
        // Line comment (includes `///` and `//!` doc comments).
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start_line = line;
            let mut text = String::new();
            while i < n && chars[i] != '\n' {
                text.push(chars[i]);
                i += 1;
            }
            out.comments.push((start_line, text));
            continue;
        }
        // Block comment, possibly nested.
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            let start_line = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && i + 1 < n && chars[i + 1] == '*' {
                    depth += 1;
                    text.push_str("/*");
                    bump!();
                    bump!();
                } else if chars[i] == '*' && i + 1 < n && chars[i + 1] == '/' {
                    depth -= 1;
                    text.push_str("*/");
                    bump!();
                    bump!();
                    if depth == 0 {
                        break;
                    }
                } else {
                    text.push(chars[i]);
                    bump!();
                }
            }
            out.comments.push((start_line, text));
            continue;
        }
        // String-ish literals reachable from an ident-looking prefix:
        // r"", r#""#, b"", br"", c"", cr"", b''.
        if (c == 'r' || c == 'b' || c == 'c') && try_prefixed_literal(&chars, i).is_some() {
            let start_line = line;
            let end = try_prefixed_literal(&chars, i).expect("checked above");
            let text: String = chars[i..end].iter().collect();
            while i < end {
                bump!();
            }
            out.toks.push(Tok {
                kind: TokKind::Lit,
                text,
                line: start_line,
            });
            continue;
        }
        // Identifier / keyword.
        if c.is_alphabetic() || c == '_' {
            let start_line = line;
            let mut text = String::new();
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                i += 1;
            }
            out.toks.push(Tok {
                kind: TokKind::Ident,
                text,
                line: start_line,
            });
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            let mut text = String::from('"');
            bump!();
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    text.push(chars[i]);
                    text.push(chars[i + 1]);
                    bump!();
                    bump!();
                } else if chars[i] == '"' {
                    text.push('"');
                    bump!();
                    break;
                } else {
                    text.push(chars[i]);
                    bump!();
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Lit,
                text,
                line: start_line,
            });
            continue;
        }
        // Lifetime or char literal.
        if c == '\'' {
            let start_line = line;
            // Lifetime: `'ident` not followed by a closing quote.
            if i + 1 < n
                && (chars[i + 1].is_alphabetic() || chars[i + 1] == '_')
                && !(i + 2 < n && chars[i + 2] == '\'')
            {
                let mut text = String::from('\'');
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    text.push(chars[i]);
                    i += 1;
                }
                out.toks.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line: start_line,
                });
                continue;
            }
            // Char literal: consume through the closing quote.
            let mut text = String::from('\'');
            bump!();
            while i < n {
                if chars[i] == '\\' && i + 1 < n {
                    text.push(chars[i]);
                    text.push(chars[i + 1]);
                    bump!();
                    bump!();
                } else if chars[i] == '\'' {
                    text.push('\'');
                    bump!();
                    break;
                } else {
                    text.push(chars[i]);
                    bump!();
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Lit,
                text,
                line: start_line,
            });
            continue;
        }
        // Number literal (suffixes and `1.5` floats; `0..3` keeps the
        // range dots out of the number).
        if c.is_ascii_digit() {
            let start_line = line;
            let mut text = String::new();
            while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                text.push(chars[i]);
                i += 1;
            }
            if i < n && chars[i] == '.' && i + 1 < n && chars[i + 1].is_ascii_digit() {
                text.push('.');
                i += 1;
                while i < n && (chars[i].is_alphanumeric() || chars[i] == '_') {
                    text.push(chars[i]);
                    i += 1;
                }
            }
            out.toks.push(Tok {
                kind: TokKind::Lit,
                text,
                line: start_line,
            });
            continue;
        }
        // Everything else: single-character punctuation.
        out.toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    out
}

/// If position `i` starts a prefixed string literal (`r"`, `r#"`,
/// `b"`, `br#"`, `c"`, `cr"`, `b'`), returns the index one past its
/// end.
fn try_prefixed_literal(chars: &[char], i: usize) -> Option<usize> {
    let n = chars.len();
    let mut j = i;
    // Consume the prefix letters (at most two of r/b/c).
    let mut prefix = String::new();
    while j < n && prefix.len() < 2 && matches!(chars[j], 'r' | 'b' | 'c') {
        prefix.push(chars[j]);
        j += 1;
    }
    match prefix.as_str() {
        "r" | "br" | "cr" => {
            // Raw string: zero or more #, then a quote.
            let mut hashes = 0;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if j >= n || chars[j] != '"' {
                return None;
            }
            j += 1;
            // Scan for `"` followed by `hashes` #s.
            while j < n {
                if chars[j] == '"' {
                    let mut k = j + 1;
                    let mut seen = 0;
                    while k < n && seen < hashes && chars[k] == '#' {
                        seen += 1;
                        k += 1;
                    }
                    if seen == hashes {
                        return Some(k);
                    }
                }
                j += 1;
            }
            Some(n)
        }
        "b" | "c" => {
            let quote = if j < n { chars[j] } else { return None };
            if quote != '"' && !(prefix == "b" && quote == '\'') {
                return None;
            }
            j += 1;
            while j < n {
                if chars[j] == '\\' && j + 1 < n {
                    j += 2;
                } else if chars[j] == quote {
                    return Some(j + 1);
                } else {
                    j += 1;
                }
            }
            Some(n)
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn skips_comments_and_strings() {
        let src = r##"
            // unwrap() in a comment
            /* panic! in /* a nested */ block */
            let s = "call .unwrap() here";
            let r = r#"also .expect("x") here"#;
            real_ident();
        "##;
        let ids = idents(src);
        assert!(ids.contains(&"real_ident".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
    }

    #[test]
    fn records_comments_with_lines() {
        let src = "let x = 1; // lint: allow(unit_flow) reasons\n";
        let lexed = lex(src);
        assert!(lexed.comment_on_line_contains(1, "lint: allow(unit_flow)"));
        assert!(!lexed.comment_on_line_contains(2, "lint: allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) { let c = 'x'; g::<'_>(); }";
        let lexed = lex(src);
        let lifetimes: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lifetimes, vec!["'a", "'a", "'_"]);
        assert!(lexed
            .toks
            .iter()
            .any(|t| t.kind == TokKind::Lit && t.text == "'x'"));
    }

    #[test]
    fn numbers_and_ranges() {
        let src = "for i in 0..10 { let f = 1.5f64; let h = 0xFF_u8; }";
        let lexed = lex(src);
        let lits: Vec<_> = lexed
            .toks
            .iter()
            .filter(|t| t.kind == TokKind::Lit)
            .map(|t| t.text.clone())
            .collect();
        assert_eq!(lits, vec!["0", "10", "1.5f64", "0xFF_u8"]);
    }

    #[test]
    fn line_numbers_survive_multiline_constructs() {
        let src = "let a = \"two\nlines\";\nafter();\n";
        let lexed = lex(src);
        let after = lexed
            .toks
            .iter()
            .find(|t| t.is_ident("after"))
            .expect("token exists");
        assert_eq!(after.line, 3);
    }

    #[test]
    fn byte_and_c_strings() {
        let src = "let a = b\"panic!\"; let b = c\"unwrap\"; let c = br#\"expect\"#; cr_ident();";
        let ids = idents(src);
        assert!(ids.contains(&"cr_ident".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(!ids.contains(&"expect".to_string()));
    }
}
