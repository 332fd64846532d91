//! A hand-written lexer for the mini-DFL language.

use crate::hash::FoldMap;
use crate::{Error, Symbol};

use super::token::{Keyword, Token, TokenKind};

/// Tokenizes a source text.
///
/// Comments run from `--` or `//` to the end of the line. Identifiers are
/// `[A-Za-z_][A-Za-z0-9_]*`; identifiers that match a reserved word become
/// keywords. Numbers are decimal or `0x`-prefixed hexadecimal.
///
/// Each distinct identifier becomes one [`Symbol`], shared by all its
/// occurrences. The table that finds them lives for this call only, so
/// a long-running caller does not accumulate the names it has lexed.
///
/// # Errors
///
/// Returns [`Error::Lex`] on characters outside the language and on
/// numeric literals that overflow `i64`.
pub fn lex(source: &str) -> Result<Vec<Token>, Error> {
    // DSP kernel text runs about one token per two or three bytes
    let mut tokens = Vec::with_capacity((source.len() / 2 + 1).min(4096));
    let mut symbols: FoldMap<&str, Symbol> =
        FoldMap::with_capacity_and_hasher(32, Default::default());
    let bytes = source.as_bytes();
    let mut i = 0usize;
    let mut line = 1u32;

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '-' if i + 1 < bytes.len() && bytes[i + 1] == b'-' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            ':' if i + 1 < bytes.len() && bytes[i + 1] == b'=' => {
                push!(TokenKind::Assign);
                i += 2;
            }
            ':' => {
                push!(TokenKind::Colon);
                i += 1;
            }
            // `=` is accepted as an alias for `:=` so that the conventional
            // `const N = 16;` spelling works.
            '=' => {
                push!(TokenKind::Assign);
                i += 1;
            }
            '.' if i + 1 < bytes.len() && bytes[i + 1] == b'.' => {
                push!(TokenKind::DotDot);
                i += 2;
            }
            '<' if i + 1 < bytes.len() && bytes[i + 1] == b'<' => {
                push!(TokenKind::Shl);
                i += 2;
            }
            '>' if i + 1 < bytes.len() && bytes[i + 1] == b'>' => {
                push!(TokenKind::Shr);
                i += 2;
            }
            ';' => {
                push!(TokenKind::Semi);
                i += 1;
            }
            ',' => {
                push!(TokenKind::Comma);
                i += 1;
            }
            '(' => {
                push!(TokenKind::LParen);
                i += 1;
            }
            ')' => {
                push!(TokenKind::RParen);
                i += 1;
            }
            '[' => {
                push!(TokenKind::LBracket);
                i += 1;
            }
            ']' => {
                push!(TokenKind::RBracket);
                i += 1;
            }
            '@' => {
                push!(TokenKind::At);
                i += 1;
            }
            '+' => {
                push!(TokenKind::Plus);
                i += 1;
            }
            '-' => {
                push!(TokenKind::Minus);
                i += 1;
            }
            '*' => {
                push!(TokenKind::Star);
                i += 1;
            }
            '/' => {
                push!(TokenKind::Slash);
                i += 1;
            }
            '&' => {
                push!(TokenKind::Amp);
                i += 1;
            }
            '|' => {
                push!(TokenKind::Pipe);
                i += 1;
            }
            '^' => {
                push!(TokenKind::Caret);
                i += 1;
            }
            '~' => {
                push!(TokenKind::Tilde);
                i += 1;
            }
            '0'..='9' => {
                let start = i;
                let (value, consumed) = lex_number(&source[i..], line)?;
                push!(TokenKind::Num(value));
                i = start + consumed;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < bytes.len()
                    && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
                {
                    i += 1;
                }
                let word = &source[start..i];
                match Keyword::from_str(word) {
                    Some(kw) => push!(TokenKind::Keyword(kw)),
                    None => {
                        let sym = symbols.entry(word).or_insert_with(|| Symbol::new(word));
                        push!(TokenKind::Ident(sym.clone()))
                    }
                }
            }
            other => {
                return Err(Error::lex(line, format!("unexpected character `{other}`")));
            }
        }
    }
    tokens.push(Token { kind: TokenKind::Eof, line });
    Ok(tokens)
}

/// Lexes a number starting at the beginning of `rest`; returns its value
/// and the number of bytes consumed.
fn lex_number(rest: &str, line: u32) -> Result<(i64, usize), Error> {
    let bytes = rest.as_bytes();
    if rest.starts_with("0x") || rest.starts_with("0X") {
        let mut j = 2;
        while j < bytes.len() && (bytes[j] as char).is_ascii_hexdigit() {
            j += 1;
        }
        if j == 2 {
            return Err(Error::lex(line, "`0x` without hex digits"));
        }
        let v = i64::from_str_radix(&rest[2..j], 16)
            .map_err(|_| Error::lex(line, "hexadecimal literal overflows 64 bits"))?;
        Ok((v, j))
    } else {
        let mut j = 0;
        while j < bytes.len() && (bytes[j] as char).is_ascii_digit() {
            j += 1;
        }
        let v: i64 =
            rest[..j].parse().map_err(|_| Error::lex(line, "decimal literal overflows 64 bits"))?;
        Ok((v, j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_assignment() {
        assert_eq!(
            kinds("y := y + 1;"),
            vec![
                TokenKind::Ident("y".into()),
                TokenKind::Assign,
                TokenKind::Ident("y".into()),
                TokenKind::Plus,
                TokenKind::Num(1),
                TokenKind::Semi,
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_ranges() {
        assert_eq!(
            kinds("for i in 0..7 loop"),
            vec![
                TokenKind::Keyword(Keyword::For),
                TokenKind::Ident("i".into()),
                TokenKind::Keyword(Keyword::In),
                TokenKind::Num(0),
                TokenKind::DotDot,
                TokenKind::Num(7),
                TokenKind::Keyword(Keyword::Loop),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn lexes_hex_and_shifts() {
        assert_eq!(
            kinds("0xff << 2 >> 1"),
            vec![
                TokenKind::Num(255),
                TokenKind::Shl,
                TokenKind::Num(2),
                TokenKind::Shr,
                TokenKind::Num(1),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn comments_are_skipped_both_styles() {
        assert_eq!(
            kinds("a -- a comment\n// another\nb"),
            vec![TokenKind::Ident("a".into()), TokenKind::Ident("b".into()), TokenKind::Eof]
        );
    }

    #[test]
    fn tracks_lines() {
        let toks = lex("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = toks.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn rejects_stray_characters() {
        let err = lex("a ? b").unwrap_err();
        assert!(matches!(err, Error::Lex { line: 1, .. }));
    }

    #[test]
    fn rejects_bare_0x() {
        assert!(lex("0x").is_err());
    }

    #[test]
    fn every_occurrence_of_a_name_shares_one_symbol() {
        let toks = lex("y := y + x;").unwrap();
        let TokenKind::Ident(a) = &toks[0].kind else { panic!("an identifier") };
        let TokenKind::Ident(b) = &toks[2].kind else { panic!("an identifier") };
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let TokenKind::Ident(x) = &toks[4].kind else { panic!("an identifier") };
        assert_ne!(a, x);
    }

    #[test]
    fn delay_operator() {
        assert_eq!(
            kinds("x@1"),
            vec![TokenKind::Ident("x".into()), TokenKind::At, TokenKind::Num(1), TokenKind::Eof]
        );
    }
}
