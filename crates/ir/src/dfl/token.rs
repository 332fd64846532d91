//! Token definitions for the mini-DFL lexer.

use std::fmt;

use crate::Symbol;

/// A lexical token with its source line (1-based).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// The 1-based source line the token starts on.
    pub line: u32,
}

/// The kind of a token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An identifier such as `fir` or `x`, interned once per lexed text
    /// (every occurrence shares one symbol).
    Ident(Symbol),
    /// An integer literal (decimal, or hexadecimal with `0x`).
    Num(i64),
    /// A keyword (see [`KEYWORDS`]).
    Keyword(Keyword),
    /// `:=`
    Assign,
    /// `;`
    Semi,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `..`
    DotDot,
    /// `@`
    At,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `~`
    Tilde,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// End of input.
    Eof,
}

impl fmt::Display for TokenKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokenKind::Ident(s) => write!(f, "identifier `{s}`"),
            TokenKind::Num(n) => write!(f, "number `{n}`"),
            TokenKind::Keyword(k) => write!(f, "keyword `{k}`"),
            TokenKind::Assign => f.write_str("`:=`"),
            TokenKind::Semi => f.write_str("`;`"),
            TokenKind::Colon => f.write_str("`:`"),
            TokenKind::Comma => f.write_str("`,`"),
            TokenKind::LParen => f.write_str("`(`"),
            TokenKind::RParen => f.write_str("`)`"),
            TokenKind::LBracket => f.write_str("`[`"),
            TokenKind::RBracket => f.write_str("`]`"),
            TokenKind::DotDot => f.write_str("`..`"),
            TokenKind::At => f.write_str("`@`"),
            TokenKind::Plus => f.write_str("`+`"),
            TokenKind::Minus => f.write_str("`-`"),
            TokenKind::Star => f.write_str("`*`"),
            TokenKind::Slash => f.write_str("`/`"),
            TokenKind::Amp => f.write_str("`&`"),
            TokenKind::Pipe => f.write_str("`|`"),
            TokenKind::Caret => f.write_str("`^`"),
            TokenKind::Tilde => f.write_str("`~`"),
            TokenKind::Shl => f.write_str("`<<`"),
            TokenKind::Shr => f.write_str("`>>`"),
            TokenKind::Eof => f.write_str("end of input"),
        }
    }
}

/// Reserved words of the language.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Keyword {
    Program,
    Const,
    Var,
    In,
    Out,
    Fix,
    Int,
    Bank,
    Begin,
    End,
    For,
    Loop,
    Do,
}

impl Keyword {
    /// Looks an identifier up in the keyword table.
    #[allow(clippy::should_implement_trait)] // infallible table lookup, not FromStr
    pub fn from_str(s: &str) -> Option<Keyword> {
        KEYWORDS.iter().find(|(k, _)| *k == s).map(|(_, kw)| *kw)
    }
}

/// The spelling of every keyword.
pub const KEYWORDS: [(&str, Keyword); 13] = [
    ("program", Keyword::Program),
    ("const", Keyword::Const),
    ("var", Keyword::Var),
    ("in", Keyword::In),
    ("out", Keyword::Out),
    ("fix", Keyword::Fix),
    ("int", Keyword::Int),
    ("bank", Keyword::Bank),
    ("begin", Keyword::Begin),
    ("end", Keyword::End),
    ("for", Keyword::For),
    ("loop", Keyword::Loop),
    ("do", Keyword::Do),
];

impl fmt::Display for Keyword {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = KEYWORDS
            .iter()
            .find(|(_, kw)| kw == self)
            .map(|(s, _)| *s)
            .expect("every keyword is listed");
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyword_lookup() {
        assert_eq!(Keyword::from_str("for"), Some(Keyword::For));
        assert_eq!(Keyword::from_str("frob"), None);
    }

    #[test]
    fn keyword_display_roundtrip() {
        for (s, kw) in KEYWORDS {
            assert_eq!(kw.to_string(), s);
            assert_eq!(Keyword::from_str(s), Some(kw));
        }
    }
}
