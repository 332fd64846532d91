//! A hand-written lexer for the mini-DFL language: a cursor the parser
//! pulls one token at a time from.

use crate::hash::FoldMap;
use crate::{Error, Symbol};

use super::ast::NameId;

/// A lexical token with its source line (1-based).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token {
    /// The token kind and payload.
    pub kind: TokenKind,
    /// The 1-based source line the token starts on.
    pub line: u32,
}

/// The kind of a token.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TokenKind {
    /// An identifier such as `fir` or `x`, by its name id: every
    /// occurrence of a name in one text has the same id.
    Ident(NameId),
    /// An integer literal (decimal, or hexadecimal with `0x`).
    Num(i64),
    /// A reserved word.
    Keyword(Keyword),
    /// `:=`, or `=`, its alias
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

impl TokenKind {
    /// The token as an error message names it, an identifier spelled by
    /// its symbol in `names`.
    pub fn describe(self, names: &[Symbol]) -> String {
        let text = match self {
            TokenKind::Ident(id) => return format!("identifier `{}`", names[id.0 as usize]),
            TokenKind::Num(n) => return format!("number `{n}`"),
            TokenKind::Keyword(k) => return format!("keyword `{}`", k.as_str()),
            TokenKind::Eof => return "end of input".to_string(),
            TokenKind::Assign => ":=",
            TokenKind::Semi => ";",
            TokenKind::Colon => ":",
            TokenKind::Comma => ",",
            TokenKind::LParen => "(",
            TokenKind::RParen => ")",
            TokenKind::LBracket => "[",
            TokenKind::RBracket => "]",
            TokenKind::DotDot => "..",
            TokenKind::At => "@",
            TokenKind::Plus => "+",
            TokenKind::Minus => "-",
            TokenKind::Star => "*",
            TokenKind::Slash => "/",
            TokenKind::Amp => "&",
            TokenKind::Pipe => "|",
            TokenKind::Caret => "^",
            TokenKind::Tilde => "~",
            TokenKind::Shl => "<<",
            TokenKind::Shr => ">>",
        };
        format!("`{text}`")
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
    /// The keyword `word` spells, if it spells one.
    pub fn from_word(word: &str) -> Option<Keyword> {
        Some(match word {
            "program" => Keyword::Program,
            "const" => Keyword::Const,
            "var" => Keyword::Var,
            "in" => Keyword::In,
            "out" => Keyword::Out,
            "fix" => Keyword::Fix,
            "int" => Keyword::Int,
            "bank" => Keyword::Bank,
            "begin" => Keyword::Begin,
            "end" => Keyword::End,
            "for" => Keyword::For,
            "loop" => Keyword::Loop,
            "do" => Keyword::Do,
            _ => return None,
        })
    }

    /// The keyword's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Keyword::Program => "program",
            Keyword::Const => "const",
            Keyword::Var => "var",
            Keyword::In => "in",
            Keyword::Out => "out",
            Keyword::Fix => "fix",
            Keyword::Int => "int",
            Keyword::Bank => "bank",
            Keyword::Begin => "begin",
            Keyword::End => "end",
            Keyword::For => "for",
            Keyword::Loop => "loop",
            Keyword::Do => "do",
        }
    }
}

/// A cursor over a source text that yields one token per
/// [`next_token`](Lexer::next_token).
///
/// Comments run from `--` or `//` to the end of the line. Identifiers are
/// `[A-Za-z_][A-Za-z0-9_]*`; identifiers that match a reserved word become
/// keywords. Numbers are decimal or `0x`-prefixed hexadecimal.
///
/// Each distinct identifier gets the next dense [`NameId`] and one
/// [`Symbol`], shared by all its occurrences. The table that finds them
/// lives as long as the cursor, so a long-running caller does not
/// accumulate the names it has lexed.
pub struct Lexer<'s> {
    source: &'s str,
    pos: usize,
    line: u32,
    /// The symbol of every name met so far, by id.
    names: Vec<Symbol>,
    /// The id of every name met so far, by its text.
    ids: FoldMap<&'s str, NameId>,
}

impl<'s> Lexer<'s> {
    /// A cursor at the start of `source`.
    pub fn new(source: &'s str) -> Self {
        // DSP kernels use about one distinct name per 16 source bytes
        let names = (source.len() / 16 + 1).min(256);
        Lexer {
            source,
            pos: 0,
            line: 1,
            names: Vec::with_capacity(names),
            ids: FoldMap::with_capacity_and_hasher(names, Default::default()),
        }
    }

    /// The symbol of every name lexed so far, by id.
    pub fn names(&self) -> &[Symbol] {
        &self.names
    }

    /// The symbol of every name lexed, by id.
    pub fn into_names(self) -> Vec<Symbol> {
        self.names
    }

    /// The next token; [`TokenKind::Eof`] once the text is used up, and
    /// again on every later call.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Lex`] on characters outside the language and on
    /// numeric literals that overflow `i64`.
    pub fn next_token(&mut self) -> Result<Token, Error> {
        let source = self.source;
        let bytes = source.as_bytes();
        loop {
            let Some(&b) = bytes.get(self.pos) else {
                return Ok(Token { kind: TokenKind::Eof, line: self.line });
            };
            let pair = |second: u8| bytes.get(self.pos + 1) == Some(&second);
            let (kind, len) = match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                    continue;
                }
                b' ' | b'\t' | b'\r' => {
                    self.pos += 1;
                    continue;
                }
                b'-' | b'/' if pair(b) => {
                    self.pos = bytes[self.pos..]
                        .iter()
                        .position(|&c| c == b'\n')
                        .map_or(bytes.len(), |n| self.pos + n);
                    continue;
                }
                b':' if pair(b'=') => (TokenKind::Assign, 2),
                b':' => (TokenKind::Colon, 1),
                // `=` is accepted as an alias for `:=` so that the
                // conventional `const N = 16;` spelling works
                b'=' => (TokenKind::Assign, 1),
                b'.' if pair(b'.') => (TokenKind::DotDot, 2),
                b'<' if pair(b'<') => (TokenKind::Shl, 2),
                b'>' if pair(b'>') => (TokenKind::Shr, 2),
                b';' => (TokenKind::Semi, 1),
                b',' => (TokenKind::Comma, 1),
                b'(' => (TokenKind::LParen, 1),
                b')' => (TokenKind::RParen, 1),
                b'[' => (TokenKind::LBracket, 1),
                b']' => (TokenKind::RBracket, 1),
                b'@' => (TokenKind::At, 1),
                b'+' => (TokenKind::Plus, 1),
                b'-' => (TokenKind::Minus, 1),
                b'*' => (TokenKind::Star, 1),
                b'/' => (TokenKind::Slash, 1),
                b'&' => (TokenKind::Amp, 1),
                b'|' => (TokenKind::Pipe, 1),
                b'^' => (TokenKind::Caret, 1),
                b'~' => (TokenKind::Tilde, 1),
                b'0'..=b'9' => {
                    let (value, len) = lex_number(&source[self.pos..], self.line)?;
                    (TokenKind::Num(value), len)
                }
                b if b.is_ascii_alphabetic() || b == b'_' => {
                    let len = bytes[self.pos..]
                        .iter()
                        .position(|&c| !(c.is_ascii_alphanumeric() || c == b'_'))
                        .unwrap_or(bytes.len() - self.pos);
                    let word = &source[self.pos..self.pos + len];
                    (self.word(word), len)
                }
                _ => {
                    // the cursor stands at a character boundary: every
                    // token and comment it has passed ends in ASCII
                    let c =
                        source[self.pos..].chars().next().unwrap_or(char::REPLACEMENT_CHARACTER);
                    return Err(Error::lex(self.line, format!("unexpected character `{c}`")));
                }
            };
            self.pos += len;
            return Ok(Token { kind, line: self.line });
        }
    }

    /// The keyword `word` spells, or the identifier with its name id.
    fn word(&mut self, word: &'s str) -> TokenKind {
        if let Some(kw) = Keyword::from_word(word) {
            return TokenKind::Keyword(kw);
        }
        let names = &mut self.names;
        let id = *self.ids.entry(word).or_insert_with(|| {
            names.push(Symbol::new(word));
            NameId(names.len() as u32 - 1)
        });
        TokenKind::Ident(id)
    }
}

/// Lexes a number starting at the beginning of `rest`; returns its value
/// and the number of bytes consumed.
fn lex_number(rest: &str, line: u32) -> Result<(i64, usize), Error> {
    let bytes = rest.as_bytes();
    if rest.starts_with("0x") || rest.starts_with("0X") {
        let mut j = 2;
        while j < bytes.len() && bytes[j].is_ascii_hexdigit() {
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
        while j < bytes.len() && bytes[j].is_ascii_digit() {
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

    /// Every token of `src` up to and including the end of input, with
    /// the symbols of the names it met.
    fn lex(src: &str) -> Result<(Vec<Token>, Vec<Symbol>), Error> {
        let mut lexer = Lexer::new(src);
        let mut tokens = Vec::new();
        loop {
            let token = lexer.next_token()?;
            tokens.push(token);
            if token.kind == TokenKind::Eof {
                return Ok((tokens, lexer.into_names()));
            }
        }
    }

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).unwrap().0.into_iter().map(|t| t.kind).collect()
    }

    const ALL_KEYWORDS: [Keyword; 13] = [
        Keyword::Program,
        Keyword::Const,
        Keyword::Var,
        Keyword::In,
        Keyword::Out,
        Keyword::Fix,
        Keyword::Int,
        Keyword::Bank,
        Keyword::Begin,
        Keyword::End,
        Keyword::For,
        Keyword::Loop,
        Keyword::Do,
    ];

    #[test]
    fn keyword_lookup() {
        assert_eq!(Keyword::from_word("for"), Some(Keyword::For));
        assert_eq!(Keyword::from_word("frob"), None);
    }

    #[test]
    fn keyword_spelling_roundtrip() {
        for kw in ALL_KEYWORDS {
            assert_eq!(Keyword::from_word(kw.as_str()), Some(kw));
        }
    }

    #[test]
    fn lexes_assignment() {
        let (y, x) = (TokenKind::Ident(NameId(0)), TokenKind::Ident(NameId(1)));
        assert_eq!(
            kinds("y := x + 1;"),
            vec![
                y,
                TokenKind::Assign,
                x,
                TokenKind::Plus,
                TokenKind::Num(1),
                TokenKind::Semi,
                TokenKind::Eof
            ]
        );
    }

    #[test]
    fn lexes_keywords_and_ranges() {
        assert_eq!(
            kinds("for i in 0..7 loop"),
            vec![
                TokenKind::Keyword(Keyword::For),
                TokenKind::Ident(NameId(0)),
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
    fn equals_is_an_alias_for_assign() {
        assert_eq!(kinds("= :="), vec![TokenKind::Assign, TokenKind::Assign, TokenKind::Eof]);
    }

    #[test]
    fn comments_are_skipped_both_styles() {
        let (tokens, names) = lex("a -- a comment\n// another\nb").unwrap();
        let kinds: Vec<_> = tokens.iter().map(|t| t.kind).collect();
        assert_eq!(
            kinds,
            vec![TokenKind::Ident(NameId(0)), TokenKind::Ident(NameId(1)), TokenKind::Eof]
        );
        assert_eq!(names, vec![Symbol::new("a"), Symbol::new("b")]);
    }

    #[test]
    fn tracks_lines() {
        let (tokens, _) = lex("a\nb\n\nc").unwrap();
        let lines: Vec<u32> = tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4, 4]);
    }

    #[test]
    fn end_of_input_repeats() {
        let mut lexer = Lexer::new("a");
        lexer.next_token().unwrap();
        for _ in 0..2 {
            assert_eq!(lexer.next_token().unwrap().kind, TokenKind::Eof);
        }
    }

    #[test]
    fn rejects_stray_characters() {
        let err = lex("a ? b").unwrap_err();
        assert!(matches!(err, Error::Lex { line: 1, .. }));
    }

    #[test]
    fn a_stray_character_is_reported_whole() {
        // two, three and four bytes of UTF-8
        for (src, c) in [("program é;", 'é'), ("x := €1;", '€'), ("y\n -- ok\n 𝄞", '𝄞')]
        {
            let err = lex(src).unwrap_err();
            assert_eq!(err.to_string().matches(c).count(), 1, "{err}");
            assert!(err.to_string().ends_with(&format!("unexpected character `{c}`")), "{err}");
        }
        let err = lex("y\n -- ok\n 𝄞").unwrap_err();
        assert!(matches!(err, Error::Lex { line: 3, .. }), "{err}");
    }

    #[test]
    fn rejects_bare_0x_and_overflowing_literals() {
        assert!(lex("0x").is_err());
        assert!(lex("0x10000000000000000").unwrap_err().to_string().contains("overflows"));
        assert!(lex("9223372036854775808").unwrap_err().to_string().contains("overflows"));
        assert_eq!(kinds("9223372036854775807")[0], TokenKind::Num(i64::MAX));
    }

    #[test]
    fn every_occurrence_of_a_name_has_one_id_and_one_symbol() {
        let (tokens, names) = lex("y := y + x;").unwrap();
        assert_eq!(tokens[0].kind, TokenKind::Ident(NameId(0)));
        assert_eq!(tokens[2].kind, TokenKind::Ident(NameId(0)));
        assert_eq!(tokens[4].kind, TokenKind::Ident(NameId(1)));
        assert_eq!(names, vec![Symbol::new("y"), Symbol::new("x")]);
    }

    #[test]
    fn delay_operator() {
        assert_eq!(
            kinds("x@1"),
            vec![TokenKind::Ident(NameId(0)), TokenKind::At, TokenKind::Num(1), TokenKind::Eof]
        );
    }

    #[test]
    fn tokens_describe_themselves_as_errors_name_them() {
        let names = [Symbol::new("x")];
        let said = |kind: TokenKind| kind.describe(&names);
        assert_eq!(said(TokenKind::Ident(NameId(0))), "identifier `x`");
        assert_eq!(said(TokenKind::Num(7)), "number `7`");
        assert_eq!(said(TokenKind::Keyword(Keyword::Loop)), "keyword `loop`");
        assert_eq!(said(TokenKind::Assign), "`:=`");
        assert_eq!(said(TokenKind::Eof), "end of input");
    }
}
