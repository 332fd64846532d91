//! Recursive-descent parser for the mini-DFL language.

use crate::{Bank, BinOp, Error, Symbol, UnOp};

use super::ast::{BaseTy, Decl, Expr, LValue, Program, Stmt, VarDecl, VarKind};
use super::token::{Keyword, Token, TokenKind};

/// Parses a token stream (as produced by [`lexer::lex`](super::lexer::lex))
/// into an AST. The stream is consumed: each name's symbol moves from its
/// token into the AST.
///
/// # Errors
///
/// Returns [`Error::Parse`] with the offending line on malformed input.
pub fn parse_tokens(mut tokens: Vec<Token>) -> Result<Program, Error> {
    if tokens.is_empty() {
        return Err(Error::parse(1, "empty token stream"));
    }
    let mut p = Parser { tokens: &mut tokens, pos: 0, depth: 0 };
    p.program()
}

/// Maximum expression nesting (parenthesis/operand depth). Recursive
/// descent uses the call stack; without a limit a long `((((…` run is a
/// stack overflow — an abort no caller can catch — instead of a parse
/// error.
const MAX_EXPR_DEPTH: u32 = 200;

struct Parser<'a> {
    tokens: &'a mut [Token],
    pos: usize,
    depth: u32,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos].kind
    }

    fn line(&self) -> u32 {
        self.tokens[self.pos].line
    }

    fn bump(&mut self) -> &TokenKind {
        let t = &self.tokens[self.pos].kind;
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &TokenKind) -> bool {
        if self.peek() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), Error> {
        if self.peek() == &kind {
            self.bump();
            Ok(())
        } else {
            Err(Error::parse(self.line(), format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), Error> {
        self.expect(TokenKind::Keyword(kw))
    }

    /// Takes the identifier at the cursor and advances past it. The
    /// symbol is moved out of its token, which is left an `Eof` the
    /// parser never reads: it never looks back.
    fn take_ident(&mut self) -> Option<Symbol> {
        let kind = &mut self.tokens[self.pos].kind;
        if !matches!(kind, TokenKind::Ident(_)) {
            return None;
        }
        let TokenKind::Ident(s) = std::mem::replace(kind, TokenKind::Eof) else {
            unreachable!("checked above")
        };
        self.bump();
        Some(s)
    }

    fn ident(&mut self) -> Result<Symbol, Error> {
        self.take_ident().ok_or_else(|| {
            Error::parse(self.line(), format!("expected identifier, found {}", self.peek()))
        })
    }

    fn program(&mut self) -> Result<Program, Error> {
        self.expect_keyword(Keyword::Program)?;
        let name = self.ident()?;
        self.expect(TokenKind::Semi)?;

        let mut decls = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Const) => {
                    self.bump();
                    let name = self.ident()?;
                    // Accept both `=`-less form `const N = e;` — the lexer has
                    // no `=` token, so we spell it `const N := e;` or reuse
                    // `:` `=`; we accept `:=` for uniformity.
                    self.expect(TokenKind::Assign).map_err(|_| {
                        Error::parse(
                            self.line(),
                            "expected `:=` after constant name (e.g. `const N := 16;`)",
                        )
                    })?;
                    let value = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    decls.push(Decl::Const { name, value });
                }
                TokenKind::Keyword(Keyword::Var)
                | TokenKind::Keyword(Keyword::In)
                | TokenKind::Keyword(Keyword::Out) => {
                    decls.push(Decl::Var(self.var_decl()?));
                }
                _ => break,
            }
        }

        self.expect_keyword(Keyword::Begin)?;
        let body = self.stmt_list(&[Keyword::End])?;
        self.expect_keyword(Keyword::End)?;
        // optional trailing semicolon / EOF
        let _ = self.eat(&TokenKind::Semi);
        self.expect(TokenKind::Eof)?;
        Ok(Program { name, decls, body })
    }

    fn var_decl(&mut self) -> Result<VarDecl, Error> {
        let line = self.line();
        let kind = match self.bump() {
            TokenKind::Keyword(Keyword::Var) => VarKind::Var,
            TokenKind::Keyword(Keyword::In) => VarKind::In,
            TokenKind::Keyword(Keyword::Out) => VarKind::Out,
            other => {
                // the caller dispatched on these keywords; keep a parse
                // error rather than a panic in case that ever drifts
                return Err(Error::parse(line, format!("expected var/in/out, found {other}")));
            }
        };
        let mut names = vec![self.ident()?];
        while self.eat(&TokenKind::Comma) {
            names.push(self.ident()?);
        }
        self.expect(TokenKind::Colon)?;
        let ty = match self.bump() {
            TokenKind::Keyword(Keyword::Fix) => BaseTy::Fix,
            TokenKind::Keyword(Keyword::Int) => BaseTy::Int,
            other => {
                let msg = format!("expected type `fix` or `int`, found {other}");
                return Err(Error::parse(line, msg));
            }
        };
        let len = if self.eat(&TokenKind::LBracket) {
            let e = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(e)
        } else {
            None
        };
        let bank = if self.eat(&TokenKind::Keyword(Keyword::Bank)) {
            let b = self.ident()?;
            match b.as_str() {
                "X" | "x" => Some(Bank::X),
                "Y" | "y" => Some(Bank::Y),
                other => {
                    return Err(Error::parse(line, format!("unknown bank `{other}` (use X or Y)")))
                }
            }
        } else {
            None
        };
        self.expect(TokenKind::Semi)?;
        Ok(VarDecl { names, kind, ty, len, bank, line })
    }

    /// Parses statements until one of the stop keywords is next.
    fn stmt_list(&mut self, stops: &[Keyword]) -> Result<Vec<Stmt>, Error> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                TokenKind::Keyword(k) if stops.contains(k) => return Ok(out),
                TokenKind::Eof => return Ok(out),
                _ => out.push(self.stmt()?),
            }
        }
    }

    fn stmt(&mut self) -> Result<Stmt, Error> {
        let line = self.line();
        if self.eat(&TokenKind::Keyword(Keyword::For)) {
            let var = self.ident()?;
            self.expect_keyword(Keyword::In)?;
            let lo = self.expr()?;
            self.expect(TokenKind::DotDot)?;
            let hi = self.expr()?;
            // `loop` or `do` introduces the body
            if !self.eat(&TokenKind::Keyword(Keyword::Loop)) {
                self.expect_keyword(Keyword::Do)?;
            }
            let body = self.stmt_list(&[Keyword::End])?;
            self.expect_keyword(Keyword::End)?;
            let _ = self.eat(&TokenKind::Keyword(Keyword::Loop));
            let _ = self.eat(&TokenKind::Semi);
            return Ok(Stmt::For { var, lo, hi, body, line });
        }
        // assignment
        let name = self.ident()?;
        let dst = if self.eat(&TokenKind::LBracket) {
            let idx = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            LValue::Elem(name, idx)
        } else {
            LValue::Scalar(name)
        };
        self.expect(TokenKind::Assign)?;
        let value = self.expr()?;
        self.expect(TokenKind::Semi)?;
        Ok(Stmt::Assign { dst, value, line })
    }

    /// Expression grammar, lowest precedence first:
    /// `|` < `^` < `&` < `<< >>` < `+ -` < `* /` < unary; every binary
    /// operator is left-associative.
    fn expr(&mut self) -> Result<Expr, Error> {
        if self.depth >= MAX_EXPR_DEPTH {
            return Err(Error::parse(self.line(), "expression nested too deeply"));
        }
        self.depth += 1;
        let result = self.binary(1);
        self.depth -= 1;
        result
    }

    /// Parses unary operands joined by binary operators of precedence
    /// `min` or tighter (precedence climbing): an operator's right operand
    /// takes only tighter operators, so equal ones associate to the left.
    fn binary(&mut self, min: u8) -> Result<Expr, Error> {
        let mut lhs = self.unary()?;
        while let Some((op, prec)) = binary_op(self.peek()).filter(|&(_, prec)| prec >= min) {
            self.bump();
            let rhs = self.binary(prec + 1)?;
            lhs = Expr::bin(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> Result<Expr, Error> {
        // iterative, so a `~~~~…x` run costs heap, not call stack here —
        // but the tree it builds is still walked recursively by lowering
        // and printing, so the chain counts against the nesting cap too
        let mut ops = Vec::new();
        loop {
            if self.eat(&TokenKind::Minus) {
                ops.push(UnOp::Neg);
            } else if self.eat(&TokenKind::Tilde) {
                ops.push(UnOp::Not);
            } else {
                break;
            }
            if self.depth + ops.len() as u32 > MAX_EXPR_DEPTH {
                return Err(Error::parse(self.line(), "expression nested too deeply"));
            }
        }
        let mut e = self.postfix()?;
        for op in ops.into_iter().rev() {
            e = Expr::un(op, e);
        }
        Ok(e)
    }

    fn postfix(&mut self) -> Result<Expr, Error> {
        let line = self.line();
        if let Some(name) = self.take_ident() {
            if self.eat(&TokenKind::LParen) {
                return self.intrinsic(name.as_str(), line);
            }
            if self.eat(&TokenKind::LBracket) {
                let idx = self.expr()?;
                self.expect(TokenKind::RBracket)?;
                return Ok(Expr::Elem(name, Box::new(idx)));
            }
            if self.eat(&TokenKind::At) {
                match self.bump().clone() {
                    TokenKind::Num(k) if (1..=i64::from(u32::MAX)).contains(&k) => {
                        return Ok(Expr::Delay(name, k as u32))
                    }
                    other => {
                        return Err(Error::parse(
                            line,
                            format!(
                                "delay `@` needs a positive literal (at most 2^32-1), \
                                 found {other}"
                            ),
                        ))
                    }
                }
            }
            return Ok(Expr::Name(name));
        }
        match *self.peek() {
            TokenKind::Num(n) => {
                self.bump();
                Ok(Expr::Num(n))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                Ok(e)
            }
            ref other => Err(Error::parse(line, format!("expected expression, found {other}"))),
        }
    }

    /// Resolves intrinsic calls: `sat`, `abs`, `round` (unary);
    /// `sadd`, `ssub`, `min`, `max` (binary).
    fn intrinsic(&mut self, name: &str, line: u32) -> Result<Expr, Error> {
        let mut args = vec![self.expr()?];
        while self.eat(&TokenKind::Comma) {
            args.push(self.expr()?);
        }
        self.expect(TokenKind::RParen)?;
        let arity_err = |want: usize| {
            Error::parse(line, format!("intrinsic `{name}` takes {want} argument(s)"))
        };
        match name {
            "sat" | "abs" | "round" => {
                if args.len() != 1 {
                    return Err(arity_err(1));
                }
                let op = match name {
                    "sat" => UnOp::Sat,
                    "abs" => UnOp::Abs,
                    _ => UnOp::Round,
                };
                let a = args.pop().ok_or_else(|| arity_err(1))?;
                Ok(Expr::un(op, a))
            }
            "sadd" | "ssub" | "min" | "max" => {
                if args.len() != 2 {
                    return Err(arity_err(2));
                }
                let op = match name {
                    "sadd" => BinOp::SatAdd,
                    "ssub" => BinOp::SatSub,
                    "min" => BinOp::Min,
                    _ => BinOp::Max,
                };
                let b = args.pop().ok_or_else(|| arity_err(2))?;
                let a = args.pop().ok_or_else(|| arity_err(2))?;
                Ok(Expr::bin(op, a, b))
            }
            other => Err(Error::parse(line, format!("unknown intrinsic `{other}`"))),
        }
    }
}

/// The binary operator a token spells, with its precedence (1 binds
/// loosest).
fn binary_op(kind: &TokenKind) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::Pipe => (BinOp::Or, 1),
        TokenKind::Caret => (BinOp::Xor, 2),
        TokenKind::Amp => (BinOp::And, 3),
        TokenKind::Shl => (BinOp::Shl, 4),
        TokenKind::Shr => (BinOp::Shr, 4),
        TokenKind::Plus => (BinOp::Add, 5),
        TokenKind::Minus => (BinOp::Sub, 5),
        TokenKind::Star => (BinOp::Mul, 6),
        TokenKind::Slash => (BinOp::Div, 6),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::super::parse;
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("program p; var a: fix; begin a := 1; end").unwrap();
        assert_eq!(p.name.as_str(), "p");
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn parses_const_with_walrus() {
        let p = parse("program p; const N := 8; var a: fix[N]; begin a[0] := N; end").unwrap();
        assert_eq!(p.consts().count(), 1);
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("program p; var a,b,c,y: fix; begin y := a + b * c; end").unwrap();
        match &p.body[0] {
            Stmt::Assign { value: Expr::Bin(BinOp::Add, operands), .. } => {
                assert!(matches!(operands[1], Expr::Bin(BinOp::Mul, _)));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn operators_bind_by_precedence_and_associate_left() {
        let p = parse(
            "program p; var a,b,c,d,y: fix; begin y := a - b - c * d / a | b ^ c & d << 1 + a; end",
        )
        .unwrap();
        let Stmt::Assign { value, .. } = &p.body[0] else { panic!("an assignment") };
        let name = |n: &str| Expr::Name(n.into());
        let bin = Expr::bin;
        // ((a - b) - ((c * d) / a)) | (b ^ (c & (d << (1 + a))))
        let want = bin(
            BinOp::Or,
            bin(
                BinOp::Sub,
                bin(BinOp::Sub, name("a"), name("b")),
                bin(BinOp::Div, bin(BinOp::Mul, name("c"), name("d")), name("a")),
            ),
            bin(
                BinOp::Xor,
                name("b"),
                bin(
                    BinOp::And,
                    name("c"),
                    bin(BinOp::Shl, name("d"), bin(BinOp::Add, Expr::Num(1), name("a"))),
                ),
            ),
        );
        assert_eq!(*value, want);
    }

    #[test]
    fn parses_for_loop_with_array_access() {
        let p = parse(
            "program p; const N := 4; var a: fix[N]; var y: fix;
             begin for i in 0..N-1 loop y := y + a[i]; end loop; end",
        )
        .unwrap();
        assert!(matches!(p.body[0], Stmt::For { .. }));
    }

    #[test]
    fn parses_intrinsics() {
        let p = parse("program p; var a,b,y: fix; begin y := sadd(a, b) + sat(a * b); end");
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn parses_delay() {
        let p = parse("program p; var x,y: fix; begin y := x@1 + x@2; end").unwrap();
        match &p.body[0] {
            Stmt::Assign { value: Expr::Bin(BinOp::Add, operands), .. } => {
                assert_eq!(operands[0], Expr::Delay("x".into(), 1));
                assert_eq!(operands[1], Expr::Delay("x".into(), 2));
            }
            other => panic!("unexpected shape: {other:?}"),
        }
    }

    #[test]
    fn parses_bank_hint() {
        let p = parse("program p; var a: fix[4] bank Y; var y: fix; begin y := a[0]; end").unwrap();
        let v = p.vars().next().unwrap();
        assert_eq!(v.bank, Some(crate::Bank::Y));
    }

    #[test]
    fn rejects_unknown_intrinsic() {
        let e = parse("program p; var y: fix; begin y := frob(1); end").unwrap_err();
        assert!(e.to_string().contains("unknown intrinsic"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        assert!(parse("program p; var y: fix; begin y := 1 end").is_err());
    }

    #[test]
    fn rejects_bad_delay() {
        assert!(parse("program p; var x,y: fix; begin y := x@0; end").is_err());
    }

    #[test]
    fn empty_token_stream_is_an_error_not_a_panic() {
        assert!(parse_tokens(Vec::new()).is_err());
    }

    #[test]
    fn deep_parentheses_are_a_parse_error_not_a_stack_overflow() {
        let depth = 5_000;
        let src = format!(
            "program p; var y: fix; begin y := {}1{}; end",
            "(".repeat(depth),
            ")".repeat(depth)
        );
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
    }

    #[test]
    fn long_unary_chains_are_a_parse_error_not_an_overflow() {
        // `~` rather than `-`: a `--` run would lex as a comment. A
        // 10,000-deep chain would overflow downstream tree walks
        // (lowering, drop), so it must be rejected at the cap …
        let src = format!("program p; var x, y: fix; begin y := {}x; end", "~".repeat(10_000));
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
        // … while chains comfortably under the cap still parse
        let src = format!("program p; var x, y: fix; begin y := {}x; end", "~".repeat(100));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn oversized_delay_is_rejected() {
        let e = parse("program p; var x,y: fix; begin y := x@4294967296; end").unwrap_err();
        assert!(e.to_string().contains("delay"), "{e}");
    }

    #[test]
    fn unary_minus_and_not() {
        let p = parse("program p; var a,y: fix; begin y := -a + ~a; end").unwrap();
        assert_eq!(p.body.len(), 1);
    }

    #[test]
    fn nested_loops() {
        let p = parse(
            "program p; var a: fix[4]; var y: fix;
             begin
               for i in 0..1 loop
                 for j in 0..1 loop
                   y := y + a[j];
                 end loop;
               end loop;
             end",
        )
        .unwrap();
        match &p.body[0] {
            Stmt::For { body, .. } => assert!(matches!(body[0], Stmt::For { .. })),
            other => panic!("unexpected shape: {other:?}"),
        }
    }
}
