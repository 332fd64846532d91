//! Recursive-descent parser for the mini-DFL language.

use crate::{Bank, BinOp, Error, UnOp};

use super::ast::{BaseTy, Decl, Expr, ExprId, NameId, Program, Stmt, VarDecl, VarKind};
use super::lexer::{Keyword, Lexer, Token, TokenKind};

/// Parses a source text into a [`Program`], pulling its tokens from a
/// [`Lexer`] one at a time.
///
/// A lex error anywhere in the text wins over a parse error: when the
/// parser fails, the rest of the text is lexed, and the first lex error
/// met there is reported instead.
pub(super) fn parse(source: &str) -> Result<Program, Error> {
    // every name, statement and expression starts at a token of its own,
    // so a text shorter than u32::MAX bytes numbers them, and its lines,
    // in 32 bits
    if source.len() >= u32::MAX as usize {
        return Err(Error::lex(1, "source text of 4 GiB or more"));
    }
    let mut lexer = Lexer::new(source);
    let tok = lexer.next_token()?;
    // the densest of the DSPStone kernels and the 300 generated programs
    // of `tests/golden/program_fingerprints.txt` holds one expression per
    // 5.8 bytes of text, and each holds at most one declared name or
    // statement per 18; a long text reserves no more than the caps
    let exprs = (source.len() / 5 + 1).min(4096);
    let items = (source.len() / 16 + 1).min(1024);
    let mut p = Parser {
        lexer,
        tok,
        depth: 0,
        loops: 0,
        decls: Vec::with_capacity(items),
        var_names: Vec::with_capacity(items),
        stmts: Vec::with_capacity(items),
        exprs: Vec::with_capacity(exprs),
    };
    match p.program() {
        Ok(name) => Ok(Program {
            names: p.lexer.into_names(),
            name,
            decls: p.decls,
            var_names: p.var_names,
            stmts: p.stmts,
            exprs: p.exprs,
        }),
        Err(e @ Error::Lex { .. }) => Err(e),
        Err(e) => Err(p.lex_error_ahead().unwrap_or(e)),
    }
}

/// Maximum height of an expression tree, and maximum parenthesis
/// nesting. A leaf is one level high; an operator, an element access or
/// an intrinsic sits one level above its tallest operand. The parser
/// recurses once per parenthesis, and lowering and the passes after it
/// once per tree level, all on the call stack: without a cap a deep
/// expression is a stack overflow — an abort no caller can catch —
/// instead of a parse error.
const MAX_EXPR_DEPTH: u32 = 200;

/// Maximum `for` nesting, for the same reason: the parser, lowering and
/// the passes after it recurse once per loop level.
const MAX_LOOP_DEPTH: u32 = 200;

struct Parser<'s> {
    lexer: Lexer<'s>,
    /// The token at the cursor.
    tok: Token,
    /// Expressions open on the call stack (parentheses, index
    /// expressions and intrinsic arguments).
    depth: u32,
    /// `for` loops open around the cursor.
    loops: u32,
    decls: Vec<Decl>,
    var_names: Vec<NameId>,
    stmts: Vec<Stmt>,
    exprs: Vec<Expr>,
}

impl Parser<'_> {
    fn peek(&self) -> TokenKind {
        self.tok.kind
    }

    fn line(&self) -> u32 {
        self.tok.line
    }

    /// `kind` as an error message names it.
    fn describe(&self, kind: TokenKind) -> String {
        kind.describe(self.lexer.names())
    }

    /// The spelling of name `id`.
    fn spelling(&self, id: NameId) -> &str {
        self.lexer.names()[id.0 as usize].as_str()
    }

    /// Moves past the token at the cursor and returns its kind.
    fn bump(&mut self) -> Result<TokenKind, Error> {
        let kind = self.tok.kind;
        self.tok = self.lexer.next_token()?;
        Ok(kind)
    }

    fn eat(&mut self, kind: TokenKind) -> Result<bool, Error> {
        let found = self.peek() == kind;
        if found {
            self.bump()?;
        }
        Ok(found)
    }

    fn expect(&mut self, kind: TokenKind) -> Result<(), Error> {
        if self.eat(kind)? {
            return Ok(());
        }
        let message =
            format!("expected {}, found {}", self.describe(kind), self.describe(self.peek()));
        Err(Error::parse(self.line(), message))
    }

    fn expect_keyword(&mut self, kw: Keyword) -> Result<(), Error> {
        self.expect(TokenKind::Keyword(kw))
    }

    fn ident(&mut self) -> Result<NameId, Error> {
        match self.peek() {
            TokenKind::Ident(name) => {
                self.bump()?;
                Ok(name)
            }
            other => {
                let message = format!("expected identifier, found {}", self.describe(other));
                Err(Error::parse(self.line(), message))
            }
        }
    }

    /// The first lex error after the cursor, if the rest of the text has
    /// one.
    fn lex_error_ahead(&mut self) -> Option<Error> {
        while self.tok.kind != TokenKind::Eof {
            match self.lexer.next_token() {
                Ok(tok) => self.tok = tok,
                Err(e) => return Some(e),
            }
        }
        None
    }

    fn push(&mut self, e: Expr) -> ExprId {
        self.exprs.push(e);
        ExprId(self.exprs.len() as u32 - 1)
    }

    /// Parses the whole program into the parser's tables; returns the
    /// program's name.
    fn program(&mut self) -> Result<NameId, Error> {
        self.expect_keyword(Keyword::Program)?;
        let name = self.ident()?;
        self.expect(TokenKind::Semi)?;

        loop {
            match self.peek() {
                TokenKind::Keyword(Keyword::Const) => {
                    self.bump()?;
                    let name = self.ident()?;
                    // the lexer reads `=` as `:=`, so this accepts both
                    // `const N = 16;` and `const N := 16;`
                    if !self.eat(TokenKind::Assign)? {
                        return Err(Error::parse(
                            self.line(),
                            "expected `:=` after constant name (e.g. `const N := 16;`)",
                        ));
                    }
                    let (value, _) = self.expr()?;
                    self.expect(TokenKind::Semi)?;
                    self.decls.push(Decl::Const { name, value });
                }
                TokenKind::Keyword(Keyword::Var) => self.var_decl(VarKind::Var)?,
                TokenKind::Keyword(Keyword::In) => self.var_decl(VarKind::In)?,
                TokenKind::Keyword(Keyword::Out) => self.var_decl(VarKind::Out)?,
                _ => break,
            }
        }

        self.expect_keyword(Keyword::Begin)?;
        self.stmt_list()?;
        self.expect_keyword(Keyword::End)?;
        // optional trailing semicolon / EOF
        self.eat(TokenKind::Semi)?;
        self.expect(TokenKind::Eof)?;
        Ok(name)
    }

    /// Parses a declaration of `kind`, whose keyword is at the cursor.
    fn var_decl(&mut self, kind: VarKind) -> Result<(), Error> {
        let line = self.line();
        self.bump()?;
        let first = self.var_names.len() as u32;
        loop {
            let name = self.ident()?;
            self.var_names.push(name);
            if !self.eat(TokenKind::Comma)? {
                break;
            }
        }
        let names = first..self.var_names.len() as u32;
        self.expect(TokenKind::Colon)?;
        let ty = match self.peek() {
            TokenKind::Keyword(Keyword::Fix) => BaseTy::Fix,
            TokenKind::Keyword(Keyword::Int) => BaseTy::Int,
            other => {
                let msg = format!("expected type `fix` or `int`, found {}", self.describe(other));
                return Err(Error::parse(line, msg));
            }
        };
        self.bump()?;
        let len = if self.eat(TokenKind::LBracket)? {
            let (e, _) = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(e)
        } else {
            None
        };
        let bank = if self.eat(TokenKind::Keyword(Keyword::Bank))? {
            let b = self.ident()?;
            match self.spelling(b) {
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
        self.decls.push(Decl::Var(VarDecl { names, kind, ty, len, bank, line }));
        Ok(())
    }

    /// Parses statements until `end` or the end of input is next.
    fn stmt_list(&mut self) -> Result<(), Error> {
        while !matches!(self.peek(), TokenKind::Keyword(Keyword::End) | TokenKind::Eof) {
            self.stmt()?;
        }
        Ok(())
    }

    fn stmt(&mut self) -> Result<(), Error> {
        let line = self.line();
        if self.eat(TokenKind::Keyword(Keyword::For))? {
            if self.loops >= MAX_LOOP_DEPTH {
                return Err(Error::parse(line, "loops nested too deeply"));
            }
            let var = self.ident()?;
            self.expect_keyword(Keyword::In)?;
            let (lo, _) = self.expr()?;
            self.expect(TokenKind::DotDot)?;
            let (hi, _) = self.expr()?;
            // `loop` or `do` introduces the body
            if !self.eat(TokenKind::Keyword(Keyword::Loop))? {
                self.expect_keyword(Keyword::Do)?;
            }
            let at = self.stmts.len();
            self.stmts.push(Stmt::For { var, lo, hi, end: 0, line });
            self.loops += 1;
            self.stmt_list()?;
            self.loops -= 1;
            let body_end = self.stmts.len() as u32;
            if let Stmt::For { end, .. } = &mut self.stmts[at] {
                *end = body_end;
            }
            self.expect_keyword(Keyword::End)?;
            self.eat(TokenKind::Keyword(Keyword::Loop))?;
            self.eat(TokenKind::Semi)?;
            return Ok(());
        }
        // assignment
        let dst = self.ident()?;
        let index = if self.eat(TokenKind::LBracket)? {
            let (idx, _) = self.expr()?;
            self.expect(TokenKind::RBracket)?;
            Some(idx)
        } else {
            None
        };
        self.expect(TokenKind::Assign)?;
        let (value, _) = self.expr()?;
        self.expect(TokenKind::Semi)?;
        self.stmts.push(Stmt::Assign { dst, index, value, line });
        Ok(())
    }

    /// The height of a node `levels` above a subtree `height` high.
    ///
    /// # Errors
    ///
    /// A parse error when that is over [`MAX_EXPR_DEPTH`].
    fn above(&self, height: u32, levels: u32) -> Result<u32, Error> {
        let height = height + levels;
        if height > MAX_EXPR_DEPTH {
            return Err(Error::parse(self.line(), "expression nested too deeply"));
        }
        Ok(height)
    }

    /// Expression grammar, lowest precedence first:
    /// `|` < `^` < `&` < `<< >>` < `+ -` < `* /` < unary; every binary
    /// operator is left-associative. Returns the expression and its
    /// height.
    fn expr(&mut self) -> Result<(ExprId, u32), Error> {
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
    fn binary(&mut self, min: u8) -> Result<(ExprId, u32), Error> {
        let (mut lhs, mut height) = self.unary()?;
        while let Some((op, prec)) = binary_op(self.peek()).filter(|&(_, prec)| prec >= min) {
            self.bump()?;
            let (rhs, rhs_height) = self.binary(prec + 1)?;
            height = self.above(height.max(rhs_height), 1)?;
            lhs = self.push(Expr::Bin(op, lhs, rhs));
        }
        Ok((lhs, height))
    }

    /// Parses a run of prefix operators and their operand. The run is
    /// read in a loop, so a `~~~~…x` run costs no call stack here: its
    /// nodes are pushed as their operators are read, each naming the
    /// next, and the last one names the operand once that is parsed.
    fn unary(&mut self) -> Result<(ExprId, u32), Error> {
        let first = self.exprs.len();
        loop {
            let op = match self.peek() {
                TokenKind::Minus => UnOp::Neg,
                TokenKind::Tilde => UnOp::Not,
                _ => break,
            };
            self.bump()?;
            self.above(0, (self.exprs.len() - first) as u32 + 1)?;
            let next = ExprId(self.exprs.len() as u32 + 1);
            self.push(Expr::Un(op, next));
        }
        let last = self.exprs.len();
        let (operand, height) = self.postfix()?;
        if last == first {
            return Ok((operand, height));
        }
        let height = self.above(height, (last - first) as u32)?;
        if let Expr::Un(_, a) = &mut self.exprs[last - 1] {
            *a = operand;
        }
        Ok((ExprId(first as u32), height))
    }

    fn postfix(&mut self) -> Result<(ExprId, u32), Error> {
        let line = self.line();
        let mut height = 1;
        let e = match self.peek() {
            TokenKind::Ident(name) => {
                self.bump()?;
                if self.eat(TokenKind::LParen)? {
                    return self.intrinsic(name, line);
                }
                if self.eat(TokenKind::LBracket)? {
                    let (idx, idx_height) = self.expr()?;
                    self.expect(TokenKind::RBracket)?;
                    height = self.above(idx_height, 1)?;
                    Expr::Elem(name, idx)
                } else if self.eat(TokenKind::At)? {
                    match self.bump()? {
                        TokenKind::Num(k) if (1..=i64::from(u32::MAX)).contains(&k) => {
                            Expr::Delay(name, k as u32)
                        }
                        other => {
                            let message = format!(
                                "delay `@` needs a positive literal (at most 2^32-1), found {}",
                                self.describe(other)
                            );
                            return Err(Error::parse(line, message));
                        }
                    }
                } else {
                    Expr::Name(name)
                }
            }
            TokenKind::Num(n) => {
                self.bump()?;
                Expr::Num(n)
            }
            TokenKind::LParen => {
                self.bump()?;
                let e = self.expr()?;
                self.expect(TokenKind::RParen)?;
                return Ok(e);
            }
            other => {
                let message = format!("expected expression, found {}", self.describe(other));
                return Err(Error::parse(line, message));
            }
        };
        Ok((self.push(e), height))
    }

    /// Resolves intrinsic calls: `sat`, `abs`, `round` (unary);
    /// `sadd`, `ssub`, `min`, `max` (binary).
    fn intrinsic(&mut self, name: NameId, line: u32) -> Result<(ExprId, u32), Error> {
        let (first, mut height) = self.expr()?;
        let (mut second, mut args) = (first, 1);
        while self.eat(TokenKind::Comma)? {
            let (arg, arg_height) = self.expr()?;
            height = height.max(arg_height);
            args += 1;
            if args == 2 {
                second = arg;
            }
        }
        self.expect(TokenKind::RParen)?;
        let name = self.spelling(name);
        let (arity, e) = match name {
            "sat" => (1, Expr::Un(UnOp::Sat, first)),
            "abs" => (1, Expr::Un(UnOp::Abs, first)),
            "round" => (1, Expr::Un(UnOp::Round, first)),
            "sadd" => (2, Expr::Bin(BinOp::SatAdd, first, second)),
            "ssub" => (2, Expr::Bin(BinOp::SatSub, first, second)),
            "min" => (2, Expr::Bin(BinOp::Min, first, second)),
            "max" => (2, Expr::Bin(BinOp::Max, first, second)),
            other => return Err(Error::parse(line, format!("unknown intrinsic `{other}`"))),
        };
        if args != arity {
            let message = format!("intrinsic `{name}` takes {arity} argument(s)");
            return Err(Error::parse(line, message));
        }
        let height = self.above(height, 1)?;
        Ok((self.push(e), height))
    }
}

/// The binary operator a token spells, with its precedence (1 binds
/// loosest).
fn binary_op(kind: TokenKind) -> Option<(BinOp, u8)> {
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

    /// The expression `e` of `p` printed back as source, fully
    /// parenthesized.
    fn show(p: &Program, e: ExprId) -> String {
        match p.expr(e) {
            Expr::Num(n) => n.to_string(),
            Expr::Name(n) => p.symbol(n).to_string(),
            Expr::Elem(n, i) => format!("{}[{}]", p.symbol(n), show(p, i)),
            Expr::Delay(n, k) => format!("{}@{k}", p.symbol(n)),
            Expr::Bin(op, a, b) => format!("({} {op:?} {})", show(p, a), show(p, b)),
            Expr::Un(op, a) => format!("{op:?}({})", show(p, a)),
        }
    }

    /// The value of the first statement of `src`, an assignment, printed
    /// by [`show`].
    fn first_value(src: &str) -> String {
        let p = parse(src).unwrap();
        let Stmt::Assign { value, .. } = p.stmts[0] else { panic!("an assignment") };
        show(&p, value)
    }

    #[test]
    fn parses_minimal_program() {
        let p = parse("program p; var a: fix; begin a := 1; end").unwrap();
        assert_eq!(p.symbol(p.name).as_str(), "p");
        assert_eq!(p.stmts.len(), 1);
    }

    #[test]
    fn parses_const_with_walrus_and_equals() {
        for src in [
            "program p; const N := 8; var a: fix[N]; begin a[0] := N; end",
            "program p; const N = 8; var a: fix[N]; begin a[0] := N; end",
        ] {
            let p = parse(src).unwrap();
            assert!(matches!(p.decls[0], Decl::Const { .. }));
        }
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let value = first_value("program p; var a,b,c,y: fix; begin y := a + b * c; end");
        assert_eq!(value, "(a Add (b Mul c))");
    }

    #[test]
    fn operators_bind_by_precedence_and_associate_left() {
        let value = first_value(
            "program p; var a,b,c,d,y: fix; begin y := a - b - c * d / a | b ^ c & d << 1 + a; end",
        );
        // ((a - b) - ((c * d) / a)) | (b ^ (c & (d << (1 + a))))
        assert_eq!(
            value,
            "(((a Sub b) Sub ((c Mul d) Div a)) Or (b Xor (c And (d Shl (1 Add a)))))"
        );
    }

    #[test]
    fn every_occurrence_of_a_name_shares_one_id() {
        let p = parse("program p; var x, y: fix; begin y := x + x; end").unwrap();
        assert_eq!(p.names.len(), 3);
        let Stmt::Assign { dst, value, .. } = p.stmts[0] else { panic!("an assignment") };
        assert_eq!(p.symbol(dst).as_str(), "y");
        let Expr::Bin(_, a, b) = p.expr(value) else { panic!("a sum") };
        assert_eq!(p.expr(a), p.expr(b));
    }

    #[test]
    fn parses_for_loop_with_array_access() {
        let p = parse(
            "program p; const N := 4; var a: fix[N]; var y: fix;
             begin for i in 0..N-1 loop y := y + a[i]; end loop; y := 0; end",
        )
        .unwrap();
        assert!(matches!(p.stmts[0], Stmt::For { end: 2, .. }));
        assert!(matches!(p.stmts[2], Stmt::Assign { .. }));
    }

    #[test]
    fn parses_intrinsics() {
        let value =
            first_value("program p; var a,b,y: fix; begin y := sadd(a, b) + sat(a * b); end");
        assert_eq!(value, "((a SatAdd b) Add Sat((a Mul b)))");
    }

    #[test]
    fn intrinsics_check_their_arity() {
        let e = parse("program p; var a,y: fix; begin y := sadd(a); end").unwrap_err();
        assert!(e.to_string().contains("`sadd` takes 2 argument(s)"), "{e}");
        let e = parse("program p; var a,y: fix; begin y := abs(a, a, a); end").unwrap_err();
        assert!(e.to_string().contains("`abs` takes 1 argument(s)"), "{e}");
    }

    #[test]
    fn parses_delay() {
        let value = first_value("program p; var x,y: fix; begin y := x@1 + x@2; end");
        assert_eq!(value, "(x@1 Add x@2)");
    }

    #[test]
    fn parses_declarations() {
        let p = parse(
            "program p; var a, b: fix[4] bank Y; in u: int; var y: fix; begin y := a[0]; end",
        )
        .unwrap();
        let Decl::Var(v) = &p.decls[0] else { panic!("a variable declaration") };
        let names: Vec<&str> = p.declared(v).iter().map(|&n| p.symbol(n).as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(v.bank, Some(crate::Bank::Y));
        assert!(v.len.is_some());
        let Decl::Var(u) = &p.decls[1] else { panic!("a variable declaration") };
        assert_eq!((u.kind, u.ty, u.len), (VarKind::In, BaseTy::Int, None));
        assert_eq!(p.declared(u).len(), 1);
    }

    #[test]
    fn rejects_unknown_intrinsic() {
        let e = parse("program p; var y: fix; begin y := frob(1); end").unwrap_err();
        assert!(e.to_string().contains("unknown intrinsic"));
    }

    #[test]
    fn rejects_missing_semicolon() {
        let e = parse("program p; var y: fix; begin y := 1 end").unwrap_err();
        assert_eq!(e.to_string(), "parse error at line 1: expected `;`, found keyword `end`");
    }

    #[test]
    fn rejects_bad_delay() {
        assert!(parse("program p; var x,y: fix; begin y := x@0; end").is_err());
    }

    #[test]
    fn empty_source_is_an_error_not_a_panic() {
        let e = parse("").unwrap_err();
        assert_eq!(
            e.to_string(),
            "parse error at line 1: expected keyword `program`, found end of input"
        );
    }

    #[test]
    fn a_lex_error_after_a_parse_error_wins() {
        let e = parse("program p; var y: fix; begin y := ; end ?").unwrap_err();
        assert_eq!(e.to_string(), "lex error at line 1: unexpected character `?`");
        let e = parse("program p; var y: fix; begin y := ; end").unwrap_err();
        assert!(matches!(e, Error::Parse { .. }), "{e}");
    }

    #[test]
    fn deep_parentheses_are_a_parse_error_not_a_stack_overflow() {
        let program = |depth: usize| {
            format!(
                "program p; var y: fix; begin y := {}1{}; end",
                "(".repeat(depth),
                ")".repeat(depth)
            )
        };
        // the statement's own expression is the first of the 200 levels
        assert!(parse(&program(199)).is_ok());
        for depth in [200, 5_000] {
            let e = parse(&program(depth)).unwrap_err();
            assert!(e.to_string().contains("nested too deeply"), "{e}");
        }
    }

    #[test]
    fn long_unary_chains_are_a_parse_error_not_an_overflow() {
        // `~` rather than `-`: a `--` run would lex as a comment. A
        // 10,000-deep chain would overflow downstream tree walks
        // (lowering), so it must be rejected at the cap …
        let src = format!("program p; var x, y: fix; begin y := {}x; end", "~".repeat(10_000));
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
        // … while chains comfortably under the cap still parse
        let src = format!("program p; var x, y: fix; begin y := {}x; end", "~".repeat(100));
        assert!(parse(&src).is_ok());
    }

    #[test]
    fn expression_trees_are_at_most_200_levels_high() {
        // each shape is a tree `n` levels high
        let shapes = |n: usize| {
            [
                ("left-deep sum", vec!["x"; n].join(" + ")),
                ("unary run", "~".repeat(n - 1) + "x"),
                ("element accesses", "a[".repeat(n - 1) + "0" + &"]".repeat(n - 1)),
                ("intrinsics", "sat(".repeat(n - 1) + "x" + &")".repeat(n - 1)),
            ]
        };
        let program =
            |expr: &str| format!("program p; var x, y: fix; var a: fix[2]; begin y := {expr}; end");
        for (shape, expr) in shapes(200) {
            assert!(parse(&program(&expr)).is_ok(), "{shape}");
        }
        for (shape, expr) in shapes(201) {
            let e = parse(&program(&expr)).unwrap_err();
            assert!(e.to_string().contains("nested too deeply"), "{shape}: {e}");
        }
    }

    #[test]
    fn unary_runs_inside_parentheses_count_toward_the_tree_height() {
        // runs of 199, 198, … 1 operators, each inside the parentheses of
        // the one before, nest 19,900 unary nodes: far over the cap
        let mut src = String::from("program p; var x, y: fix; begin y := ");
        for run in (1..200).rev() {
            src += &"~".repeat(run);
            src.push('(');
        }
        src += "x";
        src += &")".repeat(199);
        src += "; end";
        let e = parse(&src).unwrap_err();
        assert!(e.to_string().contains("nested too deeply"), "{e}");
    }

    #[test]
    fn for_loops_nest_at_most_200_deep() {
        let program = |depth: usize| {
            format!(
                "program p; var y: fix; begin {}y := 1; {}end",
                "for i in 0..1 loop ".repeat(depth),
                "end loop; ".repeat(depth)
            )
        };
        assert!(parse(&program(200)).is_ok());
        let e = parse(&program(201)).unwrap_err();
        assert!(e.to_string().contains("loops nested too deeply"), "{e}");
    }

    #[test]
    fn oversized_delay_is_rejected() {
        let e = parse("program p; var x,y: fix; begin y := x@4294967296; end").unwrap_err();
        assert!(e.to_string().contains("delay"), "{e}");
    }

    #[test]
    fn unary_minus_and_not() {
        let value = first_value("program p; var a,y: fix; begin y := -a + ~~a; end");
        assert_eq!(value, "(Neg(a) Add Not(Not(a)))");
        let value = first_value("program p; var a,b,y: fix; begin y := -~(a + ~-b) * ~a; end");
        assert_eq!(value, "(Neg(Not((a Add Not(Neg(b))))) Mul Not(a))");
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
        assert!(matches!(p.stmts[0], Stmt::For { end: 3, .. }));
        assert!(matches!(p.stmts[1], Stmt::For { end: 3, .. }));
        assert!(matches!(p.stmts[2], Stmt::Assign { line: 5, .. }));
    }
}
