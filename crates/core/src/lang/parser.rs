//! Recursive-descent parser for FAIL.

use std::fmt;

use super::ast::*;
use super::lexer::{lex, LexError, Spanned, Tok};

/// A parse error with source position.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub message: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parses FAIL source into an AST.
pub fn parse(src: &str) -> Result<ScenarioAst, ParseError> {
    let toks = lex(src)?;
    Parser { toks, pos: 0, expr_nodes: 0 }.scenario()
}

/// How many operators, negations, parentheses and `FAIL_RANDOM` calls one
/// expression may hold. Each of them deepens this parser's recursion or
/// the expression tree by one, so the cap bounds both — and with the
/// tree's height the recursion of everything that walks or drops it
/// (`compile`, `pretty`, the runtime's evaluator). Without it a few
/// kilobytes of `((((…` or `1+1+1+…` overflow the stack.
pub const MAX_EXPR_NODES: u32 = 256;

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Nodes counted against [`MAX_EXPR_NODES`] in the expression being
    /// parsed.
    expr_nodes: u32,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|s| &s.tok)
    }

    fn here(&self) -> (u32, u32) {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or((0, 0), |s| (s.line, s.col))
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        let (line, col) = self.here();
        Err(ParseError {
            message: msg.into(),
            line,
            col,
        })
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|s| s.tok.clone());
        self.pos += 1;
        t
    }

    fn expect(&mut self, t: &Tok) -> Result<(), ParseError> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            let found = self
                .peek()
                .map_or("end of input".to_string(), |t| format!("`{t}`"));
            self.err(format!("expected `{t}`, found {found}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(_)) => {
                let Some(Tok::Ident(s)) = self.bump() else {
                    unreachable!()
                };
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn int(&mut self) -> Result<i64, ParseError> {
        match self.peek() {
            Some(Tok::Int(_)) => {
                let Some(Tok::Int(n)) = self.bump() else {
                    unreachable!()
                };
                Ok(n)
            }
            _ => self.err("expected integer"),
        }
    }

    fn keyword(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Tok::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Tok::Ident(s)) if s == kw)
    }

    fn scenario(&mut self) -> Result<ScenarioAst, ParseError> {
        let mut out = ScenarioAst::default();
        while self.peek().is_some() {
            let line = self.here().0;
            if self.keyword("param") {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let default = self.expr()?;
                self.expect(&Tok::Semi)?;
                out.params.push(ParamAst {
                    name,
                    default,
                    line,
                });
            } else if self.keyword("daemon") {
                out.daemons.push(self.daemon(line)?);
            } else if self.keyword("instance") {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let class = self.ident()?;
                self.expect(&Tok::Semi)?;
                out.instances.push(InstanceAst { name, class, line });
            } else if self.keyword("group") {
                let name = self.ident()?;
                self.expect(&Tok::LBracket)?;
                let len = self.int()?;
                if len < 0 || len > u32::MAX as i64 {
                    return self.err("group length out of range");
                }
                self.expect(&Tok::RBracket)?;
                self.expect(&Tok::Eq)?;
                let class = self.ident()?;
                self.expect(&Tok::Semi)?;
                out.groups.push(GroupAst {
                    name,
                    len: len as u32,
                    class,
                    line,
                });
            } else {
                return self.err("expected `param`, `daemon`, `instance` or `group`");
            }
        }
        Ok(out)
    }

    fn daemon(&mut self, line: u32) -> Result<DaemonAst, ParseError> {
        let name = self.ident()?;
        self.expect(&Tok::LBrace)?;
        let mut vars = Vec::new();
        let mut probes = Vec::new();
        loop {
            if self.at_keyword("int") {
                let dline = self.here().0;
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let init = self.expr()?;
                self.expect(&Tok::Semi)?;
                vars.push(VarDeclAst {
                    name,
                    init,
                    line: dline,
                });
            } else if self.at_keyword("probe") {
                let dline = self.here().0;
                self.pos += 1;
                let name = self.ident()?;
                self.expect(&Tok::Semi)?;
                probes.push(ProbeDeclAst { name, line: dline });
            } else {
                break;
            }
        }
        let mut nodes = Vec::new();
        while self.at_keyword("node") {
            nodes.push(self.node()?);
        }
        if nodes.is_empty() {
            return self.err(format!("daemon `{name}` has no nodes"));
        }
        self.expect(&Tok::RBrace)?;
        Ok(DaemonAst {
            name,
            vars,
            probes,
            nodes,
            line,
        })
    }

    fn node(&mut self) -> Result<NodeAst, ParseError> {
        let line = self.here().0;
        assert!(self.keyword("node"));
        // Tolerate the paper's "node node 1:" typo style.
        self.keyword("node");
        let label = self.int()?;
        self.expect(&Tok::Colon)?;
        let mut node = NodeAst {
            label,
            always: Vec::new(),
            timers: Vec::new(),
            transitions: Vec::new(),
            line,
        };
        loop {
            let iline = self.here().0;
            if self.at_keyword("node") || self.peek() == Some(&Tok::RBrace) || self.peek().is_none()
            {
                break;
            }
            if self.keyword("always") {
                if !self.keyword("int") {
                    return self.err("expected `int` after `always`");
                }
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let init = self.expr()?;
                self.expect(&Tok::Semi)?;
                node.always.push(VarDeclAst {
                    name,
                    init,
                    line: iline,
                });
            } else if self.keyword("timer") {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                let delay = self.expr()?;
                self.expect(&Tok::Semi)?;
                node.timers.push(TimerDeclAst {
                    name,
                    delay,
                    line: iline,
                });
            } else {
                node.transitions.push(self.transition(iline)?);
            }
        }
        Ok(node)
    }

    fn transition(&mut self, line: u32) -> Result<TransitionAst, ParseError> {
        let guard = match self.peek() {
            Some(Tok::Question) => {
                self.pos += 1;
                GuardAst::Recv(self.ident()?)
            }
            Some(Tok::Ident(s)) if s == "onload" => {
                self.pos += 1;
                GuardAst::OnLoad
            }
            Some(Tok::Ident(s)) if s == "onexit" => {
                self.pos += 1;
                GuardAst::OnExit
            }
            Some(Tok::Ident(s)) if s == "onerror" => {
                self.pos += 1;
                GuardAst::OnError
            }
            Some(Tok::Ident(s)) if s == "before" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let f = self.ident()?;
                self.expect(&Tok::RParen)?;
                GuardAst::Before(f)
            }
            Some(Tok::Ident(s)) if s == "onchange" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let v = self.ident()?;
                self.expect(&Tok::RParen)?;
                GuardAst::Change(v)
            }
            Some(Tok::Ident(_)) => GuardAst::Timer(self.ident()?),
            _ => return self.err("expected a transition guard"),
        };
        let mut conds = Vec::new();
        while self.peek() == Some(&Tok::AndAnd) {
            self.pos += 1;
            conds.push(self.expr()?);
        }
        self.expect(&Tok::Arrow)?;
        let mut actions = vec![self.action()?];
        while self.peek() == Some(&Tok::Comma) {
            self.pos += 1;
            actions.push(self.action()?);
        }
        self.expect(&Tok::Semi)?;
        Ok(TransitionAst {
            guard,
            conds,
            actions,
            line,
        })
    }

    fn action(&mut self) -> Result<ActionAst, ParseError> {
        match self.peek() {
            Some(Tok::Bang) => {
                self.pos += 1;
                let msg = self.ident()?;
                self.expect(&Tok::LParen)?;
                let dest = self.dest()?;
                self.expect(&Tok::RParen)?;
                Ok(ActionAst::Send { msg, dest })
            }
            Some(Tok::Ident(s)) if s == "goto" => {
                self.pos += 1;
                Ok(ActionAst::Goto(self.int()?))
            }
            Some(Tok::Ident(s)) if s == "halt" => {
                self.pos += 1;
                Ok(ActionAst::Halt)
            }
            Some(Tok::Ident(s)) if s == "stop" => {
                self.pos += 1;
                Ok(ActionAst::Stop)
            }
            Some(Tok::Ident(s)) if s == "continue" => {
                self.pos += 1;
                Ok(ActionAst::Continue)
            }
            Some(Tok::Ident(_)) => {
                let name = self.ident()?;
                self.expect(&Tok::Eq)?;
                Ok(ActionAst::Assign(name, self.expr()?))
            }
            _ => self.err("expected an action"),
        }
    }

    fn dest(&mut self) -> Result<DestAst, ParseError> {
        let name = self.ident()?;
        if name == "FAIL_SENDER" {
            return Ok(DestAst::Sender);
        }
        if self.peek() == Some(&Tok::LBracket) {
            self.pos += 1;
            let idx = self.expr()?;
            self.expect(&Tok::RBracket)?;
            Ok(DestAst::Group(name, idx))
        } else {
            Ok(DestAst::Instance(name))
        }
    }

    /// A whole expression, at statement level.
    fn expr(&mut self) -> Result<ExprAst, ParseError> {
        self.expr_nodes = 0;
        self.conjunction()
    }

    /// Counts one more node of the current expression against the cap.
    fn grow(&mut self) -> Result<(), ParseError> {
        self.expr_nodes += 1;
        if self.expr_nodes > MAX_EXPR_NODES {
            return self.err(format!(
                "expression too deep: more than {MAX_EXPR_NODES} operators and parentheses"
            ));
        }
        Ok(())
    }

    // Precedence: && < comparisons < additive < multiplicative < unary.
    fn conjunction(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.comparison()?;
        while self.peek() == Some(&Tok::AndAnd) {
            // Only inside parentheses: at statement level `&&` separates
            // guard conditions, which the transition parser consumes first.
            self.grow()?;
            self.pos += 1;
            let rhs = self.comparison()?;
            lhs = ExprAst::Bin(BinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn comparison(&mut self) -> Result<ExprAst, ParseError> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Some(Tok::EqEq) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.grow()?;
        self.pos += 1;
        let rhs = self.additive()?;
        Ok(ExprAst::Bin(op, Box::new(lhs), Box::new(rhs)))
    }

    fn additive(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.grow()?;
            self.pos += 1;
            let rhs = self.multiplicative()?;
            lhs = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn multiplicative(&mut self) -> Result<ExprAst, ParseError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Star) => BinOp::Mul,
                Some(Tok::Slash) => BinOp::Div,
                _ => return Ok(lhs),
            };
            self.grow()?;
            self.pos += 1;
            let rhs = self.unary()?;
            lhs = ExprAst::Bin(op, Box::new(lhs), Box::new(rhs));
        }
    }

    fn unary(&mut self) -> Result<ExprAst, ParseError> {
        if self.peek() == Some(&Tok::Minus) {
            self.grow()?;
            self.pos += 1;
            // Fold `-LITERAL` into a negative literal so that the AST is
            // canonical: the pretty-printer renders `ExprAst::Int(-7)` as
            // `-7`, and without this fold reparsing would yield the
            // distinct tree `Neg(Int(7))`, breaking the
            // `parse ∘ pretty = id` round-trip property.
            return Ok(match self.unary()? {
                ExprAst::Int(n) => ExprAst::Int(n.wrapping_neg()),
                e => ExprAst::Neg(Box::new(e)),
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<ExprAst, ParseError> {
        match self.peek() {
            Some(Tok::Int(_)) => Ok(ExprAst::Int(self.int()?)),
            Some(Tok::LParen) => {
                self.grow()?;
                self.pos += 1;
                let e = self.conjunction()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(s)) if s == "FAIL_RANDOM" => {
                self.grow()?;
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let lo = self.conjunction()?;
                self.expect(&Tok::Comma)?;
                let hi = self.conjunction()?;
                self.expect(&Tok::RParen)?;
                Ok(ExprAst::Rand(Box::new(lo), Box::new(hi)))
            }
            Some(Tok::Ident(_)) => Ok(ExprAst::Name(self.ident()?)),
            _ => self.err("expected an expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig4_style_daemon() {
        let src = r#"
            daemon ADV2 {
              node 1:
                onload -> continue, goto 2;
                ?crash -> !no(P1), goto 1;
              node 2:
                onexit -> goto 1;
                onerror -> goto 1;
                onload -> continue, goto 2;
                ?crash -> !ok(P1), halt, goto 1;
            }
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.daemons.len(), 1);
        let d = &ast.daemons[0];
        assert_eq!(d.name, "ADV2");
        assert_eq!(d.nodes.len(), 2);
        assert_eq!(d.nodes[0].transitions.len(), 2);
        assert_eq!(d.nodes[1].transitions.len(), 4);
        assert_eq!(d.nodes[1].transitions[3].actions.len(), 3);
        assert!(matches!(
            d.nodes[1].transitions[3].guard,
            GuardAst::Recv(ref m) if m == "crash"
        ));
    }

    #[test]
    fn parses_timers_always_and_params() {
        let src = r#"
            param X = 50;
            param N = 52;
            daemon ADV1 {
              node 1:
                always int ran = FAIL_RANDOM(0, N);
                timer g_timer = X;
                g_timer -> !crash(G1[ran]), goto 2;
              node 2:
                always int ran = FAIL_RANDOM(0, N);
                ?ok -> goto 1;
                ?no -> !crash(G1[ran]), goto 2;
            }
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.params.len(), 2);
        let d = &ast.daemons[0];
        assert_eq!(d.nodes[0].always.len(), 1);
        assert_eq!(d.nodes[0].timers.len(), 1);
        assert!(matches!(
            d.nodes[0].transitions[0].guard,
            GuardAst::Timer(ref t) if t == "g_timer"
        ));
        assert!(matches!(
            d.nodes[0].transitions[0].actions[0],
            ActionAst::Send {
                dest: DestAst::Group(ref g, _),
                ..
            } if g == "G1"
        ));
    }

    #[test]
    fn parses_guard_conditions_and_assignments() {
        let src = r#"
            daemon A {
              int nb_crash = 3;
              node 2:
                ?ok && nb_crash > 1 ->
                    !crash(G1[0]),
                    nb_crash = nb_crash - 1,
                    goto 2;
                ?ok && nb_crash <= 1 -> nb_crash = 3, goto 1;
              node 1:
                ?no -> goto 2;
            }
        "#;
        let ast = parse(src).unwrap();
        let d = &ast.daemons[0];
        assert_eq!(d.vars.len(), 1);
        let t = &d.nodes[0].transitions[0];
        assert_eq!(t.conds.len(), 1);
        assert!(matches!(
            t.actions[1],
            ActionAst::Assign(ref v, _) if v == "nb_crash"
        ));
    }

    #[test]
    fn parses_before_and_sender() {
        let src = r#"
            daemon G {
              node 4:
                before(localMPI_setCommand) -> halt, goto 5;
              node 5:
                ?waveok -> !nocrash(FAIL_SENDER), goto 5;
            }
        "#;
        let ast = parse(src).unwrap();
        let d = &ast.daemons[0];
        assert!(matches!(
            d.nodes[0].transitions[0].guard,
            GuardAst::Before(ref f) if f == "localMPI_setCommand"
        ));
        assert!(matches!(
            d.nodes[1].transitions[0].actions[0],
            ActionAst::Send {
                dest: DestAst::Sender,
                ..
            }
        ));
    }

    #[test]
    fn parses_deployment_sugar() {
        let src = r#"
            daemon A { node 1: ?x -> goto 1; }
            instance P1 = A;
            group G1[53] = A;
        "#;
        let ast = parse(src).unwrap();
        assert_eq!(ast.instances.len(), 1);
        assert_eq!(ast.groups[0].len, 53);
    }

    #[test]
    fn tolerates_paper_node_node_typo() {
        let src = "daemon A { node node 1: ?x -> goto 1; }";
        let ast = parse(src).unwrap();
        assert_eq!(ast.daemons[0].nodes[0].label, 1);
    }

    #[test]
    fn expression_precedence() {
        let src = "param P = 1 + 2 * 3;";
        let ast = parse(src).unwrap();
        // 1 + (2 * 3)
        assert_eq!(
            ast.params[0].default,
            ExprAst::Bin(
                BinOp::Add,
                Box::new(ExprAst::Int(1)),
                Box::new(ExprAst::Bin(
                    BinOp::Mul,
                    Box::new(ExprAst::Int(2)),
                    Box::new(ExprAst::Int(3))
                ))
            )
        );
    }

    #[test]
    fn error_reports_position() {
        let err = parse("daemon A { node 1: ?x goto 1; }").unwrap_err();
        assert!(err.message.contains("expected `->`"), "{err}");
        assert_eq!(err.line, 1);
    }

    #[test]
    fn empty_daemon_rejected() {
        assert!(parse("daemon A { }").is_err());
    }
}
