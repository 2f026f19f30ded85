//! KPI equations over performance counters.
//!
//! "A KPI is typically defined using multiple performance counters. For
//! example, there are multiple counters to capture the reasons behind
//! voice call drops (cause codes)" (§2.2) — and "KPI equations often
//! change across major software releases and thus it is important for the
//! operations teams to quickly modify them" (§3.5.1).
//!
//! This module gives KPI equations a concrete form: a small arithmetic
//! expression language over named counter series, evaluated pointwise.
//!
//! ```text
//! kpi  := expr
//! expr := term (('+'|'-') term)*
//! term := factor (('*'|'/') factor)*
//! factor := NUMBER | COUNTER | '(' expr ')'
//! ```
//!
//! Division by zero yields `NaN` for that sample (missing measurement),
//! which the robust analytics already tolerate.
//!
//! The parser, [`Equation::counters`], [`Equation::evaluate`] and the
//! tree's drop all recurse over the expression, so its shape is bounded
//! at parse: at most [`MAX_NESTING`] levels of parentheses and unary
//! minus, and at most [`MAX_OPERATORS`] operators (a flat `a+a+…` chain
//! builds a tree as deep as it is long). Longer or deeper text is a
//! [`CornetError::Parse`], not a stack overflow.

use cornet_stats::TimeSeries;
use cornet_types::{CornetError, Result};
use std::collections::BTreeMap;

/// Deepest nesting of parentheses and unary minus an equation may have.
pub const MAX_NESTING: usize = 64;

/// Most operators, binary and unary, an equation may hold.
pub const MAX_OPERATORS: usize = 1024;

/// A parsed KPI equation.
#[derive(Clone, Debug, PartialEq)]
pub struct Equation {
    /// Original source text.
    pub source: String,
    root: Expr,
}

#[derive(Clone, Debug, PartialEq)]
enum Expr {
    Number(f64),
    Counter(String),
    Binary(Box<Expr>, Op, Box<Expr>),
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

#[derive(Clone, Debug, PartialEq)]
enum Token {
    Number(f64),
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Token>> {
    let mut tokens = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '+' => {
                chars.next();
                tokens.push(Token::Plus);
            }
            '-' => {
                chars.next();
                tokens.push(Token::Minus);
            }
            '*' => {
                chars.next();
                tokens.push(Token::Star);
            }
            '/' => {
                chars.next();
                tokens.push(Token::Slash);
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            '0'..='9' | '.' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_digit() || d == '.' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                let n: f64 = s
                    .parse()
                    .map_err(|_| CornetError::Parse(format!("bad number {s:?} in equation")))?;
                tokens.push(Token::Number(n));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&d) = chars.peek() {
                    if d.is_ascii_alphanumeric() || d == '_' {
                        s.push(d);
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Ident(s));
            }
            other => {
                return Err(CornetError::Parse(format!(
                    "unexpected character {other:?} in equation"
                )))
            }
        }
    }
    Ok(tokens)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Parentheses and unary minus open around the position.
    depth: usize,
    /// Operators read so far.
    operators: usize,
}

impl Parser {
    fn operator(&mut self) -> Result<()> {
        self.operators += 1;
        if self.operators > MAX_OPERATORS {
            return Err(CornetError::Parse(format!(
                "equation has more than {MAX_OPERATORS} operators"
            )));
        }
        Ok(())
    }

    /// Parse `inner` one nesting level down.
    fn nested(&mut self, inner: fn(&mut Self) -> Result<Expr>) -> Result<Expr> {
        if self.depth == MAX_NESTING {
            return Err(CornetError::Parse(format!(
                "equation nests deeper than {MAX_NESTING} levels"
            )));
        }
        self.depth += 1;
        let expr = inner(self);
        self.depth -= 1;
        expr
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        while let Some(op) = match self.peek() {
            Some(Token::Plus) => Some(Op::Add),
            Some(Token::Minus) => Some(Op::Sub),
            _ => None,
        } {
            self.next();
            self.operator()?;
            let rhs = self.term()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.factor()?;
        while let Some(op) = match self.peek() {
            Some(Token::Star) => Some(Op::Mul),
            Some(Token::Slash) => Some(Op::Div),
            _ => None,
        } {
            self.next();
            self.operator()?;
            let rhs = self.factor()?;
            lhs = Expr::Binary(Box::new(lhs), op, Box::new(rhs));
        }
        Ok(lhs)
    }

    fn factor(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Number(n)) => Ok(Expr::Number(n)),
            Some(Token::Ident(name)) => Ok(Expr::Counter(name)),
            Some(Token::Minus) => {
                // Unary minus: -x ≡ 0 - x.
                self.operator()?;
                let inner = self.nested(Self::factor)?;
                Ok(Expr::Binary(
                    Box::new(Expr::Number(0.0)),
                    Op::Sub,
                    Box::new(inner),
                ))
            }
            Some(Token::LParen) => {
                let inner = self.nested(Self::expr)?;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(CornetError::Parse("missing ')' in equation".into())),
                }
            }
            other => Err(CornetError::Parse(format!(
                "unexpected token {other:?} in equation"
            ))),
        }
    }
}

impl Equation {
    /// Parse an equation from text.
    pub fn parse(source: &str) -> Result<Equation> {
        let tokens = tokenize(source)?;
        if tokens.is_empty() {
            return Err(CornetError::Parse("empty equation".into()));
        }
        let mut parser = Parser {
            tokens,
            pos: 0,
            depth: 0,
            operators: 0,
        };
        let root = parser.expr()?;
        if parser.pos != parser.tokens.len() {
            return Err(CornetError::Parse(format!(
                "trailing tokens in equation {source:?}"
            )));
        }
        Ok(Equation {
            source: source.to_owned(),
            root,
        })
    }

    /// Counter names the equation references, sorted and deduplicated.
    pub fn counters(&self) -> Vec<&str> {
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
            match e {
                Expr::Number(_) => {}
                Expr::Counter(name) => out.push(name),
                Expr::Binary(l, _, r) => {
                    walk(l, out);
                    walk(r, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Evaluate the equation pointwise over counter series.
    ///
    /// All referenced counters must be present with identical grids; the
    /// result series has the shared grid. Missing samples (`NaN`) and
    /// division by zero propagate as `NaN`.
    pub fn evaluate(&self, counters: &BTreeMap<String, TimeSeries>) -> Result<TimeSeries> {
        let mut grid: Option<(u64, u64, usize)> = None;
        for name in self.counters() {
            let s = counters.get(name).ok_or_else(|| {
                CornetError::DataIntegrity(format!(
                    "equation '{}' references unknown counter '{name}'",
                    self.source
                ))
            })?;
            let this = (s.start_minute, s.step_minutes, s.len());
            match grid {
                None => grid = Some(this),
                Some(g) if g != this => {
                    return Err(CornetError::DataIntegrity(format!(
                        "counter '{name}' grid {this:?} differs from {g:?}"
                    )))
                }
                _ => {}
            }
        }
        let (start, step, len) = grid.unwrap_or((0, 60, 0));

        fn eval_at(e: &Expr, counters: &BTreeMap<String, TimeSeries>, i: usize) -> f64 {
            match e {
                Expr::Number(n) => *n,
                Expr::Counter(name) => counters[name].values[i],
                Expr::Binary(l, op, r) => {
                    let a = eval_at(l, counters, i);
                    let b = eval_at(r, counters, i);
                    match op {
                        Op::Add => a + b,
                        Op::Sub => a - b,
                        Op::Mul => a * b,
                        Op::Div => {
                            if b == 0.0 {
                                f64::NAN
                            } else {
                                a / b
                            }
                        }
                    }
                }
            }
        }

        let values = (0..len).map(|i| eval_at(&self.root, counters, i)).collect();
        Ok(TimeSeries::new(start, step, values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: Vec<f64>) -> TimeSeries {
        TimeSeries::new(0, 60, values)
    }

    fn counters(pairs: &[(&str, Vec<f64>)]) -> BTreeMap<String, TimeSeries> {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), series(v.clone())))
            .collect()
    }

    #[test]
    fn parse_and_evaluate_drop_rate() {
        // The classic cause-code drop rate.
        let eq = Equation::parse("100 * (drop_radio + drop_handover) / (attempts + 1)").unwrap();
        assert_eq!(
            eq.counters(),
            vec!["attempts", "drop_handover", "drop_radio"]
        );
        let c = counters(&[
            ("drop_radio", vec![1.0, 2.0]),
            ("drop_handover", vec![1.0, 0.0]),
            ("attempts", vec![99.0, 49.0]),
        ]);
        let out = eq.evaluate(&c).unwrap();
        assert_eq!(out.values, vec![2.0, 4.0]);
    }

    #[test]
    fn precedence_and_parentheses() {
        let c = counters(&[("a", vec![2.0]), ("b", vec![3.0]), ("d", vec![4.0])]);
        assert_eq!(
            Equation::parse("a + b * d")
                .unwrap()
                .evaluate(&c)
                .unwrap()
                .values,
            vec![14.0]
        );
        assert_eq!(
            Equation::parse("(a + b) * d")
                .unwrap()
                .evaluate(&c)
                .unwrap()
                .values,
            vec![20.0]
        );
        assert_eq!(
            Equation::parse("-a + b")
                .unwrap()
                .evaluate(&c)
                .unwrap()
                .values,
            vec![1.0]
        );
    }

    #[test]
    fn division_by_zero_is_nan() {
        let c = counters(&[("num", vec![5.0, 5.0]), ("den", vec![0.0, 2.0])]);
        let out = Equation::parse("num / den").unwrap().evaluate(&c).unwrap();
        assert!(out.values[0].is_nan());
        assert_eq!(out.values[1], 2.5);
    }

    #[test]
    fn nan_samples_propagate() {
        let c = counters(&[("x", vec![f64::NAN, 1.0])]);
        let out = Equation::parse("x * 2").unwrap().evaluate(&c).unwrap();
        assert!(out.values[0].is_nan());
        assert_eq!(out.values[1], 2.0);
    }

    #[test]
    fn unknown_counter_is_data_integrity_error() {
        let c = counters(&[("a", vec![1.0])]);
        let err = Equation::parse("a + ghost").unwrap().evaluate(&c);
        assert!(matches!(err, Err(CornetError::DataIntegrity(_))));
    }

    #[test]
    fn mismatched_grids_rejected() {
        let mut c = counters(&[("a", vec![1.0, 2.0])]);
        c.insert("b".into(), TimeSeries::new(0, 30, vec![1.0, 2.0]));
        let err = Equation::parse("a + b").unwrap().evaluate(&c);
        assert!(matches!(err, Err(CornetError::DataIntegrity(_))));
    }

    #[test]
    fn parse_errors() {
        assert!(Equation::parse("").is_err());
        assert!(Equation::parse("a +").is_err());
        assert!(Equation::parse("(a").is_err());
        assert!(Equation::parse("a b").is_err(), "trailing tokens");
        assert!(Equation::parse("a $ b").is_err(), "bad character");
        assert!(Equation::parse("1.2.3").is_err(), "bad number");
    }

    #[test]
    fn deep_or_long_equations_are_parse_errors_not_stack_overflows() {
        let refused = |src: &str, why: &str| match Equation::parse(src) {
            Err(CornetError::Parse(msg)) => assert!(msg.contains(why), "{msg}"),
            other => panic!("{} bytes parsed as {:?}", src.len(), other.map(|e| e.root)),
        };
        let n = 100_000;
        refused(
            &format!("{}a{}", "(".repeat(n), ")".repeat(n)),
            "nests deeper than 64 levels",
        );
        refused(
            &format!("{}a", "-".repeat(n)),
            "nests deeper than 64 levels",
        );
        refused(&vec!["a"; n].join("+"), "more than 1024 operators");
        refused(&vec!["a"; n].join("*"), "more than 1024 operators");

        // Up to the bounds, the recursive walks run.
        let c = counters(&[("a", vec![1.0, 2.0])]);
        let deep = format!("{}a{}", "(".repeat(MAX_NESTING), ")".repeat(MAX_NESTING));
        assert_eq!(
            Equation::parse(&deep).unwrap().evaluate(&c).unwrap().values,
            [1.0, 2.0]
        );
        assert!(Equation::parse(&format!("({deep})")).is_err());
        let negated = format!("{}a", "-".repeat(MAX_NESTING));
        assert_eq!(
            Equation::parse(&negated)
                .unwrap()
                .evaluate(&c)
                .unwrap()
                .values,
            [1.0, 2.0]
        );
        let chain = vec!["a"; MAX_OPERATORS + 1].join("+");
        let eq = Equation::parse(&chain).unwrap();
        assert_eq!(eq.counters(), ["a"]);
        assert_eq!(eq.evaluate(&c).unwrap().values, [1025.0, 2050.0]);
        assert!(Equation::parse(&format!("{chain}+a")).is_err());
    }

    #[test]
    fn constant_equation_has_empty_grid() {
        let out = Equation::parse("42")
            .unwrap()
            .evaluate(&BTreeMap::new())
            .unwrap();
        assert!(out.is_empty(), "no counters → no grid → empty series");
    }
}
