//! Recursive-descent parser for the SQL subset.
//!
//! Grammar (keywords case-insensitive):
//!
//! ```text
//! query      := SELECT items FROM table_ref [tablesample] [WHERE expr]
//!               [GROUP BY ident (',' ident)*] [HAVING expr]
//!               [ORDER BY ident [ASC|DESC]] [LIMIT n]
//!               [error_clause] [';']
//! items      := item (',' item)*
//! item       := agg '(' ('*' | expr [',' number]) ')' [AS ident] | ident
//! table_ref  := ident | '(' query ')'
//! tablesample:= TABLESAMPLE POISSONIZED '(' number ')'
//! error_clause := WITHIN number '%' ERROR [AT CONFIDENCE number '%']
//! expr       := or; or := and (OR and)*; and := not (AND not)*;
//! not        := [NOT] cmp; cmp := add [cmpop add];
//! add        := mul (('+'|'-') mul)*; mul := unary (('*'|'/') unary)*;
//! unary      := ['-'] primary;
//! primary    := number | string | ident ['(' expr (',' expr)* ')'] | '(' expr ')'
//! ```

use aqp_storage::Value;

use crate::ast::{
    AggExpr, AggFunc, BinOp, ErrorClause, Expr, Query, SelectItem, TableRef, TableSample,
};
use crate::lexer::{tokenize, Sym, Token};
use crate::{Result, SqlError};

/// Names recognized as built-in aggregates.
const AGG_NAMES: &[&str] =
    &["avg", "sum", "count", "min", "max", "variance", "var", "stddev", "stdev", "percentile"];

/// Scalar functions allowed inside expressions.
const SCALAR_FUNCS: &[&str] = &["log", "ln", "exp", "sqrt", "abs", "ifnull", "pow"];

/// Bump a well-known counter on the global metrics registry: one short
/// registry lock and one map lookup, as a per-name handle cache would cost.
pub(crate) fn count_one(name: &'static str) {
    aqp_obs::MetricsRegistry::global().counter(name).inc();
}

/// Parse one query from `input`.
pub fn parse_query(input: &str) -> Result<Query> {
    count_one(aqp_obs::name::SQL_QUERIES_PARSED);
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    p.consume_symbol_if(Sym::Semi);
    if !p.at_end() {
        return Err(p.error(format!("unexpected trailing tokens starting at {:?}", p.peek())));
    }
    Ok(q)
}

/// Parse a statement that may be prefixed with `EXPLAIN`.
///
/// Returns `(explain_requested, query)`.
pub fn parse_statement(input: &str) -> Result<(bool, Query)> {
    let trimmed = input.trim_start();
    if trimmed.len() >= 7 && trimmed[..7].eq_ignore_ascii_case("explain") {
        Ok((true, parse_query(&trimmed[7..])?))
    } else {
        Ok((false, parse_query(input)?))
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn peek2(&self) -> Option<&Token> {
        self.tokens.get(self.pos + 1)
    }

    fn advance(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: String) -> SqlError {
        SqlError::Parse { message }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Word(w)) if w.eq_ignore_ascii_case(kw))
    }

    fn consume_keyword(&mut self, kw: &str) -> Result<()> {
        if self.peek_keyword(kw) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected keyword {kw}, found {:?}", self.peek())))
        }
    }

    fn consume_keyword_if(&mut self, kw: &str) -> bool {
        if self.peek_keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn consume_symbol(&mut self, s: Sym) -> Result<()> {
        match self.peek() {
            Some(Token::Symbol(t)) if *t == s => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.error(format!("expected {s:?}, found {other:?}"))),
        }
    }

    fn consume_symbol_if(&mut self, s: Sym) -> bool {
        if matches!(self.peek(), Some(Token::Symbol(t)) if *t == s) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn identifier(&mut self) -> Result<String> {
        match self.advance() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(self.error(format!("expected identifier, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<f64> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(i as f64),
            Some(Token::Float(f)) => Ok(f),
            other => Err(self.error(format!("expected number, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.consume_keyword("select")?;
        let mut select = vec![self.select_item()?];
        while self.consume_symbol_if(Sym::Comma) {
            select.push(self.select_item()?);
        }
        self.consume_keyword("from")?;
        let from = if self.consume_symbol_if(Sym::LParen) {
            let inner = self.query()?;
            self.consume_symbol(Sym::RParen)?;
            TableRef::Subquery(Box::new(inner))
        } else {
            TableRef::Table(self.identifier()?)
        };

        let tablesample = if self.consume_keyword_if("tablesample") {
            self.consume_keyword("poissonized")?;
            self.consume_symbol(Sym::LParen)?;
            let rate100 = self.number()?;
            self.consume_symbol(Sym::RParen)?;
            Some(TableSample { rate: rate100 / 100.0 })
        } else {
            None
        };

        let where_clause =
            if self.consume_keyword_if("where") { Some(self.expr()?) } else { None };

        let mut group_by = Vec::new();
        if self.consume_keyword_if("group") {
            self.consume_keyword("by")?;
            group_by.push(self.identifier()?);
            while self.consume_symbol_if(Sym::Comma) {
                group_by.push(self.identifier()?);
            }
        }

        let having = if self.consume_keyword_if("having") {
            Some(self.expr()?)
        } else {
            None
        };

        let order_by = if self.consume_keyword_if("order") {
            self.consume_keyword("by")?;
            let column = self.identifier()?;
            let descending = if self.consume_keyword_if("desc") {
                true
            } else {
                self.consume_keyword_if("asc");
                false
            };
            Some(crate::ast::OrderBy { column, descending })
        } else {
            None
        };

        let limit = if self.consume_keyword_if("limit") {
            let n = self.number()?;
            if n < 0.0 || n.fract() != 0.0 {
                return Err(self.error(format!("LIMIT must be a non-negative integer, got {n}")));
            }
            Some(n as usize)
        } else {
            None
        };

        let error_clause = if self.consume_keyword_if("within") {
            let rel = self.number()?;
            if !(rel.is_finite() && rel >= 0.0) {
                return Err(self.error(format!("WITHIN needs a finite, non-negative error, got {rel}%")));
            }
            self.consume_symbol(Sym::Percent)?;
            self.consume_keyword("error")?;
            let confidence = if self.consume_keyword_if("at") {
                self.consume_keyword("confidence")?;
                let c = self.number()?;
                // An interval is read off a quantile strictly inside (0, 1).
                if !(c > 0.0 && c < 100.0) {
                    return Err(self.error(format!("CONFIDENCE must lie strictly between 0% and 100%, got {c}%")));
                }
                self.consume_symbol(Sym::Percent)?;
                c / 100.0
            } else {
                0.95
            };
            Some(ErrorClause { relative_error: rel / 100.0, confidence })
        } else {
            None
        };

        Ok(Query {
            select,
            from,
            tablesample,
            where_clause,
            group_by,
            having,
            order_by,
            limit,
            error_clause,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        // Aggregate (built-in or UDF) iff word followed by '('; bare word
        // is a group-by column reference.
        let is_call = matches!(self.peek(), Some(Token::Word(_)))
            && matches!(self.peek2(), Some(Token::Symbol(Sym::LParen)));
        if !is_call {
            let name = self.identifier()?;
            return Ok(SelectItem::Column(name));
        }
        let name = self.identifier()?;
        let lname = name.to_ascii_lowercase();
        self.consume_symbol(Sym::LParen)?;

        let agg = if lname == "count" && self.consume_symbol_if(Sym::Star) {
            self.consume_symbol(Sym::RParen)?;
            AggExpr { func: AggFunc::Count, arg: None }
        } else {
            let arg = self.expr()?;
            let func = match lname.as_str() {
                "avg" => AggFunc::Avg,
                "sum" => AggFunc::Sum,
                "count" => AggFunc::Count,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                "variance" | "var" => AggFunc::Variance,
                "stddev" | "stdev" => AggFunc::StdDev,
                "percentile" => {
                    self.consume_symbol(Sym::Comma)?;
                    let q = self.number()?;
                    let q = if q > 1.0 { q / 100.0 } else { q };
                    if !(0.0..=1.0).contains(&q) {
                        return Err(self.error(format!("percentile level {q} out of range")));
                    }
                    AggFunc::Percentile(q)
                }
                _ => {
                    if SCALAR_FUNCS.contains(&lname.as_str()) {
                        return Err(self.error(format!(
                            "scalar function {name} cannot appear bare in SELECT; wrap it in an aggregate"
                        )));
                    }
                    AggFunc::Udf(lname.clone())
                }
            };
            self.consume_symbol(Sym::RParen)?;
            AggExpr { func, arg: Some(arg) }
        };

        let alias = if self.consume_keyword_if("as") { Some(self.identifier()?) } else { None };
        Ok(SelectItem::Agg(agg, alias))
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while self.consume_keyword_if("or") {
            let rhs = self.and_expr()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while self.consume_keyword_if("and") {
            let rhs = self.not_expr()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.consume_keyword_if("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.cmp_expr()
        }
    }

    fn cmp_expr(&mut self) -> Result<Expr> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Token::Symbol(Sym::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Sym::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Sym::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Sym::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Sym::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Sym::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let rhs = self.add_expr()?;
            Ok(Expr::binary(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn add_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.mul_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Plus)) => BinOp::Add,
                Some(Token::Symbol(Sym::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.mul_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn mul_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.unary_expr()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Sym::Star)) => BinOp::Mul,
                Some(Token::Symbol(Sym::Slash)) => BinOp::Div,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.unary_expr()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn unary_expr(&mut self) -> Result<Expr> {
        if self.consume_symbol_if(Sym::Minus) {
            Ok(Expr::Neg(Box::new(self.unary_expr()?)))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.advance() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Word(w)) => {
                let lw = w.to_ascii_lowercase();
                if matches!(lw.as_str(), "true" | "false") {
                    return Ok(Expr::Literal(Value::Bool(lw == "true")));
                }
                if lw == "null" {
                    return Ok(Expr::Literal(Value::Null));
                }
                if matches!(self.peek(), Some(Token::Symbol(Sym::LParen))) {
                    if AGG_NAMES.contains(&lw.as_str()) {
                        return Err(self.error(format!(
                            "aggregate {w} not allowed inside a scalar expression"
                        )));
                    }
                    if !SCALAR_FUNCS.contains(&lw.as_str()) {
                        return Err(self.error(format!("unknown scalar function {w}")));
                    }
                    self.pos += 1; // '('
                    let mut args = vec![self.expr()?];
                    while self.consume_symbol_if(Sym::Comma) {
                        args.push(self.expr()?);
                    }
                    self.consume_symbol(Sym::RParen)?;
                    return Ok(Expr::Func { name: lw, args });
                }
                Ok(Expr::Column(w))
            }
            Some(Token::Symbol(Sym::LParen)) => {
                let e = self.expr()?;
                self.consume_symbol(Sym::RParen)?;
                Ok(e)
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_running_example() {
        let q = parse_query("SELECT AVG(Time) FROM Sessions WHERE City = 'NYC'").unwrap();
        assert_eq!(q.select.len(), 1);
        match &q.select[0] {
            SelectItem::Agg(a, None) => {
                assert_eq!(a.func, AggFunc::Avg);
                assert_eq!(a.arg, Some(Expr::col("Time")));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(q.from, TableRef::Table("Sessions".into()));
        assert!(q.where_clause.is_some());
        assert!(q.error_clause.is_none());
    }

    #[test]
    fn parses_error_clause() {
        let q = parse_query(
            "SELECT SUM(bytes) FROM events WITHIN 10% ERROR AT CONFIDENCE 95%",
        )
        .unwrap();
        let e = q.error_clause.unwrap();
        assert!((e.relative_error - 0.10).abs() < 1e-12);
        assert!((e.confidence - 0.95).abs() < 1e-12);
    }

    #[test]
    fn error_clause_defaults_confidence() {
        let q = parse_query("SELECT COUNT(*) FROM t WITHIN 5% ERROR").unwrap();
        let e = q.error_clause.unwrap();
        assert!((e.confidence - 0.95).abs() < 1e-12);
    }

    #[test]
    fn error_clause_refuses_a_confidence_no_quantile_has() {
        for clause in ["AT CONFIDENCE 100%", "AT CONFIDENCE 150%", "AT CONFIDENCE 0%", "AT CONFIDENCE 1e400%"] {
            let err = parse_query(&format!("SELECT AVG(x) FROM t WITHIN 5% ERROR {clause}")).unwrap_err();
            assert!(matches!(err, SqlError::Parse { .. }), "{clause}: {err:?}");
        }
        assert!(parse_query("SELECT AVG(x) FROM t WITHIN 1e400% ERROR").is_err());
        let edge = parse_query("SELECT AVG(x) FROM t WITHIN 0% ERROR AT CONFIDENCE 99.9%").unwrap();
        assert_eq!(edge.error_clause.map(|e| e.relative_error), Some(0.0));
    }

    #[test]
    fn parses_tablesample_poissonized() {
        let q = parse_query("SELECT COUNT(*) FROM t TABLESAMPLE POISSONIZED (100)").unwrap();
        assert!((q.tablesample.unwrap().rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parses_group_by_and_aliases() {
        let q = parse_query(
            "SELECT city, AVG(time) AS avg_time, COUNT(*) FROM s GROUP BY city",
        )
        .unwrap();
        assert_eq!(q.group_by, vec!["city".to_string()]);
        assert_eq!(q.select.len(), 3);
        match &q.select[1] {
            SelectItem::Agg(_, Some(alias)) => assert_eq!(alias, "avg_time"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_having() {
        let q = parse_query(
            "SELECT city, COUNT(*) AS c FROM s GROUP BY city HAVING c > 100",
        )
        .unwrap();
        assert_eq!(q.having.as_ref().unwrap().to_string(), "(c > 100)");
        // Round-trips through Display.
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn parse_statement_handles_explain_prefix() {
        let (explain, q) = parse_statement("EXPLAIN SELECT COUNT(*) FROM t").unwrap();
        assert!(explain);
        assert_eq!(q.aggregates().len(), 1);
        let (explain, _) = parse_statement("select count(*) from t").unwrap();
        assert!(!explain);
        assert!(parse_statement("EXPLAIN nonsense").is_err());
    }

    #[test]
    fn parses_order_by_and_limit() {
        let q = parse_query(
            "SELECT city, COUNT(*) AS c FROM s GROUP BY city ORDER BY c DESC LIMIT 5",
        )
        .unwrap();
        let o = q.order_by.as_ref().unwrap();
        assert_eq!(o.column, "c");
        assert!(o.descending);
        assert_eq!(q.limit, Some(5));
        // ASC and default direction.
        let q = parse_query("SELECT city, COUNT(*) AS c FROM s GROUP BY city ORDER BY city ASC")
            .unwrap();
        assert!(!q.order_by.unwrap().descending);
        // Round trip.
        let q = parse_query(
            "SELECT city, COUNT(*) AS c FROM s GROUP BY city HAVING c > 1 ORDER BY c DESC LIMIT 3 WITHIN 5% ERROR",
        )
        .unwrap();
        assert_eq!(parse_query(&q.to_string()).unwrap(), q);
        // Bad limits rejected.
        assert!(parse_query("SELECT COUNT(*) FROM s LIMIT 1.5").is_err());
        assert!(parse_query("SELECT COUNT(*) FROM s LIMIT -1").is_err());
    }

    #[test]
    fn parses_percentile_two_arg() {
        let q = parse_query("SELECT PERCENTILE(latency, 99) FROM t").unwrap();
        match &q.select[0] {
            SelectItem::Agg(a, _) => assert_eq!(a.func, AggFunc::Percentile(0.99)),
            other => panic!("{other:?}"),
        }
        let q = parse_query("SELECT PERCENTILE(latency, 0.5) FROM t").unwrap();
        match &q.select[0] {
            SelectItem::Agg(a, _) => assert_eq!(a.func, AggFunc::Percentile(0.5)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_udf_aggregate() {
        let q = parse_query("SELECT sessionize(time) FROM t").unwrap();
        match &q.select[0] {
            SelectItem::Agg(a, _) => assert_eq!(a.func, AggFunc::Udf("sessionize".into())),
            other => panic!("{other:?}"),
        }
        assert!(!q.closed_form_applicable());
    }

    #[test]
    fn parses_nested_subquery() {
        let q = parse_query(
            "SELECT AVG(s) FROM (SELECT SUM(bytes) AS s FROM events GROUP BY user_id)",
        )
        .unwrap();
        assert!(q.is_nested());
        match &q.from {
            TableRef::Subquery(inner) => assert_eq!(inner.group_by, vec!["user_id".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_arithmetic_and_precedence() {
        let q = parse_query("SELECT AVG(a + b * 2) FROM t WHERE x > 1 AND y < 2 OR z = 3")
            .unwrap();
        match &q.select[0] {
            SelectItem::Agg(a, _) => {
                assert_eq!(a.arg.as_ref().unwrap().to_string(), "(a + (b * 2))");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(
            q.where_clause.unwrap().to_string(),
            "(((x > 1) AND (y < 2)) OR (z = 3))"
        );
    }

    #[test]
    fn parses_scalar_functions_in_args() {
        let q = parse_query("SELECT SUM(log(bytes)) FROM t WHERE abs(delta) < 5").unwrap();
        match &q.select[0] {
            SelectItem::Agg(a, _) => {
                assert_eq!(a.arg.as_ref().unwrap().to_string(), "LOG(bytes)");
            }
            other => panic!("{other:?}"),
        }
        let _ = q.where_clause.unwrap();
    }

    #[test]
    fn rejects_aggregates_in_scalar_position() {
        assert!(parse_query("SELECT AVG(SUM(x)) FROM t").is_err());
        assert!(parse_query("SELECT COUNT(*) FROM t WHERE AVG(x) > 1").is_err());
    }

    #[test]
    fn rejects_unknown_scalar_function_in_where() {
        assert!(parse_query("SELECT COUNT(*) FROM t WHERE frob(x) = 1").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("SELECT COUNT(*) FROM t garbage garbage").is_err());
    }

    #[test]
    fn display_parse_round_trip() {
        let sql = "SELECT city, AVG(time) AS a FROM s WHERE city = 'SF' GROUP BY city WITHIN 10% ERROR AT CONFIDENCE 99%";
        let q1 = parse_query(sql).unwrap();
        let q2 = parse_query(&q1.to_string()).unwrap();
        assert_eq!(q1, q2);
    }

    #[test]
    fn count_star_round_trip() {
        let q = parse_query("SELECT COUNT(*) FROM t").unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }

    #[test]
    fn boolean_and_null_literals() {
        let q = parse_query("SELECT COUNT(*) FROM t WHERE flag = true AND other <> NULL")
            .unwrap();
        assert!(q.where_clause.is_some());
    }
}
