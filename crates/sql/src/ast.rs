//! Abstract syntax for the supported SQL subset.

use std::fmt;

use aqp_storage::Value;
use serde::{Deserialize, Serialize};

/// Binary operators, in precedence classes (see the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinOp {
    /// SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Eq => "=",
            BinOp::Ne => "<>",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "AND",
            BinOp::Or => "OR",
        }
    }
}

/// Scalar (per-row) expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A column reference.
    Column(String),
    /// A literal value.
    Literal(Value),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Arithmetic negation.
    Neg(Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
    /// Scalar function call (`LOG(x)`, `ABS(x)`, `SQRT(x)`, `IFNULL(x, y)`).
    Func {
        /// Function name, lowercased.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Column names referenced anywhere in the expression.
    pub fn referenced_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(c) => {
                if !out.contains(c) {
                    out.push(c.clone());
                }
            }
            Expr::Literal(_) => {}
            Expr::Binary { lhs, rhs, .. } => {
                lhs.referenced_columns(out);
                rhs.referenced_columns(out);
            }
            Expr::Neg(e) | Expr::Not(e) => e.referenced_columns(out),
            Expr::Func { args, .. } => {
                for a in args {
                    a.referenced_columns(out);
                }
            }
        }
    }

    /// Shorthand column expression.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Shorthand literal, for this crate's tests: no library code builds one.
    #[cfg(test)]
    pub(crate) fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// Shorthand binary op.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => match v {
                Value::Str(s) => write!(f, "'{s}'"),
                other => write!(f, "{other}"),
            },
            Expr::Binary { op, lhs, rhs } => {
                write!(f, "({lhs} {} {rhs})", op.symbol())
            }
            Expr::Neg(e) => write!(f, "(-{e})"),
            Expr::Not(e) => write!(f, "(NOT {e})"),
            Expr::Func { name, args } => {
                write!(f, "{}(", name.to_uppercase())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Aggregate function names.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AggFunc {
    /// `AVG`
    Avg,
    /// `SUM`
    Sum,
    /// `COUNT`
    Count,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `VARIANCE`
    Variance,
    /// `STDDEV`
    StdDev,
    /// `PERCENTILE(expr, q)`
    Percentile(
        /// Quantile level in (0, 1).
        f64,
    ),
    /// A named aggregate UDF, resolved at execution time.
    Udf(
        /// Registry name, lowercased.
        String,
    ),
}

impl AggFunc {
    /// Whether a closed-form error estimate exists (§2.3.2).
    pub fn closed_form_applicable(&self) -> bool {
        matches!(
            self,
            AggFunc::Avg | AggFunc::Sum | AggFunc::Count | AggFunc::Variance | AggFunc::StdDev
        )
    }

    /// Upper-case SQL name.
    pub fn sql_name(&self) -> String {
        match self {
            AggFunc::Avg => "AVG".into(),
            AggFunc::Sum => "SUM".into(),
            AggFunc::Count => "COUNT".into(),
            AggFunc::Min => "MIN".into(),
            AggFunc::Max => "MAX".into(),
            AggFunc::Variance => "VARIANCE".into(),
            AggFunc::StdDev => "STDDEV".into(),
            AggFunc::Percentile(q) => format!("PERCENTILE[{q}]"),
            AggFunc::Udf(name) => name.to_uppercase(),
        }
    }
}

/// One aggregate expression, e.g. `AVG(time / 60)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AggExpr {
    /// The aggregate function.
    pub func: AggFunc,
    /// The argument; `None` only for `COUNT(*)`.
    pub arg: Option<Expr>,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(a) => write!(f, "{}({a})", self.func.sql_name()),
            None => write!(f, "{}(*)", self.func.sql_name()),
        }
    }
}

/// A SELECT-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// An aggregate, with optional alias.
    Agg(AggExpr, Option<String>),
    /// A bare column (must be a GROUP BY key).
    Column(String),
}

/// FROM target.
#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    /// A named table.
    Table(String),
    /// A parenthesized subquery (one nesting level; puts the query in
    /// QSet-2 territory).
    Subquery(Box<Query>),
}

/// BlinkDB-style error bound: `WITHIN 10% ERROR AT CONFIDENCE 95%`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorClause {
    /// Maximum relative error (0.1 = 10%).
    pub relative_error: f64,
    /// Interval confidence (0.95 = 95%).
    pub confidence: f64,
}

/// The explicit Poissonized-resampling operator of §5.2:
/// `TABLESAMPLE POISSONIZED (100)` — the parenthesized number is the
/// Poisson rate × 100.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableSample {
    /// The Poisson rate λ (1.0 for the standard bootstrap resample).
    pub rate: f64,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// SELECT list.
    pub select: Vec<SelectItem>,
    /// FROM target.
    pub from: TableRef,
    /// Explicit `TABLESAMPLE POISSONIZED` on the FROM target.
    pub tablesample: Option<TableSample>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY column names.
    pub group_by: Vec<String>,
    /// HAVING predicate over SELECT aliases and group keys (applied to
    /// the per-group results after aggregation).
    pub having: Option<Expr>,
    /// ORDER BY over a SELECT alias or group key.
    pub order_by: Option<OrderBy>,
    /// LIMIT on output groups.
    pub limit: Option<usize>,
    /// Error-bound clause.
    pub error_clause: Option<ErrorClause>,
}

/// An ORDER BY item.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OrderBy {
    /// The alias or group-key column to sort on.
    pub column: String,
    /// Descending order?
    pub descending: bool,
}

impl Query {
    /// All aggregate expressions in the SELECT list.
    pub fn aggregates(&self) -> Vec<&AggExpr> {
        self.select
            .iter()
            .filter_map(|s| match s {
                SelectItem::Agg(a, _) => Some(a),
                SelectItem::Column(_) => None,
            })
            .collect()
    }

    /// Whether this query can use closed-form error estimation for every
    /// aggregate (the QSet-1 membership test): single block, no UDF/MIN/
    /// MAX/percentile aggregates.
    pub fn closed_form_applicable(&self) -> bool {
        matches!(self.from, TableRef::Table(_))
            && !self.aggregates().is_empty()
            && self.aggregates().iter().all(|a| a.func.closed_form_applicable())
    }

    /// Whether the query is nested (FROM contains a subquery).
    pub fn is_nested(&self) -> bool {
        matches!(self.from, TableRef::Subquery(_))
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SELECT ")?;
        for (i, item) in self.select.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match item {
                SelectItem::Agg(a, Some(alias)) => write!(f, "{a} AS {alias}")?,
                SelectItem::Agg(a, None) => write!(f, "{a}")?,
                SelectItem::Column(c) => write!(f, "{c}")?,
            }
        }
        match &self.from {
            TableRef::Table(t) => write!(f, " FROM {t}")?,
            TableRef::Subquery(q) => write!(f, " FROM ({q})")?,
        }
        if let Some(ts) = &self.tablesample {
            write!(f, " TABLESAMPLE POISSONIZED ({})", ts.rate * 100.0)?;
        }
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if !self.group_by.is_empty() {
            write!(f, " GROUP BY {}", self.group_by.join(", "))?;
        }
        if let Some(h) = &self.having {
            write!(f, " HAVING {h}")?;
        }
        if let Some(o) = &self.order_by {
            write!(f, " ORDER BY {}{}", o.column, if o.descending { " DESC" } else { "" })?;
        }
        if let Some(l) = &self.limit {
            write!(f, " LIMIT {l}")?;
        }
        if let Some(e) = &self.error_clause {
            write!(
                f,
                " WITHIN {}% ERROR AT CONFIDENCE {}%",
                e.relative_error * 100.0,
                e.confidence * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::binary(
            BinOp::Add,
            Expr::col("a"),
            Expr::binary(BinOp::Mul, Expr::col("a"), Expr::col("b")),
        );
        let mut cols = Vec::new();
        e.referenced_columns(&mut cols);
        assert_eq!(cols, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn display_round_trippable_shapes() {
        let e = Expr::binary(
            BinOp::And,
            Expr::binary(BinOp::Eq, Expr::col("city"), Expr::lit("NYC")),
            Expr::binary(BinOp::Gt, Expr::col("time"), Expr::lit(10i64)),
        );
        assert_eq!(e.to_string(), "((city = 'NYC') AND (time > 10))");
    }

    #[test]
    fn closed_form_applicability() {
        let q = Query {
            select: vec![SelectItem::Agg(
                AggExpr { func: AggFunc::Avg, arg: Some(Expr::col("t")) },
                None,
            )],
            from: TableRef::Table("s".into()),
            tablesample: None,
            where_clause: None,
            group_by: vec![],
            having: None,
            order_by: None,
            limit: None,
            error_clause: None,
        };
        assert!(q.closed_form_applicable());

        let mut q2 = q.clone();
        q2.select = vec![SelectItem::Agg(
            AggExpr { func: AggFunc::Max, arg: Some(Expr::col("t")) },
            None,
        )];
        assert!(!q2.closed_form_applicable());

        let mut q3 = q.clone();
        q3.from = TableRef::Subquery(Box::new(q.clone()));
        assert!(!q3.closed_form_applicable());
        assert!(q3.is_nested());
    }

    #[test]
    fn agg_display() {
        let a = AggExpr { func: AggFunc::Count, arg: None };
        assert_eq!(a.to_string(), "COUNT(*)");
        let a = AggExpr { func: AggFunc::Percentile(0.99), arg: Some(Expr::col("t")) };
        assert_eq!(a.to_string(), "PERCENTILE[0.99](t)");
    }
}
