//! Selection-vector expression evaluation over columnar batches.
//!
//! A [`Selection`] names batch rows: the prefix `0..n` a scan starts
//! from, or a vector of row ids (gaps and repeats allowed). Expressions
//! are evaluated for the selected rows only: columns are read in place
//! through the selection, literals stay scalars, and a comparison
//! against a string literal is resolved once per dictionary entry.
//! Filters [`narrow`] a selection instead of copying rows: `column <op>
//! constant` compares and compacts in one typed loop, `AND` narrows
//! successively, everything else keeps the entries of a truth vector.
//! [`eval`] and [`eval_predicate`] are the same kernel over every row.

use aqp_storage::{Batch, Column, Value};

use crate::ast::{BinOp, Expr};
use crate::{Result, SqlError};

/// The batch rows a scan carries down its operator chain, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Selection {
    /// Rows `0..n`: nothing has narrowed or repeated them yet, and no
    /// vector of their ids exists.
    Prefix(usize),
    /// These row ids (gaps and repeats allowed).
    Rows(Vec<u32>),
}

impl Selection {
    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            Selection::Prefix(n) => *n,
            Selection::Rows(rows) => rows.len(),
        }
    }

    /// True when no row is selected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row ids as a slice, written out first if they were a prefix.
    pub fn rows(&mut self) -> &[u32] {
        if let Selection::Prefix(n) = *self {
            *self = Selection::Rows((0..n as u32).collect());
        }
        let Selection::Rows(rows) = self else { return &[] }; // written out above
        rows
    }

    /// `out[dest[k]] = cell(row k)` for every entry `k`, `out[k]` without
    /// a `dest`. `out` has a slot for every entry (every `dest`).
    pub fn scatter<T>(&self, dest: Option<&[u32]>, out: &mut [T], cell: impl Fn(usize) -> T) {
        match (self, dest) {
            (Selection::Prefix(n), None) => out.iter_mut().zip(0..*n).for_each(|(o, r)| *o = cell(r)),
            (Selection::Rows(rows), None) => {
                out.iter_mut().zip(rows).for_each(|(o, &r)| *o = cell(r as usize));
            }
            (Selection::Prefix(n), Some(dest)) => {
                dest.iter().zip(0..*n).for_each(|(&d, r)| out[d as usize] = cell(r));
            }
            (Selection::Rows(rows), Some(dest)) => {
                dest.iter().zip(rows).for_each(|(&d, &r)| out[d as usize] = cell(r as usize));
            }
        }
    }

    /// Keep the entries `keep(k, row k)` holds for, order and repeats
    /// preserved. Branch-free: every entry is written, the cursor moves
    /// past the kept ones only.
    fn retain(&mut self, keep: impl Fn(usize, usize) -> bool) {
        match self {
            Selection::Prefix(n) => {
                let mut rows = vec![0; *n];
                let mut kept = 0;
                for r in 0..*n {
                    rows[kept] = r as u32;
                    kept += usize::from(keep(r, r));
                }
                rows.truncate(kept);
                *self = Selection::Rows(rows);
            }
            Selection::Rows(rows) => {
                let mut kept = 0;
                for k in 0..rows.len() {
                    let r = rows[k];
                    rows[kept] = r;
                    kept += usize::from(keep(k, r as usize));
                }
                rows.truncate(kept);
            }
        }
    }
}

/// An expression evaluated for the rows a selection names.
#[derive(Debug)]
pub enum Evaluated<'a> {
    /// A batch column read in place: entry `k` is row `k` of the selection.
    Column(&'a Column),
    /// A literal: one value for every entry.
    Scalar(&'a Value),
    /// A computed column with one row per selection entry.
    Dense(Column),
}

impl Evaluated<'_> {
    /// Which entries are numbers (ints and bools coerce; NULLs and strings
    /// never are), `None` when every one is.
    pub fn numbers(&self, sel: &Selection) -> Option<Vec<bool>> {
        let col = match self {
            Evaluated::Dense(c) => return Evaluated::Column(c).numbers(&Selection::Prefix(sel.len())),
            Evaluated::Scalar(v) => return v.as_f64().is_none().then(|| vec![false; sel.len()]),
            Evaluated::Column(
                Column::Float { validity: None, .. } | Column::Int { validity: None, .. } | Column::Bool { validity: None, .. },
            ) => return None,
            Evaluated::Column(c) => c,
        };
        let mut numbers = vec![false; sel.len()];
        sel.scatter(None, &mut numbers, |r| col.f64_at(r).is_some());
        numbers.contains(&false).then_some(numbers)
    }

    /// [`Selection::scatter`] of the entries' numbers, in one typed loop;
    /// an entry that is no number writes an unspecified one, or none.
    pub fn scatter_f64(&self, sel: &Selection, dest: Option<&[u32]>, out: &mut [f64]) {
        let every = Selection::Prefix(sel.len());
        match self {
            Evaluated::Dense(c) => Evaluated::Column(c).scatter_f64(&every, dest, out),
            Evaluated::Scalar(v) => every.scatter(dest, out, |_| v.as_f64().unwrap_or(0.0)),
            Evaluated::Column(Column::Float { values, .. }) => sel.scatter(dest, out, |r| values[r]),
            Evaluated::Column(Column::Int { values, .. }) => sel.scatter(dest, out, |r| values[r] as f64),
            Evaluated::Column(Column::Bool { values, .. }) => {
                sel.scatter(dest, out, |r| f64::from(u8::from(values[r])));
            }
            Evaluated::Column(Column::Str { .. }) => {}
        }
    }

    fn is_str(&self) -> bool {
        use Evaluated::{Column as Col, Dense, Scalar};
        matches!(self, Col(Column::Str { .. }) | Dense(Column::Str { .. }) | Scalar(Value::Str(_)))
    }

    fn str_at(&self, sel: &Selection, k: usize) -> Option<&str> {
        let (c, r) = match self {
            Evaluated::Scalar(v) => return v.as_str(),
            Evaluated::Column(c) => (*c, match sel {
                Selection::Prefix(_) => k,
                Selection::Rows(rows) => rows[k] as usize,
            }),
            Evaluated::Dense(c) => (c, k),
        };
        match c {
            Column::Str { dict, codes, .. } if !c.is_null(r) => {
                Some(dict[codes[r] as usize].as_str())
            }
            _ => None,
        }
    }
}

/// One `Option` (`None` = SQL NULL) per selection entry, or one for all.
enum Lane<T> {
    Const(Option<T>),
    Rows(Vec<Option<T>>),
}

impl<T: Copy> Lane<T> {
    fn at(&self, k: usize) -> Option<T> {
        match self {
            Lane::Const(c) => *c,
            Lane::Rows(v) => v[k],
        }
    }
}

/// Numeric view (strings become NULLs).
fn num(e: &Evaluated<'_>, sel: &Selection) -> Lane<f64> {
    if let Evaluated::Scalar(v) = e {
        return Lane::Const(v.as_f64());
    }
    let mut xs = vec![0.0; sel.len()];
    e.scatter_f64(sel, None, &mut xs);
    Lane::Rows(match e.numbers(sel) {
        None => xs.into_iter().map(Some).collect(),
        Some(numbers) => xs.into_iter().zip(numbers).map(|(x, is)| is.then_some(x)).collect(),
    })
}

/// Three-valued boolean view: numbers are true when non-zero.
fn tri(e: &Evaluated<'_>, sel: &Selection) -> Lane<bool> {
    match num(e, sel) {
        Lane::Const(c) => Lane::Const(c.map(|x| x != 0.0)),
        Lane::Rows(v) => Lane::Rows(v.into_iter().map(|x| x.map(|x| x != 0.0)).collect()),
    }
}

fn plan_err(message: String) -> SqlError {
    SqlError::Plan { message }
}

/// Evaluate `expr` over every row of `batch`, yielding a column of
/// `batch.num_rows()` values.
pub fn eval(expr: &Expr, batch: &Batch) -> Result<Column> {
    let n = batch.num_rows();
    Ok(match eval_selected(expr, batch, &Selection::Prefix(n))? {
        Evaluated::Column(c) => c.clone(),
        Evaluated::Dense(c) => c,
        Evaluated::Scalar(v) => match v {
            Value::Int(i) => Column::from_i64s(vec![*i; n]),
            Value::Float(f) => Column::from_f64s(vec![*f; n]),
            Value::Bool(b) => Column::from_bools(vec![*b; n]),
            Value::Str(s) => {
                Column::Str { dict: vec![s.clone()], codes: vec![0; n], validity: None }
            }
            Value::Null => Column::from_opt_f64s(vec![None; n]),
        },
    })
}

/// Evaluate a predicate, mapping NULL ("unknown") to `false` — SQL filter
/// semantics.
pub fn eval_predicate(expr: &Expr, batch: &Batch) -> Result<Vec<bool>> {
    eval_predicate_selected(expr, batch, &Selection::Prefix(batch.num_rows()))
}

fn column<'a>(batch: &'a Batch, name: &str) -> Result<&'a Column> {
    batch.column_by_name(name).map_err(|e| plan_err(e.to_string()))
}

fn from_opt_bools(vals: Vec<Option<bool>>) -> Column {
    let mask: Vec<bool> = vals.iter().map(Option::is_some).collect();
    let values = vals.into_iter().map(Option::unwrap_or_default).collect();
    Column::Bool { values, validity: mask.contains(&false).then_some(mask) }
}

/// Evaluate `expr` for the rows `sel` names. The number of entries comes
/// from `sel`, so constants evaluate even over a batch without columns.
/// `sel` is trusted like a slice index: the caller keeps every row id
/// below `batch.num_rows()` (a narrowed or repeated selection of valid
/// ids stays valid), and a row the batch does not have panics.
pub fn eval_selected<'a>(expr: &'a Expr, batch: &'a Batch, sel: &Selection) -> Result<Evaluated<'a>> {
    let n = sel.len();
    Ok(match expr {
        Expr::Column(name) => Evaluated::Column(column(batch, name)?),
        Expr::Literal(v) => Evaluated::Scalar(v),
        Expr::Neg(e) => {
            let x = num(&eval_selected(e, batch, sel)?, sel);
            Evaluated::Dense(Column::from_opt_f64s((0..n).map(|k| x.at(k).map(|v| -v)).collect()))
        }
        Expr::Not(e) => {
            let b = tri(&eval_selected(e, batch, sel)?, sel);
            Evaluated::Dense(from_opt_bools((0..n).map(|k| b.at(k).map(|v| !v)).collect()))
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_selected(lhs, batch, sel)?;
            let r = eval_selected(rhs, batch, sel)?;
            Evaluated::Dense(binary(*op, &l, &r, sel))
        }
        Expr::Func { name, args } => {
            let args = args
                .iter()
                .map(|a| eval_selected(a, batch, sel).map(|e| num(&e, sel)))
                .collect::<Result<Vec<_>>>()?;
            Evaluated::Dense(scalar_func(name, &args, n)?)
        }
    })
}

/// Which entries of `sel` satisfy `expr`; NULL ("unknown") is not true.
pub fn eval_predicate_selected(expr: &Expr, batch: &Batch, sel: &Selection) -> Result<Vec<bool>> {
    if let Some(fused) = fused(expr, batch)? {
        let mut truth = vec![false; sel.len()];
        fused.run(Mark(sel, &mut truth));
        return Ok(truth);
    }
    if let Expr::Binary { op: op @ (BinOp::And | BinOp::Or), lhs, rhs } = expr {
        let l = eval_predicate_selected(lhs, batch, sel)?;
        return Ok(combined(*op, l, eval_predicate_selected(rhs, batch, sel)?));
    }
    let t = tri(&eval_selected(expr, batch, sel)?, sel);
    Ok((0..sel.len()).map(|k| t.at(k) == Some(true)).collect())
}

/// Only truth survives a filter, and `l AND r` / `l OR r` is true exactly
/// when the truths of `l` and `r` say so — per entry, or per dictionary
/// entry.
fn combined(op: BinOp, mut l: Vec<bool>, r: Vec<bool>) -> Vec<bool> {
    l.iter_mut().zip(r).for_each(|(a, b)| *a = if op == BinOp::And { *a && b } else { *a || b });
    l
}

/// Keep in `sel` only the entries satisfying `predicate` (order and
/// repeats preserved).
pub fn narrow(predicate: &Expr, batch: &Batch, sel: &mut Selection) -> Result<()> {
    if let Some(fused) = fused(predicate, batch)? {
        fused.run(Narrow(sel));
        return Ok(());
    }
    if let Expr::Binary { op: BinOp::And, lhs, rhs } = predicate {
        narrow(lhs, batch, sel)?;
        return narrow(rhs, batch, sel);
    }
    let keep = eval_predicate_selected(predicate, batch, sel)?;
    sel.retain(|k, _| keep[k]);
    Ok(())
}

/// A predicate that one typed loop decides row by row.
enum Fused<'a> {
    /// `column <op> number`, the shape filters have (the mirrored spelling
    /// takes the general route); `None` for a constant that is NULL or a
    /// string against numbers, which nothing compares to.
    Number(&'a Column, BinOp, Option<f64>),
    /// Comparisons of one string column with string literals, `AND`ed and
    /// `OR`ed at will: its codes and NULL mask, and the truth of each
    /// dictionary entry.
    Dictionary(&'a [u32], &'a Option<Vec<bool>>, Vec<bool>),
}

fn fused<'a>(expr: &Expr, batch: &'a Batch) -> Result<Option<Fused<'a>>> {
    let Expr::Binary { op, lhs, rhs } = expr else { return Ok(None) };
    if let BinOp::And | BinOp::Or = op {
        let (Some(Fused::Dictionary(codes, mask, table)), Some(Fused::Dictionary(other, _, right))) =
            (fused(lhs, batch)?, fused(rhs, batch)?)
        else {
            return Ok(None);
        };
        return Ok(std::ptr::eq(codes, other).then(|| Fused::Dictionary(codes, mask, combined(*op, table, right))));
    }
    let (true, Expr::Column(name)) = (is_comparison(*op), &**lhs) else { return Ok(None) };
    let col = column(batch, name)?;
    Ok(match (col, &**rhs) {
        (Column::Str { dict, codes, validity }, Expr::Literal(Value::Str(s))) => {
            let table = dict.iter().map(|d| ord_matches(*op, d.as_str().cmp(s))).collect();
            Some(Fused::Dictionary(codes, validity, table))
        }
        (_, rhs) => number(rhs).map(|x| Fused::Number(col, *op, x)),
    })
}

/// A constant's number, `Some(None)` when it has none (NULL, a string).
fn number(e: &Expr) -> Option<Option<f64>> {
    match e {
        Expr::Literal(v) => Some(v.as_f64()),
        Expr::Neg(inner) => Some(number(inner)?.map(|x| -x)),
        _ => None,
    }
}

/// What the truth of a fused predicate, row by row, is fed to.
trait Sink {
    fn run(self, truth: impl Fn(usize) -> bool);
}

/// Compare and compact: the selection keeps the rows that compare true.
struct Narrow<'a>(&'a mut Selection);

impl Sink for Narrow<'_> {
    fn run(self, truth: impl Fn(usize) -> bool) {
        self.0.retain(|_, r| truth(r));
    }
}

/// The truth of every entry of a selection, for the general route.
struct Mark<'a>(&'a Selection, &'a mut [bool]);

impl Sink for Mark<'_> {
    fn run(self, truth: impl Fn(usize) -> bool) {
        self.0.scatter(None, self.1, truth);
    }
}

impl Fused<'_> {
    /// The predicate's truth by row, into `sink`: the column's type, its
    /// NULL mask and the operator are resolved outside the loop, a number
    /// cell compares as `f64`, a string cell by its code. A string against
    /// a number, and anything against NULL or NaN, is unknown: not true.
    #[allow(clippy::double_comparisons)] // `v != x` would call a NaN unequal; SQL calls it unknown
    fn run(self, sink: impl Sink) {
        fn masked(validity: &Option<Vec<bool>>, sink: impl Sink, truth: impl Fn(usize) -> bool) {
            match validity {
                None => sink.run(truth),
                Some(m) => sink.run(|r| m[r] && truth(r)),
            }
        }
        fn numeric(col: &Column, sink: impl Sink, pred: impl Fn(f64) -> bool) {
            match col {
                Column::Float { values, validity } => masked(validity, sink, |r| pred(values[r])),
                Column::Int { values, validity } => masked(validity, sink, |r| pred(values[r] as f64)),
                Column::Bool { values, validity } => {
                    masked(validity, sink, |r| pred(f64::from(u8::from(values[r]))));
                }
                Column::Str { .. } => sink.run(|_| false),
            }
        }
        match self {
            Fused::Dictionary(codes, validity, table) => {
                masked(validity, sink, |r| table.get(codes[r] as usize).copied().unwrap_or(false));
            }
            Fused::Number(col, BinOp::Eq, Some(x)) => numeric(col, sink, |v| v == x),
            Fused::Number(col, BinOp::Ne, Some(x)) => numeric(col, sink, |v| v < x || v > x),
            Fused::Number(col, BinOp::Lt, Some(x)) => numeric(col, sink, |v| v < x),
            Fused::Number(col, BinOp::Le, Some(x)) => numeric(col, sink, |v| v <= x),
            Fused::Number(col, BinOp::Gt, Some(x)) => numeric(col, sink, |v| v > x),
            Fused::Number(col, BinOp::Ge, Some(x)) => numeric(col, sink, |v| v >= x),
            Fused::Number(..) => sink.run(|_| false),
        }
    }
}

fn is_comparison(op: BinOp) -> bool {
    matches!(op, BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)
}

fn ord_matches(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering::{Equal, Greater, Less};
    match op {
        BinOp::Eq => ord == Equal,
        BinOp::Ne => ord != Equal,
        BinOp::Lt => ord == Less,
        BinOp::Le => ord != Greater,
        BinOp::Gt => ord == Greater,
        BinOp::Ge => ord != Less,
        _ => false,
    }
}

fn binary(op: BinOp, l: &Evaluated<'_>, r: &Evaluated<'_>, sel: &Selection) -> Column {
    let n = sel.len();
    let arith = |f: fn(f64, f64) -> Option<f64>| {
        let (a, b) = (num(l, sel), num(r, sel));
        Column::from_opt_f64s((0..n).map(|k| f(a.at(k)?, b.at(k)?)).collect())
    };
    let logic = |f: fn(Option<bool>, Option<bool>) -> Option<bool>| {
        let (a, b) = (tri(l, sel), tri(r, sel));
        from_opt_bools((0..n).map(|k| f(a.at(k), b.at(k))).collect())
    };
    match op {
        BinOp::Add => arith(|a, b| Some(a + b)),
        BinOp::Sub => arith(|a, b| Some(a - b)),
        BinOp::Mul => arith(|a, b| Some(a * b)),
        // SQL: division by zero → NULL (engine choice).
        BinOp::Div => arith(|a, b| (b != 0.0).then(|| a / b)),
        // Three-valued logic.
        BinOp::And => logic(|a, b| match (a, b) {
            (Some(false), _) | (_, Some(false)) => Some(false),
            (Some(true), Some(true)) => Some(true),
            _ => None,
        }),
        BinOp::Or => logic(|a, b| match (a, b) {
            (Some(true), _) | (_, Some(true)) => Some(true),
            (Some(false), Some(false)) => Some(false),
            _ => None,
        }),
        // String comparison when either side is a string.
        _ if l.is_str() || r.is_str() => {
            let cmp = |k| Some(ord_matches(op, l.str_at(sel, k)?.cmp(r.str_at(sel, k)?)));
            from_opt_bools((0..n).map(cmp).collect())
        }
        _ => {
            let (a, b) = (num(l, sel), num(r, sel));
            let cmp = |k| a.at(k)?.partial_cmp(&b.at(k)?).map(|o| ord_matches(op, o));
            from_opt_bools((0..n).map(cmp).collect())
        }
    }
}

fn scalar_func(name: &str, args: &[Lane<f64>], n: usize) -> Result<Column> {
    let arity = |want: usize| {
        if args.len() == want {
            return Ok(());
        }
        Err(plan_err(format!("{name} expects {want} argument(s), got {}", args.len())))
    };
    let out: Vec<Option<f64>> = match name {
        "log" | "ln" | "exp" | "sqrt" | "abs" => {
            arity(1)?;
            let f: fn(f64) -> f64 = match name {
                "exp" => f64::exp,
                "sqrt" => f64::sqrt,
                "abs" => f64::abs,
                _ => |x| if x <= 0.0 { f64::NAN } else { x.ln() },
            };
            // Outside the function's domain (NaN) → NULL.
            (0..n).map(|k| args[0].at(k).map(f).filter(|y| !y.is_nan())).collect()
        }
        "pow" => {
            arity(2)?;
            (0..n).map(|k| Some(args[0].at(k)?.powf(args[1].at(k)?))).collect()
        }
        "ifnull" => {
            arity(2)?;
            (0..n).map(|k| args[0].at(k).or(args[1].at(k))).collect()
        }
        other => return Err(plan_err(format!("unknown scalar function {other}"))),
    };
    Ok(Column::from_opt_f64s(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Expr as E;
    use aqp_storage::{DataType, Field, Schema};

    fn batch() -> Batch {
        let schema = Schema::new(vec![
            Field::new("city", DataType::Str),
            Field::new("time", DataType::Float),
            Field::nullable("bytes", DataType::Int),
        ])
        .unwrap();
        Batch::new(
            schema,
            vec![
                Column::from_strs(&["NYC", "SF", "NYC", "LA"]),
                Column::from_f64s(vec![10.0, 20.0, 30.0, 40.0]),
                Column::from_opt_i64s(vec![Some(1), None, Some(3), Some(4)]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn column_and_literal() {
        let b = batch();
        let c = eval(&E::col("time"), &b).unwrap();
        assert_eq!(c.to_f64_vec(), vec![10.0, 20.0, 30.0, 40.0]);
        let l = eval(&E::lit(5i64), &b).unwrap();
        assert_eq!(l.len(), 4);
        assert_eq!(l.f64_at(2), Some(5.0));
    }

    #[test]
    fn arithmetic_with_null_propagation() {
        let b = batch();
        let e = E::binary(BinOp::Add, E::col("time"), E::col("bytes"));
        let c = eval(&e, &b).unwrap();
        assert_eq!(c.f64_at(0), Some(11.0));
        assert_eq!(c.f64_at(1), None); // NULL bytes
        assert_eq!(c.f64_at(3), Some(44.0));
    }

    #[test]
    fn division_by_zero_is_null() {
        let b = batch();
        let e = E::binary(BinOp::Div, E::col("time"), E::lit(0i64));
        let c = eval(&e, &b).unwrap();
        assert!(c.is_null(0));
    }

    #[test]
    fn string_equality_filter() {
        let b = batch();
        let e = E::binary(BinOp::Eq, E::col("city"), E::lit("NYC"));
        let mask = eval_predicate(&e, &b).unwrap();
        assert_eq!(mask, vec![true, false, true, false]);
    }

    #[test]
    fn numeric_comparisons() {
        let b = batch();
        let e = E::binary(BinOp::Ge, E::col("time"), E::lit(20.0));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![false, true, true, true]);
        let e = E::binary(BinOp::Ne, E::col("time"), E::lit(20.0));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![true, false, true, true]);
        let e = E::binary(BinOp::Gt, E::col("time"), E::lit(20.0));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![false, false, true, true]);
        let e = E::binary(BinOp::Lt, E::col("time"), E::lit(20.0));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![true, false, false, false]);
    }

    #[test]
    fn null_comparison_filters_out() {
        let b = batch();
        // bytes > 0: NULL row must NOT pass.
        let e = E::binary(BinOp::Gt, E::col("bytes"), E::lit(0i64));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![true, false, true, true]);
    }

    #[test]
    fn three_valued_and_or() {
        let b = batch();
        // (bytes > 0) OR (time > 15): NULL OR true = true for row 1.
        let e = E::binary(
            BinOp::Or,
            E::binary(BinOp::Gt, E::col("bytes"), E::lit(0i64)),
            E::binary(BinOp::Gt, E::col("time"), E::lit(15.0)),
        );
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![true, true, true, true]);
        // (bytes > 0) AND (time > 15): NULL AND true = NULL → filtered.
        let e = E::binary(
            BinOp::And,
            E::binary(BinOp::Gt, E::col("bytes"), E::lit(0i64)),
            E::binary(BinOp::Gt, E::col("time"), E::lit(15.0)),
        );
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![false, false, true, true]);
    }

    #[test]
    fn not_and_neg() {
        let b = batch();
        let e = E::Not(Box::new(E::binary(BinOp::Eq, E::col("city"), E::lit("NYC"))));
        assert_eq!(eval_predicate(&e, &b).unwrap(), vec![false, true, false, true]);
        let e = E::Neg(Box::new(E::col("time")));
        assert_eq!(eval(&e, &b).unwrap().f64_at(0), Some(-10.0));
    }

    #[test]
    fn scalar_functions() {
        let b = batch();
        let e = E::Func { name: "sqrt".into(), args: vec![E::col("time")] };
        let c = eval(&e, &b).unwrap();
        assert!((c.f64_at(1).unwrap() - 20.0f64.sqrt()).abs() < 1e-12);

        let e = E::Func { name: "log".into(), args: vec![E::lit(-1.0)] };
        let c = eval(&e, &b).unwrap();
        assert!(c.is_null(0)); // log of non-positive → NULL

        let e = E::Func {
            name: "ifnull".into(),
            args: vec![E::col("bytes"), E::lit(0i64)],
        };
        let c = eval(&e, &b).unwrap();
        assert_eq!(c.f64_at(1), Some(0.0));
    }

    #[test]
    fn unknown_column_errors() {
        let b = batch();
        assert!(eval(&E::col("nope"), &b).is_err());
    }

    /// Rows: NULL-heavy, with NaN, zero and a string column, to be read
    /// through selections with gaps and repeats.
    fn hostile() -> Batch {
        let schema = Schema::new(vec![
            Field::nullable("i", DataType::Int),
            Field::nullable("f", DataType::Float),
            Field::nullable("b", DataType::Bool),
            Field::new("s", DataType::Str),
        ])
        .unwrap();
        Batch::new(
            schema,
            vec![
                Column::from_opt_i64s(vec![Some(2), None, Some(0), Some(-1), Some(2)]),
                Column::from_opt_f64s(vec![Some(2.0), Some(f64::NAN), None, Some(0.0), Some(-4.0)]),
                from_opt_bools(vec![Some(true), Some(false), None, Some(true), None]),
                Column::from_strs(&["x", "y", "x", "7", "z"]),
            ],
        )
        .unwrap()
    }

    /// Gaps (row 2 skipped), repeats (row 4 twice) and out-of-order rows.
    const SEL: [u32; 5] = [4, 0, 4, 3, 1];

    fn sel() -> Selection {
        Selection::Rows(SEL.to_vec())
    }

    /// Three-valued result per selection entry.
    fn tri_over(e: &E, b: &Batch) -> Vec<Option<bool>> {
        let v = eval_selected(e, b, &sel()).unwrap();
        let lane = tri(&v, &sel());
        (0..SEL.len()).map(|k| lane.at(k)).collect()
    }

    fn nums_over(e: &E, b: &Batch) -> Vec<Option<f64>> {
        let v = eval_selected(e, b, &sel()).unwrap();
        let lane = num(&v, &sel());
        (0..SEL.len()).map(|k| lane.at(k)).collect()
    }

    #[test]
    fn selection_three_valued_and_or_not() {
        let b = hostile();
        let (t, f, n) = (Some(true), Some(false), None);
        // b over SEL: NULL, true, NULL, true, false; (i > 0): true, true, true, false, NULL.
        let pos = E::binary(BinOp::Gt, E::col("i"), E::lit(0i64));
        assert_eq!(tri_over(&pos, &b), [t, t, t, f, n]);
        let and = E::binary(BinOp::And, E::col("b"), pos.clone());
        assert_eq!(tri_over(&and, &b), [n, t, n, f, f]);
        let or = E::binary(BinOp::Or, E::col("b"), pos.clone());
        assert_eq!(tri_over(&or, &b), [t, t, t, t, n]);
        assert_eq!(tri_over(&E::Not(Box::new(and.clone())), &b), [n, f, n, t, t]);
        // A filter keeps exactly the true entries, by either route.
        let truth = |e: &E| eval_predicate_selected(e, &b, &sel()).unwrap();
        assert_eq!(truth(&and), [false, true, false, false, false]);
        assert_eq!(truth(&or), [true, true, true, true, false]);
        assert_eq!(truth(&E::Not(Box::new(or.clone()))), [false; 5]);
        let mut kept = sel();
        narrow(&and, &b, &mut kept).unwrap();
        assert_eq!(kept, Selection::Rows(vec![0]));
        let mut kept = sel();
        narrow(&or, &b, &mut kept).unwrap();
        assert_eq!(kept, Selection::Rows(vec![4, 0, 4, 3])); // order and the repeat survive
    }

    #[test]
    fn selection_arithmetic_nulls() {
        let b = hostile();
        // f / i over SEL: -4/2, 2/2, -4/2, 0/-1, NaN/NULL.
        let div = E::binary(BinOp::Div, E::col("f"), E::col("i"));
        assert_eq!(nums_over(&div, &b), [Some(-2.0), Some(1.0), Some(-2.0), Some(-0.0), None]);
        // Division by zero is NULL, by a column or a literal zero.
        let by_zero = E::binary(BinOp::Div, E::col("i"), E::col("f"));
        assert_eq!(nums_over(&by_zero, &b)[3], None);
        let by_lit = E::binary(BinOp::Div, E::col("i"), E::lit(0i64));
        assert_eq!(nums_over(&by_lit, &b), [None; 5]);
        // log(x <= 0) is NULL; log of NaN too.
        let log = E::Func { name: "log".into(), args: vec![E::col("f")] };
        assert_eq!(nums_over(&log, &b), [None, Some(2.0f64.ln()), None, None, None]);
        assert_eq!(
            nums_over(&E::Func { name: "log".into(), args: vec![E::lit(0i64)] }, &b),
            [None; 5]
        );
    }

    #[test]
    fn selection_comparisons() {
        let b = hostile();
        let (t, f, n) = (Some(true), Some(false), None);
        // Int is compared as f64: i = 2.0, and i against the float column.
        let eq = E::binary(BinOp::Eq, E::col("i"), E::lit(2.0));
        assert_eq!(tri_over(&eq, &b), [t, t, t, f, n]);
        let cols = E::binary(BinOp::Ge, E::col("i"), E::col("f"));
        assert_eq!(tri_over(&cols, &b), [t, t, t, f, n]);
        // NaN compares as unknown under every operator, `<>` included.
        for op in [BinOp::Eq, BinOp::Ne, BinOp::Lt, BinOp::Le, BinOp::Gt, BinOp::Ge] {
            let e = E::binary(op, E::col("f"), E::lit(1.0));
            assert_eq!(tri_over(&e, &b)[4], n, "{op:?} against NaN");
            assert!(!eval_predicate_selected(&e, &b, &sel()).unwrap()[4]);
            let nan = E::binary(op, E::col("i"), E::lit(f64::NAN));
            assert_eq!(eval_predicate_selected(&nan, &b, &sel()).unwrap(), [false; 5]);
        }
        // A string against a number is unknown, whichever side and route.
        for e in [
            E::binary(BinOp::Eq, E::col("s"), E::lit(7i64)),
            E::binary(BinOp::Lt, E::lit(7i64), E::col("s")),
            E::binary(BinOp::Ne, E::col("s"), E::col("i")),
            E::binary(BinOp::Gt, E::col("f"), E::lit("x")),
        ] {
            assert_eq!(tri_over(&e, &b), [n; 5], "{e}");
            assert_eq!(eval_predicate_selected(&e, &b, &sel()).unwrap(), [false; 5], "{e}");
        }
        // Strings compare as strings, with the literal on either side.
        let lt = E::binary(BinOp::Lt, E::col("s"), E::lit("y"));
        let truth = |e: &E| eval_predicate_selected(e, &b, &sel()).unwrap();
        assert_eq!(truth(&lt), [false, true, false, true, false]);
        let mirrored = E::binary(BinOp::Gt, E::lit("y"), E::col("s"));
        assert_eq!(tri_over(&mirrored, &b), tri_over(&lt, &b));
        assert_eq!(truth(&mirrored), truth(&lt));
        // A negated literal is still a constant.
        let neg = E::binary(BinOp::Le, E::col("f"), E::Neg(Box::new(E::lit(4i64))));
        assert_eq!(truth(&neg), [true, false, true, false, false]);
    }

    #[test]
    fn string_comparisons_fuse_within_one_column_only() {
        // `AND` / `OR` of comparisons of one string column is a truth table
        // over its dictionary; over two columns it takes the general route.
        // Either way the filter keeps what three-valued evaluation calls true.
        let schema = Schema::new(vec![Field::nullable("a", DataType::Str), Field::new("b", DataType::Str)]).unwrap();
        let a = Column::Str {
            dict: vec!["x".into(), "y".into(), "z".into()],
            codes: vec![0, 1, 9, 0, 2, 1],
            validity: Some(vec![true, true, false, true, true, true]),
        };
        let b = Batch::new(schema, vec![a, Column::from_strs(&["p", "q", "p", "q", "p", "p"])]).unwrap();
        let cmp = |op, col: &str, lit: &str| E::binary(op, E::col(col), E::lit(lit));
        let one = E::binary(BinOp::Or, cmp(BinOp::Eq, "a", "x"), cmp(BinOp::Gt, "a", "y"));
        let two = E::binary(BinOp::Or, cmp(BinOp::Eq, "a", "x"), cmp(BinOp::Eq, "b", "q"));
        assert!(matches!(fused(&one, &b), Ok(Some(Fused::Dictionary(..)))));
        assert!(matches!(fused(&two, &b), Ok(None)));
        let both = E::binary(BinOp::And, one.clone(), cmp(BinOp::Ne, "a", "z"));
        assert!(matches!(fused(&both, &b), Ok(Some(Fused::Dictionary(..)))));
        let mixed = E::binary(BinOp::And, two.clone(), E::binary(BinOp::Or, one.clone(), cmp(BinOp::Lt, "b", "q")));
        for (e, want) in [
            (&one, vec![0, 3, 4]),
            (&two, vec![0, 1, 3]),
            (&both, vec![0, 3]),
            (&mixed, vec![0, 3]),
        ] {
            for start in [Selection::Prefix(6), Selection::Rows(vec![5, 4, 4, 3, 2, 1, 0])] {
                let general = tri(&eval_selected(e, &b, &start).unwrap(), &start);
                let truth = eval_predicate_selected(e, &b, &start).unwrap();
                assert_eq!(truth, (0..start.len()).map(|k| general.at(k) == Some(true)).collect::<Vec<_>>(), "{e}");
                let mut kept = start.clone();
                narrow(e, &b, &mut kept).unwrap();
                let mut rows = start.clone().rows().to_vec();
                rows.retain(|r| want.contains(r));
                assert_eq!(kept, Selection::Rows(rows), "{e}");
            }
        }
    }

    #[test]
    fn selection_sets_the_row_count() {
        // No columns at all: constants still evaluate, once per entry.
        let empty = Batch::new(Schema::new(vec![]).unwrap(), vec![]).unwrap();
        let one = E::binary(BinOp::Eq, E::lit(1i64), E::lit(1i64));
        assert_eq!(eval_predicate_selected(&one, &empty, &Selection::Prefix(1)).unwrap(), [true]);
        assert_eq!(eval_predicate_selected(&one, &empty, &Selection::Prefix(0)).unwrap(), [false; 0]);
    }
}
