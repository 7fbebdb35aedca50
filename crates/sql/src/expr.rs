//! Selection-vector expression evaluation over columnar batches.
//!
//! A *selection* is a `&[u32]` of batch row ids (gaps and repeats
//! allowed). Expressions are evaluated for the selected rows only:
//! columns are read in place through the selection, literals stay
//! scalars, and a comparison against a string literal is resolved once
//! per dictionary entry. Filters [`narrow`] a selection instead of
//! copying rows; `AND` narrows successively. [`eval`] and
//! [`eval_predicate`] are the same kernel over the identity selection.

use aqp_storage::{Batch, Column, Value};

use crate::ast::{BinOp, Expr};
use crate::{Result, SqlError};

/// An expression evaluated for the rows a selection names.
#[derive(Debug)]
pub enum Evaluated<'a> {
    /// A batch column read in place: entry `k` is row `sel[k]`.
    Column(&'a Column),
    /// A literal: one value for every entry.
    Scalar(&'a Value),
    /// A computed column with one row per selection entry.
    Dense(Column),
}

impl Evaluated<'_> {
    /// Call `f(k, x)` for every selection entry `k` whose value is a
    /// non-NULL number `x` (ints and bools coerce; strings never are).
    pub fn for_each_f64(&self, sel: &[u32], mut f: impl FnMut(usize, f64)) {
        match self {
            Evaluated::Column(c) => numeric_rows(c, sel.iter().map(|&r| r as usize), f),
            Evaluated::Dense(c) => numeric_rows(c, 0..sel.len(), f),
            Evaluated::Scalar(v) => {
                if let Some(x) = v.as_f64() {
                    (0..sel.len()).for_each(|k| f(k, x));
                }
            }
        }
    }

    fn is_str(&self) -> bool {
        use Evaluated::{Column as Col, Dense, Scalar};
        matches!(self, Col(Column::Str { .. }) | Dense(Column::Str { .. }) | Scalar(Value::Str(_)))
    }

    fn str_at(&self, sel: &[u32], k: usize) -> Option<&str> {
        let (c, r) = match self {
            Evaluated::Scalar(v) => return v.as_str(),
            Evaluated::Column(c) => (*c, sel[k] as usize),
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

fn numeric_rows(c: &Column, rows: impl Iterator<Item = usize>, f: impl FnMut(usize, f64)) {
    fn each(
        rows: impl Iterator<Item = usize>,
        validity: &Option<Vec<bool>>,
        get: impl Fn(usize) -> f64,
        mut f: impl FnMut(usize, f64),
    ) {
        match validity {
            None => rows.enumerate().for_each(|(k, r)| f(k, get(r))),
            Some(m) => rows.enumerate().filter(|&(_, r)| m[r]).for_each(|(k, r)| f(k, get(r))),
        }
    }
    match c {
        Column::Float { values, validity } => each(rows, validity, |r| values[r], f),
        Column::Int { values, validity } => each(rows, validity, |r| values[r] as f64, f),
        Column::Bool { values, validity } => {
            each(rows, validity, |r| f64::from(u8::from(values[r])), f);
        }
        Column::Str { .. } => {}
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
fn num(e: &Evaluated<'_>, sel: &[u32]) -> Lane<f64> {
    if let Evaluated::Scalar(v) = e {
        return Lane::Const(v.as_f64());
    }
    let mut rows = vec![None; sel.len()];
    e.for_each_f64(sel, |k, x| rows[k] = Some(x));
    Lane::Rows(rows)
}

/// Three-valued boolean view: numbers are true when non-zero.
fn tri(e: &Evaluated<'_>, sel: &[u32]) -> Lane<bool> {
    match num(e, sel) {
        Lane::Const(c) => Lane::Const(c.map(|x| x != 0.0)),
        Lane::Rows(v) => Lane::Rows(v.into_iter().map(|x| x.map(|x| x != 0.0)).collect()),
    }
}

fn plan_err(message: String) -> SqlError {
    SqlError::Plan { message }
}

fn identity(batch: &Batch) -> Vec<u32> {
    (0..batch.num_rows() as u32).collect()
}

/// Evaluate `expr` over every row of `batch`, yielding a column of
/// `batch.num_rows()` values.
pub fn eval(expr: &Expr, batch: &Batch) -> Result<Column> {
    let n = batch.num_rows();
    Ok(match eval_selected(expr, batch, &identity(batch))? {
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
    eval_predicate_selected(expr, batch, &identity(batch))
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
pub fn eval_selected<'a>(expr: &'a Expr, batch: &'a Batch, sel: &[u32]) -> Result<Evaluated<'a>> {
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
pub fn eval_predicate_selected(expr: &Expr, batch: &Batch, sel: &[u32]) -> Result<Vec<bool>> {
    if let Expr::Binary { op, lhs, rhs } = expr {
        if matches!(op, BinOp::And | BinOp::Or) {
            // Only truth survives a filter, and `l AND r` / `l OR r` is
            // true exactly when the truths of `l` and `r` say so.
            let mut l = eval_predicate_selected(lhs, batch, sel)?;
            let r = eval_predicate_selected(rhs, batch, sel)?;
            let both = *op == BinOp::And;
            l.iter_mut().zip(r).for_each(|(a, b)| *a = if both { *a && b } else { *a || b });
            return Ok(l);
        }
        // `column <op> constant`, the shape filters have (the mirrored
        // spelling takes the general route).
        if let (true, Expr::Column(name), Some(c)) = (is_comparison(*op), &**lhs, constant(rhs)) {
            return Ok(column_vs_constant(column(batch, name)?, *op, c, sel));
        }
    }
    let t = tri(&eval_selected(expr, batch, sel)?, sel);
    Ok((0..sel.len()).map(|k| t.at(k) == Some(true)).collect())
}

/// Keep in `sel` only the entries satisfying `predicate` (order and
/// repeats preserved).
pub fn narrow(predicate: &Expr, batch: &Batch, sel: &mut Vec<u32>) -> Result<()> {
    if let Expr::Binary { op: BinOp::And, lhs, rhs } = predicate {
        narrow(lhs, batch, sel)?;
        return narrow(rhs, batch, sel);
    }
    let keep = eval_predicate_selected(predicate, batch, sel)?;
    // Branch-free compaction: always copy, advance only past kept entries.
    let mut kept = 0;
    for k in 0..sel.len() {
        sel[kept] = sel[k];
        kept += usize::from(keep[k]);
    }
    sel.truncate(kept);
    Ok(())
}

/// A constant comparison operand: a number (`None` = NULL) or a string.
#[derive(Clone, Copy)]
enum Constant<'a> {
    Num(Option<f64>),
    Str(&'a str),
}

fn constant(e: &Expr) -> Option<Constant<'_>> {
    match e {
        Expr::Literal(Value::Str(s)) => Some(Constant::Str(s)),
        Expr::Literal(v) => Some(Constant::Num(v.as_f64())),
        Expr::Neg(inner) => Some(Constant::Num(match constant(inner)? {
            Constant::Num(x) => x.map(|v| -v),
            Constant::Str(_) => None,
        })),
        _ => None,
    }
}

/// `col <op> c` per selection entry: one dictionary-sized truth table
/// for strings, a typed loop for numbers. A string against a number, and
/// anything against NULL or NaN, is unknown.
#[allow(clippy::double_comparisons)] // `v != x` would call a NaN unequal; SQL calls it unknown
fn column_vs_constant(col: &Column, op: BinOp, c: Constant<'_>, sel: &[u32]) -> Vec<bool> {
    fn mark(col: &Column, sel: &[u32], out: &mut [bool], pred: impl Fn(f64) -> bool) {
        numeric_rows(col, sel.iter().map(|&r| r as usize), |k, v| out[k] = pred(v));
    }
    let mut out = vec![false; sel.len()];
    match (col, c) {
        (Column::Str { dict, codes, .. }, Constant::Str(s)) => {
            let table: Vec<bool> =
                dict.iter().map(|d| ord_matches(op, d.as_str().cmp(s))).collect();
            for (o, &r) in out.iter_mut().zip(sel) {
                let r = r as usize;
                *o = !col.is_null(r) && table.get(codes[r] as usize).copied().unwrap_or(false);
            }
        }
        (_, Constant::Num(Some(x))) => match op {
            BinOp::Eq => mark(col, sel, &mut out, |v| v == x),
            BinOp::Ne => mark(col, sel, &mut out, |v| v < x || v > x),
            BinOp::Lt => mark(col, sel, &mut out, |v| v < x),
            BinOp::Le => mark(col, sel, &mut out, |v| v <= x),
            BinOp::Gt => mark(col, sel, &mut out, |v| v > x),
            BinOp::Ge => mark(col, sel, &mut out, |v| v >= x),
            _ => {}
        },
        _ => {}
    }
    out
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

fn binary(op: BinOp, l: &Evaluated<'_>, r: &Evaluated<'_>, sel: &[u32]) -> Column {
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

    /// Three-valued result per selection entry.
    fn tri_over(e: &E, b: &Batch) -> Vec<Option<bool>> {
        let v = eval_selected(e, b, &SEL).unwrap();
        let lane = tri(&v, &SEL);
        (0..SEL.len()).map(|k| lane.at(k)).collect()
    }

    fn nums_over(e: &E, b: &Batch) -> Vec<Option<f64>> {
        let v = eval_selected(e, b, &SEL).unwrap();
        let lane = num(&v, &SEL);
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
        let truth = |e: &E| eval_predicate_selected(e, &b, &SEL).unwrap();
        assert_eq!(truth(&and), [false, true, false, false, false]);
        assert_eq!(truth(&or), [true, true, true, true, false]);
        assert_eq!(truth(&E::Not(Box::new(or.clone()))), [false; 5]);
        let mut sel = SEL.to_vec();
        narrow(&and, &b, &mut sel).unwrap();
        assert_eq!(sel, [0]);
        let mut sel = SEL.to_vec();
        narrow(&or, &b, &mut sel).unwrap();
        assert_eq!(sel, [4, 0, 4, 3]); // order and the repeat survive
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
            assert!(!eval_predicate_selected(&e, &b, &SEL).unwrap()[4]);
            let nan = E::binary(op, E::col("i"), E::lit(f64::NAN));
            assert_eq!(eval_predicate_selected(&nan, &b, &SEL).unwrap(), [false; 5]);
        }
        // A string against a number is unknown, whichever side and route.
        for e in [
            E::binary(BinOp::Eq, E::col("s"), E::lit(7i64)),
            E::binary(BinOp::Lt, E::lit(7i64), E::col("s")),
            E::binary(BinOp::Ne, E::col("s"), E::col("i")),
            E::binary(BinOp::Gt, E::col("f"), E::lit("x")),
        ] {
            assert_eq!(tri_over(&e, &b), [n; 5], "{e}");
            assert_eq!(eval_predicate_selected(&e, &b, &SEL).unwrap(), [false; 5], "{e}");
        }
        // Strings compare as strings, with the literal on either side.
        let lt = E::binary(BinOp::Lt, E::col("s"), E::lit("y"));
        let truth = |e: &E| eval_predicate_selected(e, &b, &SEL).unwrap();
        assert_eq!(truth(&lt), [false, true, false, true, false]);
        let mirrored = E::binary(BinOp::Gt, E::lit("y"), E::col("s"));
        assert_eq!(tri_over(&mirrored, &b), tri_over(&lt, &b));
        assert_eq!(truth(&mirrored), truth(&lt));
        // A negated literal is still a constant.
        let neg = E::binary(BinOp::Le, E::col("f"), E::Neg(Box::new(E::lit(4i64))));
        assert_eq!(truth(&neg), [true, false, true, false, false]);
    }

    #[test]
    fn selection_sets_the_row_count() {
        // No columns at all: constants still evaluate, once per entry.
        let empty = Batch::new(Schema::new(vec![]).unwrap(), vec![]).unwrap();
        let one = E::binary(BinOp::Eq, E::lit(1i64), E::lit(1i64));
        assert_eq!(eval_predicate_selected(&one, &empty, &[0]).unwrap(), [true]);
        assert_eq!(eval_predicate_selected(&one, &empty, &[]).unwrap(), [false; 0]);
    }
}
