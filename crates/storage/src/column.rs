//! Typed, null-aware columns.
//!
//! Columns are the unit the physical operators work on. Numeric columns
//! are plain `Vec`s (the aggregate hot path iterates `&[f64]` / `&[i64]`
//! directly); string columns are dictionary-encoded so that GROUP BY and
//! equality filters compare `u32` codes instead of strings.

use crate::error::StorageError;
use crate::schema::DataType;
use crate::value::Value;
use crate::Result;

/// Optional validity mask; `None` means "all valid".
type Validity = Option<Vec<bool>>;

fn valid_at(v: &Validity, i: usize) -> bool {
    v.as_ref().is_none_or(|m| m[i])
}

/// A typed column of values with an optional null mask.
#[derive(Debug, Clone, PartialEq)]
pub enum Column {
    /// 64-bit integers.
    Int {
        /// Values (unspecified at null positions).
        values: Vec<i64>,
        /// Validity mask; `None` = no nulls.
        validity: Validity,
    },
    /// 64-bit floats.
    Float {
        /// Values (unspecified at null positions).
        values: Vec<f64>,
        /// Validity mask; `None` = no nulls.
        validity: Validity,
    },
    /// Booleans.
    Bool {
        /// Values (unspecified at null positions).
        values: Vec<bool>,
        /// Validity mask; `None` = no nulls.
        validity: Validity,
    },
    /// Dictionary-encoded strings.
    Str {
        /// The dictionary of distinct strings.
        dict: Vec<String>,
        /// Per-row dictionary codes (unspecified at null positions).
        codes: Vec<u32>,
        /// Validity mask; `None` = no nulls.
        validity: Validity,
    },
}

impl Column {
    /// Build a non-null integer column.
    pub fn from_i64s(values: Vec<i64>) -> Self {
        Column::Int { values, validity: None }
    }

    /// Build a non-null float column.
    pub fn from_f64s(values: Vec<f64>) -> Self {
        Column::Float { values, validity: None }
    }

    /// Build a non-null boolean column.
    pub fn from_bools(values: Vec<bool>) -> Self {
        Column::Bool { values, validity: None }
    }

    /// Build a dictionary-encoded string column from string slices.
    pub fn from_strs<S: AsRef<str>>(values: &[S]) -> Self {
        let mut dict: Vec<String> = Vec::new();
        let mut index: std::collections::HashMap<String, u32> = std::collections::HashMap::new();
        let mut codes = Vec::with_capacity(values.len());
        for v in values {
            let s = v.as_ref();
            let code = match index.get(s) {
                Some(&c) => c,
                None => {
                    let c = dict.len() as u32;
                    dict.push(s.to_owned());
                    index.insert(s.to_owned(), c);
                    c
                }
            };
            codes.push(code);
        }
        Column::Str { dict, codes, validity: None }
    }

    /// Build a float column with nulls from `Option<f64>`s.
    pub fn from_opt_f64s(values: Vec<Option<f64>>) -> Self {
        let mut vals = Vec::with_capacity(values.len());
        let mut mask = Vec::with_capacity(values.len());
        let mut any_null = false;
        for v in values {
            match v {
                Some(x) => {
                    vals.push(x);
                    mask.push(true);
                }
                None => {
                    vals.push(0.0);
                    mask.push(false);
                    any_null = true;
                }
            }
        }
        Column::Float { values: vals, validity: if any_null { Some(mask) } else { None } }
    }

    /// Build an int column with nulls from `Option<i64>`s.
    pub fn from_opt_i64s(values: Vec<Option<i64>>) -> Self {
        let mut vals = Vec::with_capacity(values.len());
        let mut mask = Vec::with_capacity(values.len());
        let mut any_null = false;
        for v in values {
            match v {
                Some(x) => {
                    vals.push(x);
                    mask.push(true);
                }
                None => {
                    vals.push(0);
                    mask.push(false);
                    any_null = true;
                }
            }
        }
        Column::Int { values: vals, validity: if any_null { Some(mask) } else { None } }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int { values, .. } => values.len(),
            Column::Float { values, .. } => values.len(),
            Column::Bool { values, .. } => values.len(),
            Column::Str { codes, .. } => codes.len(),
        }
    }

    /// True when the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int { .. } => DataType::Int,
            Column::Float { .. } => DataType::Float,
            Column::Bool { .. } => DataType::Bool,
            Column::Str { .. } => DataType::Str,
        }
    }

    /// True iff row `i` is null.
    pub fn is_null(&self, i: usize) -> bool {
        match self {
            Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Str { validity, .. } => !valid_at(validity, i),
        }
    }

    /// True if the column contains at least one null.
    pub fn has_nulls(&self) -> bool {
        match self {
            Column::Int { validity, .. }
            | Column::Float { validity, .. }
            | Column::Bool { validity, .. }
            | Column::Str { validity, .. } => {
                validity.as_ref().is_some_and(|m| m.iter().any(|v| !v))
            }
        }
    }

    /// Dynamically-typed view of row `i`.
    pub fn value(&self, i: usize) -> Result<Value> {
        let len = self.len();
        if i >= len {
            return Err(StorageError::RowOutOfBounds { index: i, len });
        }
        if self.is_null(i) {
            return Ok(Value::Null);
        }
        Ok(match self {
            Column::Int { values, .. } => Value::Int(values[i]),
            Column::Float { values, .. } => Value::Float(values[i]),
            Column::Bool { values, .. } => Value::Bool(values[i]),
            Column::Str { dict, codes, .. } => Value::Str(dict[codes[i] as usize].clone()),
        })
    }

    /// Numeric view of row `i` (`None` for nulls and strings).
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        if self.is_null(i) {
            return None;
        }
        match self {
            Column::Int { values, .. } => Some(values[i] as f64),
            Column::Float { values, .. } => Some(values[i]),
            Column::Bool { values, .. } => Some(if values[i] { 1.0 } else { 0.0 }),
            Column::Str { .. } => None,
        }
    }

    /// Densify into a `Vec<f64>`, dropping nulls. Fast path for stats code
    /// that needs a contiguous numeric slice.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            if let Some(x) = self.f64_at(i) {
                out.push(x);
            }
        }
        out
    }

    /// Take the rows at `indices` (with repetition allowed), producing a new
    /// column. Out-of-range indices are an error.
    pub fn gather(&self, indices: &[usize]) -> Result<Column> {
        let len = self.len();
        if let Some(&bad) = indices.iter().find(|&&i| i >= len) {
            return Err(StorageError::RowOutOfBounds { index: bad, len });
        }
        let gather_validity = |v: &Validity| -> Validity {
            v.as_ref().map(|m| indices.iter().map(|&i| m[i]).collect())
        };
        Ok(match self {
            Column::Int { values, validity } => Column::Int {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: gather_validity(validity),
            },
            Column::Float { values, validity } => Column::Float {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: gather_validity(validity),
            },
            Column::Bool { values, validity } => Column::Bool {
                values: indices.iter().map(|&i| values[i]).collect(),
                validity: gather_validity(validity),
            },
            Column::Str { dict, codes, validity } => Column::Str {
                dict: dict.clone(),
                codes: indices.iter().map(|&i| codes[i]).collect(),
                validity: gather_validity(validity),
            },
        })
    }

    /// Contiguous sub-column `[start, start+len)`.
    pub fn slice(&self, start: usize, len: usize) -> Result<Column> {
        let end = match start.checked_add(len) {
            Some(end) if end <= self.len() => end,
            _ => {
                return Err(StorageError::RowOutOfBounds {
                    index: start.saturating_add(len),
                    len: self.len(),
                })
            }
        };
        let cut = |v: &Validity| v.as_ref().map(|m| m[start..end].to_vec());
        Ok(match self {
            Column::Int { values, validity } => {
                Column::Int { values: values[start..end].to_vec(), validity: cut(validity) }
            }
            Column::Float { values, validity } => {
                Column::Float { values: values[start..end].to_vec(), validity: cut(validity) }
            }
            Column::Bool { values, validity } => {
                Column::Bool { values: values[start..end].to_vec(), validity: cut(validity) }
            }
            Column::Str { dict, codes, validity } => Column::Str {
                dict: dict.clone(),
                codes: codes[start..end].to_vec(),
                validity: cut(validity),
            },
        })
    }

    /// Concatenate columns of the same type into one.
    pub fn concat(cols: &[Column]) -> Result<Column> {
        let first = cols
            .first()
            .ok_or_else(|| StorageError::InvalidArgument("concat of zero columns".into()))?;
        let dt = first.data_type();
        if cols.iter().any(|c| c.data_type() != dt) {
            return Err(StorageError::TypeMismatch {
                expected: dt.name().into(),
                actual: "mixed".into(),
            });
        }
        // Generic (slow-ish) path via values; fine because concat only runs
        // at load time, never per-query.
        let total: usize = cols.iter().map(Column::len).sum();
        match dt {
            DataType::Float => {
                let mut vals = Vec::with_capacity(total);
                for c in cols {
                    vals.extend((0..c.len()).map(|i| c.f64_at(i)));
                }
                Ok(Column::from_opt_f64s(vals))
            }
            DataType::Int => {
                let mut vals = Vec::with_capacity(total);
                for c in cols {
                    for i in 0..c.len() {
                        vals.push(match c.value(i)? {
                            Value::Int(x) => Some(x),
                            Value::Null => None,
                            other => {
                                return Err(StorageError::TypeMismatch {
                                    expected: "int".into(),
                                    actual: format!("{other:?}"),
                                })
                            }
                        });
                    }
                }
                Ok(Column::from_opt_i64s(vals))
            }
            DataType::Bool => {
                let mut vals = Vec::with_capacity(total);
                let mut mask = Vec::with_capacity(total);
                let mut any_null = false;
                for c in cols {
                    for i in 0..c.len() {
                        match c.value(i)? {
                            Value::Bool(b) => {
                                vals.push(b);
                                mask.push(true);
                            }
                            Value::Null => {
                                vals.push(false);
                                mask.push(false);
                                any_null = true;
                            }
                            other => {
                                return Err(StorageError::TypeMismatch {
                                    expected: "bool".into(),
                                    actual: format!("{other:?}"),
                                })
                            }
                        }
                    }
                }
                Ok(Column::Bool { values: vals, validity: if any_null { Some(mask) } else { None } })
            }
            DataType::Str => {
                let mut strs: Vec<Option<String>> = Vec::with_capacity(total);
                for c in cols {
                    for i in 0..c.len() {
                        match c.value(i)? {
                            Value::Str(s) => strs.push(Some(s)),
                            Value::Null => strs.push(None),
                            other => {
                                return Err(StorageError::TypeMismatch {
                                    expected: "str".into(),
                                    actual: format!("{other:?}"),
                                })
                            }
                        }
                    }
                }
                // Re-encode with a merged dictionary.
                let mut dict: Vec<String> = Vec::new();
                let mut index: std::collections::HashMap<String, u32> =
                    std::collections::HashMap::new();
                let mut codes = Vec::with_capacity(total);
                let mut mask = Vec::with_capacity(total);
                let mut any_null = false;
                for s in strs {
                    match s {
                        Some(s) => {
                            let code = *index.entry(s.clone()).or_insert_with(|| {
                                dict.push(s);
                                (dict.len() - 1) as u32
                            });
                            codes.push(code);
                            mask.push(true);
                        }
                        None => {
                            codes.push(0);
                            mask.push(false);
                            any_null = true;
                        }
                    }
                }
                Ok(Column::Str {
                    dict,
                    codes,
                    validity: if any_null { Some(mask) } else { None },
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dict_of(c: &Column) -> &[String] {
        let Column::Str { dict, .. } = c else { panic!("{c:?} is not a string column") };
        dict
    }

    #[test]
    fn dictionary_encoding_dedups() {
        let c = Column::from_strs(&["NYC", "SF", "NYC", "NYC"]);
        let Column::Str { dict, codes, .. } = &c else { panic!("{c:?} is not a string column") };
        assert_eq!(dict.len(), 2);
        assert_eq!(codes, &[0, 1, 0, 0]);
        assert_eq!(c.value(2).unwrap(), Value::Str("NYC".into()));
    }

    #[test]
    fn nulls_round_trip() {
        let c = Column::from_opt_f64s(vec![Some(1.0), None, Some(3.0)]);
        assert!(!c.is_null(0));
        assert!(c.is_null(1));
        assert_eq!(c.value(1).unwrap(), Value::Null);
        assert_eq!(c.f64_at(1), None);
        assert_eq!(c.to_f64_vec(), vec![1.0, 3.0]);
        assert!(c.has_nulls());
    }

    #[test]
    fn gather_with_repetition() {
        let c = Column::from_i64s(vec![10, 20, 30]);
        let g = c.gather(&[2, 2, 0]).unwrap();
        assert_eq!(g.value(0).unwrap(), Value::Int(30));
        assert_eq!(g.value(1).unwrap(), Value::Int(30));
        assert_eq!(g.value(2).unwrap(), Value::Int(10));
    }

    #[test]
    fn gather_out_of_range_errors() {
        let c = Column::from_i64s(vec![1]);
        assert!(c.gather(&[1]).is_err());
    }

    #[test]
    fn slice_bounds() {
        let c = Column::from_i64s(vec![1, 2, 3, 4, 5]);
        let s = c.slice(1, 3).unwrap();
        assert_eq!(s.len(), 3);
        assert_eq!(s.value(0).unwrap(), Value::Int(2));
        assert!(c.slice(3, 3).is_err());
        assert!(c.slice(5, 0).unwrap().is_empty());
        // `start + len` must not wrap into range.
        assert!(c.slice(2, usize::MAX).is_err());
        assert!(c.slice(usize::MAX, 2).is_err());
    }

    #[test]
    fn slice_keeps_nulls_and_dictionary() {
        let c = Column::from_opt_i64s(vec![Some(1), None, Some(3), None]);
        let s = c.slice(1, 2).unwrap();
        assert_eq!(s, Column::Int { values: vec![0, 3], validity: Some(vec![false, true]) });
        let c = Column::from_strs(&["a", "b", "a", "c"]);
        let s = c.slice(2, 2).unwrap();
        assert_eq!(s.value(1).unwrap(), Value::Str("c".into()));
        assert_eq!(dict_of(&s).len(), 3);
    }

    #[test]
    fn concat_floats_and_strs() {
        let a = Column::from_f64s(vec![1.0]);
        let b = Column::from_opt_f64s(vec![None, Some(2.0)]);
        let c = Column::concat(&[a, b]).unwrap();
        assert_eq!(c.len(), 3);
        assert!(c.is_null(1));

        let s1 = Column::from_strs(&["a", "b"]);
        let s2 = Column::from_strs(&["b", "c"]);
        let s = Column::concat(&[s1, s2]).unwrap();
        assert_eq!(s.value(2).unwrap(), Value::Str("b".into()));
        assert_eq!(dict_of(&s).len(), 3);
    }

    #[test]
    fn concat_type_mismatch_errors() {
        let a = Column::from_f64s(vec![1.0]);
        let b = Column::from_i64s(vec![1]);
        assert!(Column::concat(&[a, b]).is_err());
    }
}
