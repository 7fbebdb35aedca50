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

    /// The rows `at` — (part, row) pairs, repetition allowed — of `parts`,
    /// columns of one type, as one column. It is what laying the parts end
    /// to end through [`Column::value`] and gathering gives: a NULL cell
    /// holds `0`, `0.0`, `false` or code `0`; the validity mask is kept
    /// when any part holds a NULL, gathered or not; a string column's
    /// dictionary lists every non-NULL string of the parts once, in
    /// first-seen row order, each part's codes remapped by one table
    /// looked up once per distinct code.
    pub fn gather_parts(parts: &[&Column], at: &[(usize, usize)]) -> Result<Column> {
        let first = parts
            .first()
            .ok_or_else(|| StorageError::InvalidArgument("gather from zero columns".into()))?;
        if let Some(&(p, row)) = at.iter().find(|&&(p, row)| parts.get(p).is_none_or(|c| row >= c.len())) {
            let len = parts.get(p).map_or(0, |c| c.len());
            return Err(StorageError::RowOutOfBounds { index: row, len });
        }
        let validity: Validity = parts
            .iter()
            .any(|c| c.has_nulls())
            .then(|| at.iter().map(|&(p, row)| !parts[p].is_null(row)).collect());
        Ok(match first {
            Column::Int { .. } => Column::Int {
                values: take(&typed(parts, |c| match c {
                    Column::Int { values, validity } => Some((&values[..], validity)),
                    _ => None,
                })?, at, |_, x| x),
                validity,
            },
            Column::Float { .. } => Column::Float {
                values: take(&typed(parts, |c| match c {
                    Column::Float { values, validity } => Some((&values[..], validity)),
                    _ => None,
                })?, at, |_, x| x),
                validity,
            },
            Column::Bool { .. } => Column::Bool {
                values: take(&typed(parts, |c| match c {
                    Column::Bool { values, validity } => Some((&values[..], validity)),
                    _ => None,
                })?, at, |_, x| x),
                validity,
            },
            Column::Str { .. } => {
                let strs = typed(parts, |c| match c {
                    Column::Str { codes, validity, .. } => Some((&codes[..], validity)),
                    _ => None,
                })?;
                let mut dict: Vec<String> = Vec::new();
                let mut index: std::collections::HashMap<&str, u32> = std::collections::HashMap::new();
                let mut remaps = Vec::with_capacity(parts.len());
                for (part, &(codes, mask)) in parts.iter().zip(&strs) {
                    let Column::Str { dict: local, .. } = part else { continue };
                    let mut remap: Vec<Option<u32>> = vec![None; local.len()];
                    for (row, &code) in codes.iter().enumerate() {
                        let Some(slot) = remap.get_mut(code as usize) else { continue };
                        if slot.is_none() && valid_at(mask, row) {
                            let s = local[code as usize].as_str();
                            *slot = Some(*index.entry(s).or_insert_with(|| {
                                dict.push(s.to_owned());
                                (dict.len() - 1) as u32
                            }));
                        }
                    }
                    remaps.push(remap);
                }
                let codes = take(&strs, at, |p, code| remaps[p].get(code as usize).copied().flatten().unwrap_or(0));
                Column::Str { dict, codes, validity }
            }
        })
    }
}

/// Each part's values and mask, all of the variant `view` reads.
fn typed<'a, T>(
    parts: &[&'a Column],
    view: impl Fn(&'a Column) -> Option<(&'a [T], &'a Validity)>,
) -> Result<Vec<(&'a [T], &'a Validity)>> {
    parts
        .iter()
        .map(|&c| {
            view(c).ok_or_else(|| StorageError::TypeMismatch {
                expected: parts[0].data_type().name().into(),
                actual: c.data_type().name().into(),
            })
        })
        .collect()
}

/// `f(part, value)` at every valid (part, row) of `at`, the type's zero at
/// a NULL.
fn take<T: Copy, U: Default>(
    parts: &[(&[T], &Validity)],
    at: &[(usize, usize)],
    f: impl Fn(usize, T) -> U,
) -> Vec<U> {
    at.iter()
        .map(|&(p, row)| {
            let (values, mask) = parts[p];
            if valid_at(mask, row) {
                f(p, values[row])
            } else {
                U::default()
            }
        })
        .collect()
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
    fn gather_parts_zeroes_nulls_and_merges_dictionaries_in_row_order() {
        let a = Column::from_f64s(vec![1.0]);
        let b = Column::Float { values: vec![9.0, 2.0], validity: Some(vec![false, true]) };
        let c = Column::gather_parts(&[&a, &b], &[(1, 1), (1, 0), (0, 0)]).unwrap();
        assert_eq!(c, Column::Float { values: vec![2.0, 0.0, 1.0], validity: Some(vec![true, false, true]) });
        // Validity stays when the parts hold a NULL the rows skip.
        let c = Column::gather_parts(&[&a, &b], &[(1, 1)]).unwrap();
        assert_eq!(c, Column::Float { values: vec![2.0], validity: Some(vec![true]) });

        let s1 = Column::Str { dict: vec!["z".into(), "b".into(), "a".into()], codes: vec![1, 2, 0], validity: Some(vec![true, true, false]) };
        let s2 = Column::from_strs(&["c", "b", "b"]);
        let s = Column::gather_parts(&[&s1, &s2], &[(1, 0), (0, 2), (1, 2)]).unwrap();
        assert_eq!(dict_of(&s), ["b", "a", "c"]);
        assert_eq!(s, Column::Str { dict: dict_of(&s).to_vec(), codes: vec![2, 0, 0], validity: Some(vec![true, false, true]) });
    }

    #[test]
    fn gather_parts_errors() {
        let a = Column::from_f64s(vec![1.0]);
        let b = Column::from_i64s(vec![1]);
        assert!(Column::gather_parts(&[&a, &b], &[]).is_err());
        assert_eq!(Column::gather_parts(&[&a], &[(0, 1)]), Err(StorageError::RowOutOfBounds { index: 1, len: 1 }));
        assert!(Column::gather_parts(&[], &[]).is_err());
    }
}
