//! Typed columnar storage.
//!
//! A [`Column`] is a named, typed vector of nullable values. Numeric and
//! boolean columns store `Vec<Option<T>>`; string columns are
//! dictionary-encoded ([`StrColumn`]): a `Vec<u32>` of codes into an interned
//! dictionary of `Arc<str>` values, with `u32::MAX` reserved for nulls. This
//! keeps group-by hashing and multi-million-row scans cheap.

use std::collections::HashMap;
use std::sync::Arc;

use crate::error::FrameError;
use crate::schema::DType;
use crate::value::Value;
use crate::Result;

/// Sentinel code for a null entry in a [`StrColumn`] or a
/// [`CodedColumn`](crate::codec::CodedColumn).
pub const NULL_CODE: u32 = u32::MAX;

/// Dictionary-encoded string column.
///
/// Codes index into `dict`; `u32::MAX` marks a null. The dictionary may
/// contain entries not referenced by any row (e.g. after `take`), which is
/// harmless: distinct-value logic walks the codes, not the dictionary.
#[derive(Debug, Clone, Default)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Vec<Arc<str>>,
    index: HashMap<Arc<str>, u32>,
}

impl StrColumn {
    /// Empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty column with row capacity `n`.
    pub fn with_capacity(n: usize) -> Self {
        StrColumn {
            codes: Vec::with_capacity(n),
            dict: Vec::new(),
            index: HashMap::new(),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Intern `s` and return its code without appending a row.
    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&code) = self.index.get(s) {
            return code;
        }
        let arc: Arc<str> = Arc::from(s);
        let code = self.dict.len() as u32;
        self.dict.push(arc.clone());
        self.index.insert(arc, code);
        code
    }

    /// Append a (nullable) string row.
    pub fn push(&mut self, s: Option<&str>) {
        match s {
            Some(s) => {
                let code = self.intern(s);
                self.codes.push(code);
            }
            None => self.codes.push(NULL_CODE),
        }
    }

    /// The string at row `i`, or `None` when null.
    pub fn get(&self, i: usize) -> Option<&Arc<str>> {
        let code = self.codes[i];
        if code == NULL_CODE {
            None
        } else {
            Some(&self.dict[code as usize])
        }
    }

    /// Raw code at row `i` (`u32::MAX` = null). Useful as a cheap group key.
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// The dictionary entries (may include unreferenced values).
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Gather rows at `indices` into a new column sharing the dictionary.
    pub fn take(&self, indices: &[usize]) -> StrColumn {
        let codes = indices.iter().map(|&i| self.codes[i]).collect();
        StrColumn {
            codes,
            dict: self.dict.clone(),
            index: self.index.clone(),
        }
    }

    /// Approximate heap size in bytes: the codes, plus each dictionary
    /// entry's string, its `Arc` header and its dictionary and index
    /// slots. A dictionary shared with the column this one was taken from
    /// is charged to both, so the estimate errs high.
    pub fn approx_bytes(&self) -> usize {
        const ENTRY: usize = 2 * std::mem::size_of::<usize>()
            + std::mem::size_of::<Arc<str>>()
            + std::mem::size_of::<(Arc<str>, u32)>()
            + 1;
        self.codes.len() * std::mem::size_of::<u32>()
            + self.dict.iter().map(|s| s.len() + ENTRY).sum::<usize>()
    }

    /// Iterator over rows as `Option<&str>`.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> + '_ {
        self.codes.iter().map(move |&c| {
            if c == NULL_CODE {
                None
            } else {
                Some(self.dict[c as usize].as_ref())
            }
        })
    }
}

impl FromIterator<Option<String>> for StrColumn {
    fn from_iter<I: IntoIterator<Item = Option<String>>>(iter: I) -> Self {
        let mut col = StrColumn::new();
        for v in iter {
            col.push(v.as_deref());
        }
        col
    }
}

/// The typed payload of a [`Column`].
#[derive(Debug, Clone)]
pub enum ColumnData {
    /// Nullable booleans.
    Bool(Vec<Option<bool>>),
    /// Nullable 64-bit integers.
    Int(Vec<Option<i64>>),
    /// Nullable 64-bit floats.
    Float(Vec<Option<f64>>),
    /// Dictionary-encoded nullable strings.
    Str(StrColumn),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Bool(v) => v.len(),
            ColumnData::Int(v) => v.len(),
            ColumnData::Float(v) => v.len(),
            ColumnData::Str(v) => v.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap size of the payload in bytes.
    pub fn approx_bytes(&self) -> usize {
        match self {
            ColumnData::Bool(v) => std::mem::size_of_val(v.as_slice()),
            ColumnData::Int(v) => std::mem::size_of_val(v.as_slice()),
            ColumnData::Float(v) => std::mem::size_of_val(v.as_slice()),
            ColumnData::Str(v) => v.approx_bytes(),
        }
    }

    /// The logical type of this payload.
    pub fn dtype(&self) -> DType {
        match self {
            ColumnData::Bool(_) => DType::Bool,
            ColumnData::Int(_) => DType::Int,
            ColumnData::Float(_) => DType::Float,
            ColumnData::Str(_) => DType::Str,
        }
    }
}

/// A named, typed, nullable column.
#[derive(Debug, Clone)]
pub struct Column {
    name: String,
    data: ColumnData,
}

impl Column {
    /// Build a column from a name and payload.
    pub fn new(name: impl Into<String>, data: ColumnData) -> Self {
        Column {
            name: name.into(),
            data,
        }
    }

    /// Non-null integer column.
    pub fn from_ints(name: impl Into<String>, values: Vec<i64>) -> Self {
        Column::new(
            name,
            ColumnData::Int(values.into_iter().map(Some).collect()),
        )
    }

    /// Nullable integer column.
    pub fn from_opt_ints(name: impl Into<String>, values: Vec<Option<i64>>) -> Self {
        Column::new(name, ColumnData::Int(values))
    }

    /// Non-null float column.
    pub fn from_floats(name: impl Into<String>, values: Vec<f64>) -> Self {
        Column::new(
            name,
            ColumnData::Float(values.into_iter().map(Some).collect()),
        )
    }

    /// Nullable float column.
    pub fn from_opt_floats(name: impl Into<String>, values: Vec<Option<f64>>) -> Self {
        Column::new(name, ColumnData::Float(values))
    }

    /// Non-null boolean column.
    pub fn from_bools(name: impl Into<String>, values: Vec<bool>) -> Self {
        Column::new(
            name,
            ColumnData::Bool(values.into_iter().map(Some).collect()),
        )
    }

    /// Non-null string column.
    pub fn from_strs<S: AsRef<str>>(name: impl Into<String>, values: Vec<S>) -> Self {
        let mut col = StrColumn::with_capacity(values.len());
        for v in &values {
            col.push(Some(v.as_ref()));
        }
        Column::new(name, ColumnData::Str(col))
    }

    /// Nullable string column.
    pub fn from_opt_strs<S: AsRef<str>>(name: impl Into<String>, values: Vec<Option<S>>) -> Self {
        let mut col = StrColumn::with_capacity(values.len());
        for v in &values {
            col.push(v.as_ref().map(|s| s.as_ref()));
        }
        Column::new(name, ColumnData::Str(col))
    }

    /// Build a column of `dtype` from boxed [`Value`]s; values must be null
    /// or coercible to `dtype` (`Int` widens into a `Float` column).
    pub fn from_values(name: impl Into<String>, dtype: DType, values: &[Value]) -> Result<Self> {
        let name = name.into();
        let data = match dtype {
            DType::Bool => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Bool(b) => Some(*b),
                        other => {
                            return Err(FrameError::TypeMismatch {
                                column: name,
                                expected: "bool",
                                got: DType::of_value(other).map_or("null", |d| d.name()),
                            })
                        }
                    });
                }
                ColumnData::Bool(out)
            }
            DType::Int => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Int(i) => Some(*i),
                        other => {
                            return Err(FrameError::TypeMismatch {
                                column: name,
                                expected: "int",
                                got: DType::of_value(other).map_or("null", |d| d.name()),
                            })
                        }
                    });
                }
                ColumnData::Int(out)
            }
            DType::Float => {
                let mut out = Vec::with_capacity(values.len());
                for v in values {
                    out.push(match v {
                        Value::Null => None,
                        Value::Float(f) => Some(*f),
                        Value::Int(i) => Some(*i as f64),
                        other => {
                            return Err(FrameError::TypeMismatch {
                                column: name,
                                expected: "float",
                                got: DType::of_value(other).map_or("null", |d| d.name()),
                            })
                        }
                    });
                }
                ColumnData::Float(out)
            }
            DType::Str => {
                let mut col = StrColumn::with_capacity(values.len());
                for v in values {
                    match v {
                        Value::Null => col.push(None),
                        Value::Str(s) => col.push(Some(s)),
                        other => {
                            return Err(FrameError::TypeMismatch {
                                column: name,
                                expected: "str",
                                got: DType::of_value(other).map_or("null", |d| d.name()),
                            })
                        }
                    }
                }
                ColumnData::Str(col)
            }
        };
        Ok(Column { name, data })
    }

    /// Column name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename in place, returning `self` for chaining.
    pub fn renamed(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The typed payload.
    pub fn data(&self) -> &ColumnData {
        &self.data
    }

    /// Logical type.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Null test at row `i` without boxing a [`Value`].
    #[inline]
    pub fn is_null_at(&self, i: usize) -> bool {
        match &self.data {
            ColumnData::Bool(v) => v[i].is_none(),
            ColumnData::Int(v) => v[i].is_none(),
            ColumnData::Float(v) => v[i].is_none(),
            ColumnData::Str(v) => v.code(i) == NULL_CODE,
        }
    }

    /// `Value::as_f64` of row `i` without boxing — identical widening
    /// (ints cast, bools map to 1.0/0.0, strings and nulls yield `None`)
    /// but no `Value` construction, and in particular no `Arc` refcount
    /// bump for string rows. The workhorse of per-row aggregation loops.
    #[inline]
    pub fn f64_at(&self, i: usize) -> Option<f64> {
        match &self.data {
            ColumnData::Int(v) => v[i].map(|x| x as f64),
            ColumnData::Float(v) => v[i],
            ColumnData::Bool(v) => v[i].map(|b| if b { 1.0 } else { 0.0 }),
            ColumnData::Str(_) => None,
        }
    }

    /// Boxed value at row `i`. Panics when out of bounds.
    pub fn get(&self, i: usize) -> Value {
        match &self.data {
            ColumnData::Bool(v) => v[i].map_or(Value::Null, Value::Bool),
            ColumnData::Int(v) => v[i].map_or(Value::Null, Value::Int),
            ColumnData::Float(v) => v[i].map_or(Value::Null, Value::Float),
            ColumnData::Str(v) => v.get(i).map_or(Value::Null, |s| Value::Str(s.clone())),
        }
    }

    /// Iterator over boxed values (allocation-free for numeric columns).
    pub fn iter(&self) -> impl Iterator<Item = Value> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Number of null entries.
    pub fn null_count(&self) -> usize {
        match &self.data {
            ColumnData::Bool(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Int(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Float(v) => v.iter().filter(|x| x.is_none()).count(),
            ColumnData::Str(v) => v.iter().filter(|x| x.is_none()).count(),
        }
    }

    /// Gather rows at `indices` into a new column.
    ///
    /// Indices may repeat and may be in any order; each must be in bounds.
    pub fn take(&self, indices: &[usize]) -> Column {
        let data = match &self.data {
            ColumnData::Bool(v) => ColumnData::Bool(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Int(v) => ColumnData::Int(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Float(v) => ColumnData::Float(indices.iter().map(|&i| v[i]).collect()),
            ColumnData::Str(v) => ColumnData::Str(v.take(indices)),
        };
        Column {
            name: self.name.clone(),
            data,
        }
    }

    /// Keep rows where `mask` is true. `mask.len()` must equal `self.len()`.
    pub fn filter(&self, mask: &[bool]) -> Result<Column> {
        if mask.len() != self.len() {
            return Err(FrameError::LengthMismatch {
                expected: self.len(),
                got: mask.len(),
                column: self.name.clone(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.take(&indices))
    }

    /// Non-null values widened to `f64`; strings/bools yield `None` entries
    /// as in [`Value::as_f64`]. Returns only the non-null numeric values.
    pub fn numeric_values(&self) -> Vec<f64> {
        match &self.data {
            ColumnData::Int(v) => v.iter().filter_map(|x| x.map(|i| i as f64)).collect(),
            ColumnData::Float(v) => v.iter().flatten().copied().collect(),
            ColumnData::Bool(v) => v
                .iter()
                .filter_map(|x| x.map(|b| if b { 1.0 } else { 0.0 }))
                .collect(),
            ColumnData::Str(_) => Vec::new(),
        }
    }

    /// Frequency of each distinct non-null value.
    pub fn value_counts(&self) -> HashMap<Value, usize> {
        let mut counts = HashMap::new();
        match &self.data {
            ColumnData::Str(s) => {
                // Count codes first: one hash per distinct value, not per row.
                let mut code_counts: HashMap<u32, usize> = HashMap::new();
                for i in 0..s.len() {
                    let c = s.code(i);
                    if c != NULL_CODE {
                        *code_counts.entry(c).or_insert(0) += 1;
                    }
                }
                for (code, n) in code_counts {
                    counts.insert(Value::Str(s.dict()[code as usize].clone()), n);
                }
            }
            _ => {
                for v in self.iter() {
                    if !v.is_null() {
                        *counts.entry(v).or_insert(0) += 1;
                    }
                }
            }
        }
        counts
    }

    /// Number of distinct non-null values.
    pub fn n_distinct(&self) -> usize {
        self.value_counts().len()
    }

    /// Append all rows of `other` (same dtype required) — used by `union`.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        if self.dtype() != other.dtype() {
            return Err(FrameError::TypeMismatch {
                column: other.name.clone(),
                expected: self.dtype().name(),
                got: other.dtype().name(),
            });
        }
        match (&mut self.data, &other.data) {
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
            (ColumnData::Int(a), ColumnData::Int(b)) => a.extend_from_slice(b),
            (ColumnData::Float(a), ColumnData::Float(b)) => a.extend_from_slice(b),
            (ColumnData::Str(a), ColumnData::Str(b)) => {
                for v in b.iter() {
                    a.push(v);
                }
            }
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// First `n` rows (or all rows when fewer).
    pub fn head(&self, n: usize) -> Column {
        let n = n.min(self.len());
        let indices: Vec<usize> = (0..n).collect();
        self.take(&indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_column_interns() {
        let mut c = StrColumn::new();
        c.push(Some("a"));
        c.push(Some("b"));
        c.push(Some("a"));
        c.push(None);
        assert_eq!(c.len(), 4);
        assert_eq!(c.dict().len(), 2);
        assert_eq!(c.get(0).unwrap().as_ref(), "a");
        assert_eq!(c.get(2).unwrap().as_ref(), "a");
        assert!(c.get(3).is_none());
        assert_eq!(c.code(0), c.code(2));
    }

    #[test]
    fn take_and_filter() {
        let c = Column::from_ints("x", vec![10, 20, 30, 40]);
        let t = c.take(&[3, 0, 0]);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(10));
        assert_eq!(t.get(2), Value::Int(10));

        let f = c.filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.len(), 2);
        assert_eq!(f.get(1), Value::Int(30));

        assert!(c.filter(&[true]).is_err());
    }

    #[test]
    fn value_counts_and_distinct() {
        let c = Column::from_strs("g", vec!["x", "y", "x", "x"]);
        let counts = c.value_counts();
        assert_eq!(counts[&Value::str("x")], 3);
        assert_eq!(counts[&Value::str("y")], 1);
        assert_eq!(c.n_distinct(), 2);
    }

    #[test]
    fn null_handling() {
        let c = Column::from_opt_ints("x", vec![Some(1), None, Some(1)]);
        assert_eq!(c.null_count(), 1);
        assert_eq!(c.n_distinct(), 1);
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.numeric_values(), vec![1.0, 1.0]);
    }

    #[test]
    fn from_values_widens_int_to_float() {
        let c =
            Column::from_values("x", DType::Float, &[Value::Int(1), Value::Float(2.5)]).unwrap();
        assert_eq!(c.get(0), Value::Float(1.0));
        assert_eq!(c.get(1), Value::Float(2.5));
    }

    #[test]
    fn from_values_rejects_mismatch() {
        let err = Column::from_values("x", DType::Int, &[Value::str("no")]).unwrap_err();
        assert!(matches!(err, FrameError::TypeMismatch { .. }));
    }

    #[test]
    fn append_unions_dictionaries() {
        let mut a = Column::from_strs("g", vec!["x", "y"]);
        let b = Column::from_strs("g", vec!["y", "z"]);
        a.append(&b).unwrap();
        assert_eq!(a.len(), 4);
        assert_eq!(a.get(3), Value::str("z"));
        assert_eq!(a.n_distinct(), 3);
    }

    #[test]
    fn append_rejects_type_mismatch() {
        let mut a = Column::from_ints("x", vec![1]);
        let b = Column::from_floats("x", vec![1.0]);
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn head_truncates() {
        let c = Column::from_ints("x", vec![1, 2, 3]);
        assert_eq!(c.head(2).len(), 2);
        assert_eq!(c.head(10).len(), 3);
    }
}
