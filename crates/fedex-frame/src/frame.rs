//! The [`DataFrame`] type: an ordered collection of equal-length columns.

use std::collections::HashSet;

use crate::column::Column;
use crate::error::FrameError;
use crate::schema::{Field, Schema};
use crate::value::Value;
use crate::Result;

/// A relational table / view: equal-length named columns.
///
/// In the FEDEX model (§3.1 of the paper) a dataframe is the unit both of
/// input and of output of every exploratory step.
#[derive(Clone, Default)]
pub struct DataFrame {
    columns: Vec<Column>,
    /// Lazily-computed content fingerprint. Frames are immutable once
    /// built, so the memo stays valid for the frame's lifetime; clones
    /// share the cell (`Arc`), which is what makes register-time
    /// fingerprinting effective — a catalog clones its frame into every
    /// exploratory step, and the clone carries the already-computed
    /// digest. The by-value editors
    /// ([`DataFrame::with_column`], [`DataFrame::without_column`]) replace
    /// the cell because they change content.
    fp_cell: std::sync::Arc<std::sync::OnceLock<crate::fingerprint::Fingerprint>>,
}

impl std::fmt::Debug for DataFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The memo cell is an implementation detail; keep `Debug` output
        // shaped exactly as the pre-memoization derive printed it.
        f.debug_struct("DataFrame")
            .field("columns", &self.columns)
            .finish()
    }
}

impl DataFrame {
    /// Build a dataframe, validating unique names and equal lengths.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        let mut seen = HashSet::new();
        for c in &columns {
            if !seen.insert(c.name().to_string()) {
                return Err(FrameError::DuplicateColumn(c.name().to_string()));
            }
        }
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(FrameError::LengthMismatch {
                        expected,
                        got: c.len(),
                        column: c.name().to_string(),
                    });
                }
            }
        }
        Ok(DataFrame {
            columns,
            fp_cell: Default::default(),
        })
    }

    /// Dataframe with no columns and no rows.
    pub fn empty() -> Self {
        DataFrame::default()
    }

    /// Number of rows (0 for a column-less frame).
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// True when the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows() == 0
    }

    /// The schema (names and dtypes, in column order).
    pub fn schema(&self) -> Schema {
        Schema::new(
            self.columns
                .iter()
                .map(|c| Field::new(c.name(), c.dtype()))
                .collect(),
        )
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// All columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|c| c.name() == name)
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))
    }

    /// True when a column with this name exists.
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name() == name)
    }

    /// 128-bit content fingerprint of schema + every cell (see
    /// [`crate::fingerprint`]); equal content always yields an equal
    /// fingerprint, so it keys cross-request artifact caches.
    ///
    /// Computed on first call and memoized for the frame's lifetime;
    /// clones share the memo. A served deployment therefore pays the
    /// full-content scan once — at `register` — and every subsequent
    /// explain over the table reads the digest in O(1) instead of
    /// re-scanning (the ~0.13s residue of a warm 1M-row ScoreColumns
    /// before PR 5).
    pub fn fingerprint(&self) -> crate::fingerprint::Fingerprint {
        *self
            .fp_cell
            .get_or_init(|| crate::fingerprint::fingerprint_frame(self))
    }

    /// Approximate heap size in bytes: every column's name and payload
    /// (see [`crate::StrColumn::approx_bytes`] for string columns). Linear
    /// in the columns and string dictionaries, never in numeric rows, so
    /// byte-budgeted holders can price a table as they accept it.
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| c.name().len() + c.data().approx_bytes())
            .sum()
    }

    /// Cell at (`row`, `column name`).
    pub fn get(&self, row: usize, name: &str) -> Result<Value> {
        let col = self.column(name)?;
        if row >= col.len() {
            return Err(FrameError::IndexOutOfBounds {
                index: row,
                len: col.len(),
            });
        }
        Ok(col.get(row))
    }

    /// A full row as boxed values, in column order.
    pub fn row(&self, i: usize) -> Result<Vec<Value>> {
        if i >= self.n_rows() {
            return Err(FrameError::IndexOutOfBounds {
                index: i,
                len: self.n_rows(),
            });
        }
        Ok(self.columns.iter().map(|c| c.get(i)).collect())
    }

    /// Project onto the named columns, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let mut cols = Vec::with_capacity(names.len());
        for &n in names {
            cols.push(self.column(n)?.clone());
        }
        DataFrame::new(cols)
    }

    /// Gather the rows at `indices` (repeats allowed) into a new frame.
    pub fn take(&self, indices: &[usize]) -> Result<DataFrame> {
        let n = self.n_rows();
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(FrameError::IndexOutOfBounds { index: bad, len: n });
        }
        Ok(DataFrame {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            fp_cell: Default::default(),
        })
    }

    /// Keep rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                got: mask.len(),
                column: "<mask>".to_string(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        self.take(&indices)
    }

    /// Append a column (must match the row count, name must be fresh).
    pub fn with_column(mut self, col: Column) -> Result<DataFrame> {
        if self.has_column(col.name()) {
            return Err(FrameError::DuplicateColumn(col.name().to_string()));
        }
        if !self.columns.is_empty() && col.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                got: col.len(),
                column: col.name().to_string(),
            });
        }
        self.columns.push(col);
        // Content changed: clones of the pre-edit frame must not see a
        // digest computed over the edited columns (or vice versa).
        self.fp_cell = Default::default();
        Ok(self)
    }

    /// Drop a column by name.
    pub fn without_column(mut self, name: &str) -> Result<DataFrame> {
        let idx = self
            .columns
            .iter()
            .position(|c| c.name() == name)
            .ok_or_else(|| FrameError::ColumnNotFound(name.to_string()))?;
        self.columns.remove(idx);
        self.fp_cell = Default::default();
        Ok(self)
    }

    /// Vertically stack `other` under `self`; schemas must have the same
    /// layout (names and dtypes in order). This is the `union` substrate.
    pub fn vstack(&self, other: &DataFrame) -> Result<DataFrame> {
        if !self.schema().same_layout(&other.schema()) {
            return Err(FrameError::SchemaMismatch(format!(
                "cannot stack {} onto {}",
                other.schema(),
                self.schema()
            )));
        }
        let mut cols = self.columns.clone();
        for (a, b) in cols.iter_mut().zip(other.columns.iter()) {
            a.append(b)?;
        }
        DataFrame::new(cols)
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        DataFrame {
            columns: self.columns.iter().map(|c| c.head(n)).collect(),
            fp_cell: Default::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn df() -> DataFrame {
        DataFrame::new(vec![
            Column::from_ints("year", vec![1991, 2014, 1992, 2013]),
            Column::from_floats("loudness", vec![-11.1, -7.8, -10.7, -8.2]),
            Column::from_strs("decade", vec!["1990s", "2010s", "1990s", "2010s"]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        let err = DataFrame::new(vec![
            Column::from_ints("a", vec![1]),
            Column::from_ints("a", vec![2]),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::DuplicateColumn(_)));

        let err = DataFrame::new(vec![
            Column::from_ints("a", vec![1]),
            Column::from_ints("b", vec![2, 3]),
        ])
        .unwrap_err();
        assert!(matches!(err, FrameError::LengthMismatch { .. }));
    }

    #[test]
    fn select_projects_in_order() {
        let d = df().select(&["decade", "year"]).unwrap();
        assert_eq!(d.column_names(), vec!["decade", "year"]);
        assert_eq!(d.n_rows(), 4);
        assert!(df().select(&["nope"]).is_err());
    }

    #[test]
    fn take_and_filter_rows() {
        let d = df().take(&[1, 3]).unwrap();
        assert_eq!(d.n_rows(), 2);
        assert_eq!(d.get(0, "year").unwrap(), Value::Int(2014));

        let f = df().filter(&[true, false, true, false]).unwrap();
        assert_eq!(f.n_rows(), 2);
        assert_eq!(f.get(1, "decade").unwrap(), Value::str("1990s"));

        assert!(df().take(&[99]).is_err());
    }

    #[test]
    fn vstack_requires_same_layout() {
        let a = df();
        let b = df();
        let stacked = a.vstack(&b).unwrap();
        assert_eq!(stacked.n_rows(), 8);

        let wrong = DataFrame::new(vec![Column::from_ints("year", vec![1])]).unwrap();
        assert!(a.vstack(&wrong).is_err());
    }

    #[test]
    fn with_and_without_column() {
        let d = df()
            .with_column(Column::from_ints("pop", vec![1, 2, 3, 4]))
            .unwrap();
        assert_eq!(d.n_cols(), 4);
        let d = d.without_column("pop").unwrap();
        assert_eq!(d.n_cols(), 3);
        assert!(d.clone().without_column("pop").is_err());
        assert!(d
            .with_column(Column::from_ints("year", vec![1, 2, 3, 4]))
            .is_err());
    }

    #[test]
    fn row_access() {
        let r = df().row(1).unwrap();
        assert_eq!(r[0], Value::Int(2014));
        assert_eq!(r[2], Value::str("2010s"));
        assert!(df().row(10).is_err());
    }

    #[test]
    fn empty_frame() {
        let d = DataFrame::empty();
        assert_eq!(d.n_rows(), 0);
        assert_eq!(d.n_cols(), 0);
        assert!(d.is_empty());
    }
}
