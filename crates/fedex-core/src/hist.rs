//! Histograms with subtraction — the kernel behind incremental
//! exceptionality contribution.
//!
//! The exceptionality measure (Eq. 1) is a KS statistic over the
//! value-frequency distributions of a column before and after the
//! operation. Removing a set-of-rows `R` from the input (Def. 3.3) shifts
//! both distributions by the value counts of `R`, so the intervention score
//! can be computed by *histogram subtraction* — no re-execution of the
//! operation is needed.
//!
//! Two implementations share that contract:
//!
//! * [`CodedHist`] — the fast kernel: a dense `Vec<i64>` indexed by the
//!   `u32` dictionary codes of a
//!   [`CodedColumn`]. Adds and
//!   subtractions are O(1) array updates, and because codes are assigned
//!   in ascending [`Value`] order (the code ⇄ value contract of
//!   [`fedex_frame::codec`]), the KS merge-walk is a single linear sweep
//!   over `0..n_codes` — no tree lookups, no key sort, no boxing. All
//!   histograms entering one KS computation must share a code space
//!   (i.e. come from the same codec).
//! * [`ValueHist`] — the boxed-`Value` compatibility wrapper
//!   (`BTreeMap<Value, i64>`), kept for callers that accumulate arbitrary
//!   values without a pre-built dictionary (interestingness scoring over
//!   sampled rows, tests, custom measures). It is the *reference*
//!   implementation: property tests assert `CodedHist` agrees with it
//!   bit-for-bit on add/sub/KS, including nulls, NaNs and `-0.0`/`+0.0`.
//!
//! Both walk distinct values in the same (ascending `Value`) order and
//! apply identical floating-point operations, so switching a call site
//! from one to the other cannot change a single output bit.

use std::collections::BTreeMap;

use fedex_frame::{CodedColumn, Column, Value, NULL_CODE};

/// Ordered histogram of column values (nulls excluded).
#[derive(Debug, Clone, Default)]
pub struct ValueHist {
    counts: BTreeMap<Value, i64>,
    total: i64,
}

impl ValueHist {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Histogram of all non-null values of a column.
    pub fn from_column(col: &Column) -> Self {
        let mut h = ValueHist::new();
        for v in col.iter() {
            if !v.is_null() {
                h.add(v, 1);
            }
        }
        h
    }

    /// Histogram of the column restricted to `rows`.
    pub fn from_column_rows(col: &Column, rows: &[usize]) -> Self {
        let mut h = ValueHist::new();
        for &i in rows {
            let v = col.get(i);
            if !v.is_null() {
                h.add(v, 1);
            }
        }
        h
    }

    /// Add `n` observations of `v`.
    pub fn add(&mut self, v: Value, n: i64) {
        if n == 0 {
            return;
        }
        *self.counts.entry(v).or_insert(0) += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Number of distinct values.
    pub fn n_distinct(&self) -> usize {
        self.counts.values().filter(|&&c| c > 0).count()
    }

    /// Count of one value.
    pub fn count(&self, v: &Value) -> i64 {
        self.counts.get(v).copied().unwrap_or(0)
    }

    /// Iterate `(value, count)` in value order, skipping zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (&Value, i64)> + '_ {
        self.counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v, c))
    }

    /// The `n` most frequent values, ties broken by value order.
    pub fn top_n(&self, n: usize) -> Vec<(Value, i64)> {
        let mut all: Vec<(Value, i64)> = self.iter().map(|(v, c)| (v.clone(), c)).collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        all.truncate(n);
        all
    }

    /// KS statistic between `self − sub_a` and `other − sub_b`, where the
    /// subtracted histograms are the value counts of a removed set-of-rows
    /// on each side. Pass [`ValueHist::new()`] to subtract nothing.
    ///
    /// Returns 0.0 when either reduced side is empty.
    pub fn ks_sub(&self, sub_a: &ValueHist, other: &ValueHist, sub_b: &ValueHist) -> f64 {
        let ta = (self.total - sub_a.total) as f64;
        let tb = (other.total - sub_b.total) as f64;
        if ta <= 0.0 || tb <= 0.0 {
            return 0.0;
        }
        // Merge-walk the union of keys from all four histograms in value
        // order, maintaining both CDFs.
        let mut keys: Vec<&Value> = self
            .counts
            .keys()
            .chain(other.counts.keys())
            .chain(sub_a.counts.keys())
            .chain(sub_b.counts.keys())
            .collect();
        keys.sort();
        keys.dedup();

        let mut cdf_a = 0.0f64;
        let mut cdf_b = 0.0f64;
        let mut max_diff = 0.0f64;
        for k in keys {
            let ca = self.count(k) - sub_a.count(k);
            let cb = other.count(k) - sub_b.count(k);
            cdf_a += ca as f64 / ta;
            cdf_b += cb as f64 / tb;
            let d = (cdf_a - cdf_b).abs();
            if d > max_diff {
                max_diff = d;
            }
        }
        max_diff.clamp(0.0, 1.0)
    }

    /// Plain two-sample KS statistic between two histograms.
    pub fn ks(&self, other: &ValueHist) -> f64 {
        let empty = ValueHist::new();
        self.ks_sub(&empty, other, &empty)
    }
}

/// Dense histogram over the dictionary codes of one
/// [`CodedColumn`] (nulls excluded).
///
/// `counts[code]` is the number of observations of the value behind
/// `code`; codes are in ascending value order, so a linear walk over the
/// counts is a walk over sorted values. Every histogram taking part in a
/// KS computation must be built over the **same code space**.
#[derive(Debug, Clone, Default)]
pub struct CodedHist {
    counts: Vec<i64>,
    total: i64,
}

impl CodedHist {
    /// Empty histogram over a code space of `n_codes` codes.
    pub fn new(n_codes: usize) -> Self {
        CodedHist {
            counts: vec![0; n_codes],
            total: 0,
        }
    }

    /// Histogram of all non-null rows of a coded column — O(distinct), not
    /// O(rows): the per-code counts were fused into the encode pass
    /// ([`CodedColumn::counts`]), so this is a plain copy.
    pub fn from_coded(col: &CodedColumn) -> Self {
        CodedHist {
            counts: col.counts().to_vec(),
            total: col.n_non_null() as i64,
        }
    }

    /// Histogram of a raw code sequence ([`NULL_CODE`] entries skipped).
    pub fn from_codes(codes: &[u32], n_codes: usize) -> Self {
        let mut h = CodedHist::new(n_codes);
        for &c in codes {
            if c != NULL_CODE {
                h.counts[c as usize] += 1;
                h.total += 1;
            }
        }
        h
    }

    /// Histogram of the coded column restricted to `rows`.
    pub fn from_coded_rows(col: &CodedColumn, rows: &[usize]) -> Self {
        let mut h = CodedHist::new(col.n_codes());
        for &i in rows {
            let c = col.code(i);
            if c != NULL_CODE {
                h.counts[c as usize] += 1;
                h.total += 1;
            }
        }
        h
    }

    /// Add `n` observations of `code` — O(1).
    #[inline]
    pub fn add(&mut self, code: u32, n: i64) {
        self.counts[code as usize] += n;
        self.total += n;
    }

    /// Total number of observations.
    pub fn total(&self) -> i64 {
        self.total
    }

    /// Size of the code space.
    pub fn n_codes(&self) -> usize {
        self.counts.len()
    }

    /// Number of codes with a positive count.
    pub fn n_distinct(&self) -> usize {
        self.counts.iter().filter(|&&c| c > 0).count()
    }

    /// Count of one code.
    #[inline]
    pub fn count(&self, code: u32) -> i64 {
        self.counts[code as usize]
    }

    /// The raw per-code counts, in ascending value order.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// KS statistic between `self − sub_a` and `other − sub_b`; the coded
    /// equivalent of [`ValueHist::ks_sub`], with the identical sequence of
    /// floating-point operations (same walk order, same CDF updates), so
    /// the two kernels agree bit-for-bit.
    ///
    /// All four histograms must share the code space. Returns 0.0 when
    /// either reduced side is empty.
    pub fn ks_sub(&self, sub_a: &CodedHist, other: &CodedHist, sub_b: &CodedHist) -> f64 {
        ks_sub_counts(
            &self.counts,
            &sub_a.counts,
            self.total - sub_a.total,
            &other.counts,
            &sub_b.counts,
            other.total - sub_b.total,
        )
    }

    /// Plain two-sample KS statistic between two coded histograms.
    pub fn ks(&self, other: &CodedHist) -> f64 {
        ks_sub_counts(
            &self.counts,
            &[],
            self.total,
            &other.counts,
            &[],
            other.total,
        )
    }
}

/// The streaming KS kernel over dense per-code counts: one linear sweep in
/// code (= value) order, maintaining both CDFs. Subtraction slices may be
/// empty (nothing subtracted) but must otherwise match the base length.
///
/// This performs exactly the operations of [`ValueHist::ks_sub`]'s
/// merge-walk: the walked code set equals the old merged key set whenever
/// every code occurs in at least one base histogram (true by construction
/// when the codec was built from the base column), and codes absent from
/// all four histograms only add an exact `+0.0` to each CDF, which cannot
/// change any bit of the result.
pub fn ks_sub_counts(
    a: &[i64],
    sub_a: &[i64],
    total_a: i64,
    b: &[i64],
    sub_b: &[i64],
    total_b: i64,
) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "histograms must share a code space");
    debug_assert!(sub_a.is_empty() || sub_a.len() == a.len());
    debug_assert!(sub_b.is_empty() || sub_b.len() == b.len());
    let ta = total_a as f64;
    let tb = total_b as f64;
    if ta <= 0.0 || tb <= 0.0 {
        return 0.0;
    }
    #[inline(always)]
    fn walk(
        ta: f64,
        tb: f64,
        n: usize,
        ca: impl Fn(usize) -> i64,
        cb: impl Fn(usize) -> i64,
    ) -> f64 {
        let mut cdf_a = 0.0f64;
        let mut cdf_b = 0.0f64;
        let mut max_diff = 0.0f64;
        for c in 0..n {
            cdf_a += ca(c) as f64 / ta;
            cdf_b += cb(c) as f64 / tb;
            let d = (cdf_a - cdf_b).abs();
            if d > max_diff {
                max_diff = d;
            }
        }
        max_diff.clamp(0.0, 1.0)
    }
    let n = a.len();
    match (sub_a.is_empty(), sub_b.is_empty()) {
        (true, true) => walk(ta, tb, n, |c| a[c], |c| b[c]),
        (true, false) => walk(ta, tb, n, |c| a[c], |c| b[c] - sub_b[c]),
        (false, true) => walk(ta, tb, n, |c| a[c] - sub_a[c], |c| b[c]),
        (false, false) => walk(ta, tb, n, |c| a[c] - sub_a[c], |c| b[c] - sub_b[c]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::Column;

    #[test]
    fn from_column_counts_values() {
        let c = Column::from_strs("d", vec!["a", "b", "a", "a"]);
        let h = ValueHist::from_column(&c);
        assert_eq!(h.total(), 4);
        assert_eq!(h.count(&Value::str("a")), 3);
        assert_eq!(h.n_distinct(), 2);
    }

    #[test]
    fn nulls_excluded() {
        let c = Column::from_opt_ints("x", vec![Some(1), None, Some(1)]);
        let h = ValueHist::from_column(&c);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn restricted_rows() {
        let c = Column::from_ints("x", vec![1, 2, 3, 2]);
        let h = ValueHist::from_column_rows(&c, &[1, 3]);
        assert_eq!(h.count(&Value::Int(2)), 2);
        assert_eq!(h.total(), 2);
    }

    #[test]
    fn ks_matches_direct_computation() {
        let a = Column::from_ints("x", vec![1, 1, 1, 2]);
        let b = Column::from_ints("x", vec![1, 2, 2, 2]);
        let ha = ValueHist::from_column(&a);
        let hb = ValueHist::from_column(&b);
        // CDF at 1: 0.75 vs 0.25 → D = 0.5
        assert!((ha.ks(&hb) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ks_sub_equals_ks_of_reduced_columns() {
        let col = Column::from_ints("x", vec![1, 1, 2, 3, 3, 3, 4]);
        let out = Column::from_ints("x", vec![3, 3, 3, 4]);
        let h_in = ValueHist::from_column(&col);
        let h_out = ValueHist::from_column(&out);
        // Remove rows {0, 4} from the input (values 1 and 3); on the output
        // side row 4 maps to output row 1 (value 3).
        let sub_in = ValueHist::from_column_rows(&col, &[0, 4]);
        let sub_out = ValueHist::from_column_rows(&out, &[1]);

        let reduced_in = Column::from_ints("x", vec![1, 2, 3, 3, 4]);
        let reduced_out = Column::from_ints("x", vec![3, 3, 4]);
        let expected =
            ValueHist::from_column(&reduced_in).ks(&ValueHist::from_column(&reduced_out));
        let got = h_in.ks_sub(&sub_in, &h_out, &sub_out);
        assert!(
            (got - expected).abs() < 1e-12,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn ks_sub_empty_side_is_zero() {
        let c = Column::from_ints("x", vec![1, 2]);
        let h = ValueHist::from_column(&c);
        let all = ValueHist::from_column_rows(&c, &[0, 1]);
        assert_eq!(h.ks_sub(&all, &h, &ValueHist::new()), 0.0);
    }

    #[test]
    fn top_n_orders_by_count_then_value() {
        let c = Column::from_strs("d", vec!["b", "b", "a", "a", "c"]);
        let h = ValueHist::from_column(&c);
        let top = h.top_n(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, Value::str("a")); // tie (2 vs 2) → value order
        assert_eq!(top[1].0, Value::str("b"));
    }

    #[test]
    fn coded_hist_matches_value_hist_ks() {
        let col = Column::from_floats("x", vec![1.0, -0.0, 0.0, 2.5, 1.0, -0.0]);
        let out = Column::from_floats("x", vec![1.0, 2.5]);
        let coded = CodedColumn::encode(&col);
        // Code the output against the input's dictionary by value lookup
        // (the pipeline derives these through provenance instead).
        let code_of = |v: &Value| coded.decode().iter().position(|d| d == v).map(|c| c as u32);
        let mut hb = CodedHist::new(coded.n_codes());
        for v in out.iter() {
            hb.add(code_of(&v).unwrap(), 1);
        }
        let ha = CodedHist::from_coded(&coded);
        let want = ValueHist::from_column(&col).ks(&ValueHist::from_column(&out));
        assert_eq!(ha.ks(&hb).to_bits(), want.to_bits());
    }

    #[test]
    fn coded_hist_subtraction() {
        let col = Column::from_ints("x", vec![1, 1, 2, 3, 3, 3, 4]);
        let coded = CodedColumn::encode(&col);
        let h = CodedHist::from_coded(&coded);
        let sub = CodedHist::from_coded_rows(&coded, &[0, 4]);
        assert_eq!(h.total(), 7);
        assert_eq!(sub.total(), 2);
        // Subtracting nothing on either side reproduces the plain KS.
        let empty = CodedHist::new(coded.n_codes());
        assert_eq!(h.ks_sub(&empty, &h, &empty).to_bits(), h.ks(&h).to_bits());
        // Matches the boxed reference on the same subtraction.
        let vh = ValueHist::from_column(&col);
        let vsub = ValueHist::from_column_rows(&col, &[0, 4]);
        let got = h.ks_sub(&sub, &h, &empty);
        let want = vh.ks_sub(&vsub, &vh, &ValueHist::new());
        assert_eq!(got.to_bits(), want.to_bits());
    }

    #[test]
    fn coded_hist_skips_nulls() {
        let c = Column::from_opt_ints("x", vec![Some(1), None, Some(1)]);
        let coded = CodedColumn::encode(&c);
        let h = CodedHist::from_coded(&coded);
        assert_eq!(h.total(), 2);
        assert_eq!(h.n_distinct(), 1);
    }

    #[test]
    fn mixed_numeric_keys_merge() {
        // Int and Float of equal numeric value are one key.
        let mut h = ValueHist::new();
        h.add(Value::Int(2), 1);
        h.add(Value::Float(2.0), 1);
        assert_eq!(h.n_distinct(), 1);
        assert_eq!(h.count(&Value::Int(2)), 2);
    }
}
