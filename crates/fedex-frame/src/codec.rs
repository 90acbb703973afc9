//! Dense dictionary codes for every column dtype — the storage side of the
//! code-based kernel layer.
//!
//! # The code ⇄ value contract
//!
//! A [`CodedColumn`] is a per-row `Vec<u32>` of *dense* codes plus a decode
//! table back to boxed [`Value`]s, built in one pass over the column:
//!
//! * codes are `0..n_codes`, one per **distinct non-null value** of the
//!   column; [`NULL_CODE`] (`u32::MAX`) marks a null row;
//! * codes are assigned in **ascending [`Value`] order**, so comparing two
//!   codes as integers compares the underlying values exactly as
//!   [`Value::cmp`] would — in particular, a walk over `0..n_codes` visits
//!   values in the same order as the key walk of a `BTreeMap<Value, _>`.
//!   Kernels (histograms, KS statistics, frequency partitions, functional
//!   dependency checks) therefore never need to touch a `Value` on their
//!   hot path; the decode table is only consulted for presentation
//!   (labels, captions);
//! * value distinctness follows `Value` equality, i.e. `f64::total_cmp`
//!   for floats: `-0.0` and `+0.0` are **distinct** codes, and every NaN
//!   bit pattern is its own code — exactly the keying of the boxed
//!   `ValueHist` this layer replaces;
//! * string columns reuse the `StrColumn` dictionary: encoding remaps
//!   the existing intern codes through a sort of the (typically tiny)
//!   dictionary, without hashing any row.
//!
//! Encoding **never sorts the full column** — only the distinct values.
//! Numeric columns dedup adaptively: a sorted run (binary search + insert,
//! no hashing) while the dictionary stays small, spilling to a hash table
//! with provisional first-seen codes when cardinality grows, followed by
//! one sort of the distincts and an O(n) remap. The per-code occurrence
//! **counts fall out of the same pass** ([`CodedColumn::counts`]), so
//! consumers that need the column's histogram (interestingness scoring,
//! frequency partitions) never re-scan the rows.
//!
//! A [`CodedFrame`] bundles the coded columns of one dataframe so a
//! pipeline can encode each input **once** and share the result (`Arc`)
//! across stages.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use crate::column::{Column, ColumnData, NULL_CODE};
use crate::frame::DataFrame;
use crate::value::Value;

/// A dictionary-coded view of one column: dense `u32` codes per row, in
/// ascending value order, with a decode table back to [`Value`] and the
/// per-code occurrence counts fused into the encode pass.
#[derive(Debug, Clone)]
pub struct CodedColumn {
    codes: Vec<u32>,
    decode: Vec<Value>,
    counts: Vec<i64>,
    n_non_null: i64,
}

impl CodedColumn {
    /// Encode a column: dedup the distinct values, sort *only* them, emit
    /// codes and per-code counts in one pass over the rows.
    pub fn encode(col: &Column) -> CodedColumn {
        match col.data() {
            ColumnData::Bool(v) => encode_bools(v),
            ColumnData::Int(v) => encode_numeric(v),
            ColumnData::Float(v) => encode_numeric(v),
            ColumnData::Str(s) => {
                // Reuse the intern dictionary: count referenced entries,
                // sort them, remap the existing codes. No per-row hashing.
                let dict = s.dict();
                let mut old_counts = vec![0i64; dict.len()];
                let mut n_non_null = 0i64;
                for i in 0..s.len() {
                    let c = s.code(i);
                    if c != NULL_CODE {
                        old_counts[c as usize] += 1;
                        n_non_null += 1;
                    }
                }
                let mut present: Vec<u32> = (0..dict.len() as u32)
                    .filter(|&c| old_counts[c as usize] > 0)
                    .collect();
                present.sort_by(|&a, &b| dict[a as usize].cmp(&dict[b as usize]));
                let mut remap = vec![NULL_CODE; dict.len()];
                let mut decode = Vec::with_capacity(present.len());
                let mut counts = Vec::with_capacity(present.len());
                for (new, &old) in present.iter().enumerate() {
                    remap[old as usize] = new as u32;
                    decode.push(Value::Str(dict[old as usize].clone()));
                    counts.push(old_counts[old as usize]);
                }
                let codes = (0..s.len())
                    .map(|i| {
                        let c = s.code(i);
                        if c == NULL_CODE {
                            NULL_CODE
                        } else {
                            remap[c as usize]
                        }
                    })
                    .collect();
                CodedColumn {
                    codes,
                    decode,
                    counts,
                    n_non_null,
                }
            }
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

    /// Per-row codes ([`NULL_CODE`] = null), in ascending value order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// Code of row `i`.
    #[inline]
    pub fn code(&self, i: usize) -> u32 {
        self.codes[i]
    }

    /// Number of distinct non-null values (codes are `0..n_codes`).
    pub fn n_codes(&self) -> usize {
        self.decode.len()
    }

    /// Decode table: the distinct values in ascending [`Value`] order.
    pub fn decode(&self) -> &[Value] {
        &self.decode
    }

    /// The value behind one code (presentation only — kernels stay on
    /// codes).
    pub fn value(&self, code: u32) -> &Value {
        &self.decode[code as usize]
    }

    /// Per-code occurrence counts, in ascending value order — the column's
    /// full histogram, accumulated during encoding. `counts()[c]` is the
    /// number of rows carrying code `c`; every entry is ≥ 1.
    pub fn counts(&self) -> &[i64] {
        &self.counts
    }

    /// Number of non-null rows — O(1), tracked during encoding.
    pub fn n_non_null(&self) -> usize {
        self.n_non_null as usize
    }

    /// Approximate heap size in bytes — the codes, counts, and decode
    /// table. Used by byte-budgeted caches; boxed `Value` overhead in the
    /// decode table is estimated flat.
    pub fn approx_bytes(&self) -> usize {
        self.codes.len() * std::mem::size_of::<u32>()
            + self.counts.len() * std::mem::size_of::<i64>()
            + self.decode.len() * 32
    }
}

/// A numeric dictionary key: total order (= [`Value::cmp`] semantics) plus
/// a bijective `u64` image for hashing.
trait NumKey: Copy {
    fn cmp_key(&self, other: &Self) -> Ordering;
    fn hash_bits(self) -> u64;
    fn to_value(self) -> Value;
}

impl NumKey for i64 {
    #[inline]
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.cmp(other)
    }
    #[inline]
    fn hash_bits(self) -> u64 {
        self as u64
    }
    fn to_value(self) -> Value {
        Value::Int(self)
    }
}

impl NumKey for f64 {
    /// `total_cmp` — the [`Value::cmp`] float semantics. Its equality is
    /// bit equality, so [`NumKey::hash_bits`] (the raw bits) keys the hash
    /// table consistently: `-0.0`/`+0.0` and distinct NaN payloads stay
    /// distinct.
    #[inline]
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
    #[inline]
    fn hash_bits(self) -> u64 {
        self.to_bits()
    }
    fn to_value(self) -> Value {
        Value::Float(self)
    }
}

/// Multiply-xor hasher for the pre-mixed `u64` dictionary keys — SipHash
/// (the `HashMap` default) costs more per row than the whole lookup.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // Fibonacci multiply then fold the high bits down so the table's
        // low-bit masking sees the full key.
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 29);
    }
    fn write(&mut self, bytes: &[u8]) {
        // Only u64 keys reach this hasher today; fold (rather than
        // overwrite) so multi-write keys would still mix every byte.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A sorted run stays the dedup structure while the dictionary holds fewer
/// values than this; beyond it, insertion cost (O(d) memmove) loses to
/// hashing and the encoder spills.
const SORTED_RUN_MAX: usize = 1024;

/// Encode a numeric column without ever sorting the rows.
///
/// Dedup strategy is picked by observed cardinality: a sorted run of the
/// distinct values (binary search + insert — no hashing, two passes over
/// the rows) while the dictionary stays under [`SORTED_RUN_MAX`]; past
/// that, one hashing pass assigns provisional first-seen codes, the
/// distincts alone are sorted, and an O(n) remap rewrites the provisional
/// codes in place. Both strategies produce identical output.
fn encode_numeric<K: NumKey>(v: &[Option<K>]) -> CodedColumn {
    let mut run: Vec<K> = Vec::new();
    let mut spilled = false;
    for x in v.iter().flatten() {
        if let Err(pos) = run.binary_search_by(|p| p.cmp_key(x)) {
            if run.len() >= SORTED_RUN_MAX {
                spilled = true;
                break;
            }
            run.insert(pos, *x);
        }
    }
    if !spilled {
        // Low cardinality: the run *is* the dictionary; emit codes and
        // counts in a second pass.
        let mut counts = vec![0i64; run.len()];
        let mut n_non_null = 0i64;
        let codes = v
            .iter()
            .map(|x| match x {
                None => NULL_CODE,
                Some(x) => {
                    let c = run
                        .binary_search_by(|p| p.cmp_key(x))
                        .expect("value was collected into the run")
                        as u32;
                    counts[c as usize] += 1;
                    n_non_null += 1;
                    c
                }
            })
            .collect();
        let decode = run.into_iter().map(K::to_value).collect();
        return CodedColumn {
            codes,
            decode,
            counts,
            n_non_null,
        };
    }

    // High cardinality: provisional first-seen codes via one hashing pass.
    let mut map: HashMap<u64, u32, BuildHasherDefault<KeyHasher>> =
        HashMap::with_capacity_and_hasher(4 * SORTED_RUN_MAX, BuildHasherDefault::default());
    let mut distinct: Vec<K> = Vec::new();
    let mut prov_counts: Vec<i64> = Vec::new();
    let mut n_non_null = 0i64;
    let mut codes: Vec<u32> = Vec::with_capacity(v.len());
    for x in v {
        match x {
            None => codes.push(NULL_CODE),
            Some(x) => {
                let c = *map.entry(x.hash_bits()).or_insert_with(|| {
                    distinct.push(*x);
                    prov_counts.push(0);
                    (distinct.len() - 1) as u32
                });
                prov_counts[c as usize] += 1;
                n_non_null += 1;
                codes.push(c);
            }
        }
    }
    // Sort only the distincts, then rewrite the provisional codes in place.
    let mut order: Vec<u32> = (0..distinct.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| distinct[a as usize].cmp_key(&distinct[b as usize]));
    let mut remap = vec![0u32; distinct.len()];
    let mut decode = Vec::with_capacity(distinct.len());
    let mut counts = Vec::with_capacity(distinct.len());
    for (new, &old) in order.iter().enumerate() {
        remap[old as usize] = new as u32;
        decode.push(distinct[old as usize].to_value());
        counts.push(prov_counts[old as usize]);
    }
    for c in codes.iter_mut() {
        if *c != NULL_CODE {
            *c = remap[*c as usize];
        }
    }
    CodedColumn {
        codes,
        decode,
        counts,
        n_non_null,
    }
}

fn encode_bools(v: &[Option<bool>]) -> CodedColumn {
    let mut by_bool = [0i64; 2];
    let mut n_non_null = 0i64;
    for b in v.iter().flatten() {
        by_bool[*b as usize] += 1;
        n_non_null += 1;
    }
    // false < true in Value order.
    let mut remap = [NULL_CODE; 2];
    let mut decode = Vec::new();
    let mut counts = Vec::new();
    for b in [false, true] {
        if by_bool[b as usize] > 0 {
            remap[b as usize] = decode.len() as u32;
            decode.push(Value::Bool(b));
            counts.push(by_bool[b as usize]);
        }
    }
    let codes = v
        .iter()
        .map(|b| b.map_or(NULL_CODE, |b| remap[b as usize]))
        .collect();
    CodedColumn {
        codes,
        decode,
        counts,
        n_non_null,
    }
}

/// The coded columns of one dataframe, shareable across pipeline stages.
#[derive(Debug, Clone, Default)]
pub struct CodedFrame {
    names: Vec<String>,
    columns: Vec<Arc<CodedColumn>>,
}

impl CodedFrame {
    /// Encode every column of `df`, in schema order.
    pub fn encode(df: &DataFrame) -> CodedFrame {
        let (names, columns) = df
            .columns()
            .iter()
            .map(|c| (c.name().to_string(), Arc::new(CodedColumn::encode(c))))
            .unzip();
        CodedFrame { names, columns }
    }

    /// Assemble from pre-encoded columns (used by parallel encoders).
    pub fn from_parts(names: Vec<String>, columns: Vec<Arc<CodedColumn>>) -> CodedFrame {
        debug_assert_eq!(names.len(), columns.len());
        CodedFrame { names, columns }
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Coded column by name.
    pub fn column(&self, name: &str) -> Option<&Arc<CodedColumn>> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(|i| &self.columns[i])
    }

    /// Approximate heap size in bytes (sum over columns).
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(|c| c.approx_bytes()).sum()
    }

    /// `(name, coded column)` pairs in schema order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<CodedColumn>)> + '_ {
        self.names
            .iter()
            .map(String::as_str)
            .zip(self.columns.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(col: &Column) {
        let coded = CodedColumn::encode(col);
        assert_eq!(coded.len(), col.len());
        // Codes decode back to the exact values; nulls map to NULL_CODE.
        let mut n_non_null = 0;
        for i in 0..col.len() {
            let v = col.get(i);
            if v.is_null() {
                assert_eq!(coded.code(i), NULL_CODE);
            } else {
                assert_eq!(coded.value(coded.code(i)), &v, "row {i}");
                n_non_null += 1;
            }
        }
        // Decode table strictly ascending in Value order → codes compare
        // like values.
        for w in coded.decode().windows(2) {
            assert!(w[0] < w[1], "decode table must be strictly sorted");
        }
        // Fused counts match a recount of the codes.
        assert_eq!(coded.counts().len(), coded.n_codes());
        assert_eq!(coded.n_non_null(), n_non_null);
        let mut recount = vec![0i64; coded.n_codes()];
        for &c in coded.codes() {
            if c != NULL_CODE {
                recount[c as usize] += 1;
            }
        }
        assert_eq!(coded.counts(), recount.as_slice());
        assert!(coded.counts().iter().all(|&c| c > 0));
    }

    #[test]
    fn encode_ints_sorted_dense() {
        let col = Column::from_opt_ints("x", vec![Some(5), Some(-1), None, Some(5), Some(3)]);
        let coded = CodedColumn::encode(&col);
        assert_eq!(coded.n_codes(), 3);
        assert_eq!(coded.codes(), &[2, 0, NULL_CODE, 2, 1]);
        assert_eq!(coded.value(0), &Value::Int(-1));
        assert_eq!(coded.counts(), &[1, 1, 2]);
        roundtrip(&col);
    }

    #[test]
    fn encode_strings_reuses_dictionary() {
        let col = Column::from_opt_strs("s", vec![Some("b"), None, Some("a"), Some("b")]);
        let coded = CodedColumn::encode(&col);
        assert_eq!(coded.codes(), &[1, NULL_CODE, 0, 1]);
        assert_eq!(coded.value(0), &Value::str("a"));
        assert_eq!(coded.counts(), &[1, 2]);
        roundtrip(&col);
    }

    #[test]
    fn encode_floats_total_order() {
        let col = Column::from_opt_floats(
            "f",
            vec![
                Some(1.5),
                Some(-0.0),
                Some(0.0),
                Some(f64::NAN),
                None,
                Some(-0.0),
            ],
        );
        let coded = CodedColumn::encode(&col);
        // -0.0 and +0.0 are distinct codes; NaN is its own code, sorted
        // last by total_cmp.
        assert_eq!(coded.n_codes(), 4);
        assert_eq!(coded.code(1), 0); // -0.0
        assert_eq!(coded.code(2), 1); // +0.0
        assert_eq!(coded.code(0), 2); // 1.5
        assert_eq!(coded.code(3), 3); // NaN
        assert_eq!(coded.code(1), coded.code(5));
        roundtrip(&col);
    }

    #[test]
    fn encode_bools() {
        let col = Column::new(
            "b",
            ColumnData::Bool(vec![Some(true), None, Some(false), Some(true)]),
        );
        let coded = CodedColumn::encode(&col);
        assert_eq!(coded.codes(), &[1, NULL_CODE, 0, 1]);
        assert_eq!(coded.counts(), &[1, 2]);
        roundtrip(&col);
    }

    #[test]
    fn coded_frame_lookup() {
        let df = DataFrame::new(vec![
            Column::from_ints("x", vec![3, 1]),
            Column::from_strs("s", vec!["b", "a"]),
        ])
        .unwrap();
        let coded = CodedFrame::encode(&df);
        assert_eq!(coded.n_columns(), 2);
        assert_eq!(coded.column("x").unwrap().codes(), &[1, 0]);
        assert_eq!(coded.column("s").unwrap().codes(), &[1, 0]);
        assert!(coded.column("nope").is_none());
    }

    #[test]
    fn empty_and_all_null_columns() {
        let col = Column::from_opt_ints("x", vec![None, None]);
        let coded = CodedColumn::encode(&col);
        assert_eq!(coded.n_codes(), 0);
        assert_eq!(coded.n_non_null(), 0);
        assert_eq!(coded.codes(), &[NULL_CODE, NULL_CODE]);
        let empty = Column::from_ints("x", vec![]);
        assert!(CodedColumn::encode(&empty).is_empty());
    }

    #[test]
    fn high_cardinality_spills_to_hashing() {
        // More distincts than SORTED_RUN_MAX forces the hash strategy; the
        // output contract (dense ascending codes, fused counts) must be
        // indistinguishable from the sorted-run strategy.
        let n = super::SORTED_RUN_MAX as i64 * 3;
        let vals: Vec<Option<i64>> = (0..n).map(|i| Some((i * 7919) % (2 * n))).collect();
        let col = Column::from_opt_ints("x", vals.clone());
        roundtrip(&col);
        let coded = CodedColumn::encode(&col);
        assert!(coded.n_codes() > super::SORTED_RUN_MAX);
        // Same data as floats exercises the total_cmp hash keying.
        let fcol = Column::from_opt_floats(
            "f",
            vals.iter().map(|v| v.map(|x| x as f64 / 3.0)).collect(),
        );
        roundtrip(&fcol);
    }

    #[test]
    fn spill_boundary_is_seamless() {
        // Exactly SORTED_RUN_MAX distincts stays on the run; one more
        // spills. Both sides must satisfy the full contract.
        for extra in [0i64, 1] {
            let n = super::SORTED_RUN_MAX as i64 + extra;
            let vals: Vec<Option<i64>> = (0..n).rev().map(Some).collect();
            let col = Column::from_opt_ints("x", vals);
            let coded = CodedColumn::encode(&col);
            assert_eq!(coded.n_codes(), n as usize);
            roundtrip(&col);
        }
    }
}
