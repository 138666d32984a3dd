//! Typed column storage.
//!
//! Columns are the engine's unit of storage and (in optimized mode) of
//! execution: each is a dense, type-specialized vector, with strings
//! dictionary-encoded — the layout whose cache behaviour the memory-wall
//! experiment (E4) motivates.

use crate::error::DbError;
use crate::types::{DataType, Value};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Bytes of column *data* duplicated by [`Column::clone`] since process
/// start. Zero-copy execution paths are verified against this counter:
/// a scan that shares columns by `Arc` must not move it.
static CLONED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total bytes of column data deep-copied by `Column::clone` so far.
///
/// Take a reading before and after a region and compare the delta; the
/// counter is process-global and monotone. Dictionary storage shared via
/// `Arc` is not charged — only the dense per-row vectors are.
pub fn cloned_bytes() -> u64 {
    CLONED_BYTES.load(Ordering::Relaxed)
}

/// Bytes of column data copied by materializing multi-chunk disk-backed
/// columns ([`Table::column_arc_io`](crate::Table::column_arc_io)) since
/// process start.
static SCAN_CONCAT_BYTES: AtomicU64 = AtomicU64::new(0);

/// Total bytes of column data copied so far to assemble whole columns out
/// of a disk-backed table's pooled chunks.
///
/// Process-global and monotone, like [`cloned_bytes`]. A sweeping operator
/// (`Filter`/`Project`/`Aggregate`) over a multi-chunk table reads chunk by
/// chunk and must not move it; a bare scan under `Sort`/`TopN`/`Limit`/
/// `Distinct`, a join side, or the debug engine does.
pub fn scan_concat_bytes() -> u64 {
    SCAN_CONCAT_BYTES.load(Ordering::Relaxed)
}

/// Charges one assembled whole column to [`scan_concat_bytes`].
pub(crate) fn charge_scan_concat(whole: &Column) {
    SCAN_CONCAT_BYTES.fetch_add(whole.len() as u64 * whole.value_bytes(), Ordering::Relaxed);
}

/// A string dictionary: distinct values plus the reverse index used while
/// loading. Shared between column copies via `Arc`, so cloning a string
/// column during query execution costs one reference count, not a rebuild
/// of the whole dictionary.
#[derive(Debug, Clone, Default)]
pub struct StrDict {
    values: Vec<String>,
    index: HashMap<String, u32>,
}

impl StrDict {
    /// The distinct values, in first-seen order.
    pub fn values(&self) -> &[String] {
        &self.values
    }

    /// Code of a value if present.
    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.index.get(s).copied()
    }

    /// Rebuilds a dictionary from its distinct values (the persistence
    /// reload path); codes are positional. `None` if a value repeats — two
    /// codes for one string would break every comparison made by code.
    pub(crate) fn from_values(values: Vec<String>) -> Option<StrDict> {
        let index: HashMap<String, u32> = values
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
        (index.len() == values.len()).then_some(StrDict { values, index })
    }

    /// Interns a value, returning its code.
    fn intern(&mut self, s: String) -> u32 {
        match self.index.get(&s) {
            Some(&c) => c,
            None => {
                let c = self.values.len() as u32;
                self.values.push(s.clone());
                self.index.insert(s, c);
                c
            }
        }
    }
}

/// A typed column of values.
#[derive(Debug)]
pub enum Column {
    /// Dense i64 vector.
    Int(Vec<i64>),
    /// Dense f64 vector.
    Float(Vec<f64>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Shared dictionary.
        dict: Arc<StrDict>,
        /// Per-row dictionary codes.
        codes: Vec<u32>,
    },
    /// Dense bool vector.
    Bool(Vec<bool>),
}

impl Clone for Column {
    fn clone(&self) -> Self {
        CLONED_BYTES.fetch_add(self.len() as u64 * self.value_bytes(), Ordering::Relaxed);
        match self {
            Column::Int(v) => Column::Int(v.clone()),
            Column::Float(v) => Column::Float(v.clone()),
            Column::Bool(v) => Column::Bool(v.clone()),
            Column::Str { dict, codes } => Column::Str {
                dict: Arc::clone(dict),
                codes: codes.clone(),
            },
        }
    }
}

impl Column {
    /// Creates an empty column of the given type.
    pub fn new(dt: DataType) -> Self {
        match dt {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str {
                dict: Arc::new(StrDict::default()),
                codes: Vec::new(),
            },
            DataType::Bool => Column::Bool(Vec::new()),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str { .. } => DataType::Str,
            Column::Bool(_) => DataType::Bool,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str { codes, .. } => codes.len(),
            Column::Bool(v) => v.len(),
        }
    }

    /// True if the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a value; the value must match the column type (NULLs are not
    /// supported in base tables — the generator never produces them, and
    /// rejecting them keeps the vectorized kernels branch-free).
    pub fn push(&mut self, v: Value) -> Result<(), DbError> {
        match (self, v) {
            (Column::Int(vec), Value::Int(i)) => vec.push(i),
            (Column::Float(vec), Value::Float(f)) => vec.push(f),
            (Column::Float(vec), Value::Int(i)) => vec.push(i as f64),
            (Column::Bool(vec), Value::Bool(b)) => vec.push(b),
            (Column::Str { dict, codes }, Value::Str(s)) => {
                // Fast path: value already interned (no dictionary write,
                // no copy-on-write even when the dictionary is shared).
                let code = match dict.code_of(&s) {
                    Some(c) => c,
                    None => Arc::make_mut(dict).intern(s),
                };
                codes.push(code);
            }
            (col, v) => {
                return Err(DbError::TypeMismatch(format!(
                    "cannot store {v:?} in {} column",
                    col.data_type()
                )))
            }
        }
        Ok(())
    }

    /// Value at row `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str { dict, codes } => Value::Str(dict.values()[codes[i] as usize].clone()),
            Column::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Width of one value in bytes as stored (used for page accounting).
    pub fn value_bytes(&self) -> u64 {
        match self {
            Column::Int(_) => 8,
            Column::Float(_) => 8,
            Column::Str { .. } => 4, // dictionary code
            Column::Bool(_) => 1,
        }
    }

    /// Number of distinct values (exact for strings via the dictionary,
    /// computed for other types).
    pub fn distinct_count(&self) -> usize {
        match self {
            Column::Str { dict, .. } => dict.values().len(),
            Column::Int(v) => {
                let mut set: Vec<i64> = v.clone();
                set.sort_unstable();
                set.dedup();
                set.len()
            }
            Column::Float(v) => {
                let mut set: Vec<u64> = v.iter().map(|f| f.to_bits()).collect();
                set.sort_unstable();
                set.dedup();
                set.len()
            }
            Column::Bool(v) => {
                let has_t = v.contains(&true);
                let has_f = v.contains(&false);
                usize::from(has_t) + usize::from(has_f)
            }
        }
    }

    /// Builds a new column containing the rows selected by `selection`
    /// (indices into this column, in output order).
    pub fn take(&self, selection: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(selection.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(selection.iter().map(|&i| v[i]).collect()),
            Column::Bool(v) => Column::Bool(selection.iter().map(|&i| v[i]).collect()),
            Column::Str { dict, codes } => Column::Str {
                dict: Arc::clone(dict),
                codes: selection.iter().map(|&i| codes[i]).collect(),
            },
        }
    }

    /// Concatenates `parts` (all of type `dt`) into one column, in order.
    ///
    /// This is the deterministic morsel merge: element `j` of part `p`
    /// lands after every element of parts `0..p`, so the result is the
    /// same column a serial evaluation over the concatenated input would
    /// produce. String parts that share one dictionary `Arc` are merged by
    /// code; otherwise values are re-interned in row order, which yields
    /// the same first-seen dictionary a serial build would.
    ///
    /// # Panics
    /// Panics if a part's type does not match `dt`.
    pub fn concat(dt: DataType, parts: &[&Column]) -> Column {
        let total: usize = parts.iter().map(|p| p.len()).sum();
        match dt {
            DataType::Int => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_int().expect("int part"));
                }
                Column::Int(out)
            }
            DataType::Float => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    out.extend_from_slice(p.as_float().expect("float part"));
                }
                Column::Float(out)
            }
            DataType::Bool => {
                let mut out = Vec::with_capacity(total);
                for p in parts {
                    match p {
                        Column::Bool(v) => out.extend_from_slice(v),
                        other => panic!("bool part expected, got {}", other.data_type()),
                    }
                }
                Column::Bool(out)
            }
            DataType::Str => {
                let shared = match parts.iter().find(|p| !p.is_empty()) {
                    Some(Column::Str { dict, .. }) => {
                        let first = dict;
                        parts
                            .iter()
                            .all(|p| match p {
                                Column::Str { dict, .. } => {
                                    p.is_empty() || Arc::ptr_eq(first, dict)
                                }
                                _ => panic!("str part expected, got {}", p.data_type()),
                            })
                            .then(|| Arc::clone(first))
                    }
                    Some(other) => panic!("str part expected, got {}", other.data_type()),
                    None => Some(Arc::new(StrDict::default())),
                };
                match shared {
                    Some(dict) => {
                        let mut out = Vec::with_capacity(total);
                        for p in parts {
                            if let Column::Str { codes, .. } = p {
                                out.extend_from_slice(codes);
                            }
                        }
                        Column::Str { dict, codes: out }
                    }
                    None => {
                        // Dictionaries diverge: re-intern in row order so the
                        // dictionary comes out in serial first-seen order —
                        // one string lookup per distinct value of a part,
                        // one code translation per row.
                        const UNSEEN: u32 = u32::MAX;
                        let mut merged = StrDict::default();
                        let mut out = Vec::with_capacity(total);
                        for p in parts {
                            let Column::Str { dict, codes } = p else {
                                panic!("str part expected, got {}", p.data_type());
                            };
                            let values = dict.values();
                            let mut remap = vec![UNSEEN; values.len()];
                            for &code in codes {
                                let slot = &mut remap[code as usize];
                                if *slot == UNSEEN {
                                    *slot = merged.intern(values[code as usize].clone());
                                }
                                out.push(*slot);
                            }
                        }
                        Column::Str {
                            dict: Arc::new(merged),
                            codes: out,
                        }
                    }
                }
            }
        }
    }

    /// Direct access to the i64 data (optimized kernels).
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to the f64 data (optimized kernels).
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Direct access to dictionary codes (optimized kernels).
    pub fn as_str_codes(&self) -> Option<(&[String], &[u32])> {
        match self {
            Column::Str { dict, codes } => Some((dict.values(), codes)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::new(DataType::Int);
        c.push(Value::Int(7)).unwrap();
        c.push(Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0), Value::Int(7));
        assert_eq!(c.get(1), Value::Int(-3));
    }

    #[test]
    fn int_widens_into_float_column() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Int(2)).unwrap();
        assert_eq!(c.get(0), Value::Float(2.0));
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut c = Column::new(DataType::Int);
        let err = c.push(Value::Str("x".into())).unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch(_)));
        assert!(c.is_empty());
    }

    #[test]
    fn string_dictionary_dedups() {
        let mut c = Column::new(DataType::Str);
        for s in ["ASIA", "EUROPE", "ASIA", "ASIA", "AFRICA"] {
            c.push(Value::Str(s.into())).unwrap();
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.distinct_count(), 3);
        assert_eq!(c.get(2), Value::Str("ASIA".into()));
        if let Column::Str { dict, .. } = &c {
            assert_eq!(dict.values().len(), 3);
            assert_eq!(dict.code_of("ASIA"), Some(0));
            assert_eq!(dict.code_of("MARS"), None);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn distinct_counts() {
        let mut i = Column::new(DataType::Int);
        for v in [1, 2, 2, 3, 3, 3] {
            i.push(Value::Int(v)).unwrap();
        }
        assert_eq!(i.distinct_count(), 3);
        let mut b = Column::new(DataType::Bool);
        b.push(Value::Bool(true)).unwrap();
        assert_eq!(b.distinct_count(), 1);
        b.push(Value::Bool(false)).unwrap();
        assert_eq!(b.distinct_count(), 2);
    }

    #[test]
    fn take_selects_in_order() {
        let mut c = Column::new(DataType::Int);
        for v in [10, 20, 30, 40] {
            c.push(Value::Int(v)).unwrap();
        }
        let t = c.take(&[3, 1]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(0), Value::Int(40));
        assert_eq!(t.get(1), Value::Int(20));
    }

    #[test]
    fn take_on_strings_keeps_dictionary() {
        let mut c = Column::new(DataType::Str);
        for s in ["a", "b", "c"] {
            c.push(Value::Str(s.into())).unwrap();
        }
        let t = c.take(&[2, 0]);
        assert_eq!(t.get(0), Value::Str("c".into()));
        assert_eq!(t.get(1), Value::Str("a".into()));
    }

    #[test]
    fn clone_charges_the_byte_counter() {
        let mut c = Column::new(DataType::Int);
        for v in 0..10 {
            c.push(Value::Int(v)).unwrap();
        }
        let before = cloned_bytes();
        let _copy = c.clone();
        assert_eq!(cloned_bytes() - before, 80, "10 i64s = 80 bytes");
    }

    #[test]
    fn concat_matches_serial_order() {
        let mut a = Column::new(DataType::Int);
        let mut b = Column::new(DataType::Int);
        for v in [1, 2] {
            a.push(Value::Int(v)).unwrap();
        }
        for v in [3, 4, 5] {
            b.push(Value::Int(v)).unwrap();
        }
        let c = Column::concat(DataType::Int, &[&a, &b]);
        assert_eq!(c.as_int(), Some(&[1, 2, 3, 4, 5][..]));
    }

    #[test]
    fn concat_str_shared_dictionary_keeps_codes() {
        let mut base = Column::new(DataType::Str);
        for s in ["x", "y", "x"] {
            base.push(Value::Str(s.into())).unwrap();
        }
        let a = base.take(&[0, 1]);
        let b = base.take(&[2]);
        let c = Column::concat(DataType::Str, &[&a, &b]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Str("x".into()));
        assert_eq!(c.get(1), Value::Str("y".into()));
        assert_eq!(c.get(2), Value::Str("x".into()));
    }

    #[test]
    fn concat_str_divergent_dictionaries_reintern_in_row_order() {
        let mut a = Column::new(DataType::Str);
        let mut b = Column::new(DataType::Str);
        a.push(Value::Str("p".into())).unwrap();
        b.push(Value::Str("q".into())).unwrap();
        b.push(Value::Str("p".into())).unwrap();
        let c = Column::concat(DataType::Str, &[&a, &b]);
        if let Column::Str { dict, .. } = &c {
            assert_eq!(dict.values(), &["p".to_owned(), "q".to_owned()][..]);
        } else {
            unreachable!()
        }
        assert_eq!(c.get(2), Value::Str("p".into()));
    }

    /// Filtered chunk outputs: a part's dictionary may hold values no row
    /// of the part uses, in an order its rows do not follow. The merged
    /// dictionary lists what the rows show, in the order they show it.
    #[test]
    fn concat_str_interns_by_row_appearance_not_dictionary_order() {
        let mut a = Column::new(DataType::Str);
        for s in ["x", "y", "z", "y"] {
            a.push(Value::Str(s.into())).unwrap();
        }
        let mut b = Column::new(DataType::Str);
        for s in ["w", "z", "x"] {
            b.push(Value::Str(s.into())).unwrap();
        }
        // a keeps rows [z, y] (dictionary still x, y, z); b keeps [x, w].
        let c = Column::concat(DataType::Str, &[&a.take(&[2, 3]), &b.take(&[2, 0])]);
        let (dict, codes) = c.as_str_codes().unwrap();
        assert_eq!(dict, ["z", "y", "x", "w"]);
        assert_eq!(codes, [0, 1, 2, 3]);
        if let Column::Str { dict, .. } = &c {
            assert_eq!(dict.code_of("x"), Some(2), "reverse index kept in step");
        }
    }

    #[test]
    fn concat_empty_parts() {
        let c = Column::concat(DataType::Float, &[]);
        assert!(c.is_empty());
        let c = Column::concat(DataType::Str, &[&Column::new(DataType::Str)]);
        assert!(c.is_empty());
    }

    #[test]
    fn typed_accessors() {
        let mut c = Column::new(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        assert_eq!(c.as_float(), Some(&[1.5][..]));
        assert!(c.as_int().is_none());
        assert_eq!(c.value_bytes(), 8);
        let s = Column::new(DataType::Str);
        assert_eq!(s.value_bytes(), 4);
    }
}
