//! The SIMD kernel boundary: every data-parallel inner loop of the
//! batch engine, in one module, behind one `Engine` switch.
//!
//! `ExecMode::Optimized` ("OPT") and `ExecMode::Simd` ("SIMD") execute the
//! *same* operators over the *same* selection vectors; they differ only in
//! which implementation this module dispatches for four hot loops:
//!
//! 1. **typed filter compare** — `column <op> literal` over a dense row
//!    range or a sparse selection vector,
//! 2. **selection compaction** — branchless mask→index emit
//!    (`out[k] = i; k += keep as usize`) instead of a branchy `Vec::push`
//!    per surviving row,
//! 3. **hash-key mixing** — the workspace-shared SplitMix64 finalizer
//!    ([`perfeval_stats::mix64`]) applied lane-parallel over key columns,
//!    feeding an open-addressed, insertion-ordered join/group index,
//! 4. **aggregate folds** — lane-accumulated sum/min/max over Int columns
//!    of the ungrouped aggregate, merged in a fixed lane order.
//!
//! SIMD is `ExecMode`'s default, so it is what `Session::new` and every
//! served statement run. OPT's scalar loops are the reference level that
//! E3 and E24 measure against; a caller reaches them only through
//! `Session::with_mode`.
//!
//! `std::simd` is nightly-only, so the SIMD paths are written as
//! fixed-width ([`LANES`]) chunked loops the compiler autovectorizes: the
//! compare/mix phase of each chunk is branch-free straight-line arithmetic
//! over independent lanes, and only the compaction emit carries a serial
//! dependency (on the output cursor).
//!
//! ## The bit-identity contract
//!
//! Every kernel here must produce **bit-identical results** to the scalar
//! engine, on every input — not "close enough", identical. That forces an
//! honest split:
//!
//! * Selection kernels are exact by construction (the surviving indices of
//!   a predicate do not depend on evaluation strategy).
//! * The hash index replays insertion order (per-key chains are built in
//!   row order and probed probe-major), so join pairs match the scalar
//!   `HashMap` path exactly, even though the hash function and table
//!   layout differ. Grouping is tier-independent: [`group_ids`].
//! * Integer folds use `i64` lane accumulators — associative, so any lane
//!   split is exact — but the scalar engine accumulates Int sums in `f64`,
//!   which rounds once a partial sum leaves `±2^53`. [`sum_i64_exact`]
//!   therefore proves the guard `Σ|v| < 2^53` (every scalar prefix sum is
//!   then exactly representable, making the scalar fold exact too) and
//!   refuses otherwise, falling back to the serial replay.
//! * **Float folds stay in serial order.** An f64 lane accumulator is NOT
//!   bit-identical to the serial left fold (addition does not associate,
//!   min/max lane folds diverge on `-0.0`/`0.0` ties and NaN), so Float
//!   sum/avg/min/max deliberately take the scalar path in every engine.
//!   This is the contract, not a TODO.

use crate::column::Column;
use crate::expr::BinOp;
use perfeval_stats::mix64;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Fixed lane width of the chunked kernels: 8 × 64-bit lanes (one AVX-512
/// register, two AVX2 registers, four NEON registers).
pub(crate) const LANES: usize = 8;

/// Which kernel implementations the executor dispatches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Engine {
    /// Scalar loops — the OPT tier's branchy `filter`/`push` idiom.
    #[default]
    Scalar,
    /// Chunked, branchless, autovectorization-friendly loops.
    Simd,
}

/// A filter's input selection: the first conjunct always sees a dense row
/// range (a whole batch or one morsel), later conjuncts see the sparse
/// survivor vector. Keeping the dense case symbolic lets the first-conjunct
/// kernel stream the column instead of gathering through an index vector
/// that is just `0..n`.
#[derive(Debug, Clone)]
pub(crate) enum Sel {
    /// A contiguous row range (no index vector materialized).
    Dense(Range<usize>),
    /// Explicit ascending row indices.
    Sparse(Vec<usize>),
}

impl Sel {
    pub(crate) fn len(&self) -> usize {
        match self {
            Sel::Dense(r) => r.len(),
            Sel::Sparse(v) => v.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the selection as an index vector.
    pub(crate) fn into_vec(self) -> Vec<usize> {
        match self {
            Sel::Dense(r) => r.collect(),
            Sel::Sparse(v) => v,
        }
    }
}

/// The comparison a filter kernel applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cmp {
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

impl Cmp {
    pub(crate) fn from_binop(op: BinOp) -> Option<Cmp> {
        Some(match op {
            BinOp::Lt => Cmp::Lt,
            BinOp::Le => Cmp::Le,
            BinOp::Gt => Cmp::Gt,
            BinOp::Ge => Cmp::Ge,
            BinOp::Eq => Cmp::Eq,
            BinOp::Ne => Cmp::Ne,
            _ => return None,
        })
    }
}

// --------------------------------------------------------------------
// Compare-select kernels (hot loops 1 + 2).
// --------------------------------------------------------------------

/// Dense compare-select: keep the indices in `range` whose value passes
/// `pred`. The SIMD path evaluates `LANES` predicates into a mask (the
/// vectorizable half), then emits indices branchlessly (hot loop 2: the
/// output cursor advances by `mask as usize`, no branch per row).
#[inline]
fn select_dense<T: Copy, P: Fn(T) -> bool>(
    data: &[T],
    range: Range<usize>,
    engine: Engine,
    pred: P,
) -> Vec<usize> {
    match engine {
        Engine::Scalar => range.filter(|&i| pred(data[i])).collect(),
        Engine::Simd => {
            let window = &data[range.clone()];
            let mut out = vec![0usize; window.len()];
            let mut k = 0usize;
            let mut base = range.start;
            let mut chunks = window.chunks_exact(LANES);
            for chunk in chunks.by_ref() {
                let mut mask = [false; LANES];
                for l in 0..LANES {
                    mask[l] = pred(chunk[l]);
                }
                for (l, &m) in mask.iter().enumerate() {
                    out[k] = base + l;
                    k += m as usize;
                }
                base += LANES;
            }
            for (l, &v) in chunks.remainder().iter().enumerate() {
                out[k] = base + l;
                k += pred(v) as usize;
            }
            out.truncate(k);
            out
        }
    }
}

/// Sparse compare-select: keep the indices of `sel` whose value passes
/// `pred`, gathering through the selection vector.
#[inline]
fn select_sparse<T: Copy, P: Fn(T) -> bool>(
    data: &[T],
    sel: &[usize],
    engine: Engine,
    pred: P,
) -> Vec<usize> {
    match engine {
        Engine::Scalar => sel.iter().copied().filter(|&i| pred(data[i])).collect(),
        Engine::Simd => {
            let mut out = vec![0usize; sel.len()];
            let mut k = 0usize;
            let mut chunks = sel.chunks_exact(LANES);
            for chunk in chunks.by_ref() {
                let mut mask = [false; LANES];
                for l in 0..LANES {
                    mask[l] = pred(data[chunk[l]]);
                }
                for l in 0..LANES {
                    out[k] = chunk[l];
                    k += mask[l] as usize;
                }
            }
            for &i in chunks.remainder() {
                out[k] = i;
                k += pred(data[i]) as usize;
            }
            out.truncate(k);
            out
        }
    }
}

#[inline]
fn select_by<T: Copy, P: Fn(T) -> bool>(
    data: &[T],
    sel: &Sel,
    engine: Engine,
    pred: P,
) -> Vec<usize> {
    match sel {
        Sel::Dense(r) => select_dense(data, r.clone(), engine, pred),
        Sel::Sparse(v) => select_sparse(data, v, engine, pred),
    }
}

/// Typed compare-select through a key-extraction map (`|v| v` for direct
/// comparisons, `|v| v as f64` for Int-column-vs-Float-literal). The map
/// and comparison inline into the chunk loop, so each (type, op) pair
/// monomorphizes to a tight branch-free compare.
#[inline]
pub(crate) fn compare_select_map<T, U, M>(
    data: &[T],
    map: M,
    cmp: Cmp,
    lit: U,
    sel: &Sel,
    engine: Engine,
) -> Vec<usize>
where
    T: Copy,
    U: Copy + PartialOrd,
    M: Fn(T) -> U + Copy,
{
    match cmp {
        Cmp::Lt => select_by(data, sel, engine, move |v| map(v) < lit),
        Cmp::Le => select_by(data, sel, engine, move |v| map(v) <= lit),
        Cmp::Gt => select_by(data, sel, engine, move |v| map(v) > lit),
        Cmp::Ge => select_by(data, sel, engine, move |v| map(v) >= lit),
        Cmp::Eq => select_by(data, sel, engine, move |v| map(v) == lit),
        Cmp::Ne => select_by(data, sel, engine, move |v| map(v) != lit),
    }
}

/// Direct typed compare-select (Int vs Int literal, Float vs Float
/// literal, dictionary code vs code).
#[inline]
pub(crate) fn compare_select<T>(
    data: &[T],
    cmp: Cmp,
    lit: T,
    sel: &Sel,
    engine: Engine,
) -> Vec<usize>
where
    T: Copy + PartialOrd,
{
    compare_select_map(data, |v| v, cmp, lit, sel, engine)
}

// --------------------------------------------------------------------
// Hash-key mixing + the insertion-ordered open-addressed index (hot
// loop 3).
// --------------------------------------------------------------------

/// Hashes one Int key with the workspace-shared SplitMix64 finalizer.
#[inline]
pub(crate) fn hash_i64(key: i64) -> u64 {
    mix64(key as u64)
}

/// Lane-parallel key mixing: `mix64` is branch-free shift/xor/multiply
/// arithmetic, so hashing a chunk of keys is `LANES` independent lanes the
/// compiler vectorizes. Hashing a whole window up front (instead of inside
/// the probe loop) keeps the vectorizable arithmetic separate from the
/// serial table walk.
#[inline]
pub(crate) fn hash_keys_i64(keys: &[i64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(keys.len());
    let mut chunks = keys.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        let mut h = [0u64; LANES];
        for l in 0..LANES {
            h[l] = hash_i64(chunk[l]);
        }
        out.extend_from_slice(&h);
    }
    for &k in chunks.remainder() {
        out.push(hash_i64(k));
    }
    out
}

/// "No row / vacant slot" sentinel in the index's u32 row links.
const NONE32: u32 = u32::MAX;

/// An open-addressed (linear-probing) hash index over an Int key column
/// that preserves **insertion order** per key: each distinct key owns a
/// chain of its row indices in ascending row order, so probing yields
/// exactly the (build-row, probe-row) pairs the scalar
/// `HashMap<i64, Vec<usize>>` path yields — same pairs, same order.
pub(crate) struct IntIndex {
    mask: usize,
    /// Slot keys (valid where `first[slot] != NONE32`).
    keys: Vec<i64>,
    /// First build row of the slot's chain, or `NONE32` when vacant.
    first: Vec<u32>,
    /// Last build row of the slot's chain (chain append point).
    last: Vec<u32>,
    /// Per-build-row forward chain link.
    next: Vec<u32>,
}

impl IntIndex {
    /// Builds the index over a build-side key column. Keys are mixed
    /// lane-parallel first; the table insert walk is serial (it must be —
    /// insertion order is the contract).
    pub(crate) fn build(data: &[i64]) -> IntIndex {
        assert!(
            data.len() < NONE32 as usize,
            "IntIndex row ids are u32; build side has {} rows",
            data.len()
        );
        let cap = (data.len().saturating_mul(2)).max(4).next_power_of_two();
        let mut idx = IntIndex {
            mask: cap - 1,
            keys: vec![0; cap],
            first: vec![NONE32; cap],
            last: vec![NONE32; cap],
            next: vec![NONE32; data.len()],
        };
        let hashes = hash_keys_i64(data);
        for (i, (&k, &h)) in data.iter().zip(&hashes).enumerate() {
            let mut s = h as usize & idx.mask;
            loop {
                if idx.first[s] == NONE32 {
                    idx.keys[s] = k;
                    idx.first[s] = i as u32;
                    idx.last[s] = i as u32;
                    break;
                }
                if idx.keys[s] == k {
                    idx.next[idx.last[s] as usize] = i as u32;
                    idx.last[s] = i as u32;
                    break;
                }
                s = (s + 1) & idx.mask;
            }
        }
        idx
    }

    /// Probes rows `range` of `probe`, appending matching
    /// (build-row, probe-row) pairs probe-major — ascending probe row,
    /// build rows in insertion order within each — onto `bsel`/`psel`.
    pub(crate) fn probe_range(
        &self,
        probe: &[i64],
        range: Range<usize>,
        bsel: &mut Vec<usize>,
        psel: &mut Vec<usize>,
    ) {
        let hashes = hash_keys_i64(&probe[range.clone()]);
        for (off, j) in range.enumerate() {
            let key = probe[j];
            let mut s = hashes[off] as usize & self.mask;
            loop {
                let f = self.first[s];
                if f == NONE32 {
                    break;
                }
                if self.keys[s] == key {
                    let mut r = f;
                    while r != NONE32 {
                        bsel.push(r as usize);
                        psel.push(j);
                        r = self.next[r as usize];
                    }
                    break;
                }
                s = (s + 1) & self.mask;
            }
        }
    }
}

/// Dense first-seen group ids over a single Int key column: returns one
/// group id per row plus the first row of each group, with ids assigned in
/// first-seen order — the same directory the scalar `HashMap` group-by
/// builds, computed through the shared mixer and an open-addressed table.
pub(crate) fn group_ids_i64(keys: &[i64]) -> (Vec<u32>, Vec<u32>) {
    assert!(keys.len() < NONE32 as usize, "group ids are u32");
    let cap = (keys.len().saturating_mul(2)).max(4).next_power_of_two();
    let mask = cap - 1;
    let mut slot_keys = vec![0i64; cap];
    let mut slot_gid = vec![NONE32; cap];
    let mut gids = Vec::with_capacity(keys.len());
    let mut first_rows: Vec<u32> = Vec::new();
    let hashes = hash_keys_i64(keys);
    for (i, (&k, &h)) in keys.iter().zip(&hashes).enumerate() {
        let mut s = h as usize & mask;
        let gid = loop {
            if slot_gid[s] == NONE32 {
                let g = first_rows.len() as u32;
                slot_keys[s] = k;
                slot_gid[s] = g;
                first_rows.push(i as u32);
                break g;
            }
            if slot_keys[s] == k {
                break slot_gid[s];
            }
            s = (s + 1) & mask;
        };
        gids.push(gid);
    }
    (gids, first_rows)
}

/// Dense first-seen group ids for rows `range` of the evaluated grouping
/// columns: one id per row of the range plus each group's first row (a row
/// of the columns, not of the range), ids in first-seen order — the
/// vocabulary of [`group_ids_i64`]. Which table backs it is chosen from
/// what the columns are:
///
/// * every key a dictionary-coded string or a bool, the product of their
///   cardinalities at most 2^16 (no key at all — the global aggregate — is
///   the empty product): the keys' codes pack into one small number that
///   indexes a direct table. No hash, nothing allocated per row;
/// * a single Int key: the open-addressed [`group_ids_i64`];
/// * anything else: a hash on the rows' key words (strings by code, floats
///   by bits).
pub(crate) fn group_ids(group_cols: &[Arc<Column>], range: Range<usize>) -> (Vec<u32>, Vec<u32>) {
    assert!(range.end < NONE32 as usize, "group ids are u32");
    let start = range.start;
    if let Some(cardinality) = packed_cardinality(group_cols) {
        // Pack the codes column by column, into what becomes the ids.
        let mut gids = vec![0u32; range.len()];
        for col in group_cols {
            match &**col {
                Column::Str { dict, codes } => {
                    let card = dict.values().len() as u32;
                    (gids.iter_mut().zip(&codes[range.clone()]))
                        .for_each(|(g, &c)| *g = *g * card + c)
                }
                Column::Bool(v) => (gids.iter_mut().zip(&v[range.clone()]))
                    .for_each(|(g, &b)| *g = *g * 2 + u32::from(b)),
                _ => unreachable!("packed keys are strings and bools"),
            }
        }
        let mut table = vec![NONE32; cardinality];
        let mut first_rows = Vec::new();
        for (j, g) in gids.iter_mut().enumerate() {
            let slot = &mut table[*g as usize];
            if *slot == NONE32 {
                *slot = first_rows.len() as u32;
                first_rows.push((start + j) as u32);
            }
            *g = *slot;
        }
        return (gids, first_rows);
    }
    if let Some(keys) = match group_cols {
        [col] => col.as_int(),
        _ => None,
    } {
        let (gids, mut first_rows) = group_ids_i64(&keys[range]);
        first_rows.iter_mut().for_each(|r| *r += start as u32);
        return (gids, first_rows);
    }
    let mut map: HashMap<Vec<u64>, u32> = HashMap::new();
    let mut first_rows = Vec::new();
    let mut words = Vec::with_capacity(group_cols.len());
    let gids = range
        .map(|i| {
            words.clear();
            words.extend(group_cols.iter().map(|c| key_word(c, i)));
            if let Some(&g) = map.get(words.as_slice()) {
                return g;
            }
            first_rows.push(i as u32);
            map.insert(words.clone(), first_rows.len() as u32 - 1);
            first_rows.len() as u32 - 1
        })
        .collect();
    (gids, first_rows)
}

/// The size of the direct table when every key is a dictionary-coded
/// string or a bool and the product of their cardinalities is at most
/// 2^16; a dictionary may well hold values no row of the range uses.
fn packed_cardinality(group_cols: &[Arc<Column>]) -> Option<usize> {
    group_cols.iter().try_fold(1usize, |product, col| {
        let card = match &**col {
            Column::Str { dict, .. } => dict.values().len(),
            Column::Bool(_) => 2,
            _ => return None,
        };
        Some(product * card).filter(|&p| p <= 1 << 16)
    })
}

/// Row `i` of `col` as one word, equal for two rows of the same column
/// exactly when their values are (strings by dictionary code, floats by
/// bits): a group key that costs no allocation per row.
fn key_word(col: &Column, i: usize) -> u64 {
    match col {
        Column::Int(v) => v[i] as u64,
        Column::Float(v) => v[i].to_bits(),
        Column::Str { codes, .. } => u64::from(codes[i]),
        Column::Bool(v) => u64::from(v[i]),
    }
}

// --------------------------------------------------------------------
// Aggregate folds (hot loop 4).
// --------------------------------------------------------------------

/// Largest magnitude below which every i64 is exactly representable as f64.
const F64_EXACT: u64 = 1 << 53;

/// Lane-accumulated sum of an Int column, exactness-guarded.
///
/// Returns `None` unless `Σ|v| < 2^53`. Under that guard every prefix sum
/// of the scalar engine's `f64` accumulation has magnitude `< 2^53`, so
/// each of its additions is exact and its final value equals this integer
/// total — making the lane fold bit-identical to the serial fold. Without
/// the guard the serial fold may round where integer lanes would not, so
/// the caller must replay serially instead.
pub(crate) fn sum_i64_exact(data: &[i64]) -> Option<i64> {
    let mut lanes = [0i64; LANES];
    let mut abs_lanes = [0u64; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for l in 0..LANES {
            lanes[l] = lanes[l].wrapping_add(chunk[l]);
            abs_lanes[l] = abs_lanes[l].saturating_add(chunk[l].unsigned_abs());
        }
    }
    // Fixed lane-merge order: ascending lane index, remainder last.
    let mut total = 0i64;
    let mut abs = 0u64;
    for l in 0..LANES {
        total = total.wrapping_add(lanes[l]);
        abs = abs.saturating_add(abs_lanes[l]);
    }
    for &v in chunks.remainder() {
        total = total.wrapping_add(v);
        abs = abs.saturating_add(v.unsigned_abs());
    }
    (abs < F64_EXACT).then_some(total)
}

/// Lane-folded minimum of an Int column (`None` when empty). Min is
/// associative and commutative over i64, so any lane split is exact.
pub(crate) fn min_i64(data: &[i64]) -> Option<i64> {
    fold_i64(data, i64::MAX, i64::min)
}

/// Lane-folded maximum of an Int column (`None` when empty).
pub(crate) fn max_i64(data: &[i64]) -> Option<i64> {
    fold_i64(data, i64::MIN, i64::max)
}

#[inline]
fn fold_i64(data: &[i64], identity: i64, f: impl Fn(i64, i64) -> i64 + Copy) -> Option<i64> {
    if data.is_empty() {
        return None;
    }
    let mut lanes = [identity; LANES];
    let mut chunks = data.chunks_exact(LANES);
    for chunk in chunks.by_ref() {
        for l in 0..LANES {
            lanes[l] = f(lanes[l], chunk[l]);
        }
    }
    let mut acc = identity;
    for &lane in &lanes {
        acc = f(acc, lane);
    }
    for &v in chunks.remainder() {
        acc = f(acc, v);
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ragged_data(n: usize) -> Vec<i64> {
        // Deterministic, sign-mixed, with repeats.
        (0..n).map(|i| ((i as i64 * 37) % 101) - 50).collect()
    }

    #[test]
    fn dense_select_matches_scalar_on_ragged_lengths() {
        for n in [0, 1, 7, 8, 9, 63, 64, 65, 200] {
            let data = ragged_data(n);
            for cmp in [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne] {
                let sel = Sel::Dense(0..n);
                let scalar = compare_select(&data, cmp, 3, &sel, Engine::Scalar);
                let simd = compare_select(&data, cmp, 3, &sel, Engine::Simd);
                assert_eq!(scalar, simd, "n={n} cmp={cmp:?}");
            }
        }
    }

    #[test]
    fn dense_select_respects_subranges() {
        let data = ragged_data(100);
        let sel = Sel::Dense(13..87);
        let scalar = compare_select(&data, Cmp::Ge, 0, &sel, Engine::Scalar);
        let simd = compare_select(&data, Cmp::Ge, 0, &sel, Engine::Simd);
        assert_eq!(scalar, simd);
        assert!(scalar.iter().all(|&i| (13..87).contains(&i)));
    }

    #[test]
    fn sparse_select_matches_scalar() {
        let data = ragged_data(200);
        let base: Vec<usize> = (0..200).filter(|i| i % 3 != 1).collect();
        for cmp in [Cmp::Lt, Cmp::Eq, Cmp::Ne] {
            let sel = Sel::Sparse(base.clone());
            let scalar = compare_select(&data, cmp, -7, &sel, Engine::Scalar);
            let simd = compare_select(&data, cmp, -7, &sel, Engine::Simd);
            assert_eq!(scalar, simd, "cmp={cmp:?}");
        }
    }

    #[test]
    fn float_select_handles_nan_identically() {
        let data = vec![1.0, f64::NAN, -0.0, 0.0, 2.5, f64::NAN, -3.0, 4.0, 5.0];
        for cmp in [Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne] {
            let sel = Sel::Dense(0..data.len());
            let scalar = compare_select(&data, cmp, 0.0, &sel, Engine::Scalar);
            let simd = compare_select(&data, cmp, 0.0, &sel, Engine::Simd);
            assert_eq!(scalar, simd, "cmp={cmp:?}");
        }
    }

    #[test]
    fn int_as_f64_map_select() {
        let data: Vec<i64> = (-10..10).collect();
        let sel = Sel::Dense(0..data.len());
        let scalar = compare_select_map(&data, |v| v as f64, Cmp::Lt, 2.5, &sel, Engine::Scalar);
        let simd = compare_select_map(&data, |v| v as f64, Cmp::Lt, 2.5, &sel, Engine::Simd);
        assert_eq!(scalar, simd);
        assert_eq!(scalar.len(), 13); // -10..=2
    }

    #[test]
    fn int_index_matches_hashmap_probe() {
        use std::collections::HashMap;
        let build: Vec<i64> = vec![5, 3, 5, 8, 3, 5, -1, 0, 8];
        let probe: Vec<i64> = vec![3, 9, 5, 5, -1, 8, 0, 42, 3];
        let mut map: HashMap<i64, Vec<usize>> = HashMap::new();
        for (i, &k) in build.iter().enumerate() {
            map.entry(k).or_default().push(i);
        }
        let mut want_b = Vec::new();
        let mut want_p = Vec::new();
        for (j, k) in probe.iter().enumerate() {
            if let Some(rows) = map.get(k) {
                for &i in rows {
                    want_b.push(i);
                    want_p.push(j);
                }
            }
        }
        let idx = IntIndex::build(&build);
        let mut got_b = Vec::new();
        let mut got_p = Vec::new();
        idx.probe_range(&probe, 0..probe.len(), &mut got_b, &mut got_p);
        assert_eq!(got_b, want_b);
        assert_eq!(got_p, want_p);
    }

    #[test]
    fn int_index_morsel_probes_concatenate() {
        let build = ragged_data(500);
        let probe = ragged_data(700);
        let idx = IntIndex::build(&build);
        let mut full_b = Vec::new();
        let mut full_p = Vec::new();
        idx.probe_range(&probe, 0..probe.len(), &mut full_b, &mut full_p);
        let mut split_b = Vec::new();
        let mut split_p = Vec::new();
        for start in (0..probe.len()).step_by(64) {
            let end = (start + 64).min(probe.len());
            idx.probe_range(&probe, start..end, &mut split_b, &mut split_p);
        }
        assert_eq!(full_b, split_b);
        assert_eq!(full_p, split_p);
    }

    #[test]
    fn int_index_empty_sides() {
        let idx = IntIndex::build(&[]);
        let mut b = Vec::new();
        let mut p = Vec::new();
        idx.probe_range(&[1, 2, 3], 0..3, &mut b, &mut p);
        assert!(b.is_empty() && p.is_empty());
        let idx = IntIndex::build(&[1, 2, 3]);
        idx.probe_range(&[], 0..0, &mut b, &mut p);
        assert!(b.is_empty() && p.is_empty());
    }

    #[test]
    fn group_ids_are_first_seen_dense() {
        let keys = vec![7, 7, 3, 7, 9, 3, 9, 9];
        let (gids, first_rows) = group_ids_i64(&keys);
        assert_eq!(gids, vec![0, 0, 1, 0, 2, 1, 2, 2]);
        assert_eq!(first_rows, vec![0, 2, 4]);
        let (empty_gids, empty_first) = group_ids_i64(&[]);
        assert!(empty_gids.is_empty() && empty_first.is_empty());
    }

    #[test]
    fn sum_matches_serial_f64_fold_under_guard() {
        let data = ragged_data(1003);
        let total = sum_i64_exact(&data).expect("small values pass the guard");
        let mut serial = 0.0f64;
        for &v in &data {
            serial += v as f64;
        }
        assert_eq!(serial, total as f64);
    }

    #[test]
    fn sum_refuses_when_f64_fold_may_round() {
        // Σ|v| ≥ 2^53: the serial f64 fold is not provably exact.
        let data = vec![(1i64 << 53) - 1, 1, -5];
        assert_eq!(sum_i64_exact(&data), None);
    }

    #[test]
    fn min_max_match_iterator_folds() {
        for n in [0usize, 1, 7, 8, 9, 200] {
            let data = ragged_data(n);
            assert_eq!(min_i64(&data), data.iter().copied().min(), "n={n}");
            assert_eq!(max_i64(&data), data.iter().copied().max(), "n={n}");
        }
    }

    #[test]
    fn hash_keys_match_single_hash() {
        let keys = ragged_data(37);
        let hashes = hash_keys_i64(&keys);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(hashes[i], hash_i64(k));
        }
    }
}
