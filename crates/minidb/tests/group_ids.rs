//! The grouped aggregate's arms, by bits.
//!
//! `kernels::group_ids` picks a table from what the grouping columns are —
//! a direct table for dictionary-coded strings and bools whose
//! cardinalities multiply to at most 2^16, the open-addressed kernel for a
//! single Int key, a hash on the key words otherwise — and the fold sweeps
//! each aggregate's argument column once per part. Whatever the arm, the
//! thread count, the part geometry and the storage, the answer is the debug
//! interpreter's, floats by `to_bits()`.
//!
//! The module is crate-private, so the arms are driven through SQL: the
//! seeded property at the end checks every group's first row (`MIN(id)`),
//! size and order-sensitive float sum against a naive `HashMap` reference.
//! That ids come out in first-seen order is not visible in a sorted answer;
//! the order-sensitive sums are what depends on it.
//!
//! Also here: aggregates whose argument is NULL at some rows (`v / k` with
//! `k = 0`) skip those rows as the interpreter does.

use minidb::{Catalog, DataType, ExecMode, Session, StoreConfig, TableBuilder, Value};
use proptest::prelude::*;
use std::collections::HashMap;

const MODES: [ExecMode; 3] = [ExecMode::Debug, ExecMode::Optimized, ExecMode::Simd];

/// A table from column specs: name, type, and the value of row `i`.
type ColSpec<'a> = (&'a str, DataType, &'a dyn Fn(i64) -> Value);

fn table(name: &str, rows: i64, cols: &[ColSpec<'_>]) -> minidb::Table {
    let mut b = TableBuilder::new(name);
    for (col, dt, _) in cols {
        b = b.column(col, *dt);
    }
    let mut t = b.build();
    for i in 0..rows {
        t.push_row(cols.iter().map(|(_, _, f)| f(i)).collect())
            .unwrap();
    }
    t
}

fn s(prefix: &str, n: i64) -> Value {
    Value::Str(format!("{prefix}{n}"))
}

/// Floats whose sum depends on the order of addition: `1e16 + 1 - 1e16` is
/// 0 or 1 by where the 1 falls.
fn order_sensitive(i: i64) -> Value {
    Value::Float(match i % 3 {
        0 => 1e16,
        1 => 1.0 + (i % 7) as f64,
        _ => -1e16,
    })
}

/// 2 000 rows, every kind of key: strings of cardinality 3, 5 and 2, a
/// bool, an Int of cardinality 37, strings of cardinality 256, 256 and 257
/// (products on both sides of 2^16), and a string whose second value first
/// appears in the last ten rows.
fn small_catalog() -> Catalog {
    let rows = 2_000;
    let mut catalog = Catalog::new();
    catalog
        .register(table(
            "g",
            rows,
            &[
                ("id", DataType::Int, &Value::Int),
                ("s1", DataType::Str, &|i| s("a", (i * 7) % 3)),
                ("s2", DataType::Str, &|i| s("b", (i / 3) % 5)),
                ("s3", DataType::Str, &|i| s("c", (i / 11) % 2)),
                ("b", DataType::Bool, &|i| Value::Bool(i % 5 < 2)),
                ("k", DataType::Int, &|i| Value::Int((i * 13) % 37 - 18)),
                ("f", DataType::Float, &order_sensitive),
                ("w1", DataType::Str, &|i| s("w", i % 256)),
                ("w2", DataType::Str, &|i| s("x", (i / 2) % 256)),
                ("w3", DataType::Str, &|i| s("y", i % 257)),
                ("late", DataType::Str, &|i| s("l", (i >= 1_990) as i64)),
            ],
        ))
        .unwrap();
    catalog
}

/// 70 000 rows with one string column of exactly 2^16 distinct values and
/// one of 2^16 + 1: a single key on either side of the direct table's bound.
fn wide_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .register(table(
            "w",
            70_000,
            &[
                ("id", DataType::Int, &Value::Int),
                ("u16", DataType::Str, &|i| s("p", i % 65_536)),
                ("u17", DataType::Str, &|i| s("q", i % 65_537)),
                ("f", DataType::Float, &order_sensitive),
            ],
        ))
        .unwrap();
    catalog
}

fn run(catalog: &Catalog, mode: ExecMode, threads: usize, morsel: usize, sql: &str) -> Vec<String> {
    let mut session = Session::new(catalog.clone())
        .with_mode(mode)
        .with_parallelism(threads)
        .with_morsel_rows(morsel);
    let result = session
        .query(sql)
        .run()
        .unwrap_or_else(|e| panic!("{e}: {sql}"));
    result.rows.iter().map(|row| bits(row)).collect()
}

/// A row with its floats spelled by bit pattern.
fn bits(row: &[Value]) -> String {
    let cell = |v: &Value| match v {
        Value::Float(f) => format!("f{:016x}", f.to_bits()),
        other => format!("{other:?}"),
    };
    row.iter().map(cell).collect::<Vec<_>>().join("|")
}

fn persisted(mem: &Catalog, tag: &str, chunk_rows: usize) -> (Catalog, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "minidb_group_ids_{tag}_{chunk_rows}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    mem.persist_with(&dir, &StoreConfig::default().chunk_rows(chunk_rows))
        .unwrap();
    (Catalog::open(&dir).unwrap(), dir)
}

/// Every statement under every engine × threads {1, 2, 4} over `mem` and
/// over its persisted copies at each of `chunk_rows`, against the debug
/// interpreter over `mem`.
fn battery(mem: &Catalog, tag: &str, chunk_rows: &[usize], statements: &[String]) {
    let disks: Vec<_> = chunk_rows.iter().map(|&c| persisted(mem, tag, c)).collect();
    let catalogs = || std::iter::once(mem).chain(disks.iter().map(|(c, _)| c));
    for sql in statements {
        let want = run(mem, ExecMode::Debug, 1, 16_384, sql);
        assert!(!want.is_empty() || sql.contains("id < 0"), "{sql}");
        for (ci, catalog) in catalogs().enumerate() {
            for mode in MODES {
                for (threads, morsel) in [(1, 16_384), (2, 100), (4, 37)] {
                    let got = run(catalog, mode, threads, morsel, sql);
                    assert_eq!(
                        got, want,
                        "{sql}\n{mode}, {threads} threads, morsel {morsel}, catalog {ci}"
                    );
                }
            }
        }
    }
    for (_, dir) in disks {
        let _ = std::fs::remove_dir_all(dir);
    }
}

const AGGS: &str = "COUNT(*) AS n, SUM(f) AS sf, AVG(f) AS af, MIN(f), MAX(id), MIN(id)";

fn grouped(table: &str, keys: &str, filter: &str) -> String {
    format!("SELECT {keys}, {AGGS} FROM {table} {filter} GROUP BY {keys} ORDER BY {keys}")
}

#[test]
fn every_arm_answers_as_the_interpreter_does() {
    let keys = [
        "s1",         // one string key
        "s1, s2",     // two
        "s1, s2, s3", // three
        "b",          // a bool
        "s1, b",      // string + bool
        "k",          // a single Int key: the open-addressed kernel
        "s1, k",      // string + Int: hashed
        "k, b",       // Int + bool: hashed
        "f",          // a float key: hashed
        "w1, w2",     // cardinalities 256 × 256 = 2^16: the direct table
        "w1, w3",     // 256 × 257: hashed
        "late",       // a group first seen in the last part
    ];
    let mut statements: Vec<String> = keys.iter().map(|k| grouped("g", k, "")).collect();
    // Parts whose filter keeps no row (the first ones, then all of them), and
    // dictionaries holding codes no row of a unit uses.
    statements.push(grouped("g", "s1, s2", "WHERE id >= 1500"));
    statements.push(grouped("g", "w1", "WHERE id >= 1900 AND k < 0"));
    statements.push(grouped("g", "s1", "WHERE id < 0"));
    statements.push(grouped("g", "k", "WHERE id < 0"));
    // The global aggregate is the fold with no key.
    statements.push(format!("SELECT {AGGS} FROM g"));
    statements.push(format!("SELECT {AGGS} FROM g WHERE id >= 700 AND b = true"));
    statements.push(format!("SELECT {AGGS}, SUM(1), AVG(2.5), MAX('z') FROM g"));
    statements.push("SELECT s1, SUM(1), AVG(2.5), MIN(7), COUNT(3) FROM g GROUP BY s1".to_owned());
    // DISTINCT keeps each group's first row.
    statements.push("SELECT DISTINCT s1, b, k FROM g".to_owned());
    battery(&small_catalog(), "small", &[64, 4096], &statements);
}

#[test]
fn a_single_key_on_both_sides_of_the_direct_tables_bound() {
    let statements = [grouped("w", "u16", ""), grouped("w", "u17", "")];
    battery(&wide_catalog(), "wide", &[4096], &statements);
}

/// `v / k` is NULL where `k = 0` (Int division), `k / 0` everywhere: the
/// interpreter's accumulators skip those rows, and so must the sweeps.
#[test]
fn aggregates_skip_a_null_argument_as_the_interpreter_does() {
    let mut mem = Catalog::new();
    mem.register(table(
        "t",
        400,
        &[
            ("k", DataType::Int, &|i| Value::Int((i * 5) % 4)),
            ("v", DataType::Int, &|i| Value::Int(i * 31 % 97 - 40)),
            ("s", DataType::Str, &|i| s("g", (i / 7) % 3)),
        ],
    ))
    .unwrap();
    let aggs = "COUNT(k / 0), COUNT(DISTINCT k / 0), COUNT(v / k), COUNT(DISTINCT v / k), \
                SUM(v / k), AVG(v / k), MIN(v / k), MAX(v / k), SUM(k / 0), COUNT(*)";
    let statements = [
        format!("SELECT {aggs} FROM t"),
        format!("SELECT {aggs} FROM t WHERE v > 0"),
        format!("SELECT s, {aggs} FROM t GROUP BY s ORDER BY s"),
        format!("SELECT k, {aggs} FROM t GROUP BY k ORDER BY k"),
    ];
    battery(&mem, "nulls", &[64], &statements);
    // The answers themselves, not only their agreement.
    let global = Session::new(mem)
        .query("SELECT COUNT(k / 0), COUNT(DISTINCT k / 0), COUNT(v / k) FROM t")
        .run()
        .unwrap();
    assert_eq!(
        global.rows,
        vec![vec![Value::Int(0), Value::Int(0), Value::Int(300)]]
    );
}

/// Int division nested in Float arithmetic divides integers: `(7 / 2) * 1.5`
/// is 4.5, not 5.25. The typed f64 kernels decline an operand expression
/// with no Float beneath it and the fallback evaluates it.
#[test]
fn int_division_under_float_arithmetic_divides_integers() {
    let mut mem = Catalog::new();
    mem.register(table(
        "t",
        400,
        &[
            ("id", DataType::Int, &Value::Int),
            ("k", DataType::Int, &|i| Value::Int((i * 5) % 4)),
            ("v", DataType::Int, &|i| Value::Int(i * 31 % 97 - 40)),
            ("y", DataType::Float, &|i| Value::Float(i as f64 / 8.0)),
            ("s", DataType::Str, &|i| s("g", (i / 7) % 3)),
        ],
    ))
    .unwrap();
    let aggs = "SUM((v / 2) * 1.5), AVG((v / k) + 0.5), SUM(((v / 2) + y) * 1.5), \
                SUM((v + k) * 0.5), COUNT(*)";
    let statements = [
        format!("SELECT {aggs} FROM t"),
        format!("SELECT s, {aggs} FROM t GROUP BY s ORDER BY s"),
        "SELECT id, (v / 2) * 1.5, (v / k) + 0.5, y * (v / 3) FROM t WHERE k > 0 ORDER BY id"
            .to_owned(),
    ];
    battery(&mem, "intdiv", &[64], &statements);

    // The answer itself, on the six rows of the report: 40.5, where
    // dividing in f64 gave 42.75.
    let mut six = Catalog::new();
    six.register(table(
        "t",
        6,
        &[("v", DataType::Int, &|i| Value::Int(i + 7))],
    ))
    .unwrap();
    for mode in MODES {
        let sum = Session::new(six.clone())
            .with_mode(mode)
            .query("SELECT SUM((v / 2) * 1.5) FROM t")
            .run()
            .unwrap();
        assert_eq!(sum.rows, vec![vec![Value::Float(40.5)]], "{mode}");
    }
}

/// SplitMix64, seeded by the proptest shim.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n.max(1)
    }
}

proptest! {
    /// Random key columns (strings, bools, Ints, floats) of random
    /// cardinalities, a random subset of them as the GROUP BY: every
    /// group's first row, size and serial float sum equal a naive
    /// `HashMap` reference's, whatever arm and geometry the engine chose.
    #[test]
    fn groups_match_a_naive_reference(
        rows in 0i64..600,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let cards: Vec<u64> = (0..4)
            .map(|_| {
                let top = if rng.below(4) == 0 { 300 } else { 6 };
                1 + rng.below(top)
            })
            .collect();
        let codes: Vec<Vec<i64>> = cards
            .iter()
            .map(|&c| (0..rows).map(|_| rng.below(c) as i64).collect())
            .collect();
        let mut catalog = Catalog::new();
        catalog
            .register(table(
                "r",
                rows,
                &[
                    ("id", DataType::Int, &Value::Int),
                    ("ks", DataType::Str, &|i| s("s", codes[0][i as usize])),
                    ("kt", DataType::Str, &|i| s("t", codes[1][i as usize])),
                    ("kb", DataType::Bool, &|i| Value::Bool(codes[2][i as usize] % 2 == 0)),
                    ("ki", DataType::Int, &|i| Value::Int(codes[3][i as usize] - 3)),
                    ("kf", DataType::Float, &|i| Value::Float(codes[3][i as usize] as f64 / 4.0)),
                    ("f", DataType::Float, &order_sensitive),
                ],
            ))
            .unwrap();
        let all = ["ks", "kt", "kb", "ki", "kf"];
        let mut keys: Vec<&str> = all.iter().copied().filter(|_| rng.below(2) == 0).collect();
        if keys.is_empty() {
            keys.push(all[rng.below(5) as usize]);
        }
        let key_list = keys.join(", ");
        let sql = format!("SELECT {key_list}, MIN(id), COUNT(*), SUM(f) FROM r GROUP BY {key_list}");

        // The reference: one pass in row order.
        let table = catalog.table("r").unwrap();
        let key_cols: Vec<usize> = keys.iter().map(|k| table.column_index(k).unwrap()).collect();
        let mut reference: HashMap<String, (i64, i64, f64)> = HashMap::new();
        for i in 0..rows as usize {
            let key: Vec<Value> = key_cols.iter().map(|&c| table.column(c).get(i)).collect();
            let Value::Float(f) = table.column(6).get(i) else { unreachable!() };
            let group = reference.entry(bits(&key)).or_insert((i as i64, 0, 0.0));
            group.1 += 1;
            group.2 += f;
        }

        let (threads, morsel) = (1 + rng.below(4) as usize, 1 + rng.below(200) as usize);
        for mode in [ExecMode::Optimized, ExecMode::Simd] {
            let mut session = Session::new(catalog.clone())
                .with_mode(mode)
                .with_parallelism(threads)
                .with_morsel_rows(morsel);
            let got = session.query(&sql).run().unwrap().rows;
            prop_assert!(got.len() == reference.len(), "{sql} (seed {seed}): {} groups", got.len());
            for row in got {
                let (key, aggs) = row.split_at(keys.len());
                let (first, n, sum) = reference[&bits(key)];
                let want = [Value::Int(first), Value::Int(n), Value::Float(sum)];
                prop_assert!(
                    bits(aggs) == bits(&want),
                    "{sql} (seed {seed}, {mode}, {threads} threads, morsel {morsel}): \
                     {aggs:?}, reference {want:?}"
                );
            }
        }
    }
}
