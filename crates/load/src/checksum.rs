//! Result checksums: the bit-identity gate for the load path.
//!
//! Throughput numbers are worthless if the server under load returns
//! different answers than it does serially — a harness that only counts
//! queries/second would never notice. Every query in the mix has a
//! checksum computed once from an in-process [`minidb::Session`] run;
//! every result received over the load path is checksummed the same way
//! and compared. Floats go in as `to_bits()` (bit identity, not
//! approximate equality), exactly like `minidb-net`'s round-trip tests.

use std::collections::HashMap;

use minidb::{Catalog, ExecMode, Session, Value};

/// FNV-1a over a canonical encoding of the result rows. Order-sensitive:
/// the queries in a load mix are `ORDER BY`-stable or single-row, so row
/// order is part of the contract.
pub fn result_checksum(rows: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(&(rows.len() as u64).to_le_bytes());
    for row in rows {
        eat(&[0xFE]);
        for value in row {
            match value {
                Value::Int(i) => {
                    eat(&[1]);
                    eat(&i.to_le_bytes());
                }
                Value::Float(f) => {
                    eat(&[2]);
                    eat(&f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    eat(&[3]);
                    eat(&(s.len() as u64).to_le_bytes());
                    eat(s.as_bytes());
                }
                Value::Bool(b) => eat(&[4, u8::from(*b)]),
                Value::Null => eat(&[5]),
            }
        }
    }
    h
}

/// Runs every query of `mix` once, serially, in process, and returns the
/// SQL → checksum map the load runner verifies against.
///
/// The oracle runs the row-at-a-time debug interpreter (DBG), which shares
/// no operator with the batch tiers a server runs: against a default
/// server, which serves SIMD, every verified answer of a load arm is then
/// an independent SIMD ≡ DBG check.
///
/// # Panics
/// Panics if a mix query fails serially — a load arm over a broken query
/// is a design error, caught before any client connects.
pub fn expected_checksums(catalog: Catalog, mix: &[String]) -> HashMap<String, u64> {
    let mut session = Session::new(catalog).with_mode(ExecMode::Debug);
    mix.iter()
        .map(|sql| {
            let result = session
                .query(sql)
                .run()
                .unwrap_or_else(|e| panic!("mix query failed serially: {e}\n{sql}"));
            (sql.clone(), result_checksum(&result.rows))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_deterministic_and_discriminating() {
        let a = vec![vec![Value::Int(1), Value::Float(2.5)]];
        let b = vec![vec![Value::Int(1), Value::Float(2.5)]];
        assert_eq!(result_checksum(&a), result_checksum(&b));
        let c = vec![vec![Value::Int(1), Value::Float(2.500001)]];
        assert_ne!(result_checksum(&a), result_checksum(&c));
        // Row order matters.
        let two = vec![vec![Value::Int(1)], vec![Value::Int(2)]];
        let swapped = vec![vec![Value::Int(2)], vec![Value::Int(1)]];
        assert_ne!(result_checksum(&two), result_checksum(&swapped));
    }

    #[test]
    fn float_identity_is_bitwise() {
        let zero_pos = vec![vec![Value::Float(0.0)]];
        let zero_neg = vec![vec![Value::Float(-0.0)]];
        assert_ne!(
            result_checksum(&zero_pos),
            result_checksum(&zero_neg),
            "to_bits() distinguishes +0.0 from -0.0"
        );
    }

    #[test]
    fn value_kinds_do_not_collide() {
        let int = vec![vec![Value::Int(1)]];
        let boolean = vec![vec![Value::Bool(true)]];
        let null = vec![vec![Value::Null]];
        assert_ne!(result_checksum(&int), result_checksum(&boolean));
        assert_ne!(result_checksum(&boolean), result_checksum(&null));
    }

    #[test]
    fn empty_results_have_a_stable_checksum() {
        assert_eq!(result_checksum(&[]), result_checksum(&[]));
        assert_ne!(result_checksum(&[]), result_checksum(&[vec![]]));
    }
}
