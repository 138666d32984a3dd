//! The benchmark's own answer check: one 64-bit digest per result, floats
//! by bit pattern, so "close enough" never passes.

use minidb::Value;

/// What the oracle expects of one statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Result rows.
    pub rows: u64,
    /// [`checksum`] of the rows, in result order.
    pub checksum: u64,
}

impl Answer {
    /// Digest of a result as delivered.
    pub fn of(rows: &[Vec<Value>]) -> Answer {
        Answer {
            rows: rows.len() as u64,
            checksum: checksum(rows),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn mix(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h = (*h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over a type tag and the value bytes of every cell, row by row.
/// Order-sensitive: the engine tiers promise identical row order, and the
/// checksum holds them to it. Floats enter as `to_bits()`, so `0.0` and
/// `-0.0`, and two NaNs with different payloads, are different answers.
pub fn checksum(rows: &[Vec<Value>]) -> u64 {
    let mut h = FNV_OFFSET;
    for row in rows {
        mix(&mut h, &(row.len() as u32).to_le_bytes());
        for v in row {
            match v {
                Value::Null => mix(&mut h, &[0]),
                Value::Int(i) => {
                    mix(&mut h, &[1]);
                    mix(&mut h, &i.to_le_bytes());
                }
                Value::Float(f) => {
                    mix(&mut h, &[2]);
                    mix(&mut h, &f.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    mix(&mut h, &[3]);
                    mix(&mut h, &(s.len() as u32).to_le_bytes());
                    mix(&mut h, s.as_bytes());
                }
                Value::Bool(b) => mix(&mut h, &[4, u8::from(*b)]),
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(v: Value) -> u64 {
        checksum(&[vec![v]])
    }

    #[test]
    fn signed_zeros_and_nan_payloads_differ() {
        assert_ne!(one(Value::Float(0.0)), one(Value::Float(-0.0)));
        let quiet = f64::from_bits(0x7ff8_0000_0000_0000);
        let payload = f64::from_bits(0x7ff8_0000_0000_0001);
        assert!(quiet.is_nan() && payload.is_nan());
        assert_ne!(one(Value::Float(quiet)), one(Value::Float(payload)));
        assert_eq!(one(Value::Float(quiet)), one(Value::Float(quiet)));
    }

    #[test]
    fn type_row_order_and_row_shape_all_count() {
        assert_ne!(one(Value::Int(1)), one(Value::Float(f64::from_bits(1))));
        assert_ne!(one(Value::Int(0)), one(Value::Null));
        let a = vec![Value::Int(1)];
        let b = vec![Value::Int(2)];
        assert_ne!(
            checksum(&[a.clone(), b.clone()]),
            checksum(&[b.clone(), a.clone()])
        );
        assert_ne!(
            checksum(&[vec![Value::Int(1), Value::Int(2)]]),
            checksum(&[a, b])
        );
        assert_ne!(
            one(Value::Str("ab".into())),
            checksum(&[vec![Value::Str("a".into()), Value::Str("b".into())]])
        );
    }
}
