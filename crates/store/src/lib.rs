//! # perfeval-store
//!
//! Persistent columnar segments behind a **real** buffer pool — so hot
//! vs cold runs are *measured*, not simulated.
//!
//! The paper's hot/cold-run lesson (slides 33–36) says warm caches are
//! the single easiest way to fool yourself; Kalibera–Jones lists
//! uncontrolled initial state among the top sources of non-reproducible
//! results. Until this crate existed, every buffer-pool hit/miss number
//! in the workspace came from `memsim`'s *modeled* disk. Here the bytes
//! are real: columns are written to disk as checksummed, compressed
//! segment files, read back whole with one `read(2)`, and cached in a
//! buffer pool whose eviction policy is a design factor.
//!
//! ## Layers
//!
//! | module | contents |
//! |--------|----------|
//! | [`segment`] | one-file-per-column-chunk format: 32-byte header and payload under one word-at-a-time checksum (format version 3), every count still checked against the bytes that back it, Plain / RLE / dictionary / frame-of-reference encodings chosen per column chunk by exact size, codes at 1, 2 or 4 bytes checked once and decoded in one loop per width, floats stored as [`f64::to_bits`] for bit-identity |
//! | [`pool`] | [`BufferPool`]: frame table, [`Evict::{Lru, Clock, TwoQ}`](Evict), real logical/physical read counters, `drop_all()` for honest cold runs |
//! | [`manifest`] | table/catalog manifests committed temp-then-rename (crash safety), quarantine of unreferenced files — counted, never silent — and a best-effort `posix_fadvise(DONTNEED)` page-cache drop |
//!
//! ## Crash safety
//!
//! Persisting a table writes a fresh *generation* of segment files
//! (names carry the generation, so live files are never overwritten),
//! then commits by renaming `TABLE.manifest.tmp` → `TABLE.manifest`.
//! A kill mid-write leaves the old manifest pointing at the old,
//! complete generation; reopening yields the pre-write state
//! bit-identically, and the torn leftovers are quarantined with a
//! counted report. Fault sites `store.write` (torn write: truncated
//! payload under a checksum computed for the full payload) and
//! `store.read` (injected read failure / short read) make both paths
//! deterministically testable — see `perfeval_fault`.
//!
//! ## What this is not
//!
//! `memsim` still exists for *era what-if* questions ("how would Q1
//! behave on 1992 hardware?"). Its hit/miss numbers are a model; this
//! crate's counters are measurements. Experiments must not mix the two
//! — E26 (`perfeval-exp e26`) reads only these counters.

#![warn(missing_docs)]

pub mod manifest;
pub mod pool;
pub mod segment;

pub use manifest::{
    drop_page_cache, quarantine_unreferenced, segment_paths, CatalogManifest, ChunkRef,
    ColumnManifest, TableManifest,
};
pub use pool::{BufferPool, Evict, PoolCounters, SegKey};
pub use segment::{
    decode_segment, encode_segment, read_segment, segment_checksum, write_segment, ColumnData,
    Encoding, SegmentInfo, TypeTag,
};

use std::fmt;

/// Errors from the storage layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O error (including injected `store.read` /
    /// `store.write` failures).
    Io(String),
    /// The bytes on disk are not a valid segment or manifest: bad magic,
    /// unsupported version, checksum mismatch, truncation, or a
    /// malformed payload.
    Corrupt(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "storage I/O error: {m}"),
            StoreError::Corrupt(m) => write!(f, "corrupt storage: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}

/// FNV-1a 64-bit — the workspace's stable, dependency-free hash, used
/// here as the trailer of the two manifests (a few hundred bytes each;
/// segments carry [`segment_checksum`]). Not cryptographic; it detects
/// torn writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable() {
        // Pinned so manifest trailers stay valid across refactors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
