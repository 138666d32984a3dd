//! Hostile bytes at the segment reader. The header is under the checksum
//! (since format version 2), so a flipped bit anywhere in a segment and a
//! file of any other length are `StoreError::Corrupt`, strictly. What a bit
//! flip cannot produce a writer can — a *forged* segment whose checksum is
//! consistent with its lies: that one is `Corrupt` too, or (a type tag over
//! a layout two types share) decodes to a column of *another* type, which
//! minidb refuses against its manifest (`minidb/tests/persist.rs`). Never a
//! panic, never an abort, and no allocation sized by a count the bytes
//! cannot back. The segment reader's part of the hostile-bytes harness
//! (ROADMAP item 5), modelled on `crates/net/tests/hostile.rs`.
//!
//! The allocation bound is measured, not argued: this binary's allocator
//! records the largest request a thread makes while it is watched.

use std::path::PathBuf;

use perfeval_store::segment::{CHECKED_HEADER_LEN, FORMAT_VERSION, HEADER_LEN, MAGIC};
use perfeval_store::{
    decode_segment, encode_segment, fnv1a64, read_segment, segment_checksum, ColumnData,
    StoreError, TypeTag,
};
use proptest::WatchingAlloc;

#[global_allocator]
static ALLOCATOR: WatchingAlloc = WatchingAlloc;

/// The most one read of `seg` may ask the allocator for at once, whatever
/// its header says: six times the larger of the file and what it honestly
/// decodes to, plus an error message. Six is the decoder's worst ratio of
/// memory to the bytes that back it — a string dictionary's 24-byte `String`
/// against the four length bytes an entry takes at the least; words and runs
/// are checked one for one, and a code stream, whose 1-byte code may widen
/// to an 8-byte value, must end its payload exactly, so it is widened only
/// into a decode that succeeds.
fn bound(seg: &[u8], honest: &ColumnData) -> usize {
    6 * seg.len().max(honest.heap_bytes() as usize) + 512
}

/// `bytes` through both entry points — the in-memory decoder and the file
/// reader, which sizes its one read by the file's own length: each one's
/// answer and the largest single allocation it made.
fn read_both(
    bytes: &[u8],
    scratch: &Scratch,
) -> [(&'static str, Result<ColumnData, StoreError>, usize); 2] {
    std::fs::write(&scratch.0, bytes).expect("write the hostile segment");
    let (decoded, decode_largest) = WatchingAlloc::largest(|| decode_segment(bytes));
    let (read, read_largest) = WatchingAlloc::largest(|| read_segment(&scratch.0, None, 0));
    [
        ("decode_segment", decoded, decode_largest),
        ("read_segment", read, read_largest),
    ]
}

/// `bytes` is refused as `Corrupt` by both entry points — or, for a forged
/// copy of a segment that honestly holds `honest` values, decodes to a
/// column of another type — and nothing beyond `limit` is allocated at once.
fn assert_refused(
    bytes: &[u8],
    honest: Option<TypeTag>,
    limit: usize,
    scratch: &Scratch,
    what: &str,
) {
    for (entry, got, largest) in read_both(bytes, scratch) {
        match got {
            Err(StoreError::Corrupt(_)) => {}
            Ok(data) if honest.is_some_and(|tag| tag != data.type_tag()) => {}
            other => panic!("{what}: {entry} answered {other:?}"),
        }
        assert!(
            largest <= limit,
            "{what}: {entry} allocated {largest} bytes at once for a {}-byte segment (limit {limit})",
            bytes.len()
        );
    }
}

/// A damaged copy of `honest`'s segment `seg` — bits flipped, bytes missing
/// or added, nothing resealed: strictly `Corrupt`, within [`bound`].
fn assert_damaged(bytes: &[u8], seg: &[u8], honest: &ColumnData, scratch: &Scratch, what: &str) {
    assert_refused(bytes, None, bound(seg, honest), scratch, what);
}

/// A [`resealed`] copy of `honest`'s segment `seg`, within [`bound`]: the
/// checksum has no quarrel with it, so the decoder has to.
fn assert_contained(bytes: &[u8], seg: &[u8], honest: &ColumnData, scratch: &Scratch, what: &str) {
    let limit = bound(seg, honest);
    assert_refused(bytes, Some(honest.type_tag()), limit, scratch, what);
}

/// A segment no honest writer made: `Corrupt`, within the bound of its own
/// length.
fn assert_corrupt(bytes: &[u8], scratch: &Scratch, what: &str) {
    assert_refused(bytes, None, 6 * bytes.len() + 512, scratch, what);
}

/// A scratch file of this test's own, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Self {
        Scratch(
            std::env::temp_dir().join(format!("pseg-hostile-{test}-{}.seg", std::process::id())),
        )
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

const TAG_AT: usize = 6;
const ENCODING_AT: usize = 7;
const PLAIN: u8 = 0;
const RLE: u8 = 1;
const DICT: u8 = 2;
const FOR: u8 = 3;

fn strs(codes: Vec<u32>) -> ColumnData {
    ColumnData::Str {
        dict: vec!["lo".into(), "mid".into(), "naïve".into()],
        codes,
    }
}

/// A string dictionary of `entries` distinct values and codes cycling it.
fn many_strs(entries: u32, rows: u32) -> ColumnData {
    ColumnData::Str {
        dict: (0..entries).map(|i| format!("{i:x}")).collect(),
        codes: (0..rows).map(|i| i % entries).collect(),
    }
}

/// A layout under test: its name, its values, the encoding the writer
/// picks and, for a code stream, the width of its codes.
type Case = (&'static str, ColumnData, u8, Option<u8>);

/// One valid segment of every type × encoding × code width the writer can
/// choose, each a few hundred rows, so every bit of each can be flipped —
/// all but width-4 string codes, [`wide_str_codes`].
fn every_layout() -> Vec<Case> {
    // 400 rows of 257 values too far apart for FOR: a dictionary pays only
    // at width 2.
    let far = |i: i64| (i % 257) << 36;
    vec![
        (
            "i64 plain",
            ColumnData::I64(
                (0..200_i64)
                    .map(|i| i.wrapping_mul(0x5851_f42d_4c95_7f2d))
                    .collect(),
            ),
            PLAIN,
            None,
        ),
        ("i64 rle", ColumnData::I64(vec![7; 1000]), RLE, None),
        (
            "i64 dict, 1-byte codes",
            ColumnData::I64((0..400).map(|i| (i % 7) * 1000).collect()),
            DICT,
            Some(1),
        ),
        (
            "i64 dict, 2-byte codes",
            ColumnData::I64((0..400).map(far).collect()),
            DICT,
            Some(2),
        ),
        (
            "i64 for, 1-byte offsets",
            ColumnData::I64((0..300).map(|i| 5_000 - i % 200).collect()),
            FOR,
            Some(1),
        ),
        (
            "i64 for, 2-byte offsets",
            ColumnData::I64((0..300).map(|i| -40_000 + i * 200).collect()),
            FOR,
            Some(2),
        ),
        (
            "i64 for, 4-byte offsets",
            ColumnData::I64((0..300).map(|i| i * 10_000_000).collect()),
            FOR,
            Some(4),
        ),
        (
            "f64 plain",
            ColumnData::F64((0..200).map(|i| f64::from(i) * 0.37).collect()),
            PLAIN,
            None,
        ),
        ("f64 rle", ColumnData::F64(vec![1.5; 600]), RLE, None),
        (
            "f64 dict, 1-byte codes",
            ColumnData::F64((0..300).map(|i| f64::from(i % 11) / 100.0).collect()),
            DICT,
            Some(1),
        ),
        (
            "f64 dict, 2-byte codes",
            ColumnData::F64((0..400).map(|i| far(i) as f64 + 0.5).collect()),
            DICT,
            Some(2),
        ),
        (
            "str plain codes, 1 byte",
            strs((0..200).map(|i| i % 3).collect()),
            PLAIN,
            Some(1),
        ),
        (
            "str plain codes, 2 bytes",
            many_strs(257, 300),
            PLAIN,
            Some(2),
        ),
        (
            "str rle codes",
            strs((0..600).map(|i| i / 300).collect()),
            RLE,
            None,
        ),
        (
            "bool plain",
            ColumnData::Bool((0..300).map(|i| i % 2 == 0).collect()),
            PLAIN,
            None,
        ),
        ("bool rle", ColumnData::Bool(vec![true; 500]), RLE, None),
    ]
}

/// String codes at width 4: more than 65 536 entries, so too many bytes to
/// flip each of — a round trip and the forged headers only.
fn wide_str_codes() -> Case {
    (
        "str plain codes, 4 bytes",
        many_strs(65_537, 70_000),
        PLAIN,
        Some(4),
    )
}

/// Where the width byte of `seg`'s code stream sits, if it has one.
fn width_at(seg: &[u8], data: &ColumnData) -> Option<usize> {
    let payload = &seg[HEADER_LEN..];
    match (seg[ENCODING_AT], data) {
        (FOR, _) => Some(HEADER_LEN + 8),
        (DICT, _) => {
            let entries = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
            Some(HEADER_LEN + 4 + 8 * entries)
        }
        (PLAIN, ColumnData::Str { dict, .. }) => {
            Some(HEADER_LEN + 4 + dict.iter().map(|s| 4 + s.len()).sum::<usize>())
        }
        _ => None,
    }
}

#[test]
fn the_layouts_under_test_are_the_ones_the_writer_chooses() {
    for (name, data, encoding, width) in every_layout().into_iter().chain([wide_str_codes()]) {
        let seg = encode_segment(&data);
        assert_eq!(seg[TAG_AT], data.type_tag().as_u8(), "{name}");
        assert_eq!(seg[ENCODING_AT], encoding, "{name}");
        assert_eq!(width_at(&seg, &data).map(|at| seg[at]), width, "{name}");
        let (back, largest) = WatchingAlloc::largest(|| decode_segment(&seg));
        assert!(back.expect("the honest segment").bit_eq(&data), "{name}");
        assert!(largest <= bound(&seg, &data), "{name}: {largest}");
    }
}

/// Every bit of the header, or of the payload, of every layout flipped, one
/// at a time and nothing resealed.
fn flip_each_bit(of_header: bool, scratch: &Scratch) {
    for (name, data, ..) in every_layout() {
        let seg = encode_segment(&data);
        let bytes = if of_header {
            0..HEADER_LEN
        } else {
            HEADER_LEN..seg.len()
        };
        for byte in bytes {
            for bit in 0..8 {
                let mut bad = seg.clone();
                bad[byte] ^= 1 << bit;
                let what = format!("{name}: byte {byte} bit {bit} flipped");
                assert_damaged(&bad, &seg, &data, scratch, &what);
            }
        }
    }
}

#[test]
fn no_flipped_header_bit_is_believed() {
    flip_each_bit(true, &Scratch::new("flip"));
}

#[test]
fn no_flipped_payload_bit_is_believed() {
    flip_each_bit(false, &Scratch::new("flip-payload"));
}

#[test]
fn a_segment_cut_short_anywhere_is_corrupt() {
    let scratch = Scratch::new("cut");
    for (name, data, ..) in every_layout() {
        let seg = encode_segment(&data);
        for len in 0..seg.len() {
            let what = format!("{name} cut to {len} of {} bytes", seg.len());
            assert_damaged(&seg[..len], &seg, &data, &scratch, &what);
        }
        // The reader takes the whole file, so a byte too many is refused on
        // disk as it is in memory.
        let mut long = seg.clone();
        long.push(0);
        assert_damaged(&long, &seg, &data, &scratch, &format!("{name} and a byte"));
    }
}

/// `seg` with a checksum consistent with whatever its header and payload now
/// say: what a bit flip cannot produce but a buggy or hostile writer can.
fn resealed(mut seg: Vec<u8>) -> Vec<u8> {
    let (header, payload) = seg.split_at(HEADER_LEN);
    let checked = header[..CHECKED_HEADER_LEN].try_into().unwrap();
    let sum = segment_checksum(checked, payload);
    seg[CHECKED_HEADER_LEN..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    seg
}

/// A sealed segment of this format around any header fields and payload.
fn forged(tag: TypeTag, encoding: u8, rows: u64, payload: &[u8]) -> Vec<u8> {
    let mut seg = Vec::new();
    seg.extend_from_slice(&MAGIC);
    seg.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    seg.push(tag.as_u8());
    seg.push(encoding);
    seg.extend_from_slice(&rows.to_le_bytes());
    seg.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    seg.extend_from_slice(&[0; HEADER_LEN - CHECKED_HEADER_LEN]);
    seg.extend_from_slice(payload);
    resealed(seg)
}

/// The checksum vouches for the header a writer sealed, not for its truth:
/// with any bit of it flipped *before* sealing, the decoder still believes
/// no count further than the bytes go.
#[test]
fn no_forged_header_bit_is_believed() {
    let scratch = Scratch::new("forged-flip");
    for (name, data, ..) in every_layout().into_iter().chain([wide_str_codes()]) {
        let seg = encode_segment(&data);
        assert_eq!(
            resealed(seg.clone()),
            seg,
            "{name}: sealed as the writer seals"
        );
        for bit in 0..8 * CHECKED_HEADER_LEN {
            let mut bad = seg.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            let what = format!("{name}: header bit {bit} flipped and resealed");
            assert_contained(&resealed(bad), &seg, &data, &scratch, &what);
        }
    }
}

/// Plain words of a span no FOR width holds: a payload versions 1, 2 and 3
/// lay out alike.
const OLD_WORDS: [u64; 4] = [2, 1 << 63, 9, u64::MAX >> 1];

/// This format's segment of [`OLD_WORDS`], as the writer makes it.
fn plain_now() -> Vec<u8> {
    let now = forged(TypeTag::I64, PLAIN, 4, &words(&OLD_WORDS));
    let values = OLD_WORDS.iter().map(|&w| w as i64).collect();
    assert_eq!(now, encode_segment(&ColumnData::I64(values)));
    now
}

/// `seg` is refused by both entry points, naming its format version.
fn assert_version_refused(seg: &[u8], version: u16, scratch: &Scratch) {
    let named = format!("unsupported format version {version}");
    for (entry, got, _) in read_both(seg, scratch) {
        assert!(
            matches!(&got, Err(StoreError::Corrupt(m)) if m.contains(&named)),
            "{entry}: {got:?}"
        );
    }
}

/// A version-1 segment — the same 32-byte header, FNV-1a-64 of the payload
/// alone at bytes 24..32 — is refused by name; nothing reads it.
#[test]
fn a_version_1_segment_is_corrupt() {
    let mut seg = plain_now();
    seg[4..6].copy_from_slice(&1u16.to_le_bytes());
    let sum = fnv1a64(&seg[HEADER_LEN..]);
    seg[CHECKED_HEADER_LEN..HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
    assert_version_refused(&seg, 1, &Scratch::new("v1"));
}

/// A version-2 segment — the same header and checksum, 4-byte codes and no
/// FOR — is refused by name too; nothing reads it.
#[test]
fn a_version_2_segment_is_corrupt() {
    let mut seg = plain_now();
    seg[4..6].copy_from_slice(&2u16.to_le_bytes());
    assert_version_refused(&resealed(seg), 2, &Scratch::new("v2"));
}

fn words(words: &[u64]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

/// The three ways the decoder once died, by name — resealed, or the
/// checksum would refuse them before the decoder is asked.
#[test]
fn the_reproductions_of_the_issue_are_corrupt_not_deaths() {
    let scratch = Scratch::new("named");

    // rows |= 2^36 on a one-run RLE column: `Vec::with_capacity(rows)` asked
    // for 512 GiB and the process aborted; rows |= 2^61: capacity overflow.
    let honest = ColumnData::I64(vec![7; 1000]);
    let seg = encode_segment(&honest);
    for (byte, value) in [(12, 0x10), (15, 0x20)] {
        let mut bad = seg.clone();
        bad[byte] = value;
        let what = format!("rle i64 with header byte {byte} = {value:#x}");
        assert_contained(&resealed(bad), &seg, &honest, &scratch, &what);
    }

    // Plain words 2, 5, 1, 9, -1 read as RLE: two runs, the second of
    // 2^64 - 1 rows; `out.len() + n` wrapped and the extend overflowed. (The
    // writer now stores these five as FOR; the Plain segment is sealed by
    // hand.)
    let honest = ColumnData::I64(vec![2, 5, 1, 9, -1]);
    let seg = forged(TypeTag::I64, PLAIN, 5, &words(&[2, 5, 1, 9, u64::MAX]));
    assert!(decode_segment(&seg).unwrap().bit_eq(&honest));
    let mut bad = seg.clone();
    bad[ENCODING_AT] = RLE;
    assert_contained(&resealed(bad), &seg, &honest, &scratch, "plain read as rle");

    // A dictionary size nothing backs, integer and string: `dlen` entries
    // were reserved on the payload's word.
    let huge = u32::MAX.to_le_bytes();
    for (what, tag, encoding) in [
        ("i64 dict of u32::MAX entries", TypeTag::I64, DICT),
        ("str dict of u32::MAX entries", TypeTag::Str, PLAIN),
    ] {
        let mut payload = huge.to_vec();
        payload.extend_from_slice(&[0; 12]);
        assert_corrupt(&forged(tag, encoding, 3, &payload), &scratch, what);
    }
}

/// Counts under the checksum that still lie: only a writer can make these,
/// and the decoder believes none of them further than the bytes go.
#[test]
fn forged_counts_are_checked_against_the_bytes_left() {
    let scratch = Scratch::new("forged");
    let check = |what: &str, bad: Vec<u8>| assert_corrupt(&bad, &scratch, what);
    for tag in [TypeTag::I64, TypeTag::F64, TypeTag::Str, TypeTag::Bool] {
        let what = |case: &str| format!("{}: {case}", tag.as_str());
        // A string payload opens with its (here empty) dictionary, and its
        // Plain code stream with a width byte.
        let open: &[u8] = if tag == TypeTag::Str { &[0; 4] } else { &[] };
        let with = |rest: Vec<u8>| [open, &rest[..]].concat();
        let plain: &[u8] = if tag == TypeTag::Str {
            &[0, 0, 0, 0, 1]
        } else {
            &[]
        };
        let with_plain = |rest: Vec<u8>| [plain, &rest[..]].concat();

        check(
            &what("rows nothing backs"),
            forged(tag, PLAIN, 1 << 40, &with_plain(vec![0; 16])),
        );
        check(
            &what("u64::MAX rows"),
            forged(tag, PLAIN, u64::MAX, &with_plain(vec![0; 16])),
        );
        check(
            &what("u64::MAX runs"),
            forged(tag, RLE, 4, &with(words(&[u64::MAX, 0, 4]))),
        );
        check(
            &what("2^60 runs"),
            forged(tag, RLE, 4, &with(words(&[1 << 60, 0, 4]))),
        );
        check(
            &what("empty rle stream"),
            forged(tag, RLE, 4, &with(vec![])),
        );
    }
    // Run lengths that overflow a sum, overshoot, or fall short (8-byte
    // words: one run is 16 bytes).
    for (what, rows, runs) in [
        ("a run of u64::MAX", 5, vec![2, 5, 1, 9, u64::MAX]),
        (
            "runs that wrap to the row count",
            4,
            vec![2, 5, u64::MAX, 9, 5],
        ),
        ("a run past the row count", 4, vec![1, 5, 5]),
        ("runs short of the row count", 4, vec![1, 5, 3]),
        ("rows without runs", 4, vec![0]),
    ] {
        check(what, forged(TypeTag::I64, RLE, rows, &words(&runs)));
        check(what, forged(TypeTag::F64, RLE, rows, &words(&runs)));
    }
    // A string entry longer than the payload.
    let mut entry = 1u32.to_le_bytes().to_vec();
    entry.extend_from_slice(&u32::MAX.to_le_bytes());
    entry.extend_from_slice(b"abcd");
    check(
        "a dictionary entry of u32::MAX bytes",
        forged(TypeTag::Str, PLAIN, 1, &entry),
    );

    // Every code stream — integer and float dictionaries, FOR offsets,
    // string codes — behind one dictionary entry or a minimum of 42.
    let one_entry = [&1u32.to_le_bytes()[..], &words(&[42])].concat();
    let one_string = [&1u32.to_le_bytes()[..], &1u32.to_le_bytes(), b"a"].concat();
    for (name, tag, encoding, open) in [
        ("i64 dict", TypeTag::I64, DICT, one_entry.clone()),
        ("f64 dict", TypeTag::F64, DICT, one_entry),
        ("i64 for", TypeTag::I64, FOR, words(&[42])),
        ("str plain", TypeTag::Str, PLAIN, one_string),
    ] {
        let stream = |width: u8, rows: u64, codes: &[u8]| {
            forged(tag, encoding, rows, &[&open[..], &[width], codes].concat())
        };
        // Each backed by exactly rows × width bytes.
        for width in [0, 3, 5, 8, 255] {
            let what = format!("{name}: width byte {width}");
            check(&what, stream(width, 2, &vec![0; 2 * usize::from(width)]));
        }
        // 2^63 rows at two or four bytes a code overflow a `usize`.
        for width in [2, 4] {
            let seg = stream(width, 1 << 63, &[0; 8]);
            let what = format!("{name}: 2^63 rows of {width}-byte codes");
            assert!(
                matches!(decode_segment(&seg), Err(StoreError::Corrupt(m)) if m.contains("codes claimed")),
                "{what}"
            );
            check(&what, seg);
        }
        // Code 1 of a one-entry dictionary, after a good code 0.
        if encoding != FOR {
            for width in [1, 2, 4] {
                let mut codes = vec![0; 2 * usize::from(width)];
                codes[usize::from(width)] = 1;
                let what = format!("{name}: code 1 of 1 at width {width}");
                check(&what, stream(width, 2, &codes));
            }
        }
    }
}
