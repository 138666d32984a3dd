//! Manifests: the commit protocol that makes persistence crash-safe.
//!
//! A persisted table is a directory:
//!
//! ```text
//! <root>/
//!   CATALOG.manifest            # table list; committed temp-then-rename
//!   <table>/
//!     TABLE.manifest            # schema + chunk map; committed temp-then-rename
//!     g<G>_c<C>_k<K>.seg        # generation G, column C, chunk K
//!   quarantine/                 # unreferenced/torn files, moved — never deleted
//! ```
//!
//! Each persist writes a **fresh generation** of segment files (the
//! generation number is in the file name, so live data is never
//! overwritten in place), fsyncs them, then commits by renaming
//! `TABLE.manifest.tmp` → `TABLE.manifest` — the single atomic step.
//! A crash anywhere before the rename leaves the previous manifest
//! pointing at the previous, complete generation; reopening yields the
//! pre-write state bit-identically. Leftover files from the failed
//! generation are unreferenced, and [`quarantine_unreferenced`] moves
//! them aside with a **counted** report — corruption is quarantined,
//! never silently deleted and never silently served.
//!
//! Manifests are line-oriented ASCII with a trailing FNV-1a checksum
//! line, so a torn manifest write is also detected rather than parsed.

use crate::segment::TypeTag;
use crate::{fnv1a64, StoreError};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of a table manifest inside its table directory.
pub const TABLE_MANIFEST: &str = "TABLE.manifest";
/// File name of the catalog manifest inside the root directory.
pub const CATALOG_MANIFEST: &str = "CATALOG.manifest";
/// Directory (under the root) where unreferenced files are moved.
pub const QUARANTINE_DIR: &str = "quarantine";

/// One column chunk as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRef {
    /// Segment file name, relative to the table directory.
    pub file: String,
    /// Rows in the chunk.
    pub rows: u64,
    /// File size in bytes (header included).
    pub bytes: u64,
}

/// One column: its type and ordered chunk list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnManifest {
    /// Column name.
    pub name: String,
    /// Column type.
    pub tag: TypeTag,
    /// Chunks in row order; concatenated they are the column.
    pub chunks: Vec<ChunkRef>,
}

/// The committed description of one persisted table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableManifest {
    /// Table name.
    pub name: String,
    /// Total row count.
    pub rows: u64,
    /// Rows per chunk used at persist time.
    pub chunk_rows: u64,
    /// Generation this manifest commits (monotonic per table).
    pub generation: u64,
    /// Columns in schema order.
    pub columns: Vec<ColumnManifest>,
}

impl TableManifest {
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("perfeval-store table v1\n");
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("rows {}\n", self.rows));
        out.push_str(&format!("chunk_rows {}\n", self.chunk_rows));
        out.push_str(&format!("generation {}\n", self.generation));
        for c in &self.columns {
            out.push_str(&format!(
                "column {} {} chunks {}\n",
                c.tag.as_str(),
                c.chunks.len(),
                c.name
            ));
            for ch in &c.chunks {
                out.push_str(&format!("seg {} {} {}\n", ch.rows, ch.bytes, ch.file));
            }
        }
        out
    }

    fn parse(text: &str) -> Result<Self, StoreError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header != "perfeval-store table v1" {
            return Err(StoreError::Corrupt(format!(
                "bad table manifest header {header:?}"
            )));
        }
        let field = |line: Option<&str>, key: &str| -> Result<String, StoreError> {
            let line =
                line.ok_or_else(|| StoreError::Corrupt(format!("table manifest missing {key}")))?;
            line.strip_prefix(&format!("{key} "))
                .map(str::to_owned)
                .ok_or_else(|| StoreError::Corrupt(format!("expected {key}, got {line:?}")))
        };
        let num = |s: &str| -> Result<u64, StoreError> {
            s.parse()
                .map_err(|_| StoreError::Corrupt(format!("bad number {s:?} in table manifest")))
        };
        let name = field(lines.next(), "name")?;
        let rows = num(&field(lines.next(), "rows")?)?;
        let chunk_rows = num(&field(lines.next(), "chunk_rows")?)?;
        let generation = num(&field(lines.next(), "generation")?)?;
        let mut columns = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("column ") {
                let mut it = rest.splitn(4, ' ');
                let tag = TypeTag::parse(it.next().unwrap_or(""))?;
                let nchunks = num(it.next().unwrap_or(""))?;
                if it.next() != Some("chunks") {
                    return Err(StoreError::Corrupt(format!("bad column line {line:?}")));
                }
                let cname = it
                    .next()
                    .ok_or_else(|| StoreError::Corrupt(format!("bad column line {line:?}")))?;
                columns.push((
                    ColumnManifest {
                        name: cname.to_owned(),
                        tag,
                        chunks: Vec::new(),
                    },
                    nchunks,
                ));
            } else if let Some(rest) = line.strip_prefix("seg ") {
                let mut it = rest.splitn(3, ' ');
                let rows = num(it.next().unwrap_or(""))?;
                let bytes = num(it.next().unwrap_or(""))?;
                let file = it
                    .next()
                    .ok_or_else(|| StoreError::Corrupt(format!("bad seg line {line:?}")))?;
                let col = columns
                    .last_mut()
                    .ok_or_else(|| StoreError::Corrupt("seg line before any column line".into()))?;
                col.0.chunks.push(ChunkRef {
                    file: file.to_owned(),
                    rows,
                    bytes,
                });
            } else if !line.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "unexpected table manifest line {line:?}"
                )));
            }
        }
        let columns: Vec<ColumnManifest> = columns
            .into_iter()
            .map(|(c, n)| {
                if c.chunks.len() as u64 != n {
                    Err(StoreError::Corrupt(format!(
                        "column {} declares {n} chunk(s), lists {}",
                        c.name,
                        c.chunks.len()
                    )))
                } else {
                    Ok(c)
                }
            })
            .collect::<Result<_, _>>()?;
        let manifest = TableManifest {
            name,
            rows,
            chunk_rows,
            generation,
            columns,
        };
        manifest.check_tiling()?;
        Ok(manifest)
    }

    /// Refuses a manifest whose chunk lists do not tile the table: readers
    /// take `rows`, `chunk_rows` and every [`ChunkRef::rows`] as the scan's
    /// geometry, so each column must list exactly `ceil(rows / chunk_rows)`
    /// chunks and chunk `k` must hold its slot's rows — `chunk_rows`, or
    /// the remainder in the last slot.
    fn check_tiling(&self) -> Result<(), StoreError> {
        let corrupt = |what: String| {
            Err(StoreError::Corrupt(format!(
                "table {} manifest does not tile: {what}",
                self.name
            )))
        };
        if self.chunk_rows == 0 && self.rows > 0 {
            return corrupt(format!("{} row(s) in chunks of 0", self.rows));
        }
        let slots = match self.chunk_rows {
            0 => 0,
            n => self.rows.div_ceil(n),
        };
        for c in &self.columns {
            if c.chunks.len() as u64 != slots {
                return corrupt(format!(
                    "column {} lists {} chunk(s), {} row(s) in chunks of {} need {slots}",
                    c.name,
                    c.chunks.len(),
                    self.rows,
                    self.chunk_rows
                ));
            }
            for (k, ch) in c.chunks.iter().enumerate() {
                let want = self.chunk_rows.min(self.rows - k as u64 * self.chunk_rows);
                if ch.rows != want {
                    return corrupt(format!(
                        "column {} chunk {k} holds {} row(s), its slot {want}",
                        c.name, ch.rows
                    ));
                }
            }
        }
        Ok(())
    }

    /// Loads and verifies `dir/TABLE.manifest`; `Ok(None)` if absent.
    pub fn load(dir: &Path) -> Result<Option<Self>, StoreError> {
        match read_checked(&dir.join(TABLE_MANIFEST))? {
            None => Ok(None),
            Some(text) => Self::parse(&text).map(Some),
        }
    }

    /// Commits this manifest into `dir` temp-then-rename — the atomic
    /// step that makes a new generation the table's truth.
    pub fn commit(&self, dir: &Path) -> Result<(), StoreError> {
        write_committed(&dir.join(TABLE_MANIFEST), &self.render())
    }

    /// The segment file name for `(generation, column, chunk)`.
    pub fn seg_file(generation: u64, column: usize, chunk: usize) -> String {
        format!("g{generation}_c{column}_k{chunk}.seg")
    }
}

/// The committed list of tables in a persisted catalog.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CatalogManifest {
    /// Table names; each has a subdirectory of the root.
    pub tables: Vec<String>,
}

impl CatalogManifest {
    fn render(&self) -> String {
        let mut out = String::from("perfeval-store catalog v1\n");
        for t in &self.tables {
            out.push_str(&format!("table {t}\n"));
        }
        out
    }

    fn parse(text: &str) -> Result<Self, StoreError> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        if header != "perfeval-store catalog v1" {
            return Err(StoreError::Corrupt(format!(
                "bad catalog manifest header {header:?}"
            )));
        }
        let mut tables = Vec::new();
        for line in lines {
            if let Some(name) = line.strip_prefix("table ") {
                tables.push(name.to_owned());
            } else if !line.is_empty() {
                return Err(StoreError::Corrupt(format!(
                    "unexpected catalog manifest line {line:?}"
                )));
            }
        }
        Ok(CatalogManifest { tables })
    }

    /// Loads and verifies `root/CATALOG.manifest`; `Ok(None)` if absent.
    pub fn load(root: &Path) -> Result<Option<Self>, StoreError> {
        match read_checked(&root.join(CATALOG_MANIFEST))? {
            None => Ok(None),
            Some(text) => Self::parse(&text).map(Some),
        }
    }

    /// Commits temp-then-rename.
    pub fn commit(&self, root: &Path) -> Result<(), StoreError> {
        write_committed(&root.join(CATALOG_MANIFEST), &self.render())
    }
}

/// Appends a checksum trailer, writes `<path>.tmp`, fsyncs, renames
/// over `path`, and fsyncs the directory so the rename is durable.
fn write_committed(path: &Path, body: &str) -> Result<(), StoreError> {
    let text = format!("{body}checksum {:016x}\n", fnv1a64(body.as_bytes()));
    let tmp = path.with_extension("manifest.tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Reads a committed file and verifies its checksum trailer.
/// `Ok(None)` if the file does not exist.
fn read_checked(path: &Path) -> Result<Option<String>, StoreError> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    };
    let Some(idx) = text.rfind("checksum ") else {
        return Err(StoreError::Corrupt(format!(
            "{}: missing checksum trailer",
            path.display()
        )));
    };
    let (body, trailer) = text.split_at(idx);
    let want = trailer
        .trim()
        .strip_prefix("checksum ")
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or_else(|| StoreError::Corrupt(format!("{}: bad checksum trailer", path.display())))?;
    if fnv1a64(body.as_bytes()) != want {
        return Err(StoreError::Corrupt(format!(
            "{}: manifest checksum mismatch",
            path.display()
        )));
    }
    Ok(Some(body.to_owned()))
}

/// Moves every file in `table_dir` that the manifest does not reference
/// (torn generations, stray `.tmp` files) into `<root>/quarantine/`,
/// returning the quarantined names — the **counted** report. Nothing is
/// ever deleted.
pub fn quarantine_unreferenced(
    root: &Path,
    table_dir: &Path,
    manifest: &TableManifest,
) -> Result<Vec<String>, StoreError> {
    let referenced: std::collections::HashSet<&str> = manifest
        .columns
        .iter()
        .flat_map(|c| c.chunks.iter().map(|ch| ch.file.as_str()))
        .collect();
    let mut quarantined = Vec::new();
    for entry in fs::read_dir(table_dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        let fname = entry.file_name().to_string_lossy().into_owned();
        if fname == TABLE_MANIFEST || referenced.contains(fname.as_str()) {
            continue;
        }
        let qdir = root.join(QUARANTINE_DIR);
        fs::create_dir_all(&qdir)?;
        let dest = qdir.join(format!("{}__{fname}", manifest.name));
        fs::rename(entry.path(), &dest)?;
        quarantined.push(format!("{}/{fname}", manifest.name));
    }
    quarantined.sort();
    Ok(quarantined)
}

/// Best-effort OS page-cache drop for one file
/// (`posix_fadvise(POSIX_FADV_DONTNEED)`), so a cold run is cold at the
/// kernel layer too, not just in the buffer pool. Returns whether the
/// advice was applied — on tmpfs (common on CI runners) and non-Linux
/// hosts this is a no-op and cold runs degrade gracefully to
/// pool-cold-only.
pub fn drop_page_cache(path: &Path) -> bool {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::io::AsRawFd;
        // Declared by hand: the workspace builds offline, without the
        // libc crate; the symbol is in every glibc/musl we link anyway.
        extern "C" {
            fn posix_fadvise(fd: i32, offset: i64, len: i64, advice: i32) -> i32;
        }
        const POSIX_FADV_DONTNEED: i32 = 4;
        match std::fs::File::open(path) {
            Ok(f) => {
                let rc = unsafe { posix_fadvise(f.as_raw_fd(), 0, 0, POSIX_FADV_DONTNEED) };
                rc == 0
            }
            Err(_) => false,
        }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = path;
        false
    }
}

/// Returns every segment path the manifest references (for page-cache
/// drops across a whole table).
pub fn segment_paths(table_dir: &Path, manifest: &TableManifest) -> Vec<PathBuf> {
    manifest
        .columns
        .iter()
        .flat_map(|c| c.chunks.iter().map(|ch| table_dir.join(&ch.file)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pstore-man-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample() -> TableManifest {
        TableManifest {
            name: "items".into(),
            rows: 100,
            chunk_rows: 64,
            generation: 3,
            columns: vec![
                ColumnManifest {
                    name: "id".into(),
                    tag: TypeTag::I64,
                    chunks: vec![
                        ChunkRef {
                            file: TableManifest::seg_file(3, 0, 0),
                            rows: 64,
                            bytes: 544,
                        },
                        ChunkRef {
                            file: TableManifest::seg_file(3, 0, 1),
                            rows: 36,
                            bytes: 320,
                        },
                    ],
                },
                ColumnManifest {
                    name: "flag".into(),
                    tag: TypeTag::Bool,
                    chunks: vec![
                        ChunkRef {
                            file: TableManifest::seg_file(3, 1, 0),
                            rows: 64,
                            bytes: 96,
                        },
                        ChunkRef {
                            file: TableManifest::seg_file(3, 1, 1),
                            rows: 36,
                            bytes: 68,
                        },
                    ],
                },
            ],
        }
    }

    #[test]
    fn table_manifest_roundtrips() {
        let dir = tdir("round");
        let m = sample();
        m.commit(&dir).unwrap();
        let back = TableManifest::load(&dir).unwrap().unwrap();
        assert_eq!(back, m);
        assert!(TableManifest::load(&tdir("absent")).unwrap().is_none());
    }

    #[test]
    fn catalog_manifest_roundtrips() {
        let dir = tdir("cat");
        let m = CatalogManifest {
            tables: vec!["a".into(), "b".into()],
        };
        m.commit(&dir).unwrap();
        assert_eq!(CatalogManifest::load(&dir).unwrap().unwrap(), m);
    }

    #[test]
    fn torn_manifest_is_detected() {
        let dir = tdir("torn");
        let m = sample();
        m.commit(&dir).unwrap();
        let path = dir.join(TABLE_MANIFEST);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(matches!(
            TableManifest::load(&dir),
            Err(StoreError::Corrupt(_))
        ));
    }

    /// A manifest whose checksum is consistent but whose chunk lists do not
    /// tile the table (a writer bug, not a torn write) is refused at load:
    /// readers cut their scans from this geometry.
    #[test]
    fn manifests_that_do_not_tile_are_refused() {
        type Edit = fn(&mut TableManifest);
        let edits: [(&str, Edit); 6] = [
            ("rows past the chunks", |m| m.rows = 129),
            ("rows short of the chunks", |m| m.rows = 64),
            ("chunk_rows 0 with rows", |m| m.chunk_rows = 0),
            ("a column one chunk short", |m| {
                m.columns[1].chunks.pop();
            }),
            ("a ragged chunk mid-column", |m| {
                m.columns[0].chunks[0].rows = 63;
            }),
            ("an overlong last chunk", |m| {
                m.columns[1].chunks[1].rows = 37;
            }),
        ];
        for (what, edit) in edits {
            let dir = tdir("untiled");
            let mut m = sample();
            edit(&mut m);
            // `commit` renders with a checksum that matches the edited body.
            m.commit(&dir).unwrap();
            match TableManifest::load(&dir) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("does not tile"), "{what}: {msg}")
                }
                other => panic!("{what}: expected Corrupt, got {other:?}"),
            }
        }
        // What does tile: an empty table (no chunks, any chunk_rows) and a
        // table that fills its last chunk exactly.
        let dir = tdir("tiled");
        let mut empty = sample();
        (empty.rows, empty.chunk_rows) = (0, 0);
        empty.columns.iter_mut().for_each(|c| c.chunks.clear());
        empty.commit(&dir).unwrap();
        assert_eq!(TableManifest::load(&dir).unwrap().unwrap(), empty);
        let mut exact = sample();
        exact.rows = 128;
        exact.columns.iter_mut().for_each(|c| c.chunks[1].rows = 64);
        exact.commit(&dir).unwrap();
        assert_eq!(TableManifest::load(&dir).unwrap().unwrap(), exact);
    }

    #[test]
    fn quarantine_moves_unreferenced_files_and_counts_them() {
        let root = tdir("quar");
        let tdir = root.join("items");
        fs::create_dir_all(&tdir).unwrap();
        let m = sample();
        m.commit(&tdir).unwrap();
        for c in &m.columns {
            for ch in &c.chunks {
                fs::write(tdir.join(&ch.file), b"live").unwrap();
            }
        }
        fs::write(tdir.join("g4_c0_k0.seg"), b"torn generation").unwrap();
        fs::write(tdir.join("TABLE.manifest.tmp"), b"stray tmp").unwrap();
        let report = quarantine_unreferenced(&root, &tdir, &m).unwrap();
        assert_eq!(
            report,
            vec!["items/TABLE.manifest.tmp", "items/g4_c0_k0.seg"]
        );
        // Referenced files stayed; strays moved, not deleted.
        assert!(tdir.join(&m.columns[0].chunks[0].file).exists());
        assert!(!tdir.join("g4_c0_k0.seg").exists());
        assert!(root
            .join(QUARANTINE_DIR)
            .join("items__g4_c0_k0.seg")
            .exists());
        // Idempotent: a clean directory quarantines nothing.
        assert!(quarantine_unreferenced(&root, &tdir, &m)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn page_cache_drop_is_best_effort() {
        let dir = tdir("fadv");
        let p = dir.join("x.seg");
        fs::write(&p, vec![0u8; 4096]).unwrap();
        // On tmpfs this may be a no-op; either way it must not error.
        let _ = drop_page_cache(&p);
        assert!(!drop_page_cache(&dir.join("missing.seg")));
    }
}
