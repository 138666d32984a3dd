//! Persistence: tables on disk behind `perfeval-store`'s real buffer
//! pool.
//!
//! [`Table::persist`](crate::Table::persist) writes each column as
//! chunked, checksummed, compressed segment files;
//! [`Catalog::open`](crate::Catalog::open) reopens a directory as a
//! catalog of **disk-backed** tables whose scans pull `Arc<Column>`
//! chunks through one shared [`BufferPool`] — zero-copy once resident,
//! real `pread(2)` on a miss. The pool's hit/miss counters are
//! measurements, which is what makes hot-vs-cold a controlled design
//! factor (E26) instead of a model.
//!
//! The chunk is the unit of a sweep: a `Filter`/`Project`/`Aggregate`
//! over a multi-chunk table fetches one chunk's projected columns per
//! unit, runs on them and lets them go (`crate::parallel`). A reader
//! holds its chunks by `Arc` and **nothing is pinned**, so a scan larger
//! than the budget evicts its own head rather than overcommitting, and at
//! most `threads × projected columns` chunks are alive outside the budget
//! at a time. Only operators that need their whole input at once (a bare
//! scan under `Sort`/`TopN`/`Limit`/`Distinct` or as a join side) and the
//! DBG oracle materialize a whole column, by [`Column::concat`], in
//! [`Table::column_arc_io`](crate::Table::column_arc_io).
//!
//! Disk-backed tables are **read-only**: `push_row` returns an error.
//! Load data in memory, persist, reopen.
//!
//! ## Cold runs
//!
//! [`Storage::drop_caches`] models a restart: it empties the buffer
//! pool *and* advises the kernel to drop the segment files' page-cache
//! pages (`posix_fadvise(DONTNEED)`, best effort — a no-op on tmpfs).
//! [`Session::flush_caches`](crate::Session::flush_caches) calls it.
//!
//! ## Fault sites
//!
//! | site | keyed by | effect of a `FailIo` arm |
//! |------|----------|--------------------------|
//! | `store.write` | segment ordinal within one persist | torn write: segment truncated mid-payload under a full-payload checksum; the persist fails before its manifest commit, so reopening yields the pre-write state |
//! | `store.read`  | `(table_id << 40) \| (column << 20) \| chunk` | the chunk load fails with [`DbError::Io`]; the query errors, the session survives |

use crate::catalog::Catalog;
use crate::column::{Column, StrDict};
use crate::error::DbError;
use crate::table::Table;
use crate::types::DataType;
use perfeval_fault::FaultRegistry;
use perfeval_store::{
    quarantine_unreferenced, read_segment, write_segment, BufferPool, CatalogManifest, ChunkRef,
    ColumnData, ColumnManifest, Evict, PoolCounters, SegKey, StoreError, TableManifest, TypeTag,
};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Default buffer-pool budget: 64 MiB.
pub const DEFAULT_POOL_BYTES: u64 = 64 * 1024 * 1024;
/// Default rows per column chunk.
pub const DEFAULT_CHUNK_ROWS: usize = 1 << 16;

/// Storage configuration for [`Catalog::persist_with`] /
/// [`Catalog::open_with`].
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Buffer-pool byte budget (decoded chunk bytes).
    pub pool_bytes: u64,
    /// Eviction policy — a design factor.
    pub evict: Evict,
    /// Rows per column chunk at persist time.
    pub chunk_rows: usize,
    /// Fault registry consulted at the `store.write` / `store.read`
    /// sites.
    pub faults: Option<Arc<FaultRegistry>>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            pool_bytes: DEFAULT_POOL_BYTES,
            evict: Evict::Lru,
            chunk_rows: DEFAULT_CHUNK_ROWS,
            faults: None,
        }
    }
}

impl StoreConfig {
    /// Sets the pool budget in bytes.
    pub fn pool_bytes(mut self, bytes: u64) -> Self {
        self.pool_bytes = bytes;
        self
    }

    /// Sets the eviction policy.
    pub fn evict(mut self, evict: Evict) -> Self {
        self.evict = evict;
        self
    }

    /// Sets the rows-per-chunk granularity.
    pub fn chunk_rows(mut self, rows: usize) -> Self {
        assert!(rows > 0, "chunk_rows must be at least 1");
        self.chunk_rows = rows;
        self
    }

    /// Arms a fault registry for the storage sites.
    pub fn faults(mut self, faults: Arc<FaultRegistry>) -> Self {
        self.faults = Some(faults);
        self
    }
}

/// The shared storage state behind an opened catalog: root directory,
/// buffer pool, fault registry, and the quarantine report.
#[derive(Debug)]
pub struct Storage {
    root: PathBuf,
    pool: Mutex<BufferPool<Column>>,
    faults: Option<Arc<FaultRegistry>>,
    /// `table/file` names moved to quarantine at open — the counted,
    /// never-silent corruption report.
    quarantined: Vec<String>,
    /// Every committed segment path (for page-cache drops).
    segments: Vec<PathBuf>,
}

impl Storage {
    /// Root directory this catalog was opened from.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Cumulative real-I/O counters of the buffer pool.
    pub fn counters(&self) -> PoolCounters {
        self.pool.lock().expect("store pool lock").counters()
    }

    /// Bytes of decoded chunks currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.pool.lock().expect("store pool lock").resident_bytes()
    }

    /// The pool's byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.pool.lock().expect("store pool lock").capacity_bytes()
    }

    /// The pool's eviction policy.
    pub fn evict_policy(&self) -> Evict {
        self.pool.lock().expect("store pool lock").evict_policy()
    }

    /// Files quarantined when the catalog was opened (`table/file`
    /// names). Nonzero length means a torn generation or stray temp
    /// file was found — and counted, never silently dropped.
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }

    /// Honest cold run: drops every pool frame (a restart) and advises
    /// the kernel to forget the segment files' pages. Returns
    /// `(frames_dropped, files_page_cache_dropped)` — the second number
    /// is 0 on tmpfs or non-Linux hosts, where cold degrades gracefully
    /// to pool-cold-only.
    pub fn drop_caches(&self) -> (usize, usize) {
        let frames = self.pool.lock().expect("store pool lock").drop_all();
        let mut dropped = 0;
        for path in &self.segments {
            if perfeval_store::drop_page_cache(path) {
                dropped += 1;
            }
        }
        (frames, dropped)
    }

    /// One logical read of `chunk`, plus whether it missed. The segment
    /// path is only built on a miss, where the loader also refuses a
    /// segment that does not hold the rows the manifest promised.
    fn load_chunk(
        &self,
        key: SegKey,
        dir: &Path,
        chunk: &ChunkRef,
    ) -> Result<(Arc<Column>, bool), DbError> {
        let mut missed = false;
        let mut pool = self.pool.lock().expect("store pool lock");
        let col = pool.get_or_load(key, || -> Result<(Column, u64), DbError> {
            missed = true;
            let path = dir.join(&chunk.file);
            let data = read_segment(&path, self.faults.as_deref(), read_fault_key(key))
                .map_err(store_err)?;
            if data.rows() as u64 != chunk.rows {
                return Err(DbError::Io(format!(
                    "{}: segment holds {} row(s), manifest says {}",
                    path.display(),
                    data.rows(),
                    chunk.rows
                )));
            }
            let bytes = data.heap_bytes();
            let col = column_from_data(data).ok_or_else(|| {
                DbError::Io(format!(
                    "{}: segment dictionary repeats a value",
                    path.display()
                ))
            })?;
            Ok((col, bytes))
        })?;
        Ok((col, missed))
    }
}

/// One scan's own accesses to the buffer pool, counted as the scan makes
/// them. Deltas of the shared pool's counters would charge a scan the
/// reads of every other session using the catalog at the same time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanIo {
    /// Chunk reads served from the pool.
    pub(crate) hits: u64,
    /// Chunk reads that ran the loader: real I/O.
    pub(crate) misses: u64,
    /// Seconds spent fetching, on the threads that fetched.
    pub(crate) secs: f64,
}

impl ScanIo {
    pub(crate) fn add(&mut self, other: ScanIo) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.secs += other.secs;
    }
}

/// Disk backing of one table: its manifest plus the shared [`Storage`].
#[derive(Debug, Clone)]
pub(crate) struct DiskBacking {
    pub(crate) table_id: u32,
    pub(crate) dir: PathBuf,
    pub(crate) manifest: Arc<TableManifest>,
    pub(crate) store: Arc<Storage>,
}

impl DiskBacking {
    pub(crate) fn rows(&self) -> usize {
        self.manifest.rows as usize
    }

    /// Rows per chunk, all but the last.
    pub(crate) fn chunk_rows(&self) -> usize {
        self.manifest.chunk_rows as usize
    }

    /// Chunks per column — the manifest is validated at load, so every
    /// column has the same count and chunk `k` the same rows in each.
    pub(crate) fn chunk_count(&self) -> usize {
        self.manifest.columns.first().map_or(0, |c| c.chunks.len())
    }

    /// Materializes one whole column. Single-chunk columns are pure `Arc`
    /// clones once resident (zero-copy); multi-chunk columns fetch each
    /// chunk through the pool and *copy* them together in serial order,
    /// outside the pool's budget — for the operators that need their whole
    /// input at once. Sweeps go chunk by chunk through
    /// [`DiskBacking::fetch_chunk`] instead. Nothing is pinned either way.
    pub(crate) fn fetch_column(&self, ci: usize, io: &mut ScanIo) -> Result<Arc<Column>, DbError> {
        let col = &self.manifest.columns[ci];
        let dt = data_type_of(col.tag);
        match col.chunks.len() {
            0 => Ok(Arc::new(Column::new(dt))),
            1 => self.fetch_chunk(ci, 0, io),
            n => {
                let parts: Vec<Arc<Column>> = (0..n)
                    .map(|k| self.fetch_chunk(ci, k, io))
                    .collect::<Result<_, DbError>>()?;
                let refs: Vec<&Column> = parts.iter().map(Arc::as_ref).collect();
                let whole = Column::concat(dt, &refs);
                crate::column::charge_scan_concat(&whole);
                Ok(Arc::new(whole))
            }
        }
    }

    /// One logical read: chunk `chunk` of column `ci` through the pool —
    /// an `Arc` clone when resident, a real `pread` + decode on a miss.
    pub(crate) fn fetch_chunk(
        &self,
        ci: usize,
        chunk: usize,
        io: &mut ScanIo,
    ) -> Result<Arc<Column>, DbError> {
        let key = (self.table_id, ci as u32, chunk as u32);
        let chunk = &self.manifest.columns[ci].chunks[chunk];
        let (col, missed) = self.store.load_chunk(key, &self.dir, chunk)?;
        if missed {
            io.misses += 1;
        } else {
            io.hits += 1;
        }
        Ok(col)
    }
}

/// The `store.read` fault key for a chunk: stable across runs, distinct
/// across tables/columns/chunks.
pub fn read_fault_key(key: SegKey) -> u64 {
    (u64::from(key.0) << 40) | (u64::from(key.1) << 20) | u64::from(key.2 & 0xf_ffff)
}

fn store_err(e: StoreError) -> DbError {
    DbError::Io(e.to_string())
}

pub(crate) fn data_type_of(tag: TypeTag) -> DataType {
    match tag {
        TypeTag::I64 => DataType::Int,
        TypeTag::F64 => DataType::Float,
        TypeTag::Str => DataType::Str,
        TypeTag::Bool => DataType::Bool,
    }
}

fn type_tag_of(dt: DataType) -> TypeTag {
    match dt {
        DataType::Int => TypeTag::I64,
        DataType::Float => TypeTag::F64,
        DataType::Str => TypeTag::Str,
        DataType::Bool => TypeTag::Bool,
    }
}

/// Decoded segment payload → engine column (vectors move; no copy).
/// `None` for a string segment whose dictionary repeats a value.
fn column_from_data(data: ColumnData) -> Option<Column> {
    Some(match data {
        ColumnData::I64(v) => Column::Int(v),
        ColumnData::F64(v) => Column::Float(v),
        ColumnData::Str { dict, codes } => Column::Str {
            dict: Arc::new(StrDict::from_values(dict)?),
            codes,
        },
        ColumnData::Bool(v) => Column::Bool(v),
    })
}

/// One chunk of an engine column → segment payload. String chunks get a
/// chunk-local dictionary in first-seen order, so reloading and
/// concatenating chunks re-interns to exactly the dictionary a serial
/// build over the same rows would produce.
fn chunk_to_data(col: &Column, lo: usize, hi: usize) -> ColumnData {
    match col {
        Column::Int(v) => ColumnData::I64(v[lo..hi].to_vec()),
        Column::Float(v) => ColumnData::F64(v[lo..hi].to_vec()),
        Column::Bool(v) => ColumnData::Bool(v[lo..hi].to_vec()),
        Column::Str { dict, codes } => {
            let values = dict.values();
            let mut remap: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
            let mut local: Vec<String> = Vec::new();
            let mut out = Vec::with_capacity(hi - lo);
            for &code in &codes[lo..hi] {
                let new = *remap.entry(code).or_insert_with(|| {
                    local.push(values[code as usize].clone());
                    (local.len() - 1) as u32
                });
                out.push(new);
            }
            ColumnData::Str {
                dict: local,
                codes: out,
            }
        }
    }
}

/// Persists one table into `root/<name>/` as a fresh generation and
/// commits its manifest. See the module docs for the crash-safety
/// protocol.
pub(crate) fn persist_table(
    table: &Table,
    root: &Path,
    config: &StoreConfig,
) -> Result<(), DbError> {
    if table.is_disk_backed() {
        return Err(DbError::Semantic(format!(
            "table {} is already disk-backed; reopen-and-persist is not supported",
            table.name()
        )));
    }
    let dir = root.join(table.name());
    std::fs::create_dir_all(&dir).map_err(|e| DbError::Io(e.to_string()))?;
    // A fresh generation never collides with live files; if the old
    // manifest is unreadable we still start a new generation past any
    // plausible old one.
    let old = TableManifest::load(&dir).ok().flatten();
    let generation = old.as_ref().map_or(1, |m| m.generation + 1);
    let chunk_rows = config.chunk_rows.max(1);
    let rows = table.row_count();
    let nchunks = rows.div_ceil(chunk_rows);
    let faults = config.faults.as_deref();
    let mut columns = Vec::with_capacity(table.column_count());
    let mut ordinal = 0u64;
    for ci in 0..table.column_count() {
        let col = table.column(ci);
        let mut chunks = Vec::with_capacity(nchunks);
        for k in 0..nchunks {
            let lo = k * chunk_rows;
            let hi = rows.min(lo + chunk_rows);
            let data = chunk_to_data(col, lo, hi);
            let file = TableManifest::seg_file(generation, ci, k);
            let info =
                write_segment(&dir.join(&file), &data, faults, ordinal).map_err(store_err)?;
            ordinal += 1;
            chunks.push(ChunkRef {
                file,
                rows: (hi - lo) as u64,
                bytes: info.file_bytes,
            });
        }
        columns.push(ColumnManifest {
            name: table.column_names()[ci].clone(),
            tag: type_tag_of(col.data_type()),
            chunks,
        });
    }
    let manifest = TableManifest {
        name: table.name().to_owned(),
        rows: rows as u64,
        chunk_rows: chunk_rows as u64,
        generation,
        columns,
    };
    manifest.commit(&dir).map_err(store_err)?;
    // The commit succeeded: the old generation is superseded; reclaim
    // it (best effort — anything left is quarantined at next open).
    if let Some(old) = old {
        let live: std::collections::HashSet<&str> = manifest
            .columns
            .iter()
            .flat_map(|c| c.chunks.iter().map(|ch| ch.file.as_str()))
            .collect();
        for c in &old.columns {
            for ch in &c.chunks {
                if !live.contains(ch.file.as_str()) {
                    let _ = std::fs::remove_file(dir.join(&ch.file));
                }
            }
        }
    }
    Ok(())
}

/// Persists every table of a catalog and commits the catalog manifest.
pub(crate) fn persist_catalog(
    catalog: &Catalog,
    root: &Path,
    config: &StoreConfig,
) -> Result<(), DbError> {
    std::fs::create_dir_all(root).map_err(|e| DbError::Io(e.to_string()))?;
    let names: Vec<String> = catalog
        .table_names()
        .iter()
        .map(|s| (*s).to_owned())
        .collect();
    for name in &names {
        persist_table(catalog.table(name)?, root, config)?;
    }
    CatalogManifest {
        tables: names.clone(),
    }
    .commit(root)
    .map_err(store_err)?;
    Ok(())
}

/// Opens a persisted catalog: loads manifests, quarantines anything
/// unreferenced (counted in [`Storage::quarantined`]), and builds
/// disk-backed tables sharing one buffer pool.
pub(crate) fn open_catalog(root: &Path, config: StoreConfig) -> Result<Catalog, DbError> {
    let cm = CatalogManifest::load(root)
        .map_err(store_err)?
        .ok_or_else(|| DbError::Io(format!("no persisted catalog at {}", root.display())))?;
    let mut quarantined = Vec::new();
    let mut segments = Vec::new();
    let mut manifests = Vec::new();
    for name in &cm.tables {
        let dir = root.join(name);
        let manifest = TableManifest::load(&dir)
            .map_err(store_err)?
            .ok_or_else(|| DbError::Io(format!("table {name} listed but has no manifest")))?;
        quarantined.extend(quarantine_unreferenced(root, &dir, &manifest).map_err(store_err)?);
        segments.extend(perfeval_store::segment_paths(&dir, &manifest));
        manifests.push((dir, manifest));
    }
    let store = Arc::new(Storage {
        root: root.to_owned(),
        pool: Mutex::new(BufferPool::new(config.pool_bytes, config.evict)),
        faults: config.faults,
        quarantined,
        segments,
    });
    let mut catalog = Catalog::new();
    for (table_id, (dir, manifest)) in manifests.into_iter().enumerate() {
        let backing = DiskBacking {
            table_id: table_id as u32,
            dir,
            manifest: Arc::new(manifest),
            store: Arc::clone(&store),
        };
        catalog.register(Table::from_backing(backing))?;
    }
    catalog.attach_storage(store);
    Ok(catalog)
}
