//! Persistence: tables on disk behind `perfeval-store`'s real buffer
//! pool.
//!
//! [`Table::persist`](crate::Table::persist) writes each column as
//! chunked, checksummed, compressed segment files;
//! [`Catalog::open`](crate::Catalog::open) reopens a directory as a
//! catalog of **disk-backed** tables whose scans pull `Arc<Column>`
//! chunks through one shared [`BufferPool`] — zero-copy once resident,
//! real file read on a miss. The pool's hit/miss counters are
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
//! A logical read is two steps. **Read**: peek which chunks the pool does
//! not hold (uncounted) and read + verify + decode those with *no lock
//! held* — a chunk read this way is alive before it is admitted, and is
//! one of the `threads × projected columns` above. **Admit**: one
//! `get_or_load` under the pool mutex, whose loader hands the value (or
//! the error) over; it reads in place only if a frame that was resident at
//! the peek has gone since. The mutex therefore covers hash-map work, and
//! a sweep's units can make the reads of different chunks at the same time
//! while taking turns at the bookkeeping. A value read ahead whose chunk
//! another session admitted meanwhile is dropped and still counted as a
//! physical read (and as `discarded` on the scan's span).
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
//!
//! `store.read` is fired once per physical read before that verdict, so
//! the other actions arm too: `DelayMs` is a slow disk, `Panic` a crashing
//! reader — the statement panics, the pool and the catalog keep serving.

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
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

    /// The pool, locked. A poisoned lock is taken over: the pool is valid
    /// after every step (counters move first, a frame is inserted only
    /// after its load succeeded), so a reader that panicked under the lock
    /// costs its own statement and nobody else's.
    fn pool(&self) -> MutexGuard<'_, BufferPool<Column>> {
        self.pool.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cumulative real-I/O counters of the buffer pool.
    pub fn counters(&self) -> PoolCounters {
        self.pool().counters()
    }

    /// Bytes of decoded chunks currently cached.
    pub fn resident_bytes(&self) -> u64 {
        self.pool().resident_bytes()
    }

    /// The pool's byte budget.
    pub fn capacity_bytes(&self) -> u64 {
        self.pool().capacity_bytes()
    }

    /// The pool's eviction policy.
    pub fn evict_policy(&self) -> Evict {
        self.pool().evict_policy()
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
        let frames = self.pool().drop_all();
        let mut dropped = 0;
        for path in &self.segments {
            if perfeval_store::drop_page_cache(path) {
                dropped += 1;
            }
        }
        (frames, dropped)
    }
}

/// A segment read and decoded ahead of its admission: the column and its
/// exact byte charge, or the typed error its logical read will surface.
pub(crate) type ReadAhead = Result<(Column, u64), DbError>;

/// One scan's own accesses to the buffer pool, counted as the scan makes
/// them. Deltas of the shared pool's counters would charge a scan the
/// reads of every other session using the catalog at the same time.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ScanIo {
    /// Chunk reads served from the pool with no I/O.
    pub(crate) hits: u64,
    /// Chunk reads that read their segment: real I/O.
    pub(crate) misses: u64,
    /// Of `misses`, reads made ahead and dropped because another session
    /// had admitted the chunk by the time this scan looked it up.
    pub(crate) discarded: u64,
    /// Seconds spent fetching — reading, waiting for the turn, admitting —
    /// summed over the threads that fetched.
    pub(crate) secs: f64,
}

impl ScanIo {
    pub(crate) fn add(&mut self, other: ScanIo) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.discarded += other.discarded;
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
    /// [`read_ahead`](Self::read_ahead) and [`admit`](Self::admit) instead.
    /// Nothing is pinned either way.
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

    fn seg_key(&self, ci: usize, chunk: usize) -> SegKey {
        (self.table_id, ci as u32, chunk as u32)
    }

    /// One physical read, made with no lock held: one file read, header and
    /// checksum verification, decode, and the refusal of a segment that
    /// does not hold the rows or the type the manifest promised or whose
    /// dictionary repeats a value. Fires `store.read` once.
    fn read_chunk(&self, ci: usize, chunk: usize) -> ReadAhead {
        let key = read_fault_key(self.seg_key(ci, chunk));
        let column = &self.manifest.columns[ci];
        let chunk = &column.chunks[chunk];
        let path = self.dir.join(&chunk.file);
        let data = read_segment(&path, self.store.faults.as_deref(), key).map_err(store_err)?;
        if data.rows() as u64 != chunk.rows {
            return Err(DbError::Io(format!(
                "{}: segment holds {} row(s), manifest says {}",
                path.display(),
                data.rows(),
                chunk.rows
            )));
        }
        if data.type_tag() != column.tag {
            return Err(DbError::Io(format!(
                "{}: segment holds {} values, manifest says {}",
                path.display(),
                data.type_tag().as_str(),
                column.tag.as_str()
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
    }

    /// The read step for chunk `chunk` of columns `cols`: one uncounted
    /// peek at the pool, then a file read + decode, with no lock held, of
    /// each column it does not hold. `None` is a column that was resident
    /// — or that comes after a failed read: the unit will surface that
    /// error first and never look the later columns up, as a scan that
    /// reads in place would not have read them.
    pub(crate) fn read_ahead(&self, cols: &[usize], chunk: usize) -> Vec<Option<ReadAhead>> {
        let resident: Vec<bool> = {
            let pool = self.store.pool();
            (cols.iter())
                .map(|&ci| pool.contains(self.seg_key(ci, chunk)))
                .collect()
        };
        let mut failed = false;
        let mut ahead = Vec::with_capacity(cols.len());
        for (&ci, resident) in cols.iter().zip(resident) {
            let read = (!resident && !failed).then(|| self.read_chunk(ci, chunk));
            failed |= matches!(read, Some(Err(_)));
            ahead.push(read);
        }
        ahead
    }

    /// The admit step, one logical read charged to `io`: chunk `chunk` of
    /// column `ci` through the pool — an `Arc` clone when resident, else
    /// the frame made from what was read `ahead`. The loader reads in place
    /// only when the peek found the chunk resident and it has gone since;
    /// on a hit a value read ahead is dropped, and counted.
    pub(crate) fn admit(
        &self,
        ci: usize,
        chunk: usize,
        mut ahead: Option<ReadAhead>,
        io: &mut ScanIo,
    ) -> Result<Arc<Column>, DbError> {
        let mut missed = false;
        let mut pool = self.store.pool();
        let col = pool.get_or_load(self.seg_key(ci, chunk), || {
            missed = true;
            ahead.take().unwrap_or_else(|| self.read_chunk(ci, chunk))
        });
        if missed {
            io.misses += 1;
        } else if ahead.is_some() {
            pool.count_discarded_read();
            io.misses += 1;
            io.discarded += 1;
        } else {
            io.hits += 1;
        }
        col
    }

    /// Both steps back to back, for a reader that takes no turns.
    fn fetch_chunk(
        &self,
        ci: usize,
        chunk: usize,
        io: &mut ScanIo,
    ) -> Result<Arc<Column>, DbError> {
        let resident = self.store.pool().contains(self.seg_key(ci, chunk));
        let ahead = (!resident).then(|| self.read_chunk(ci, chunk));
        self.admit(ci, chunk, ahead, io)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;
    use crate::types::Value;

    /// A reader that dies while it holds the pool lock — reachable when a
    /// frame resident at the peek is gone at the lookup and the loader reads
    /// in place — poisons the mutex; every later access takes it over.
    #[test]
    fn a_poisoned_pool_lock_is_taken_over() {
        let dir = std::env::temp_dir().join(format!("minidb_poison_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = TableBuilder::new("t").column("k", DataType::Int).build();
        for k in 0..10 {
            t.push_row(vec![Value::Int(k)]).unwrap();
        }
        let mut catalog = Catalog::new();
        catalog.register(t).unwrap();
        catalog
            .persist_with(&dir, &StoreConfig::default().chunk_rows(4))
            .unwrap();
        let disk = Catalog::open(&dir).unwrap();
        let store = Arc::clone(disk.storage().unwrap());
        let died = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let _pool = store.pool();
                panic!("reader died under the pool lock");
            });
            reader.join()
        });
        assert!(died.is_err() && store.pool.is_poisoned());
        let column = disk.table("t").unwrap().column_arc_io(0).unwrap();
        assert_eq!(column.len(), 10);
        let c = store.counters();
        assert_eq!((c.logical_reads, c.physical_reads), (3, 3));
        assert!(store.resident_bytes() <= store.capacity_bytes());
        assert_eq!(store.evict_policy(), Evict::Lru);
        assert_eq!(store.drop_caches().0, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
