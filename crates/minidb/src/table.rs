//! Tables: named collections of equal-length columns.

use crate::column::Column;
use crate::error::DbError;
use crate::storage::{persist_table, DiskBacking, ScanIo, StoreConfig};
use crate::types::{DataType, Value};
use std::path::Path;
use std::sync::Arc;

/// A named, schema-typed, columnar table.
///
/// Columns live behind `Arc` so scans hand them to the executor (and the
/// executor hands them to worker threads) without deep-copying data:
/// cloning a table or scanning it costs reference counts, not bytes.
///
/// A table is either **in-memory** (columns resident, mutable) or
/// **disk-backed** (opened via [`Catalog::open`](crate::Catalog::open)):
/// backed tables keep empty placeholder columns for schema answers and
/// fetch real column data through the shared buffer pool on demand —
/// chunk by chunk under a sweeping operator, whole columns via
/// [`Table::column_arc_io`]. Backed tables are read-only.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    column_names: Vec<String>,
    columns: Vec<Arc<Column>>,
    backing: Option<DiskBacking>,
}

impl Table {
    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds a disk-backed table from an opened manifest. The columns
    /// vector holds empty placeholders of the right types so schema
    /// queries (`schema()`, `data_type()`) answer without I/O.
    pub(crate) fn from_backing(backing: DiskBacking) -> Table {
        Table {
            name: backing.manifest.name.clone(),
            column_names: backing
                .manifest
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
            columns: backing
                .manifest
                .columns
                .iter()
                .map(|c| Arc::new(Column::new(crate::storage::data_type_of(c.tag))))
                .collect(),
            backing: Some(backing),
        }
    }

    /// True if this table reads its data from persistent segments.
    pub fn is_disk_backed(&self) -> bool {
        self.backing.is_some()
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        match &self.backing {
            Some(b) => b.rows(),
            None => self.columns.first().map_or(0, |c| c.len()),
        }
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.columns.len()
    }

    /// Column names in schema order.
    pub fn column_names(&self) -> &[String] {
        &self.column_names
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize, DbError> {
        self.column_names
            .iter()
            .position(|n| n == name)
            .ok_or_else(|| DbError::UnknownColumn(name.to_owned()))
    }

    /// Column by index.
    ///
    /// For disk-backed tables this is the empty schema placeholder —
    /// use it for type questions only; fetch data via
    /// [`Table::column_arc_io`].
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Shared handle to a whole column by index, surfacing storage errors.
    ///
    /// In-memory tables return their resident `Arc` (free). Disk-backed
    /// tables pull every chunk of the column through the buffer pool —
    /// an `Arc` clone when resident, a real file read on a miss — and
    /// return [`DbError::Io`] when a segment is unreadable (including
    /// injected `store.read` faults). A single-chunk column *is* its
    /// pooled chunk (zero-copy); a multi-chunk column is a fresh copy of
    /// its chunks, held outside the pool's budget — the materialization
    /// for consumers that need the whole column at once. The sweeping
    /// operators never ask for it: they read a multi-chunk table one chunk
    /// per unit.
    pub fn column_arc_io(&self, idx: usize) -> Result<Arc<Column>, DbError> {
        self.scan_column(idx, &mut ScanIo::default())
    }

    /// [`Table::column_arc_io`], counting the pool accesses into `io`.
    pub(crate) fn scan_column(&self, idx: usize, io: &mut ScanIo) -> Result<Arc<Column>, DbError> {
        match &self.backing {
            Some(b) => b.fetch_column(idx, io),
            None => Ok(Arc::clone(&self.columns[idx])),
        }
    }

    /// The disk backing, if any.
    pub(crate) fn backing(&self) -> Option<&DiskBacking> {
        self.backing.as_ref()
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, DbError> {
        Ok(&self.columns[self.column_index(name)?])
    }

    /// Schema as (name, type) pairs.
    pub fn schema(&self) -> Vec<(String, DataType)> {
        self.column_names
            .iter()
            .cloned()
            .zip(self.columns.iter().map(|c| c.data_type()))
            .collect()
    }

    /// Appends one row; values must match the schema positionally.
    ///
    /// Disk-backed tables are read-only and return a semantic error:
    /// load in memory, persist, reopen.
    pub fn push_row(&mut self, values: Vec<Value>) -> Result<(), DbError> {
        if self.backing.is_some() {
            return Err(DbError::Semantic(format!(
                "table {} is disk-backed and read-only",
                self.name
            )));
        }
        if values.len() != self.columns.len() {
            return Err(DbError::Arity {
                expected: self.columns.len(),
                got: values.len(),
            });
        }
        // Validate all values first so a failed push cannot leave ragged
        // columns behind.
        for (col, v) in self.columns.iter().zip(&values) {
            let compatible = matches!(
                (col.data_type(), v),
                (DataType::Int, Value::Int(_))
                    | (DataType::Float, Value::Float(_))
                    | (DataType::Float, Value::Int(_))
                    | (DataType::Str, Value::Str(_))
                    | (DataType::Bool, Value::Bool(_))
            );
            if !compatible {
                return Err(DbError::TypeMismatch(format!(
                    "value {v:?} does not fit column type {}",
                    col.data_type()
                )));
            }
        }
        for (col, v) in self.columns.iter_mut().zip(values) {
            Arc::make_mut(col).push(v).expect("validated above");
        }
        Ok(())
    }

    /// Materializes row `i` as values.
    ///
    /// # Panics
    /// Panics if `i >= row_count()`, or if the table is disk-backed
    /// (per-row point reads through the pool would be quadratic —
    /// fetch columns once via [`Table::column_arc_io`] instead).
    pub fn row(&self, i: usize) -> Vec<Value> {
        assert!(
            self.backing.is_none(),
            "row(): disk-backed table {}; fetch columns via column_arc_io",
            self.name
        );
        self.columns.iter().map(|c| c.get(i)).collect()
    }

    /// Bytes of one row as stored (page accounting for the buffer pool).
    pub fn row_bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.value_bytes()).sum()
    }

    /// Number of 8 KiB pages this table occupies on the simulated disk.
    pub fn page_count(&self, page_bytes: u64) -> u64 {
        let total = self.row_count() as u64 * self.row_bytes();
        total.div_ceil(page_bytes).max(1)
    }

    /// Persists this table under `root/<name>/` as checksummed,
    /// compressed column segments with default storage settings. See
    /// [`Catalog::persist`](crate::Catalog::persist) for whole-catalog
    /// persistence.
    pub fn persist(&self, root: &Path) -> Result<(), DbError> {
        self.persist_with(root, &StoreConfig::default())
    }

    /// [`Table::persist`] with explicit storage settings (chunk size,
    /// fault registry).
    pub fn persist_with(&self, root: &Path, config: &StoreConfig) -> Result<(), DbError> {
        persist_table(self, root, config)
    }
}

/// Fluent builder for [`Table`].
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    column_names: Vec<String>,
    types: Vec<DataType>,
}

impl TableBuilder {
    /// Starts a table definition.
    pub fn new(name: &str) -> Self {
        TableBuilder {
            name: name.to_owned(),
            column_names: Vec::new(),
            types: Vec::new(),
        }
    }

    /// Adds a column.
    pub fn column(mut self, name: &str, dt: DataType) -> Self {
        self.column_names.push(name.to_owned());
        self.types.push(dt);
        self
    }

    /// Finishes the definition.
    ///
    /// # Panics
    /// Panics on duplicate column names or an empty schema.
    pub fn build(self) -> Table {
        assert!(!self.column_names.is_empty(), "table needs >= 1 column");
        for (i, a) in self.column_names.iter().enumerate() {
            for b in &self.column_names[i + 1..] {
                assert_ne!(a, b, "duplicate column name {a}");
            }
        }
        Table {
            name: self.name,
            columns: self
                .types
                .iter()
                .map(|&t| Arc::new(Column::new(t)))
                .collect(),
            column_names: self.column_names,
            backing: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = TableBuilder::new("items")
            .column("id", DataType::Int)
            .column("name", DataType::Str)
            .column("price", DataType::Float)
            .build();
        t.push_row(vec![
            Value::Int(1),
            Value::Str("apple".into()),
            Value::Float(0.5),
        ])
        .unwrap();
        t.push_row(vec![
            Value::Int(2),
            Value::Str("orange".into()),
            Value::Float(0.8),
        ])
        .unwrap();
        t
    }

    #[test]
    fn build_and_fill() {
        let t = sample();
        assert_eq!(t.name(), "items");
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column_count(), 3);
        assert_eq!(
            t.row(1),
            vec![
                Value::Int(2),
                Value::Str("orange".into()),
                Value::Float(0.8)
            ]
        );
    }

    #[test]
    fn schema_and_lookup() {
        let t = sample();
        assert_eq!(t.column_index("price").unwrap(), 2);
        assert!(t.column_index("nope").is_err());
        let schema = t.schema();
        assert_eq!(schema[1], ("name".to_owned(), DataType::Str));
        assert_eq!(t.column_by_name("id").unwrap().len(), 2);
    }

    #[test]
    fn arity_check() {
        let mut t = sample();
        let err = t.push_row(vec![Value::Int(3)]).unwrap_err();
        assert_eq!(
            err,
            DbError::Arity {
                expected: 3,
                got: 1
            }
        );
        assert_eq!(t.row_count(), 2, "failed push must not modify the table");
    }

    #[test]
    fn type_check_is_atomic() {
        let mut t = sample();
        // Third value has the wrong type; no column may grow.
        let err = t
            .push_row(vec![
                Value::Int(3),
                Value::Str("pear".into()),
                Value::Str("oops".into()),
            ])
            .unwrap_err();
        assert!(matches!(err, DbError::TypeMismatch(_)));
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.column(0).len(), 2);
        assert_eq!(t.column(1).len(), 2);
    }

    #[test]
    fn row_bytes_and_pages() {
        let t = sample();
        // 8 (int) + 4 (str code) + 8 (float) = 20 bytes/row.
        assert_eq!(t.row_bytes(), 20);
        assert_eq!(t.page_count(8192), 1);
        let mut big = TableBuilder::new("big").column("x", DataType::Int).build();
        for i in 0..10_000 {
            big.push_row(vec![Value::Int(i)]).unwrap();
        }
        // 80_000 bytes / 8192 = 9.77 -> 10 pages.
        assert_eq!(big.page_count(8192), 10);
    }

    #[test]
    fn empty_table_has_one_page() {
        let t = TableBuilder::new("e").column("x", DataType::Int).build();
        assert_eq!(t.page_count(8192), 1);
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate column name")]
    fn duplicate_columns_panic() {
        let _ = TableBuilder::new("bad")
            .column("x", DataType::Int)
            .column("x", DataType::Int)
            .build();
    }

    #[test]
    #[should_panic(expected = "needs >= 1 column")]
    fn empty_schema_panics() {
        let _ = TableBuilder::new("bad").build();
    }
}
