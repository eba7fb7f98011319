//! The table catalog: named, registered [`Table`] files shared by every
//! connection.
//!
//! A table is registered once (`register` op) and from then on referenced by
//! name; the catalog hands out clones of one [`SharedSource`] handle per
//! table, which is exactly what makes the sample cache's identity-based
//! grouping work — every request for `"t"` sees the *same* allocation, so
//! same-configuration requests land in the same cache group.
//!
//! Registration is idempotent: re-registering the same path under the same
//! name is a no-op (the common case of a reconnecting client), while trying
//! to rebind a name to a different file is refused.
//!
//! The registry is one `RwLock<HashMap>`: lookups share the read lock, and
//! only a `register` takes the write lock.

use crate::protocol::{codes, ApiError};
use samplecf_obs::{Counter, Gauge, MetricsRegistry};
use samplecf_storage::{SharedSource, Table};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

type Tables = HashMap<String, CatalogEntry>;

/// One registered table: the typed handle (for metadata the [`Table`]
/// API exposes) and the erased handle (for samplers and the cache).
#[derive(Clone)]
pub struct CatalogEntry {
    /// The open table.
    pub table: Arc<Table>,
    /// The same table, erased to a [`SharedSource`].  All clones alias one
    /// allocation, so cache keys derived from it are stable for the
    /// table's lifetime in the catalog.
    pub shared: SharedSource,
    /// The canonicalized path the table was opened from.
    pub path: String,
}

impl std::fmt::Debug for CatalogEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CatalogEntry")
            .field(
                "table",
                &samplecf_storage::TableSource::name(self.table.as_ref()),
            )
            .field("path", &self.path)
            .finish()
    }
}

/// A concurrent name → table registry.
pub struct TableCatalog {
    tables: RwLock<Tables>,
    hits: Counter,
    misses: Counter,
    registered: Gauge,
}

impl Default for TableCatalog {
    fn default() -> Self {
        Self::with_registry(&MetricsRegistry::new())
    }
}

impl TableCatalog {
    /// An empty catalog feeding a private metrics registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog whose hit/miss counters and table-count gauge feed
    /// `registry` (see `docs/OBSERVABILITY.md` for the metric names).
    #[must_use]
    pub fn with_registry(registry: &MetricsRegistry) -> Self {
        TableCatalog {
            tables: RwLock::default(),
            hits: registry.counter("samplecf_catalog_hits_total"),
            misses: registry.counter("samplecf_catalog_misses_total"),
            registered: registry.gauge("samplecf_catalog_tables"),
        }
    }

    // A panic under the write lock cannot leave the map half-updated (a
    // `register` changes it by one `insert`), so a poisoned lock is
    // recovered, not propagated: one panicking request must not turn every
    // later lookup into a panic.
    fn read(&self) -> RwLockReadGuard<'_, Tables> {
        self.tables.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, Tables> {
        self.tables.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lookups that found their table since start.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that missed since start.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Open the table file at `path` and register it under `name` (or under
    /// the table name stored in the file when `name` is `None`).  Returns
    /// the entry; registering the same path under the same name again is a
    /// cheap no-op returning the existing entry.
    pub fn register(&self, path: &str, name: Option<&str>) -> Result<CatalogEntry, ApiError> {
        // Canonicalize so two spellings of one file compare equal for the
        // idempotence check.
        let canonical = Path::new(path)
            .canonicalize()
            .map(|p| p.to_string_lossy().into_owned())
            .unwrap_or_else(|_| path.to_string());
        let table = Table::open(path)
            .map_err(|e| ApiError::new(codes::STORAGE, format!("cannot open {path}: {e}")))?;
        let name = name
            .unwrap_or_else(|| samplecf_storage::TableSource::name(&table))
            .to_string();

        let mut tables = self.write();
        if let Some(existing) = tables.get(&name) {
            if existing.path == canonical {
                return Ok(existing.clone());
            }
            return Err(ApiError::new(
                codes::TABLE_EXISTS,
                format!(
                    "table {name:?} is already registered from {:?}",
                    existing.path
                ),
            ));
        }
        let table = Arc::new(table);
        let entry = CatalogEntry {
            shared: Arc::clone(&table) as SharedSource,
            table,
            path: canonical,
        };
        tables.insert(name, entry.clone());
        // Incremental rather than recount: `len()` would re-lock the map.
        self.registered.add(1);
        Ok(entry)
    }

    /// Bind `name` to `entry` as is — how a test puts a source other than
    /// the entry's file (a fault-injecting one, say) behind a name.
    #[cfg(test)]
    pub(crate) fn insert(&self, name: &str, entry: CatalogEntry) {
        self.write().insert(name.to_string(), entry);
    }

    /// Look up a registered table by name.
    pub fn get(&self, name: &str) -> Result<CatalogEntry, ApiError> {
        match self.read().get(name).cloned() {
            Some(entry) => {
                self.hits.inc();
                Ok(entry)
            }
            None => {
                self.misses.inc();
                Err(ApiError::new(
                    codes::NO_SUCH_TABLE,
                    format!("no table {name:?} in the catalog (register it first)"),
                ))
            }
        }
    }

    /// Names of all registered tables, sorted for deterministic output.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered tables.
    #[must_use]
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether the catalog is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }
}

impl std::fmt::Debug for TableCatalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCatalog")
            .field("tables", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use samplecf_datagen::presets;
    use samplecf_storage::TableSource;
    use std::path::PathBuf;

    fn temp_table(tag: &str, rows: usize) -> (PathBuf, tempfile::Cleanup) {
        let path =
            std::env::temp_dir().join(format!("samplecf_catalog_{tag}_{}.scf", std::process::id()));
        let table = presets::single_char_table("cat_t", rows, 16, 20, 8, 1)
            .generate()
            .unwrap()
            .table;
        Table::materialize(&path, &table).unwrap();
        let cleanup = tempfile::Cleanup(path.clone());
        (path, cleanup)
    }

    mod tempfile {
        pub struct Cleanup(pub std::path::PathBuf);
        impl Drop for Cleanup {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
    }

    #[test]
    fn register_get_and_idempotence() {
        let (path, _cleanup) = temp_table("basic", 500);
        let catalog = TableCatalog::new();
        let path_str = path.to_string_lossy().into_owned();
        let entry = catalog.register(&path_str, None).unwrap();
        assert_eq!(TableSource::name(entry.table.as_ref()), "cat_t");
        assert_eq!(catalog.names(), vec!["cat_t".to_string()]);

        // Same path, same name: the existing entry (same allocation).
        let again = catalog.register(&path_str, Some("cat_t")).unwrap();
        assert!(Arc::ptr_eq(&entry.table, &again.table));
        assert_eq!(catalog.len(), 1);

        // Lookup hands out clones of the one shared handle.
        let looked_up = catalog.get("cat_t").unwrap();
        assert!(Arc::ptr_eq(&entry.table, &looked_up.table));
        assert_eq!(looked_up.shared.num_rows(), 500);

        // An alias registers the same file under a second name.
        let alias = catalog.register(&path_str, Some("alias")).unwrap();
        assert_eq!(alias.shared.num_rows(), 500);
        assert_eq!(catalog.len(), 2);
    }

    #[test]
    fn conflicts_and_misses_are_typed_errors() {
        let (path_a, _ca) = temp_table("conflict_a", 300);
        let (path_b, _cb) = temp_table("conflict_b", 300);
        let catalog = TableCatalog::new();
        catalog
            .register(&path_a.to_string_lossy(), Some("t"))
            .unwrap();
        let err = catalog
            .register(&path_b.to_string_lossy(), Some("t"))
            .unwrap_err();
        assert_eq!(err.code, codes::TABLE_EXISTS);

        assert_eq!(
            catalog.get("absent").unwrap_err().code,
            codes::NO_SUCH_TABLE
        );
        let err = catalog.register("/no/such/file.scf", None).unwrap_err();
        assert_eq!(err.code, codes::STORAGE);
    }

    #[test]
    fn lookups_feed_the_metrics_registry() {
        let (path, _cleanup) = temp_table("metrics", 200);
        let registry = samplecf_obs::MetricsRegistry::new();
        let catalog = TableCatalog::with_registry(&registry);
        catalog
            .register(&path.to_string_lossy(), Some("t"))
            .unwrap();
        // Idempotent re-register must not double-count the table gauge.
        catalog
            .register(&path.to_string_lossy(), Some("t"))
            .unwrap();
        catalog.get("t").unwrap();
        catalog.get("t").unwrap();
        let _ = catalog.get("absent");
        assert_eq!(catalog.hits(), 2);
        assert_eq!(catalog.misses(), 1);
        assert_eq!(registry.counter("samplecf_catalog_hits_total").get(), 2);
        assert_eq!(registry.gauge("samplecf_catalog_tables").get(), 1);
    }

    #[test]
    fn whole_catalog_views_count_and_sort_every_table() {
        let (path, _cleanup) = temp_table("views", 200);
        let path_str = path.to_string_lossy().into_owned();
        let catalog = TableCatalog::new();
        assert!(catalog.is_empty());
        for name in ["e", "b", "i", "a", "g", "c", "h", "d", "f"] {
            catalog.register(&path_str, Some(name)).unwrap();
        }
        assert_eq!(catalog.len(), 9);
        assert!(!catalog.is_empty());
        let names = catalog.names();
        assert_eq!(names.len(), 9);
        assert!(names.windows(2).all(|w| w[0] < w[1]), "sorted: {names:?}");
        assert!(catalog.get("e").is_ok());
    }

    #[test]
    fn the_catalog_survives_a_panic_under_its_lock() {
        let (path, _cleanup) = temp_table("poison", 200);
        let path_str = path.to_string_lossy().into_owned();
        let catalog = TableCatalog::new();
        catalog.register(&path_str, Some("before")).unwrap();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = catalog.write();
                panic!("injected panic under the catalog's write lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(catalog.tables.is_poisoned());
        assert_eq!(catalog.get("before").unwrap().shared.num_rows(), 200);
        catalog.register(&path_str, Some("after")).unwrap();
        assert_eq!(catalog.names(), ["after", "before"]);
    }
}
