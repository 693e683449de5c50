//! The catalog: tables and views, behind a `parking_lot` lock.
//!
//! A session's catalog is a private layer over the database's: lookups try
//! the layer first and fall through to the shared catalog, writes go to
//! whichever layer holds the table, and new tables stay in the layer.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{Error, Result};
use crate::sql::ast::Query;
use crate::stats::StatsCache;
use crate::table::{Table, TableRef};

#[derive(Default)]
struct Inner {
    tables: HashMap<String, TableRef>,
    views: HashMap<String, Arc<Query>>,
    /// Per-table version counters, keyed by lower-cased name. Entries
    /// survive DROP so a later re-creation continues the sequence — a
    /// (name, epoch) cache key can never alias across the drop.
    table_epochs: HashMap<String, u64>,
}

/// Thread-safe name → object registry.
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<Inner>,
    /// Distinct counts of this layer's tables, keyed by this layer's
    /// per-table epochs.
    pub(crate) stats: StatsCache,
    /// For a session's private layer: the catalog that names this layer
    /// does not hold resolve in.
    shared: Option<Arc<Catalog>>,
}

fn key(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// An empty private layer over `shared`: its tables shadow shared ones
    /// of the same name and are invisible to every other layer.
    pub(crate) fn layer_over(shared: Arc<Catalog>) -> Self {
        Catalog { shared: Some(shared), ..Catalog::default() }
    }

    /// The shared catalog under a private layer; the catalog itself
    /// otherwise.
    pub(crate) fn shared(&self) -> &Catalog {
        self.shared.as_deref().unwrap_or(self)
    }

    /// The layer holding table `name`: this one, unless it is a private
    /// layer without such a table.
    fn owner(&self, name: &str) -> &Catalog {
        match &self.shared {
            Some(shared) if !self.inner.read().tables.contains_key(&key(name)) => shared,
            _ => self,
        }
    }

    /// The version counter of one table in this layer (0 for never-seen
    /// names). Survives DROP: re-creating a table continues its sequence
    /// rather than restarting at 0, so stale per-table cache entries can
    /// never alias.
    pub fn table_epoch(&self, name: &str) -> u64 {
        self.inner.read().table_epochs.get(&key(name)).copied().unwrap_or(0)
    }

    fn touch(&self, inner: &mut Inner, k: &str) {
        *inner.table_epochs.entry(k.to_string()).or_insert(0) += 1;
    }

    /// Registers a table. Fails if a table or view of that name exists and
    /// `or_replace` is false.
    pub fn create_table(&self, name: &str, table: Table, or_replace: bool) -> Result<()> {
        let mut inner = self.inner.write();
        let k = key(name);
        if !or_replace && (inner.tables.contains_key(&k) || inner.views.contains_key(&k)) {
            return Err(Error::AlreadyExists(format!("table or view '{name}'")));
        }
        inner.views.remove(&k);
        inner.tables.insert(k.clone(), Arc::new(table));
        self.touch(&mut inner, &k);
        Ok(())
    }

    /// Registers a view definition.
    pub fn create_view(&self, name: &str, query: Query, or_replace: bool) -> Result<()> {
        let mut inner = self.inner.write();
        let k = key(name);
        if !or_replace && (inner.tables.contains_key(&k) || inner.views.contains_key(&k)) {
            return Err(Error::AlreadyExists(format!("table or view '{name}'")));
        }
        inner.tables.remove(&k);
        inner.views.insert(k.clone(), Arc::new(query));
        self.touch(&mut inner, &k);
        Ok(())
    }

    /// Snapshot of a table by name.
    pub fn table(&self, name: &str) -> Option<TableRef> {
        let local = self.inner.read().tables.get(&key(name)).cloned();
        local.or_else(|| self.shared.as_ref()?.table(name))
    }

    /// A table by name with its epoch, read together: `Some(epoch)` for a
    /// table of the shared catalog, `None` for one private to a session's
    /// layer (whose epochs restart with every session).
    pub(crate) fn resolve_table(&self, name: &str) -> Option<(TableRef, Option<u64>)> {
        let k = key(name);
        let inner = self.inner.read();
        match inner.tables.get(&k) {
            Some(t) => {
                let epoch = self.shared.is_none().then(|| inner.table_epochs[&k]);
                Some((Arc::clone(t), epoch))
            }
            None => {
                drop(inner);
                self.shared.as_ref()?.resolve_table(name)
            }
        }
    }

    /// View definition by name.
    pub fn view(&self, name: &str) -> Option<Arc<Query>> {
        let local = self.inner.read().views.get(&key(name)).cloned();
        local.or_else(|| self.shared.as_ref()?.view(name))
    }

    /// Exact distinct-value count of `table.column`, computed on demand and
    /// cached by the layer that holds the table. `None` if the table or
    /// column is absent.
    pub fn ndv(&self, table: &str, column: &str) -> Option<u64> {
        let owner = self.owner(table);
        owner.stats.ndv(owner, table, column)
    }

    /// Replaces a table's contents in place (used by INSERT/UPDATE).
    pub fn replace_table(&self, name: &str, table: Table) -> Result<()> {
        let owner = self.owner(name);
        let mut inner = owner.inner.write();
        let k = key(name);
        if !inner.tables.contains_key(&k) {
            return Err(Error::NotFound(format!("table '{name}'")));
        }
        inner.tables.insert(k.clone(), Arc::new(table));
        owner.touch(&mut inner, &k);
        Ok(())
    }

    /// Drops a table; `Ok(false)` when absent and `if_exists`.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<bool> {
        let owner = self.owner(name);
        let mut inner = owner.inner.write();
        let k = key(name);
        if inner.tables.remove(&k).is_some() {
            owner.touch(&mut inner, &k);
            Ok(true)
        } else if if_exists {
            Ok(false)
        } else {
            Err(Error::NotFound(format!("table '{name}'")))
        }
    }

    /// Drops a view from this layer; `Ok(false)` when absent and
    /// `if_exists`.
    pub fn drop_view(&self, name: &str, if_exists: bool) -> Result<bool> {
        let mut inner = self.inner.write();
        let k = key(name);
        if inner.views.remove(&k).is_some() {
            self.touch(&mut inner, &k);
            Ok(true)
        } else if if_exists {
            Ok(false)
        } else {
            Err(Error::NotFound(format!("view '{name}'")))
        }
    }

    /// Names of all tables in this layer.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Total approximate bytes across this layer's tables (storage
    /// experiments).
    pub fn total_memory_bytes(&self) -> usize {
        self.inner.read().tables.values().map(|t| t.memory_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::table::{Field, Schema};
    use crate::value::DataType;

    fn t(rows: Vec<i64>) -> Table {
        Table::new(Schema::new(vec![Field::new("id", DataType::Int64)]), vec![Column::Int64(rows)])
            .unwrap()
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let c = Catalog::new();
        c.create_table("Fabric", t(vec![1]), false).unwrap();
        assert!(c.table("FABRIC").is_some());
        assert!(matches!(c.create_table("fabric", t(vec![]), false), Err(Error::AlreadyExists(_))));
        c.create_table("fabric", t(vec![2]), true).unwrap();
        assert_eq!(c.table("fabric").unwrap().num_rows(), 1);
    }

    #[test]
    fn drop_semantics() {
        let c = Catalog::new();
        c.create_table("t", t(vec![]), false).unwrap();
        assert!(c.drop_table("t", false).unwrap());
        assert!(!c.drop_table("t", true).unwrap());
        assert!(c.drop_table("t", false).is_err());
    }

    #[test]
    fn epochs_advance_on_mutation_and_survive_drop() {
        let c = Catalog::new();
        assert_eq!(c.table_epoch("t"), 0);
        c.create_table("t", t(vec![1]), false).unwrap();
        let te1 = c.table_epoch("T");
        assert!(te1 > 0, "case-insensitive per-table epoch");
        c.replace_table("t", t(vec![1, 2])).unwrap();
        assert!(c.table_epoch("t") > te1);
        // DROP + re-CREATE keeps counting up: no (name, epoch) aliasing.
        let te2 = c.table_epoch("t");
        c.drop_table("t", false).unwrap();
        c.create_table("t", t(vec![1]), false).unwrap();
        assert!(c.table_epoch("t") > te2);
    }

    #[test]
    fn views_and_tables_share_a_namespace() {
        let c = Catalog::new();
        c.create_table("x", t(vec![]), false).unwrap();
        let q = crate::sql::parser::parse_statement("SELECT 1 a").unwrap();
        let crate::sql::ast::Statement::Query(q) = q else { panic!() };
        assert!(c.create_view("x", q.clone(), false).is_err());
        assert!(c.create_view("v", q, false).is_ok());
        assert!(c.view("V").is_some());
        assert!(c.drop_view("v", false).unwrap());
    }
}
