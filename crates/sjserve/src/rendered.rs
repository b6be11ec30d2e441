//! Rendered result rows that keep their wire encoding.
//!
//! A query result leaves the service as a table of display strings.
//! The binary wire ships that table as one `SEC_RESULT_ROWS` section
//! ([`encode_str_rows`]); JSON-lines and in-process callers read the
//! cells. [`RenderedRows`] holds either form, or both, and derives the
//! missing one at most once. The result cache stores the section it
//! encoded on the inserting miss, so a hit hands those bytes to a fresh
//! table and the server renders and encodes nothing.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use serde::{Content, Deserialize, Serialize};
use sjwire::codec::{decode_section, decode_str_rows, encode_str_rows};
use sjwire::WireError;

/// Result rows rendered to display strings: immutable and shared, so a
/// clone is one reference-count bump.
///
/// Derefs to the cells. Equality, hashing, `Debug`, `Default` and
/// (de)serialization all go by the cells, exactly as for a
/// `Vec<Vec<String>>`, so JSON output does not depend on which form a
/// table was built from.
#[derive(Clone)]
pub struct RenderedRows(Arc<Forms>);

/// The two forms of one table. At least one is always set.
struct Forms {
    /// Row count, known whichever form came first.
    len: usize,
    cells: OnceLock<Vec<Vec<String>>>,
    /// The table as an [`encode_str_rows`] section.
    section: OnceLock<Arc<[u8]>>,
}

impl RenderedRows {
    /// Decode a received section, validating all of it and keeping its
    /// bytes, so the table can be sent on without being encoded again.
    /// A malformed section is an error here, never a panic on deref.
    pub(crate) fn decode(section: &[u8]) -> Result<Self, WireError> {
        let cells = decode_section(section, decode_str_rows)?;
        let forms = Forms {
            len: cells.len(),
            cells: OnceLock::from(cells),
            section: OnceLock::from(Arc::<[u8]>::from(section)),
        };
        Ok(RenderedRows(Arc::new(forms)))
    }

    /// A table known only by a section this process encoded (taken from
    /// [`RenderedRows::section`]); its cells are decoded on first deref.
    pub(crate) fn from_section(section: Arc<[u8]>) -> Self {
        let len = section
            .first_chunk::<4>()
            .map_or(0, |n| u32::from_le_bytes(*n) as usize);
        RenderedRows(Arc::new(Forms {
            len,
            cells: OnceLock::new(),
            section: OnceLock::from(section),
        }))
    }

    /// Number of rows, without materializing the cells.
    pub fn len(&self) -> usize {
        self.0.len
    }

    /// Whether the table has no rows, without materializing the cells.
    pub fn is_empty(&self) -> bool {
        self.0.len == 0
    }

    /// The cells, decoded from the section on first use.
    fn cells(&self) -> &[Vec<String>] {
        self.0.cells.get_or_init(|| {
            let section = self
                .0
                .section
                .get()
                .expect("a table holds at least one form");
            decode_section(section, decode_str_rows)
                .expect("sections are validated or self-encoded before a table holds them")
        })
    }

    /// The table as one [`encode_str_rows`] section, encoded on first
    /// use.
    pub(crate) fn section(&self) -> &Arc<[u8]> {
        self.0
            .section
            .get_or_init(|| encode_str_rows(self.cells()).into())
    }

    /// The cells as an owned table: moved out when this is the only
    /// handle, copied otherwise.
    pub fn into_cells(self) -> Vec<Vec<String>> {
        self.cells();
        match Arc::try_unwrap(self.0) {
            Ok(forms) => forms.cells.into_inner().expect("materialized above"),
            Err(shared) => shared.cells.get().expect("materialized above").clone(),
        }
    }

    /// Whether the cells have been materialized yet.
    #[cfg(test)]
    pub(crate) fn has_cells(&self) -> bool {
        self.0.cells.get().is_some()
    }
}

impl Deref for RenderedRows {
    type Target = [Vec<String>];

    fn deref(&self) -> &[Vec<String>] {
        self.cells()
    }
}

impl From<Vec<Vec<String>>> for RenderedRows {
    fn from(cells: Vec<Vec<String>>) -> Self {
        RenderedRows(Arc::new(Forms {
            len: cells.len(),
            cells: OnceLock::from(cells),
            section: OnceLock::new(),
        }))
    }
}

impl FromIterator<Vec<String>> for RenderedRows {
    fn from_iter<I: IntoIterator<Item = Vec<String>>>(rows: I) -> Self {
        RenderedRows::from(rows.into_iter().collect::<Vec<_>>())
    }
}

impl Default for RenderedRows {
    fn default() -> Self {
        RenderedRows::from(Vec::new())
    }
}

impl PartialEq for RenderedRows {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.cells() == other.cells()
    }
}

impl Eq for RenderedRows {}

impl Hash for RenderedRows {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cells().hash(state)
    }
}

impl fmt::Debug for RenderedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.cells(), f)
    }
}

impl Serialize for RenderedRows {
    fn serialize(&self) -> Content {
        self.cells().serialize()
    }
}

impl Deserialize for RenderedRows {
    fn deserialize(content: &Content) -> Result<Self, serde::Error> {
        Vec::<Vec<String>>::deserialize(content).map(RenderedRows::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn tables() -> Vec<Vec<Vec<String>>> {
        let s = |v: &[&str]| v.iter().map(|c| c.to_string()).collect::<Vec<_>>();
        vec![
            vec![],
            vec![s(&[])],
            vec![s(&["a", "b"]), s(&["c"]), s(&[])],
            vec![s(&["höstlöv", "日本", "\"quoted\\\n"]), s(&["", "é", "🦀"])],
            (0..300)
                .map(|i| vec![format!("node{}", i % 4), "rack0".into(), format!("{i}.5")])
                .collect(),
        ]
    }

    fn hash_of<T: Hash + ?Sized>(t: &T) -> u64 {
        let mut h = DefaultHasher::new();
        t.hash(&mut h);
        h.finish()
    }

    #[test]
    fn json_bytes_match_the_plain_table() {
        for cells in tables() {
            let want = serde_json::to_string(&cells).unwrap();
            let from_cells = RenderedRows::from(cells.clone());
            let from_section = RenderedRows::from_section(Arc::clone(from_cells.section()));
            assert_eq!(serde_json::to_string(&from_cells).unwrap(), want);
            assert_eq!(serde_json::to_string(&from_section).unwrap(), want);
            let back: RenderedRows = serde_json::from_str(&want).unwrap();
            assert_eq!(*back, cells);
        }
    }

    #[test]
    fn hash_and_eq_go_by_the_cells() {
        for cells in tables() {
            let table = RenderedRows::from(cells.clone());
            let decoded = RenderedRows::from_section(Arc::clone(table.section()));
            assert_eq!(hash_of(&table), hash_of(&cells));
            assert_eq!(hash_of(&decoded), hash_of(&cells));
            assert_eq!(table, decoded);
            assert_eq!(format!("{table:?}"), format!("{cells:?}"));
            assert_eq!(table.len(), cells.len());
            assert_eq!(decoded.len(), cells.len());
        }
        assert_ne!(
            RenderedRows::from(vec![vec!["a".to_string()]]),
            RenderedRows::default()
        );
        assert!(RenderedRows::default().is_empty());
    }

    #[test]
    fn clones_share_one_table() {
        let table: RenderedRows = tables().pop().unwrap().into_iter().collect();
        let copy = table.clone();
        assert!(Arc::ptr_eq(&table.0, &copy.0));
        assert!(std::ptr::eq(table.section(), copy.section()));
    }

    #[test]
    fn each_form_is_derived_once() {
        let cells = tables().pop().unwrap();
        let table = RenderedRows::from(cells.clone());
        assert!(std::ptr::eq(table.section(), table.section()));
        let decoded = RenderedRows::from_section(Arc::clone(table.section()));
        assert!(!decoded.has_cells());
        assert_eq!(decoded.len(), cells.len());
        assert!(std::ptr::eq(decoded.cells(), decoded.cells()));
        assert_eq!(decoded.into_cells(), cells);
        assert_eq!(table.into_cells(), cells);
    }

    #[test]
    fn malformed_sections_fail_at_decode() {
        for cells in tables() {
            let section = encode_str_rows(&cells);
            let table = RenderedRows::decode(&section).unwrap();
            assert!(table.has_cells());
            assert_eq!(*table, cells);
            assert_eq!(**table.section(), section[..]);
            for cut in 0..section.len() {
                assert!(RenderedRows::decode(&section[..cut]).is_err(), "cut {cut}");
            }
            let mut longer = section.clone();
            longer.push(0);
            assert!(RenderedRows::decode(&longer).is_err());
        }
    }
}
