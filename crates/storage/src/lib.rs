//! # gpl-storage — columnar storage for the GPL reproduction
//!
//! Fixed-width, dictionary-encoded columnar tables (the layout GPU query
//! engines such as OmniDB use), the tiling component of Section 3.3, and
//! the mapping of tables into the simulator's global-memory address space
//! so that kernel scans generate realistic cache traffic.
//!
//! Two widths belong to each column. [`DataType::width`] is its width in
//! simulated device memory: layouts, tiles and cycles read only that. The
//! host copy of the values is kept at the narrowest signed width that
//! holds them ([`Column`]), which no other crate sees — every reader gets
//! `i64`. [`Table::total_bytes`] counts the first, [`Table::host_bytes`]
//! the second.

pub mod column;
pub mod layout;
pub mod table;
pub mod tile;
pub mod types;

pub use column::{Column, ColumnBuilder, DictBuilder, Dictionary};
pub use layout::TableLayout;
pub use table::Table;
pub use tile::Tiling;
pub use types::{days, dec, dec_mul, decimal_to_string, DataType, Date, DECIMAL_SCALE};
