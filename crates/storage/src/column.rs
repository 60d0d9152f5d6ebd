//! Typed columnar storage.
//!
//! Every column is a dense, fixed-width vector — the layout GPU query
//! engines use so kernels can compute element addresses from row ids.
//! The simulator prices each column at its logical
//! [`DataType::width`]; the host keeps it at the narrowest signed width
//! its values need (see [`Column`]). Strings are dictionary encoded
//! ([`DataType::Dict`]); operators compare codes, and predicates look
//! codes up in the shared [`Dictionary`].

use crate::types::DataType;
use std::sync::Arc;

/// An immutable string dictionary. Codes are indexes into the entry
/// list, which keeps first-seen order, not string order: code equality
/// is string equality, but code order says nothing about string order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Dictionary {
    entries: Vec<String>,
}

impl Dictionary {
    /// Build from entries, which must be unique. Order is preserved
    /// (generators intern in first-seen order).
    pub fn new(entries: Vec<String>) -> Self {
        Dictionary { entries }
    }

    pub fn code_of(&self, s: &str) -> Option<u32> {
        self.entries.iter().position(|e| e == s).map(|i| i as u32)
    }

    pub fn get(&self, code: u32) -> &str {
        &self.entries[code as usize]
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[String] {
        &self.entries
    }
}

/// A builder-side dictionary that interns strings on the fly.
#[derive(Debug, Default)]
pub struct DictBuilder {
    entries: Vec<String>,
    index: std::collections::HashMap<String, u32>,
}

impl DictBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn intern(&mut self, s: &str) -> u32 {
        if let Some(&c) = self.index.get(s) {
            return c;
        }
        let c = self.entries.len() as u32;
        self.entries.push(s.to_string());
        self.index.insert(s.to_string(), c);
        c
    }

    pub fn finish(self) -> Dictionary {
        Dictionary {
            entries: self.entries,
        }
    }
}

/// Host storage of a column: the narrowest signed width that holds
/// every value. Canonical — a column is never wider than its values
/// need — so equal values give equal storage.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Values {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
    I64(Vec<i64>),
}

/// Run `$e` with `$v` bound to the vector of whichever width `$values`
/// holds.
macro_rules! each_width {
    ($values:expr, $v:ident => $e:expr) => {
        match $values {
            Values::I8($v) => $e,
            Values::I16($v) => $e,
            Values::I32($v) => $e,
            Values::I64($v) => $e,
        }
    };
}

impl Values {
    /// Bytes per value of the narrowest signed width that holds `x`.
    fn width_of(x: i64) -> usize {
        if i8::try_from(x).is_ok() {
            1
        } else if i16::try_from(x).is_ok() {
            2
        } else if i32::try_from(x).is_ok() {
            4
        } else {
            8
        }
    }

    fn width(&self) -> usize {
        match self {
            Values::I8(_) => 1,
            Values::I16(_) => 2,
            Values::I32(_) => 4,
            Values::I64(_) => 8,
        }
    }

    /// Push `x` if it fits the current width.
    #[inline]
    fn try_push(&mut self, x: i64) -> bool {
        match self {
            Values::I8(v) => i8::try_from(x).map(|y| v.push(y)).is_ok(),
            Values::I16(v) => i16::try_from(x).map(|y| v.push(y)).is_ok(),
            Values::I32(v) => i32::try_from(x).map(|y| v.push(y)).is_ok(),
            Values::I64(v) => {
                v.push(x);
                true
            }
        }
    }

    /// Re-store every value at the narrowest width that also holds `x`,
    /// keeping the capacity so pushes do not reallocate sooner, then
    /// push `x`. It runs at most three times a column, so it stays out
    /// of the push loop.
    #[cold]
    #[inline(never)]
    fn widen_and_push(&mut self, x: i64) {
        let cap = each_width!(&*self, v => v.capacity());
        let old = std::mem::replace(self, Values::I8(Vec::new()));
        // Every value fits the new width, so the casts are exact.
        *self = match Values::width_of(x) {
            2 => Values::I16(each_width!(old, v => widened(cap, v, |x| x as i16))),
            4 => Values::I32(each_width!(old, v => widened(cap, v, |x| x as i32))),
            _ => Values::I64(each_width!(old, v => widened(cap, v, |x| x))),
        };
        self.try_push(x);
    }
}

/// A value of any host width, read back as the `i64` every reader gets.
#[inline]
fn wide<T: Into<i64>>(x: T) -> i64 {
    x.into()
}

fn widened<S: Into<i64>, T>(cap: usize, v: Vec<S>, cast: impl Fn(i64) -> T) -> Vec<T> {
    let mut out = Vec::with_capacity(cap);
    out.extend(v.into_iter().map(|x| cast(x.into())));
    out
}

/// A column of one logical [`DataType`].
///
/// [`DataType::width`] is the column's width in simulated GPU memory,
/// and it alone sizes layouts, tiles and cycles. The host copy is only
/// the engines' input, so it keeps each column at the narrowest signed
/// width (1, 2, 4 or 8 bytes) that holds all of its values:
/// `l_discount` takes one byte a row here and eight in the simulator.
/// Every reader widens to `i64`. Build with [`ColumnBuilder`] or the
/// typed constructors; both give the same canonical column, so `==` is
/// value equality.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    ty: DataType,
    values: Values,
    /// The shared dictionary of a [`DataType::Dict`] column.
    dict: Option<Arc<Dictionary>>,
}

impl Column {
    fn build(
        ty: DataType,
        dict: Option<Arc<Dictionary>>,
        values: impl Iterator<Item = i64>,
    ) -> Self {
        let mut b = ColumnBuilder::with_capacity(ty, values.size_hint().0);
        b.col.dict = dict;
        values.for_each(|x| b.push(x));
        b.finish()
    }

    /// A [`DataType::I32`] column.
    pub fn i32(values: impl IntoIterator<Item = i32>) -> Self {
        Self::build(DataType::I32, None, values.into_iter().map(i64::from))
    }

    /// A [`DataType::I64`] column.
    pub fn i64(values: impl IntoIterator<Item = i64>) -> Self {
        Self::build(DataType::I64, None, values.into_iter())
    }

    /// A [`DataType::Date`] column of days since the epoch.
    pub fn date(days: impl IntoIterator<Item = i32>) -> Self {
        Self::build(DataType::Date, None, days.into_iter().map(i64::from))
    }

    /// A [`DataType::Decimal`] column of fixed-point cents.
    pub fn decimal(cents: impl IntoIterator<Item = i64>) -> Self {
        Self::build(DataType::Decimal, None, cents.into_iter())
    }

    /// A [`DataType::Dict`] column: codes into `dict`.
    pub fn dict(codes: impl IntoIterator<Item = u32>, dict: Arc<Dictionary>) -> Self {
        Self::build(DataType::Dict, Some(dict), codes.into_iter().map(i64::from))
    }

    pub fn data_type(&self) -> DataType {
        self.ty
    }

    pub fn len(&self) -> usize {
        each_width!(&self.values, v => v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the values take in host memory. [`Table::total_bytes`]
    /// counts the simulated [`DataType::width`] instead.
    ///
    /// [`Table::total_bytes`]: crate::Table::total_bytes
    pub fn host_bytes(&self) -> u64 {
        (self.len() * self.values.width()) as u64
    }

    /// Read any element widened to `i64` — the uniform value the engine's
    /// kernels operate on (GPU kernels likewise widen in registers).
    #[inline]
    pub fn get_i64(&self, row: usize) -> i64 {
        each_width!(&self.values, v => wide(v[row]))
    }

    /// Widen rows `lo..hi` to `i64` in one pass — hoists
    /// [`Column::get_i64`]'s width match out of the element loop, which
    /// matters for the scan kernels' chunk fills.
    pub fn range_i64(&self, lo: usize, hi: usize) -> Vec<i64> {
        each_width!(&self.values, v => v[lo..hi].iter().map(|&x| wide(x)).collect())
    }

    /// Widen arbitrary rows to `i64`, with the same match hoisting.
    pub fn gather_i64(&self, rows: &[usize]) -> Vec<i64> {
        each_width!(&self.values, v => rows.iter().map(|&r| wide(v[r])).collect())
    }

    /// The dictionary, if this is a dict column.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.dict.as_ref()
    }
}

/// Builds a [`Column`] from `i64` pushes. Storage starts one byte wide
/// and widens in place the first time a value does not fit, so the
/// finished column is canonical whatever order the values came in.
#[derive(Debug, Clone)]
pub struct ColumnBuilder {
    col: Column,
}

impl ColumnBuilder {
    /// An empty builder for logical type `ty`, with room for `rows`
    /// one-byte values. A [`DataType::Dict`] column takes its dictionary
    /// from [`ColumnBuilder::dict`] or [`ColumnBuilder::like`] instead.
    pub fn with_capacity(ty: DataType, rows: usize) -> Self {
        ColumnBuilder {
            col: Column {
                ty,
                values: Values::I8(Vec::with_capacity(rows)),
                dict: None,
            },
        }
    }

    /// An empty builder for codes into `dict`.
    pub fn dict(dict: Arc<Dictionary>, rows: usize) -> Self {
        let mut b = Self::with_capacity(DataType::Dict, rows);
        b.col.dict = Some(dict);
        b
    }

    /// An empty builder of `template`'s type and dictionary.
    pub fn like(template: &Column) -> Self {
        let mut b = Self::with_capacity(template.ty, 0);
        b.col.dict = template.dict.clone();
        b
    }

    pub fn data_type(&self) -> DataType {
        self.col.ty
    }

    /// The dictionary codes index, if this builds a dict column.
    pub fn dictionary(&self) -> Option<&Arc<Dictionary>> {
        self.col.dictionary()
    }

    #[inline]
    pub fn push(&mut self, x: i64) {
        if !self.col.values.try_push(x) {
            self.col.values.widen_and_push(x);
        }
    }

    /// The finished column, its storage trimmed to its length.
    pub fn finish(mut self) -> Column {
        each_width!(&mut self.col.values, v => v.shrink_to_fit());
        self.col
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dict_builder_interns_once() {
        let mut b = DictBuilder::new();
        let a = b.intern("ASIA");
        let e = b.intern("EUROPE");
        let a2 = b.intern("ASIA");
        assert_eq!(a, a2);
        assert_ne!(a, e);
        let d = b.finish();
        assert_eq!(d.get(a), "ASIA");
        assert_eq!(d.code_of("EUROPE"), Some(e));
        assert_eq!(d.code_of("MARS"), None);
        assert_eq!(d.len(), 2);
    }

    fn wide(c: &Column) -> Vec<i64> {
        (0..c.len()).map(|r| c.get_i64(r)).collect()
    }

    #[test]
    fn get_i64_widens_each_type() {
        let d = Arc::new(Dictionary::new(vec!["x".into(), "y".into()]));
        assert_eq!(Column::i32([-5]).get_i64(0), -5);
        assert_eq!(Column::i64([1 << 40]).get_i64(0), 1 << 40);
        assert_eq!(Column::date([8035]).get_i64(0), 8035);
        assert_eq!(Column::decimal([1999]).get_i64(0), 1999);
        assert_eq!(Column::dict([1], d).get_i64(0), 1);
    }

    #[test]
    fn host_width_is_narrowest_and_simulated_width_is_logical() {
        let c = Column::decimal([0, 10, 3]);
        assert_eq!(c.values, Values::I8(vec![0, 10, 3]));
        assert_eq!(c.host_bytes(), 3);
        assert_eq!(c.data_type().width(), 8);
        assert_eq!(Column::date([8035, 10589]).host_bytes(), 4);
        assert_eq!(Column::i32([i32::MIN]).host_bytes(), 4);
    }

    /// Each width's edges: the last value that fits and the first that
    /// does not, either sign.
    const EDGES: [(i64, usize); 13] = [
        (0, 1),
        (127, 1),
        (-128, 1),
        (128, 2),
        (-129, 2),
        (32_767, 2),
        (-32_768, 2),
        (32_768, 4),
        (-32_769, 4),
        (i32::MAX as i64, 4),
        (i32::MIN as i64, 4),
        (i32::MAX as i64 + 1, 8),
        (i32::MIN as i64 - 1, 8),
    ];

    #[test]
    fn width_boundaries() {
        for (x, w) in EDGES {
            let c = Column::i64([0, x, 0]);
            assert_eq!(c.values.width(), w, "{x}");
            assert_eq!(wide(&c), [0, x, 0]);
        }
        let empty = Column::i64([]);
        assert_eq!(empty.values, Values::I8(Vec::new()));
        assert_eq!((empty.len(), empty.host_bytes()), (0, 0));
        assert!(empty.is_empty());
        assert_eq!(
            empty,
            ColumnBuilder::with_capacity(DataType::I64, 9).finish()
        );
        assert_ne!(
            empty,
            Column::decimal([]),
            "the logical type is part of a column"
        );
    }

    #[test]
    fn builder_widens_in_place_and_keeps_capacity() {
        let mut b = ColumnBuilder::with_capacity(DataType::I64, 100);
        for (x, w) in EDGES {
            b.push(x);
            assert!(b.col.values.width() >= w);
            assert!(each_width!(&b.col.values, v => v.capacity()) >= 100);
        }
        let c = b.finish();
        assert_eq!(c.values.width(), 8);
        assert_eq!(wide(&c), EDGES.map(|(x, _)| x));
    }

    #[test]
    fn like_copies_type_and_dictionary() {
        let d = Arc::new(Dictionary::new(vec!["x".into()]));
        let t = Column::dict([0], d.clone());
        let mut b = ColumnBuilder::like(&t);
        assert_eq!(b.data_type(), DataType::Dict);
        assert_eq!(b.dictionary(), Some(&d));
        b.push(0);
        assert_eq!(b.finish(), t);
        assert_eq!(
            ColumnBuilder::dict(d, 1)
                .finish()
                .dictionary()
                .map(|d| d.len()),
            Some(1)
        );
    }

    /// The narrowest of 1, 2, 4, 8 bytes whose signed range holds every
    /// value, computed apart from the code under test.
    fn narrowest(vals: &[i64]) -> usize {
        let fits = |w: u32| {
            let half = 1i128 << (8 * w - 1);
            vals.iter().all(|&x| (-half..half).contains(&(x as i128)))
        };
        [1, 2, 4, 8].into_iter().find(|&w| fits(w)).unwrap_or(8) as usize
    }

    const TYPES: [DataType; 5] = [
        DataType::I32,
        DataType::I64,
        DataType::Date,
        DataType::Decimal,
        DataType::Dict,
    ];

    gpl_check::prop! {
        #![cases(128)]
        /// Built by pushes or by its type's constructor, a column reads
        /// back as the wide `Vec<i64>` it came from — by row, by range and
        /// by gather — at the narrowest host width that holds it, and the
        /// two builds are equal. `cap` bounds each case's magnitudes so
        /// every host width occurs for every type wide enough to hold it.
        #[test]
        fn columns_read_back_as_wide_vectors(
            ty in 0usize..5,
            cap in 0u32..64,
            draws in gpl_check::collection::vec(
                (gpl_check::any::<i64>(), gpl_check::any::<u32>()), 0..40),
            picks in gpl_check::collection::vec(gpl_check::any::<usize>(), 0..20),
            ends in (gpl_check::any::<usize>(), gpl_check::any::<usize>()),
        ) {
            let ty = TYPES[ty];
            // Each value keeps `bits` ≤ the type's magnitude bits: signed
            // for the integer types, unsigned 32-bit for dictionary codes.
            let top = if ty.width() == 8 { 63 } else { 31 };
            let vals: Vec<i64> = draws
                .iter()
                .map(|&(x, b)| {
                    let bits = b % (cap.min(top) + 1);
                    if ty == DataType::Dict {
                        ((x as u64) >> (63 - bits)) as i64
                    } else {
                        x >> (63 - bits)
                    }
                })
                .collect();
            let d = Arc::new(Dictionary::default());
            let mut b = match ty {
                DataType::Dict => ColumnBuilder::dict(d.clone(), 0),
                _ => ColumnBuilder::with_capacity(ty, vals.len() / 2),
            };
            vals.iter().for_each(|&x| b.push(x));
            let it = vals.iter().copied();
            let made = match ty {
                DataType::I32 => Column::i32(it.map(|x| x as i32)),
                DataType::I64 => Column::i64(it),
                DataType::Date => Column::date(it.map(|x| x as i32)),
                DataType::Decimal => Column::decimal(it),
                DataType::Dict => Column::dict(it.map(|x| x as u32), d),
            };
            let pushed = b.finish();
            let n = vals.len();
            let (lo, hi) = match n {
                0 => (0, 0),
                _ => {
                    let (a, b) = (ends.0 % (n + 1), ends.1 % (n + 1));
                    (a.min(b), a.max(b))
                }
            };
            let rows: Vec<usize> = picks.iter().map(|&r| r % n.max(1)).take(n).collect();
            for c in [&pushed, &made] {
                gpl_check::prop_assert_eq!(c.data_type(), ty);
                gpl_check::prop_assert_eq!(c.len(), n);
                gpl_check::prop_assert_eq!(&wide(c), &vals);
                gpl_check::prop_assert_eq!(&c.range_i64(lo, hi)[..], &vals[lo..hi]);
                let want: Vec<i64> = rows.iter().map(|&r| vals[r]).collect();
                gpl_check::prop_assert_eq!(c.gather_i64(&rows), want);
                gpl_check::prop_assert_eq!(c.values.width(), narrowest(&vals));
                gpl_check::prop_assert_eq!(c.host_bytes(), (n * narrowest(&vals)) as u64);
            }
            gpl_check::prop_assert_eq!(pushed, made);
        }
    }
}
