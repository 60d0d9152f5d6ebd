//! Scalar types of the storage layer.
//!
//! The engine is columnar and fixed-width, like the GPU query processors
//! GPL builds on (OmniDB \[40\], GDB \[13\]): dates are day numbers, money is
//! 64-bit fixed-point with two decimals, and strings are dictionary
//! encoded. Appendix B notes Ocelot cannot handle types wider than four
//! bytes — `gpl-ocelot` uses [`DataType::width`] to enforce that.

use std::fmt;

/// Physical column types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// Days since 1970-01-01, stored as `i32`.
    Date,
    /// Fixed-point decimal with two fractional digits, stored as `i64`
    /// (i.e. cents).
    Decimal,
    /// Dictionary-encoded string, stored as a `u32` code.
    Dict,
}

impl DataType {
    /// Bytes per element in simulated GPU memory.
    pub fn width(self) -> u64 {
        match self {
            DataType::I32 | DataType::Date | DataType::Dict => 4,
            DataType::I64 | DataType::Decimal => 8,
        }
    }
}

/// A decimal value with two fractional digits (cents).
pub const DECIMAL_SCALE: i64 = 100;

/// Build a decimal from whole units and hundredths: `dec(19, 99)` is 19.99.
pub fn dec(units: i64, cents: i64) -> i64 {
    units * DECIMAL_SCALE + cents
}

/// Fixed-point multiply: `(a × b) / 100`, truncating toward zero, with
/// intermediate widening so large revenue sums cannot overflow. Every
/// engine (KBE, GPL, Ocelot, CPU reference) uses this same helper, so
/// query results compare exactly.
#[inline]
pub fn dec_mul(a: i64, b: i64) -> i64 {
    // A 128-bit divide is a library call (`__divti3`); nearly every
    // product fits 64 bits, where the divide is one instruction and
    // truncates toward zero just the same.
    match a.checked_mul(b) {
        Some(p) => p / DECIMAL_SCALE,
        None => ((a as i128 * b as i128) / DECIMAL_SCALE as i128) as i64,
    }
}

/// Render a decimal for display.
pub fn decimal_to_string(v: i64) -> String {
    let sign = if v < 0 { "-" } else { "" };
    let a = v.abs();
    format!("{sign}{}.{:02}", a / DECIMAL_SCALE, a % DECIMAL_SCALE)
}

/// A calendar date, convertible to/from the day numbers stored in `Date`
/// columns. Implements Howard Hinnant's civil-date algorithms, which are
/// exact over the proleptic Gregorian calendar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Date {
    pub year: i32,
    pub month: u32,
    pub day: u32,
}

impl Date {
    pub fn new(year: i32, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        let last = Date::days_in_month(year, month);
        assert!((1..=last).contains(&day), "day {day} out of range");
        Date { year, month, day }
    }

    /// Parse `YYYY-MM-DD`; a day past the month's last (`1995-02-29`,
    /// `1995-04-31`) is rejected, not carried into the next month.
    pub fn parse(s: &str) -> Option<Self> {
        let mut it = s.split('-');
        let year: i32 = it.next()?.parse().ok()?;
        let month: u32 = it.next()?.parse().ok()?;
        let day: u32 = it.next()?.parse().ok()?;
        if it.next().is_some()
            || !(1..=12).contains(&month)
            || !(1..=Date::days_in_month(year, month)).contains(&day)
        {
            return None;
        }
        Some(Date { year, month, day })
    }

    /// The number of days in `month` (1–12) of `year`, in the proleptic
    /// Gregorian calendar.
    pub fn days_in_month(year: i32, month: u32) -> u32 {
        match month {
            2 if year % 4 == 0 && (year % 100 != 0 || year % 400 == 0) => 29,
            2 => 28,
            4 | 6 | 9 | 11 => 30,
            _ => 31,
        }
    }

    /// Days since 1970-01-01.
    pub fn to_days(self) -> i32 {
        let y = self.year as i64 - i64::from(self.month <= 2);
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = y - era * 400; // [0, 399]
        let mp = (self.month as i64 + 9) % 12; // [0, 11], March = 0
        let doy = (153 * mp + 2) / 5 + self.day as i64 - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        (era * 146_097 + doe - 719_468) as i32
    }

    /// Inverse of [`Date::to_days`].
    pub fn from_days(days: i32) -> Self {
        let z = days as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = z - era * 146_097; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
        let y = yoe + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let day = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        Date {
            year: (y + i64::from(month <= 2)) as i32,
            month,
            day,
        }
    }

    /// The year extracted from a day number (`extract(year from ..)`).
    pub fn year_of_days(days: i32) -> i32 {
        Date::from_days(days).year
    }
}

impl fmt::Display for Date {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// Shorthand: day number of `YYYY-MM-DD` (panics on malformed input;
/// intended for literals in query definitions and tests).
pub fn days(s: &str) -> i32 {
    Date::parse(s)
        .unwrap_or_else(|| panic!("bad date literal {s:?}"))
        .to_days()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_day_zero() {
        assert_eq!(Date::new(1970, 1, 1).to_days(), 0);
        assert_eq!(Date::from_days(0), Date::new(1970, 1, 1));
    }

    #[test]
    fn known_dates_roundtrip() {
        for (s, d) in [
            ("1992-01-01", 8035),
            ("1995-09-01", 9374),
            ("1998-12-31", 10591),
            ("1970-01-02", 1),
            ("1969-12-31", -1),
            ("2000-02-29", 11016),
        ] {
            assert_eq!(days(s), d, "{s}");
            assert_eq!(Date::from_days(d).to_string(), s);
        }
    }

    #[test]
    fn roundtrip_dense_range() {
        // Every day across several leap/century boundaries.
        for d in days("1899-12-25")..days("1904-01-05") {
            assert_eq!(Date::from_days(d).to_days(), d);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Date::parse("not-a-date").is_none());
        assert!(Date::parse("1995-13-01").is_none());
        assert!(Date::parse("1995-01-32").is_none());
        assert!(Date::parse("1995-01").is_none());
        assert!(Date::parse("1995-01-01-01").is_none());
        for s in ["1995-02-29", "1995-02-31", "1995-04-31", "1900-02-29"] {
            assert!(Date::parse(s).is_none(), "{s}");
        }
        for s in ["1996-02-29", "2000-02-29", "1995-01-31", "1995-04-30"] {
            assert_eq!(Date::parse(s).map(|d| d.to_string()).as_deref(), Some(s));
        }
    }

    /// Every month length agrees with the day numbers: the month's last
    /// day is one before the next month's first.
    #[test]
    fn days_in_month_matches_the_day_numbers() {
        for year in [1900, 1995, 1996, 2000] {
            for month in 1..=12 {
                let next = if month == 12 {
                    Date::new(year + 1, 1, 1)
                } else {
                    Date::new(year, month + 1, 1)
                };
                let last = Date::days_in_month(year, month);
                assert_eq!(Date::new(year, month, last).to_days() + 1, next.to_days());
            }
        }
    }

    #[test]
    fn dec_mul_truncates_and_widens() {
        // 19.99 * 0.50 = 9.99 (truncating 9.995).
        assert_eq!(dec_mul(1999, 50), 999);
        assert_eq!(dec_mul(100, 100), 100);
        assert_eq!(dec_mul(-1999, 50), -999);
        // dec_mul by 1.00 is identity.
        assert_eq!(dec_mul(i64::MAX / 200, 100), i64::MAX / 200);
        // Near-i64 operands must widen internally instead of overflowing.
        assert_eq!(dec_mul(i64::MAX / 200, 200), i64::MAX / 200 * 2);
    }

    /// The always-wide multiply `dec_mul` took before its 64-bit path.
    fn dec_mul_wide(a: i64, b: i64) -> i64 {
        ((a as i128 * b as i128) / DECIMAL_SCALE as i128) as i64
    }

    #[test]
    fn dec_mul_matches_wide_at_edges() {
        let edges = [
            i64::MIN,
            i64::MIN + 1,
            i64::MIN / 100,
            -3_037_000_500, // ≈ -√(2^63): products straddle the overflow
            -101,
            -100,
            -99,
            -1,
            0,
            1,
            99,
            100,
            101,
            3_037_000_500,
            i64::MAX / 100,
            i64::MAX - 1,
            i64::MAX,
        ];
        for a in edges {
            for b in edges {
                assert_eq!(dec_mul(a, b), dec_mul_wide(a, b), "{a} × {b}");
            }
        }
    }

    gpl_check::prop! {
        /// Both paths of `dec_mul` equal the always-wide multiply: over
        /// all of `i64` (nearly always the 128-bit path) and over
        /// operands near √(2^63), where products fall either side of it.
        #[test]
        fn dec_mul_matches_wide(
            a in gpl_check::any::<i64>(),
            b in gpl_check::any::<i64>(),
            c in -4_000_000_000i64..4_000_000_000,
            d in -4_000_000_000i64..4_000_000_000,
        ) {
            gpl_check::prop_assert_eq!(dec_mul(a, b), dec_mul_wide(a, b));
            gpl_check::prop_assert_eq!(dec_mul(a, d), dec_mul_wide(a, d));
            gpl_check::prop_assert_eq!(dec_mul(c, d), dec_mul_wide(c, d));
        }
    }

    #[test]
    fn decimal_helpers() {
        assert_eq!(dec(19, 99), 1999);
        assert_eq!(decimal_to_string(1999), "19.99");
        assert_eq!(decimal_to_string(-105), "-1.05");
        assert_eq!(decimal_to_string(0), "0.00");
    }

    #[test]
    fn widths() {
        assert_eq!(DataType::I32.width(), 4);
        assert_eq!(DataType::Date.width(), 4);
        assert_eq!(DataType::Dict.width(), 4);
        assert_eq!(DataType::I64.width(), 8);
        assert_eq!(DataType::Decimal.width(), 8);
    }

    #[test]
    fn year_extraction() {
        assert_eq!(Date::year_of_days(days("1995-06-17")), 1995);
        assert_eq!(Date::year_of_days(days("1996-01-01")), 1996);
    }
}
