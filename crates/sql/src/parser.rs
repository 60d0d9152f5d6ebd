//! Recursive-descent parser for the supported SQL subset.

use crate::ast::*;
use crate::token::{err, tokenize, SqlError, Token};
use gpl_storage::Date;

const KEYWORDS: &[&str] = &[
    "select", "from", "where", "group", "by", "order", "limit", "and", "or", "between", "in",
    "like", "case", "when", "then", "else", "end", "as", "date", "interval", "day", "month",
    "year", "extract", "asc", "desc", "sum", "count", "min", "max",
];

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

/// Parse one SELECT statement.
pub fn parse(sql: &str) -> Result<SelectStmt, SqlError> {
    let mut p = Parser {
        toks: tokenize(sql)?,
        pos: 0,
    };
    let stmt = p.select()?;
    if p.pos != p.toks.len() {
        return err(format!("trailing input at {:?}", p.peek()));
    }
    Ok(stmt)
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if matches!(self.peek(), Some(Token::Ident(s)) if s == kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), SqlError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            err(format!("expected {kw:?}, found {:?}", self.peek()))
        }
    }

    fn expect(&mut self, t: Token) -> Result<(), SqlError> {
        if self.eat(&t) {
            Ok(())
        } else {
            err(format!("expected {t}, found {:?}", self.peek()))
        }
    }

    fn ident(&mut self) -> Result<String, SqlError> {
        match self.next() {
            Some(Token::Ident(s)) if !KEYWORDS.contains(&s.as_str()) => Ok(s),
            other => err(format!("expected identifier, found {other:?}")),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, SqlError> {
        self.expect_kw("select")?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Token::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.table_ref()?];
        while self.eat(&Token::Comma) {
            from.push(self.table_ref()?);
        }
        let predicates = if self.eat_kw("where") {
            self.conjuncts()?
        } else {
            Vec::new()
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let key = if let Some(Token::Number(n)) = self.peek() {
                    let n = n.clone();
                    if n.contains('.') {
                        return err("ORDER BY position must be an integer");
                    }
                    self.pos += 1;
                    OrderKey::Position(
                        n.parse::<usize>()
                            .map_err(|_| SqlError("bad position".into()))?,
                    )
                } else {
                    OrderKey::Expr(self.expr()?)
                };
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push((key, desc));
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Number(n)) => Some(
                    n.parse::<usize>()
                        .map_err(|_| SqlError("bad LIMIT".into()))?,
                ),
                other => return err(format!("expected LIMIT count, found {other:?}")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            predicates,
            group_by,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        let expr = self.expr()?;
        // `expr AS alias` or a bare trailing identifier.
        let has_alias = self.eat_kw("as")
            || matches!(self.peek(), Some(Token::Ident(s)) if !KEYWORDS.contains(&s.as_str()));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(SelectItem { expr, alias })
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        let table = self.ident()?;
        let alias = if matches!(self.peek(), Some(Token::Ident(s)) if !KEYWORDS.contains(&s.as_str()))
        {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(TableRef { table, alias })
    }

    /// WHERE clause: top-level AND chain, flattened into conjuncts.
    fn conjuncts(&mut self) -> Result<Vec<SqlPred>, SqlError> {
        let p = self.pred_and()?;
        Ok(match p {
            SqlPred::And(v) => v,
            other => vec![other],
        })
    }

    fn pred_and(&mut self) -> Result<SqlPred, SqlError> {
        let mut parts = vec![self.pred_or()?];
        while self.eat_kw("and") {
            parts.push(self.pred_or()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("one")
        } else {
            SqlPred::And(parts)
        })
    }

    fn pred_or(&mut self) -> Result<SqlPred, SqlError> {
        let mut p = self.pred_atom()?;
        while self.eat_kw("or") {
            let rhs = self.pred_atom()?;
            p = SqlPred::Or(Box::new(p), Box::new(rhs));
        }
        Ok(p)
    }

    fn pred_atom(&mut self) -> Result<SqlPred, SqlError> {
        // A parenthesis may open a nested predicate or a parenthesized
        // scalar expression; try the predicate first.
        if self.peek() == Some(&Token::LParen) {
            let save = self.pos;
            self.pos += 1;
            if let Ok(p) = self.pred_and() {
                if self.eat(&Token::RParen) {
                    return Ok(p);
                }
            }
            self.pos = save;
        }
        let lhs = self.expr()?;
        if self.eat_kw("between") {
            let lo = self.expr()?;
            self.expect_kw("and")?;
            let hi = self.expr()?;
            return Ok(SqlPred::Between { expr: lhs, lo, hi });
        }
        if self.eat_kw("in") {
            self.expect(Token::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.expr()?);
            }
            self.expect(Token::RParen)?;
            return Ok(SqlPred::InList { expr: lhs, list });
        }
        if self.eat_kw("like") {
            match self.next() {
                Some(Token::Str(s)) => {
                    let Some(prefix) = s.strip_suffix('%') else {
                        return err("only prefix LIKE patterns ('abc%') are supported");
                    };
                    if prefix.contains('%') || prefix.contains('_') {
                        return err("only prefix LIKE patterns ('abc%') are supported");
                    }
                    return Ok(SqlPred::LikePrefix {
                        expr: lhs,
                        prefix: prefix.to_string(),
                    });
                }
                other => return err(format!("expected LIKE pattern, found {other:?}")),
            }
        }
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => return err(format!("expected comparison, found {other:?}")),
        };
        let rhs = self.expr()?;
        Ok(SqlPred::Cmp { op, lhs, rhs })
    }

    fn expr(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.term()?;
        loop {
            let op = if self.eat(&Token::Plus) {
                BinOp::Add
            } else if self.eat(&Token::Minus) {
                BinOp::Sub
            } else {
                break;
            };
            let rhs = self.term()?;
            e = SqlExpr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
        }
        Ok(e)
    }

    fn term(&mut self) -> Result<SqlExpr, SqlError> {
        let mut e = self.factor()?;
        loop {
            let op = if self.eat(&Token::Star) {
                BinOp::Mul
            } else if self.eat(&Token::Slash) {
                BinOp::Div
            } else {
                break;
            };
            let rhs = self.factor()?;
            e = SqlExpr::Binary {
                op,
                lhs: Box::new(e),
                rhs: Box::new(rhs),
            };
        }
        Ok(e)
    }

    /// `DATE 'lit'` with optional `± INTERVAL 'n' unit` chain, folded.
    fn date_literal(&mut self) -> Result<SqlExpr, SqlError> {
        let lit = match self.next() {
            Some(Token::Str(s)) => s,
            other => return err(format!("expected date string, found {other:?}")),
        };
        let date = Date::parse(&lit).ok_or_else(|| SqlError(format!("bad date {lit:?}")))?;
        let mut days = date.to_days();
        loop {
            let neg = if self.peek() == Some(&Token::Plus)
                && self.toks.get(self.pos + 1) == Some(&Token::Ident("interval".into()))
            {
                self.pos += 2;
                false
            } else if self.peek() == Some(&Token::Minus)
                && self.toks.get(self.pos + 1) == Some(&Token::Ident("interval".into()))
            {
                self.pos += 2;
                true
            } else {
                break;
            };
            let n: i32 = match self.next() {
                Some(Token::Str(s)) => s
                    .parse()
                    .map_err(|_| SqlError(format!("bad interval {s:?}")))?,
                Some(Token::Number(s)) => s
                    .parse()
                    .map_err(|_| SqlError(format!("bad interval {s:?}")))?,
                other => return err(format!("expected interval amount, found {other:?}")),
            };
            let n = if neg { -n } else { n };
            days = if self.eat_kw("day") {
                days + n
            } else if self.eat_kw("month") {
                add_months(days, n)
            } else if self.eat_kw("year") {
                add_months(days, 12 * n)
            } else {
                return err("expected DAY, MONTH or YEAR after interval");
            };
        }
        Ok(SqlExpr::DateLit(days))
    }

    fn factor(&mut self) -> Result<SqlExpr, SqlError> {
        match self.peek().cloned() {
            Some(Token::Minus) => {
                // Unary minus: 0 - <factor>.
                self.pos += 1;
                let f = self.factor()?;
                Ok(SqlExpr::Binary {
                    op: BinOp::Sub,
                    lhs: Box::new(SqlExpr::Number("0".into())),
                    rhs: Box::new(f),
                })
            }
            Some(Token::Number(n)) => {
                self.pos += 1;
                Ok(SqlExpr::Number(n))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(SqlExpr::Str(s))
            }
            Some(Token::LParen) => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(Token::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(id)) => match id.as_str() {
                "date" => {
                    self.pos += 1;
                    self.date_literal()
                }
                "case" => {
                    self.pos += 1;
                    self.expect_kw("when")?;
                    let cond = self.pred_and()?;
                    self.expect_kw("then")?;
                    let then = self.expr()?;
                    self.expect_kw("else")?;
                    let otherwise = self.expr()?;
                    self.expect_kw("end")?;
                    Ok(SqlExpr::Case {
                        cond: Box::new(cond),
                        then: Box::new(then),
                        otherwise: Box::new(otherwise),
                    })
                }
                "extract" => {
                    self.pos += 1;
                    self.expect(Token::LParen)?;
                    self.expect_kw("year")?;
                    self.expect_kw("from")?;
                    let e = self.expr()?;
                    self.expect(Token::RParen)?;
                    Ok(SqlExpr::ExtractYear(Box::new(e)))
                }
                "sum" | "count" | "min" | "max" => {
                    self.pos += 1;
                    let func = match id.as_str() {
                        "sum" => AggFunc::Sum,
                        "count" => AggFunc::Count,
                        "min" => AggFunc::Min,
                        _ => AggFunc::Max,
                    };
                    self.expect(Token::LParen)?;
                    let arg = if func == AggFunc::Count && self.eat(&Token::Star) {
                        None
                    } else {
                        Some(Box::new(self.expr()?))
                    };
                    self.expect(Token::RParen)?;
                    Ok(SqlExpr::Agg { func, arg })
                }
                _ if KEYWORDS.contains(&id.as_str()) => {
                    err(format!("unexpected keyword {id:?} in expression"))
                }
                _ => {
                    self.pos += 1;
                    if self.eat(&Token::Dot) {
                        let column = self.ident()?;
                        Ok(SqlExpr::Column(ColumnRef {
                            qualifier: Some(id),
                            column,
                        }))
                    } else {
                        Ok(SqlExpr::Column(ColumnRef {
                            qualifier: None,
                            column: id,
                        }))
                    }
                }
            },
            other => err(format!("unexpected token {other:?} in expression")),
        }
    }
}

/// Day number `days` moved by `months` calendar months, the day clamped
/// to the target month's last day as SQL does: `1995-01-31 + 1 month` is
/// 1995-02-28, and `1996-02-29 + 1 year` is 1997-02-28.
fn add_months(days: i32, months: i32) -> i32 {
    let d = Date::from_days(days);
    let total = d.year * 12 + (d.month as i32 - 1) + months;
    let (year, month) = (total.div_euclid(12), (total.rem_euclid(12) + 1) as u32);
    Date {
        year,
        month,
        day: d.day.min(Date::days_in_month(year, month)),
    }
    .to_days()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpl_storage::days;

    #[test]
    fn parses_listing1() {
        let q = parse(
            "SELECT SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge \
             FROM lineitem WHERE l_shipdate <= DATE '1998-11-01'",
        )
        .unwrap();
        assert_eq!(q.items.len(), 1);
        assert_eq!(q.items[0].alias.as_deref(), Some("sum_charge"));
        assert_eq!(
            q.from,
            vec![TableRef {
                table: "lineitem".into(),
                alias: None
            }]
        );
        assert_eq!(q.predicates.len(), 1);
        assert!(q.group_by.is_empty() && q.order_by.is_empty() && q.limit.is_none());
    }

    #[test]
    fn parses_aliases_group_order_limit() {
        let q = parse(
            "select n1.n_name supp, sum(x) from nation n1, nation n2 \
             where n1.n_nationkey = n2.n_nationkey group by n1.n_name \
             order by 2 desc, supp limit 10",
        )
        .unwrap();
        assert_eq!(q.from[0].binding(), "n1");
        assert_eq!(q.from[1].binding(), "n2");
        assert_eq!(q.order_by[0], (OrderKey::Position(2), true));
        assert_eq!(q.limit, Some(10));
    }

    #[test]
    fn folds_date_interval_arithmetic() {
        let q = parse(
            "select a from t where d < date '1995-01-01' + interval '1' month \
             and e >= date '1998-12-01' - interval '90' day",
        )
        .unwrap();
        let SqlPred::Cmp {
            rhs: SqlExpr::DateLit(d1),
            ..
        } = &q.predicates[0]
        else {
            panic!("want date literal")
        };
        assert_eq!(*d1, days("1995-02-01"));
        let SqlPred::Cmp {
            rhs: SqlExpr::DateLit(d2),
            ..
        } = &q.predicates[1]
        else {
            panic!("want date literal")
        };
        assert_eq!(*d2, days("1998-12-01") - 90);
    }

    #[test]
    fn month_and_year_intervals_clamp_the_day() {
        let folded = |text: &str| {
            let q = parse(&format!("select a from t where d < {text}")).unwrap();
            let SqlPred::Cmp {
                rhs: SqlExpr::DateLit(d),
                ..
            } = &q.predicates[0]
            else {
                panic!("want date literal")
            };
            *d
        };
        let cases = [
            ("date '1995-01-31' + interval '1' month", "1995-02-28"),
            ("date '1996-01-31' + interval '1' month", "1996-02-29"),
            ("date '1995-03-31' - interval '1' month", "1995-02-28"),
            ("date '1995-08-31' + interval '1' month", "1995-09-30"),
            ("date '1995-01-31' + interval '13' month", "1996-02-29"),
            ("date '1996-02-29' + interval '1' year", "1997-02-28"),
            ("date '1996-02-29' + interval '4' year", "2000-02-29"),
            ("date '1996-02-29' - interval '96' year", "1900-02-28"),
            ("date '1995-09-01' + interval '1' month", "1995-10-01"),
        ];
        for (text, want) in cases {
            assert_eq!(folded(text), days(want), "{text}");
        }
    }

    #[test]
    fn rejects_impossible_days() {
        let text = |lit: &str| format!("select a from t where d < date '{lit}'");
        for lit in ["1995-02-29", "1995-02-31", "1995-04-31"] {
            let e = parse(&text(lit)).unwrap_err();
            assert!(e.0.contains("bad date"), "{lit}: {e:?}");
        }
        assert!(parse(&text("1996-02-29")).is_ok());
    }

    #[test]
    fn parses_between_in_like_case() {
        let q = parse(
            "select case when a = 1 then b else 0 end from t \
             where x between 1 and 3 and y in (1, 2) and s like 'PROMO%' \
             and (p = 1 or q = 2)",
        )
        .unwrap();
        assert_eq!(q.predicates.len(), 4);
        assert!(matches!(q.predicates[0], SqlPred::Between { .. }));
        assert!(matches!(q.predicates[1], SqlPred::InList { .. }));
        assert!(matches!(q.predicates[2], SqlPred::LikePrefix { .. }));
        assert!(matches!(q.predicates[3], SqlPred::Or(..)));
        assert!(matches!(q.items[0].expr, SqlExpr::Case { .. }));
    }

    #[test]
    fn unary_minus() {
        let q = parse("select a from t where x < -5").unwrap();
        let SqlPred::Cmp { rhs, .. } = &q.predicates[0] else {
            panic!()
        };
        assert!(matches!(rhs, SqlExpr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("select").is_err());
        assert!(parse("select a from t where").is_err());
        // "extra" binds as a table alias; a dangling ORDER is an error.
        assert!(parse("select a from t order").is_err());
        assert!(parse("select a from t where s like '%infix%'").is_err());
    }

    #[test]
    fn extract_and_count_star() {
        let q = parse("select extract(year from o_orderdate), count(*) from orders group by 1");
        // GROUP BY by position is not supported — positions are only for
        // ORDER BY; expect a parse of the number as an expression instead.
        assert!(q.is_ok());
        let q = q.unwrap();
        assert!(matches!(q.items[0].expr, SqlExpr::ExtractYear(_)));
        assert!(matches!(
            q.items[1].expr,
            SqlExpr::Agg {
                func: AggFunc::Count,
                arg: None
            }
        ));
    }
}
