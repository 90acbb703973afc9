//! Parser for the SQL subset used by the paper's experiment workload
//! (Tables 2–3 in Appendix A).
//!
//! Supported shapes:
//!
//! ```sql
//! SELECT * FROM t WHERE <predicate>;
//! SELECT * FROM t1 INNER JOIN t2 ON t1.a = t2.b;
//! SELECT * FROM [SELECT * FROM t WHERE ...] WHERE <predicate>;   -- nested step
//! SELECT mean(x), max(y), count(z), count FROM t [WHERE ...] GROUP BY a, b;
//! SELECT * FROM t1 UNION SELECT * FROM t2 [UNION SELECT * FROM t3 ...];
//! ```
//!
//! `AVG` is accepted as an alias for `mean`. Keywords are case-insensitive;
//! string literals use single or double quotes. [`ParsedQuery::to_step`]
//! resolves table names against a [`Catalog`] and materializes the
//! [`ExploratoryStep`] — for a nested `FROM [subquery]`, the inner query is
//! evaluated first and its *output* becomes the step's input dataframe,
//! matching how the paper treats chained exploratory steps.

use std::collections::HashMap;

use fedex_frame::{DataFrame, Value};

use crate::error::QueryError;
use crate::expr::{BinOp, Expr};
use crate::ops::{AggFunc, Aggregate, Operation};
use crate::step::ExploratoryStep;
use crate::Result;

/// A named collection of dataframes that queries can reference.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, DataFrame>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, name: impl Into<String>, df: DataFrame) {
        self.tables.insert(name.into(), df);
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<&DataFrame> {
        self.tables
            .get(name)
            .ok_or_else(|| QueryError::UnknownTable(name.to_string()))
    }
}

/// A `FROM` source: a named table or a bracketed subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Reference to a catalog table.
    Table(String),
    /// Nested query whose output is the input dataframe of this step.
    Subquery(Box<ParsedQuery>),
}

impl Source {
    /// The display name used for join column prefixes.
    fn name(&self) -> String {
        match self {
            Source::Table(t) => t.clone(),
            Source::Subquery(_) => "sub".to_string(),
        }
    }
}

/// The `SELECT` list: `*` or a list of aggregates.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectList {
    /// `SELECT *`
    Star,
    /// Aggregate list (requires `GROUP BY`).
    Aggregates(Vec<Aggregate>),
}

/// Parsed form of one query.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedQuery {
    /// Select list.
    pub select: SelectList,
    /// Primary source.
    pub from: Source,
    /// Optional `INNER JOIN <source> ON l = r`.
    pub join: Option<JoinClause>,
    /// Optional `WHERE` predicate.
    pub where_clause: Option<Expr>,
    /// `GROUP BY` key columns (empty when absent).
    pub group_by: Vec<String>,
    /// Additional `UNION` arms (empty when absent). Each arm is the
    /// source of a `SELECT * FROM <source>` branch; the step's inputs are
    /// the primary source followed by every arm, concatenated by
    /// [`Operation::Union`].
    pub union_arms: Vec<Source>,
}

/// An `INNER JOIN ... ON a.x = b.y` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// Right-hand source.
    pub right: Source,
    /// Join key on the left source (unqualified).
    pub left_on: String,
    /// Join key on the right source (unqualified).
    pub right_on: String,
}

impl ParsedQuery {
    /// Resolve sources against `catalog` and run the query as an
    /// [`ExploratoryStep`]. Subqueries are evaluated eagerly; the returned
    /// step describes the *outermost* operation only (its inputs are the
    /// subquery outputs), which is the unit FEDEX explains.
    pub fn to_step(&self, catalog: &Catalog) -> Result<ExploratoryStep> {
        let left_df = resolve_source(&self.from, catalog)?;
        if !self.union_arms.is_empty() {
            if !matches!(self.select, SelectList::Star)
                || self.join.is_some()
                || self.where_clause.is_some()
                || !self.group_by.is_empty()
            {
                return Err(QueryError::InvalidArgument(
                    "UNION queries must be SELECT * without JOIN, WHERE, or GROUP BY \
                     (push predicates into bracketed subqueries)"
                        .into(),
                ));
            }
            let mut inputs = vec![left_df];
            for arm in &self.union_arms {
                inputs.push(resolve_source(arm, catalog)?);
            }
            return ExploratoryStep::run(inputs, Operation::Union);
        }
        if let Some(join) = &self.join {
            if !matches!(self.select, SelectList::Star) || !self.group_by.is_empty() {
                return Err(QueryError::InvalidArgument(
                    "JOIN queries must be SELECT * without GROUP BY".into(),
                ));
            }
            let right_df = resolve_source(&join.right, catalog)?;
            let op = Operation::join(
                &join.left_on,
                &join.right_on,
                &self.from.name(),
                &join.right.name(),
            );
            return ExploratoryStep::run(vec![left_df, right_df], op);
        }
        if !self.group_by.is_empty() {
            let aggs = match &self.select {
                SelectList::Aggregates(a) => a.clone(),
                SelectList::Star => {
                    return Err(QueryError::InvalidArgument(
                        "GROUP BY requires an aggregate select list".into(),
                    ))
                }
            };
            let op = Operation::GroupBy {
                pre_filter: self.where_clause.clone(),
                keys: self.group_by.clone(),
                aggs,
            };
            return ExploratoryStep::run(vec![left_df], op);
        }
        match &self.where_clause {
            Some(pred) => ExploratoryStep::run(vec![left_df], Operation::filter(pred.clone())),
            None => Err(QueryError::InvalidArgument(
                "query must have a WHERE, GROUP BY, or JOIN to form an exploratory step".into(),
            )),
        }
    }
}

fn resolve_source(src: &Source, catalog: &Catalog) -> Result<DataFrame> {
    match src {
        Source::Table(name) => Ok(catalog.get(name)?.clone()),
        Source::Subquery(q) => Ok(q.to_step(catalog)?.output),
    }
}

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Star,
    Comma,
    Semicolon,
    LParen,
    RParen,
    LBracket,
    RBracket,
    Dot,
    Op(BinOp),
    Not,
    Eof,
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src: src.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn tokenize(mut self) -> Result<Vec<(usize, Tok)>> {
        let mut out = Vec::new();
        loop {
            while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
                self.pos += 1;
            }
            let start = self.pos;
            if self.pos >= self.src.len() {
                out.push((start, Tok::Eof));
                return Ok(out);
            }
            let c = self.src[self.pos];
            let tok = match c {
                b'*' => {
                    self.pos += 1;
                    Tok::Star
                }
                b',' => {
                    self.pos += 1;
                    Tok::Comma
                }
                b';' => {
                    self.pos += 1;
                    Tok::Semicolon
                }
                b'(' => {
                    self.pos += 1;
                    Tok::LParen
                }
                b')' => {
                    self.pos += 1;
                    Tok::RParen
                }
                b'[' => {
                    self.pos += 1;
                    Tok::LBracket
                }
                b']' => {
                    self.pos += 1;
                    Tok::RBracket
                }
                b'.' => {
                    self.pos += 1;
                    Tok::Dot
                }
                b'=' => {
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                    }
                    Tok::Op(BinOp::Eq)
                }
                b'!' => {
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Op(BinOp::Ne)
                    } else {
                        return Err(self.error("expected '=' after '!'"));
                    }
                }
                b'<' => {
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Op(BinOp::Le)
                    } else {
                        Tok::Op(BinOp::Lt)
                    }
                }
                b'>' => {
                    self.pos += 1;
                    if self.src.get(self.pos) == Some(&b'=') {
                        self.pos += 1;
                        Tok::Op(BinOp::Ge)
                    } else {
                        Tok::Op(BinOp::Gt)
                    }
                }
                b'\'' | b'"' => {
                    let quote = c;
                    self.pos += 1;
                    let s = self.read_until_quote(quote)?;
                    Tok::Str(s)
                }
                b'-' | b'0'..=b'9' => self.read_number()?,
                c if c.is_ascii_alphabetic() || c == b'_' => {
                    let ident = self.read_ident();
                    match ident.to_ascii_uppercase().as_str() {
                        "NOT" => Tok::Not,
                        "AND" => Tok::Op(BinOp::And),
                        "OR" => Tok::Op(BinOp::Or),
                        _ => Tok::Ident(ident),
                    }
                }
                other => {
                    return Err(self.error(format!("unexpected character {:?}", other as char)))
                }
            };
            out.push((start, tok));
        }
    }

    fn read_until_quote(&mut self, quote: u8) -> Result<String> {
        let start = self.pos;
        while self.pos < self.src.len() && self.src[self.pos] != quote {
            self.pos += 1;
        }
        if self.pos >= self.src.len() {
            return Err(self.error("unterminated string literal"));
        }
        let s = std::str::from_utf8(&self.src[start..self.pos])
            .map_err(|_| self.error("invalid utf-8 in string literal"))?
            .to_string();
        self.pos += 1;
        Ok(s)
    }

    fn read_number(&mut self) -> Result<Tok> {
        let start = self.pos;
        if self.src[self.pos] == b'-' {
            self.pos += 1;
        }
        let mut is_float = false;
        while self.pos < self.src.len() {
            match self.src[self.pos] {
                b'0'..=b'9' => self.pos += 1,
                b'.' if !is_float && self.src.get(self.pos + 1).is_some_and(u8::is_ascii_digit) => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.src[start..self.pos]).unwrap();
        if text == "-" {
            return Err(self.error("dangling '-'"));
        }
        if is_float {
            text.parse::<f64>()
                .map(Tok::Float)
                .map_err(|e| self.error(e.to_string()))
        } else {
            text.parse::<i64>()
                .map(Tok::Int)
                .map_err(|e| self.error(e.to_string()))
        }
    }

    fn read_ident(&mut self) -> String {
        let start = self.pos;
        while self.pos < self.src.len()
            && (self.src[self.pos].is_ascii_alphanumeric() || self.src[self.pos] == b'_')
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.src[start..self.pos])
            .unwrap()
            .to_string()
    }
}

// --------------------------------------------------------------- parser --

/// Deepest nesting of `NOT`s, parentheses and subqueries a query may use.
/// The parser recurses once per level, so without a cap a long enough run
/// of `NOT`s would overflow the stack and abort the whole process.
const MAX_DEPTH: usize = 128;

struct Parser {
    toks: Vec<(usize, Tok)>,
    pos: usize,
    /// Nesting levels currently open.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].1
    }

    fn next(&mut self) -> Tok {
        let t = self.toks[self.pos].1.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> QueryError {
        QueryError::Parse {
            offset: self.toks[self.pos].0,
            message: message.into(),
        }
    }

    /// Run `f` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested<T>(&mut self, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        match self.next() {
            Tok::Ident(s) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.error(format!("expected {kw}, found {other:?}"))),
        }
    }

    fn keyword_is(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn parse_query(&mut self) -> Result<ParsedQuery> {
        self.expect_keyword("SELECT")?;
        let select = self.parse_select_list()?;
        self.expect_keyword("FROM")?;
        let from = self.parse_source()?;

        let mut join = None;
        if self.keyword_is("INNER") {
            self.next();
            self.expect_keyword("JOIN")?;
            let right = self.parse_source()?;
            self.expect_keyword("ON")?;
            let (l, r) = self.parse_join_condition(&from, &right)?;
            join = Some(JoinClause {
                right,
                left_on: l,
                right_on: r,
            });
        }

        let mut where_clause = None;
        if self.keyword_is("WHERE") {
            self.next();
            where_clause = Some(self.parse_expr()?);
        }

        let mut group_by = Vec::new();
        if self.keyword_is("GROUP") {
            self.next();
            self.expect_keyword("BY")?;
            loop {
                match self.next() {
                    Tok::Ident(name) => group_by.push(name),
                    other => {
                        return Err(self.error(format!("expected column name, found {other:?}")))
                    }
                }
                if matches!(self.peek(), Tok::Comma) {
                    self.next();
                } else {
                    break;
                }
            }
        }
        let mut union_arms = Vec::new();
        while self.keyword_is("UNION") {
            self.next();
            if self.keyword_is("ALL") {
                // The paper's union keeps duplicates (§3.1); `UNION` and
                // `UNION ALL` are therefore the same operation here.
                self.next();
            }
            self.expect_keyword("SELECT")?;
            match self.next() {
                Tok::Star => {}
                other => {
                    return Err(self.error(format!("UNION arm must be SELECT *, found {other:?}")))
                }
            }
            self.expect_keyword("FROM")?;
            union_arms.push(self.parse_source()?);
        }
        if matches!(self.peek(), Tok::Semicolon) {
            self.next();
        }
        Ok(ParsedQuery {
            select,
            from,
            join,
            where_clause,
            group_by,
            union_arms,
        })
    }

    fn parse_select_list(&mut self) -> Result<SelectList> {
        if matches!(self.peek(), Tok::Star) {
            self.next();
            return Ok(SelectList::Star);
        }
        let mut aggs = Vec::new();
        loop {
            let func_name = match self.next() {
                Tok::Ident(s) => s,
                other => return Err(self.error(format!("expected aggregate, found {other:?}"))),
            };
            let func = match func_name.to_ascii_lowercase().as_str() {
                "count" => AggFunc::Count,
                "sum" => AggFunc::Sum,
                "mean" | "avg" => AggFunc::Mean,
                "min" => AggFunc::Min,
                "max" => AggFunc::Max,
                other => return Err(self.error(format!("unknown aggregate function {other:?}"))),
            };
            let column = if matches!(self.peek(), Tok::LParen) {
                self.next();
                let col = match self.next() {
                    Tok::Ident(s) => Some(s),
                    Tok::Star => None,
                    other => return Err(self.error(format!("expected column, found {other:?}"))),
                };
                match self.next() {
                    Tok::RParen => {}
                    other => return Err(self.error(format!("expected ')', found {other:?}"))),
                }
                col
            } else if func == AggFunc::Count {
                None // bare `count`
            } else {
                return Err(self.error(format!("{} requires a column argument", func.name())));
            };
            if func != AggFunc::Count && column.is_none() {
                return Err(self.error(format!("{}(*) is not supported", func.name())));
            }
            aggs.push(Aggregate { func, column });
            if matches!(self.peek(), Tok::Comma) {
                self.next();
            } else {
                break;
            }
        }
        Ok(SelectList::Aggregates(aggs))
    }

    fn parse_source(&mut self) -> Result<Source> {
        match self.next() {
            Tok::Ident(name) => Ok(Source::Table(name)),
            Tok::LBracket => {
                let q = self.nested(Self::parse_query)?;
                match self.next() {
                    Tok::RBracket => Ok(Source::Subquery(Box::new(q))),
                    other => Err(self.error(format!("expected ']', found {other:?}"))),
                }
            }
            Tok::LParen => {
                let q = self.nested(Self::parse_query)?;
                match self.next() {
                    Tok::RParen => Ok(Source::Subquery(Box::new(q))),
                    other => Err(self.error(format!("expected ')', found {other:?}"))),
                }
            }
            other => Err(self.error(format!("expected table or subquery, found {other:?}"))),
        }
    }

    /// Parse `a.x = b.y` (or unqualified `x = y`), mapping qualifiers to
    /// the left/right sources.
    fn parse_join_condition(&mut self, left: &Source, right: &Source) -> Result<(String, String)> {
        let (q1, c1) = self.parse_qualified_column()?;
        match self.next() {
            Tok::Op(BinOp::Eq) => {}
            other => return Err(self.error(format!("expected '=', found {other:?}"))),
        }
        let (q2, c2) = self.parse_qualified_column()?;
        let left_name = left.name();
        let right_name = right.name();
        match (q1, q2) {
            (Some(a), Some(b)) if a == left_name && b == right_name => Ok((c1, c2)),
            (Some(a), Some(b)) if a == right_name && b == left_name => Ok((c2, c1)),
            (None, None) => Ok((c1, c2)),
            (a, b) => Err(self.error(format!(
                "join qualifiers {a:?}/{b:?} do not match sources {left_name}/{right_name}"
            ))),
        }
    }

    fn parse_qualified_column(&mut self) -> Result<(Option<String>, String)> {
        let first = match self.next() {
            Tok::Ident(s) => s,
            other => return Err(self.error(format!("expected column, found {other:?}"))),
        };
        if matches!(self.peek(), Tok::Dot) {
            self.next();
            match self.next() {
                Tok::Ident(col) => Ok((Some(first), col)),
                other => Err(self.error(format!("expected column after '.', found {other:?}"))),
            }
        } else {
            Ok((None, first))
        }
    }

    // expr := and_expr (OR and_expr)*
    fn parse_expr(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while matches!(self.peek(), Tok::Op(BinOp::Or)) {
            self.next();
            let right = self.parse_and()?;
            left = left.or(right);
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while matches!(self.peek(), Tok::Op(BinOp::And)) {
            self.next();
            let right = self.parse_not()?;
            left = left.and(right);
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Tok::Not) {
            self.next();
            return Ok(self.nested(Self::parse_not)?.not());
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_primary()?;
        match self.peek() {
            Tok::Op(op)
                if matches!(
                    op,
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
                ) =>
            {
                let op = *op;
                self.next();
                let right = self.parse_primary()?;
                Ok(Expr::Binary {
                    op,
                    left: Box::new(left),
                    right: Box::new(right),
                })
            }
            _ => Ok(left),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.next() {
            Tok::Ident(name) => Ok(Expr::col(name)),
            Tok::Int(v) => Ok(Expr::lit(v)),
            Tok::Float(v) => Ok(Expr::lit(v)),
            Tok::Str(s) => Ok(Expr::Lit(Value::str(s))),
            Tok::LParen => {
                let e = self.nested(Self::parse_expr)?;
                match self.next() {
                    Tok::RParen => Ok(e),
                    other => Err(self.error(format!("expected ')', found {other:?}"))),
                }
            }
            other => Err(self.error(format!("expected expression, found {other:?}"))),
        }
    }
}

/// Parse one query string.
pub fn parse_query(sql: &str) -> Result<ParsedQuery> {
    let toks = Lexer::new(sql).tokenize()?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let q = p.parse_query()?;
    match p.peek() {
        Tok::Eof => Ok(q),
        other => Err(p.error(format!("unexpected trailing input: {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedex_frame::Column;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(
            "spotify",
            DataFrame::new(vec![
                Column::from_ints("popularity", vec![70, 20, 80, 60]),
                Column::from_ints("year", vec![2010, 1980, 2015, 1995]),
                Column::from_floats("loudness", vec![-7.0, -12.0, -6.5, -10.0]),
            ])
            .unwrap(),
        );
        c.register(
            "products",
            DataFrame::new(vec![
                Column::from_ints("item", vec![1, 2]),
                Column::from_strs("name", vec!["cola", "juice"]),
            ])
            .unwrap(),
        );
        c.register(
            "sales",
            DataFrame::new(vec![
                Column::from_ints("item", vec![1, 1, 2]),
                Column::from_floats("total", vec![5.0, 3.0, 9.0]),
            ])
            .unwrap(),
        );
        c
    }

    #[test]
    fn parse_filter_query() {
        let q = parse_query("SELECT * FROM spotify WHERE popularity > 65;").unwrap();
        assert_eq!(q.select, SelectList::Star);
        assert!(q.where_clause.is_some());
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 2);
    }

    #[test]
    fn parse_string_predicates() {
        let q = parse_query("SELECT * FROM products WHERE name != 'cola';").unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 1);
        let q = parse_query("SELECT * FROM products WHERE name == \"juice\"").unwrap();
        assert_eq!(q.to_step(&catalog()).unwrap().output.n_rows(), 1);
    }

    #[test]
    fn parse_group_by() {
        let q = parse_query(
            "SELECT mean(popularity), max(popularity), min(popularity) FROM spotify GROUP BY year;",
        )
        .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 4);
        assert_eq!(
            step.output.column_names(),
            vec![
                "year",
                "mean_popularity",
                "max_popularity",
                "min_popularity"
            ]
        );
    }

    #[test]
    fn parse_avg_alias_and_where_group_by() {
        let q = parse_query("select AVG(loudness) from spotify where year >= 1990 group by year")
            .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);
        assert!(step.output.has_column("mean_loudness"));
        // Input is the *unfiltered* dataframe: the whole step re-runs under
        // intervention.
        assert_eq!(step.inputs[0].n_rows(), 4);
    }

    #[test]
    fn parse_bare_count_group_by() {
        let q = parse_query("SELECT count FROM spotify GROUP BY year;").unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert!(step.output.has_column("count"));
    }

    #[test]
    fn parse_join() {
        let q = parse_query("SELECT * FROM products INNER JOIN sales ON products.item=sales.item;")
            .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);
        assert!(step.output.has_column("products_name"));
        assert!(step.output.has_column("sales_total"));
    }

    #[test]
    fn parse_reversed_join_qualifiers() {
        let q =
            parse_query("SELECT * FROM products INNER JOIN sales ON sales.item = products.item;")
                .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);
    }

    #[test]
    fn parse_nested_subquery() {
        let q = parse_query(
            "SELECT * FROM [SELECT * FROM spotify WHERE year > 1990] WHERE popularity > 65;",
        )
        .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        // inner: 3 rows (2010, 2015, 1995); outer: popularity > 65 → 2 rows
        assert_eq!(step.inputs[0].n_rows(), 3);
        assert_eq!(step.output.n_rows(), 2);
    }

    #[test]
    fn parse_and_or_not_predicates() {
        let q = parse_query(
            "SELECT * FROM spotify WHERE popularity > 50 AND year >= 2010 OR loudness < -11;",
        )
        .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);

        let q = parse_query("SELECT * FROM spotify WHERE NOT popularity > 50").unwrap();
        assert_eq!(q.to_step(&catalog()).unwrap().output.n_rows(), 1);
    }

    #[test]
    fn parse_negative_number() {
        let q = parse_query("SELECT * FROM spotify WHERE loudness > -12;").unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_query("SELECT").is_err());
        assert!(parse_query("SELECT * FROM").is_err());
        assert!(parse_query("SELECT * FROM t WHERE x >").is_err());
        assert!(parse_query("FROB * FROM t").is_err());
        assert!(parse_query("SELECT frob(x) FROM t GROUP BY x").is_err());
        assert!(parse_query("SELECT * FROM t WHERE x = 'unterminated").is_err());
        // Deep nesting answers a parse error instead of overflowing the
        // stack: NOT chains, parentheses and subqueries.
        let deep = [
            format!("SELECT * FROM t WHERE {}x > 1", "NOT ".repeat(1_000_000)),
            format!("SELECT * FROM t WHERE {}x > 1", "(".repeat(1_000_000)),
            "SELECT * FROM (".repeat(1_000_000),
        ];
        for sql in &deep {
            let err = parse_query(sql).unwrap_err().to_string();
            assert!(
                err.starts_with("parse error") && err.contains("nesting"),
                "{err}"
            );
        }
        let at_cap = format!("SELECT * FROM t WHERE {}x > 1", "NOT ".repeat(MAX_DEPTH));
        assert!(parse_query(&at_cap).is_ok());
    }

    #[test]
    fn unknown_table_rejected() {
        let q = parse_query("SELECT * FROM nope WHERE x > 1").unwrap();
        assert!(matches!(
            q.to_step(&catalog()),
            Err(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn plain_select_star_is_not_a_step() {
        let q = parse_query("SELECT * FROM spotify").unwrap();
        assert!(q.to_step(&catalog()).is_err());
    }

    #[test]
    fn multi_key_group_by() {
        let q = parse_query("SELECT count FROM spotify GROUP BY year, popularity").unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_cols(), 3);
    }

    #[test]
    fn parse_union_query() {
        let q = parse_query("SELECT * FROM spotify UNION SELECT * FROM spotify;").unwrap();
        assert_eq!(q.union_arms.len(), 1);
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.inputs.len(), 2);
        assert_eq!(step.output.n_rows(), 8);
        assert_eq!(step.op.kind_name(), "union");

        // UNION ALL is the same operation; three-way unions chain.
        let q = parse_query(
            "SELECT * FROM spotify UNION ALL SELECT * FROM spotify UNION SELECT * FROM spotify",
        )
        .unwrap();
        assert_eq!(q.union_arms.len(), 2);
        assert_eq!(q.to_step(&catalog()).unwrap().output.n_rows(), 12);
    }

    #[test]
    fn union_arms_may_be_subqueries() {
        let q = parse_query(
            "SELECT * FROM [SELECT * FROM spotify WHERE year > 2000] \
             UNION SELECT * FROM [SELECT * FROM spotify WHERE year < 1990]",
        )
        .unwrap();
        let step = q.to_step(&catalog()).unwrap();
        assert_eq!(step.output.n_rows(), 3);
    }

    #[test]
    fn union_rejects_predicates_and_aggregates() {
        for sql in [
            "SELECT * FROM spotify WHERE year > 2000 UNION SELECT * FROM spotify",
            "SELECT count FROM spotify GROUP BY year UNION SELECT * FROM spotify",
            "SELECT * FROM products INNER JOIN sales ON products.item = sales.item \
             UNION SELECT * FROM spotify",
        ] {
            let q = parse_query(sql).unwrap();
            assert!(q.to_step(&catalog()).is_err(), "{sql}");
        }
        // Aggregate arms do not even parse.
        assert!(parse_query("SELECT * FROM spotify UNION SELECT count FROM spotify").is_err());
    }

    #[test]
    fn union_schema_mismatch_is_an_error() {
        let q = parse_query("SELECT * FROM spotify UNION SELECT * FROM sales").unwrap();
        assert!(q.to_step(&catalog()).is_err());
    }
}
