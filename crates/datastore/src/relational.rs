//! In-memory relational engine executing the SQL subset.
//!
//! Design follows the classic iterator-free, materialize-per-stage layout:
//! scan (index-accelerated, see below) → join (hash join on column-equality
//! predicates, nested loop otherwise) → filter → aggregate → having →
//! project → distinct → order → limit. Statistics (`row_count`) feed the
//! data planner's cost model.
//!
//! Rows are read in place. Between stages a row is a `Cow<[Datum]>` that
//! borrows the table's storage; a join's combined row is the only owned
//! intermediate row. The one expression evaluator returns `Cow<Datum>`,
//! borrowing column values and literals, so a query copies only the rows
//! and cells it returns (plus its sort, group and aggregate values).
//!
//! Index probe: the base scan reads only the candidate rows of a hash index
//! when a top-level `AND` conjunct of the WHERE clause is `col = literal` or
//! a non-negated `col IN (literal, ...)` on an indexed column of the base
//! table. Among several such conjuncts it takes the one with the fewest
//! candidates. Candidate row ids come back ascending and deduplicated, so
//! the output order equals the scan order. The whole WHERE clause is still
//! evaluated on every candidate, so a probe only has to return a superset
//! of the matching rows. `NOT IN`, and IN lists that hold non-literals, do
//! not probe.
//!
//! Caveat: a probe never reads a row outside its candidate set, so it skips
//! a type or column error (e.g. `WHERE city = 'x' AND title > 1`) that a
//! full scan would have raised on one of those rows.

use std::borrow::Cow;
use std::collections::hash_map::Entry;
use std::collections::HashMap;

use parking_lot::RwLock;
use serde_json::Value;

use crate::error::DataError;
use crate::schema::{Column, ColumnType, Schema};
use crate::sql::ast::*;
use crate::sql::parse;
use crate::value::{Datum, DatumKey, Row};
use crate::Result;

/// A row between query stages: borrowed from a table, or owned (a join's
/// combined row).
type RowRef<'a> = Cow<'a, [Datum]>;

/// A table: schema + rows + hash indices.
#[derive(Debug, Default)]
pub struct Table {
    /// Table name (lowercased).
    pub name: String,
    /// Schema.
    pub schema: Schema,
    /// Row storage.
    pub rows: Vec<Row>,
    /// Hash indices: column index → (datum key → row indices).
    indices: HashMap<usize, HashMap<DatumKey, Vec<usize>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        Table {
            name: name.into(),
            schema,
            rows: Vec::new(),
            indices: HashMap::new(),
        }
    }

    /// Appends a row after schema validation, maintaining indices.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        self.schema.check_row(&row)?;
        let idx = self.rows.len();
        for (col, index) in self.indices.iter_mut() {
            index
                .entry(DatumKey::from(&row[*col]))
                .or_default()
                .push(idx);
        }
        self.rows.push(row);
        Ok(())
    }

    /// Builds a hash index on a column.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let col = self
            .schema
            .index_of(column)
            .ok_or_else(|| DataError::UnknownColumn(column.to_string()))?;
        let mut index: HashMap<DatumKey, Vec<usize>> = HashMap::new();
        for (i, row) in self.rows.iter().enumerate() {
            index.entry(DatumKey::from(&row[col])).or_default().push(i);
        }
        self.indices.insert(col, index);
        Ok(())
    }

    /// True if the column has a hash index.
    pub fn has_index(&self, column: &str) -> bool {
        self.schema
            .index_of(column)
            .is_some_and(|c| self.indices.contains_key(&c))
    }

    /// The index posting lists (ascending row ids) of the distinct keys of
    /// `literals` on `column`; `None` when the column is not indexed.
    fn postings(&self, column: &str, literals: &[&Datum]) -> Option<Vec<&[usize]>> {
        let index = self.indices.get(&self.schema.index_of(column)?)?;
        let mut keys: Vec<DatumKey> = Vec::with_capacity(literals.len());
        for literal in literals {
            let key = DatumKey::from(*literal);
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        Some(
            keys.iter()
                .filter_map(|k| index.get(k).map(Vec::as_slice))
                .collect(),
        )
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }
}

/// A query result: named columns and rows.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl ResultSet {
    /// Converts to the JSON "table" shape (array of objects) used on streams,
    /// moving each cell into its object.
    pub fn into_json(self) -> Value {
        let columns = self.columns;
        Value::Array(
            self.rows
                .into_iter()
                .map(|row| {
                    Value::Object(
                        columns
                            .iter()
                            .cloned()
                            .zip(row.into_iter().map(Datum::into_json))
                            .collect(),
                    )
                })
                .collect(),
        )
    }

    /// Renders an ASCII table (for examples and figure regeneration).
    pub fn render_text(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(ToString::to_string).collect())
            .collect();
        for row in &cells {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &cells {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }

    /// Number of result rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if no rows were returned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Scope: the bindings visible while evaluating expressions against a
/// combined (joined) row.
struct Scope<'a> {
    /// `(binding name, schema, offset into the combined row)`.
    bindings: Vec<(&'a str, &'a Schema, usize)>,
    width: usize,
}

impl<'a> Scope<'a> {
    fn empty() -> Self {
        Scope {
            bindings: Vec::new(),
            width: 0,
        }
    }

    fn push(&mut self, binding: &'a str, schema: &'a Schema) {
        let offset = self.width;
        self.width += schema.arity();
        self.bindings.push((binding, schema, offset));
    }

    /// Resolves a column reference to an absolute index in the combined row.
    fn resolve(&self, table: Option<&str>, name: &str) -> Result<usize> {
        match table {
            Some(t) => {
                let (_, schema, offset) = self
                    .bindings
                    .iter()
                    .find(|(b, _, _)| *b == t)
                    .ok_or_else(|| DataError::UnknownTable(t.to_string()))?;
                let col = schema
                    .index_of(name)
                    .ok_or_else(|| DataError::UnknownColumn(format!("{t}.{name}")))?;
                Ok(offset + col)
            }
            None => {
                let mut found = None;
                for (b, schema, offset) in &self.bindings {
                    if let Some(col) = schema.index_of(name) {
                        if found.is_some() {
                            return Err(DataError::UnknownColumn(format!(
                                "ambiguous column: {name} (qualify with a table, e.g. {b}.{name})"
                            )));
                        }
                        found = Some(offset + col);
                    }
                }
                found.ok_or_else(|| DataError::UnknownColumn(name.to_string()))
            }
        }
    }

    /// All output column names (for `SELECT *`).
    fn all_names(&self) -> Vec<String> {
        let qualify = self.bindings.len() > 1;
        let mut names = Vec::with_capacity(self.width);
        for (b, schema, _) in &self.bindings {
            for c in &schema.columns {
                if qualify {
                    names.push(format!("{b}.{}", c.name));
                } else {
                    names.push(c.name.clone());
                }
            }
        }
        names
    }
}

/// A thread-safe collection of tables plus the SQL executor.
#[derive(Default)]
pub struct RelationalDb {
    tables: RwLock<HashMap<String, Table>>,
}

impl RelationalDb {
    /// Creates an empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from a schema (programmatic DDL).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let name = name.to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(DataError::Schema(format!("table already exists: {name}")));
        }
        tables.insert(name.clone(), Table::new(name, schema));
        Ok(())
    }

    /// Inserts a row programmatically.
    pub fn insert_row(&self, table: &str, row: Row) -> Result<()> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DataError::UnknownTable(table.to_string()))?;
        t.insert(row)
    }

    /// Builds a hash index on `table.column`.
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&table.to_ascii_lowercase())
            .ok_or_else(|| DataError::UnknownTable(table.to_string()))?;
        t.create_index(column)
    }

    /// Row count of a table (0 for unknown tables).
    pub fn row_count(&self, table: &str) -> usize {
        self.tables
            .read()
            .get(&table.to_ascii_lowercase())
            .map(Table::row_count)
            .unwrap_or(0)
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Schema of a table.
    pub fn schema_of(&self, table: &str) -> Result<Schema> {
        self.tables
            .read()
            .get(&table.to_ascii_lowercase())
            .map(|t| t.schema.clone())
            .ok_or_else(|| DataError::UnknownTable(table.to_string()))
    }

    /// Parses and executes one SQL statement. DDL/DML return empty results.
    pub fn execute(&self, sql: &str) -> Result<ResultSet> {
        match parse(sql)? {
            Stmt::CreateTable { name, columns } => {
                let schema = Schema::new(
                    columns
                        .into_iter()
                        .map(|(n, t)| Column::new(n, t))
                        .collect(),
                )?;
                self.create_table(&name, schema)?;
                Ok(ResultSet::default())
            }
            Stmt::Insert(insert) => {
                self.run_insert(insert)?;
                Ok(ResultSet::default())
            }
            Stmt::Select(select) => self.run_select(&select),
        }
    }

    fn run_insert(&self, insert: InsertStmt) -> Result<()> {
        let scope = Scope::empty();
        let mut tables = self.tables.write();
        let t = tables
            .get_mut(&insert.table)
            .ok_or_else(|| DataError::UnknownTable(insert.table.clone()))?;
        // Map provided columns to schema positions.
        let positions: Vec<usize> = match &insert.columns {
            Some(cols) => cols
                .iter()
                .map(|c| {
                    t.schema
                        .index_of(c)
                        .ok_or_else(|| DataError::UnknownColumn(c.clone()))
                })
                .collect::<Result<_>>()?,
            None => (0..t.schema.arity()).collect(),
        };
        for value_row in insert.rows {
            if value_row.len() != positions.len() {
                return Err(DataError::Schema(format!(
                    "INSERT arity mismatch: expected {} values, got {}",
                    positions.len(),
                    value_row.len()
                )));
            }
            let mut row: Row = vec![Datum::Null; t.schema.arity()];
            for (pos, expr) in positions.iter().zip(value_row) {
                row[*pos] = eval(&expr, &[], &scope)?.into_owned();
            }
            // Coerce int literals into float columns.
            for (i, c) in t.schema.columns.iter().enumerate() {
                if c.ctype == ColumnType::Float {
                    if let Datum::Int(v) = row[i] {
                        row[i] = Datum::Float(v as f64);
                    }
                }
            }
            t.insert(row)?;
        }
        Ok(())
    }

    fn run_select(&self, select: &SelectStmt) -> Result<ResultSet> {
        let tables = self.tables.read();

        // Table-less SELECT: evaluate items against a single empty row
        // (dropped again if a WHERE clause rejects it, e.g. `SELECT 1
        // WHERE 1 = 2`).
        let Some(from) = &select.from else {
            let scope = Scope::empty();
            let (columns, exprs) = projection(select, &scope)?;
            if let Some(w) = &select.where_clause {
                if !truthy(&*eval(w, &[], &scope)?) {
                    return Ok(ResultSet {
                        columns,
                        rows: Vec::new(),
                    });
                }
            }
            let row: Row = exprs
                .iter()
                .map(|e| eval(e, &[], &scope).map(Cow::into_owned))
                .collect::<Result<_>>()?;
            return Ok(ResultSet {
                columns,
                rows: vec![row],
            });
        };

        // FROM: base scan (index-accelerated when possible).
        let base = tables
            .get(&from.table)
            .ok_or_else(|| DataError::UnknownTable(from.table.clone()))?;
        let mut scope = Scope::empty();
        scope.push(from.binding(), &base.schema);

        // Unqualified conjuncts may only drive an index probe when there are
        // no joins: with joins, an unqualified name could be ambiguous, and
        // the probe must not pre-empt the ambiguity error.
        let allow_unqualified = select.joins.is_empty();
        let mut rows = scan_base(
            base,
            from.binding(),
            select.where_clause.as_ref(),
            allow_unqualified,
        );

        // JOINs.
        for join in &select.joins {
            let right = tables
                .get(&join.table.table)
                .ok_or_else(|| DataError::UnknownTable(join.table.table.clone()))?;
            let left_scope_width = scope.width;
            scope.push(join.table.binding(), &right.schema);
            rows = execute_join(rows, left_scope_width, right, join, &scope)?;
        }

        // WHERE.
        if let Some(w) = &select.where_clause {
            let mut kept = Vec::new();
            for row in rows {
                if truthy(&*eval(w, &row, &scope)?) {
                    kept.push(row);
                }
            }
            rows = kept;
        }

        // Aggregate or plain projection.
        let is_aggregate = !select.group_by.is_empty()
            || select.items.iter().any(|i| match i {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            })
            || select.having.as_ref().is_some_and(Expr::contains_aggregate);

        let (columns, projected) = if is_aggregate {
            aggregate_path(select, rows, &scope)?
        } else {
            // Plain queries sort on the raw (pre-projection) rows so ORDER BY
            // may reference any column in scope, projected or not.
            let rows = sort_plain(select, rows, &scope)?;
            plain_path(select, &rows, &scope)?
        };

        let mut result = ResultSet {
            columns,
            rows: projected,
        };

        // DISTINCT (stable: keeps the first occurrence in sorted order).
        if select.distinct {
            let mut seen = std::collections::HashSet::new();
            result.rows.retain(|row| {
                let key: Vec<DatumKey> = row.iter().map(DatumKey::from).collect();
                seen.insert(key)
            });
        }

        // Aggregate queries sort on the projected output (aliases resolve to
        // output columns).
        if is_aggregate && !select.order_by.is_empty() {
            sort_result(&mut result, select)?;
        }

        // LIMIT.
        if let Some(limit) = select.limit {
            result.rows.truncate(limit as usize);
        }
        Ok(result)
    }
}

/// Computes output columns and expressions for non-wildcard handling.
fn projection(select: &SelectStmt, scope: &Scope) -> Result<(Vec<String>, Vec<Expr>)> {
    let mut columns = Vec::new();
    let mut exprs = Vec::new();
    for item in &select.items {
        match item {
            SelectItem::Wildcard => {
                for (i, name) in scope.all_names().into_iter().enumerate() {
                    columns.push(name);
                    // Wildcard columns address the combined row directly;
                    // encode as an absolute-index pseudo column.
                    exprs.push(Expr::Column {
                        table: Some("#abs".into()),
                        name: i.to_string(),
                    });
                }
            }
            SelectItem::Expr { expr, alias } => {
                columns.push(alias.clone().unwrap_or_else(|| name_of(expr)));
                exprs.push(expr.clone());
            }
        }
    }
    Ok((columns, exprs))
}

/// Derives a display name for an unaliased expression.
fn name_of(expr: &Expr) -> String {
    match expr {
        Expr::Column { table, name } => match table {
            Some(t) => format!("{t}.{name}"),
            None => name.clone(),
        },
        Expr::FnCall { name, args, star } => {
            if *star {
                format!("{}(*)", name.to_ascii_lowercase())
            } else {
                format!(
                    "{}({})",
                    name.to_ascii_lowercase(),
                    args.iter().map(name_of).collect::<Vec<_>>().join(", ")
                )
            }
        }
        Expr::Literal(d) => d.to_string(),
        _ => "expr".to_string(),
    }
}

/// Base-table scan: borrows every row, or only the candidates of the index
/// probe with the fewest candidates (see the module docs).
fn scan_base<'a>(
    table: &'a Table,
    binding: &str,
    where_clause: Option<&Expr>,
    allow_unqualified: bool,
) -> Vec<RowRef<'a>> {
    let mut conjuncts = Vec::new();
    if let Some(w) = where_clause {
        probe_conjuncts(w, binding, allow_unqualified, &mut conjuncts);
    }
    let best = conjuncts
        .iter()
        .filter_map(|(column, literals)| table.postings(column, literals))
        .min_by_key(|postings| postings.iter().map(|p| p.len()).sum::<usize>());
    let borrow = |i: usize| Cow::Borrowed(table.rows[i].as_slice());
    match best {
        // Distinct keys have disjoint posting lists: sorting their
        // concatenation gives ascending, duplicate-free row ids.
        Some(postings) => {
            let mut ids = postings.concat();
            if postings.len() > 1 {
                ids.sort_unstable();
            }
            ids.into_iter().map(borrow).collect()
        }
        None => (0..table.rows.len()).map(borrow).collect(),
    }
}

/// Collects the top-level AND-ed conjuncts an index probe can answer —
/// `col = literal` (either way round) and non-negated `col IN (literal,
/// ...)` on a column of `binding` (or unqualified, when allowed) — as
/// `(column name, literals)`.
fn probe_conjuncts<'e>(
    expr: &'e Expr,
    binding: &str,
    allow_unqualified: bool,
    out: &mut Vec<(&'e str, Vec<&'e Datum>)>,
) {
    let column = |e: &'e Expr| match e {
        Expr::Column { table, name } => match table.as_deref() {
            Some(t) if t == binding => Some(name.as_str()),
            None if allow_unqualified => Some(name.as_str()),
            _ => None,
        },
        _ => None,
    };
    match expr {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            probe_conjuncts(left, binding, allow_unqualified, out);
            probe_conjuncts(right, binding, allow_unqualified, out);
        }
        Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } => match (left.as_ref(), right.as_ref()) {
            (c, Expr::Literal(d)) | (Expr::Literal(d), c) => {
                if let Some(name) = column(c) {
                    out.push((name, vec![d]));
                }
            }
            _ => {}
        },
        Expr::InList {
            expr,
            list,
            negated: false,
        } => {
            let literals: Option<Vec<&Datum>> = list
                .iter()
                .map(|item| match item {
                    Expr::Literal(d) => Some(d),
                    _ => None,
                })
                .collect();
            if let (Some(name), Some(literals)) = (column(expr), literals) {
                out.push((name, literals));
            }
        }
        _ => {}
    }
}

/// Executes one join step: hash join on `left_col = right_col` predicates,
/// nested loop otherwise.
fn execute_join<'a>(
    left_rows: Vec<RowRef<'a>>,
    left_width: usize,
    right: &'a Table,
    join: &Join,
    scope: &Scope,
) -> Result<Vec<RowRef<'a>>> {
    // Try to recognize an equi-join predicate.
    if let Expr::Binary {
        left: a,
        op: BinOp::Eq,
        right: b,
    } = &join.on
    {
        if let (
            Expr::Column {
                table: ta,
                name: na,
            },
            Expr::Column {
                table: tb,
                name: nb,
            },
        ) = (a.as_ref(), b.as_ref())
        {
            let ra = scope.resolve(ta.as_deref(), na)?;
            let rb = scope.resolve(tb.as_deref(), nb)?;
            let (left_idx, right_idx) = if ra < left_width && rb >= left_width {
                (ra, rb - left_width)
            } else if rb < left_width && ra >= left_width {
                (rb, ra - left_width)
            } else {
                return nested_loop_join(left_rows, right, join, scope);
            };
            // Hash join: build on the right side.
            let mut built: HashMap<DatumKey, Vec<&Row>> = HashMap::new();
            for row in &right.rows {
                built
                    .entry(DatumKey::from(&row[right_idx]))
                    .or_default()
                    .push(row);
            }
            let mut out = Vec::new();
            for lrow in &left_rows {
                if lrow[left_idx].is_null() {
                    continue; // NULL never joins
                }
                if let Some(matches) = built.get(&DatumKey::from(&lrow[left_idx])) {
                    for rrow in matches {
                        out.push(Cow::Owned(combine(lrow, rrow)));
                    }
                }
            }
            return Ok(out);
        }
    }
    nested_loop_join(left_rows, right, join, scope)
}

fn nested_loop_join<'a>(
    left_rows: Vec<RowRef<'a>>,
    right: &Table,
    join: &Join,
    scope: &Scope,
) -> Result<Vec<RowRef<'a>>> {
    let mut out = Vec::new();
    for lrow in &left_rows {
        for rrow in &right.rows {
            let combined = combine(lrow, rrow);
            if truthy(&*eval(&join.on, &combined, scope)?) {
                out.push(Cow::Owned(combined));
            }
        }
    }
    Ok(out)
}

/// A join's combined row: the left row's cells, then the right row's.
fn combine(left: &[Datum], right: &[Datum]) -> Row {
    let mut combined = Vec::with_capacity(left.len() + right.len());
    combined.extend_from_slice(left);
    combined.extend_from_slice(right);
    combined
}

/// Sorts raw rows for a non-aggregate query. ORDER BY keys may reference any
/// in-scope column or a projection alias (resolved by substituting the
/// aliased expression).
fn sort_plain<'a>(
    select: &SelectStmt,
    rows: Vec<RowRef<'a>>,
    scope: &Scope,
) -> Result<Vec<RowRef<'a>>> {
    if select.order_by.is_empty() {
        return Ok(rows);
    }
    // Resolve alias references up front.
    let keys: Vec<&Expr> = select
        .order_by
        .iter()
        .map(|ok| match &ok.expr {
            Expr::Column { table: None, name } => select
                .items
                .iter()
                .find_map(|item| match item {
                    SelectItem::Expr {
                        expr,
                        alias: Some(a),
                    } if a == name => Some(expr),
                    _ => None,
                })
                .unwrap_or(&ok.expr),
            other => other,
        })
        .collect();
    let mut values = Vec::with_capacity(rows.len() * keys.len());
    for row in &rows {
        for key in &keys {
            values.push(eval(key, row, scope)?);
        }
    }
    let order = sorted_order(&values, select);
    Ok(permute(rows, &order))
}

/// Stable sort order of rows by their ORDER BY values, compared with
/// `Datum::sql_cmp`: row `i`'s values are `values[i * k..(i + 1) * k]` for
/// `k` order keys.
fn sorted_order(values: &[Cow<'_, Datum>], select: &SelectStmt) -> Vec<usize> {
    let k = select.order_by.len();
    let mut order: Vec<usize> = (0..values.len() / k).collect();
    order.sort_by(|&a, &b| {
        let (ka, kb) = (&values[a * k..(a + 1) * k], &values[b * k..(b + 1) * k]);
        for (i, key) in select.order_by.iter().enumerate() {
            let ord = ka[i].sql_cmp(&kb[i]);
            let ord = if key.asc { ord } else { ord.reverse() };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    order
}

/// Reorders `rows` so that output position `j` holds `rows[order[j]]`.
fn permute<T>(rows: Vec<T>, order: &[usize]) -> Vec<T> {
    let mut slots: Vec<Option<T>> = rows.into_iter().map(Some).collect();
    order
        .iter()
        .map(|&i| slots[i].take().expect("a permutation names each row once"))
        .collect()
}

/// Projects each row: the only place a plain query copies cells.
fn plain_path(
    select: &SelectStmt,
    rows: &[RowRef<'_>],
    scope: &Scope,
) -> Result<(Vec<String>, Vec<Row>)> {
    let (columns, exprs) = projection(select, scope)?;
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let projected: Row = exprs
            .iter()
            .map(|e| eval(e, row, scope).map(Cow::into_owned))
            .collect::<Result<_>>()?;
        out.push(projected);
    }
    Ok((columns, out))
}

fn aggregate_path(
    select: &SelectStmt,
    rows: Vec<RowRef<'_>>,
    scope: &Scope,
) -> Result<(Vec<String>, Vec<Row>)> {
    // With no GROUP BY, aggregates run over all rows as one group (even if
    // empty, per SQL semantics for COUNT). Otherwise groups come in order
    // of each group's first row.
    let groups: Vec<Vec<RowRef<'_>>> = if select.group_by.is_empty() {
        vec![rows]
    } else {
        let mut groups: Vec<Vec<RowRef<'_>>> = Vec::new();
        let mut index: HashMap<Vec<DatumKey>, usize> = HashMap::new();
        for row in rows {
            let key: Vec<DatumKey> = select
                .group_by
                .iter()
                .map(|e| eval(e, &row, scope).map(|d| DatumKey::from(d.as_ref())))
                .collect::<Result<_>>()?;
            match index.entry(key) {
                Entry::Occupied(e) => groups[*e.get()].push(row),
                Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![row]);
                }
            }
        }
        groups
    };

    let (columns, exprs) = projection(select, scope)?;
    let mut out = Vec::with_capacity(groups.len());
    for group_rows in &groups {
        if let Some(h) = &select.having {
            if !truthy(&eval_agg(h, group_rows, scope)?) {
                continue;
            }
        }
        let projected: Row = exprs
            .iter()
            .map(|e| eval_agg(e, group_rows, scope))
            .collect::<Result<_>>()?;
        out.push(projected);
    }
    Ok((columns, out))
}

/// Sorts an aggregate query's projected rows. Each order key names an
/// output column (by alias or name) or is a literal.
fn sort_result(result: &mut ResultSet, select: &SelectStmt) -> Result<()> {
    enum Key<'e> {
        Output(usize),
        Literal(&'e Datum),
    }
    if result.rows.is_empty() {
        return Ok(());
    }
    let mut keys = Vec::with_capacity(select.order_by.len());
    for ok in &select.order_by {
        let output = match &ok.expr {
            Expr::Column { table: None, name } => result.columns.iter().position(|c| c == name),
            other => {
                let n = name_of(other);
                result.columns.iter().position(|c| *c == n)
            }
        };
        keys.push(match (output, &ok.expr) {
            (Some(i), _) => Key::Output(i),
            (None, Expr::Literal(d)) => Key::Literal(d),
            (None, other) => {
                // The original rows are gone after projection.
                return Err(DataError::Eval(format!(
                    "ORDER BY expression must reference an output column: {}",
                    name_of(other)
                )));
            }
        });
    }
    let mut values = Vec::with_capacity(result.rows.len() * keys.len());
    for row in &result.rows {
        for key in &keys {
            values.push(Cow::Borrowed(match key {
                Key::Output(i) => &row[*i],
                Key::Literal(d) => *d,
            }));
        }
    }
    let order = sorted_order(&values, select);
    result.rows = permute(std::mem::take(&mut result.rows), &order);
    Ok(())
}

/// SQL truthiness: only TRUE passes filters.
fn truthy(d: &Datum) -> bool {
    matches!(d, Datum::Bool(true))
}

/// Evaluates an expression against a combined row, borrowing column values
/// and literals; only computed values are owned.
fn eval<'a>(expr: &'a Expr, row: &'a [Datum], scope: &Scope) -> Result<Cow<'a, Datum>> {
    Ok(match expr {
        Expr::Literal(d) => Cow::Borrowed(d),
        Expr::Column { table, name } => {
            // `#abs` pseudo-qualifier: absolute index into the combined row
            // (used internally for wildcard projection).
            let i = if table.as_deref() == Some("#abs") {
                name.parse()
                    .map_err(|_| DataError::Eval("bad absolute column".into()))?
            } else {
                scope.resolve(table.as_deref(), name)?
            };
            row.get(i).map_or(Cow::Owned(Datum::Null), Cow::Borrowed)
        }
        Expr::Unary { op, expr } => Cow::Owned(eval_unary(*op, &*eval(expr, row, scope)?)?),
        Expr::Binary { left, op, right } => {
            let l = eval(left, row, scope)?;
            // Short-circuiting Kleene logic for AND/OR.
            Cow::Owned(if matches!(op, BinOp::And | BinOp::Or) {
                eval_logic(*op, &l, || eval(right, row, scope))?
            } else {
                eval_binop(*op, &l, &*eval(right, row, scope)?)?
            })
        }
        Expr::FnCall { name, args, .. } => {
            if AGGREGATES.contains(&name.as_str()) {
                return Err(DataError::Eval(format!(
                    "aggregate {name} used outside an aggregate query"
                )));
            }
            let vals: Vec<Cow<Datum>> = args
                .iter()
                .map(|a| eval(a, row, scope))
                .collect::<Result<_>>()?;
            Cow::Owned(eval_scalar_fn(name, &vals)?)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval(expr, row, scope)?;
            Cow::Owned(eval_in_list(
                &v,
                list.iter().map(|item| eval(item, row, scope)),
                *negated,
            )?)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval(expr, row, scope)?;
            let p = eval(pattern, row, scope)?;
            Cow::Owned(eval_like(&v, &p, *negated)?)
        }
        Expr::IsNull { expr, negated } => {
            Cow::Owned(Datum::Bool(eval(expr, row, scope)?.is_null() != *negated))
        }
    })
}

fn eval_unary(op: UnOp, v: &Datum) -> Result<Datum> {
    match op {
        UnOp::Not => match v {
            Datum::Null => Ok(Datum::Null),
            Datum::Bool(b) => Ok(Datum::Bool(!b)),
            other => Err(DataError::TypeError(format!("NOT applied to {other}"))),
        },
        UnOp::Neg => match v {
            Datum::Null => Ok(Datum::Null),
            Datum::Int(i) => Ok(Datum::Int(-i)),
            Datum::Float(f) => Ok(Datum::Float(-f)),
            other => Err(DataError::TypeError(format!("negation applied to {other}"))),
        },
    }
}

/// `v [NOT] IN (items)`: items are taken in order until one equals `v`.
fn eval_in_list<'a>(
    v: &Datum,
    items: impl IntoIterator<Item = Result<Cow<'a, Datum>>>,
    negated: bool,
) -> Result<Datum> {
    if v.is_null() {
        return Ok(Datum::Null);
    }
    let mut saw_null = false;
    for item in items {
        match v.sql_eq(&*item?) {
            Some(true) => return Ok(Datum::Bool(!negated)),
            Some(false) => {}
            None => saw_null = true,
        }
    }
    Ok(if saw_null {
        Datum::Null
    } else {
        Datum::Bool(negated)
    })
}

fn eval_like(v: &Datum, pattern: &Datum, negated: bool) -> Result<Datum> {
    match (v, pattern) {
        (Datum::Null, _) | (_, Datum::Null) => Ok(Datum::Null),
        (Datum::Text(s), Datum::Text(p)) => Ok(Datum::Bool(like_match(s, p) != negated)),
        (a, b) => Err(DataError::TypeError(format!("LIKE applied to {a}, {b}"))),
    }
}

fn eval_logic<'r>(
    op: BinOp,
    left: &Datum,
    right: impl FnOnce() -> Result<Cow<'r, Datum>>,
) -> Result<Datum> {
    let lb = match left {
        Datum::Null => None,
        Datum::Bool(b) => Some(*b),
        other => {
            return Err(DataError::TypeError(format!(
                "logical operator applied to {other}"
            )))
        }
    };
    match (op, lb) {
        (BinOp::And, Some(false)) => Ok(Datum::Bool(false)),
        (BinOp::Or, Some(true)) => Ok(Datum::Bool(true)),
        _ => {
            let rb = match right()?.as_ref() {
                Datum::Null => None,
                Datum::Bool(b) => Some(*b),
                other => {
                    return Err(DataError::TypeError(format!(
                        "logical operator applied to {other}"
                    )))
                }
            };
            let result = match op {
                BinOp::And => match (lb, rb) {
                    (Some(false), _) | (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
                BinOp::Or => match (lb, rb) {
                    (Some(true), _) | (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
                _ => unreachable!("eval_logic only handles AND/OR"),
            };
            Ok(result.map(Datum::Bool).unwrap_or(Datum::Null))
        }
    }
}

fn eval_binop(op: BinOp, l: &Datum, r: &Datum) -> Result<Datum> {
    match op {
        BinOp::Eq | BinOp::Ne => match l.sql_eq(r) {
            None => Ok(Datum::Null),
            Some(eq) => Ok(Datum::Bool(if op == BinOp::Eq { eq } else { !eq })),
        },
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            // Comparable types only.
            let cmp_ok = matches!(
                (l, r),
                (Datum::Text(_), Datum::Text(_))
                    | (
                        Datum::Int(_) | Datum::Float(_),
                        Datum::Int(_) | Datum::Float(_)
                    )
            );
            if !cmp_ok {
                return Err(DataError::TypeError(format!("cannot compare {l} with {r}")));
            }
            let ord = l.sql_cmp(r);
            Ok(Datum::Bool(match op {
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(Datum::Null);
            }
            match (l, r) {
                (Datum::Int(a), Datum::Int(b)) => match op {
                    BinOp::Add => Ok(Datum::Int(a.wrapping_add(*b))),
                    BinOp::Sub => Ok(Datum::Int(a.wrapping_sub(*b))),
                    BinOp::Mul => Ok(Datum::Int(a.wrapping_mul(*b))),
                    BinOp::Div => {
                        if *b == 0 {
                            Err(DataError::Eval("division by zero".into()))
                        } else {
                            Ok(Datum::Int(a / b))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => {
                    let (a, b) = match (l.as_f64(), r.as_f64()) {
                        (Some(a), Some(b)) => (a, b),
                        _ => {
                            return Err(DataError::TypeError(format!("arithmetic on {l} and {r}")))
                        }
                    };
                    match op {
                        BinOp::Add => Ok(Datum::Float(a + b)),
                        BinOp::Sub => Ok(Datum::Float(a - b)),
                        BinOp::Mul => Ok(Datum::Float(a * b)),
                        BinOp::Div => {
                            if b == 0.0 {
                                Err(DataError::Eval("division by zero".into()))
                            } else {
                                Ok(Datum::Float(a / b))
                            }
                        }
                        _ => unreachable!(),
                    }
                }
            }
        }
        BinOp::And | BinOp::Or => unreachable!("handled by eval_logic"),
    }
}

fn eval_scalar_fn(name: &str, args: &[Cow<'_, Datum>]) -> Result<Datum> {
    let arg1 = || -> Result<&Datum> {
        args.first()
            .map(Cow::as_ref)
            .ok_or_else(|| DataError::Eval(format!("{name} requires an argument")))
    };
    match name {
        "LOWER" => match arg1()? {
            Datum::Null => Ok(Datum::Null),
            Datum::Text(s) => Ok(Datum::Text(s.to_lowercase())),
            other => Err(DataError::TypeError(format!("LOWER applied to {other}"))),
        },
        "UPPER" => match arg1()? {
            Datum::Null => Ok(Datum::Null),
            Datum::Text(s) => Ok(Datum::Text(s.to_uppercase())),
            other => Err(DataError::TypeError(format!("UPPER applied to {other}"))),
        },
        "LENGTH" => match arg1()? {
            Datum::Null => Ok(Datum::Null),
            Datum::Text(s) => Ok(Datum::Int(s.chars().count() as i64)),
            other => Err(DataError::TypeError(format!("LENGTH applied to {other}"))),
        },
        "ABS" => match arg1()? {
            Datum::Null => Ok(Datum::Null),
            Datum::Int(i) => Ok(Datum::Int(i.abs())),
            Datum::Float(f) => Ok(Datum::Float(f.abs())),
            other => Err(DataError::TypeError(format!("ABS applied to {other}"))),
        },
        "ROUND" => match arg1()? {
            Datum::Null => Ok(Datum::Null),
            Datum::Int(i) => Ok(Datum::Int(*i)),
            Datum::Float(f) => Ok(Datum::Float(f.round())),
            other => Err(DataError::TypeError(format!("ROUND applied to {other}"))),
        },
        "CONCAT" => {
            let mut s = String::new();
            for a in args {
                if !a.is_null() {
                    s.push_str(&a.to_string());
                }
            }
            Ok(Datum::Text(s))
        }
        other => Err(DataError::Eval(format!("unknown function: {other}"))),
    }
}

/// Evaluates an expression in aggregate context: aggregate calls compute
/// over the group; other parts evaluate against the group's first row. All
/// operands are evaluated before their operator applies.
fn eval_agg(expr: &Expr, group: &[RowRef<'_>], scope: &Scope) -> Result<Datum> {
    match expr {
        Expr::FnCall { name, args, star } if AGGREGATES.contains(&name.as_str()) => {
            compute_aggregate(name, args, *star, group, scope)
        }
        Expr::Literal(d) => Ok(d.clone()),
        Expr::Column { .. } => match group.first() {
            Some(row) => Ok(eval(expr, row, scope)?.into_owned()),
            None => Ok(Datum::Null),
        },
        Expr::Unary { op, expr } => eval_unary(*op, &eval_agg(expr, group, scope)?),
        Expr::Binary { left, op, right } => {
            let l = eval_agg(left, group, scope)?;
            let r = eval_agg(right, group, scope)?;
            if matches!(op, BinOp::And | BinOp::Or) {
                eval_logic(*op, &l, || Ok(Cow::Borrowed(&r)))
            } else {
                eval_binop(*op, &l, &r)
            }
        }
        Expr::FnCall { name, args, .. } => {
            let vals: Vec<Cow<Datum>> = args
                .iter()
                .map(|a| eval_agg(a, group, scope).map(Cow::Owned))
                .collect::<Result<_>>()?;
            eval_scalar_fn(name, &vals)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_agg(expr, group, scope)?;
            let items: Vec<Datum> = list
                .iter()
                .map(|e| eval_agg(e, group, scope))
                .collect::<Result<_>>()?;
            eval_in_list(&v, items.iter().map(|d| Ok(Cow::Borrowed(d))), *negated)
        }
        Expr::Like {
            expr,
            pattern,
            negated,
        } => {
            let v = eval_agg(expr, group, scope)?;
            let p = eval_agg(pattern, group, scope)?;
            eval_like(&v, &p, *negated)
        }
        Expr::IsNull { expr, negated } => {
            let v = eval_agg(expr, group, scope)?;
            Ok(Datum::Bool(v.is_null() != *negated))
        }
    }
}

fn compute_aggregate(
    name: &str,
    args: &[Expr],
    star: bool,
    group: &[RowRef<'_>],
    scope: &Scope,
) -> Result<Datum> {
    if name == "COUNT" && star {
        return Ok(Datum::Int(group.len() as i64));
    }
    let arg = args
        .first()
        .ok_or_else(|| DataError::Eval(format!("{name} requires an argument")))?;
    let mut values = Vec::with_capacity(group.len());
    for row in group {
        let v = eval(arg, row, scope)?;
        if !v.is_null() {
            values.push(v);
        }
    }
    match name {
        "COUNT" => Ok(Datum::Int(values.len() as i64)),
        "SUM" | "AVG" => {
            if values.is_empty() {
                return Ok(Datum::Null);
            }
            let mut sum = 0.0;
            let mut all_int = true;
            for v in &values {
                match v.as_ref() {
                    Datum::Int(i) => sum += *i as f64,
                    Datum::Float(f) => {
                        sum += f;
                        all_int = false;
                    }
                    other => {
                        return Err(DataError::TypeError(format!("{name} applied to {other}")))
                    }
                }
            }
            if name == "AVG" {
                Ok(Datum::Float(sum / values.len() as f64))
            } else if all_int {
                Ok(Datum::Int(sum as i64))
            } else {
                Ok(Datum::Float(sum))
            }
        }
        "MIN" | "MAX" => {
            let Some((first, rest)) = values.split_first() else {
                return Ok(Datum::Null);
            };
            let mut best: &Datum = first;
            for v in rest {
                let ord = v.sql_cmp(best);
                let better = if name == "MIN" {
                    ord == std::cmp::Ordering::Less
                } else {
                    ord == std::cmp::Ordering::Greater
                };
                if better {
                    best = v;
                }
            }
            Ok(best.clone())
        }
        other => Err(DataError::Eval(format!("unknown aggregate: {other}"))),
    }
}

/// SQL LIKE matcher, case-insensitive: `%` matches any run, `_` matches one
/// character. ASCII input is matched byte by byte without allocating; other
/// input is Unicode-lowercased first and matched by character.
fn like_match(s: &str, pattern: &str) -> bool {
    if s.is_ascii() && pattern.is_ascii() {
        wildcard_match(s.as_bytes(), pattern.as_bytes(), b'%', b'_', |p, c| {
            p.eq_ignore_ascii_case(&c)
        })
    } else {
        let s: Vec<char> = s.to_lowercase().chars().collect();
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        wildcard_match(&s, &p, '%', '_', |p, c| p == c)
    }
}

/// Iterative wildcard matcher (`any` matches any run, `one` any single
/// symbol): on a mismatch it resumes after the last `any`, one symbol
/// further into `s`, so it runs in O(|s| · |p|) time without recursion.
fn wildcard_match<T: Copy + PartialEq>(
    s: &[T],
    p: &[T],
    any: T,
    one: T,
    eq: impl Fn(T, T) -> bool,
) -> bool {
    let (mut si, mut pi) = (0, 0);
    // After the last `any` seen: (pattern index past it, `s` index it
    // currently stretches to).
    let mut resume: Option<(usize, usize)> = None;
    while si < s.len() {
        if pi < p.len() && p[pi] == any {
            pi += 1;
            resume = Some((pi, si));
        } else if pi < p.len() && (p[pi] == one || eq(p[pi], s[si])) {
            pi += 1;
            si += 1;
        } else if let Some((rp, rs)) = resume {
            pi = rp;
            si = rs + 1;
            resume = Some((rp, si));
        } else {
            return false;
        }
    }
    p[pi..].iter().all(|&c| c == any)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> RelationalDb {
        let db = RelationalDb::new();
        db.execute(
            "CREATE TABLE jobs (id INT, title TEXT, city TEXT, salary FLOAT, company_id INT)",
        )
        .unwrap();
        db.execute("CREATE TABLE companies (id INT, name TEXT, size INT)")
            .unwrap();
        db.execute(
            "INSERT INTO jobs VALUES \
             (1, 'data scientist', 'san francisco', 180000.0, 1), \
             (2, 'data scientist', 'oakland', 165000.0, 2), \
             (3, 'ml engineer', 'san jose', 190000.0, 1), \
             (4, 'data analyst', 'san francisco', 120000.0, 3), \
             (5, 'recruiter', 'new york', 90000.0, 2)",
        )
        .unwrap();
        db.execute(
            "INSERT INTO companies VALUES (1, 'google', 100000), (2, 'startup', 50), (3, 'bank', 20000)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_star() {
        let r = db().execute("SELECT * FROM jobs").unwrap();
        assert_eq!(r.columns, ["id", "title", "city", "salary", "company_id"]);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn where_filters() {
        let r = db()
            .execute("SELECT title FROM jobs WHERE salary >= 150000 AND city <> 'oakland'")
            .unwrap();
        let titles: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(titles, ["data scientist", "ml engineer"]);
    }

    #[test]
    fn in_list_predicate() {
        let r = db()
            .execute("SELECT id FROM jobs WHERE city IN ('san francisco', 'oakland') ORDER BY id")
            .unwrap();
        let ids: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(ids, ["1", "2", "4"]);
    }

    #[test]
    fn like_predicate() {
        let r = db()
            .execute("SELECT id FROM jobs WHERE title LIKE 'data%' ORDER BY id")
            .unwrap();
        assert_eq!(r.len(), 3);
        let r2 = db()
            .execute("SELECT id FROM jobs WHERE title LIKE '%engineer'")
            .unwrap();
        assert_eq!(r2.len(), 1);
        let r3 = db()
            .execute("SELECT id FROM jobs WHERE title LIKE 'd_ta scientist'")
            .unwrap();
        assert_eq!(r3.len(), 2);
    }

    #[test]
    fn join_hash_path() {
        let r = db()
            .execute(
                "SELECT jobs.title, companies.name FROM jobs \
                 JOIN companies ON jobs.company_id = companies.id \
                 WHERE companies.size > 10000 ORDER BY jobs.title",
            )
            .unwrap();
        assert_eq!(r.len(), 3);
        assert_eq!(r.rows[0][1], Datum::Text("bank".into()));
    }

    #[test]
    fn join_with_aliases() {
        let r = db()
            .execute(
                "SELECT j.id FROM jobs j JOIN companies c ON j.company_id = c.id \
                 WHERE c.name = 'startup' ORDER BY j.id",
            )
            .unwrap();
        let ids: Vec<String> = r.rows.iter().map(|r| r[0].to_string()).collect();
        assert_eq!(ids, ["2", "5"]);
    }

    #[test]
    fn nested_loop_join_on_inequality() {
        let r = db()
            .execute("SELECT j.id FROM jobs j JOIN companies c ON j.company_id < c.id")
            .unwrap();
        // Each job joins companies with id greater than its company_id.
        assert!(!r.is_empty());
    }

    #[test]
    fn group_by_with_having_and_order() {
        let r = db()
            .execute(
                "SELECT title, COUNT(*) AS n, AVG(salary) AS avg_salary FROM jobs \
                 GROUP BY title HAVING COUNT(*) >= 1 ORDER BY n DESC, title ASC",
            )
            .unwrap();
        assert_eq!(r.columns, ["title", "n", "avg_salary"]);
        assert_eq!(r.rows[0][0], Datum::Text("data scientist".into()));
        assert_eq!(r.rows[0][1], Datum::Int(2));
        assert_eq!(r.rows[0][2], Datum::Float(172500.0));
    }

    #[test]
    fn aggregates_without_group_by() {
        let r = db()
            .execute("SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary) FROM jobs")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(5));
        assert_eq!(r.rows[0][1], Datum::Float(745000.0));
        assert_eq!(r.rows[0][2], Datum::Float(90000.0));
        assert_eq!(r.rows[0][3], Datum::Float(190000.0));
    }

    #[test]
    fn count_on_empty_table_is_zero() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        let r = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(0));
        // SUM over empty is NULL.
        let r2 = db.execute("SELECT SUM(x) FROM t").unwrap();
        assert_eq!(r2.rows[0][0], Datum::Null);
    }

    #[test]
    fn distinct_dedupes() {
        let r = db().execute("SELECT DISTINCT title FROM jobs").unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn limit_truncates() {
        let r = db()
            .execute("SELECT id FROM jobs ORDER BY id LIMIT 2")
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn order_desc() {
        let r = db()
            .execute("SELECT id, salary FROM jobs ORDER BY salary DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn tableless_select() {
        let r = RelationalDb::new()
            .execute("SELECT 1 + 2 AS three, 'x'")
            .unwrap();
        assert_eq!(r.columns, ["three", "x"]);
        assert_eq!(r.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn scalar_functions() {
        let r = RelationalDb::new()
            .execute("SELECT LOWER('ABC'), UPPER('abc'), LENGTH('hello'), ABS(-4), ROUND(2.6)")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Text("abc".into()));
        assert_eq!(r.rows[0][1], Datum::Text("ABC".into()));
        assert_eq!(r.rows[0][2], Datum::Int(5));
        assert_eq!(r.rows[0][3], Datum::Int(4));
        assert_eq!(r.rows[0][4], Datum::Float(3.0));
    }

    #[test]
    fn concat_skips_nulls() {
        let r = RelationalDb::new()
            .execute("SELECT CONCAT('a', NULL, 'b', 1)")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Text("ab1".into()));
    }

    #[test]
    fn null_three_valued_logic() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (NULL), (3)").unwrap();
        // NULL rows don't pass x > 0.
        let r = db.execute("SELECT COUNT(*) FROM t WHERE x > 0").unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(2));
        // IS NULL finds them.
        let r2 = db
            .execute("SELECT COUNT(*) FROM t WHERE x IS NULL")
            .unwrap();
        assert_eq!(r2.rows[0][0], Datum::Int(1));
        let r3 = db
            .execute("SELECT COUNT(*) FROM t WHERE x IS NOT NULL")
            .unwrap();
        assert_eq!(r3.rows[0][0], Datum::Int(2));
        // COUNT(x) skips NULLs.
        let r4 = db.execute("SELECT COUNT(x) FROM t").unwrap();
        assert_eq!(r4.rows[0][0], Datum::Int(2));
    }

    #[test]
    fn not_in_with_null_is_unknown() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (x INT)").unwrap();
        db.execute("INSERT INTO t VALUES (5)").unwrap();
        // 5 NOT IN (1, NULL) is UNKNOWN, so the row is filtered out.
        let r = db
            .execute("SELECT COUNT(*) FROM t WHERE x NOT IN (1, NULL)")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(0));
    }

    #[test]
    fn index_probe_matches_scan() {
        let db = db();
        let scan = db
            .execute("SELECT id FROM jobs WHERE city = 'san francisco' ORDER BY id")
            .unwrap();
        db.create_index("jobs", "city").unwrap();
        let probed = db
            .execute("SELECT id FROM jobs WHERE city = 'san francisco' ORDER BY id")
            .unwrap();
        assert_eq!(scan, probed);
    }

    #[test]
    fn index_maintained_on_insert() {
        let db = db();
        db.create_index("jobs", "city").unwrap();
        db.execute("INSERT INTO jobs VALUES (6, 'data engineer', 'san francisco', 170000.0, 1)")
            .unwrap();
        let r = db
            .execute("SELECT COUNT(*) FROM jobs WHERE city = 'san francisco'")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn index_with_extra_conjuncts_still_filters() {
        let db = db();
        db.create_index("jobs", "city").unwrap();
        let r = db
            .execute("SELECT id FROM jobs WHERE city = 'san francisco' AND salary > 150000")
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Int(1));
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let db = db();
        assert!(matches!(
            db.execute("SELECT * FROM ghosts"),
            Err(DataError::UnknownTable(_))
        ));
        assert!(matches!(
            db.execute("SELECT ghost FROM jobs"),
            Err(DataError::UnknownColumn(_))
        ));
    }

    #[test]
    fn ambiguous_column_errors() {
        let err = db()
            .execute("SELECT id FROM jobs JOIN companies ON jobs.company_id = companies.id")
            .unwrap_err();
        assert!(matches!(err, DataError::UnknownColumn(msg) if msg.contains("ambiguous")));
    }

    #[test]
    fn division_by_zero_errors() {
        assert!(RelationalDb::new().execute("SELECT 1 / 0").is_err());
        assert!(RelationalDb::new().execute("SELECT 1.0 / 0.0").is_err());
    }

    #[test]
    fn insert_with_column_subset_fills_null() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a INT, b TEXT)").unwrap();
        db.execute("INSERT INTO t (b) VALUES ('only-b')").unwrap();
        let r = db.execute("SELECT a, b FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Null);
        assert_eq!(r.rows[0][1], Datum::Text("only-b".into()));
    }

    #[test]
    fn insert_type_mismatch_errors() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(db.execute("INSERT INTO t VALUES ('text')").is_err());
    }

    #[test]
    fn insert_int_into_float_coerces() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a FLOAT)").unwrap();
        db.execute("INSERT INTO t VALUES (5)").unwrap();
        let r = db.execute("SELECT a FROM t").unwrap();
        assert_eq!(r.rows[0][0], Datum::Float(5.0));
    }

    #[test]
    fn duplicate_table_rejected() {
        let db = db();
        assert!(db.execute("CREATE TABLE jobs (x INT)").is_err());
    }

    #[test]
    fn qualified_wildcard_names_in_join() {
        let r = db()
            .execute("SELECT * FROM jobs j JOIN companies c ON j.company_id = c.id LIMIT 1")
            .unwrap();
        assert!(r.columns.contains(&"j.title".to_string()));
        assert!(r.columns.contains(&"c.name".to_string()));
    }

    #[test]
    fn result_set_json_shape() {
        let r = db()
            .execute("SELECT id, title FROM jobs WHERE id = 1")
            .unwrap();
        let j = r.into_json();
        assert_eq!(j[0]["id"], serde_json::json!(1));
        assert_eq!(j[0]["title"], serde_json::json!("data scientist"));
    }

    #[test]
    fn render_text_contains_header_and_rows() {
        let r = db().execute("SELECT id, title FROM jobs LIMIT 1").unwrap();
        let text = r.render_text();
        assert!(text.contains("id"));
        assert!(text.contains("data scientist"));
    }

    #[test]
    fn order_by_alias() {
        let r = db()
            .execute("SELECT title, COUNT(*) AS n FROM jobs GROUP BY title ORDER BY n DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.rows[0][1], Datum::Int(2));
    }

    #[test]
    fn order_by_unprojected_expression_errors_clearly() {
        let err = db()
            .execute("SELECT title FROM jobs GROUP BY title ORDER BY salary")
            .unwrap_err();
        assert!(matches!(err, DataError::Eval(msg) if msg.contains("output column")));
    }

    #[test]
    fn group_by_city_counts() {
        let r = db()
            .execute("SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY n DESC, city")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Text("san francisco".into()));
        assert_eq!(r.rows[0][1], Datum::Int(2));
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn like_is_case_insensitive() {
        let r = db()
            .execute("SELECT COUNT(*) FROM jobs WHERE title LIKE 'DATA%'")
            .unwrap();
        assert_eq!(r.rows[0][0], Datum::Int(3));
    }

    #[test]
    fn like_match_edge_cases() {
        assert!(like_match("", ""));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "a%c"));
        assert!(like_match("abc", "%"));
        assert!(like_match("abc", "___"));
        assert!(!like_match("abc", "__"));
        assert!(like_match("a%b", "a%b"));
        assert!(like_match("ABC", "a%C"));
        assert!(like_match("Ärger", "ä%"));
        // Many `%` signs do not make the matcher backtrack exponentially.
        let long = "a".repeat(200);
        assert!(!like_match(&long, &format!("{}b", "%a".repeat(30))));
    }

    /// The recursive matcher the engine used before the iterative one, kept
    /// as the reference: both sides Unicode-lowercased, then matched by
    /// character.
    fn like_reference(s: &str, pattern: &str) -> bool {
        fn inner(s: &[char], p: &[char]) -> bool {
            match p.first() {
                None => s.is_empty(),
                Some('%') => (0..=s.len()).any(|skip| inner(&s[skip..], &p[1..])),
                Some('_') => !s.is_empty() && inner(&s[1..], &p[1..]),
                Some(&c) => s.first() == Some(&c) && inner(&s[1..], &p[1..]),
            }
        }
        let s: Vec<char> = s.to_lowercase().chars().collect();
        let p: Vec<char> = pattern.to_lowercase().chars().collect();
        inner(&s, &p)
    }

    proptest::proptest! {
        /// The iterative matcher agrees with the recursive reference on
        /// random text and patterns: `%`, `_`, repeated `%`, mixed case and
        /// non-ASCII letters (some lowercase to more than one character).
        #[test]
        fn like_match_agrees_with_reference(
            s in "[abAB%_\u{c4}\u{e4}\u{130}\u{df}]{0,10}",
            pattern in "[abAB%_\u{c4}\u{e4}\u{130}\u{df}]{0,8}",
        ) {
            proptest::prop_assert_eq!(like_match(&s, &pattern), like_reference(&s, &pattern));
        }

        /// Same over ASCII only (the allocation-free path), with runs of `%`
        /// likelier.
        #[test]
        fn ascii_like_match_agrees_with_reference(
            s in "[abcABC]{0,12}",
            pattern in proptest::prelude::prop::collection::vec(
                proptest::prelude::prop::sample::select(vec!["%", "%%", "_", "a", "b", "C"]),
                0..8,
            ),
        ) {
            let pattern = pattern.concat();
            proptest::prop_assert_eq!(like_match(&s, &pattern), like_reference(&s, &pattern));
        }
    }

    /// The base-scan candidates for `where_sql` on the fixture's `jobs`
    /// table with `city` and `title` indexed, as job ids.
    fn candidate_ids(where_sql: &str) -> Vec<i64> {
        let db = db();
        db.create_index("jobs", "city").unwrap();
        db.create_index("jobs", "title").unwrap();
        let Stmt::Select(select) = parse(&format!("SELECT * FROM jobs WHERE {where_sql}")).unwrap()
        else {
            unreachable!("a SELECT parses as a SELECT")
        };
        let tables = db.tables.read();
        scan_base(&tables["jobs"], "jobs", select.where_clause.as_ref(), true)
            .iter()
            .map(|row| match row[0] {
                Datum::Int(id) => id,
                _ => unreachable!("ids are ints"),
            })
            .collect()
    }

    #[test]
    fn in_list_probe_reads_only_candidates_in_scan_order() {
        // Repeated list items and keys that miss add no candidates.
        assert_eq!(
            candidate_ids("city IN ('san francisco', 'oakland', 'san francisco', 'paris')"),
            [1, 2, 4]
        );
        // The conjunct with the fewest candidates wins, either way round.
        assert_eq!(
            candidate_ids("city IN ('san francisco', 'oakland') AND title = 'ml engineer'"),
            [3]
        );
        assert_eq!(
            candidate_ids("'ml engineer' = title AND city IN ('san francisco', 'oakland')"),
            [3]
        );
        assert_eq!(
            candidate_ids("salary > 1 AND title IN ('recruiter', 'data scientist')"),
            [1, 2, 5]
        );
        // NOT IN, lists with non-literals, OR and unindexed columns scan.
        for full_scan in [
            "city NOT IN ('oakland')",
            "city IN ('oakland', title)",
            "city = 'oakland' OR title = 'recruiter'",
            "salary IN (90000.0)",
        ] {
            assert_eq!(candidate_ids(full_scan), [1, 2, 3, 4, 5], "{full_scan}");
        }
    }

    #[test]
    fn in_list_probe_skips_errors_outside_its_candidates() {
        // The documented caveat: `title > 1` is a type error on every row it
        // is evaluated on, but the probe finds no candidate to evaluate.
        let sql = "SELECT id FROM jobs WHERE title > 1 AND city IN ('paris', 'rome')";
        let db = db();
        assert!(matches!(db.execute(sql), Err(DataError::TypeError(_))));
        db.create_index("jobs", "city").unwrap();
        assert!(db.execute(sql).unwrap().is_empty());
        // NOT IN never probes, so it still reports the error.
        let negated = "SELECT id FROM jobs WHERE title > 1 AND city NOT IN ('paris')";
        assert!(matches!(db.execute(negated), Err(DataError::TypeError(_))));
    }

    #[test]
    fn arithmetic_in_projection() {
        let r = db()
            .execute("SELECT id, salary / 1000 AS k FROM jobs WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][1], Datum::Float(180.0));
    }

    #[test]
    fn aggregate_outside_group_context_errors() {
        let err = db()
            .execute("SELECT title FROM jobs WHERE COUNT(*) > 1")
            .unwrap_err();
        assert!(matches!(err, DataError::Eval(_)));
    }

    #[test]
    fn having_with_non_aggregate_conjunct() {
        // Lenient semantics (as in SQLite): non-aggregate parts of HAVING
        // evaluate against the group's first row.
        let r = db()
            .execute(
                "SELECT title, COUNT(*) AS n FROM jobs GROUP BY title \
                 HAVING COUNT(*) > 1 AND title LIKE 'data%'",
            )
            .unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows[0][0], Datum::Text("data scientist".into()));
    }

    #[test]
    fn insert_unknown_column_errors() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(matches!(
            db.execute("INSERT INTO t (ghost) VALUES (1)"),
            Err(DataError::UnknownColumn(_))
        ));
    }

    #[test]
    fn insert_arity_mismatch_errors() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(matches!(
            db.execute("INSERT INTO t (a) VALUES (1, 2)"),
            Err(DataError::Schema(_))
        ));
    }

    #[test]
    fn empty_in_list_is_a_parse_error() {
        assert!(db().execute("SELECT * FROM jobs WHERE id IN ()").is_err());
    }

    #[test]
    fn where_on_empty_table_returns_nothing() {
        let db = RelationalDb::new();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let r = db.execute("SELECT * FROM t WHERE a > 5").unwrap();
        assert!(r.is_empty());
        assert_eq!(r.columns, ["a"]);
    }

    #[test]
    fn group_by_expression_key() {
        // Grouping on a computed expression, not just a bare column.
        let r = db()
            .execute("SELECT COUNT(*) AS n FROM jobs GROUP BY salary > 150000 ORDER BY n")
            .unwrap();
        assert_eq!(r.len(), 2);
        let total: i64 = r
            .rows
            .iter()
            .map(|row| match row[0] {
                Datum::Int(n) => n,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn schema_introspection() {
        let db = db();
        assert_eq!(db.table_names(), ["companies", "jobs"]);
        assert_eq!(db.row_count("jobs"), 5);
        assert_eq!(db.row_count("ghosts"), 0);
        assert_eq!(db.schema_of("jobs").unwrap().arity(), 5);
        assert!(db.schema_of("ghosts").is_err());
    }
}
