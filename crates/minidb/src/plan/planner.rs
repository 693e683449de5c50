//! AST → logical plan: name resolution, implicit/explicit join collection,
//! aggregate extraction, scalar-subquery inlining.

use std::cell::RefCell;

use crate::catalog::Catalog;
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, ScalarFunc};
use crate::plan::logical::{AggExpr, AggFunc, LogicalPlan};
use crate::prepared::Dependencies;
use crate::sql::ast::{self, Expr, Literal, Query, SelectItem, TableFactor};
use crate::table::{Field, Schema, Table};
use crate::udf::UdfRegistry;
use crate::value::{parse_date, DataType, Value};

/// Callback the planner uses to evaluate uncorrelated scalar subqueries.
/// The database passes a closure that plans, optimizes and executes.
pub type SubqueryRunner<'a> = dyn Fn(&Query) -> Result<Table> + 'a;

/// One visible column during name resolution.
#[derive(Debug, Clone)]
struct ScopeEntry {
    /// Table binding (alias or table name); `None` for derived output
    /// scopes.
    binding: Option<String>,
    name: String,
    data_type: DataType,
}

/// The namespace a query level resolves column references against.
#[derive(Debug, Clone, Default)]
struct Scope {
    entries: Vec<ScopeEntry>,
}

impl Scope {
    fn from_schema(schema: &Schema, binding: Option<&str>) -> Scope {
        Scope {
            entries: schema
                .fields()
                .iter()
                .map(|f| ScopeEntry {
                    binding: binding.map(str::to_string),
                    name: f.name.clone(),
                    data_type: f.data_type,
                })
                .collect(),
        }
    }

    fn extend(&mut self, other: Scope) {
        self.entries.extend(other.entries);
    }

    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let mut found = None;
        for (i, e) in self.entries.iter().enumerate() {
            let qual_ok = match qualifier {
                None => true,
                Some(q) => e.binding.as_deref().is_some_and(|b| b.eq_ignore_ascii_case(q)),
            };
            if qual_ok && e.name.eq_ignore_ascii_case(name) {
                if found.is_some() {
                    return Err(Error::Plan(format!("ambiguous column reference '{name}'")));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| {
            let full = match qualifier {
                Some(q) => format!("{q}.{name}"),
                None => name.to_string(),
            };
            Error::NotFound(format!("column '{full}'"))
        })
    }

    fn to_schema(&self) -> Schema {
        Schema::new(self.entries.iter().map(|e| Field::new(e.name.clone(), e.data_type)).collect())
    }
}

/// What a plan was built against, and whether the build evaluated a
/// scalar subquery, whose result no dependency can vouch for.
#[derive(Default)]
struct Resolved {
    deps: Dependencies,
    subquery: bool,
}

/// The query planner.
pub struct Planner<'a> {
    catalog: &'a Catalog,
    udfs: &'a UdfRegistry,
    subquery: Option<&'a SubqueryRunner<'a>>,
    resolved: RefCell<Resolved>,
}

impl<'a> Planner<'a> {
    /// Creates a planner. `subquery` is required only for queries that use
    /// scalar subqueries.
    pub fn new(
        catalog: &'a Catalog,
        udfs: &'a UdfRegistry,
        subquery: Option<&'a SubqueryRunner<'a>>,
    ) -> Self {
        Planner { catalog, udfs, subquery, resolved: RefCell::default() }
    }

    /// The tables, views and UDFs the plans built so far resolved, each
    /// as it was when resolved; `None` when a build evaluated a scalar
    /// subquery.
    pub(crate) fn dependencies(self) -> Option<Dependencies> {
        let resolved = self.resolved.into_inner();
        (!resolved.subquery).then_some(resolved.deps)
    }

    /// Whether `name` binds a UDF, recording the binding as a dependency.
    fn bind_udf(&self, name: &str) -> bool {
        let Some(udf) = self.udfs.get(name) else { return false };
        self.resolved.borrow_mut().deps.udf(name, &udf);
        true
    }

    /// Plans a SELECT query into a logical plan.
    pub fn plan_query(&self, q: &Query) -> Result<LogicalPlan> {
        // ---- FROM -----------------------------------------------------
        let (mut plan, scope, on_predicates) = self.plan_from(q)?;

        // ---- WHERE ----------------------------------------------------
        let mut predicate_pool: Vec<BoundExpr> = on_predicates;
        if let Some(pred) = &q.predicate {
            for c in pred.conjuncts() {
                predicate_pool.push(self.bind(c, &scope)?);
            }
        }

        // Attach predicates. A MultiJoin keeps its pool for the optimizer;
        // a single-source plan gets a plain Filter.
        match &mut plan {
            LogicalPlan::MultiJoin { predicates, .. } => {
                predicates.extend(predicate_pool);
            }
            _ => {
                if !predicate_pool.is_empty() {
                    let combined = conjoin_bound(predicate_pool);
                    plan = LogicalPlan::Filter { input: Box::new(plan), predicate: combined };
                }
            }
        }

        // ---- aggregate detection ---------------------------------------
        let mut agg_asts: Vec<Expr> = Vec::new();
        for item in &q.projections {
            if let SelectItem::Expr { expr, .. } = item {
                collect_aggregates(expr, &mut agg_asts)?;
            }
        }
        if let Some(h) = &q.having {
            collect_aggregates(h, &mut agg_asts)?;
        }
        for ob in &q.order_by {
            collect_aggregates(&ob.expr, &mut agg_asts)?;
        }
        let has_aggregates = !agg_asts.is_empty() || !q.group_by.is_empty();

        // ---- projection (+aggregation) ---------------------------------
        let (mut plan, mut output_exprs, mut output_names) = if has_aggregates {
            self.plan_aggregate(plan, &scope, q, &agg_asts)?
        } else {
            let mut exprs = Vec::new();
            let mut names = Vec::new();
            for (i, item) in q.projections.iter().enumerate() {
                match item {
                    SelectItem::Wildcard => {
                        for (idx, e) in scope.entries.iter().enumerate() {
                            exprs.push(BoundExpr::Column(idx));
                            names.push(e.name.clone());
                        }
                    }
                    SelectItem::Expr { expr, alias } => {
                        let bound = self.bind(expr, &scope)?;
                        names.push(projection_name(expr, alias.as_deref(), i));
                        exprs.push(bound);
                    }
                }
            }
            (plan, exprs, names)
        };

        // ---- ORDER BY key resolution -------------------------------------
        // Keys resolve against (in order): the SELECT output (aliases), a
        // verbatim projection expression, or the pre-projection scope — the
        // last case appends a hidden projection column that a final
        // projection trims off again after the sort.
        let visible = output_exprs.len();
        let mut sort_keys: Vec<(usize, bool)> = Vec::new();
        if !q.order_by.is_empty() {
            let out_fields: Vec<(String, usize)> =
                output_names.iter().enumerate().map(|(i, n)| (n.clone(), i)).collect();
            for ob in &q.order_by {
                // 1. Output alias / column name.
                if let Expr::Column { qualifier: None, name } = &ob.expr {
                    let matches: Vec<usize> = out_fields
                        .iter()
                        .filter(|(n, _)| n.eq_ignore_ascii_case(name))
                        .map(|(_, i)| *i)
                        .collect();
                    if matches.len() == 1 {
                        sort_keys.push((matches[0], ob.ascending));
                        continue;
                    }
                }
                // 2. Verbatim projection expression.
                if let Some(pos) = q.projections.iter().position(
                    |item| matches!(item, SelectItem::Expr { expr, .. } if expr == &ob.expr),
                ) {
                    sort_keys.push((pos, ob.ascending));
                    continue;
                }
                // 3. Pre-projection column: add a hidden output.
                let hidden = if has_aggregates {
                    let group_bound: Vec<BoundExpr> =
                        q.group_by.iter().map(|g| self.bind(g, &scope)).collect::<Result<_>>()?;
                    self.rewrite_post_agg(
                        &ob.expr,
                        &scope,
                        &group_bound,
                        &agg_asts,
                        group_bound.len(),
                    )?
                } else {
                    self.bind(&ob.expr, &scope)?
                };
                output_names.push(format!("__sort_{}", output_exprs.len()));
                output_exprs.push(hidden);
                sort_keys.push((output_exprs.len() - 1, ob.ascending));
            }
        }

        // Materialize the projection node.
        let in_schema = plan.schema().clone();
        let fields: Vec<Field> = output_exprs
            .iter()
            .zip(&output_names)
            .map(|(e, n)| Ok(Field::new(n.clone(), e.data_type(&in_schema, self.udfs)?)))
            .collect::<Result<_>>()?;
        let out_schema = Schema::new(fields);
        plan = LogicalPlan::Project {
            input: Box::new(plan),
            exprs: output_exprs,
            schema: out_schema.clone(),
        };

        // ---- DISTINCT -----------------------------------------------------
        // SELECT DISTINCT groups by every (visible) output column. Hidden
        // sort columns stay outside the key so `DISTINCT x ORDER BY y`
        // remains an error-free but well-defined dedup on x alone only
        // when y is itself projected; to keep semantics simple, DISTINCT
        // with hidden sort columns is rejected.
        if q.distinct {
            if out_schema.len() > visible {
                return Err(Error::Plan(
                    "ORDER BY expressions must appear in the select list when DISTINCT is used"
                        .into(),
                ));
            }
            let group: Vec<BoundExpr> = (0..out_schema.len()).map(BoundExpr::Column).collect();
            plan = LogicalPlan::Aggregate {
                input: Box::new(plan),
                group,
                aggs: vec![],
                schema: out_schema.clone(),
            };
        }

        // ---- ORDER BY -----------------------------------------------------
        if !sort_keys.is_empty() {
            let keys = sort_keys.into_iter().map(|(i, asc)| (BoundExpr::Column(i), asc)).collect();
            plan = LogicalPlan::Sort { input: Box::new(plan), keys };
            // Trim hidden sort columns.
            if out_schema.len() > visible {
                let trimmed = Schema::new(out_schema.fields()[..visible].to_vec());
                plan = LogicalPlan::Project {
                    input: Box::new(plan),
                    exprs: (0..visible).map(BoundExpr::Column).collect(),
                    schema: trimmed,
                };
            }
        }

        // ---- LIMIT ------------------------------------------------------
        if let Some(n) = q.limit {
            plan = LogicalPlan::Limit { input: Box::new(plan), n };
        }
        Ok(plan)
    }

    /// Plans the FROM clause. Returns the source plan (a `MultiJoin` when
    /// more than one relation participates), the resolution scope, and the
    /// bound ON-clause conjuncts.
    fn plan_from(&self, q: &Query) -> Result<(LogicalPlan, Scope, Vec<BoundExpr>)> {
        if q.from.is_empty() {
            // SELECT without FROM: a single unit row that projections
            // evaluate against. The dummy column is invisible to the scope.
            let unit = Table::new(
                Schema::new(vec![Field::new("__unit", DataType::Int64)]),
                vec![crate::column::Column::Int64(vec![0])],
            )
            .expect("unit table is well-formed");
            return Ok((LogicalPlan::Values { table: unit }, Scope::default(), vec![]));
        }

        let mut inputs: Vec<LogicalPlan> = Vec::new();
        let mut scope = Scope::default();
        let mut pending_on: Vec<Expr> = Vec::new();

        let add_factor = |factor: &TableFactor,
                          inputs: &mut Vec<LogicalPlan>,
                          scope: &mut Scope|
         -> Result<()> {
            let binding = factor.binding_name().to_string();
            if scope
                .entries
                .iter()
                .any(|e| e.binding.as_deref().is_some_and(|b| b.eq_ignore_ascii_case(&binding)))
            {
                return Err(Error::Plan(format!("duplicate table binding '{binding}'")));
            }
            let plan = self.plan_factor(factor)?;
            scope.extend(Scope::from_schema(plan.schema(), Some(&binding)));
            inputs.push(plan);
            Ok(())
        };

        for item in &q.from {
            add_factor(&item.factor, &mut inputs, &mut scope)?;
            for j in &item.joins {
                add_factor(&j.factor, &mut inputs, &mut scope)?;
                pending_on.push(j.on.clone());
            }
        }

        // Bind ON predicates against the completed scope.
        let mut on_bound = Vec::new();
        for on in &pending_on {
            for c in on.conjuncts() {
                on_bound.push(self.bind(c, &scope)?);
            }
        }

        if inputs.len() == 1 {
            let plan = inputs.pop().expect("one input");
            Ok((plan, scope, on_bound))
        } else {
            let schema = scope.to_schema();
            Ok((LogicalPlan::MultiJoin { inputs, predicates: vec![], schema }, scope, on_bound))
        }
    }

    fn plan_factor(&self, factor: &TableFactor) -> Result<LogicalPlan> {
        match factor {
            TableFactor::Named { name, .. } => {
                if let Some((t, epoch)) = self.catalog.resolve_table(name) {
                    self.resolved.borrow_mut().deps.table(name, &t, epoch);
                    Ok(LogicalPlan::Scan { table: name.clone(), schema: t.schema().clone() })
                } else if let Some(view) = self.catalog.view(name) {
                    // Views are inlined: the optimizer sees through them.
                    self.resolved.borrow_mut().deps.view(name, &view);
                    self.plan_query(&view)
                } else {
                    Err(Error::NotFound(format!("table or view '{name}'")))
                }
            }
            TableFactor::Derived { query, .. } => self.plan_query(query),
        }
    }

    // ---- aggregation ----------------------------------------------------

    /// Builds Aggregate (+ HAVING filter) and returns the rewritten
    /// projection expressions bound over the aggregate output.
    fn plan_aggregate(
        &self,
        input: LogicalPlan,
        scope: &Scope,
        q: &Query,
        agg_asts: &[Expr],
    ) -> Result<(LogicalPlan, Vec<BoundExpr>, Vec<String>)> {
        // Bind group keys.
        let mut group_bound: Vec<BoundExpr> = Vec::new();
        let mut group_names: Vec<String> = Vec::new();
        for (i, g) in q.group_by.iter().enumerate() {
            group_bound.push(self.bind(g, scope)?);
            group_names.push(match g {
                Expr::Column { name, .. } => name.clone(),
                _ => format!("group_{i}"),
            });
        }

        // Bind aggregate expressions.
        let in_schema = scope.to_schema();
        let mut aggs: Vec<AggExpr> = Vec::new();
        for (i, a) in agg_asts.iter().enumerate() {
            let Expr::Function { name, args, star, distinct } = a else {
                return Err(Error::Plan("internal: non-function aggregate".into()));
            };
            let func = AggFunc::from_name(name)
                .ok_or_else(|| Error::Plan(format!("unknown aggregate '{name}'")))?;
            let arg = if *star {
                None
            } else {
                if args.len() != 1 {
                    return Err(Error::Plan(format!("{name} takes exactly one argument")));
                }
                Some(self.bind(&args[0], scope)?)
            };
            if func != AggFunc::Count && arg.is_none() {
                return Err(Error::Plan(format!("{name}(*) is only valid for COUNT")));
            }
            aggs.push(AggExpr { func, arg, distinct: *distinct, output_name: format!("agg_{i}") });
        }

        // Aggregate output schema: group keys then aggregates.
        let mut fields = Vec::new();
        for (b, n) in group_bound.iter().zip(&group_names) {
            fields.push(Field::new(n.clone(), b.data_type(&in_schema, self.udfs)?));
        }
        for (agg, ast_expr) in aggs.iter().zip(agg_asts) {
            fields.push(Field::new(
                agg.output_name.clone(),
                agg_output_type(agg, &in_schema, self.udfs, ast_expr)?,
            ));
        }
        let agg_schema = Schema::new(fields);
        let n_groups = group_bound.len();

        let mut plan = LogicalPlan::Aggregate {
            input: Box::new(input),
            group: group_bound.clone(),
            aggs,
            schema: agg_schema.clone(),
        };

        // HAVING (bound over aggregate output).
        if let Some(h) = &q.having {
            let bound = self.rewrite_post_agg(h, scope, &group_bound, agg_asts, n_groups)?;
            plan = LogicalPlan::Filter { input: Box::new(plan), predicate: bound };
        }

        // Projections over the aggregate output.
        let mut exprs = Vec::new();
        let mut names = Vec::new();
        for (i, item) in q.projections.iter().enumerate() {
            match item {
                SelectItem::Wildcard => {
                    return Err(Error::Plan("SELECT * cannot be combined with GROUP BY".into()))
                }
                SelectItem::Expr { expr, alias } => {
                    exprs.push(self.rewrite_post_agg(
                        expr,
                        scope,
                        &group_bound,
                        agg_asts,
                        n_groups,
                    )?);
                    names.push(projection_name(expr, alias.as_deref(), i));
                }
            }
        }
        Ok((plan, exprs, names))
    }

    /// Rewrites an expression that appears after aggregation: aggregate
    /// calls become references to aggregate outputs, group-key expressions
    /// become references to key columns, and anything else must be built
    /// from those (or constants).
    fn rewrite_post_agg(
        &self,
        expr: &Expr,
        scope: &Scope,
        group_bound: &[BoundExpr],
        agg_asts: &[Expr],
        n_groups: usize,
    ) -> Result<BoundExpr> {
        // An aggregate call?
        if let Some(pos) = agg_asts.iter().position(|a| a == expr) {
            return Ok(BoundExpr::Column(n_groups + pos));
        }
        // A group-key expression (matched after binding, so `patternID`
        // and `F.patternID` unify)?
        if let Ok(bound) = self.bind(expr, scope) {
            if let Some(pos) = group_bound.iter().position(|g| g == &bound) {
                return Ok(BoundExpr::Column(pos));
            }
            if bound.referenced_columns().is_empty() {
                return Ok(bound); // constant
            }
        }
        // Recurse structurally.
        match expr {
            Expr::Unary { op, expr: inner } => Ok(BoundExpr::Unary {
                op: *op,
                expr: Box::new(self.rewrite_post_agg(
                    inner,
                    scope,
                    group_bound,
                    agg_asts,
                    n_groups,
                )?),
            }),
            Expr::Binary { left, op, right } => Ok(BoundExpr::Binary {
                left: Box::new(self.rewrite_post_agg(
                    left,
                    scope,
                    group_bound,
                    agg_asts,
                    n_groups,
                )?),
                op: *op,
                right: Box::new(self.rewrite_post_agg(
                    right,
                    scope,
                    group_bound,
                    agg_asts,
                    n_groups,
                )?),
            }),
            Expr::Function { name, args, .. } => {
                let rewritten: Vec<BoundExpr> = args
                    .iter()
                    .map(|a| self.rewrite_post_agg(a, scope, group_bound, agg_asts, n_groups))
                    .collect::<Result<_>>()?;
                if let Some(func) = ScalarFunc::from_name(name) {
                    Ok(BoundExpr::ScalarFn { func, args: rewritten })
                } else if self.bind_udf(name) {
                    Ok(BoundExpr::Udf { name: name.clone(), args: rewritten })
                } else {
                    Err(Error::NotFound(format!("function '{name}'")))
                }
            }
            Expr::Column { qualifier, name } => {
                let full = match qualifier {
                    Some(q) => format!("{q}.{name}"),
                    None => name.clone(),
                };
                Err(Error::Plan(format!(
                    "column '{full}' must appear in GROUP BY or inside an aggregate"
                )))
            }
            other => Err(Error::Plan(format!("cannot use {other:?} after aggregation"))),
        }
    }

    // ---- binding ----------------------------------------------------------

    /// Binds an AST expression against a scope. Aggregates are rejected —
    /// this is the path for WHERE/ON/GROUP BY and plain projections.
    fn bind(&self, expr: &Expr, scope: &Scope) -> Result<BoundExpr> {
        match expr {
            Expr::Column { qualifier, name } => {
                let idx = scope.resolve(qualifier.as_deref(), name)?;
                Ok(BoundExpr::Column(idx))
            }
            Expr::Literal(lit) => Ok(BoundExpr::Literal(literal_value(lit))),
            Expr::Unary { op, expr } => {
                Ok(BoundExpr::Unary { op: *op, expr: Box::new(self.bind(expr, scope)?) })
            }
            Expr::Binary { left, op, right } => {
                let mut l = self.bind(left, scope)?;
                let mut r = self.bind(right, scope)?;
                // Date coercion: comparing a Date column against a string
                // literal parses the literal (the paper writes
                // `printdate > '2021-01-01'`).
                if matches!(
                    op,
                    ast::BinOp::Eq
                        | ast::BinOp::NotEq
                        | ast::BinOp::Lt
                        | ast::BinOp::LtEq
                        | ast::BinOp::Gt
                        | ast::BinOp::GtEq
                ) {
                    let schema = scope.to_schema();
                    let lt = l.data_type(&schema, self.udfs);
                    let rt = r.data_type(&schema, self.udfs);
                    if let (Ok(DataType::Date), Ok(DataType::Utf8)) = (&lt, &rt) {
                        if let BoundExpr::Literal(Value::Utf8(s)) = &r {
                            r = BoundExpr::Literal(Value::Date(parse_date(s)?));
                        }
                    }
                    if let (Ok(DataType::Utf8), Ok(DataType::Date)) = (&lt, &rt) {
                        if let BoundExpr::Literal(Value::Utf8(s)) = &l {
                            l = BoundExpr::Literal(Value::Date(parse_date(s)?));
                        }
                    }
                }
                Ok(BoundExpr::Binary { left: Box::new(l), op: *op, right: Box::new(r) })
            }
            Expr::Function { name, args, .. } => {
                if AggFunc::from_name(name).is_some() {
                    return Err(Error::Plan(format!(
                        "aggregate '{name}' is not allowed in this context"
                    )));
                }
                let bound: Vec<BoundExpr> =
                    args.iter().map(|a| self.bind(a, scope)).collect::<Result<_>>()?;
                if let Some(func) = ScalarFunc::from_name(name) {
                    Ok(BoundExpr::ScalarFn { func, args: bound })
                } else if self.bind_udf(name) {
                    Ok(BoundExpr::Udf { name: name.clone(), args: bound })
                } else {
                    Err(Error::NotFound(format!("function '{name}'")))
                }
            }
            Expr::Subquery(q) => {
                let runner = self.subquery.ok_or_else(|| {
                    Error::Subquery("scalar subqueries are not available in this context".into())
                })?;
                self.resolved.borrow_mut().subquery = true;
                let t = runner(q)?;
                if t.num_rows() != 1 || t.num_columns() != 1 {
                    return Err(Error::Subquery(format!(
                        "scalar subquery returned {} rows x {} columns, expected 1x1",
                        t.num_rows(),
                        t.num_columns()
                    )));
                }
                Ok(BoundExpr::Literal(t.column(0).value(0)))
            }
        }
    }

    /// Binds an expression against a single table (used by UPDATE and
    /// INSERT in the database facade).
    pub fn bind_against_table(&self, expr: &Expr, table_schema: &Schema) -> Result<BoundExpr> {
        let scope = Scope::from_schema(table_schema, None);
        self.bind(expr, &scope)
    }
}

fn conjoin_bound(exprs: Vec<BoundExpr>) -> BoundExpr {
    exprs
        .into_iter()
        .reduce(|a, b| BoundExpr::Binary {
            left: Box::new(a),
            op: ast::BinOp::And,
            right: Box::new(b),
        })
        .unwrap_or(BoundExpr::Literal(Value::Bool(true)))
}

fn literal_value(lit: &Literal) -> Value {
    match lit {
        Literal::Int(v) => Value::Int64(*v),
        Literal::Float(v) => Value::Float64(*v),
        Literal::Str(s) => Value::Utf8(s.clone()),
        Literal::Bool(b) => Value::Bool(*b),
    }
}

fn projection_name(expr: &Expr, alias: Option<&str>, index: usize) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.clone(),
        _ => format!("col_{index}"),
    }
}

/// Collects aggregate function calls (rejecting nesting).
fn collect_aggregates(expr: &Expr, out: &mut Vec<Expr>) -> Result<()> {
    if let Expr::Function { name, args, .. } = expr {
        if AggFunc::from_name(name).is_some() {
            for a in args {
                if a.any(&|e| matches!(e, Expr::Function { name, .. } if AggFunc::from_name(name).is_some())) {
                    return Err(Error::Plan("nested aggregate functions".into()));
                }
            }
            if !out.contains(expr) {
                out.push(expr.clone());
            }
            return Ok(());
        }
    }
    match expr {
        Expr::Unary { expr, .. } => collect_aggregates(expr, out),
        Expr::Binary { left, right, .. } => {
            collect_aggregates(left, out)?;
            collect_aggregates(right, out)
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_aggregates(a, out)?;
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn agg_output_type(
    agg: &AggExpr,
    in_schema: &Schema,
    udfs: &UdfRegistry,
    _ast: &Expr,
) -> Result<DataType> {
    Ok(match agg.func {
        AggFunc::Count => DataType::Int64,
        AggFunc::Avg | AggFunc::StddevSamp => DataType::Float64,
        AggFunc::Sum => {
            let t =
                agg.arg.as_ref().expect("SUM requires an argument").data_type(in_schema, udfs)?;
            if t == DataType::Int64 {
                DataType::Int64
            } else {
                DataType::Float64
            }
        }
        AggFunc::Min | AggFunc::Max => {
            agg.arg.as_ref().expect("MIN/MAX require an argument").data_type(in_schema, udfs)?
        }
    })
}
