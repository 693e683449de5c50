//! Abstract syntax tree for the supported SQL dialect.

use crate::value::DataType;

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A `SELECT` query.
    Query(Query),
    /// `CREATE [TEMP] TABLE name (col type, ...)` or
    /// `CREATE [TEMP] TABLE name AS <query>`.
    CreateTable {
        name: String,
        temp: bool,
        if_not_exists: bool,
        columns: Vec<(String, DataType)>,
        as_query: Option<Query>,
    },
    /// `CREATE VIEW name AS <query>`.
    CreateView { name: String, query: Query },
    /// `INSERT INTO name VALUES (...), (...)`.
    Insert { table: String, rows: Vec<Vec<Expr>> },
    /// `INSERT INTO name SELECT ...`.
    InsertSelect { table: String, query: Query },
    /// `UPDATE name SET col = expr [, ...] [WHERE pred]`.
    Update { table: String, assignments: Vec<(String, Expr)>, predicate: Option<Expr> },
    /// `DROP TABLE|VIEW [IF EXISTS] name`.
    Drop { kind: ObjectKind, name: String, if_exists: bool },
    /// `EXPLAIN <select>` — returns the optimized plan as text.
    Explain(Query),
    /// `EXPLAIN ANALYZE <statement>` — executes the statement under a
    /// forced trace and returns its annotated span tree as text. Any
    /// statement kind is allowed (the DL2SQL scripts are CREATE TEMP
    /// TABLE / UPDATE heavy).
    ExplainAnalyze(Box<Statement>),
}

/// What a DROP statement targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectKind {
    Table,
    View,
}

/// A `SELECT` query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select-list items.
    pub projections: Vec<SelectItem>,
    /// Comma-separated FROM items, each with optional JOIN chains.
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub predicate: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// HAVING predicate.
    pub having: Option<Expr>,
    /// ORDER BY items.
    pub order_by: Vec<OrderByItem>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// One select-list entry.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `expr [AS alias]`.
    Expr { expr: Expr, alias: Option<String> },
}

/// One comma-separated FROM entry with its JOIN chain.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub factor: TableFactor,
    pub joins: Vec<Join>,
}

/// An explicit `[INNER] JOIN factor ON expr`.
#[derive(Debug, Clone, PartialEq)]
pub struct Join {
    pub factor: TableFactor,
    pub on: Expr,
}

/// A table reference in FROM.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFactor {
    /// A named table or view, with an optional alias.
    Named { name: String, alias: Option<String> },
    /// A parenthesized derived table with an alias.
    Derived { query: Box<Query>, alias: String },
}

impl TableFactor {
    /// The name this factor binds in the query's namespace.
    pub fn binding_name(&self) -> &str {
        match self {
            TableFactor::Named { name, alias } => alias.as_deref().unwrap_or(name),
            TableFactor::Derived { alias, .. } => alias,
        }
    }
}

/// `expr [ASC | DESC]`.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub ascending: bool,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `name` or `qualifier.name`.
    Column { qualifier: Option<String>, name: String },
    /// A literal.
    Literal(Literal),
    /// Unary operator application.
    Unary { op: UnaryOp, expr: Box<Expr> },
    /// Binary operator application.
    Binary { left: Box<Expr>, op: BinOp, right: Box<Expr> },
    /// Function call: scalar built-in, aggregate, or UDF. `distinct` and
    /// `star` cover `COUNT(DISTINCT x)` / `COUNT(*)`.
    Function { name: String, args: Vec<Expr>, star: bool, distinct: bool },
    /// A parenthesized scalar subquery.
    Subquery(Box<Query>),
}

/// A literal value.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
}

/// Binary operators, in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl Expr {
    /// Convenience constructor for an unqualified column reference.
    pub fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    /// Convenience constructor for a qualified column reference.
    pub fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column { qualifier: Some(qualifier.to_string()), name: name.to_string() }
    }

    /// Builds `left op right`.
    pub fn binary(left: Expr, op: BinOp, right: Expr) -> Expr {
        Expr::Binary { left: Box::new(left), op, right: Box::new(right) }
    }

    /// Splits a conjunctive predicate into its AND-ed conjuncts.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        match self {
            Expr::Binary { left, op: BinOp::And, right } => {
                let mut out = left.conjuncts();
                out.extend(right.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Rebuilds a predicate from conjuncts (empty input yields `TRUE`).
    pub fn conjoin(exprs: Vec<Expr>) -> Expr {
        exprs
            .into_iter()
            .reduce(|a, b| Expr::binary(a, BinOp::And, b))
            .unwrap_or(Expr::Literal(Literal::Bool(true)))
    }

    /// Walks the expression tree, calling `f` on every node.
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } => expr.visit(f),
            Expr::Binary { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.visit(f);
                }
            }
            Expr::Column { .. } | Expr::Literal(_) | Expr::Subquery(_) => {}
        }
    }

    /// Whether any node satisfies `pred`.
    pub fn any(&self, pred: &impl Fn(&Expr) -> bool) -> bool {
        let mut found = false;
        self.visit(&mut |e| {
            if pred(e) {
                found = true;
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::binary(
            Expr::binary(Expr::col("a"), BinOp::And, Expr::col("b")),
            BinOp::And,
            Expr::col("c"),
        );
        assert_eq!(e.conjuncts().len(), 3);
        // OR is not split.
        let o = Expr::binary(Expr::col("a"), BinOp::Or, Expr::col("b"));
        assert_eq!(o.conjuncts().len(), 1);
    }

    #[test]
    fn conjoin_inverts_conjuncts() {
        let parts = vec![Expr::col("a"), Expr::col("b")];
        let e = Expr::conjoin(parts);
        assert_eq!(e.conjuncts().len(), 2);
        assert_eq!(Expr::conjoin(vec![]), Expr::Literal(Literal::Bool(true)));
    }

    #[test]
    fn any_finds_functions() {
        let e = Expr::binary(
            Expr::Function {
                name: "f".into(),
                args: vec![Expr::col("x")],
                star: false,
                distinct: false,
            },
            BinOp::Eq,
            Expr::Literal(Literal::Int(1)),
        );
        assert!(e.any(&|n| matches!(n, Expr::Function { .. })));
        assert!(!Expr::col("x").any(&|n| matches!(n, Expr::Function { .. })));
    }

    #[test]
    fn binding_names() {
        let named = TableFactor::Named { name: "fabric".into(), alias: Some("F".into()) };
        assert_eq!(named.binding_name(), "F");
        let bare = TableFactor::Named { name: "fabric".into(), alias: None };
        assert_eq!(bare.binding_name(), "fabric");
    }
}
