//! Relational-only forms of a collaborative query: the same query with
//! its nUDF removed.

use collab::query::contains_nudf;
use collab::ModelRepo;
use minidb::sql::ast::{Expr, Literal, Query, SelectItem};
use minidb::Value;

/// The query without inference: conjuncts that call an nUDF are dropped
/// and every other nUDF call becomes a constant of its output type, so
/// joins, grouping and ordering stay as they were.
pub fn without_nudf(q: &Query, repo: &ModelRepo) -> Query {
    let mut out = q.clone();
    out.predicate = relational_predicate(q, repo);
    for item in &mut out.projections {
        if let SelectItem::Expr { expr, .. } = item {
            *expr = replace_calls(expr, repo);
        }
    }
    out.group_by = out.group_by.iter().map(|e| replace_calls(e, repo)).collect();
    out.having = out.having.as_ref().map(|e| replace_calls(e, repo));
    for item in &mut out.order_by {
        item.expr = replace_calls(&item.expr, repo);
    }
    out
}

/// `SELECT count(*)` over the rows the query's relational predicates
/// admit: the candidates an nUDF would score after a perfect filter.
pub fn candidate_count(q: &Query, repo: &ModelRepo) -> Query {
    Query {
        distinct: false,
        projections: vec![SelectItem::Expr {
            expr: Expr::Function {
                name: "count".into(),
                args: vec![],
                star: true,
                distinct: false,
            },
            alias: None,
        }],
        from: q.from.clone(),
        predicate: relational_predicate(q, repo),
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
    }
}

fn relational_predicate(q: &Query, repo: &ModelRepo) -> Option<Expr> {
    let kept: Vec<Expr> = q
        .predicate
        .as_ref()?
        .conjuncts()
        .into_iter()
        .filter(|c| !contains_nudf(c, repo))
        .cloned()
        .collect();
    (!kept.is_empty()).then(|| Expr::conjoin(kept))
}

fn replace_calls(expr: &Expr, repo: &ModelRepo) -> Expr {
    match expr {
        Expr::Function { name, .. } if repo.is_nudf(name) => {
            let spec = repo.require(name).expect("is_nudf names a registered spec");
            Expr::Literal(match spec.output.to_value(0) {
                Value::Bool(b) => Literal::Bool(b),
                Value::Int64(i) => Literal::Int(i),
                other => Literal::Str(other.to_string()),
            })
        }
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(replace_calls(expr, repo)) }
        }
        Expr::Binary { left, op, right } => Expr::Binary {
            left: Box::new(replace_calls(left, repo)),
            op: *op,
            right: Box::new(replace_calls(right, repo)),
        },
        Expr::Function { name, args, star, distinct } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|a| replace_calls(a, repo)).collect(),
            star: *star,
            distinct: *distinct,
        },
        other => other.clone(),
    }
}
