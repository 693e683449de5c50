//! SQL pretty-printer: renders an AST back to parseable SQL text.
//!
//! Used for logging/debugging generated statements, and paired with the
//! parser in a round-trip property test (print → parse → identical AST).

use crate::sql::ast::*;

/// Renders a statement as SQL.
pub fn statement_to_sql(stmt: &Statement) -> String {
    match stmt {
        Statement::Query(q) => query_to_sql(q),
        Statement::CreateTable { name, temp, if_not_exists, columns, as_query } => {
            let temp_kw = if *temp { "TEMP " } else { "" };
            let ine = if *if_not_exists { "IF NOT EXISTS " } else { "" };
            match as_query {
                Some(q) => format!("CREATE {temp_kw}TABLE {ine}{name} AS {}", query_to_sql(q)),
                None => {
                    let cols: Vec<String> =
                        columns.iter().map(|(n, t)| format!("{n} {t}")).collect();
                    format!("CREATE {temp_kw}TABLE {ine}{name} ({})", cols.join(", "))
                }
            }
        }
        Statement::CreateView { name, query } => {
            format!("CREATE VIEW {name} AS {}", query_to_sql(query))
        }
        Statement::Insert { table, rows } => {
            let rendered: Vec<String> = rows
                .iter()
                .map(|r| {
                    let vals: Vec<String> = r.iter().map(expr_to_sql).collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            format!("INSERT INTO {table} VALUES {}", rendered.join(", "))
        }
        Statement::InsertSelect { table, query } => {
            format!("INSERT INTO {table} {}", query_to_sql(query))
        }
        Statement::Update { table, assignments, predicate } => {
            let sets: Vec<String> =
                assignments.iter().map(|(c, e)| format!("{c} = {}", expr_to_sql(e))).collect();
            let mut out = format!("UPDATE {table} SET {}", sets.join(", "));
            if let Some(p) = predicate {
                out.push_str(&format!(" WHERE {}", expr_to_sql(p)));
            }
            out
        }
        Statement::Drop { kind, name, if_exists } => {
            let kw = match kind {
                ObjectKind::Table => "TABLE",
                ObjectKind::View => "VIEW",
            };
            let ie = if *if_exists { "IF EXISTS " } else { "" };
            format!("DROP {kw} {ie}{name}")
        }
        Statement::Explain(q) => format!("EXPLAIN {}", query_to_sql(q)),
        Statement::ExplainAnalyze(inner) => {
            format!("EXPLAIN ANALYZE {}", statement_to_sql(inner))
        }
    }
}

/// Renders a query as SQL.
pub fn query_to_sql(q: &Query) -> String {
    let mut out = String::from("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = q
        .projections
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", expr_to_sql(expr)),
                None => expr_to_sql(expr),
            },
        })
        .collect();
    out.push_str(&items.join(", "));
    if !q.from.is_empty() {
        out.push_str(" FROM ");
        let froms: Vec<String> = q
            .from
            .iter()
            .map(|item| {
                let mut s = factor_to_sql(&item.factor);
                for j in &item.joins {
                    s.push_str(&format!(
                        " INNER JOIN {} ON {}",
                        factor_to_sql(&j.factor),
                        expr_to_sql(&j.on)
                    ));
                }
                s
            })
            .collect();
        out.push_str(&froms.join(", "));
    }
    if let Some(p) = &q.predicate {
        out.push_str(&format!(" WHERE {}", expr_to_sql(p)));
    }
    if !q.group_by.is_empty() {
        let keys: Vec<String> = q.group_by.iter().map(expr_to_sql).collect();
        out.push_str(&format!(" GROUP BY {}", keys.join(", ")));
    }
    if let Some(h) = &q.having {
        out.push_str(&format!(" HAVING {}", expr_to_sql(h)));
    }
    if !q.order_by.is_empty() {
        let keys: Vec<String> = q
            .order_by
            .iter()
            .map(|ob| {
                format!("{} {}", expr_to_sql(&ob.expr), if ob.ascending { "ASC" } else { "DESC" })
            })
            .collect();
        out.push_str(&format!(" ORDER BY {}", keys.join(", ")));
    }
    if let Some(n) = q.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    out
}

fn factor_to_sql(f: &TableFactor) -> String {
    match f {
        TableFactor::Named { name, alias } => match alias {
            Some(a) => format!("{name} AS {a}"),
            None => name.clone(),
        },
        TableFactor::Derived { query, alias } => {
            format!("({}) AS {alias}", query_to_sql(query))
        }
    }
}

/// Renders an expression as SQL (fully parenthesized where precedence
/// could matter).
pub fn expr_to_sql(e: &Expr) -> String {
    match e {
        Expr::Column { qualifier, name } => match qualifier {
            Some(q) => format!("{q}.{name}"),
            None => name.clone(),
        },
        Expr::Literal(Literal::Int(v)) => v.to_string(),
        Expr::Literal(Literal::Float(v)) => {
            // Keep the float-ness of round numbers ("2.0", not "2").
            if v.fract() == 0.0 && v.is_finite() {
                format!("{v:.1}")
            } else {
                v.to_string()
            }
        }
        Expr::Literal(Literal::Str(s)) => format!("'{}'", s.replace('\'', "''")),
        Expr::Literal(Literal::Bool(b)) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Neg => format!("(-{})", expr_to_sql(expr)),
            UnaryOp::Not => format!("(NOT {})", expr_to_sql(expr)),
        },
        Expr::Binary { left, op, right } => {
            let sym = match op {
                BinOp::Or => "OR",
                BinOp::And => "AND",
                BinOp::Eq => "=",
                BinOp::NotEq => "!=",
                BinOp::Lt => "<",
                BinOp::LtEq => "<=",
                BinOp::Gt => ">",
                BinOp::GtEq => ">=",
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Mod => "%",
            };
            format!("({} {sym} {})", expr_to_sql(left), expr_to_sql(right))
        }
        Expr::Function { name, args, star, distinct } => {
            if *star {
                return format!("{name}(*)");
            }
            let rendered: Vec<String> = args.iter().map(expr_to_sql).collect();
            let d = if *distinct { "DISTINCT " } else { "" };
            format!("{name}({d}{})", rendered.join(", "))
        }
        Expr::Subquery(q) => format!("({})", query_to_sql(q)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    fn roundtrip(sql: &str) {
        let first = parse_statement(sql).unwrap();
        let printed = statement_to_sql(&first);
        let second = parse_statement(&printed)
            .unwrap_or_else(|e| panic!("printed SQL fails to parse: {printed}\n{e}"));
        assert_eq!(first, second, "roundtrip changed the AST:\n{printed}");
    }

    #[test]
    fn paper_queries_roundtrip() {
        roundtrip(
            "SELECT sum(meter) FROM FABRIC F, Video V \
             WHERE F.printdate > '2021-01-01' and F.printdate < '2021-1-31' \
             and nUDF_classify(V.keyframe) = 'Floral Pattern'",
        );
        roundtrip(
            "SELECT patternID, count(nUDF_detect(V.keyframe) = TRUE) / sum(meter) AS rate \
             FROM FABRIC F INNER JOIN Video V ON F.transID = V.transID \
             GROUP BY patternID ORDER BY patternID ASC LIMIT 5",
        );
        roundtrip(
            "CREATE TEMP TABLE t AS SELECT MatrixID, SUM(a.Value * b.Value) AS Value \
                   FROM fm a, kernel b WHERE a.OrderID = b.OrderID GROUP BY MatrixID",
        );
        roundtrip("UPDATE cb_output SET Value = 0 WHERE Value < 0");
        roundtrip("INSERT INTO t VALUES (1, 'x''y'), (2, 'z')");
        roundtrip("DROP TABLE IF EXISTS tmp");
        roundtrip("EXPLAIN SELECT a FROM t WHERE a IN (1, 2, 3)");
        roundtrip("SELECT DISTINCT a, b FROM t WHERE a BETWEEN 1 AND 5");
    }

    #[test]
    fn scalar_subquery_roundtrips() {
        roundtrip(
            "SELECT (Value - (SELECT AVG(Value) FROM t)) / ((SELECT stddevSamp(Value) FROM t) + 0.00005) AS v FROM t",
        );
    }
}
