//! Bound (name-resolved) expressions and their vectorized evaluation.
//!
//! The planner turns AST expressions into [`BoundExpr`]s whose column
//! references are positional indices into the input plan's schema. Scalar
//! subqueries are evaluated at plan time and appear here as literals.

use std::collections::BTreeSet;
use std::sync::Arc;

use crate::column::Column;
use crate::error::{Error, Result};
use crate::sql::ast::{BinOp, UnaryOp};
use crate::table::{Schema, Table};
use crate::udf::UdfRegistry;
use crate::value::{DataType, Value};

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Sqrt,
    Exp,
    Ln,
    Floor,
    Ceil,
    Round,
    Pow,
    Greatest,
    Least,
    /// `if(cond, then, else)` — ClickHouse-style conditional.
    If,
}

impl ScalarFunc {
    /// Resolves a function name to a built-in, if it is one.
    pub fn from_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "sqrt" => ScalarFunc::Sqrt,
            "exp" => ScalarFunc::Exp,
            "ln" | "log" => ScalarFunc::Ln,
            "floor" => ScalarFunc::Floor,
            "ceil" | "ceiling" => ScalarFunc::Ceil,
            "round" => ScalarFunc::Round,
            "pow" | "power" => ScalarFunc::Pow,
            "greatest" => ScalarFunc::Greatest,
            "least" => ScalarFunc::Least,
            "if" => ScalarFunc::If,
            _ => return None,
        })
    }

    fn arity(&self) -> usize {
        match self {
            ScalarFunc::Pow | ScalarFunc::Greatest | ScalarFunc::Least => 2,
            ScalarFunc::If => 3,
            _ => 1,
        }
    }
}

/// A name-resolved scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Positional reference into the input schema.
    Column(usize),
    /// A constant.
    Literal(Value),
    /// Unary operator.
    Unary { op: UnaryOp, expr: Box<BoundExpr> },
    /// Binary operator.
    Binary { left: Box<BoundExpr>, op: BinOp, right: Box<BoundExpr> },
    /// Built-in scalar function.
    ScalarFn { func: ScalarFunc, args: Vec<BoundExpr> },
    /// User-defined function, resolved from the registry at evaluation.
    Udf { name: String, args: Vec<BoundExpr> },
}

/// Everything expression evaluation needs besides the input batch.
pub struct EvalContext<'a> {
    /// UDF registry for [`BoundExpr::Udf`] calls.
    pub udfs: &'a UdfRegistry,
}

impl BoundExpr {
    /// Result type of the expression against `schema`.
    pub fn data_type(&self, schema: &Schema, udfs: &UdfRegistry) -> Result<DataType> {
        match self {
            BoundExpr::Column(i) => {
                if *i >= schema.len() {
                    return Err(Error::Plan(format!("column index {i} out of range")));
                }
                Ok(schema.field(*i).data_type)
            }
            BoundExpr::Literal(v) => Ok(v.data_type()),
            BoundExpr::Unary { op, expr } => {
                let t = expr.data_type(schema, udfs)?;
                match op {
                    UnaryOp::Neg if t.is_numeric() => Ok(t),
                    UnaryOp::Not if t == DataType::Bool => Ok(DataType::Bool),
                    _ => Err(Error::Type(format!("cannot apply {op:?} to {t}"))),
                }
            }
            BoundExpr::Binary { left, op, right } => {
                let lt = left.data_type(schema, udfs)?;
                let rt = right.data_type(schema, udfs)?;
                binary_result_type(lt, *op, rt)
            }
            BoundExpr::ScalarFn { func, args } => {
                if args.len() != func.arity() {
                    return Err(Error::Type(format!(
                        "{func:?} expects {} arguments, got {}",
                        func.arity(),
                        args.len()
                    )));
                }
                match func {
                    ScalarFunc::If => args[1].data_type(schema, udfs),
                    ScalarFunc::Greatest | ScalarFunc::Least => args[0].data_type(schema, udfs),
                    ScalarFunc::Abs => args[0].data_type(schema, udfs),
                    ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Round => {
                        Ok(DataType::Float64)
                    }
                    _ => Ok(DataType::Float64),
                }
            }
            BoundExpr::Udf { name, .. } => {
                let udf =
                    udfs.get(name).ok_or_else(|| Error::NotFound(format!("function '{name}'")))?;
                Ok(udf.return_type)
            }
        }
    }

    /// Column indices the expression reads.
    pub fn referenced_columns(&self) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<usize>) {
        match self {
            BoundExpr::Column(i) => {
                out.insert(*i);
            }
            BoundExpr::Literal(_) => {}
            BoundExpr::Unary { expr, .. } => expr.collect_columns(out),
            BoundExpr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            BoundExpr::ScalarFn { args, .. } | BoundExpr::Udf { args, .. } => {
                for a in args {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// Whether the expression (or a sub-expression) calls a UDF.
    pub fn contains_udf(&self) -> bool {
        match self {
            BoundExpr::Udf { .. } => true,
            BoundExpr::Column(_) | BoundExpr::Literal(_) => false,
            BoundExpr::Unary { expr, .. } => expr.contains_udf(),
            BoundExpr::Binary { left, right, .. } => left.contains_udf() || right.contains_udf(),
            BoundExpr::ScalarFn { args, .. } => args.iter().any(BoundExpr::contains_udf),
        }
    }

    /// Rewrites every column index through `map` (`new = map[old]`).
    pub fn remap_columns(&mut self, map: &[usize]) {
        match self {
            BoundExpr::Column(i) => *i = map[*i],
            BoundExpr::Literal(_) => {}
            BoundExpr::Unary { expr, .. } => expr.remap_columns(map),
            BoundExpr::Binary { left, right, .. } => {
                left.remap_columns(map);
                right.remap_columns(map);
            }
            BoundExpr::ScalarFn { args, .. } | BoundExpr::Udf { args, .. } => {
                for a in args {
                    a.remap_columns(map);
                }
            }
        }
    }

    /// Folds constant subexpressions into literals. UDF calls are never
    /// folded (they may be stateful in cost terms and must be visible to
    /// the optimizer); any evaluation error leaves the node unfolded so
    /// execution reports it in context.
    pub fn fold_constants(self, ctx: &EvalContext<'_>) -> BoundExpr {
        match self {
            BoundExpr::Unary { op, expr } => {
                let inner = expr.fold_constants(ctx);
                let folded = BoundExpr::Unary { op, expr: Box::new(inner) };
                folded.try_const(ctx)
            }
            BoundExpr::Binary { left, op, right } => {
                let l = left.fold_constants(ctx);
                let r = right.fold_constants(ctx);
                let folded = BoundExpr::Binary { left: Box::new(l), op, right: Box::new(r) };
                folded.try_const(ctx)
            }
            BoundExpr::ScalarFn { func, args } => {
                let args = args.into_iter().map(|a| a.fold_constants(ctx)).collect();
                let folded = BoundExpr::ScalarFn { func, args };
                folded.try_const(ctx)
            }
            BoundExpr::Udf { name, args } => BoundExpr::Udf {
                name,
                args: args.into_iter().map(|a| a.fold_constants(ctx)).collect(),
            },
            leaf => leaf,
        }
    }

    /// Replaces `self` with a literal when it is constant, UDF-free and
    /// evaluates cleanly.
    fn try_const(self, ctx: &EvalContext<'_>) -> BoundExpr {
        if self.contains_udf() || !self.referenced_columns().is_empty() {
            return self;
        }
        match self.eval_scalar(ctx) {
            Ok(v) => BoundExpr::Literal(v),
            Err(_) => self,
        }
    }

    /// Evaluates over a table, producing one value per row.
    pub fn eval(&self, input: &Table, ctx: &EvalContext<'_>) -> Result<Column> {
        let n = input.num_rows();
        match self {
            BoundExpr::Column(i) => Ok(input.column(*i).clone()),
            BoundExpr::Literal(v) => Ok(broadcast(v, n)),
            BoundExpr::Unary { op, expr } => {
                let c = expr.eval(input, ctx)?;
                match op {
                    UnaryOp::Neg => match c {
                        Column::Int64(v) => Ok(Column::Int64(v.into_iter().map(|x| -x).collect())),
                        Column::Float64(v) => {
                            Ok(Column::Float64(v.into_iter().map(|x| -x).collect()))
                        }
                        other => Err(Error::Type(format!("cannot negate {}", other.data_type()))),
                    },
                    UnaryOp::Not => match c {
                        Column::Bool(v) => Ok(Column::Bool(v.into_iter().map(|b| !b).collect())),
                        other => Err(Error::Type(format!("cannot NOT {}", other.data_type()))),
                    },
                }
            }
            BoundExpr::Binary { left, op, right } => {
                // Short-circuit-free vectorized evaluation.
                let l = left.eval(input, ctx)?;
                let r = right.eval(input, ctx)?;
                eval_binary(&l, *op, &r)
            }
            BoundExpr::ScalarFn { func, args } => {
                let cols: Vec<Column> =
                    args.iter().map(|a| a.eval(input, ctx)).collect::<Result<_>>()?;
                eval_scalar_fn(*func, &cols, n)
            }
            BoundExpr::Udf { name, args } => {
                let udf = ctx
                    .udfs
                    .get(name)
                    .ok_or_else(|| Error::NotFound(format!("function '{name}'")))?;
                let cols: Vec<Column> =
                    args.iter().map(|a| a.eval(input, ctx)).collect::<Result<_>>()?;
                // Prefer the vectorized implementation when one exists
                // (the paper's "batch manner").
                if let Some(batch) = &udf.batch_func {
                    let out = batch(&cols)?;
                    if out.len() != n {
                        return Err(Error::Exec(format!(
                            "batched UDF {} returned {} values for {n} rows",
                            udf.name,
                            out.len()
                        )));
                    }
                    if out.data_type() != udf.return_type {
                        return Err(Error::Type(format!(
                            "batched UDF {} returned {} (declared {})",
                            udf.name,
                            out.data_type(),
                            udf.return_type
                        )));
                    }
                    return Ok(out);
                }
                let mut out = Column::empty(udf.return_type);
                let mut row_args = Vec::with_capacity(cols.len());
                for row in 0..n {
                    row_args.clear();
                    row_args.extend(cols.iter().map(|c| c.value(row)));
                    out.push(udf.invoke(&row_args)?)?;
                }
                Ok(out)
            }
        }
    }

    /// Evaluates an expression with no column references to a single value.
    pub fn eval_const(&self, ctx: &EvalContext<'_>) -> Result<Value> {
        if !self.referenced_columns().is_empty() {
            return Err(Error::Plan("expression is not constant".into()));
        }
        self.eval_scalar(ctx)
    }

    fn eval_scalar(&self, ctx: &EvalContext<'_>) -> Result<Value> {
        match self {
            BoundExpr::Column(_) => Err(Error::Plan("column in constant context".into())),
            BoundExpr::Literal(v) => Ok(v.clone()),
            BoundExpr::Unary { op, expr } => {
                let v = expr.eval_scalar(ctx)?;
                match op {
                    UnaryOp::Neg => match v {
                        Value::Int64(x) => Ok(Value::Int64(-x)),
                        Value::Float64(x) => Ok(Value::Float64(-x)),
                        other => Err(Error::Type(format!("cannot negate {}", other.data_type()))),
                    },
                    UnaryOp::Not => Ok(Value::Bool(!v.as_bool()?)),
                }
            }
            BoundExpr::Binary { left, op, right } => {
                let l = left.eval_scalar(ctx)?;
                let r = right.eval_scalar(ctx)?;
                scalar_binary(&l, *op, &r)
            }
            BoundExpr::ScalarFn { func, args } => {
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval_scalar(ctx)).collect::<Result<_>>()?;
                let cols: Vec<Column> = vals.iter().map(|v| broadcast(v, 1)).collect();
                let out = eval_scalar_fn(*func, &cols, 1)?;
                Ok(out.value(0))
            }
            BoundExpr::Udf { name, args } => {
                let udf = ctx
                    .udfs
                    .get(name)
                    .ok_or_else(|| Error::NotFound(format!("function '{name}'")))?;
                let vals: Vec<Value> =
                    args.iter().map(|a| a.eval_scalar(ctx)).collect::<Result<_>>()?;
                udf.invoke(&vals)
            }
        }
    }
}

fn broadcast(v: &Value, n: usize) -> Column {
    match v {
        Value::Int64(x) => Column::Int64(vec![*x; n]),
        Value::Float64(x) => Column::Float64(vec![*x; n]),
        Value::Bool(b) => Column::Bool(vec![*b; n]),
        Value::Utf8(s) => Column::Utf8(vec![s.clone(); n]),
        Value::Date(d) => Column::Date(vec![*d; n]),
        Value::Blob(b) => Column::Blob(vec![Arc::clone(b); n]),
    }
}

fn binary_result_type(lt: DataType, op: BinOp, rt: DataType) -> Result<DataType> {
    use BinOp::*;
    match op {
        And | Or => {
            if lt == DataType::Bool && rt == DataType::Bool {
                Ok(DataType::Bool)
            } else {
                Err(Error::Type(format!("{op:?} needs booleans, got {lt} and {rt}")))
            }
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => Ok(DataType::Bool),
        Add | Sub | Mul | Mod => {
            if lt == DataType::Int64 && rt == DataType::Int64 {
                Ok(DataType::Int64)
            } else if lt.is_numeric() && rt.is_numeric() {
                Ok(DataType::Float64)
            } else {
                Err(Error::Type(format!("cannot {op:?} {lt} and {rt}")))
            }
        }
        // Division always yields Float64 (ClickHouse semantics; the paper's
        // count()/sum() ratios rely on it).
        Div => {
            if lt.is_numeric() && rt.is_numeric() {
                Ok(DataType::Float64)
            } else {
                Err(Error::Type(format!("cannot divide {lt} by {rt}")))
            }
        }
    }
}

fn eval_binary(l: &Column, op: BinOp, r: &Column) -> Result<Column> {
    use BinOp::*;
    let n = l.len();
    if r.len() != n {
        return Err(Error::Exec("binary operands differ in length".into()));
    }
    match op {
        And | Or => {
            let a = l.as_bool_slice()?;
            let b = r.as_bool_slice()?;
            let out = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| if op == And { x && y } else { x || y })
                .collect();
            Ok(Column::Bool(out))
        }
        Add | Sub | Mul | Mod | Div => {
            // Integer fast path (Div always goes through floats).
            if let (Column::Int64(a), Column::Int64(b)) = (l, r) {
                if op != Div {
                    let out: Result<Vec<i64>> = a
                        .iter()
                        .zip(b.iter())
                        .map(|(&x, &y)| match op {
                            Add => Ok(x.wrapping_add(y)),
                            Sub => Ok(x.wrapping_sub(y)),
                            Mul => Ok(x.wrapping_mul(y)),
                            Mod => {
                                if y == 0 {
                                    Err(Error::Exec("modulo by zero".into()))
                                } else {
                                    Ok(x % y)
                                }
                            }
                            _ => unreachable!(),
                        })
                        .collect();
                    return Ok(Column::Int64(out?));
                }
            }
            let a = l.as_f64_vec()?;
            let b = r.as_f64_vec()?;
            let out: Vec<f64> = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => x / y,
                    Mod => x % y,
                    _ => unreachable!(),
                })
                .collect();
            Ok(Column::Float64(out))
        }
        Eq | NotEq | Lt | LtEq | Gt | GtEq => {
            let mut out = Vec::with_capacity(n);
            // Typed fast path for numeric columns.
            if l.data_type().is_numeric() && r.data_type().is_numeric() {
                let a = l.as_f64_vec()?;
                let b = r.as_f64_vec()?;
                for (&x, &y) in a.iter().zip(b.iter()) {
                    out.push(match op {
                        Eq => x == y,
                        NotEq => x != y,
                        Lt => x < y,
                        LtEq => x <= y,
                        Gt => x > y,
                        GtEq => x >= y,
                        _ => unreachable!(),
                    });
                }
            } else {
                for row in 0..n {
                    let x = l.value(row);
                    let y = r.value(row);
                    let ord = x.total_cmp(&y);
                    out.push(match op {
                        Eq => x.sql_eq(&y),
                        NotEq => !x.sql_eq(&y),
                        Lt => ord.is_lt(),
                        LtEq => ord.is_le(),
                        Gt => ord.is_gt(),
                        GtEq => ord.is_ge(),
                        _ => unreachable!(),
                    });
                }
            }
            Ok(Column::Bool(out))
        }
    }
}

fn scalar_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    let lc = broadcast(l, 1);
    let rc = broadcast(r, 1);
    Ok(eval_binary(&lc, op, &rc)?.value(0))
}

fn eval_scalar_fn(func: ScalarFunc, cols: &[Column], n: usize) -> Result<Column> {
    use ScalarFunc::*;
    match func {
        If => {
            #[allow(clippy::needless_range_loop)] // row indexes three parallel columns
            let cond = cols[0].as_bool_slice()?;
            let mut out = Column::empty(cols[1].data_type());
            #[allow(clippy::needless_range_loop)] // row indexes three parallel columns
            for row in 0..n {
                out.push(if cond[row] { cols[1].value(row) } else { cols[2].value(row) })?;
            }
            Ok(out)
        }
        Greatest | Least => {
            // Preserve Int64 when both inputs are Int64.
            if let (Column::Int64(a), Column::Int64(b)) = (&cols[0], &cols[1]) {
                let out = a
                    .iter()
                    .zip(b.iter())
                    .map(|(&x, &y)| if func == Greatest { x.max(y) } else { x.min(y) })
                    .collect();
                return Ok(Column::Int64(out));
            }
            let a = cols[0].as_f64_vec()?;
            let b = cols[1].as_f64_vec()?;
            let out = a
                .iter()
                .zip(b.iter())
                .map(|(&x, &y)| if func == Greatest { x.max(y) } else { x.min(y) })
                .collect();
            Ok(Column::Float64(out))
        }
        Abs => match &cols[0] {
            Column::Int64(v) => Ok(Column::Int64(v.iter().map(|x| x.abs()).collect())),
            other => Ok(Column::Float64(other.as_f64_vec()?.iter().map(|x| x.abs()).collect())),
        },
        Pow => {
            let a = cols[0].as_f64_vec()?;
            let b = cols[1].as_f64_vec()?;
            Ok(Column::Float64(a.iter().zip(b.iter()).map(|(&x, &y)| x.powf(y)).collect()))
        }
        _ => {
            let a = cols[0].as_f64_vec()?;
            let out: Vec<f64> = a
                .iter()
                .map(|&x| match func {
                    Sqrt => x.sqrt(),
                    Exp => x.exp(),
                    Ln => x.ln(),
                    Floor => x.floor(),
                    Ceil => x.ceil(),
                    Round => x.round(),
                    _ => unreachable!(),
                })
                .collect();
            Ok(Column::Float64(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Field;

    fn ctx_table() -> (UdfRegistry, Table) {
        let udfs = UdfRegistry::new();
        let t = Table::new(
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Float64),
                Field::new("s", DataType::Utf8),
            ]),
            vec![
                Column::Int64(vec![1, 2, 3]),
                Column::Float64(vec![0.5, 1.5, 2.5]),
                Column::Utf8(vec!["x".into(), "y".into(), "x".into()]),
            ],
        )
        .unwrap();
        (udfs, t)
    }

    #[test]
    fn arithmetic_keeps_ints_except_division() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Add,
            right: Box::new(BoundExpr::Literal(Value::Int64(10))),
        };
        assert_eq!(e.eval(&t, &ctx).unwrap(), Column::Int64(vec![11, 12, 13]));

        let d = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int64(2))),
        };
        assert_eq!(d.eval(&t, &ctx).unwrap(), Column::Float64(vec![0.5, 1.0, 1.5]));
    }

    #[test]
    fn comparisons_and_boolean_logic() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        // a >= 2 AND s = 'x'
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: BinOp::GtEq,
                right: Box::new(BoundExpr::Literal(Value::Int64(2))),
            }),
            op: BinOp::And,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(2)),
                op: BinOp::Eq,
                right: Box::new(BoundExpr::Literal(Value::Utf8("x".into()))),
            }),
        };
        assert_eq!(e.eval(&t, &ctx).unwrap(), Column::Bool(vec![false, false, true]));
    }

    #[test]
    fn scalar_functions() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::ScalarFn {
            func: ScalarFunc::Greatest,
            args: vec![BoundExpr::Column(1), BoundExpr::Literal(Value::Float64(1.0))],
        };
        assert_eq!(e.eval(&t, &ctx).unwrap(), Column::Float64(vec![1.0, 1.5, 2.5]));
    }

    #[test]
    fn udf_evaluation_row_by_row() {
        let (udfs, t) = ctx_table();
        udfs.register(crate::udf::ScalarUdf::new(
            "plus_one",
            vec![DataType::Int64],
            DataType::Int64,
            |args| Ok(Value::Int64(args[0].as_i64()? + 1)),
        ));
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Udf { name: "plus_one".into(), args: vec![BoundExpr::Column(0)] };
        assert_eq!(e.eval(&t, &ctx).unwrap(), Column::Int64(vec![2, 3, 4]));
        assert!(e.contains_udf());
    }

    #[test]
    fn batched_udf_is_preferred_and_validated() {
        let (udfs, t) = ctx_table();
        udfs.register(
            crate::udf::ScalarUdf::new("neg", vec![DataType::Int64], DataType::Int64, |args| {
                Ok(Value::Int64(-args[0].as_i64()?))
            })
            .with_batch(|cols| match &cols[0] {
                Column::Int64(v) => Ok(Column::Int64(v.iter().map(|x| -x).collect())),
                other => Err(Error::Type(format!("expected Int64, got {}", other.data_type()))),
            }),
        );
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Udf { name: "neg".into(), args: vec![BoundExpr::Column(0)] };
        assert_eq!(e.eval(&t, &ctx).unwrap(), Column::Int64(vec![-1, -2, -3]));

        // A misbehaving batch impl (wrong length) is rejected.
        udfs.register(
            crate::udf::ScalarUdf::new("bad", vec![DataType::Int64], DataType::Int64, |_| {
                Ok(Value::Int64(0))
            })
            .with_batch(|_| Ok(Column::Int64(vec![0]))),
        );
        let b = BoundExpr::Udf { name: "bad".into(), args: vec![BoundExpr::Column(0)] };
        assert!(b.eval(&t, &ctx).is_err());
    }

    #[test]
    fn missing_udf_is_a_clean_error() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Udf { name: "ghost".into(), args: vec![] };
        assert!(matches!(e.eval(&t, &ctx), Err(Error::NotFound(_))));
    }

    #[test]
    fn constant_folding() {
        let udfs = UdfRegistry::new();
        udfs.register(crate::udf::ScalarUdf::new("f", vec![], DataType::Int64, |_| {
            Ok(Value::Int64(1))
        }));
        let ctx = EvalContext { udfs: &udfs };
        // (1 + 2) * 3 folds to 9.
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(Value::Int64(1))),
                op: BinOp::Add,
                right: Box::new(BoundExpr::Literal(Value::Int64(2))),
            }),
            op: BinOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int64(3))),
        };
        assert_eq!(e.fold_constants(&ctx), BoundExpr::Literal(Value::Int64(9)));

        // col + (2 * 2) folds only the right side.
        let partial = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Add,
            right: Box::new(BoundExpr::Binary {
                left: Box::new(BoundExpr::Literal(Value::Int64(2))),
                op: BinOp::Mul,
                right: Box::new(BoundExpr::Literal(Value::Int64(2))),
            }),
        };
        let folded = partial.fold_constants(&ctx);
        let BoundExpr::Binary { right, .. } = &folded else { panic!() };
        assert_eq!(**right, BoundExpr::Literal(Value::Int64(4)));

        // UDFs never fold, even with constant arguments.
        let udf = BoundExpr::Udf { name: "f".into(), args: vec![] };
        assert!(matches!(udf.fold_constants(&ctx), BoundExpr::Udf { .. }));

        // 1 % 0 would error: left unfolded for execution to report.
        let div0 = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int64(1))),
            op: BinOp::Mod,
            right: Box::new(BoundExpr::Literal(Value::Int64(0))),
        };
        assert!(matches!(div0.fold_constants(&ctx), BoundExpr::Binary { .. }));
    }

    #[test]
    fn const_eval() {
        let udfs = UdfRegistry::new();
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Literal(Value::Int64(2))),
            op: BinOp::Mul,
            right: Box::new(BoundExpr::Literal(Value::Int64(21))),
        };
        assert_eq!(e.eval_const(&ctx).unwrap().as_i64().unwrap(), 42);
        assert!(BoundExpr::Column(0).eval_const(&ctx).is_err());
    }

    #[test]
    fn referenced_columns_and_remap() {
        let mut e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Add,
            right: Box::new(BoundExpr::Column(2)),
        };
        assert_eq!(e.referenced_columns().into_iter().collect::<Vec<_>>(), vec![0, 2]);
        e.remap_columns(&[5, 6, 7]);
        assert_eq!(e.referenced_columns().into_iter().collect::<Vec<_>>(), vec![5, 7]);
    }

    #[test]
    fn type_inference_matches_eval() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        let exprs = vec![
            BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: BinOp::Mul,
                right: Box::new(BoundExpr::Column(0)),
            },
            BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: BinOp::Div,
                right: Box::new(BoundExpr::Column(1)),
            },
            BoundExpr::Binary {
                left: Box::new(BoundExpr::Column(0)),
                op: BinOp::Lt,
                right: Box::new(BoundExpr::Column(1)),
            },
        ];
        for e in exprs {
            let declared = e.data_type(t.schema(), &udfs).unwrap();
            let actual = e.eval(&t, &ctx).unwrap().data_type();
            assert_eq!(declared, actual, "{e:?}");
        }
    }

    #[test]
    fn division_by_zero_yields_infinity_like_floats() {
        let (udfs, t) = ctx_table();
        let ctx = EvalContext { udfs: &udfs };
        let e = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Div,
            right: Box::new(BoundExpr::Literal(Value::Int64(0))),
        };
        let c = e.eval(&t, &ctx).unwrap();
        assert!(c.f64_at(0).is_infinite());
        // Integer modulo by zero is an error instead.
        let m = BoundExpr::Binary {
            left: Box::new(BoundExpr::Column(0)),
            op: BinOp::Mod,
            right: Box::new(BoundExpr::Literal(Value::Int64(0))),
        };
        assert!(m.eval(&t, &ctx).is_err());
    }
}
