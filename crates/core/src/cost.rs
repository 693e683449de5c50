//! The customized cost model (paper Sec. IV-A, Eq. 3–8).
//!
//! The stock estimator has no idea that DL2SQL's tables are *regular*: a
//! staged feature-map row matches **exactly one** kernel row per output
//! channel, so the conv join's output is `T_in · N_out` rows and the
//! following group-by collapses it to `H_out·W_out·N_out` — quantities the
//! compiler knows in closed form. This model recognizes those patterns
//! through the [`NeuralRegistry`] and prices them with the paper's
//! formulas:
//!
//! * join selectivity `S_J = 1/k_in` (Eq. 4),
//! * output feature-map cardinality `T_out = T_in · S_J · k_out` (Eq. 5),
//! * join cost `C_join = T_in + T_out·k_in` (Eq. 6) and the `+T_out`
//!   mapping term (Eq. 7),
//! * mapping joins priced as a scan of their output (the mapping table is
//!   "fully maintained in the L2 cache").
//!
//! Every non-neural node falls back to textbook estimation, with UDF class
//! histograms enabled (this is the model DL2SQL-OP runs under).

use std::sync::Arc;

use minidb::cost::{
    parallel_discount, udf_cost_of_expr, CostContext, CostModel, DefaultCostModel, PlanCost,
};
use minidb::plan::logical::LogicalPlan;

use crate::registry::{NeuralRegistry, TableRole};

/// Cost-unit weight of a sequential row touch (scan, projection,
/// element-wise math) relative to a hashed row touch (join build/probe,
/// group-by). The paper's customized model prices BN/ReLU/pooling as "a
/// linear function to the feature map" — i.e. cheap sequential passes —
/// while joins pay per-probe hashing.
const SEQ_WEIGHT: f64 = 0.15;

/// The paper's customized cost model.
pub struct Dl2SqlCostModel {
    registry: Arc<NeuralRegistry>,
    fallback: DefaultCostModel,
}

impl Dl2SqlCostModel {
    /// Builds the model over a compiler-populated registry.
    pub fn new(registry: Arc<NeuralRegistry>) -> Self {
        Dl2SqlCostModel { registry, fallback: DefaultCostModel::with_udf_hints() }
    }

    /// The role of a plan node when it is a direct scan (optionally under
    /// a filter that doesn't change the role).
    fn scan_role(&self, plan: &LogicalPlan) -> Option<TableRole> {
        match plan {
            LogicalPlan::Scan { table, .. } => self.registry.role(table),
            LogicalPlan::Filter { input, .. } => self.scan_role(input),
            _ => None,
        }
    }

    /// If `plan` is the conv join pattern (staged feature map ⋈ kernel),
    /// returns `(t_in, k_in, n_out)`.
    fn conv_join_geometry(&self, plan: &LogicalPlan) -> Option<(u64, u64, u64)> {
        let LogicalPlan::Join { left, right, .. } = plan else {
            return None;
        };
        self.conv_sides_geometry(left, right)
    }

    /// Conv geometry from the two join inputs directly (shared by the
    /// unfused `Join` and the fused `JoinAggregate` patterns).
    fn conv_sides_geometry(
        &self,
        left: &LogicalPlan,
        right: &LogicalPlan,
    ) -> Option<(u64, u64, u64)> {
        let (l, r) = (self.scan_role(left), self.scan_role(right));
        match (l, r) {
            (
                Some(TableRole::StagedFeatureMap { t_in, k_in }),
                Some(TableRole::Kernel { n_out, .. }),
            )
            | (
                Some(TableRole::Kernel { n_out, .. }),
                Some(TableRole::StagedFeatureMap { t_in, k_in }),
            ) => Some((t_in, k_in, n_out)),
            _ => None,
        }
    }

    /// If `plan` is a mapping join (state ⋈ mapping), returns the mapping
    /// cardinality (= output cardinality: each mapping row matches exactly
    /// one state cell).
    fn mapping_join_rows(&self, plan: &LogicalPlan) -> Option<u64> {
        let (LogicalPlan::Join { left, right, .. } | LogicalPlan::Cross { left, right, .. }) = plan
        else {
            return None;
        };
        self.mapping_sides_rows(left, right)
    }

    /// Mapping cardinality from the two join inputs directly.
    fn mapping_sides_rows(&self, left: &LogicalPlan, right: &LogicalPlan) -> Option<u64> {
        match (self.scan_role(left), self.scan_role(right)) {
            (Some(TableRole::Mapping { rows }), Some(TableRole::State { .. }))
            | (Some(TableRole::State { .. }), Some(TableRole::Mapping { rows })) => Some(rows),
            _ => None,
        }
    }
}

impl CostModel for Dl2SqlCostModel {
    fn estimate(&self, plan: &LogicalPlan, ctx: &CostContext<'_>) -> PlanCost {
        match plan {
            LogicalPlan::Scan { table, .. } => {
                match self.registry.role(table) {
                    // Exact cardinalities straight from the registry;
                    // scans are sequential passes.
                    Some(TableRole::StagedFeatureMap { t_in, .. }) => {
                        PlanCost { rows: t_in as f64, cost: t_in as f64 * SEQ_WEIGHT }
                    }
                    Some(TableRole::Kernel { k_in, n_out }) => {
                        let rows = (k_in * n_out) as f64;
                        PlanCost { rows, cost: rows * SEQ_WEIGHT }
                    }
                    Some(TableRole::State { rows }) => {
                        PlanCost { rows: rows as f64, cost: rows as f64 * SEQ_WEIGHT }
                    }
                    // Mapping tables are cache-resident: scanning them is
                    // (close to) free relative to everything else.
                    Some(TableRole::Mapping { rows }) => {
                        PlanCost { rows: rows as f64, cost: rows as f64 * 0.1 * SEQ_WEIGHT }
                    }
                    None => self.fallback.estimate(plan, ctx),
                }
            }

            LogicalPlan::Join { left, right, residual, keys, .. } => {
                if let Some((t_in, k_in, n_out)) = self.conv_join_geometry(plan) {
                    let l = self.estimate(left, ctx);
                    let r = self.estimate(right, ctx);
                    // Exact: every staged row matches one kernel row per
                    // output channel. T_out (paper Eq. 5) written in
                    // group-count terms: rows = T_in · N_out before the
                    // group-by; C_join = T_in + T_out·k_in (Eq. 6), where
                    // T_out·k_in = T_in·N_out probe emissions.
                    let rows = (t_in * n_out) as f64;
                    // Probe + emission work spreads across morsels; the
                    // (small) kernel-side build is inside the scan costs.
                    let cost = l.cost + r.cost + (t_in as f64 + rows) * parallel_discount(ctx);
                    let _ = k_in;
                    return PlanCost { rows, cost };
                }
                if let Some(map_rows) = self.mapping_join_rows(plan) {
                    let l = self.estimate(left, ctx);
                    let r = self.estimate(right, ctx);
                    // Paper: "approximately identical to scanning the
                    // output table" (the +T_out term of Eq. 7).
                    let rows = map_rows as f64;
                    return PlanCost {
                        rows,
                        cost: l.cost + r.cost + rows * SEQ_WEIGHT * parallel_discount(ctx),
                    };
                }
                // Broadcast join: a state table joined with a tiny
                // per-channel table (normalization statistics, biases) —
                // one cheap probe per state row, output = state rows.
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                let state_rows = match (self.scan_role(left), self.scan_role(right)) {
                    (Some(TableRole::State { rows }), _) if r.rows * 4.0 <= rows as f64 => {
                        Some(rows)
                    }
                    (_, Some(TableRole::State { rows })) if l.rows * 4.0 <= rows as f64 => {
                        Some(rows)
                    }
                    _ => None,
                };
                if let Some(rows) = state_rows {
                    let rows = rows as f64;
                    return PlanCost {
                        rows,
                        cost: l.cost + r.cost + rows * parallel_discount(ctx),
                    };
                }
                let mut sel = 1.0;
                for (lk, rk) in keys {
                    sel *= self.fallback.join_key_selectivity(lk, left, rk, right, ctx);
                }
                let mut rows = (l.rows * r.rows * sel).max(1.0);
                if let Some(res) = residual {
                    rows *= self.fallback.predicate_selectivity(res, plan, ctx);
                }
                // As in the default model: the build side stays serial, the
                // probe + emission work spreads across morsels.
                let build = l.rows.min(r.rows);
                let own = l.rows + r.rows + rows;
                PlanCost {
                    rows: rows.max(1.0),
                    cost: l.cost + r.cost + build + (own - build) * parallel_discount(ctx),
                }
            }

            LogicalPlan::Aggregate { input, group, aggs, .. } => {
                let child = self.estimate(input, ctx);
                // Group-by over the conv join collapses by exactly k_in.
                if let Some((_, k_in, _)) = self.conv_join_geometry(input) {
                    let rows = (child.rows / k_in as f64).max(1.0);
                    return PlanCost { rows, cost: child.cost + rows * parallel_discount(ctx) };
                }
                // Group-by over a state table by KernelID (normalization
                // statistics): one row per channel — small; price as one
                // pass over the input.
                let rows = if group.is_empty() { 1.0 } else { (child.rows * 0.1).max(1.0) };
                let udf: f64 = aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .map(|e| udf_cost_of_expr(e, ctx))
                    .sum();
                PlanCost {
                    rows,
                    cost: child.cost + child.rows * (1.0 + udf) * parallel_discount(ctx),
                }
            }

            LogicalPlan::JoinAggregate { left, right, keys, group, aggs, .. } => {
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                // Fused conv join + group-by: T_in·N_out pair emissions
                // (Eq. 5–6) fold straight into T_in·N_out/k_in groups; the
                // intermediate table — and the unfused plan's extra
                // aggregation pass over it — never exists.
                if let Some((t_in, k_in, n_out)) = self.conv_sides_geometry(left, right) {
                    let pairs = (t_in * n_out) as f64;
                    let rows = (pairs / k_in as f64).max(1.0);
                    let cost = l.cost + r.cost + (t_in as f64 + pairs) * parallel_discount(ctx);
                    return PlanCost { rows, cost };
                }
                // Fused pooling: each mapping row matches one state cell,
                // folded during a cache-resident sequential pass.
                if let Some(map_rows) = self.mapping_sides_rows(left, right) {
                    let pairs = map_rows as f64;
                    let rows = if group.is_empty() { 1.0 } else { (pairs * 0.1).max(1.0) };
                    return PlanCost {
                        rows,
                        cost: l.cost + r.cost + pairs * SEQ_WEIGHT * parallel_discount(ctx),
                    };
                }
                // Generic fused pair: the default Join + Aggregate formulas
                // minus the join-output materialization pass.
                let mut sel = 1.0;
                for (lk, rk) in keys {
                    sel *= self.fallback.join_key_selectivity(lk, left, rk, right, ctx);
                }
                let join_rows = (l.rows * r.rows * sel).max(1.0);
                let rows = if group.is_empty() { 1.0 } else { (join_rows * 0.1).max(1.0) };
                let udf: f64 = aggs
                    .iter()
                    .filter_map(|a| a.arg.as_ref())
                    .map(|e| udf_cost_of_expr(e, ctx))
                    .sum();
                let build = l.rows.min(r.rows);
                let own = l.rows + r.rows + join_rows * (1.0 + udf);
                PlanCost {
                    rows,
                    cost: l.cost + r.cost + build + (own - build) * parallel_discount(ctx),
                }
            }

            LogicalPlan::Filter { input, predicate } => {
                let child = self.estimate(input, ctx);
                let sel = self.fallback.predicate_selectivity(predicate, input, ctx);
                let per_row = SEQ_WEIGHT + udf_cost_of_expr(predicate, ctx);
                PlanCost {
                    rows: (child.rows * sel).max(0.0),
                    cost: child.cost + child.rows * per_row * parallel_discount(ctx),
                }
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let child = self.estimate(input, ctx);
                let per_row: f64 =
                    SEQ_WEIGHT + exprs.iter().map(|e| udf_cost_of_expr(e, ctx)).sum::<f64>();
                PlanCost {
                    rows: child.rows,
                    cost: child.cost + child.rows * per_row * parallel_discount(ctx),
                }
            }
            LogicalPlan::Cross { left, right, .. } => {
                if let Some(map_rows) = self.mapping_join_rows(plan) {
                    let l = self.estimate(left, ctx);
                    let r = self.estimate(right, ctx);
                    let rows = map_rows as f64;
                    return PlanCost { rows, cost: l.cost + r.cost + rows };
                }
                let l = self.estimate(left, ctx);
                let r = self.estimate(right, ctx);
                let rows = (l.rows * r.rows).max(1.0);
                PlanCost { rows, cost: l.cost + r.cost + rows }
            }
            LogicalPlan::Sort { input, .. } => {
                let child = self.estimate(input, ctx);
                let n = child.rows.max(2.0);
                PlanCost { rows: child.rows, cost: child.cost + n * n.log2() }
            }
            LogicalPlan::Limit { input, n } => {
                let child = self.estimate(input, ctx);
                PlanCost { rows: child.rows.min(*n as f64), cost: child.cost }
            }
            // Nodes without neural structure defer entirely.
            other => self.fallback.estimate(other, ctx),
        }
    }

    fn name(&self) -> &'static str {
        "dl2sql-customized"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile_model;
    use crate::storage;
    use minidb::Database;
    use neuro::{zoo, Tensor};

    /// Builds a DB with one compiled student model and a staged input so
    /// the conv-join SQL can be planned; also returns the compilation.
    fn setup() -> (Database, Arc<NeuralRegistry>, String, crate::CompiledModel) {
        let db = Database::new();
        let registry = NeuralRegistry::shared();
        let model = zoo::student(vec![1, 12, 12], 3, 77);
        let compiled = compile_model(&db, &registry, &model).unwrap();
        let input = Tensor::full(vec![1, 12, 12], 0.5);
        storage::load_state_table(&db, db.catalog(), &registry, &compiled.input_table, &input)
            .unwrap();
        // Materialize the first staged feature map so both join sides exist.
        for stmt in &compiled.steps[0].statements {
            db.execute(stmt).unwrap();
        }
        // The staged table name is inside the first statement.
        let fm = compiled.steps[0].statements[0].split_whitespace().nth(3).unwrap().to_string();
        let kernel = compiled.persistent_tables[0].clone();
        let sql = format!(
            "SELECT B.KernelID, A.MatrixID, SUM(A.Value * B.Value) AS Value \
             FROM {fm} A INNER JOIN {kernel} B ON A.OrderID = B.OrderID \
             GROUP BY B.KernelID, A.MatrixID"
        );
        (db, registry, sql, compiled)
    }

    #[test]
    fn customized_model_is_exact_on_the_conv_join() {
        let (db, registry, sql, _) = setup();
        let custom = Dl2SqlCostModel::new(registry);
        let est = db.estimate_with(&sql, &custom).unwrap();
        let actual = db.execute(&sql).unwrap().table().num_rows() as f64;
        // Group count: 10x10 output positions x 8 channels = 800.
        assert_eq!(actual, 800.0);
        assert!(
            (est.rows - actual).abs() / actual < 0.01,
            "customized estimate {} vs actual {actual}",
            est.rows
        );
    }

    #[test]
    fn default_model_misestimates_the_conv_join() {
        let (db, registry, sql, _) = setup();
        let custom = Dl2SqlCostModel::new(registry);
        // ClickHouse (the paper's deployment) has no per-column statistics.
        let default = DefaultCostModel::clickhouse_like();
        let custom_est = db.estimate_with(&sql, &custom).unwrap();
        let default_est = db.estimate_with(&sql, &default).unwrap();
        let actual = db.execute(&sql).unwrap().table().num_rows() as f64;
        let custom_err = (custom_est.rows - actual).abs() / actual;
        let default_err = (default_est.rows - actual).abs() / actual;
        assert!(
            custom_err < default_err,
            "customized must beat default: {custom_err} vs {default_err}"
        );
    }

    #[test]
    fn default_model_overestimates_exponentially_across_layers() {
        // Chain two conv layers through views (the paper's Q2 creates
        // views): the default model's fixed join selectivities compound,
        // the customized model stays exact.
        let (db, registry, _, compiled) = setup();
        // Layer tables from the compiled student model.
        let m = &compiled.prefix;
        let [map1, map2] = [&compiled.mapping_tables[0], &compiled.mapping_tables[1]];
        let fm1 = format!(
            "SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, A.Value AS Value \
             FROM {m}_input A, {map1} B \
             WHERE A.TupleID = B.TupleID AND A.KernelID = B.KernelID"
        );
        db.execute(&format!("CREATE VIEW v_fm1 AS {fm1}")).unwrap();
        db.execute(&format!(
            "CREATE VIEW v_conv1 AS SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
             SUM(A.Value * B.Value) AS Value FROM v_fm1 A INNER JOIN {m}_l1_kernel B \
             ON A.OrderID = B.OrderID GROUP BY B.KernelID, A.MatrixID"
        ))
        .unwrap();
        let two_layer = format!(
            "SELECT K.KernelID AS KernelID, B.MatrixID AS TupleID, \
             SUM(A.Value * K.Value) AS Value FROM v_conv1 A, {map2} B, {m}_l2_kernel K \
             WHERE A.TupleID = B.TupleID AND A.KernelID = B.KernelID AND B.OrderID = K.OrderID \
             GROUP BY K.KernelID, B.MatrixID"
        );
        let actual = db.execute(&two_layer).unwrap().table().num_rows() as f64;
        let default_est =
            db.estimate_with(&two_layer, &DefaultCostModel::clickhouse_like()).unwrap();
        let custom_est = db.estimate_with(&two_layer, &Dl2SqlCostModel::new(registry)).unwrap();
        assert!(
            default_est.rows > actual * 3.0,
            "default should over-estimate the chained layers: {} vs {actual}",
            default_est.rows
        );
        let custom_err = (custom_est.rows - actual).abs() / actual;
        let default_err = (default_est.rows - actual).abs() / actual;
        assert!(custom_err < default_err);
    }

    #[test]
    fn falls_back_to_textbook_estimation_on_plain_tables() {
        let db = Database::new();
        db.execute("CREATE TABLE t (a Int64)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        let registry = NeuralRegistry::shared();
        let custom = Dl2SqlCostModel::new(registry);
        let est = db.estimate_with("SELECT a FROM t", &custom).unwrap();
        assert_eq!(est.rows, 3.0);
    }
}
