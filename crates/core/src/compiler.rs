//! Model → SQL compilation.
//!
//! Compiling a model does two things:
//!
//! 1. **loads the model into the database** — kernel, bias and
//!    kernel-mapping tables are materialized (with indices on the join
//!    columns, as the paper prescribes), and
//! 2. **emits the inference SQL program** — one [`SqlStep`] per neural
//!    operator, in paper-listing form: the staging join (Q2), the conv
//!    join+group-by (Q1), pooling (Q3), batch normalization (Q4),
//!    ReLU-as-UPDATE and residual addition (Q5), FC as 1×1 convolution,
//!    and the softmax head.
//!
//! The program is re-runnable: each inference loads a fresh input state
//! table and executes the same statements in a session of its own, whose
//! `TEMP` tables are private to it.

use std::collections::HashSet;

use minidb::Database;
use neuro::{Block, Layer, Model};

use crate::error::{Error, Result};
use crate::registry::{NeuralRegistry, TableRole};
use crate::storage::{
    self, deconv_geom, deconv_kernel_rows, deconv_mapping_rows, fc_kernel_rows, kernel_rows,
    mapping_rows, pool_mapping_rows, ConvGeom,
};

/// What a step computes — used to bucket timings (paper Figs. 9 and 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StepKind {
    /// The mapping join that re-lays a state into a staged feature map
    /// ("Reshape" in paper Fig. 9).
    Reshape,
    /// The convolution join + group-by (paper Q1).
    Conv,
    /// Per-output-channel bias addition.
    Bias,
    /// Batch normalization (paper Q4).
    BatchNorm,
    /// Instance normalization.
    InstanceNorm,
    /// ReLU as an UPDATE (paper Q5).
    Relu,
    Sigmoid,
    /// Max/avg pooling (paper Q3).
    Pool,
    GlobalAvgPool,
    Flatten,
    /// Full connection, compiled as a 1×1 convolution.
    Fc,
    Softmax,
    /// Residual link: element-wise add + ReLU (paper Q5).
    ResidualAdd,
    /// Dense-block channel concatenation.
    DenseConcat,
    /// Basic-attention gating multiply.
    AttentionGate,
}

/// One executable step of the compiled program.
#[derive(Debug, Clone)]
pub struct SqlStep {
    /// Display label ("Conv1", "Reshape1", "BN2", ...).
    pub label: String,
    pub kind: StepKind,
    /// Statements executed in order.
    pub statements: Vec<String>,
}

/// Logical shape of the current state table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Feature map: channels × grid.
    Map { c: usize, h: usize, w: usize },
    /// Flat vector.
    Vector { len: usize },
}

impl Shape {
    fn rows(&self) -> u64 {
        match self {
            Shape::Map { c, h, w } => (c * h * w) as u64,
            Shape::Vector { len } => *len as u64,
        }
    }
}

/// The pre-join strategies evaluated in paper Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PreJoinStrategy {
    /// The default program: a staging join (Q2) materializes the feature
    /// map, then the conv join (Q1) runs against the kernel table.
    #[default]
    None,
    /// Fuses the mapping join into the convolution statement, avoiding the
    /// staged feature-map materialization (and the separate pooling
    /// staging) — the paper's second strategy.
    FuseMapping,
    /// Additionally pre-joins the kernel weights into the mapping table
    /// offline, so inference avoids the feature-map ⋈ kernel join entirely
    /// — the paper's third strategy. Trades model storage for time.
    PreJoinKernel,
}

/// A model compiled to SQL, with its weights loaded into the database.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The source model's name.
    pub model_name: String,
    /// Table-name prefix for everything this compilation created except
    /// the mapping tables: the model's name plus a hash of its structure
    /// and weights, so models that share a name never share tables.
    pub prefix: String,
    /// Expected input shape (`[C,H,W]`).
    pub input_shape: Vec<usize>,
    /// Number of classes.
    pub num_classes: usize,
    /// The inference program.
    pub steps: Vec<SqlStep>,
    /// Name of the state table the runner loads the input into.
    pub input_table: String,
    /// Name of the final state table (class probabilities).
    pub output_table: String,
    /// `SELECT` returning the predicted class id.
    pub predict_sql: String,
    /// Persistent tables holding the model (kernels, biases, mappings).
    pub persistent_tables: Vec<String>,
    /// The subset of [`Self::persistent_tables`] that are kernel-mapping /
    /// pooling-mapping tables. These depend only on layer *geometry*
    /// (paper: "the kernel mapping table only depends on k, W_i and s ...
    /// we generate the involved mapping tables in an offline way"), so
    /// they are shared infrastructure rather than per-model storage: they
    /// are named by their geometry, and every model with that geometry
    /// reads the same table. Paper Table IV's "DL2SQL" column measures the
    /// parameter tables only.
    pub mapping_tables: Vec<String>,
}

impl CompiledModel {
    /// Total bytes of the model's persistent relational representation
    /// including mapping tables (raw in-memory columnar size).
    pub fn storage_bytes(&self, db: &Database) -> usize {
        self.persistent_tables
            .iter()
            .filter_map(|n| db.catalog().table(n))
            .map(|t| t.memory_bytes())
            .sum()
    }

    /// Estimated compressed on-disk bytes of everything, mappings
    /// included (see [`storage::compressed_size_estimate`]).
    pub fn compressed_storage_bytes(&self, db: &Database) -> usize {
        self.persistent_tables
            .iter()
            .filter_map(|n| db.catalog().table(n))
            .map(|t| storage::compressed_size_estimate(&t))
            .sum()
    }

    /// The model's *parameter* tables (kernels + biases), excluding the
    /// geometry-only mapping tables.
    pub fn parameter_tables(&self) -> impl Iterator<Item = &String> {
        self.persistent_tables.iter().filter(|n| !self.mapping_tables.contains(n))
    }

    /// Compressed on-disk bytes of the parameter tables — the quantity
    /// paper Table IV reports for DL2SQL.
    pub fn compressed_parameter_storage_bytes(&self, db: &Database) -> usize {
        self.parameter_tables()
            .filter_map(|n| db.catalog().table(n))
            .map(|t| storage::compressed_size_estimate(&t))
            .sum()
    }
}

/// Compiles `model` into SQL, loading its weights into `db` under a
/// sanitized name prefix (default pre-join strategy).
pub fn compile_model(
    db: &Database,
    registry: &NeuralRegistry,
    model: &Model,
) -> Result<CompiledModel> {
    compile_model_with_strategy(db, registry, model, PreJoinStrategy::None)
}

/// As [`compile_model`], with an explicit pre-join strategy (paper
/// Fig. 11). The model's identity (see [`CompiledModel::prefix`]) and the
/// strategy are folded into the table-name prefix, so different models
/// and several variants of one model can coexist in one database.
pub fn compile_model_with_strategy(
    db: &Database,
    registry: &NeuralRegistry,
    model: &Model,
    strategy: PreJoinStrategy,
) -> Result<CompiledModel> {
    let suffix = match strategy {
        PreJoinStrategy::None => "",
        PreJoinStrategy::FuseMapping => "_fuse",
        PreJoinStrategy::PreJoinKernel => "_prejoin",
    };
    let identity = minidb::hash::content_hash(&neuro::serialize::compile_udf_binary(model));
    let prefix = format!("m_{}_{identity:016x}{suffix}", sanitize(&model.name));
    let mut c = Compiler {
        db,
        registry,
        prefix: prefix.clone(),
        steps: Vec::new(),
        persistent: Vec::new(),
        mappings: Vec::new(),
        protected: HashSet::new(),
        tmp_seq: 0,
        counts: Default::default(),
        strategy,
    };

    let input_shape = model.input_shape.clone();
    let shape = match input_shape.as_slice() {
        [ch, h, w] => Shape::Map { c: *ch, h: *h, w: *w },
        [len] => Shape::Vector { len: *len },
        other => {
            return Err(Error::Geometry(format!(
                "DL2SQL inputs must be [C,H,W] or [len], got {other:?}"
            )))
        }
    };

    let input_table = format!("{prefix}_input");
    c.registry.register(&input_table, TableRole::State { rows: shape.rows() });
    c.protected.insert(input_table.clone());

    let (output_table, out_shape) = c.compile_layers(&model.layers, input_table.clone(), shape)?;
    if let Shape::Vector { len } = out_shape {
        if len != model.num_classes {
            return Err(Error::Geometry(format!(
                "model ends with {len} outputs but declares {} classes",
                model.num_classes
            )));
        }
    }

    let predict_sql =
        format!("SELECT KernelID FROM {output_table} ORDER BY Value DESC, KernelID ASC LIMIT 1");
    Ok(CompiledModel {
        model_name: model.name.clone(),
        prefix,
        input_shape,
        num_classes: model.num_classes,
        steps: c.steps,
        input_table,
        output_table,
        predict_sql,
        persistent_tables: c.persistent,
        mapping_tables: c.mappings,
    })
}

/// The name of a geometry-only mapping table (`kind` tells the row
/// generator apart). Every model with this layer geometry shares it.
fn geometry_table(kind: &str, g: &ConvGeom) -> String {
    format!("m_{kind}_c{}_{}x{}_k{}_s{}_p{}", g.in_c, g.in_h, g.in_w, g.k, g.stride, g.padding)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|ch| if ch.is_ascii_alphanumeric() { ch.to_ascii_lowercase() } else { '_' })
        .collect()
}

#[derive(Default)]
struct OpCounts {
    conv: usize,
    bn: usize,
    relu: usize,
    pool: usize,
    fc: usize,
    misc: usize,
}

struct Compiler<'a> {
    db: &'a Database,
    registry: &'a NeuralRegistry,
    prefix: String,
    steps: Vec<SqlStep>,
    persistent: Vec<String>,
    mappings: Vec<String>,
    /// Tables that later steps may still read (block inputs, the model
    /// input): in-place UPDATEs must copy first.
    protected: HashSet<String>,
    tmp_seq: usize,
    counts: OpCounts,
    strategy: PreJoinStrategy,
}

impl<'a> Compiler<'a> {
    fn tmp(&mut self, tag: &str) -> String {
        self.tmp_seq += 1;
        format!("{}_{tag}{}", self.prefix, self.tmp_seq)
    }

    fn step(&mut self, label: String, kind: StepKind, statements: Vec<String>) {
        self.steps.push(SqlStep { label, kind, statements });
    }

    fn compile_layers(
        &mut self,
        layers: &[Layer],
        mut cur: String,
        mut shape: Shape,
    ) -> Result<(String, Shape)> {
        for layer in layers {
            (cur, shape) = self.compile_layer(layer, cur, shape)?;
        }
        Ok((cur, shape))
    }

    fn compile_layer(
        &mut self,
        layer: &Layer,
        cur: String,
        shape: Shape,
    ) -> Result<(String, Shape)> {
        match layer {
            Layer::Conv2d { weight, bias, stride, padding } => {
                self.emit_conv(cur, shape, weight, bias.as_deref(), *stride, *padding)
            }
            Layer::Deconv2d { weight, bias, stride, padding } => {
                self.emit_deconv(cur, shape, weight, bias.as_deref(), *stride, *padding)
            }
            Layer::MaxPool2d { kernel, stride } => {
                self.emit_pool(cur, shape, *kernel, *stride, "MAX")
            }
            Layer::AvgPool2d { kernel, stride } => {
                self.emit_pool(cur, shape, *kernel, *stride, "AVG")
            }
            Layer::GlobalAvgPool => self.emit_gap(cur, shape),
            Layer::Relu => self.emit_relu(cur, shape),
            Layer::Sigmoid => self.emit_sigmoid(cur, shape),
            Layer::BatchNorm { eps } => self.emit_norm(cur, shape, *eps, StepKind::BatchNorm),
            Layer::InstanceNorm { eps } => self.emit_norm(cur, shape, *eps, StepKind::InstanceNorm),
            Layer::Linear { weight, bias } => self.emit_fc(cur, shape, weight, bias.as_deref()),
            Layer::BasicAttention { score, proj } => self.emit_attention(cur, shape, score, proj),
            Layer::Flatten => self.emit_flatten(cur, shape),
            // Paper Fig. 9 calls the softmax head "Classification".
            Layer::Softmax => self.emit_softmax(cur, shape, "Classification"),
            Layer::Block(Block::Residual { body, shortcut }) => {
                self.emit_residual(cur, shape, body, shortcut)
            }
            Layer::Block(Block::Dense { branches }) => self.emit_dense(cur, shape, branches),
        }
    }

    // -- convolution (paper Q1 + Q2) ------------------------------------

    fn emit_conv(
        &mut self,
        cur: String,
        shape: Shape,
        weight: &neuro::Tensor,
        bias: Option<&[f32]>,
        stride: usize,
        padding: usize,
    ) -> Result<(String, Shape)> {
        let Shape::Map { c, h, w } = shape else {
            return Err(Error::Geometry("convolution needs a [C,H,W] state".into()));
        };
        let [out_c, in_c, kh, _kw] = weight.shape() else {
            return Err(Error::Geometry("conv weight must be [out,in,kh,kw]".into()));
        };
        if *in_c != c {
            return Err(Error::Geometry(format!(
                "conv expects {in_c} input channels, state has {c}"
            )));
        }
        let geom = ConvGeom::of(c, h, w, *out_c, *kh, stride, padding)?;
        self.counts.conv += 1;
        let n = self.counts.conv;
        let (kid, oid, val) = kernel_rows(weight)?;
        let map = (geometry_table("map", &geom), mapping_rows(&geom));
        self.finish_conv_like(cur, geom, map, kid, oid, val, bias, n)
    }

    fn emit_deconv(
        &mut self,
        cur: String,
        shape: Shape,
        weight: &neuro::Tensor,
        bias: Option<&[f32]>,
        stride: usize,
        padding: usize,
    ) -> Result<(String, Shape)> {
        let Shape::Map { c, h, w } = shape else {
            return Err(Error::Geometry("deconvolution needs a [C,H,W] state".into()));
        };
        let [in_c, out_c, kh, _kw] = weight.shape() else {
            return Err(Error::Geometry("deconv weight must be [in,out,kh,kw]".into()));
        };
        if *in_c != c {
            return Err(Error::Geometry(format!(
                "deconv expects {in_c} input channels, state has {c}"
            )));
        }
        let geom = deconv_geom(c, h, w, *out_c, *kh, stride, padding)?;
        self.counts.conv += 1;
        let n = self.counts.conv;
        let (kid, oid, val) = deconv_kernel_rows(weight)?;
        let map = (geometry_table("dmap", &geom), deconv_mapping_rows(&geom));
        self.finish_conv_like(cur, geom, map, kid, oid, val, bias, n)
    }

    /// Shared tail of conv/deconv: loads the model tables according to the
    /// pre-join strategy and emits the staging + Q1 statements. `map` is
    /// the mapping table's name and rows.
    #[allow(clippy::too_many_arguments)]
    fn finish_conv_like(
        &mut self,
        cur: String,
        geom: ConvGeom,
        (map_table, map): (String, storage::MappingRows),
        kid: Vec<i64>,
        oid: Vec<i64>,
        val: Vec<f64>,
        bias: Option<&[f32]>,
        n: usize,
    ) -> Result<(String, Shape)> {
        let t_in = map.matrix_id.len() as u64;
        let out = self.tmp("conv");
        self.registry.register(&out, TableRole::State { rows: geom.out_state_rows() });

        match self.strategy {
            PreJoinStrategy::None => {
                let kernel_table = format!("{}_l{n}_kernel", self.prefix);
                storage::load_kernel_table(
                    self.db,
                    self.registry,
                    &kernel_table,
                    kid,
                    oid,
                    val,
                    geom.k_in(),
                    geom.out_c as u64,
                )?;
                self.persistent.push(kernel_table.clone());
                storage::load_mapping_table(self.db, self.registry, &map_table, map)?;
                self.persistent.push(map_table.clone());
                self.mappings.push(map_table.clone());

                // Staging (paper Q2, generalized with the channel column).
                let fm = self.tmp("fm");
                self.registry
                    .register(&fm, TableRole::StagedFeatureMap { t_in, k_in: geom.k_in() });
                self.step(
                    format!("Reshape{n}"),
                    StepKind::Reshape,
                    vec![format!(
                        "CREATE TEMP TABLE {fm} AS SELECT B.MatrixID AS MatrixID, B.OrderID AS OrderID, \
                         A.Value AS Value FROM {cur} A, {map_table} B \
                         WHERE A.TupleID = B.TupleID AND A.KernelID = B.KernelID"
                    )],
                );
                // Convolution (paper Q1).
                self.step(
                    format!("Conv{n}"),
                    StepKind::Conv,
                    vec![format!(
                        "CREATE TEMP TABLE {out} AS SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
                         SUM(A.Value * B.Value) AS Value \
                         FROM {fm} A INNER JOIN {kernel_table} B ON A.OrderID = B.OrderID \
                         GROUP BY B.KernelID, A.MatrixID"
                    )],
                );
            }
            PreJoinStrategy::FuseMapping => {
                let kernel_table = format!("{}_l{n}_kernel", self.prefix);
                storage::load_kernel_table(
                    self.db,
                    self.registry,
                    &kernel_table,
                    kid,
                    oid,
                    val,
                    geom.k_in(),
                    geom.out_c as u64,
                )?;
                self.persistent.push(kernel_table.clone());
                storage::load_mapping_table(self.db, self.registry, &map_table, map)?;
                self.persistent.push(map_table.clone());
                self.mappings.push(map_table.clone());

                // One statement: no staged feature-map materialization.
                self.step(
                    format!("Conv{n}"),
                    StepKind::Conv,
                    vec![format!(
                        "CREATE TEMP TABLE {out} AS SELECT K.KernelID AS KernelID, B.MatrixID AS TupleID, \
                         SUM(A.Value * K.Value) AS Value \
                         FROM {cur} A, {map_table} B, {kernel_table} K \
                         WHERE A.TupleID = B.TupleID AND A.KernelID = B.KernelID \
                         AND B.OrderID = K.OrderID \
                         GROUP BY K.KernelID, B.MatrixID"
                    )],
                );
            }
            PreJoinStrategy::PreJoinKernel => {
                // Offline: mapping ⋈ kernel — one row per (mapping row,
                // output channel) carrying the weight.
                let mut weights_by_order: Vec<Vec<f64>> = vec![Vec::new(); geom.k_in() as usize];
                for ((&k, &o), &v) in kid.iter().zip(&oid).zip(&val) {
                    let slot = &mut weights_by_order[o as usize];
                    if slot.len() <= k as usize {
                        slot.resize(k as usize + 1, 0.0);
                    }
                    slot[k as usize] = v;
                }
                let n_rows = map.matrix_id.len() * geom.out_c;
                let mut tuple_id = Vec::with_capacity(n_rows);
                let mut in_channel = Vec::with_capacity(n_rows);
                let mut matrix_id = Vec::with_capacity(n_rows);
                let mut out_channel = Vec::with_capacity(n_rows);
                let mut weight_col = Vec::with_capacity(n_rows);
                for i in 0..map.matrix_id.len() {
                    let o = map.order_id[i] as usize;
                    for oc in 0..geom.out_c {
                        tuple_id.push(map.tuple_id[i]);
                        in_channel.push(map.kernel_id[i]);
                        matrix_id.push(map.matrix_id[i]);
                        out_channel.push(oc as i64);
                        weight_col.push(weights_by_order[o].get(oc).copied().unwrap_or(0.0));
                    }
                }
                let prejoined = format!("{}_l{n}_prejoined", self.prefix);
                let table = minidb::Table::new(
                    minidb::Schema::new(vec![
                        minidb::Field::new("TupleID", minidb::DataType::Int64),
                        minidb::Field::new("KernelID", minidb::DataType::Int64),
                        minidb::Field::new("MatrixID", minidb::DataType::Int64),
                        minidb::Field::new("OutChannel", minidb::DataType::Int64),
                        minidb::Field::new("Weight", minidb::DataType::Float64),
                    ]),
                    vec![
                        minidb::Column::Int64(tuple_id),
                        minidb::Column::Int64(in_channel),
                        minidb::Column::Int64(matrix_id),
                        minidb::Column::Int64(out_channel),
                        minidb::Column::Float64(weight_col),
                    ],
                )?;
                self.db.catalog().create_table(&prejoined, table, true)?;
                self.registry.register(&prejoined, TableRole::Mapping { rows: n_rows as u64 });
                self.persistent.push(prejoined.clone());

                // Inference: a single join with the pre-joined table.
                self.step(
                    format!("Conv{n}"),
                    StepKind::Conv,
                    vec![format!(
                        "CREATE TEMP TABLE {out} AS SELECT P.OutChannel AS KernelID, \
                         P.MatrixID AS TupleID, SUM(A.Value * P.Weight) AS Value \
                         FROM {cur} A, {prejoined} P \
                         WHERE A.TupleID = P.TupleID AND A.KernelID = P.KernelID \
                         GROUP BY P.OutChannel, P.MatrixID"
                    )],
                );
            }
        }

        let mut state = out;
        if let Some(b) = bias {
            let bias_table = format!("{}_l{n}_bias", self.prefix);
            storage::load_bias_table(self.db, &bias_table, b)?;
            self.persistent.push(bias_table.clone());
            let biased = self.tmp("bias");
            self.registry.register(&biased, TableRole::State { rows: geom.out_state_rows() });
            self.step(
                format!("Bias{n}"),
                StepKind::Bias,
                vec![format!(
                    "CREATE TEMP TABLE {biased} AS SELECT A.KernelID AS KernelID, A.TupleID AS TupleID, \
                     A.Value + B.Value AS Value FROM {state} A, {bias_table} B \
                     WHERE A.KernelID = B.KernelID"
                )],
            );
            state = biased;
        }
        Ok((state, Shape::Map { c: geom.out_c, h: geom.out_h, w: geom.out_w }))
    }

    // -- normalization (paper Q4) -----------------------------------------

    fn emit_norm(
        &mut self,
        cur: String,
        shape: Shape,
        eps: f32,
        kind: StepKind,
    ) -> Result<(String, Shape)> {
        self.counts.bn += 1;
        let n = self.counts.bn;
        let label = format!("{}{n}", if kind == StepKind::BatchNorm { "BN" } else { "IN" });
        let single_channel = matches!(shape, Shape::Map { c: 1, .. } | Shape::Vector { .. });
        let out = self.tmp("bn");
        self.registry.register(&out, TableRole::State { rows: shape.rows() });
        let statements = if single_channel {
            // The paper's exact Q4 scalar-subquery form.
            vec![format!(
                "CREATE TEMP TABLE {out} AS SELECT KernelID, TupleID, \
                 ((Value - (SELECT AVG(Value) FROM {cur})) / \
                 ((SELECT stddevSamp(Value) FROM {cur}) + {eps})) AS Value FROM {cur}"
            )]
        } else {
            // Per-channel statistics via a group join (the paper keeps one
            // table per channel; one table with per-KernelID statistics is
            // the same computation).
            let stats = self.tmp("bnstat");
            vec![
                format!(
                    "CREATE TEMP TABLE {stats} AS SELECT KernelID, AVG(Value) AS Mean, \
                     stddevSamp(Value) AS Std FROM {cur} GROUP BY KernelID"
                ),
                format!(
                    "CREATE TEMP TABLE {out} AS SELECT A.KernelID AS KernelID, A.TupleID AS TupleID, \
                     (A.Value - B.Mean) / (B.Std + {eps}) AS Value \
                     FROM {cur} A, {stats} B WHERE A.KernelID = B.KernelID"
                ),
            ]
        };
        self.step(label, kind, statements);
        Ok((out, shape))
    }

    // -- activations --------------------------------------------------------

    fn emit_relu(&mut self, cur: String, shape: Shape) -> Result<(String, Shape)> {
        self.counts.relu += 1;
        let n = self.counts.relu;
        let mut statements = Vec::new();
        let target = if self.protected.contains(&cur) {
            let copy = self.tmp("relu");
            self.registry.register(&copy, TableRole::State { rows: shape.rows() });
            statements.push(format!(
                "CREATE TEMP TABLE {copy} AS SELECT KernelID, TupleID, Value FROM {cur}"
            ));
            copy
        } else {
            cur
        };
        // Paper Q5's in-place form.
        statements.push(format!("UPDATE {target} SET Value = 0 WHERE Value < 0"));
        self.step(format!("ReLU{n}"), StepKind::Relu, statements);
        Ok((target, shape))
    }

    fn emit_sigmoid(&mut self, cur: String, shape: Shape) -> Result<(String, Shape)> {
        self.counts.misc += 1;
        let out = self.tmp("sig");
        self.registry.register(&out, TableRole::State { rows: shape.rows() });
        self.step(
            format!("Sigmoid{}", self.counts.misc),
            StepKind::Sigmoid,
            vec![format!(
                "CREATE TEMP TABLE {out} AS SELECT KernelID, TupleID, \
                 1 / (1 + exp(-Value)) AS Value FROM {cur}"
            )],
        );
        Ok((out, shape))
    }

    // -- pooling (paper Q3) --------------------------------------------------

    fn emit_pool(
        &mut self,
        cur: String,
        shape: Shape,
        kernel: usize,
        stride: usize,
        agg: &str,
    ) -> Result<(String, Shape)> {
        let Shape::Map { c, h, w } = shape else {
            return Err(Error::Geometry("pooling needs a [C,H,W] state".into()));
        };
        self.counts.pool += 1;
        let n = self.counts.pool;

        let map_table = format!("m_pmap_{h}x{w}_k{kernel}_s{stride}");
        let (mid, tid) = pool_mapping_rows(h, w, kernel, stride)?;
        storage::load_pool_mapping_table(self.db, self.registry, &map_table, mid, tid)?;
        self.persistent.push(map_table.clone());
        self.mappings.push(map_table.clone());

        let out_h = (h - kernel) / stride + 1;
        let out_w = (w - kernel) / stride + 1;
        let out = self.tmp("pool");
        self.registry.register(&out, TableRole::State { rows: (c * out_h * out_w) as u64 });
        let statements = if self.strategy == PreJoinStrategy::None {
            // Paper Q3 on a staged table.
            let staged = self.tmp("pfm");
            vec![
                format!(
                    "CREATE TEMP TABLE {staged} AS SELECT A.KernelID AS KernelID, \
                     B.MatrixID AS MatrixID, A.Value AS Value \
                     FROM {cur} A, {map_table} B WHERE A.TupleID = B.TupleID"
                ),
                format!(
                    "CREATE TEMP TABLE {out} AS SELECT KernelID, MatrixID AS TupleID, \
                     {agg}(Value) AS Value FROM {staged} GROUP BY KernelID, MatrixID"
                ),
            ]
        } else {
            // Pre-join strategies fuse the staging into one statement.
            vec![format!(
                "CREATE TEMP TABLE {out} AS SELECT A.KernelID AS KernelID, B.MatrixID AS TupleID, \
                 {agg}(A.Value) AS Value FROM {cur} A, {map_table} B \
                 WHERE A.TupleID = B.TupleID GROUP BY A.KernelID, B.MatrixID"
            )]
        };
        self.step(format!("Pool{n}"), StepKind::Pool, statements);
        Ok((out, Shape::Map { c, h: out_h, w: out_w }))
    }

    fn emit_gap(&mut self, cur: String, shape: Shape) -> Result<(String, Shape)> {
        let Shape::Map { c, .. } = shape else {
            return Err(Error::Geometry("global average pooling needs a [C,H,W] state".into()));
        };
        self.counts.pool += 1;
        let out = self.tmp("gap");
        self.registry.register(&out, TableRole::State { rows: c as u64 });
        self.step(
            format!("Pool{}", self.counts.pool),
            StepKind::GlobalAvgPool,
            vec![format!(
                "CREATE TEMP TABLE {out} AS SELECT KernelID, 0 AS TupleID, AVG(Value) AS Value \
                 FROM {cur} GROUP BY KernelID"
            )],
        );
        Ok((out, Shape::Vector { len: c }))
    }

    // -- dense layers ---------------------------------------------------------

    fn emit_flatten(&mut self, cur: String, shape: Shape) -> Result<(String, Shape)> {
        match shape {
            Shape::Vector { .. } => Ok((cur, shape)), // already flat
            Shape::Map { c, h, w } => {
                self.counts.misc += 1;
                let out = self.tmp("flat");
                let plane = h * w;
                self.registry.register(&out, TableRole::State { rows: (c * plane) as u64 });
                self.step(
                    format!("Flatten{}", self.counts.misc),
                    StepKind::Flatten,
                    vec![format!(
                        "CREATE TEMP TABLE {out} AS SELECT KernelID * {plane} + TupleID AS KernelID, \
                         0 AS TupleID, Value FROM {cur}"
                    )],
                );
                Ok((out, Shape::Vector { len: c * plane }))
            }
        }
    }

    /// FC as a 1×1 convolution (paper Sec. III-C2): stage the vector as a
    /// single-matrix feature map, join with the FC kernel table, group.
    fn emit_fc(
        &mut self,
        cur: String,
        shape: Shape,
        weight: &neuro::Tensor,
        bias: Option<&[f32]>,
    ) -> Result<(String, Shape)> {
        // Auto-flatten feature maps, like the reference engine.
        let (cur, shape) = self.emit_flatten(cur, shape)?;
        let Shape::Vector { len } = shape else { unreachable!("flatten yields a vector") };
        let [out_dim, in_dim] = weight.shape() else {
            return Err(Error::Geometry("FC weight must be [out,in]".into()));
        };
        if *in_dim != len {
            return Err(Error::Geometry(format!("FC expects {in_dim} inputs, state has {len}")));
        }
        self.counts.fc += 1;
        let n = self.counts.fc;

        let kernel_table = format!("{}_fc{n}_kernel", self.prefix);
        let (kid, oid, val) = fc_kernel_rows(weight)?;
        storage::load_kernel_table(
            self.db,
            self.registry,
            &kernel_table,
            kid,
            oid,
            val,
            len as u64,
            *out_dim as u64,
        )?;
        self.persistent.push(kernel_table.clone());

        let fm = self.tmp("fcfm");
        self.registry
            .register(&fm, TableRole::StagedFeatureMap { t_in: len as u64, k_in: len as u64 });
        let out = self.tmp("fc");
        self.registry.register(&out, TableRole::State { rows: *out_dim as u64 });
        let mut statements = vec![
            format!(
                "CREATE TEMP TABLE {fm} AS SELECT 0 AS MatrixID, KernelID AS OrderID, Value \
                 FROM {cur}"
            ),
            format!(
                "CREATE TEMP TABLE {out} AS SELECT B.KernelID AS KernelID, A.MatrixID AS TupleID, \
                 SUM(A.Value * B.Value) AS Value \
                 FROM {fm} A INNER JOIN {kernel_table} B ON A.OrderID = B.OrderID \
                 GROUP BY B.KernelID, A.MatrixID"
            ),
        ];
        let mut state = out;
        if let Some(b) = bias {
            let bias_table = format!("{kernel_table}_bias");
            storage::load_bias_table(self.db, &bias_table, b)?;
            self.persistent.push(bias_table.clone());
            let biased = self.tmp("fcb");
            self.registry.register(&biased, TableRole::State { rows: *out_dim as u64 });
            statements.push(format!(
                "CREATE TEMP TABLE {biased} AS SELECT A.KernelID AS KernelID, A.TupleID AS TupleID, \
                 A.Value + B.Value AS Value FROM {state} A, {bias_table} B WHERE A.KernelID = B.KernelID"
            ));
            state = biased;
        }
        self.step(format!("FC{n}"), StepKind::Fc, statements);
        Ok((state, Shape::Vector { len: *out_dim }))
    }

    fn emit_softmax(&mut self, cur: String, shape: Shape, label: &str) -> Result<(String, Shape)> {
        self.counts.misc += 1;
        let e = self.tmp("exp");
        let out = self.tmp("softmax");
        self.registry.register(&e, TableRole::State { rows: shape.rows() });
        self.registry.register(&out, TableRole::State { rows: shape.rows() });
        self.step(
            label.to_string(),
            StepKind::Softmax,
            vec![
                // Max-subtraction for numeric stability, like the reference.
                format!(
                    "CREATE TEMP TABLE {e} AS SELECT KernelID, TupleID, \
                     exp(Value - (SELECT MAX(Value) FROM {cur})) AS Value FROM {cur}"
                ),
                format!(
                    "CREATE TEMP TABLE {out} AS SELECT KernelID, TupleID, \
                     Value / (SELECT SUM(Value) FROM {e}) AS Value FROM {e}"
                ),
            ],
        );
        Ok((out, shape))
    }

    fn emit_attention(
        &mut self,
        cur: String,
        shape: Shape,
        score: &neuro::Tensor,
        proj: &neuro::Tensor,
    ) -> Result<(String, Shape)> {
        // Basic attention is "a variant of full connection" (paper): a
        // scoring FC, a softmax gate, an element-wise multiply, and an
        // output projection FC.
        let (x, shape) = self.emit_flatten(cur, shape)?;
        self.protected.insert(x.clone());
        let (scores, _) = self.emit_fc(x.clone(), shape, score, None)?;
        self.counts.misc += 1;
        let softmax_label = format!("Softmax{}", self.counts.misc);
        let (alpha, _) = self.emit_softmax(scores, shape, &softmax_label)?;
        let gated = self.tmp("gate");
        self.registry.register(&gated, TableRole::State { rows: shape.rows() });
        self.counts.misc += 1;
        self.step(
            format!("Attention{}", self.counts.misc),
            StepKind::AttentionGate,
            vec![format!(
                "CREATE TEMP TABLE {gated} AS SELECT A.KernelID AS KernelID, 0 AS TupleID, \
                 A.Value * B.Value AS Value FROM {x} A, {alpha} B WHERE A.KernelID = B.KernelID"
            )],
        );
        self.emit_fc(gated, shape, proj, None)
    }

    // -- blocks -----------------------------------------------------------------

    fn emit_residual(
        &mut self,
        cur: String,
        shape: Shape,
        body: &[Layer],
        shortcut: &[Layer],
    ) -> Result<(String, Shape)> {
        self.protected.insert(cur.clone());
        let (body_out, body_shape) = self.compile_layers(body, cur.clone(), shape)?;
        let (short_out, short_shape) = if shortcut.is_empty() {
            (cur, shape)
        } else {
            self.compile_layers(shortcut, cur, shape)?
        };
        if body_shape != short_shape {
            return Err(Error::Geometry(format!(
                "residual branches disagree: body {body_shape:?} vs shortcut {short_shape:?}"
            )));
        }
        self.counts.misc += 1;
        let out = self.tmp("res");
        self.registry.register(&out, TableRole::State { rows: body_shape.rows() });
        // Paper Q5: the residual link plus ReLU.
        self.step(
            format!("Residual{}", self.counts.misc),
            StepKind::ResidualAdd,
            vec![
                format!(
                    "CREATE TEMP TABLE {out} AS SELECT A.KernelID AS KernelID, A.TupleID AS TupleID, \
                     A.Value + B.Value AS Value FROM {body_out} A, {short_out} B \
                     WHERE A.KernelID = B.KernelID AND A.TupleID = B.TupleID"
                ),
                format!("UPDATE {out} SET Value = 0 WHERE Value < 0"),
            ],
        );
        Ok((out, body_shape))
    }

    fn emit_dense(
        &mut self,
        cur: String,
        shape: Shape,
        branches: &[Vec<Layer>],
    ) -> Result<(String, Shape)> {
        let Shape::Map { mut c, h, w } = shape else {
            return Err(Error::Geometry("dense blocks need a [C,H,W] state".into()));
        };
        let mut acc = cur;
        for branch in branches {
            self.protected.insert(acc.clone());
            let (bout, bshape) =
                self.compile_layers(branch, acc.clone(), Shape::Map { c, h, w })?;
            let Shape::Map { c: bc, h: bh, w: bw } = bshape else {
                return Err(Error::Geometry("dense branch must produce a feature map".into()));
            };
            if (bh, bw) != (h, w) {
                return Err(Error::Geometry(format!(
                    "dense branch changed spatial dims to {bh}x{bw} (expected {h}x{w})"
                )));
            }
            self.counts.misc += 1;
            let cat = self.tmp("cat");
            self.registry.register(&cat, TableRole::State { rows: ((c + bc) * h * w) as u64 });
            self.step(
                format!("Dense{}", self.counts.misc),
                StepKind::DenseConcat,
                vec![
                    format!(
                        "CREATE TEMP TABLE {cat} AS SELECT KernelID, TupleID, Value FROM {acc}"
                    ),
                    format!(
                        "INSERT INTO {cat} SELECT KernelID + {c} AS KernelID, TupleID, Value FROM {bout}"
                    ),
                ],
            );
            acc = cat;
            c += bc;
        }
        Ok((acc, Shape::Map { c, h, w }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neuro::zoo;

    #[test]
    fn compiles_the_student_model() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let model = zoo::student(vec![1, 10, 10], 4, 11);
        let compiled = compile_model(&db, &registry, &model).unwrap();
        // 3 convs => 3 kernel + 3 map tables; 1 pool map; 1 FC kernel + bias.
        assert_eq!(compiled.persistent_tables.len(), 3 + 3 + 1 + 1 + 1);
        // Steps include the paper's labels.
        let labels: Vec<&str> = compiled.steps.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"Conv1"));
        assert!(labels.contains(&"Reshape1"));
        assert!(labels.contains(&"BN3"));
        assert!(labels.contains(&"Classification"));
        // Every persistent table exists in the catalog.
        for t in &compiled.persistent_tables {
            assert!(db.catalog().table(t).is_some(), "missing {t}");
        }
        assert!(compiled.storage_bytes(&db) > 0);
        assert!(compiled.compressed_storage_bytes(&db) < compiled.storage_bytes(&db));
    }

    #[test]
    fn conv_q1_sql_matches_paper_shape() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let model = zoo::student(vec![1, 8, 8], 2, 3);
        let compiled = compile_model(&db, &registry, &model).unwrap();
        let conv1 = compiled.steps.iter().find(|s| s.label == "Conv1").unwrap();
        let sql = &conv1.statements[0];
        assert!(sql.contains("SUM(A.Value * B.Value)"), "{sql}");
        assert!(sql.contains("INNER JOIN"), "{sql}");
        assert!(sql.contains("GROUP BY B.KernelID, A.MatrixID"), "{sql}");
    }

    #[test]
    fn relu_uses_update_idiom() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let model = zoo::student(vec![1, 8, 8], 2, 3);
        let compiled = compile_model(&db, &registry, &model).unwrap();
        let relu = compiled.steps.iter().find(|s| s.kind == StepKind::Relu).unwrap();
        assert!(relu.statements.iter().any(|s| s.contains("UPDATE") && s.contains("Value < 0")));
    }

    #[test]
    fn resnet_compiles_with_residual_steps() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let model = zoo::resnet_with_width(5, 4, vec![1, 6, 6], 3, 5);
        let compiled = compile_model(&db, &registry, &model).unwrap();
        assert!(compiled.steps.iter().any(|s| s.kind == StepKind::ResidualAdd));
    }

    #[test]
    fn channel_mismatch_is_rejected() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        // Model claims 2-channel input but first conv expects 1.
        let mut model = zoo::student(vec![1, 8, 8], 2, 3);
        model.input_shape = vec![2, 8, 8];
        assert!(matches!(compile_model(&db, &registry, &model), Err(Error::Geometry(_))));
    }
}
