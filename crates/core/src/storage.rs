//! Model → relational-table storage (paper Algorithms 1 and 2).
//!
//! Table schemas (paper Fig. 3, generalized per the crate docs):
//!
//! * **state**   `{KernelID, TupleID, Value}` — one layer's activations:
//!   `KernelID` = channel, `TupleID` = spatial position `y·W + x`.
//! * **staged feature map** `{MatrixID, OrderID, Value}` — the conv-ready
//!   layout: `MatrixID` = output position, `OrderID` = position inside the
//!   receptive field (channel-major).
//! * **kernel**  `{KernelID, OrderID, Value}` — weights: `KernelID` =
//!   output channel, `OrderID` matches the staged feature map.
//! * **mapping** `{MatrixID, OrderID, KernelID, TupleID}` — Algorithm 2:
//!   how a state table is re-laid into the next staged feature map.
//! * **bias**    `{KernelID, Value}`.
//!
//! Tables are bulk-loaded through the engine's columnar API rather than
//! through generated `INSERT` statements — the paper's algorithms emit
//! SQL, but row-at-a-time inserts would only measure parser overhead.

use minidb::{Column, Database, Field, Schema, Table};
use neuro::ops::conv::conv_output_dim;
use neuro::Tensor;

use crate::error::{Error, Result};
use crate::registry::{NeuralRegistry, TableRole};

/// Geometry of one convolution (or pooling) layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeom {
    pub in_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_c: usize,
    pub k: usize,
    pub stride: usize,
    pub padding: usize,
    pub out_h: usize,
    pub out_w: usize,
}

impl ConvGeom {
    /// Computes the full geometry (paper Eq. 3).
    pub fn of(
        in_c: usize,
        in_h: usize,
        in_w: usize,
        out_c: usize,
        k: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        let out_h = conv_output_dim(in_h, k, stride, padding)?;
        let out_w = conv_output_dim(in_w, k, stride, padding)?;
        Ok(ConvGeom { in_c, in_h, in_w, out_c, k, stride, padding, out_h, out_w })
    }

    /// `k_in = k_h·k_w·N_in` — receptive-field size (paper Sec. IV-A).
    pub fn k_in(&self) -> u64 {
        (self.k * self.k * self.in_c) as u64
    }

    /// `k_out = k_h·k_w·N_out`.
    pub fn k_out(&self) -> u64 {
        (self.k * self.k * self.out_c) as u64
    }

    /// Upper bound of the staged feature-map cardinality
    /// `T_in = H_out·W_out·k_in` (exact when padding = 0; padded positions
    /// are omitted rows).
    pub fn t_in_bound(&self) -> u64 {
        (self.out_h * self.out_w) as u64 * self.k_in()
    }

    /// Output state cardinality `H_out·W_out·N_out`.
    pub fn out_state_rows(&self) -> u64 {
        (self.out_h * self.out_w * self.out_c) as u64
    }
}

// ---------------------------------------------------------------------------
// row generation (Algorithms 1 & 2)
// ---------------------------------------------------------------------------

/// Raw columns of a staged feature-map table.
#[derive(Debug, Default, Clone)]
pub struct FeatureMapRows {
    pub matrix_id: Vec<i64>,
    pub order_id: Vec<i64>,
    pub value: Vec<f64>,
}

/// Paper Algorithm 1, generalized: stages an input tensor directly into
/// conv-ready `{MatrixID, OrderID, Value}` rows. Padded positions are
/// omitted (they would contribute zero to the convolution sum).
pub fn feature_map_rows(input: &Tensor, geom: &ConvGeom) -> Result<FeatureMapRows> {
    let (c_in, h, w) = input.as_chw()?;
    if c_in != geom.in_c || h != geom.in_h || w != geom.in_w {
        return Err(Error::Geometry(format!(
            "input {:?} does not match geometry {}x{}x{}",
            input.shape(),
            geom.in_c,
            geom.in_h,
            geom.in_w
        )));
    }
    let mut rows = FeatureMapRows::default();
    let k = geom.k;
    for oy in 0..geom.out_h {
        for ox in 0..geom.out_w {
            let m = (oy * geom.out_w + ox) as i64;
            for c in 0..c_in {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= w as isize {
                            continue;
                        }
                        rows.matrix_id.push(m);
                        rows.order_id.push((c * k * k + ky * k + kx) as i64);
                        rows.value.push(input.at(c, iy as usize, ix as usize) as f64);
                    }
                }
            }
        }
    }
    Ok(rows)
}

/// Raw columns of a kernel-mapping table.
#[derive(Debug, Default, Clone)]
pub struct MappingRows {
    pub matrix_id: Vec<i64>,
    pub order_id: Vec<i64>,
    pub kernel_id: Vec<i64>,
    pub tuple_id: Vec<i64>,
}

/// Paper Algorithm 2, generalized: the offline mapping from a state table
/// (channel `KernelID`, position `TupleID` over an `in_h × in_w` grid) to
/// the staged feature map of a following convolution with geometry `geom`.
/// Depends only on geometry — built once per layer, offline.
pub fn mapping_rows(geom: &ConvGeom) -> MappingRows {
    let mut rows = MappingRows::default();
    let k = geom.k;
    for oy in 0..geom.out_h {
        for ox in 0..geom.out_w {
            let m = (oy * geom.out_w + ox) as i64;
            for c in 0..geom.in_c {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    if iy < 0 || iy >= geom.in_h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        if ix < 0 || ix >= geom.in_w as isize {
                            continue;
                        }
                        rows.matrix_id.push(m);
                        rows.order_id.push((c * k * k + ky * k + kx) as i64);
                        rows.kernel_id.push(c as i64);
                        rows.tuple_id.push((iy as usize * geom.in_w + ix as usize) as i64);
                    }
                }
            }
        }
    }
    rows
}

/// Kernel-table rows from a `[out_c, in_c, kh, kw]` weight tensor:
/// `OrderID` is channel-major to match [`feature_map_rows`].
pub fn kernel_rows(weight: &Tensor) -> Result<(Vec<i64>, Vec<i64>, Vec<f64>)> {
    let [out_c, in_c, kh, kw] = weight.shape() else {
        return Err(Error::Geometry(format!(
            "kernel weight must be [out,in,kh,kw], got {:?}",
            weight.shape()
        )));
    };
    let (out_c, in_c, kh, kw) = (*out_c, *in_c, *kh, *kw);
    let data = weight.data();
    let mut kernel_id = Vec::with_capacity(data.len());
    let mut order_id = Vec::with_capacity(data.len());
    let mut value = Vec::with_capacity(data.len());
    for oc in 0..out_c {
        for ic in 0..in_c {
            for ky in 0..kh {
                for kx in 0..kw {
                    kernel_id.push(oc as i64);
                    order_id.push((ic * kh * kw + ky * kw + kx) as i64);
                    value.push(data[((oc * in_c + ic) * kh + ky) * kw + kx] as f64);
                }
            }
        }
    }
    Ok((kernel_id, order_id, value))
}

/// Kernel-table rows for a full connection (`[out, in]` weight) — the
/// paper's "specific CNN operator with kernel size 1 and no striding".
pub fn fc_kernel_rows(weight: &Tensor) -> Result<(Vec<i64>, Vec<i64>, Vec<f64>)> {
    let [out, input] = weight.shape() else {
        return Err(Error::Geometry(format!(
            "FC weight must be [out,in], got {:?}",
            weight.shape()
        )));
    };
    let data = weight.data();
    let mut kernel_id = Vec::with_capacity(data.len());
    let mut order_id = Vec::with_capacity(data.len());
    let mut value = Vec::with_capacity(data.len());
    for o in 0..*out {
        for i in 0..*input {
            kernel_id.push(o as i64);
            order_id.push(i as i64);
            value.push(data[o * input + i] as f64);
        }
    }
    Ok((kernel_id, order_id, value))
}

/// Geometry of a deconvolution: `out = (in - 1)·s + k - 2p`.
pub fn deconv_geom(
    in_c: usize,
    in_h: usize,
    in_w: usize,
    out_c: usize,
    k: usize,
    stride: usize,
    padding: usize,
) -> Result<ConvGeom> {
    if stride == 0 {
        return Err(Error::Geometry("deconv stride must be positive".into()));
    }
    let full_h = (in_h - 1) * stride + k;
    let full_w = (in_w - 1) * stride + k;
    if 2 * padding >= full_h || 2 * padding >= full_w {
        return Err(Error::Geometry("deconv padding consumes whole output".into()));
    }
    Ok(ConvGeom {
        in_c,
        in_h,
        in_w,
        out_c,
        k,
        stride,
        padding,
        out_h: full_h - 2 * padding,
        out_w: full_w - 2 * padding,
    })
}

/// Mapping rows for a deconvolution: each input state cell scatters into
/// `k²` output positions. Joined with a deconv kernel table and summed by
/// `(KernelID, MatrixID)`, this realizes the transposed convolution with
/// the same Q1 machinery as the forward convolution.
pub fn deconv_mapping_rows(geom: &ConvGeom) -> MappingRows {
    let mut rows = MappingRows::default();
    let k = geom.k;
    for c in 0..geom.in_c {
        for iy in 0..geom.in_h {
            for ix in 0..geom.in_w {
                let t = (iy * geom.in_w + ix) as i64;
                for ky in 0..k {
                    let oy = (iy * geom.stride + ky) as isize - geom.padding as isize;
                    if oy < 0 || oy >= geom.out_h as isize {
                        continue;
                    }
                    for kx in 0..k {
                        let ox = (ix * geom.stride + kx) as isize - geom.padding as isize;
                        if ox < 0 || ox >= geom.out_w as isize {
                            continue;
                        }
                        rows.matrix_id.push(oy as i64 * geom.out_w as i64 + ox as i64);
                        rows.order_id.push((c * k * k + ky * k + kx) as i64);
                        rows.kernel_id.push(c as i64);
                        rows.tuple_id.push(t);
                    }
                }
            }
        }
    }
    rows
}

/// Kernel rows for a deconvolution weight `[in_c, out_c, kh, kw]`, with
/// `OrderID` numbering matching [`deconv_mapping_rows`].
pub fn deconv_kernel_rows(weight: &Tensor) -> Result<(Vec<i64>, Vec<i64>, Vec<f64>)> {
    let [in_c, out_c, kh, kw] = weight.shape() else {
        return Err(Error::Geometry(format!(
            "deconv weight must be [in,out,kh,kw], got {:?}",
            weight.shape()
        )));
    };
    let (in_c, out_c, kh, kw) = (*in_c, *out_c, *kh, *kw);
    let data = weight.data();
    let mut kernel_id = Vec::with_capacity(data.len());
    let mut order_id = Vec::with_capacity(data.len());
    let mut value = Vec::with_capacity(data.len());
    for oc in 0..out_c {
        for ic in 0..in_c {
            for ky in 0..kh {
                for kx in 0..kw {
                    kernel_id.push(oc as i64);
                    order_id.push((ic * kh * kw + ky * kw + kx) as i64);
                    value.push(data[((ic * out_c + oc) * kh + ky) * kw + kx] as f64);
                }
            }
        }
    }
    Ok((kernel_id, order_id, value))
}

/// Pooling mapping rows (channel-agnostic): output position → input
/// position, for every window element.
pub fn pool_mapping_rows(
    in_h: usize,
    in_w: usize,
    k: usize,
    stride: usize,
) -> Result<(Vec<i64>, Vec<i64>)> {
    let out_h = conv_output_dim(in_h, k, stride, 0)?;
    let out_w = conv_output_dim(in_w, k, stride, 0)?;
    let mut matrix_id = Vec::new();
    let mut tuple_id = Vec::new();
    for oy in 0..out_h {
        for ox in 0..out_w {
            let m = (oy * out_w + ox) as i64;
            for ky in 0..k {
                for kx in 0..k {
                    matrix_id.push(m);
                    tuple_id.push(((oy * stride + ky) * in_w + (ox * stride + kx)) as i64);
                }
            }
        }
    }
    Ok((matrix_id, tuple_id))
}

/// State-table rows from a tensor: `[C,H,W]` maps to (channel, y·W+x);
/// a vector maps to (index, 0).
pub fn state_rows(t: &Tensor) -> (Vec<i64>, Vec<i64>, Vec<f64>) {
    match t.as_chw() {
        Ok((c, h, w)) => {
            let mut kernel_id = Vec::with_capacity(t.len());
            let mut tuple_id = Vec::with_capacity(t.len());
            let mut value = Vec::with_capacity(t.len());
            for ch in 0..c {
                for y in 0..h {
                    for x in 0..w {
                        kernel_id.push(ch as i64);
                        tuple_id.push((y * w + x) as i64);
                        value.push(t.at(ch, y, x) as f64);
                    }
                }
            }
            (kernel_id, tuple_id, value)
        }
        Err(_) => {
            let kernel_id: Vec<i64> = (0..t.len() as i64).collect();
            let tuple_id = vec![0i64; t.len()];
            let value = t.data().iter().map(|&v| v as f64).collect();
            (kernel_id, tuple_id, value)
        }
    }
}

// ---------------------------------------------------------------------------
// bulk table loading
// ---------------------------------------------------------------------------

fn int_field(name: &str) -> Field {
    Field::new(name, minidb::DataType::Int64)
}

fn float_field(name: &str) -> Field {
    Field::new(name, minidb::DataType::Float64)
}

/// Creates (or replaces) a kernel table.
#[allow(clippy::too_many_arguments)] // one argument per table column + geometry
pub fn load_kernel_table(
    db: &Database,
    registry: &NeuralRegistry,
    name: &str,
    kernel_id: Vec<i64>,
    order_id: Vec<i64>,
    value: Vec<f64>,
    k_in: u64,
    n_out: u64,
) -> Result<()> {
    let table = Table::new(
        Schema::new(vec![int_field("KernelID"), int_field("OrderID"), float_field("Value")]),
        vec![Column::Int64(kernel_id), Column::Int64(order_id), Column::Float64(value)],
    )?;
    db.catalog().create_table(name, table, true)?;
    registry.register(name, TableRole::Kernel { k_in, n_out });
    Ok(())
}

/// Creates (or replaces) a mapping table (Algorithm 2's output).
pub fn load_mapping_table(
    db: &Database,
    registry: &NeuralRegistry,
    name: &str,
    rows: MappingRows,
) -> Result<()> {
    let n = rows.matrix_id.len() as u64;
    let table = Table::new(
        Schema::new(vec![
            int_field("MatrixID"),
            int_field("OrderID"),
            int_field("KernelID"),
            int_field("TupleID"),
        ]),
        vec![
            Column::Int64(rows.matrix_id),
            Column::Int64(rows.order_id),
            Column::Int64(rows.kernel_id),
            Column::Int64(rows.tuple_id),
        ],
    )?;
    db.catalog().create_table(name, table, true)?;
    registry.register(name, TableRole::Mapping { rows: n });
    Ok(())
}

/// Creates (or replaces) a pooling mapping table `{MatrixID, TupleID}`.
pub fn load_pool_mapping_table(
    db: &Database,
    registry: &NeuralRegistry,
    name: &str,
    matrix_id: Vec<i64>,
    tuple_id: Vec<i64>,
) -> Result<()> {
    let n = matrix_id.len() as u64;
    let table = Table::new(
        Schema::new(vec![int_field("MatrixID"), int_field("TupleID")]),
        vec![Column::Int64(matrix_id), Column::Int64(tuple_id)],
    )?;
    db.catalog().create_table(name, table, true)?;
    registry.register(name, TableRole::Mapping { rows: n });
    Ok(())
}

/// Creates (or replaces) a bias table `{KernelID, Value}`.
pub fn load_bias_table(db: &Database, name: &str, bias: &[f32]) -> Result<()> {
    let table = Table::new(
        Schema::new(vec![int_field("KernelID"), float_field("Value")]),
        vec![
            Column::Int64((0..bias.len() as i64).collect()),
            Column::Float64(bias.iter().map(|&b| b as f64).collect()),
        ],
    )?;
    db.catalog().create_table(name, table, true)?;
    Ok(())
}

/// Creates (or replaces) a state table from a tensor in `catalog`: the
/// database's own, or a session's to keep the table private.
pub fn load_state_table(
    db: &Database,
    catalog: &minidb::Catalog,
    registry: &NeuralRegistry,
    name: &str,
    tensor: &Tensor,
) -> Result<()> {
    let (kernel_id, tuple_id, value) = state_rows(tensor);
    let rows = kernel_id.len() as u64;
    let table = Table::new(
        Schema::new(vec![int_field("KernelID"), int_field("TupleID"), float_field("Value")]),
        vec![Column::Int64(kernel_id), Column::Int64(tuple_id), Column::Float64(value)],
    )?;
    // Charge the materialization spike against the shared budget (the
    // table replaces the previous state of the same name right after).
    let _mem = match db.memory_budget() {
        Some(budget) => Some(
            budget
                .reserve("nudf.state_table", table.memory_bytes() as u64)
                .map_err(minidb::Error::Governance)?,
        ),
        None => None,
    };
    catalog.create_table(name, table, true)?;
    registry.register(name, TableRole::State { rows });
    Ok(())
}

/// Reads a state table back into a `[C,H,W]` (or `[len]`) tensor.
pub fn read_state_table(db: &Database, name: &str, shape: &[usize]) -> Result<Tensor> {
    let table = db
        .catalog()
        .table(name)
        .ok_or_else(|| Error::Db(minidb::Error::NotFound(format!("table '{name}'"))))?;
    let kernel_id = table.column_by_name("KernelID")?;
    let tuple_id = table.column_by_name("TupleID")?;
    let value = table.column_by_name("Value")?;
    let mut out = Tensor::zeros(shape.to_vec());
    let plane: usize = shape.iter().skip(1).product();
    let total = out.len();
    for row in 0..table.num_rows() {
        let c = kernel_id.i64_at(row) as usize;
        let t = tuple_id.i64_at(row) as usize;
        let idx = c * plane.max(1) + t;
        if idx >= total {
            return Err(Error::Geometry(format!(
                "state row (KernelID={c}, TupleID={t}) outside shape {shape:?}"
            )));
        }
        out.data_mut()[idx] = value.f64_at(row) as f32;
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// storage accounting (paper Table IV)
// ---------------------------------------------------------------------------

/// Estimated on-disk size of a table under ClickHouse-style columnar
/// compression: integer key columns are delta- then varint-encoded, float
/// values stored as 4-byte floats. This is the number the paper's
/// Table IV reports for DL2SQL (its deployment compresses on disk); the
/// raw in-memory size is [`minidb::Table::memory_bytes`].
pub fn compressed_size_estimate(table: &Table) -> usize {
    fn varint_len(v: i64) -> usize {
        let zz = ((v << 1) ^ (v >> 63)) as u64;
        ((64 - zz.leading_zeros()).max(1) as usize).div_ceil(7)
    }
    let mut total = 0usize;
    for col in table.columns() {
        total += match col {
            Column::Int64(v) => {
                let mut prev = 0i64;
                let mut bytes = 0usize;
                for &x in v {
                    bytes += varint_len(x - prev);
                    prev = x;
                }
                bytes
            }
            Column::Date(v) => v.len() * 2,
            Column::Float64(v) => v.len() * 4,
            Column::Bool(v) => v.len().div_ceil(8),
            Column::Utf8(v) => v.iter().map(|s| s.len() + 1).sum(),
            Column::Blob(v) => v.iter().map(|b| b.len() + 4).sum(),
        };
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor_5x5() -> Tensor {
        Tensor::new(vec![1, 5, 5], (0..25).map(|i| i as f32).collect()).unwrap()
    }

    #[test]
    fn geometry_matches_paper_fig3() {
        // 5x5 input, 3x3 kernel, stride 2, no padding -> 2x2 output.
        let g = ConvGeom::of(1, 5, 5, 2, 3, 2, 0).unwrap();
        assert_eq!((g.out_h, g.out_w), (2, 2));
        assert_eq!(g.k_in(), 9);
        assert_eq!(g.k_out(), 18);
        assert_eq!(g.t_in_bound(), 36); // 4 positions x 9 elements
    }

    #[test]
    fn algorithm1_stages_the_receptive_fields() {
        let g = ConvGeom::of(1, 5, 5, 1, 3, 2, 0).unwrap();
        let rows = feature_map_rows(&tensor_5x5(), &g).unwrap();
        assert_eq!(rows.matrix_id.len(), 36);
        // First window (MatrixID 0) covers rows 0..3 x cols 0..3 in order.
        let first: Vec<f64> = (0..9).map(|i| rows.value[i]).collect();
        assert_eq!(first, vec![0.0, 1.0, 2.0, 5.0, 6.0, 7.0, 10.0, 11.0, 12.0]);
        // OrderIDs are 0..9 within each window.
        assert_eq!(&rows.order_id[0..9], &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        // Redundant storage: element (row1,col2) value 7 appears in
        // multiple windows (paper: "some elements ... stored redundantly").
        let count7 = rows.value.iter().filter(|&&v| v == 7.0).count();
        assert!(count7 >= 2);
    }

    #[test]
    fn padding_rows_are_omitted() {
        let g = ConvGeom::of(1, 3, 3, 1, 3, 1, 1).unwrap();
        let t = Tensor::full(vec![1, 3, 3], 1.0);
        let rows = feature_map_rows(&t, &g).unwrap();
        // 9 output positions; corner windows have only 4 valid elements,
        // edges 6, the center 9: total 4*4 + 4*6 + 9 = 49 < 81.
        assert_eq!(rows.matrix_id.len(), 49);
        assert_eq!(g.t_in_bound(), 81);
    }

    #[test]
    fn mapping_covers_same_cells_as_direct_staging() {
        // Staging via Algorithm 1 must agree with re-layout via Algorithm 2
        // applied to the identity state.
        let g = ConvGeom::of(2, 4, 4, 3, 3, 1, 0).unwrap();
        let map = mapping_rows(&g);
        assert_eq!(map.matrix_id.len(), (g.out_h * g.out_w) * g.k_in() as usize);
        // Every TupleID within range, every OrderID < k_in.
        assert!(map.tuple_id.iter().all(|&t| (t as usize) < g.in_h * g.in_w));
        assert!(map.order_id.iter().all(|&o| (o as u64) < g.k_in()));
        assert!(map.kernel_id.iter().all(|&c| (c as usize) < g.in_c));
    }

    #[test]
    fn kernel_rows_are_channel_major() {
        let w = Tensor::new(vec![2, 1, 2, 2], vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let (kid, oid, val) = kernel_rows(&w).unwrap();
        assert_eq!(kid, vec![0, 0, 0, 0, 1, 1, 1, 1]);
        assert_eq!(oid, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(val, vec![1., 2., 3., 4., 5., 6., 7., 8.]);
    }

    #[test]
    fn state_roundtrip_through_db() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let t = Tensor::new(vec![2, 2, 2], (0..8).map(|i| i as f32).collect()).unwrap();
        load_state_table(&db, db.catalog(), &registry, "s", &t).unwrap();
        assert_eq!(registry.role("s"), Some(TableRole::State { rows: 8 }));
        let back = read_state_table(&db, "s", &[2, 2, 2]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn vector_state_uses_kernel_id_as_index() {
        let db = Database::new();
        let registry = NeuralRegistry::new();
        let t = Tensor::vector(&[1.0, 2.0, 3.0]);
        load_state_table(&db, db.catalog(), &registry, "v", &t).unwrap();
        let back = read_state_table(&db, "v", &[3]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn pool_mapping_enumerates_windows() {
        let (m, t) = pool_mapping_rows(4, 4, 2, 2).unwrap();
        assert_eq!(m.len(), 16); // 4 windows x 4 elements
        assert_eq!(&t[0..4], &[0, 1, 4, 5]); // window (0,0)
    }

    #[test]
    fn compressed_estimate_is_below_raw() {
        let table = Table::new(
            Schema::new(vec![int_field("a"), float_field("b")]),
            vec![Column::Int64((0..1000).collect()), Column::Float64(vec![1.5; 1000])],
        )
        .unwrap();
        let compressed = compressed_size_estimate(&table);
        assert!(compressed < table.memory_bytes());
        // Sequential ints delta-encode to ~1 byte each.
        assert!(compressed < 1000 * 2 + 1000 * 4 + 64);
    }
}
