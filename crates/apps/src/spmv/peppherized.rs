//! SpMV written *with* the composition tool (the "Tool" version of
//! Table I): containers + component invocation; variant selection, task
//! creation, data management and synchronization are all handled by the
//! framework.

use super::{build_component, CsrMatrix, SpmvArgs};
use peppher_containers::Vector;
use peppher_runtime::{Runtime, TaskHints};

// LOC:TOOL:BEGIN
/// Runs `iters` products `y = A x` through the PEPPHER component and
/// returns `y`.
pub fn run_peppherized(rt: &Runtime, m: &CsrMatrix, x: &[f32], iters: usize) -> Vec<f32> {
    run_peppherized_ex(rt, m, x, iters, None)
}

/// One product with a forced variant (user-guided static composition in
/// the extreme — the paper's "Direct CUDA" style execution when forced to
/// `spmv_cuda`).
pub fn run_peppherized_forced(rt: &Runtime, m: &CsrMatrix, x: &[f32], variant: &str) -> Vec<f32> {
    run_peppherized_ex(rt, m, x, 1, Some(variant))
}

/// As [`run_peppherized`], optionally forcing one variant (user-guided
/// static composition).
pub fn run_peppherized_ex(
    rt: &Runtime,
    m: &CsrMatrix,
    x: &[f32],
    iters: usize,
    force_variant: Option<&str>,
) -> Vec<f32> {
    let comp = build_component();
    let row_ptr = Vector::register(rt, m.row_ptr.clone());
    let col_idx = Vector::register(rt, m.col_idx.clone());
    let values = Vector::register(rt, m.values.clone());
    let xv = Vector::register(rt, x.to_vec());
    let yv = Vector::register(rt, vec![0.0f32; m.rows]);

    for _ in 0..iters {
        let mut call = comp
            .call()
            .operand(row_ptr.handle())
            .operand(col_idx.handle())
            .operand(values.handle())
            .operand(xv.handle())
            .operand(yv.handle())
            .arg(SpmvArgs { rows: m.rows })
            .context("nnz", m.nnz() as f64)
            .context("rows", m.rows as f64)
            .context("regularity", m.regularity);
        if let Some(v) = force_variant {
            call = call.force_variant(v);
        }
        call.submit(rt);
    }
    yv.into_vec()
}
// LOC:TOOL:END

/// Hybrid execution (Fig. 5): the single spmv call is mapped to one
/// sub-task per row block; the performance-aware scheduler spreads blocks
/// across all CPU workers and the GPU, and only GPU-assigned blocks cross
/// the PCIe link.
pub fn run_hybrid(rt: &Runtime, m: &CsrMatrix, x: &[f32], nblocks: usize) -> Vec<f32> {
    run_hybrid_ex(rt, m, x, nblocks, None)
}

/// As [`run_hybrid`], optionally forcing every block onto one variant.
/// Forcing `"spmv_cuda"` streams the entire working set through device
/// memory — the out-of-core demonstration uses this to put a deterministic
/// amount of pressure on the GPU node's capacity budget.
pub fn run_hybrid_ex(
    rt: &Runtime,
    m: &CsrMatrix,
    x: &[f32],
    nblocks: usize,
    force_variant: Option<&str>,
) -> Vec<f32> {
    let comp = build_component();
    let nblocks = nblocks.max(1).min(m.rows.max(1));
    let xv = Vector::register(rt, x.to_vec());
    let yv = Vector::register(rt, vec![0.0f32; m.rows]);

    let rows_per_block = m.rows.div_ceil(nblocks);
    let mut block_outputs = Vec::new();
    let mut block_inputs = Vec::new();
    for b in 0..nblocks {
        let r0 = b * rows_per_block;
        let r1 = ((b + 1) * rows_per_block).min(m.rows);
        if r0 >= r1 {
            break;
        }
        let blk = m.row_block(r0, r1);
        let row_ptr = Vector::register(rt, blk.row_ptr.clone());
        let col_idx = Vector::register(rt, blk.col_idx.clone());
        let values = Vector::register(rt, blk.values.clone());
        let yb = Vector::register(rt, vec![0.0f32; blk.rows]);
        let mut call = comp
            .call()
            .operand(row_ptr.handle())
            .operand(col_idx.handle())
            .operand(values.handle())
            .operand(xv.handle())
            .operand(yb.handle())
            // Each CSR block is consumed exactly once: as soon as its task
            // finishes, demote the block's device replicas to eager-eviction
            // candidates so they make room for later blocks ahead of live
            // data instead of squatting on the capacity budget.
            .wont_use(row_ptr.handle())
            .wont_use(col_idx.handle())
            .wont_use(values.handle())
            .wont_use(yb.handle())
            .arg(SpmvArgs { rows: blk.rows })
            .context("nnz", blk.nnz() as f64)
            .context("rows", blk.rows as f64)
            .context("regularity", blk.regularity);
        if let Some(v) = force_variant {
            call = call.force_variant(v);
        }
        call.submit(rt);
        block_inputs.push((row_ptr, col_idx, values));
        block_outputs.push(yb);
    }
    // "The final result can be produced by just simple concatenation of
    // intermediate output results produced by each sub-task."
    yv.gather(&block_outputs);
    // Unregister the per-block operands (previously they stayed registered
    // for the lifetime of the runtime): frees the host copies and any
    // remaining device buffers.
    for (rp, ci, va) in block_inputs {
        rp.into_vec();
        ci.into_vec();
        va.into_vec();
    }
    for yb in block_outputs {
        yb.into_vec();
    }
    yv.into_vec()
}
