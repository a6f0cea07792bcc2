//! Repeated blocked SpMV under capacity pressure — the `dmdar` locality
//! scenario.
//!
//! The scenario submits `iters` products for each of `blocks` independent
//! CSR blocks in *iteration-major* order (every block once, then every
//! block again, ...) with every task forced onto the GPU variant, on a
//! device budget that holds only a few blocks at a time. A FIFO dispatch
//! order (`dmda`) walks the blocks cyclically, so each block is evicted
//! before its next iteration arrives and must cross the PCIe link again
//! every round — the classic LRU-thrash pattern. `dmdar` instead notices
//! at pop time that a just-finished block's successor (its next iteration
//! becomes ready the moment the previous one completes) already has its
//! operands resident and runs the whole per-block chain back-to-back,
//! fetching each block roughly once.
//!
//! The bench harness and the scheduler-parity suite compare
//! `total_transfer_bytes()` and makespan between `dmda` and `dmdar` on
//! this scenario, and check the block results are bitwise identical.

use super::{banded_matrix, build_component, CsrMatrix, SpmvArgs};
use peppher_runtime::Runtime;

/// Shape of the repeated blocked-SpMV workload.
#[derive(Debug, Clone, Copy)]
pub struct LocalityScenario {
    /// Independent CSR blocks.
    pub blocks: usize,
    /// Products per block, submitted iteration-major.
    pub iters: usize,
    /// Rows (= cols) per block.
    pub rows: usize,
    /// Band width of each block matrix.
    pub band: usize,
}

impl LocalityScenario {
    /// The shape used by the parity tests and the `dmdar_locality` bench:
    /// 8 blocks x 6 iterations on a budget of ~3 block working sets.
    pub fn default_shape() -> Self {
        LocalityScenario {
            blocks: 8,
            iters: 6,
            rows: 512,
            band: 16,
        }
    }

    /// The deterministic block matrices of this scenario.
    pub fn matrices(&self) -> Vec<CsrMatrix> {
        (0..self.blocks)
            .map(|b| banded_matrix(self.rows, self.band, 0xB10C + b as u64))
            .collect()
    }

    /// A device budget holding roughly three block working sets (matrix +
    /// x + y + pinned-operand slack): small enough that the full scenario
    /// is out-of-core, large enough that any single task's pinned operands
    /// always fit.
    pub fn suggested_budget(&self) -> u64 {
        let per_block = self
            .matrices()
            .iter()
            .map(|m| m.bytes() as u64 + 4 * (m.cols + m.rows) as u64)
            .max()
            .unwrap_or(0);
        3 * per_block + per_block / 2
    }
}

/// Runs the scenario on `rt` (forced `spmv_cuda`) and returns each block's
/// final product for bitwise cross-scheduler comparison. The caller
/// inspects `rt.stats()` for transferred bytes and makespan.
pub fn run_locality(rt: &Runtime, sc: &LocalityScenario) -> Vec<Vec<f32>> {
    let comp = build_component();
    let matrices = sc.matrices();
    let x = rt.register(vec![1.0f32; sc.rows]);

    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    for m in &matrices {
        let row_ptr = rt.register(m.row_ptr.clone());
        let col_idx = rt.register(m.col_idx.clone());
        let values = rt.register(m.values.clone());
        let y = rt.register(vec![0.0f32; m.rows]);
        inputs.push((row_ptr, col_idx, values));
        outputs.push(y);
    }

    // Iteration-major: every block once per round. Successive products on
    // the same block are chained by the write-after-write dependency on
    // its y handle, so block b's round i+1 becomes ready exactly when
    // round i completes — the reorder opportunity dmdar exploits.
    //
    // Every product reads `x`, and its copy to the device waits for this
    // host guard: the first product cannot finish its fetch until the
    // whole graph is submitted. Without it the dispatch order would
    // depend on how the submitting thread and the device's worker
    // interleave — in lock-step the queue never holds a choice.
    let hold = rt.acquire_write::<Vec<f32>>(&x);
    for _ in 0..sc.iters {
        for (b, m) in matrices.iter().enumerate() {
            let (row_ptr, col_idx, values) = &inputs[b];
            comp.call()
                .operand(row_ptr)
                .operand(col_idx)
                .operand(values)
                .operand(&x)
                .operand(&outputs[b])
                .arg(SpmvArgs { rows: m.rows })
                .context("nnz", m.nnz() as f64)
                .context("rows", m.rows as f64)
                .context("regularity", m.regularity)
                .force_variant("spmv_cuda")
                .submit(rt);
        }
    }
    drop(hold);
    rt.wait_all();

    for (row_ptr, col_idx, values) in inputs {
        rt.unregister::<Vec<u32>>(row_ptr);
        rt.unregister::<Vec<u32>>(col_idx);
        rt.unregister::<Vec<f32>>(values);
    }
    rt.unregister::<Vec<f32>>(x);
    outputs
        .into_iter()
        .map(|y| rt.unregister::<Vec<f32>>(y))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spmv::reference;
    use peppher_runtime::{Runtime, RuntimeConfig, SchedulerKind};
    use peppher_sim::MachineConfig;

    #[test]
    fn locality_results_match_reference() {
        let sc = LocalityScenario {
            blocks: 3,
            iters: 2,
            rows: 128,
            band: 8,
        };
        let rt = Runtime::with_config(
            MachineConfig::c2050_platform(1)
                .without_noise()
                .with_device_mem(sc.suggested_budget()),
            RuntimeConfig {
                scheduler: SchedulerKind::Dmdar,
                enable_prefetch: false,
                ..RuntimeConfig::default()
            },
        );
        let got = run_locality(&rt, &sc);
        let x = vec![1.0f32; sc.rows];
        for (m, y) in sc.matrices().iter().zip(&got) {
            assert_eq!(y, &reference(m, &x));
        }
        rt.shutdown();
    }
}
