//! `ooc_apps`: the composition path plus data management under memory
//! pressure. Two 256 KiB GPUs together hold a quarter of the SpMV matrix,
//! so every op evicts. One op runs two apps, one after the other, through
//! the component and container APIs:
//!
//! - blocked SpMV over a banded matrix: read-heavy, clean evictions;
//! - tiled SGEMM: its C tiles are written, so evictions write back.
//!
//! An op runs both rather than one of them in turn because an SGEMM takes
//! about 2.5 times as long as an SpMV: the latencies of alternating ops
//! fall in two clusters with a gap between them, and a median of such a
//! mix lands anywhere in the gap.
//!
//! Set-up runs the composition tool over both apps' descriptors (save,
//! scan, explore, tunable expansion, code generation) before the runtime
//! starts.

use crate::spans::Tracer;
use crate::{Rng, Workload};
use peppher_apps::{sgemm, spmv};
use peppher_compose::codegen::generate_all;
use peppher_compose::{build_ir, expand_tunables, Recipe};
use peppher_containers::{Matrix, Vector};
use peppher_core::Component;
use peppher_descriptor::{ComponentDescriptor, MainDescriptor, Repository, TunableParam};
use peppher_runtime::{Runtime, RuntimeConfig, SchedulerKind};
use peppher_sim::MachineConfig;
use std::path::Path;
use std::sync::Arc;

/// Per-GPU memory: both GPUs together hold a quarter of the SpMV matrix,
/// so both apps evict.
const DEVICE_MEM: u64 = 1 << 18;
const SPMV_ROWS: usize = 8192;
const SPMV_BAND: usize = 32;
const SPMV_BLOCKS: usize = 32;
const GEMM_N: usize = 192;
const GEMM_TILES: usize = 4;
/// Distinct input sets per app; ops cycle through them.
const POOL: usize = 4;

/// Tasks one SpMV op runs: a call and a gather copy per block.
const SPMV_TASKS: u64 = 2 * SPMV_BLOCKS as u64;
/// Tasks one SGEMM op runs: band and tile scatters of A, B and C, one
/// call per tile product, and band and tile gathers of C.
const GEMM_TASKS: u64 = {
    let copies = (GEMM_TILES + GEMM_TILES * GEMM_TILES) as u64;
    3 * copies + (GEMM_TILES * GEMM_TILES * GEMM_TILES) as u64 + copies
};

/// Runs the composition tool over the two apps' descriptors in a fresh
/// repository under `dir`, which it removes afterwards.
pub fn compose(dir: &Path) -> Result<(), String> {
    let mut repo = Repository::new();
    let mut main = MainDescriptor::new("perfbench_ooc", "xeon_c2050");
    for iface in [spmv::interface(), sgemm::interface()] {
        let name = iface.name.clone();
        main.components.push(name.clone());
        for (model, suffix) in [("cpp", "cpu"), ("openmp", "omp"), ("cuda", "cuda")] {
            let mut c = ComponentDescriptor::new(format!("{name}_{suffix}"), &name, model);
            c.sources.push(format!("{model}/{name}_{suffix}.rs"));
            if model == "cuda" {
                c.tunables.push(TunableParam {
                    name: "block".into(),
                    values: vec!["128".into(), "256".into()],
                    default: Some("128".into()),
                });
            }
            repo.add_component(c);
        }
        repo.add_interface(iface);
    }
    repo.add_main(main);
    let _ = std::fs::remove_dir_all(dir);
    repo.save(dir).map_err(|e| e.to_string())?;
    let scanned = Repository::scan(dir).map_err(|e| e.to_string())?;
    let mut ir =
        build_ir(&scanned, "perfbench_ooc", Recipe::default()).map_err(|e| e.to_string())?;
    expand_tunables(&mut ir);
    std::hint::black_box(generate_all(&ir));
    std::fs::remove_dir_all(dir).map_err(|e| e.to_string())
}

struct CsrBlock {
    rows: usize,
    nnz: usize,
    row_ptr: Vector<u32>,
    col_idx: Vector<u32>,
    values: Vector<f32>,
}

struct GemmInput {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    want: Vec<f32>,
}

pub struct OocApps {
    rt: Runtime,
    spmv: Arc<Component>,
    sgemm: Arc<Component>,
    regularity: f64,
    blocks: Vec<CsrBlock>,
    xs: Vec<(Vec<f32>, Vec<f32>)>,
    gemms: Vec<GemmInput>,
    next: usize,
}

impl OocApps {
    pub fn new(seed: u64) -> Self {
        let rt = Runtime::with_config(
            MachineConfig::multi_gpu(1, 2)
                .without_noise()
                .with_device_mem(DEVICE_MEM),
            RuntimeConfig {
                scheduler: SchedulerKind::Dmdar,
                // Off, unlike the runtime's default: with operand prefetch
                // on, dmda-family placement now and then returns one stale
                // C tile from the tiled SGEMM, and a benchmark workload
                // must not fail (README.md, Findings).
                enable_prefetch: false,
                ..RuntimeConfig::default()
            },
        );
        let mut rng = Rng::new(seed);
        let m = spmv::banded_matrix(SPMV_ROWS, SPMV_BAND, seed);
        let xs = (0..POOL)
            .map(|_| {
                let x: Vec<f32> = (0..m.cols).map(|_| rng.unit_f32()).collect();
                let want = spmv::reference(&m, &x);
                (x, want)
            })
            .collect();
        let gemms = (0..POOL)
            .map(|_| {
                let (a, b, c) = sgemm::generate(GEMM_N, rng.next());
                let want = sgemm::reference(&a, &b, &c, gemm_args(GEMM_N, GEMM_N, GEMM_N, 0.5));
                GemmInput { a, b, c, want }
            })
            .collect();
        let per_block = SPMV_ROWS / SPMV_BLOCKS;
        let blocks = (0..SPMV_BLOCKS)
            .map(|b| {
                let blk = m.row_block(b * per_block, (b + 1) * per_block);
                CsrBlock {
                    rows: blk.rows,
                    nnz: blk.nnz(),
                    row_ptr: Vector::register(&rt, blk.row_ptr),
                    col_idx: Vector::register(&rt, blk.col_idx),
                    values: Vector::register(&rt, blk.values),
                }
            })
            .collect();
        OocApps {
            spmv: spmv::build_component(),
            sgemm: sgemm::build_component(),
            regularity: m.regularity,
            rt,
            blocks,
            xs,
            gemms,
            next: 0,
        }
    }

    fn spmv_op(&self, which: usize, tr: &mut Tracer) -> Result<u64, String> {
        let (x, want) = &self.xs[which];
        let (xv, yv) = tr.span("runtime.register", 2, |_| {
            (
                Vector::register(&self.rt, x.clone()),
                Vector::register(&self.rt, vec![0.0f32; SPMV_ROWS]),
            )
        });
        let yp = tr.span("containers.partition", 1, |_| {
            yv.partition_tree(SPMV_BLOCKS)
        });
        for (blk, yb) in self.blocks.iter().zip(yp.blocks()) {
            tr.span("core.call_submit", 1, |_| {
                self.spmv
                    .call()
                    .operand(blk.row_ptr.handle())
                    .operand(blk.col_idx.handle())
                    .operand(blk.values.handle())
                    .operand(xv.handle())
                    .operand(yb.handle())
                    .arg(spmv::SpmvArgs { rows: blk.rows })
                    .context("nnz", blk.nnz as f64)
                    .context("rows", blk.rows as f64)
                    .context("regularity", self.regularity)
                    .submit(&self.rt);
            });
        }
        let y = tr.span("containers.gather", 1, |_| {
            yp.gather();
            yv.into_vec()
        });
        tr.span("runtime.unregister", 1 + SPMV_BLOCKS as u32, |_| {
            xv.into_vec();
            for yb in yp.blocks() {
                self.rt.unregister::<Vec<f32>>(yb.handle().clone());
            }
        });
        check("spmv", &y, want)?;
        Ok(SPMV_TASKS)
    }

    fn sgemm_op(&self, which: usize, tr: &mut Tracer) -> Result<u64, String> {
        let input = &self.gemms[which];
        let (am, bm, cm) = tr.span("runtime.register", 3, |_| {
            (
                Matrix::register(&self.rt, GEMM_N, GEMM_N, input.a.clone()),
                Matrix::register(&self.rt, GEMM_N, GEMM_N, input.b.clone()),
                Matrix::register(&self.rt, GEMM_N, GEMM_N, input.c.clone()),
            )
        });
        let (ag, bg, cg) = tr.span("containers.partition", 3, |_| {
            (
                am.partition_grid(GEMM_TILES, GEMM_TILES),
                bm.partition_grid(GEMM_TILES, GEMM_TILES),
                cm.partition_grid(GEMM_TILES, GEMM_TILES),
            )
        });
        tr.span("containers.scatter", 3, |_| {
            ag.scatter();
            bg.scatter();
            cg.scatter();
        });
        for i in 0..GEMM_TILES {
            for j in 0..GEMM_TILES {
                let ct = cg.tile(i, j);
                for k in 0..GEMM_TILES {
                    let (at, bt) = (ag.tile(i, k), bg.tile(k, j));
                    // The first k-step applies C's scale, the rest accumulate.
                    let beta = if k == 0 { 0.5 } else { 1.0 };
                    tr.span("core.call_submit", 1, |_| {
                        self.sgemm
                            .call()
                            .operand(at.handle())
                            .operand(bt.handle())
                            .operand(ct.handle())
                            .arg(gemm_args(at.rows(), at.cols(), bt.cols(), beta))
                            .context("m", at.rows() as f64)
                            .context("k", at.cols() as f64)
                            .context("n", bt.cols() as f64)
                            .submit(&self.rt);
                    });
                }
            }
        }
        let c = tr.span("containers.gather", 1, |_| {
            cg.gather();
            cm.into_vec()
        });
        tr.span(
            "runtime.unregister",
            2 + 3 * (GEMM_TILES * (GEMM_TILES + 1)) as u32,
            |_| {
                am.into_vec();
                bm.into_vec();
                for part in [&ag, &bg, &cg] {
                    for i in 0..part.len() {
                        if let Some(sub) = part.sub(i) {
                            for tile in sub.blocks() {
                                self.rt.unregister::<Vec<f32>>(tile.handle().clone());
                            }
                        }
                        self.rt
                            .unregister::<Vec<f32>>(part.block(i).handle().clone());
                    }
                }
            },
        );
        check("sgemm", &c, &input.want)?;
        Ok(GEMM_TASKS)
    }
}

fn gemm_args(m: usize, k: usize, n: usize, beta: f32) -> sgemm::SgemmArgs {
    sgemm::SgemmArgs {
        m,
        k,
        n,
        alpha: 1.0,
        beta,
    }
}

/// Both apps accumulate every output element in the reference's order,
/// so a correct result matches it bit for bit.
fn check(app: &str, got: &[f32], want: &[f32]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{app}: {} outputs, want {}", got.len(), want.len()));
    }
    let wrong = got
        .iter()
        .zip(want)
        .filter(|(g, w)| g.to_bits() != w.to_bits())
        .count();
    if wrong > 0 {
        return Err(format!(
            "{app}: {wrong} of {} outputs differ from the reference",
            got.len()
        ));
    }
    Ok(())
}

impl Workload for OocApps {
    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let which = self.next % POOL;
        self.next += 1;
        Ok(self.spmv_op(which, tr)? + self.sgemm_op(which, tr)?)
    }
}
