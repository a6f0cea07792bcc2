//! Hierarchical partition trees with task-based scatter/gather.
//!
//! [`Matrix::partition_tree`] and [`Vector::partition_tree`] split a
//! container into blocks that each own a fresh runtime handle, and the
//! split nests: a row-band partition can be subpartitioned into column
//! tiles ("partition a partition"), giving a tree whose leaves are the
//! operands of blocked kernels.
//!
//! Two things distinguish the tree from the flat host-side
//! [`Matrix::partition_rows`]:
//!
//! - **Families.** Every partitioning level links its sibling blocks into
//!   one block *family* ([`Runtime::new_family`]), so the
//!   partition-aware memory policy ([`EvictionPolicy::Family`]) evicts a
//!   sibling set as a unit and the burst prefetcher pulls it to a device
//!   in one planned transfer burst. The parent handle is deliberately
//!   *not* linked into the family: a family member's arrival would
//!   otherwise drag the whole (possibly out-of-core) parent to the
//!   device alongside its block.
//! - **Tasks, not host copies.** [`MatrixPartition::scatter`] and
//!   [`MatrixPartition::gather`] submit one copy task per block (parent
//!   read + block write, and block read + parent read-write
//!   respectively). Ordering against compute tasks touching the same
//!   handles falls out of the usual per-handle dependency inference, so a
//!   partition can be rebuilt or drained mid-graph without a host
//!   synchronisation point. The copy codelets are CPU-only on purpose:
//!   the parent's master copy stays on the host node and only the blocks
//!   ever migrate across PCIe.
//!
//! [`EvictionPolicy::Family`]: peppher_runtime::EvictionPolicy

use crate::matrix::Matrix;
use crate::vector::Vector;
use peppher_runtime::{AccessMode, Arch, Codelet, DataHandle, KernelCtx, Runtime, TaskBuilder};
use peppher_sim::KernelCost;
use std::sync::Arc;

/// Geometry of one block inside its parent, passed to the copy kernels as
/// the task argument pack. A vector block is expressed as a 1-row slice.
#[derive(Debug, Clone, Copy)]
struct BlockSpec {
    parent_cols: usize,
    row0: usize,
    nrows: usize,
    col0: usize,
    ncols: usize,
}

fn scatter_kernel<T: Clone + Send + Sync + 'static>(ctx: &mut KernelCtx<'_>) {
    let s = *ctx.arg::<BlockSpec>();
    let (parent, block) = ctx.rw::<Vec<T>, Vec<T>>(0, 1);
    for r in 0..s.nrows {
        let src = &parent[(s.row0 + r) * s.parent_cols + s.col0..][..s.ncols];
        block[r * s.ncols..(r + 1) * s.ncols].clone_from_slice(src);
    }
}

fn gather_kernel<T: Clone + Send + Sync + 'static>(ctx: &mut KernelCtx<'_>) {
    let s = *ctx.arg::<BlockSpec>();
    let (block, parent) = ctx.rw::<Vec<T>, Vec<T>>(0, 1);
    for r in 0..s.nrows {
        parent[(s.row0 + r) * s.parent_cols + s.col0..][..s.ncols]
            .clone_from_slice(&block[r * s.ncols..(r + 1) * s.ncols]);
    }
}

/// Bandwidth-bound cost for a block copy of `elems` elements / `bytes`
/// bytes: a streaming copy reads each byte once and writes it once
/// (negligible arithmetic, perfectly regular access).
fn copy_cost(elems: usize, bytes: usize) -> KernelCost {
    KernelCost::new(elems as f64, bytes as f64, bytes as f64).with_regularity(1.0)
}

/// The two copy codelets of one partition level, built once with it.
struct CopyCodelets {
    scatter: Arc<Codelet>,
    gather: Arc<Codelet>,
}

impl CopyCodelets {
    fn new<T: Clone + Send + Sync + 'static>() -> Self {
        let cpu = |name, kernel: fn(&mut KernelCtx<'_>)| {
            Arc::new(Codelet::new(name).with_impl(Arch::Cpu, kernel))
        };
        CopyCodelets {
            scatter: cpu("partition_scatter", scatter_kernel::<T>),
            gather: cpu("partition_gather", gather_kernel::<T>),
        }
    }

    /// Submits the copy of `block` out of `parent` (parent read, block
    /// write).
    fn scatter(
        &self,
        rt: &Runtime,
        parent: &DataHandle,
        block: &DataHandle,
        spec: BlockSpec,
        bytes: usize,
    ) {
        TaskBuilder::new(&self.scatter)
            .access(parent, AccessMode::Read)
            .access(block, AccessMode::Write)
            .arg(spec)
            .cost(copy_cost(spec.nrows * spec.ncols, bytes))
            .submit(rt);
    }

    /// Submits the copy of `block` back into `parent` (block read, parent
    /// read-write).
    fn gather(
        &self,
        rt: &Runtime,
        parent: &DataHandle,
        block: &DataHandle,
        spec: BlockSpec,
        bytes: usize,
    ) {
        TaskBuilder::new(&self.gather)
            .access(block, AccessMode::Read)
            .access(parent, AccessMode::ReadWrite)
            .arg(spec)
            .cost(copy_cost(spec.nrows * spec.ncols, bytes))
            .submit(rt);
    }
}

/// One node of a [`MatrixPartition`]: a block plus its offset in the
/// parent and an optional nested partition of the block itself.
struct MatrixNode<T> {
    block: Matrix<T>,
    row0: usize,
    col0: usize,
    sub: Option<MatrixPartition<T>>,
}

/// A partition level over one matrix: sibling blocks tiling the parent,
/// linked by a shared block family. See the [module docs](self).
pub struct MatrixPartition<T> {
    rt: Runtime,
    copies: CopyCodelets,
    parent: DataHandle,
    parent_cols: usize,
    family: u64,
    /// `Some(col_blocks)` when this level is a flat tile grid built by
    /// [`Matrix::partition_tiles`]: nodes are row-major tiles.
    grid_cols: Option<usize>,
    nodes: Vec<MatrixNode<T>>,
}

impl<T: Default + Clone + Send + Sync + 'static> MatrixPartition<T> {
    /// Splits `rows × cols` (the extent of `parent`) into `nblocks` bands
    /// along one axis, registering a zero-initialised block per band and
    /// linking the siblings into a fresh family.
    fn build(
        rt: &Runtime,
        parent: DataHandle,
        rows: usize,
        cols: usize,
        by_rows: bool,
        nblocks: usize,
    ) -> Self {
        let axis = if by_rows { rows } else { cols };
        let nblocks = nblocks.max(1).min(axis.max(1));
        let base = axis / nblocks;
        let extra = axis % nblocks;
        let mut nodes = Vec::with_capacity(nblocks);
        let mut at = 0;
        for b in 0..nblocks {
            let size = base + usize::from(b < extra);
            let (row0, col0, nr, nc) = if by_rows {
                (at, 0, size, cols)
            } else {
                (0, at, rows, size)
            };
            let block = Matrix::register(rt, nr, nc, vec![T::default(); nr * nc]);
            nodes.push(MatrixNode {
                block,
                row0,
                col0,
                sub: None,
            });
            at += size;
        }
        let family = rt.new_family(&nodes.iter().map(|n| n.block.handle()).collect::<Vec<_>>());
        MatrixPartition {
            rt: rt.clone(),
            copies: CopyCodelets::new::<T>(),
            parent,
            parent_cols: cols,
            family,
            grid_cols: None,
            nodes,
        }
    }

    /// Splits `rows × cols` into a *flat* `row_blocks × col_blocks` tile
    /// grid: every tile copies directly root↔tile, with no intermediate
    /// band level (a two-level tree moves every byte twice). Tiles of the
    /// same row band share a family — row neighbours are used together by
    /// blocked kernels, so that is the sibling set worth moving as a unit
    /// (one grid-wide family would burst-prefetch the whole matrix to
    /// every device that touches a single tile).
    fn build_flat_grid(
        rt: &Runtime,
        parent: DataHandle,
        rows: usize,
        cols: usize,
        row_blocks: usize,
        col_blocks: usize,
    ) -> Self {
        let rb = row_blocks.max(1).min(rows.max(1));
        let cb = col_blocks.max(1).min(cols.max(1));
        let split = |axis: usize, nb: usize| {
            let base = axis / nb;
            let extra = axis % nb;
            let mut at = 0;
            (0..nb)
                .map(|b| {
                    let size = base + usize::from(b < extra);
                    let s = (at, size);
                    at += size;
                    s
                })
                .collect::<Vec<_>>()
        };
        let row_spans = split(rows, rb);
        let col_spans = split(cols, cb);
        let mut nodes = Vec::with_capacity(rb * cb);
        let mut family = 0;
        for &(row0, nr) in &row_spans {
            let row = nodes.len();
            for &(col0, nc) in &col_spans {
                let block = Matrix::register(rt, nr, nc, vec![T::default(); nr * nc]);
                nodes.push(MatrixNode {
                    block,
                    row0,
                    col0,
                    sub: None,
                });
            }
            let tiles: Vec<&DataHandle> = nodes[row..].iter().map(|n| n.block.handle()).collect();
            let row_family = rt.new_family(&tiles);
            if family == 0 {
                family = row_family;
            }
        }
        MatrixPartition {
            rt: rt.clone(),
            copies: CopyCodelets::new::<T>(),
            parent,
            parent_cols: cols,
            family,
            grid_cols: Some(cb),
            nodes,
        }
    }

    /// Number of blocks at this level.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the level has no blocks (never true in practice: the block
    /// count is clamped to at least one).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The family id shared by this level's sibling blocks. On a flat
    /// tile grid ([`Matrix::partition_tiles`]) each row band has its own
    /// family and this returns the first row's id.
    pub fn family(&self) -> u64 {
        self.family
    }

    /// Block `i` of this level.
    pub fn block(&self, i: usize) -> &Matrix<T> {
        &self.nodes[i].block
    }

    /// The blocks of this level, in parent order.
    pub fn blocks(&self) -> impl Iterator<Item = &Matrix<T>> {
        self.nodes.iter().map(|n| &n.block)
    }

    /// The `(row, col)` offset of block `i` inside the parent.
    pub fn offset(&self, i: usize) -> (usize, usize) {
        (self.nodes[i].row0, self.nodes[i].col0)
    }

    /// The nested partition of block `i`, if one was created.
    pub fn sub(&self, i: usize) -> Option<&MatrixPartition<T>> {
        self.nodes[i].sub.as_ref()
    }

    /// Splits block `i` into `ntiles` column tiles — the "partition a
    /// partition" step (row bands become tiles). The tiles get their own
    /// family, distinct from this level's.
    pub fn subpartition_cols(&mut self, i: usize, ntiles: usize) -> &MatrixPartition<T> {
        let node = &mut self.nodes[i];
        let sub = MatrixPartition::build(
            &self.rt,
            node.block.handle().clone(),
            node.block.rows(),
            node.block.cols(),
            false,
            ntiles,
        );
        node.sub.insert(sub)
    }

    /// Splits block `i` into `ntiles` row sub-bands (same tree mechanics
    /// as [`MatrixPartition::subpartition_cols`], other axis).
    pub fn subpartition_rows(&mut self, i: usize, ntiles: usize) -> &MatrixPartition<T> {
        let node = &mut self.nodes[i];
        let sub = MatrixPartition::build(
            &self.rt,
            node.block.handle().clone(),
            node.block.rows(),
            node.block.cols(),
            true,
            ntiles,
        );
        node.sub.insert(sub)
    }

    /// Leaf tile `(i, j)`: on a flat grid, the row-major tile; on a tree,
    /// block `j` of band `i`'s nested partition, or band `i` itself when
    /// it was never subpartitioned (then `j` must be 0).
    pub fn tile(&self, i: usize, j: usize) -> &Matrix<T> {
        if let Some(cb) = self.grid_cols {
            return self.block(i * cb + j);
        }
        match &self.nodes[i].sub {
            Some(sub) => sub.block(j),
            None => {
                assert_eq!(j, 0, "band {i} has no column tiles");
                self.block(i)
            }
        }
    }

    /// Fills every block in the tree from its parent, one copy task per
    /// block (parent read, block write). Band tasks run before their
    /// tiles' tasks via the ordinary per-handle dependency order.
    pub fn scatter(&self) {
        for node in &self.nodes {
            let spec = BlockSpec {
                parent_cols: self.parent_cols,
                row0: node.row0,
                nrows: node.block.rows(),
                col0: node.col0,
                ncols: node.block.cols(),
            };
            self.copies.scatter(
                &self.rt,
                &self.parent,
                node.block.handle(),
                spec,
                node.block.bytes(),
            );
            if let Some(sub) = &node.sub {
                sub.scatter();
            }
        }
    }

    /// Writes every block in the tree back into its parent, one copy task
    /// per block (block read, parent read-write). Tiles drain into their
    /// band before the band drains into the root.
    pub fn gather(&self) {
        self.gather_nodes(0..self.nodes.len());
    }

    /// [`MatrixPartition::gather`] restricted to the given block indices,
    /// in the given order. The parent's read-write access serialises the
    /// gather tasks into a chain that runs in *submission* order, so
    /// passing the blocks in the order the computation finalises them lets
    /// the chain drain concurrently with the remaining compute instead of
    /// stalling behind a still-busy block ordered early. Indices may
    /// repeat or cover only part of the level; each listed block is
    /// gathered once per occurrence.
    pub fn gather_nodes(&self, order: impl IntoIterator<Item = usize>) {
        for i in order {
            let node = &self.nodes[i];
            if let Some(sub) = &node.sub {
                sub.gather();
            }
            let spec = BlockSpec {
                parent_cols: self.parent_cols,
                row0: node.row0,
                nrows: node.block.rows(),
                col0: node.col0,
                ncols: node.block.cols(),
            };
            self.copies.gather(
                &self.rt,
                &self.parent,
                node.block.handle(),
                spec,
                node.block.bytes(),
            );
        }
    }
}

impl<T: Default + Clone + Send + Sync + 'static> Matrix<T> {
    /// Builds a row-band partition tree over this matrix. Blocks start
    /// zero-initialised; call [`MatrixPartition::scatter`] to populate
    /// them (as tasks, not host copies).
    pub fn partition_tree(&self, nblocks: usize) -> MatrixPartition<T> {
        MatrixPartition::build(
            self.runtime(),
            self.handle().clone(),
            self.rows(),
            self.cols(),
            true,
            nblocks,
        )
    }

    /// Builds a two-level tree tiling this matrix into a
    /// `row_blocks × col_blocks` grid: row bands, each subpartitioned
    /// into column tiles. `tile(i, j)` addresses the grid.
    pub fn partition_grid(&self, row_blocks: usize, col_blocks: usize) -> MatrixPartition<T> {
        let mut p = self.partition_tree(row_blocks);
        for i in 0..p.len() {
            p.subpartition_cols(i, col_blocks);
        }
        p
    }

    /// Builds a *flat* `row_blocks × col_blocks` tile grid: one level,
    /// every tile copying directly root↔tile. Compared to
    /// [`Matrix::partition_grid`] this halves scatter/gather traffic (the
    /// two-level tree stages every byte through the band blocks) at the
    /// price of losing the band handles — use the tree when kernels also
    /// operate on whole bands. Tiles of the same row band share a family.
    /// `tile(i, j)` addresses the grid; blocks are stored row-major.
    pub fn partition_tiles(&self, row_blocks: usize, col_blocks: usize) -> MatrixPartition<T> {
        MatrixPartition::build_flat_grid(
            self.runtime(),
            self.handle().clone(),
            self.rows(),
            self.cols(),
            row_blocks,
            col_blocks,
        )
    }
}

/// One node of a [`VectorPartition`]: a block plus its offset in the
/// parent and an optional nested partition.
struct VectorNode<T> {
    block: Vector<T>,
    offset: usize,
    sub: Option<VectorPartition<T>>,
}

/// A partition level over one vector — the 1D counterpart of
/// [`MatrixPartition`], sharing the same copy codelets (a vector block is
/// a 1-row slice).
pub struct VectorPartition<T> {
    rt: Runtime,
    copies: CopyCodelets,
    parent: DataHandle,
    parent_len: usize,
    family: u64,
    nodes: Vec<VectorNode<T>>,
}

impl<T: Default + Clone + Send + Sync + 'static> VectorPartition<T> {
    fn build(rt: &Runtime, parent: DataHandle, len: usize, nblocks: usize) -> Self {
        let nblocks = nblocks.max(1).min(len.max(1));
        let base = len / nblocks;
        let extra = len % nblocks;
        let mut nodes = Vec::with_capacity(nblocks);
        let mut at = 0;
        for b in 0..nblocks {
            let size = base + usize::from(b < extra);
            let block = Vector::register(rt, vec![T::default(); size]);
            nodes.push(VectorNode {
                block,
                offset: at,
                sub: None,
            });
            at += size;
        }
        let family = rt.new_family(&nodes.iter().map(|n| n.block.handle()).collect::<Vec<_>>());
        VectorPartition {
            rt: rt.clone(),
            copies: CopyCodelets::new::<T>(),
            parent,
            parent_len: len,
            family,
            nodes,
        }
    }

    /// Number of blocks at this level.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the level has no blocks (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The family id shared by this level's sibling blocks.
    pub fn family(&self) -> u64 {
        self.family
    }

    /// Block `i` of this level.
    pub fn block(&self, i: usize) -> &Vector<T> {
        &self.nodes[i].block
    }

    /// The blocks of this level, in parent order.
    pub fn blocks(&self) -> impl Iterator<Item = &Vector<T>> {
        self.nodes.iter().map(|n| &n.block)
    }

    /// The element offset of block `i` inside the parent.
    pub fn offset(&self, i: usize) -> usize {
        self.nodes[i].offset
    }

    /// The nested partition of block `i`, if one was created.
    pub fn sub(&self, i: usize) -> Option<&VectorPartition<T>> {
        self.nodes[i].sub.as_ref()
    }

    /// Splits block `i` into `nsub` sub-ranges with their own family.
    pub fn subpartition(&mut self, i: usize, nsub: usize) -> &VectorPartition<T> {
        let node = &mut self.nodes[i];
        let sub = VectorPartition::build(
            &self.rt,
            node.block.handle().clone(),
            node.block.len(),
            nsub,
        );
        node.sub.insert(sub)
    }

    fn spec(&self, i: usize) -> BlockSpec {
        BlockSpec {
            parent_cols: self.parent_len,
            row0: 0,
            nrows: 1,
            col0: self.nodes[i].offset,
            ncols: self.nodes[i].block.len(),
        }
    }

    /// Fills every block in the tree from its parent via copy tasks.
    pub fn scatter(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            self.copies.scatter(
                &self.rt,
                &self.parent,
                node.block.handle(),
                self.spec(i),
                node.block.bytes(),
            );
            if let Some(sub) = &node.sub {
                sub.scatter();
            }
        }
    }

    /// Writes every block in the tree back into its parent via copy
    /// tasks, deepest level first.
    pub fn gather(&self) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let Some(sub) = &node.sub {
                sub.gather();
            }
            self.copies.gather(
                &self.rt,
                &self.parent,
                node.block.handle(),
                self.spec(i),
                node.block.bytes(),
            );
        }
    }
}

impl<T: Default + Clone + Send + Sync + 'static> Vector<T> {
    /// Builds a partition tree over this vector. Blocks start
    /// zero-initialised; call [`VectorPartition::scatter`] to populate
    /// them (as tasks, not host copies).
    pub fn partition_tree(&self, nblocks: usize) -> VectorPartition<T> {
        VectorPartition::build(self.runtime(), self.handle().clone(), self.len(), nblocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppher_runtime::SchedulerKind;
    use peppher_sim::MachineConfig;

    fn rt() -> Runtime {
        Runtime::new(
            MachineConfig::c2050_platform_p2p(2, 2).without_noise(),
            SchedulerKind::Dmda,
        )
    }

    #[test]
    fn scatter_then_gather_round_trips_rows() {
        let rt = rt();
        let m = Matrix::register(&rt, 5, 4, (0..20).map(|x| x as f32).collect());
        let p = m.partition_tree(2);
        p.scatter();
        // Remainder goes to the leading band: 3 + 2 rows.
        assert_eq!(p.block(0).rows(), 3);
        assert_eq!(
            p.block(0).to_vec(),
            (0..12).map(|x| x as f32).collect::<Vec<_>>()
        );
        assert_eq!(p.offset(1), (3, 0));
        p.block(1).set(0, 0, 99.0);
        p.gather();
        assert_eq!(m.get(3, 0), 99.0);
    }

    #[test]
    fn blocks_share_a_family_per_level() {
        let rt = rt();
        let m = Matrix::register(&rt, 6, 6, vec![0.0f32; 36]);
        let mut p = m.partition_tree(3);
        p.subpartition_cols(0, 2);
        assert_ne!(p.family(), 0);
        for b in p.blocks() {
            assert_eq!(rt.family_of(b.handle()), p.family());
        }
        let tiles = p.sub(0).unwrap();
        assert_ne!(tiles.family(), p.family(), "each level gets its own family");
        for t in tiles.blocks() {
            assert_eq!(rt.family_of(t.handle()), tiles.family());
        }
        // The parent is deliberately outside the family (see module docs).
        assert_eq!(rt.family_of(m.handle()), 0);
    }

    #[test]
    fn two_level_tree_round_trips() {
        let rt = rt();
        let m = Matrix::register(&rt, 6, 6, (0..36).map(|x| x as f32).collect());
        let mut p = m.partition_tree(2);
        p.subpartition_cols(0, 3);
        p.scatter();
        let tiles = p.sub(0).unwrap();
        // Band 0 is rows 0-2; its middle tile is columns 2-3.
        assert_eq!(
            tiles.block(1).to_vec(),
            vec![2.0, 3.0, 8.0, 9.0, 14.0, 15.0]
        );
        tiles.block(1).set(0, 0, -1.0);
        p.gather();
        assert_eq!(m.get(0, 2), -1.0);
    }

    #[test]
    fn grid_addresses_tiles() {
        let rt = rt();
        let m = Matrix::register(&rt, 4, 4, (0..16).map(|x| x as f32).collect());
        let g = m.partition_grid(2, 2);
        g.scatter();
        assert_eq!(g.tile(1, 1).to_vec(), vec![10.0, 11.0, 14.0, 15.0]);
        assert_eq!(g.tile(0, 0).rows(), 2);
    }

    #[test]
    fn flat_grid_round_trips_and_families_follow_rows() {
        let rt = rt();
        let m = Matrix::register(&rt, 4, 6, (0..24).map(|x| x as f32).collect());
        let g = m.partition_tiles(2, 3);
        g.scatter();
        // Row-major tiles of a 2x3 grid over 4x6: tile (1, 2) is rows 2-3,
        // cols 4-5.
        assert_eq!(g.tile(1, 2).to_vec(), vec![16.0, 17.0, 22.0, 23.0]);
        assert_eq!(g.offset(5), (2, 4));
        // One family per row band, and no intermediate band level.
        let fam_row0 = rt.family_of(g.tile(0, 0).handle());
        assert_eq!(rt.family_of(g.tile(0, 2).handle()), fam_row0);
        assert_ne!(rt.family_of(g.tile(1, 0).handle()), fam_row0);
        assert_eq!(g.family(), fam_row0);
        assert!(g.sub(0).is_none());
        g.tile(0, 1).set(0, 0, -5.0);
        g.gather();
        assert_eq!(m.get(0, 2), -5.0);
    }

    #[test]
    fn gather_nodes_respects_order_and_subset() {
        let rt = rt();
        let m = Matrix::register(&rt, 4, 2, (0..8).map(|x| x as f32).collect());
        let p = m.partition_tree(4);
        p.scatter();
        for i in 0..4 {
            p.block(i).set(0, 0, 100.0 + i as f32);
        }
        // Gather only two bands, back-to-front.
        p.gather_nodes([3, 1]);
        assert_eq!(m.get(3, 0), 103.0);
        assert_eq!(m.get(1, 0), 101.0);
        assert_eq!(m.get(0, 0), 0.0, "band 0 not gathered");
        assert_eq!(m.get(2, 0), 4.0, "band 2 not gathered");
    }

    #[test]
    fn vector_tree_round_trips() {
        let rt = rt();
        let v = Vector::register(&rt, (0..10).collect::<Vec<i32>>());
        let mut p = v.partition_tree(3);
        p.subpartition(0, 2);
        p.scatter();
        assert_eq!(p.block(1).to_vec(), vec![4, 5, 6]);
        assert_eq!(p.sub(0).unwrap().block(1).to_vec(), vec![2, 3]);
        assert_ne!(p.family(), p.sub(0).unwrap().family());
        p.sub(0).unwrap().block(1).set(0, 99);
        p.gather();
        assert_eq!(v.to_vec()[2], 99);
    }

    #[test]
    fn scatter_orders_against_compute_tasks() {
        // A compute task writing the parent *before* scatter must be
        // visible in the blocks without any host-side synchronisation.
        use peppher_runtime::{AccessMode, Arch, Codelet, TaskBuilder};
        let rt = rt();
        let m = Matrix::register(&rt, 4, 2, vec![0.0f32; 8]);
        let fill = Arc::new(Codelet::new("fill7").with_impl(Arch::Cpu, |ctx| {
            ctx.w::<Vec<f32>>(0).fill(7.0);
        }));
        TaskBuilder::new(&fill)
            .access(m.handle(), AccessMode::Write)
            .submit(&rt);
        let p = m.partition_tree(2);
        p.scatter();
        assert_eq!(p.block(1).to_vec(), vec![7.0; 4]);
    }
}
