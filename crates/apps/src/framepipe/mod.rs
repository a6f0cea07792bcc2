//! A camera-style streaming frame pipeline over the graph-replay runtime.
//!
//! PEPPHER's demonstrators include streaming image pipelines where frames
//! flow through a fixed chain of processing kernels. This module builds
//! that shape from two scoped threads and two bounded
//! [`std::sync::mpsc::sync_channel`] links:
//!
//! - a seeded **generator** (the calling thread) produces synthetic frames;
//! - a **process** stage owns a [`peppher_runtime::GraphInstance`] of the
//!   per-frame kernel DAG (denoise → edge-detect → tonemap) and replays
//!   it once per frame, rebinding the frame buffer between replays; each
//!   frame is tagged with the [`RunId`] its replay returns, the same tag
//!   its tasks carry in the trace;
//! - a **sink** stage (optionally slowed, to demonstrate backpressure)
//!   reduces each processed frame to a checksum.
//!
//! The bounded links keep memory use constant no matter how fast frames
//! are generated: when the sink falls behind, the generator blocks
//! (`blocked_sends` in the returned [`PipeStats`] counts those stalls). A
//! panicking stage drops its channel ends, so the other stages stop and
//! the panic re-raises when the stage is joined.

use peppher_runtime::{
    AccessMode, Arch, Codelet, GraphInstance, GraphSlot, GraphTask, JobHandle, RunId, Runtime,
    TaskGraph,
};
use peppher_sim::KernelCost;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SendError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

/// One synthetic frame: a `width * height` grayscale intensity buffer.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame sequence number (generation order).
    pub seq: u32,
    /// Row-major pixel intensities.
    pub pixels: Vec<f32>,
}

/// Deterministic frame generator (xorshift-seeded): frame `seq` of
/// `width * height` pixels in `[0, 1)`.
pub fn generate_frame(seq: u32, width: usize, height: usize) -> Frame {
    let mut state = 0x9E37_79B9u64 ^ ((seq as u64 + 1) << 17);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    };
    Frame {
        seq,
        pixels: (0..width * height).map(|_| next()).collect(),
    }
}

/// 3-point horizontal box blur (the "denoise" kernel).
pub fn denoise_kernel(src: &[f32], dst: &mut [f32], width: usize) {
    for (i, d) in dst.iter_mut().enumerate() {
        let col = i % width;
        let left = if col > 0 { src[i - 1] } else { src[i] };
        let right = if col + 1 < width { src[i + 1] } else { src[i] };
        *d = (left + src[i] + right) / 3.0;
    }
}

/// Horizontal gradient magnitude (the "edge detect" kernel).
pub fn edge_kernel(src: &[f32], dst: &mut [f32], width: usize) {
    for (i, d) in dst.iter_mut().enumerate() {
        let col = i % width;
        let left = if col > 0 { src[i - 1] } else { src[i] };
        let right = if col + 1 < width { src[i + 1] } else { src[i] };
        *d = (right - left).abs();
    }
}

/// Reinhard-style tone map blending the denoised frame with edge weight.
pub fn tonemap_kernel(base: &[f32], edges: &[f32], dst: &mut [f32]) {
    for ((d, &b), &e) in dst.iter_mut().zip(base).zip(edges) {
        let v = b + 0.5 * e;
        *d = v / (1.0 + v);
    }
}

/// Sequential reference for one frame — ground truth for the tests.
pub fn reference_process(frame: &Frame, width: usize) -> Vec<f32> {
    let n = frame.pixels.len();
    let mut denoised = vec![0.0f32; n];
    denoise_kernel(&frame.pixels, &mut denoised, width);
    let mut edges = vec![0.0f32; n];
    edge_kernel(&denoised, &mut edges, width);
    let mut out = vec![0.0f32; n];
    tonemap_kernel(&denoised, &edges, &mut out);
    out
}

/// Order-independent checksum of a processed frame (sum of pixel bits,
/// wrapping) — stable across f32 traversal orders since each pixel value
/// is itself deterministic.
pub fn frame_checksum(pixels: &[f32]) -> u64 {
    pixels
        .iter()
        .fold(0u64, |acc, v| acc.wrapping_add(v.to_bits() as u64))
}

/// Records the per-frame kernel DAG: denoise → edge → tonemap over four
/// slots (input, denoised, edges, output).
fn record_frame_graph(width: usize, height: usize) -> (TaskGraph, [GraphSlot; 4]) {
    let n = width * height;
    let make = |name: &str, f: fn(&mut peppher_runtime::KernelCtx<'_>)| -> Arc<Codelet> {
        Arc::new(
            Codelet::new(name)
                .with_impl(Arch::Cpu, f)
                .with_impl(Arch::Gpu, f),
        )
    };
    let denoise = make("frame_denoise", |ctx| {
        let width = *ctx.arg::<usize>();
        let src = ctx.r::<Vec<f32>>(0).clone();
        denoise_kernel(&src, ctx.w::<Vec<f32>>(1), width);
    });
    let edge = make("frame_edge", |ctx| {
        let width = *ctx.arg::<usize>();
        let src = ctx.r::<Vec<f32>>(0).clone();
        edge_kernel(&src, ctx.w::<Vec<f32>>(1), width);
    });
    let tonemap = make("frame_tonemap", |ctx| {
        let base = ctx.r::<Vec<f32>>(0).clone();
        let edges = ctx.r::<Vec<f32>>(1).clone();
        tonemap_kernel(&base, &edges, ctx.w::<Vec<f32>>(2));
    });

    let mut g = TaskGraph::new();
    let input = g.slot(vec![0.0f32; n]);
    let denoised = g.slot(vec![0.0f32; n]);
    let edges = g.slot(vec![0.0f32; n]);
    let output = g.slot(vec![0.0f32; n]);
    let cost = KernelCost::new(6.0 * n as f64, 8.0 * n as f64, 4.0 * n as f64);
    g.add(
        GraphTask::new(&denoise)
            .access(input, AccessMode::Read)
            .access(denoised, AccessMode::Write)
            .arg(width)
            .cost(cost),
    );
    g.add(
        GraphTask::new(&edge)
            .access(denoised, AccessMode::Read)
            .access(edges, AccessMode::Write)
            .arg(width)
            .cost(cost),
    );
    g.add(
        GraphTask::new(&tonemap)
            .access(denoised, AccessMode::Read)
            .access(edges, AccessMode::Read)
            .access(output, AccessMode::Write)
            .cost(cost),
    );
    (g, [input, denoised, edges, output])
}

/// Configuration for [`run_pipeline`].
#[derive(Debug, Clone, Copy)]
pub struct PipeConfig {
    /// Frame width in pixels.
    pub width: usize,
    /// Frame height in pixels.
    pub height: usize,
    /// Number of frames to stream.
    pub frames: u32,
    /// Capacity of each bounded link between stages (at least 1).
    pub capacity: usize,
    /// Artificial per-frame delay in the sink stage (models a slow
    /// consumer; `None` = full speed).
    pub sink_delay: Option<Duration>,
}

impl Default for PipeConfig {
    fn default() -> Self {
        PipeConfig {
            width: 32,
            height: 24,
            frames: 16,
            capacity: 4,
            sink_delay: None,
        }
    }
}

/// Channel and backpressure counters of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipeStats {
    /// Frames that reached the sink.
    pub completed: u64,
    /// Sends that found their link full and blocked — nonzero means
    /// backpressure actually engaged.
    pub blocked_sends: u64,
    /// High-water mark of frames queued on either link, as its receiver
    /// found it.
    pub max_queue_depth: u64,
    /// High-water mark of frames fed but not yet through the sink.
    pub max_in_flight: u64,
}

/// The result of streaming one pipeline run.
#[derive(Debug)]
pub struct PipeReport {
    /// `(frame RunId, frame seq, checksum)` per frame, in completion order.
    pub checksums: Vec<(RunId, u32, u64)>,
    /// Channel/backpressure counters.
    pub stats: PipeStats,
}

/// Streams `cfg.frames` generated frames through generate → process →
/// sink. The process stage replays one recorded [`TaskGraph`] per frame
/// on `rt`, rebinding the input slot each time — the streaming analogue
/// of the ODE solver's iteration replay.
pub fn run_pipeline(rt: &Runtime, cfg: PipeConfig) -> PipeReport {
    let (graph, slots) = record_frame_graph(cfg.width, cfg.height);
    let inst = graph.instantiate(rt);
    stream_frames(inst, slots, cfg)
}

/// [`run_pipeline`] scoped to a job context: the per-frame replays count
/// toward the job's wait, their faults are the job's, the instance's
/// frame buffers are job-owned, and cancelling the job drains any
/// in-flight replay and reclaims those buffers' device replicas.
pub fn run_pipeline_for(job: &JobHandle, cfg: PipeConfig) -> PipeReport {
    let (graph, slots) = record_frame_graph(cfg.width, cfg.height);
    let inst = job.instantiate(&graph);
    stream_frames(inst, slots, cfg)
}

/// Counters shared by the three pipeline threads. They are statistics
/// that publish no other data, so `Relaxed` suffices: the depth bound in
/// [`Counters::recv`] rests on each thread's program order and the
/// channel's own synchronization.
#[derive(Default)]
struct Counters {
    completed: AtomicU64,
    blocked_sends: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl Counters {
    /// Sends `item` down a link whose sends are counted in `sent`,
    /// blocking while the link is full (a blocked send counts toward
    /// `blocked_sends`). `Err` once the receiving stage is gone.
    fn send<T>(&self, tx: &SyncSender<T>, sent: &AtomicU64, item: T) -> Result<(), SendError<T>> {
        match tx.try_send(item) {
            Ok(()) => {}
            Err(TrySendError::Full(item)) => {
                self.blocked_sends.fetch_add(1, Ordering::Relaxed);
                tx.send(item)?;
            }
            Err(TrySendError::Disconnected(item)) => return Err(SendError(item)),
        }
        sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Receives the next item of a link whose sends are counted in `sent`
    /// and of which this receiver has taken `received`, noting the link's
    /// depth, `sent − received`. `sent` is loaded before `recv`: loaded
    /// after, a send refilling the slot this `recv` frees would read as
    /// capacity + 1. A send is counted once it returns, so `sent` may lag
    /// a frame already received; the depth then saturates at 0.
    fn recv<T>(&self, rx: &Receiver<T>, sent: &AtomicU64, received: &mut u64) -> Option<T> {
        let depth = sent.load(Ordering::Relaxed).saturating_sub(*received);
        let item = rx.recv().ok()?;
        *received += 1;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        Some(item)
    }
}

/// Joins a stage thread, re-raising its panic.
fn join<T>(stage: ScopedJoinHandle<'_, T>) -> T {
    stage
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

fn stream_frames(
    inst: GraphInstance,
    [input, _, _, output]: [GraphSlot; 4],
    cfg: PipeConfig,
) -> PipeReport {
    assert!(cfg.capacity > 0, "pipeline links need capacity >= 1");
    let (to_process, from_feed) = sync_channel::<Frame>(cfg.capacity);
    let (to_sink, from_process) = sync_channel::<(RunId, Frame)>(cfg.capacity);
    let counters = &Counters::default();
    let (fed, processed) = (&AtomicU64::new(0), &AtomicU64::new(0));
    let mut max_in_flight = 0;
    let checksums = std::thread::scope(|s| {
        let process = s.spawn(move || {
            let mut received = 0;
            while let Some(mut frame) = counters.recv(&from_feed, fed, &mut received) {
                inst.bind(input, std::mem::take(&mut frame.pixels));
                let run = inst.execute();
                frame.pixels = inst.read(output);
                if counters.send(&to_sink, processed, (run, frame)).is_err() {
                    break;
                }
            }
        });
        let sink = s.spawn(move || {
            let mut received = 0;
            let mut checksums = Vec::new();
            while let Some((run, frame)) = counters.recv(&from_process, processed, &mut received) {
                if let Some(d) = cfg.sink_delay {
                    std::thread::sleep(d);
                }
                checksums.push((run, frame.seq, frame_checksum(&frame.pixels)));
                counters.completed.fetch_add(1, Ordering::Relaxed);
            }
            checksums
        });
        for seq in 0..cfg.frames {
            let frame = generate_frame(seq, cfg.width, cfg.height);
            if counters.send(&to_process, fed, frame).is_err() {
                break; // the process stage is gone; joining it re-raises
            }
            let in_flight = u64::from(seq) + 1 - counters.completed.load(Ordering::Relaxed);
            max_in_flight = max_in_flight.max(in_flight);
        }
        drop(to_process);
        let checksums = join(sink);
        join(process);
        checksums
    });
    let stats = PipeStats {
        completed: counters.completed.load(Ordering::Relaxed),
        blocked_sends: counters.blocked_sends.load(Ordering::Relaxed),
        max_queue_depth: counters.max_queue_depth.load(Ordering::Relaxed),
        max_in_flight,
    };
    PipeReport { checksums, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use peppher_runtime::SchedulerKind;
    use peppher_sim::MachineConfig;

    #[test]
    fn pipeline_output_matches_reference() {
        let rt = Runtime::new(
            MachineConfig::c2050_platform(2).without_noise(),
            SchedulerKind::Dmda,
        );
        let cfg = PipeConfig {
            frames: 8,
            ..PipeConfig::default()
        };
        let report = run_pipeline(&rt, cfg);
        assert_eq!(report.checksums.len(), 8);
        assert_eq!(report.stats.completed, 8);
        for &(_, seq, sum) in &report.checksums {
            let frame = generate_frame(seq, cfg.width, cfg.height);
            let want = frame_checksum(&reference_process(&frame, cfg.width));
            assert_eq!(sum, want, "frame {seq} checksum mismatch");
        }
    }

    #[test]
    fn run_ids_are_per_frame_and_ordered() {
        let rt = Runtime::new(
            MachineConfig::cpu_only(2).without_noise(),
            SchedulerKind::Eager,
        );
        let report = run_pipeline(
            &rt,
            PipeConfig {
                frames: 5,
                ..PipeConfig::default()
            },
        );
        // Single-consumer stages preserve order; iteration == seq.
        for (i, &(run, seq, _)) in report.checksums.iter().enumerate() {
            assert_eq!(seq, i as u32);
            assert_eq!(run.iteration, seq);
            assert_eq!(run.instance, report.checksums[0].0.instance);
        }
    }
}
