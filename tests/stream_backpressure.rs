//! Streaming pipeline backpressure: a slow consumer must block the
//! producer through the bounded inter-stage buffers instead of letting
//! frames pile up, and the throttled run must still produce exactly the
//! reference results.

use peppher::apps::framepipe::{
    frame_checksum, generate_frame, reference_process, run_pipeline, run_pipeline_for, PipeConfig,
};
use peppher::runtime::{JobConfig, RunId, Runtime, RuntimeConfig, SchedulerKind, TraceEvent};
use peppher::sim::MachineConfig;
use std::collections::BTreeSet;
use std::time::Duration;

#[test]
fn slow_consumer_bounds_memory_and_preserves_results() {
    let rt = Runtime::new(
        MachineConfig::c2050_platform(2).without_noise(),
        SchedulerKind::Dmda,
    );
    let cfg = PipeConfig {
        frames: 24,
        capacity: 2,
        sink_delay: Some(Duration::from_millis(2)),
        ..PipeConfig::default()
    };
    let report = run_pipeline(&rt, cfg);
    rt.shutdown();

    // Backpressure engaged: the producer was actually blocked.
    assert!(
        report.stats.blocked_sends > 0,
        "a 2-slot buffer against a 2ms/frame sink must block the producer \
         at least once: {:?}",
        report.stats
    );

    // Bounded memory: frames in flight can never exceed what the stage
    // buffers and the stage threads themselves can hold.
    let stages = 2; // process, sink
    let bound = (cfg.capacity * stages + stages + 1) as u64;
    assert!(
        report.stats.max_in_flight <= bound,
        "{} frames in flight exceeds the structural bound {bound}",
        report.stats.max_in_flight
    );
    assert!(
        report.stats.max_queue_depth <= cfg.capacity as u64,
        "queue depth {} exceeded capacity {}",
        report.stats.max_queue_depth,
        cfg.capacity
    );

    // Throttling must not change the data: every checksum matches the
    // sequential reference.
    assert_eq!(report.checksums.len(), cfg.frames as usize);
    assert_eq!(report.stats.completed, cfg.frames as u64);
    for &(_, seq, sum) in &report.checksums {
        let frame = generate_frame(seq, cfg.width, cfg.height);
        let want = frame_checksum(&reference_process(&frame, cfg.width));
        assert_eq!(sum, want, "frame {seq} corrupted under backpressure");
    }
}

#[test]
fn fast_consumer_needs_no_blocking_at_large_capacity() {
    let rt = Runtime::new(
        MachineConfig::cpu_only(2).without_noise(),
        SchedulerKind::Eager,
    );
    // The job-scoped entry point: the streamed frames run under a job
    // context, so the report must come out identical to the default-job path.
    let job = rt.job(JobConfig::default());
    let report = run_pipeline_for(
        &job,
        PipeConfig {
            frames: 8,
            capacity: 16,
            sink_delay: None,
            ..PipeConfig::default()
        },
    );
    rt.shutdown();
    assert_eq!(report.stats.completed, 8);
    assert_eq!(
        report.stats.blocked_sends, 0,
        "nothing should block when buffers exceed the frame count"
    );
}

#[test]
fn frame_run_ids_match_the_trace_lanes_of_their_tasks() {
    let rt = Runtime::with_config(
        MachineConfig::c2050_platform(2).without_noise(),
        RuntimeConfig {
            scheduler: SchedulerKind::Dmda,
            enable_trace: true,
            ..RuntimeConfig::default()
        },
    );
    let cfg = PipeConfig {
        frames: 6,
        ..PipeConfig::default()
    };
    let report = run_pipeline(&rt, cfg);
    let trace = rt.trace();
    rt.shutdown();

    // Each frame reports the RunId its tasks carry, so a frame's gantt
    // lane is found by the id the pipeline hands back.
    let frames: BTreeSet<RunId> = report.checksums.iter().map(|&(run, _, _)| run).collect();
    let lanes: BTreeSet<RunId> = trace
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TaskEnd { run, .. } => *run,
            _ => None,
        })
        .collect();
    assert_eq!(frames.len(), cfg.frames as usize, "one RunId per frame");
    assert_eq!(
        frames, lanes,
        "frame RunIds differ from the trace's run tags"
    );
}
