//! `ode_replay`: the recorded-graph path. The ODE solver's double RK4 step
//! is recorded once and instantiated once; one op rebinds the state,
//! replays the graph `ITERATIONS` times and reads the state back. This
//! covers frozen placement and worker-side self-continuation, and it
//! bypasses per-task submission and dependency inference.

use crate::spans::Tracer;
use crate::{Rng, Workload};
use peppher_apps::odesolver::{self, OdeGraph};
use peppher_runtime::{GraphInstance, Runtime, SchedulerKind};
use peppher_sim::MachineConfig;

const EDGE: usize = 16;
const ITERATIONS: u32 = 8;
/// RK4 steps per op: the recorded unit is a double step.
const STEPS: usize = 2 * ITERATIONS as usize;
/// The step size `odesolver::record_double_step` records.
const H: f32 = 1e-4;
/// Distinct initial states; ops cycle through them.
const POOL: usize = 8;
/// Tasks one recorded double step holds.
const GRAPH_TASKS: u64 = 18;

/// The RK4 integration of [`odesolver::reference`], from any initial
/// state instead of the fixed one.
fn integrate(mut y: Vec<f32>, steps: usize) -> Vec<f32> {
    let n = y.len();
    let (mut k1, mut k2, mut k3, mut k4, mut yt) = (
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
        vec![0.0; n],
    );
    for _ in 0..steps {
        odesolver::feval_kernel(&y, &mut k1, EDGE);
        odesolver::stage_kernel(&y, &k1, &mut yt, H / 2.0, n);
        odesolver::feval_kernel(&yt, &mut k2, EDGE);
        odesolver::stage_kernel(&y, &k2, &mut yt, H / 2.0, n);
        odesolver::feval_kernel(&yt, &mut k3, EDGE);
        odesolver::stage_kernel(&y, &k3, &mut yt, H, n);
        odesolver::feval_kernel(&yt, &mut k4, EDGE);
        odesolver::combine_kernel(&mut y, &k1, &k2, &k3, &k4, H / 6.0, n);
    }
    y
}

pub struct OdeReplay {
    rt: Runtime,
    rec: OdeGraph,
    inst: GraphInstance,
    states: Vec<(Vec<f32>, Vec<f32>)>,
    next: usize,
}

impl OdeReplay {
    /// Builds the runtime and the initial states; `instantiate` runs inside
    /// a `graph.instantiate` span of `tr`.
    pub fn new(seed: u64, tr: &mut Tracer) -> Result<Self, String> {
        let n = 2 * EDGE * EDGE;
        let mut init = vec![0.0f32; n];
        odesolver::init_kernel(&mut init, EDGE);
        // Anchor the local integrator to the library's reference.
        if integrate(init.clone(), STEPS) != odesolver::reference(EDGE, STEPS, H) {
            return Err("local RK4 integrator disagrees with odesolver::reference".into());
        }
        let mut rng = Rng::new(seed);
        let states = (0..POOL)
            .map(|_| {
                let y0: Vec<f32> = init.iter().map(|v| v + 0.01 * rng.unit_f32()).collect();
                let want = integrate(y0.clone(), STEPS);
                (y0, want)
            })
            .collect();
        let rt = Runtime::new(
            MachineConfig::c2050_platform(1).without_noise(),
            SchedulerKind::Dmda,
        );
        let rec = odesolver::record_double_step(EDGE, false);
        let inst = tr.span("graph.instantiate", GRAPH_TASKS as u32, |_| {
            rec.graph.instantiate(&rt)
        });
        Ok(OdeReplay {
            rt,
            rec,
            inst,
            states,
            next: 0,
        })
    }
}

impl Workload for OdeReplay {
    fn runtime(&self) -> &Runtime {
        &self.rt
    }

    fn op(&mut self, tr: &mut Tracer) -> Result<u64, String> {
        let (y0, want) = &self.states[self.next % POOL];
        self.next += 1;
        let y0 = y0.clone();
        tr.span("graph.bind", 1, |_| self.inst.bind(self.rec.y, y0));
        tr.span("graph.execute", ITERATIONS, |_| {
            self.inst.execute_many(ITERATIONS)
        });
        let y = tr.span("graph.read", 1, |_| self.inst.read::<Vec<f32>>(self.rec.y));
        if y != *want {
            let wrong = y.iter().zip(want).filter(|(a, b)| a != b).count();
            return Err(format!(
                "ode: {wrong} of {} state values differ from the reference",
                y.len()
            ));
        }
        Ok(GRAPH_TASKS * u64::from(ITERATIONS))
    }
}
