//! FDTD2D streaming: each window is one leapfrog timestep of the
//! carried field state (an electromagnetic solver fed an endless frame
//! clock). The batch runner's recorded three-kernel step
//! ([`super::step_graph`]) replays bit-identically to the
//! sequential golden loop body, so the hardened and recovery paths both
//! agree with the golden bit for bit — the strongest possible footing
//! for the runner's rollback-equivalence invariant.

use altis_data::Fdtd2dParams;
use hetero_rt::prelude::*;
use hetero_rt::stream::StreamStage;

use super::{source, Fields};
use crate::suite::Fingerprint;

/// Streaming stage for FDTD2D. State is the carried [`Fields`].
pub struct FdtdStream {
    n: usize,
    ez: Buffer<f32>,
    hx: Buffer<f32>,
    hy: Buffer<f32>,
    graph: Graph,
}

impl FdtdStream {
    /// Record the three-kernel timestep once on `q`'s device and build
    /// the stage.
    pub fn new(p: &Fdtd2dParams, q: &Queue) -> hetero_rt::Result<Self> {
        let n = p.dim;
        let ez = Buffer::<f32>::new(n * n);
        let hx = Buffer::<f32>::new(n * n);
        let hy = Buffer::<f32>::new(n * n);
        let graph = super::step_graph(q, n, &ez, &hx, &hy)?;
        Ok(FdtdStream { n, ez, hx, hy, graph })
    }

    /// Initial stream state: zeroed fields.
    pub fn initial_state(p: &Fdtd2dParams) -> Fields {
        let n = p.dim;
        Fields { ez: vec![0.0; n * n], hx: vec![0.0; n * n], hy: vec![0.0; n * n] }
    }
}

impl StreamStage for FdtdStream {
    type State = Fields;

    fn advance(&mut self, q: &Queue, state: &mut Fields, window: u64) -> hetero_rt::Result<()> {
        self.ez.write_from(&state.ez);
        self.hx.write_from(&state.hx);
        self.hy.write_from(&state.hy);
        self.graph.replay(q)?;
        let n = self.n;
        let mut ez = q.read_back(&self.ez)?;
        // The point source is a host-side single-element update, exactly
        // as the batch runner injects it between replays.
        ez[(n / 2) * n + n / 2] += source(window as usize);
        let (hx, hy) = (q.read_back(&self.hx)?, q.read_back(&self.hy)?);
        *state = Fields { ez, hx, hy };
        Ok(())
    }

    fn digest(&self, state: &Fields) -> u64 {
        Fingerprint::fields(state).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::drive;
    use hetero_rt::{StreamConfig, StreamRunner};

    fn tiny() -> Fdtd2dParams {
        Fdtd2dParams { dim: 32, steps: 10 }
    }

    #[test]
    fn run_streaming_is_bit_equal_to_golden() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let stage = FdtdStream::new(&p, &q).unwrap();
        let initial = FdtdStream::initial_state(&p);
        let runner = StreamRunner::new(q.clone(), q, stage, initial, StreamConfig::default());
        let (fields, stats) = drive(runner, p.steps as u64).unwrap();
        let g = crate::fdtd2d::golden(&p);
        assert_eq!(stats.delivered, p.steps as u64);
        assert_eq!(fields.ez, g.ez);
        assert_eq!(fields.hx, g.hx);
        assert_eq!(fields.hy, g.hy);
    }
}
