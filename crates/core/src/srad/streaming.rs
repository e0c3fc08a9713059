//! SRAD streaming: each window is one diffusion iteration over the
//! carried image (a denoising filter fed an endless frame sequence).
//!
//! The iteration-varying `q0` statistic is computed on the *host* from
//! the carried state with the same sequential f64 fold as the golden
//! [`super::srad_step`], so the device stencils — whose per-item writes
//! are schedule-independent — advance the image bit-identically to the
//! golden step. That bit-equality is what makes checkpoint/rollback
//! replay on the clean queue indistinguishable from an uninterrupted
//! hardened run (stream invariant 2).

use altis_data::SradParams;
use hetero_rt::prelude::*;
use hetero_rt::stream::StreamStage;

use super::Planes;
use crate::suite::Fingerprint;

/// Streaming stage for SRAD. State is the carried image (`dim × dim`).
pub struct SradStream {
    n: usize,
    planes: Planes,
    graph: Graph,
}

impl SradStream {
    /// Record the two-kernel diffusion step ([`super::step_graph`], the
    /// batch runner's recording) once on `q`'s device and build the
    /// stage. Every window replays that recording on the queue the
    /// runner hands it.
    pub fn new(p: &SradParams, q: &Queue) -> hetero_rt::Result<Self> {
        let n = p.dim;
        let planes = Planes::new(super::generate_image(p));
        let graph = super::step_graph(q, n, p.lambda, &planes)?;
        Ok(SradStream { n, planes, graph })
    }

    /// Initial stream state: the speckled input image.
    pub fn initial_state(p: &SradParams) -> Vec<f32> {
        super::generate_image(p)
    }

    /// Host-side ROI statistic over carried state — the same sequential
    /// f64 fold as [`super::srad_step`], so the device step sees the
    /// golden step's `q0` bit for bit.
    fn host_q0(&self, state: &[f32]) -> f32 {
        let n = self.n;
        let sum: f64 = state.iter().map(|&v| v as f64).sum();
        let sum2: f64 = state.iter().map(|&v| (v as f64) * (v as f64)).sum();
        let mean = sum / (n * n) as f64;
        let var = (sum2 / (n * n) as f64 - mean * mean).max(0.0);
        (var / (mean * mean)) as f32
    }
}

impl StreamStage for SradStream {
    type State = Vec<f32>;

    fn advance(&mut self, q: &Queue, state: &mut Vec<f32>, _window: u64) -> hetero_rt::Result<()> {
        // State-on-success: buffers are rewritten from host state before
        // every launch, so a failed replay leaves `state` untouched and
        // partial device writes are harmless.
        self.planes.q0.write_from(&[self.host_q0(state)]);
        self.planes.img.write_from(state);
        self.graph.replay(q)?;
        *state = q.read_back(&self.planes.img)?;
        Ok(())
    }

    fn digest(&self, state: &Vec<f32>) -> u64 {
        Fingerprint::f32s(state).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::drive;
    use hetero_rt::{StreamConfig, StreamRunner};

    fn tiny() -> SradParams {
        SradParams { dim: 32, iterations: 3, lambda: 0.5 }
    }

    #[test]
    fn streaming_matches_golden_window_by_window() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let stage = SradStream::new(&p, &q).unwrap();
        let initial = SradStream::initial_state(&p);
        let mut runner = StreamRunner::new(q.clone(), q, stage, initial, StreamConfig::default());
        let mut host = SradStream::initial_state(&p);
        for w in 0..4u64 {
            let rep = runner.next_window().unwrap();
            assert!(rep.verdict.is_delivered());
            host = crate::srad::srad_step(&host, p.dim, p.lambda);
            assert_eq!(
                rep.digest,
                Fingerprint::f32s(&host).finish(),
                "window {w}: device trail diverged from the host reference"
            );
        }
    }

    #[test]
    fn run_streaming_equals_golden_at_app_iterations() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let stage = SradStream::new(&p, &q).unwrap();
        let initial = SradStream::initial_state(&p);
        let runner = StreamRunner::new(q.clone(), q, stage, initial, StreamConfig::default());
        let (img, stats) = drive(runner, p.iterations as u64).unwrap();
        assert_eq!(stats.delivered, p.iterations as u64);
        assert_eq!(img, crate::srad::golden(&p));
    }
}
