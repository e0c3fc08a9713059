//! ParticleFilter streaming: each window is one observation frame of the
//! bootstrap filter (window `w` processes frame `w + 1`, matching the
//! golden 1-based frame clock).
//!
//! The device half replays the batch runner's recorded propagate/weight
//! and resample kernels, and the host half is the batch runner's
//! [`super::frame_tail`]: sequential folds for the normalisation,
//! estimate and CDF, so a window's estimate equals the batch frame's bit
//! for bit, and the hardened and recovery trails are bit-identical — the
//! property checkpoint/rollback replay depends on. Estimates track the
//! golden filter to the suite's 0.05 tolerance (the host folds associate
//! differently from the golden text).

use altis_data::PfParams;
use hetero_rt::prelude::*;
use hetero_rt::stream::StreamStage;

use super::{frame_tail, true_pos, Cloud, Lcg, PfVariant};
use crate::suite::{pack, Fingerprint};

/// Carried filter state across windows.
#[derive(Clone, Debug)]
pub struct PfStreamState {
    /// Particle x positions.
    pub xs: Vec<f32>,
    /// Particle y positions.
    pub ys: Vec<f32>,
    /// Per-particle RNG states (the resilience-critical carry: rollback
    /// must restore these exactly or the replayed trail diverges).
    pub seeds: Vec<u64>,
    /// Latest frame's estimated x.
    pub xe: f32,
    /// Latest frame's estimated y.
    pub ye: f32,
}

/// Streaming stage for ParticleFilter.
pub struct PfStream {
    params: PfParams,
    cloud: Cloud,
    propagate: Graph,
    resample: Graph,
}

impl PfStream {
    /// Record the propagate and resample kernels
    /// ([`super::propagate_graph`], [`super::resample_graph`], the batch
    /// runner's recordings) once on `q`'s device and build the stage.
    pub fn new(p: &PfParams, variant: PfVariant, q: &Queue) -> hetero_rt::Result<Self> {
        let cloud = Cloud::new(p);
        let propagate = super::propagate_graph(q, variant, &cloud)?;
        let resample = super::resample_graph(q, &cloud)?;
        Ok(PfStream { params: *p, cloud, propagate, resample })
    }

    /// Initial stream state: the golden filter's particle cloud and
    /// per-particle RNG streams.
    pub fn initial_state(p: &PfParams) -> PfStreamState {
        let n = p.n_particles;
        PfStreamState {
            xs: vec![(p.dim as f32) * 0.25; n],
            ys: vec![(p.dim as f32) * 0.25; n],
            seeds: (0..n).map(|i| Lcg::new(i as u64 + 17).state).collect(),
            xe: 0.0,
            ye: 0.0,
        }
    }

    fn frame_u0(frame: usize, n: usize) -> f32 {
        Lcg::new(frame as u64 * 7919).uniform() / n as f32
    }
}

impl StreamStage for PfStream {
    type State = PfStreamState;

    fn advance(
        &mut self,
        q: &Queue,
        state: &mut PfStreamState,
        window: u64,
    ) -> hetero_rt::Result<()> {
        let n = self.params.n_particles;
        let frame = window as usize + 1;
        let (tx, ty) = true_pos(&self.params, frame);
        let cloud = &self.cloud;
        cloud.xs.write_from(&state.xs);
        cloud.ys.write_from(&state.ys);
        cloud.seeds.write_from(&state.seeds);
        cloud.frame.write_from(&[tx, ty, Self::frame_u0(frame, n)]);
        self.propagate.replay(q)?;
        let w = q.read_back(&cloud.weights)?;
        let (xs, ys, seeds) =
            (q.read_back(&cloud.xs)?, q.read_back(&cloud.ys)?, q.read_back(&cloud.seeds)?);
        let (xe, ye) = cloud.cdf.write(|cdf| frame_tail(&w, &xs, &ys, cdf));
        self.resample.replay(q)?;
        // Commit only after *both* replays succeeded (state-on-success).
        let (nxs, nys) = (q.read_back(&cloud.nxs)?, q.read_back(&cloud.nys)?);
        *state = PfStreamState { xs: nxs, ys: nys, seeds, xe, ye };
        Ok(())
    }

    fn digest(&self, state: &PfStreamState) -> u64 {
        let f = Fingerprint::new(11).words32(&state.xs, f32::to_bits);
        let f = f.words32(&state.ys, f32::to_bits).words(state.seeds.len(), |i| state.seeds[i]);
        f.words(1, |_| pack(state.xe.to_bits(), state.ye.to_bits())).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetero_rt::{StreamConfig, StreamRunner};

    fn tiny() -> PfParams {
        PfParams { n_particles: 256, frames: 5, dim: 128 }
    }

    #[test]
    fn batch_estimates_equal_the_stream_windows_bit_for_bit() {
        let q = Queue::new(Device::cpu());
        let size1 = altis_data::particlefilter(altis_data::InputSize::S1);
        for p in [tiny(), size1] {
            for variant in [PfVariant::Naive, PfVariant::Float] {
                let v = crate::common::AppVersion::SyclOptimized;
                let batch = crate::particlefilter::run(&q, &p, variant, v);
                let stage = PfStream::new(&p, variant, &q).unwrap();
                let initial = PfStream::initial_state(&p);
                let mut runner =
                    StreamRunner::new(q.clone(), q.clone(), stage, initial, StreamConfig::default());
                for f in 0..p.frames {
                    runner.next_window().unwrap();
                    let st = runner.state();
                    let what = format!("{variant:?}, {} particles, frame {f}", p.n_particles);
                    assert_eq!(st.xe.to_bits(), batch.xe[f].to_bits(), "xe: {what}");
                    assert_eq!(st.ye.to_bits(), batch.ye[f].to_bits(), "ye: {what}");
                }
            }
        }
    }

    #[test]
    fn streaming_estimates_track_the_golden_filter() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        for variant in [PfVariant::Naive, PfVariant::Float] {
            let g = crate::particlefilter::golden(&p, variant);
            let stage = PfStream::new(&p, variant, &q).unwrap();
            let initial = PfStream::initial_state(&p);
            let mut runner =
                StreamRunner::new(q.clone(), q.clone(), stage, initial, StreamConfig::default());
            for f in 0..p.frames {
                runner.next_window().unwrap();
                let st = runner.state();
                let (xe, ye) = (g.xe[f], g.ye[f]);
                assert!((st.xe - xe).abs() < 0.05, "{variant:?} frame {f}: xe {} vs {xe}", st.xe);
                assert!((st.ye - ye).abs() < 0.05, "{variant:?} frame {f}: ye {} vs {ye}", st.ye);
            }
        }
    }
}
