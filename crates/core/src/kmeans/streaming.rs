//! KMeans streaming: each window is one *point batch* of a Lloyd pass.
//! The point cloud is divided into a fixed number of batches; windows
//! cycle batch 0..B-1, batch 0 resets the accumulators and batch B-1
//! finalizes the centres — so `iterations × B` windows reproduce the
//! batch golden output exactly.
//!
//! The device half is the assignment kernel only: the batch pass's own
//! [`Nearest`] body, offset by the window's batch start, so it is
//! bit-identical to the host [`super::nearest_center`];
//! accumulation runs on the host *in point order*, the golden's
//! association (the batch path folds per-block partials instead), so
//! the streaming trail is bit-equal to the golden and
//! rollback-replayable.

use altis_data::KmeansParams;
use hetero_rt::lanes;
use hetero_rt::prelude::*;
use hetero_rt::stream::StreamStage;

use super::Nearest;
use crate::suite::Fingerprint;

/// Number of point batches per Lloyd pass.
pub const BATCHES_PER_PASS: u64 = 4;

/// Carried clustering state across windows.
#[derive(Clone, Debug)]
pub struct KmeansStreamState {
    /// Current cluster centres, k × features.
    pub centers: Vec<f32>,
    /// Point→cluster assignment as of the pass in progress.
    pub membership: Vec<u32>,
    /// Per-cluster feature sums for the pass in progress.
    pub acc: Vec<f32>,
    /// Per-cluster point counts for the pass in progress.
    pub counts: Vec<u32>,
}

/// Streaming stage for KMeans.
pub struct KmeansStream {
    k: usize,
    nf: usize,
    n: usize,
    points: Vec<f32>,
    pts: Buffer<f32>,
    centers_buf: Buffer<f32>,
    batch_params: Buffer<u32>,
    memb_batch: Buffer<u32>,
    graph: Graph,
}

impl KmeansStream {
    /// Record the batched assignment kernel once on `q`'s device and
    /// build the stage.
    pub fn new(p: &KmeansParams, q: &Queue) -> hetero_rt::Result<Self> {
        let points = super::generate_points(p);
        let (k, nf, n) = (p.k, p.n_features, p.n_points);
        let max_len = (0..BATCHES_PER_PASS)
            .map(|j| {
                let (s, e) = Self::batch_bounds_of(n, j);
                e - s
            })
            .max()
            .unwrap_or(0);
        let pts = Buffer::from_slice(&points);
        let centers_buf = Buffer::from_vec(super::initial_centers(p, &points));
        // [start, len] of the window's batch, written before each replay.
        let batch_params = Buffer::<u32>::new(2);
        let memb_batch = Buffer::<u32>::new(max_len);
        let graph = Graph::record(q, |g| {
            let (pv, cv, bv, mv) =
                (pts.view(), centers_buf.view(), batch_params.view(), memb_batch.view());
            g.parallel_for(
                "stream_map_centers",
                Range::d1(max_len.div_ceil(LANES)),
                &[reads(&pts), reads(&centers_buf), reads(&batch_params), writes(&memb_batch)],
                move |it| {
                    let (x, len) = (it.gid(0) * LANES, bv.get(1) as usize);
                    let first = bv.get(0) as usize;
                    let body = Nearest { pts: &pv, centers: &cv, out: &mv, k, nf, first };
                    lanes::sweep(x, (x + LANES).min(len), &body);
                },
            );
        })?;
        Ok(KmeansStream { k, nf, n, points, pts, centers_buf, batch_params, memb_batch, graph })
    }

    /// Initial stream state: Rodinia first-k-points centres, empty pass.
    /// Only those `k` rows of the cloud are drawn.
    pub fn initial_state(p: &KmeansParams) -> KmeansStreamState {
        let mut centers = vec![0.0; p.k * p.n_features];
        super::Cloud::new(p).fill(0, &mut centers);
        KmeansStreamState {
            centers,
            membership: vec![0; p.n_points],
            acc: vec![0.0; p.k * p.n_features],
            counts: vec![0; p.k],
        }
    }

    fn batch_bounds_of(n: usize, j: u64) -> (usize, usize) {
        let b = BATCHES_PER_PASS as usize;
        let j = j as usize;
        (n * j / b, n * (j + 1) / b)
    }

    fn batch_bounds(&self, window: u64) -> (usize, usize) {
        Self::batch_bounds_of(self.n, window % BATCHES_PER_PASS)
    }

    /// Fold one batch's assignments into the carried state. This is the
    /// *only* place state mutates.
    fn commit_batch(
        &self,
        state: &mut KmeansStreamState,
        window: u64,
        start: usize,
        assignments: &[u32],
    ) {
        let j = window % BATCHES_PER_PASS;
        if j == 0 {
            state.acc.iter_mut().for_each(|a| *a = 0.0);
            state.counts.iter_mut().for_each(|c| *c = 0);
        }
        let nf = self.nf;
        for (t, &m) in assignments.iter().enumerate() {
            let i = start + t;
            state.membership[i] = m;
            state.counts[m as usize] += 1;
            for f in 0..nf {
                state.acc[m as usize * nf + f] += self.points[i * nf + f];
            }
        }
        if j == BATCHES_PER_PASS - 1 {
            for c in 0..self.k {
                if state.counts[c] > 0 {
                    for f in 0..nf {
                        state.centers[c * nf + f] =
                            state.acc[c * nf + f] / state.counts[c] as f32;
                    }
                }
            }
        }
    }
}

impl StreamStage for KmeansStream {
    type State = KmeansStreamState;

    fn advance(
        &mut self,
        q: &Queue,
        state: &mut KmeansStreamState,
        window: u64,
    ) -> hetero_rt::Result<()> {
        let (start, end) = self.batch_bounds(window);
        let len = end - start;
        self.centers_buf.write_from(&state.centers);
        self.batch_params.write_from(&[start as u32, len as u32]);
        let assigned = self.graph.replay(q).and_then(|()| q.read_back(&self.memb_batch));
        if let Err(Error::DataCorruption { .. }) = assigned {
            // The point cloud is the one buffer no window rewrites, and a
            // detection reseals whatever it found: restore it from the
            // host copy so neither the retry nor the recovery replay
            // reads corrupted points.
            self.pts.write_from(&self.points);
        }
        self.commit_batch(state, window, start, &assigned?[..len]);
        Ok(())
    }

    fn digest(&self, state: &KmeansStreamState) -> u64 {
        let f = Fingerprint::new(10).words32(&state.centers, f32::to_bits);
        let f = f.words32(&state.membership, |m| m).words32(&state.acc, f32::to_bits);
        f.words32(&state.counts, |c| c).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::drive;
    use hetero_rt::{StreamConfig, StreamRunner};

    fn tiny() -> KmeansParams {
        KmeansParams { n_points: 256, n_features: 4, k: 3, iterations: 5 }
    }

    #[test]
    fn initial_centres_are_the_clouds_first_rows() {
        for size in [altis_data::InputSize::S1, altis_data::InputSize::S2] {
            let p = altis_data::kmeans(size);
            let points = crate::kmeans::generate_points(&p);
            let centers = KmeansStream::initial_state(&p).centers;
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&centers), bits(&points[..p.k * p.n_features]), "{size:?}");
        }
    }

    #[test]
    fn full_passes_reproduce_the_golden_clustering_exactly() {
        let p = tiny();
        let q = Queue::new(Device::cpu());
        let windows = p.iterations as u64 * BATCHES_PER_PASS;
        let stage = KmeansStream::new(&p, &q).unwrap();
        let initial = KmeansStream::initial_state(&p);
        let runner = StreamRunner::new(q.clone(), q, stage, initial, StreamConfig::default());
        let (state, stats) = drive(runner, windows).unwrap();
        let g = crate::kmeans::golden(&p);
        assert_eq!(stats.delivered, windows);
        assert_eq!(state.membership, g.membership);
        // Host-order accumulation makes the streamed centres *bit-equal*
        // to the sequential golden (no atomic scatter on this path).
        assert_eq!(state.centers, g.centers);
    }
}
