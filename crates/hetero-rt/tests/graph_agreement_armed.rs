//! The generated graphs of `graph_agreement.rs` on an integrity-armed
//! queue, the sixth route: every replay walks launch by launch, each
//! launch verifying the buffers it binds and resealing those it writes,
//! and every read-back verifying the buffer it reads.
//!
//! The oracle is each case's per-launch run on a plain queue, taken
//! before any buffer carries a region.

mod graph_cases;

use graph_cases::{cases, generate, initial, pool_of_four, record};
use hetero_rt::integrity;
use hetero_rt::prelude::*;

type Step = fn(&Graph, &Queue) -> Result<()>;

/// Two steps of case `seed`'s recording on `q` from its initial contents,
/// read back through `q`; and the recording.
fn two_steps(seed: u64, q: &Queue, step: Step) -> (Vec<Vec<u32>>, Graph) {
    let case = generate(seed);
    let bufs: Vec<Buffer<u32>> = initial(&case).iter().map(|v| Buffer::from_slice(v)).collect();
    let graph = record(q, &case, &bufs);
    for _ in 0..2 {
        step(&graph, q).unwrap_or_else(|e| panic!("seed {seed}: {e:?}"));
    }
    let out = bufs.iter().map(|b| q.read_back(b).unwrap_or_else(|e| panic!("seed {seed}: {e:?}")));
    (out.collect(), graph)
}

#[test]
fn generated_graphs_agree_on_an_integrity_armed_queue() {
    pool_of_four();
    let seeds = (0..cases(600)).map(|s| 0x19_0000 + s);
    let plain = Queue::new(Device::cpu());
    assert!(!integrity::armed(), "the oracle runs before anything arms");
    let want: Vec<_> =
        seeds.clone().map(|seed| two_steps(seed, &plain, Graph::submit_each).0).collect();

    let armed = Queue::hardened(Device::cpu(), Hardening { integrity: true, ..Hardening::NONE });
    let before = integrity::stats();
    for (seed, want) in seeds.zip(want) {
        let (got, graph) = two_steps(seed, &armed, Graph::replay);
        assert_eq!(got, want, "seed {seed}: armed replay");
        assert_eq!(graph.fast_replays(), 0, "seed {seed}: an armed replay takes the fast path");
    }
    let after = integrity::stats();
    assert_eq!(after.detections, before.detections, "a clean armed run reads as corruption");
    assert!(after.regions_verified > before.regions_verified, "nothing was verified");
}
