//! Launch graphs: record a sequence of kernel launches once, replay hot.
//!
//! The paper's Figure 1 shows SYCL losing to CUDA on FDTD2D almost
//! entirely on *non-kernel* time — per-launch runtime overhead repeated
//! every timestep. Every launch runs through the one walk in
//! [`crate::executor`]; a direct launch is its one-node plan, and each
//! one re-validates its ND-range, re-checks the queue's (usually
//! disarmed) fault / sanitizer / integrity / redundancy branches and
//! wakes the worker pool. A [`Graph`] amortises that across an
//! iteration: [`Graph::record`] captures the launch sequence into an
//! immutable plan (validated ranges, per-node group spans, dependency
//! phases derived from declared buffer access modes), and
//! [`Graph::replay`] hands the whole plan to the same walk with a
//! **single pool wake-up** — the shape of CUDA Graphs or the SYCL
//! command-graph extension. Panics and fired deadlines surface as they
//! do from a direct launch: the exact group, [`Error::Canceled`].
//!
//! # Bindings drive the schedule
//!
//! Each recorded launch names the buffers it touches, once, with an
//! access mode each ([`reads`] / [`writes`] / [`reads_writes`]) — what a
//! SYCL accessor states. Record time derives dependency edges from the
//! access modes (read-after-write, write-after-read, write-after-write
//! on the same object) and merges consecutive *independent* launches
//! into one phase that executes concurrently; a phase boundary is a full
//! barrier. A binding is a statement about the kernel body that nothing
//! checks statically: an access the kernel performs but does not state
//! can be scheduled concurrently with a conflicting launch. The dynamic
//! race sanitizer still sees every access on the slow path, so a
//! sanitizer-armed replay of the same graph will report unstated
//! conflicts as races. A launch recorded with **no** bindings is treated
//! conservatively as conflicting with everything and gets its own phase.
//!
//! # Composition with the resilience stack
//!
//! The fast replay path is taken on a queue whose [`crate::Hardening`]
//! is disarmed, whatever other queues in the process are armed with. A
//! queue with a fault plan, sanitizer, integrity, redundancy or CPU
//! fallback transparently degrades to [`Graph::submit_each`], which
//! routes every recorded node, with its bindings, through the ordinary
//! hardened launch path — armed modes are never silently skipped, they
//! just forgo the replay speedup. A walk on a queue that runs no
//! integrity protocol (a stream's recovery queue), fast replay or
//! `submit_each`, reseals after it succeeds the registered regions of
//! the buffers its nodes bind [`writes`] or [`reads_writes`]; a buffer
//! it only reads keeps its seal.
//!
//! # Graph lifetime and invalidation
//!
//! A graph holds its kernels (and therefore the buffer views they
//! captured) alive. Buffer *contents* are read at replay time — writing
//! to a bound buffer between replays is the supported way to feed new
//! inputs to an iteration (see the record-mutate-replay test). What a
//! graph pins at record time is *structure*: ranges, group sizes, chunk
//! partitions and the device capability snapshot. Replaying on a queue
//! whose device capabilities differ from the recorded snapshot falls
//! back to the per-launch path, which re-validates against the new
//! device. Do not call `replay` on a graph from inside one of its own
//! kernels: the replay lock is not re-entrant and the call deadlocks
//! (the same rule as `Queue::wait` inside a kernel).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::buffer::{Bound, Buffer};
use crate::device::DeviceCaps;
use crate::error::{Error, Result};
use crate::executor::{Node, SpanSet};
use crate::integrity::Region;
use crate::ndrange::{GroupCtx, Item, NdRange, Range};
use crate::queue::Queue;

/// Lock a mutex, recovering the guard if a previous holder panicked.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Access mode of one recorded launch on one object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The launch only reads the object.
    Read,
    /// The launch only writes the object.
    Write,
    /// The launch both reads and writes the object.
    ReadWrite,
}

/// What one launch says about one buffer it touches — a SYCL accessor;
/// built with [`reads`], [`writes`] or [`reads_writes`], stated to
/// [`Queue::submit`] or a recorded launch, read back through
/// [`Graph::node_bindings`]. It holds the buffer's storage, so an
/// integrity queue can reach the buffer's region through it.
#[derive(Clone)]
pub struct Binding {
    /// Stable runtime object id of the buffer.
    pub object: u64,
    /// Stated access mode.
    pub access: Access,
    storage: Arc<dyn Bound>,
}

impl std::fmt::Debug for Binding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("Binding");
        s.field("object", &self.object).field("access", &self.access).finish()
    }
}

impl PartialEq for Binding {
    fn eq(&self, other: &Self) -> bool {
        (self.object, self.access) == (other.object, other.access)
    }
}

impl Eq for Binding {}

impl Binding {
    fn new<T: Copy + Default + Send + 'static>(b: &Buffer<T>, access: Access) -> Self {
        Binding { object: b.object_id(), access, storage: b.bound() }
    }

    /// The buffer's integrity region, registered and sealed on first use.
    pub(crate) fn region(&self) -> &Region {
        self.storage.region()
    }

    /// Whether the launch writes the buffer.
    pub(crate) fn writes(&self) -> bool {
        self.access != Access::Read
    }
}

/// Declare that a launch reads `b`.
pub fn reads<T: Copy + Default + Send + 'static>(b: &Buffer<T>) -> Binding {
    Binding::new(b, Access::Read)
}

/// Declare that a launch writes `b` (without reading it).
pub fn writes<T: Copy + Default + Send + 'static>(b: &Buffer<T>) -> Binding {
    Binding::new(b, Access::Write)
}

/// Declare that a launch both reads and writes `b`.
pub fn reads_writes<T: Copy + Default + Send + 'static>(b: &Buffer<T>) -> Binding {
    Binding::new(b, Access::ReadWrite)
}

/// Can two launches with these binding lists run concurrently?
/// Conservative on missing information: an empty binding list conflicts
/// with everything.
fn conflicts(a: &[Binding], b: &[Binding]) -> bool {
    if a.is_empty() || b.is_empty() {
        return true;
    }
    a.iter().any(|x| {
        b.iter().any(|y| {
            x.object == y.object && (x.access != Access::Read || y.access != Access::Read)
        })
    })
}

type GroupKernel = Box<dyn Fn(&GroupCtx) + Send + Sync>;

/// Builder handed to the [`Graph::record`] closure; each method records
/// one launch without executing it. Validation errors (malformed range,
/// work-group limit) are deferred: the first one fails `record`.
pub struct GraphBuilder {
    caps: DeviceCaps,
    nodes: Vec<Node<GroupKernel>>,
    bindings: Vec<Vec<Binding>>,
    err: Option<Error>,
}

impl GraphBuilder {
    /// Record a barrier-free data-parallel launch — the recorded
    /// equivalent of [`crate::queue::CommandGroup::parallel_for`]. The flat range is chunked
    /// into implicit work-groups exactly the way the live path chunks
    /// it, so replayed launches produce identical group structure.
    pub fn parallel_for<F>(
        &mut self,
        name: &'static str,
        range: Range,
        bindings: &[Binding],
        f: F,
    ) -> &mut Self
    where
        F: Fn(Item) + Send + Sync + 'static,
    {
        let total = range.size();
        let nd = NdRange::flat(total, self.caps.max_work_group_size);
        let kernel = move |ctx: &GroupCtx| ctx.flat_items(range, total, &f);
        self.push(name, nd, bindings, Box::new(kernel))
    }

    /// Record a work-group launch — the recorded equivalent of
    /// [`crate::queue::CommandGroup::nd_range`].
    pub fn nd_range<K>(
        &mut self,
        name: &'static str,
        nd: NdRange,
        bindings: &[Binding],
        kernel: K,
    ) -> &mut Self
    where
        K: Fn(&GroupCtx) + Send + Sync + 'static,
    {
        self.push(name, nd, bindings, Box::new(kernel))
    }

    fn push(
        &mut self,
        name: &'static str,
        nd: NdRange,
        bindings: &[Binding],
        kernel: GroupKernel,
    ) -> &mut Self {
        if self.err.is_some() {
            return self;
        }
        if let Err(e) = nd.validate() {
            self.err = Some(e);
            return self;
        }
        let limit = self.caps.max_work_group_size;
        if nd.group_size() > limit {
            self.err = Some(Error::WorkGroupTooLarge { requested: nd.group_size(), limit });
            return self;
        }
        // One stealable span per pool thread; the walk's halving front
        // claims adapt the granularity and back-half steals rebalance
        // uneven nodes.
        let spans = SpanSet::new(nd.num_groups(), crate::pool::auto_threads());
        self.nodes.push(Node::new(name, nd, kernel, spans));
        self.bindings.push(bindings.to_vec());
        self
    }
}

/// An immutable, executable launch plan. See the module docs for the
/// recording contract and lifetime rules.
pub struct Graph {
    nodes: Vec<Node<GroupKernel>>,
    /// Each node's bindings, by node index.
    bindings: Vec<Vec<Binding>>,
    /// Half-open node-index ranges; nodes within one phase are mutually
    /// independent and execute concurrently, phases execute in order.
    phases: Vec<(usize, usize)>,
    caps: DeviceCaps,
    /// Serialises replays of this graph (the per-node claim state is
    /// single-replay).
    replay_lock: Mutex<()>,
    fast_replays: AtomicU64,
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.nodes.len())
            .field("phases", &self.phases.len())
            .field("fast_replays", &self.fast_replays.load(Ordering::Relaxed))
            .finish()
    }
}

impl Graph {
    /// Record a launch sequence against `q`'s device without executing
    /// it. Ranges and group sizes are validated here, once; dependency
    /// phases and chunk partitions are precomputed here, once.
    pub fn record<F>(q: &Queue, build: F) -> Result<Graph>
    where
        F: FnOnce(&mut GraphBuilder),
    {
        let caps = q.device().caps().clone();
        let mut b = GraphBuilder { caps, nodes: Vec::new(), bindings: Vec::new(), err: None };
        build(&mut b);
        let GraphBuilder { caps, nodes, bindings, err } = b;
        if let Some(e) = err {
            return Err(e);
        }

        // Greedy phase merge: extend the current phase while the next
        // node is independent of every node already in it.
        let mut phases = Vec::new();
        let mut start = 0;
        for j in 1..nodes.len() {
            let conflicting = (start..j).any(|i| conflicts(&bindings[i], &bindings[j]));
            if conflicting {
                phases.push((start, j));
                start = j;
            }
        }
        if start < nodes.len() {
            phases.push((start, nodes.len()));
        }

        Ok(Graph {
            nodes,
            bindings,
            phases,
            caps,
            replay_lock: Mutex::new(()),
            fast_replays: AtomicU64::new(0),
        })
    }

    /// Whether the single-wake-up replay path may run on `q`: its
    /// hardening must be disarmed and the device capabilities must match
    /// the recorded snapshot. Anything else re-routes through the fully
    /// hardened per-launch path.
    fn fast_eligible(&self, q: &Queue) -> bool {
        q.hardening().is_disarmed() && *q.device().caps() == self.caps
    }

    /// Execute the recorded plan. On a fully disarmed queue this is the
    /// fast path: one in-flight entry and one walk of the whole plan (see
    /// [`crate::executor`]) with a single pool wake-up, no re-validation
    /// and no per-launch arming checks. On an armed queue (fault plan,
    /// sanitizer, integrity, redundancy, CPU fallback) or a
    /// capability-mismatched device it degrades to [`Graph::submit_each`]
    /// so every check still runs.
    pub fn replay(&self, q: &Queue) -> Result<()> {
        if !self.fast_eligible(q) {
            return self.submit_each(q);
        }
        let _lock = lock(&self.replay_lock);
        if self.nodes.is_empty() {
            return Ok(());
        }
        q.run_plan(&self.nodes, &self.phases)?;
        self.reseal_written();
        self.fast_replays.fetch_add(1, Ordering::Relaxed);
        if let Some(ledger) = q.resilience_ledger() {
            ledger.record_replay(self.nodes.len() as u64);
        }
        Ok(())
    }

    /// Execute every recorded node, in recorded order, through the
    /// queue's ordinary hardened launch path (validation, fault
    /// injection, retry, redundancy, sanitizer, integrity, fallback all
    /// active). This is both the armed-mode fallback of
    /// [`Graph::replay`] and the per-launch baseline the `graph_replay`
    /// microbenchmark measures against.
    pub fn submit_each(&self, q: &Queue) -> Result<()> {
        let _lock = lock(&self.replay_lock);
        for (node, bindings) in self.nodes.iter().zip(&self.bindings) {
            q.launch_groups(node.name, node.nd, bindings, &node.kernel)?;
        }
        // An integrity queue resealed at each launch exit; any other
        // seals nothing there.
        if !q.hardening().integrity {
            self.reseal_written();
        }
        Ok(())
    }

    /// Reseal the registered regions the recording writes — what a walk
    /// on a queue that runs no integrity protocol wrote. A buffer no
    /// hardened launch has bound carries no region and costs one load; a
    /// buffer the walk only reads keeps its seal, so a flip there still
    /// surfaces.
    fn reseal_written(&self) {
        for b in self.bindings.iter().flatten().filter(|b| b.writes()) {
            if let Some(region) = b.storage.registered() {
                region.reseal();
            }
        }
    }

    /// Number of recorded launches.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph records no launches.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of execution phases (groups of mutually independent
    /// launches) the declared access modes allowed.
    pub fn phase_count(&self) -> usize {
        self.phases.len()
    }

    /// The bindings of launch `i` as recorded.
    // lint:allow(unused-pub) test oracle: hetero-rt/tests/graph_agreement.rs holds recorded bindings equal to the stated ones
    pub fn node_bindings(&self, i: usize) -> &[Binding] {
        &self.bindings[i]
    }

    /// Successful single-wake-up (fast path) replays only.
    pub fn fast_replays(&self) -> u64 {
        self.fast_replays.load(Ordering::Relaxed)
    }

    /// Whether recorded launch `later` must wait for the earlier launch
    /// `earlier`: their declared access modes conflict on some object.
    // lint:allow(unused-pub) test oracle: hetero-rt/tests/graph_agreement.rs checks phase order against the enumeration oracle
    pub fn depends_on(&self, later: usize, earlier: usize) -> bool {
        earlier < later && conflicts(&self.bindings[earlier], &self.bindings[later])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::executor::Parallelism;

    #[test]
    fn empty_graph_replays_ok() {
        let q = Queue::new(Device::cpu());
        let g = Graph::record(&q, |_| {}).unwrap();
        assert!(g.is_empty());
        g.replay(&q).unwrap();
    }

    #[test]
    fn replay_matches_per_launch_results() {
        let q = Queue::new(Device::cpu());
        let n = 1000;
        let a = Buffer::from_slice(&(0..n as u32).collect::<Vec<_>>());
        let b = Buffer::<u32>::new(n);
        let c = Buffer::<u32>::new(n);
        let (av, bv) = (a.view(), b.view());
        let (bv2, cv) = (b.view(), c.view());
        let g = Graph::record(&q, |g| {
            g.parallel_for("double", Range::d1(n), &[reads(&a), writes(&b)], move |it| {
                bv.set(it.gid(0), av.get(it.gid(0)) * 2);
            })
            .parallel_for("inc", Range::d1(n), &[reads(&b), writes(&c)], move |it| {
                cv.set(it.gid(0), bv2.get(it.gid(0)) + 1);
            });
        })
        .unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.phase_count(), 2);
        assert!(g.depends_on(1, 0));

        g.replay(&q).unwrap();
        let fast = c.to_vec();
        g.submit_each(&q).unwrap();
        let slow = c.to_vec();
        assert_eq!(fast, slow);
        assert!(fast.iter().enumerate().all(|(i, &x)| x == i as u32 * 2 + 1));
        assert_eq!(g.fast_replays(), 1);
    }

    #[test]
    fn independent_nodes_share_a_phase() {
        let q = Queue::new(Device::cpu());
        let src = Buffer::from_slice(&[1u32; 64]);
        let x = Buffer::<u32>::new(64);
        let y = Buffer::<u32>::new(64);
        let (sv1, xv) = (src.view(), x.view());
        let (sv2, yv) = (src.view(), y.view());
        let g = Graph::record(&q, |g| {
            g.parallel_for("wx", Range::d1(64), &[reads(&src), writes(&x)], move |it| {
                xv.set(it.gid(0), sv1.get(it.gid(0)) + 1);
            })
            .parallel_for("wy", Range::d1(64), &[reads(&src), writes(&y)], move |it| {
                yv.set(it.gid(0), sv2.get(it.gid(0)) + 2);
            });
        })
        .unwrap();
        assert_eq!(g.phase_count(), 1);
        assert!(!g.depends_on(1, 0));
        g.replay(&q).unwrap();
        assert!(x.to_vec().iter().all(|&v| v == 2));
        assert!(y.to_vec().iter().all(|&v| v == 3));
    }

    #[test]
    fn undeclared_bindings_serialize() {
        let q = Queue::new(Device::cpu());
        let x = Buffer::<u32>::new(8);
        let xv = x.view();
        let xv2 = x.view();
        let g = Graph::record(&q, |g| {
            g.parallel_for("a", Range::d1(8), &[], move |it| xv.set(it.gid(0), 1))
                .parallel_for("b", Range::d1(8), &[], move |it| {
                    xv2.update(it.gid(0), |v| v + 1)
                });
        })
        .unwrap();
        assert_eq!(g.phase_count(), 2);
        g.replay(&q).unwrap();
        assert!(x.to_vec().iter().all(|&v| v == 2));
    }

    #[test]
    fn record_validates_group_size() {
        let q = Queue::new(Device::stratix10());
        let e = Graph::record(&q, |g| {
            g.nd_range("too_big", NdRange::d1(512, 256), &[], |_ctx: &GroupCtx| {});
        })
        .unwrap_err();
        assert_eq!(e, Error::WorkGroupTooLarge { requested: 256, limit: 128 });
    }

    #[test]
    fn sequential_queue_replays_inline() {
        let q = Queue::new(Device::cpu()).with_parallelism(Parallelism::Sequential);
        let b = Buffer::<u32>::new(100);
        let bv = b.view();
        let g = Graph::record(&q, |g| {
            g.parallel_for("iota", Range::d1(100), &[writes(&b)], move |it| {
                bv.set(it.gid(0), it.gid(0) as u32);
            });
        })
        .unwrap();
        g.replay(&q).unwrap();
        assert!(b.to_vec().iter().enumerate().all(|(i, &v)| v == i as u32));
        assert_eq!(g.fast_replays(), 1);
    }

    #[test]
    fn flat_ranges_visit_every_index_once_on_the_queue_and_in_a_graph() {
        // Sizes that are no multiple of the 256-item chunk, rows shorter
        // and longer than a chunk: the tail is padding, never an item.
        let q = Queue::new(Device::cpu());
        for range in [
            Range::d1(1000),
            Range::d2(13, 47),
            Range::d2(300, 3),
            Range { dims: [5, 7, 11] },
            Range { dims: [1, 259, 2] },
        ] {
            let total = range.size();
            let visits = Buffer::<u32>::new(total);
            let vv = visits.view();
            // Counts a visit only if every id is the one its flat index
            // stands for; a wrong id leaves a hole the assertion finds.
            let kernel = move |it: Item| {
                let chunk = NdRange::flat(total, usize::MAX).group_size();
                let lin = it.global_linear;
                let ok = it.global == range.delinearize(lin)
                    && it.group == [lin / chunk, 0, 0]
                    && it.local == [lin % chunk, 0, 0]
                    && it.local_linear == lin % chunk;
                vv.atomic_add_u32(lin, u32::from(ok));
            };
            q.parallel_for("visit", range, kernel.clone());
            assert!(visits.to_vec().iter().all(|&c| c == 1), "queue, {range:?}");
            let g = Graph::record(&q, |g| {
                g.parallel_for("visit", range, &[reads_writes(&visits)], kernel);
            })
            .unwrap();
            g.replay(&q).unwrap();
            assert!(visits.to_vec().iter().all(|&c| c == 2), "graph, {range:?}");
            assert_eq!(g.fast_replays(), 1);
        }
    }

    #[test]
    fn record_does_not_execute() {
        let q = Queue::new(Device::cpu());
        let b = Buffer::<u32>::new(4);
        let bv = b.view();
        let _g = Graph::record(&q, |g| {
            g.parallel_for("w", Range::d1(4), &[writes(&b)], move |it| bv.set(it.gid(0), 7));
        })
        .unwrap();
        assert!(b.to_vec().iter().all(|&v| v == 0));
    }
}
