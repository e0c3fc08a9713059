//! Shared execution-policy helpers for the parallel primitives: fixed
//! blocks, each one work-group on a plain CPU queue of the library's
//! own. An input of one block runs on the calling thread; a larger one
//! spreads over at most the runtime pool's width.

use hetero_rt::{Binding, Device, NdRange, Queue};

/// Elements per block: one work-group, one partial, one table.
pub(crate) const BLOCK: usize = 16 << 10;

/// Block `b` of `data` cut into blocks of `size` elements.
pub(crate) fn block<T>(data: &[T], size: usize, b: usize) -> &[T] {
    &data[b * size..((b + 1) * size).min(data.len())]
}

/// Launch `kernel(b)` for every block `b` in `0..blocks`, each a
/// work-group of one work-item, on a plain CPU queue of the library's
/// own. `bindings` state the buffers the kernel touches.
pub(crate) fn for_blocks(
    name: &'static str,
    blocks: usize,
    bindings: &[Binding],
    kernel: impl Fn(usize) + Sync,
) {
    if blocks == 0 {
        return;
    }
    Queue::new(Device::cpu())
        .submit(bindings)
        .nd_range(name, NdRange::d1(blocks, 1), |g| kernel(g.group_linear()))
        .unwrap_or_else(|e| std::panic::panic_any(e));
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    use super::*;

    /// The distinct threads that ran the blocks of an `n`-element input.
    fn threads_for(n: usize) -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        for_blocks("threads_for", n.div_ceil(BLOCK), &[], |_| {
            seen.lock().unwrap().insert(thread::current().id());
        });
        seen.into_inner().unwrap()
    }

    #[test]
    fn small_inputs_run_sequentially() {
        assert_eq!(threads_for(10), HashSet::from([thread::current().id()]));
        assert_eq!(threads_for(BLOCK), HashSet::from([thread::current().id()]));
        assert!(threads_for(0).is_empty());
    }

    #[test]
    fn thread_count_is_monotone_and_bounded() {
        let hw = hetero_rt::pool::auto_threads();
        let small = threads_for(1 << 12).len();
        let large = threads_for(1 << 24).len();
        assert!(large >= small);
        assert!(large <= hw);
        assert!(small >= 1);
    }
}
