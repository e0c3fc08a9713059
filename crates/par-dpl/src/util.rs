//! Shared execution-policy helpers for the parallel primitives.

/// How many worker threads to use for an input of `n` elements, given a
/// per-thread grain size: small inputs run sequentially (pool handoff
/// costs more than the work), larger inputs scale up to the runtime
/// pool's width (cached `available_parallelism` or the
/// `HETERO_RT_THREADS` override — not re-queried per call).
pub fn thread_count_for(n: usize, grain: usize) -> usize {
    let hw = hetero_rt::pool::auto_threads();
    hw.min(n.div_ceil(grain.max(1))).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_inputs_run_sequentially() {
        assert_eq!(thread_count_for(10, 4096), 1);
        assert_eq!(thread_count_for(0, 4096), 1);
    }

    #[test]
    fn thread_count_is_monotone_and_bounded() {
        let hw = hetero_rt::pool::auto_threads();
        let small = thread_count_for(1 << 12, 4096);
        let large = thread_count_for(1 << 24, 4096);
        assert!(large >= small);
        assert!(large <= hw);
        assert!(small >= 1);
    }
}
