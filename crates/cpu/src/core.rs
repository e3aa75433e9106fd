//! A unified wrapper over the two core models.

use crate::config::{CoreConfig, CoreKind};
use crate::cpi::CpiStack;
use crate::events::RetireObserver;
use crate::inorder::InorderCore;
use crate::ooo::OooCore;
use relsim_mem::{CacheStats, PrivateCacheConfig, PrivateCaches, SharedMem};
use relsim_trace::InstrSource;

/// Either core type, behind one interface.
///
/// The multicore `System` in the `relsim` crate holds a `Vec<Core>` and
/// steps every core each tick; dispatching through this enum keeps the hot
/// loop monomorphic. The variants are boxed — the arena-based core structs
/// are several KB each, and one pointer indirection per core step is
/// cheaper than copying that much state through every `Vec<Core>` move.
#[derive(Debug, Clone)]
pub enum Core {
    /// Big out-of-order core.
    Big(Box<OooCore>),
    /// Small in-order core.
    Small(Box<InorderCore>),
}

impl Core {
    /// Build a core of the kind requested by `cfg`.
    pub fn new(cfg: CoreConfig, cache_cfg: PrivateCacheConfig) -> Self {
        match cfg.kind {
            CoreKind::Big => Core::Big(Box::new(OooCore::new(cfg, cache_cfg))),
            CoreKind::Small => Core::Small(Box::new(InorderCore::new(cfg, cache_cfg))),
        }
    }

    /// The core's kind.
    pub fn kind(&self) -> CoreKind {
        match self {
            Core::Big(_) => CoreKind::Big,
            Core::Small(_) => CoreKind::Small,
        }
    }

    /// The core's configuration.
    pub fn config(&self) -> &CoreConfig {
        match self {
            Core::Big(c) => c.config(),
            Core::Small(c) => c.config(),
        }
    }

    /// Advance one global tick.
    pub fn tick(
        &mut self,
        now: u64,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
        obs: &mut dyn RetireObserver,
    ) {
        match self {
            Core::Big(c) => c.tick(now, src, shared, obs),
            Core::Small(c) => c.tick(now, src, shared, obs),
        }
    }

    /// Conservative event horizon: the earliest tick strictly after `now`
    /// at which this core's architectural state can change; see
    /// [`OooCore::next_event`]. Always returns a value `> now`.
    pub fn next_event(&self, now: u64) -> u64 {
        match self {
            Core::Big(c) => c.next_event(now),
            Core::Small(c) => c.next_event(now),
        }
    }

    /// Charge the dead ticks `[from, to)` in closed form; sound only when
    /// `to` does not exceed the horizon reported by [`Self::next_event`].
    /// See [`OooCore::skip_to`].
    pub fn skip_to(&mut self, from: u64, to: u64) {
        match self {
            Core::Big(c) => c.skip_to(from, to),
            Core::Small(c) => c.skip_to(from, to),
        }
    }

    /// Run the core alone over ticks `[from, to)`: tick, then charge the
    /// dead ticks up to the event horizon (clamped at `to`) with
    /// [`Self::skip_to`]. Same state as `for t in from..to { self.tick(t,
    /// ..) }`; the multicore `System` loop skips the same way per core.
    /// Terminates because [`Self::next_event`] is always `> t`.
    pub fn run(
        &mut self,
        from: u64,
        to: u64,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
        obs: &mut dyn RetireObserver,
    ) {
        let mut t = from;
        while t < to {
            self.tick(t, src, shared, obs);
            let target = self.next_event(t).min(to);
            if target > t + 1 {
                self.skip_to(t + 1, target);
            }
            t = target;
        }
    }

    /// Correct-path instructions committed so far.
    pub fn committed(&self) -> u64 {
        match self {
            Core::Big(c) => c.committed(),
            Core::Small(c) => c.committed(),
        }
    }

    /// Core cycles elapsed.
    pub fn cycles(&self) -> u64 {
        match self {
            Core::Big(c) => c.cycles(),
            Core::Small(c) => c.cycles(),
        }
    }

    /// Accumulated CPI stack.
    pub fn cpi_stack(&self) -> &CpiStack {
        match self {
            Core::Big(c) => c.cpi_stack(),
            Core::Small(c) => c.cpi_stack(),
        }
    }

    /// Committed instruction counts per [`relsim_trace::OpClass`] index.
    pub fn class_counts(&self) -> &[u64; 10] {
        match self {
            Core::Big(c) => c.class_counts(),
            Core::Small(c) => c.class_counts(),
        }
    }

    /// Committed loads served by each memory level (L1, L2, L3, Memory).
    pub fn loads_by_level(&self) -> &[u64; 4] {
        match self {
            Core::Big(c) => c.loads_by_level(),
            Core::Small(c) => c.loads_by_level(),
        }
    }

    /// Fast-forward across a tick window without cycle timing; see
    /// [`OooCore::fast_forward`].
    pub fn fast_forward(
        &mut self,
        start: u64,
        ticks: u64,
        instructions: u64,
        template: &CpiStack,
        src: &mut dyn InstrSource,
        shared: &mut SharedMem,
    ) {
        match self {
            Core::Big(c) => c.fast_forward(start, ticks, instructions, template, src, shared),
            Core::Small(c) => c.fast_forward(start, ticks, instructions, template, src, shared),
        }
    }

    /// Squash in-flight state on application migration.
    pub fn reset_pipeline(&mut self) {
        match self {
            Core::Big(c) => c.reset_pipeline(),
            Core::Small(c) => c.reset_pipeline(),
        }
    }

    /// Private-cache statistics (L1I, L1D, L2).
    pub fn cache_stats(&self) -> (CacheStats, CacheStats, CacheStats) {
        match self {
            Core::Big(c) => c.caches().stats(),
            Core::Small(c) => c.caches().stats(),
        }
    }

    /// Mutable access to the private caches.
    pub fn caches_mut(&mut self) -> &mut PrivateCaches {
        match self {
            Core::Big(c) => c.caches_mut(),
            Core::Small(c) => c.caches_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullObserver;
    use relsim_mem::SharedMemConfig;
    use relsim_trace::TraceGenerator;

    #[test]
    fn wrapper_dispatches_to_both_kinds() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let kind = cfg.kind;
            let mut core = Core::new(cfg, PrivateCacheConfig::default());
            assert_eq!(core.kind(), kind);
            let p = relsim_trace::spec_profile("namd").unwrap();
            let mut src = TraceGenerator::new(p, 1, 0);
            for t in 0..5000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            assert!(core.committed() > 0, "{kind} committed nothing");
            assert!(core.cycles() > 0);
            assert_eq!(core.cpi_stack().total(), core.cycles());
            core.reset_pipeline();
        }
    }

    #[test]
    fn fast_forward_preserves_counter_invariants() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        for cfg in [CoreConfig::big(), CoreConfig::small()] {
            let mut core = Core::new(cfg, PrivateCacheConfig::default());
            let p = relsim_trace::spec_profile("milc").unwrap();
            let mut src = TraceGenerator::new(p, 7, 0);
            // Detailed interval first, so there is a CPI template.
            for t in 0..4000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            let cycles_before = core.cycles();
            let committed_before = core.committed();
            let generated_before = src.generated();
            let template = *core.cpi_stack();
            core.fast_forward(4000, 16_000, 9_000, &template, &mut src, &mut shared);
            assert_eq!(core.cycles(), cycles_before + 16_000);
            assert_eq!(core.committed(), committed_before + 9_000);
            assert_eq!(
                core.cpi_stack().total(),
                core.cycles(),
                "CPI total must stay equal to cycles through a fast-forward"
            );
            let total: u64 = core.class_counts().iter().sum();
            assert_eq!(total, core.committed());
            assert!(
                src.generated() >= generated_before + 9_000,
                "trace position must advance through the window"
            );
            // Detailed simulation resumes cleanly after the window.
            for t in 20_000..24_000 {
                core.tick(t, &mut src, &mut shared, &mut obs);
            }
            assert_eq!(core.cpi_stack().total(), core.cycles());
            assert!(core.committed() > committed_before + 9_000);
        }
    }

    #[test]
    fn class_counts_sum_to_committed() {
        let mut shared = SharedMem::new(SharedMemConfig::default());
        let mut obs = NullObserver;
        let mut core = Core::new(CoreConfig::big(), PrivateCacheConfig::default());
        let p = relsim_trace::spec_profile("bzip2").unwrap();
        let mut src = TraceGenerator::new(p, 5, 0);
        for t in 0..10_000 {
            core.tick(t, &mut src, &mut shared, &mut obs);
        }
        let total: u64 = core.class_counts().iter().sum();
        assert_eq!(total, core.committed());
    }
}
