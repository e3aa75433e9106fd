//! Process-wide default for the event-horizon cycle-skipping mode of the
//! detailed engine (DESIGN.md §11).
//!
//! Skipping is on: it is byte-identical to the plain tick loop, so there
//! is no accuracy trade-off, only speed. No binary turns it off; the
//! plain loop is a test-only referee that the horizon-equivalence suite
//! selects through [`set_default_enabled`]. Every multicore result-cache
//! key hashes [`default_enabled`], so a grid run with skipping off never
//! reads an entry written with it on.

use std::sync::atomic::{AtomicBool, Ordering};

/// Process-wide default, consulted by [`System::new`](crate::System::new).
/// Stored as an atomic so reads are lock-free; set before any parallel
/// work begins, mirroring
/// [`sampling::set_default`](crate::sampling::set_default).
static DEFAULT_ENABLED: AtomicBool = AtomicBool::new(true);

/// Install the process-wide default for cycle skipping. Call before
/// spawning experiment-pool workers.
pub fn set_default_enabled(enabled: bool) {
    DEFAULT_ENABLED.store(enabled, Ordering::SeqCst);
}

/// Whether newly built [`System`](crate::System)s skip dead cycles.
pub fn default_enabled() -> bool {
    DEFAULT_ENABLED.load(Ordering::SeqCst)
}
