//! The benchmark's one clock: nanoseconds since the first reading.
//! Every span, submit and inform is stamped with it, so timestamps from
//! different threads and layers subtract directly.

use std::sync::OnceLock;
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process first asked.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}
