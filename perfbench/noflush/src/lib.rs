//! Counts every `fsync` and `fdatasync` of the process it is preloaded
//! into and returns success without flushing.
//!
//! The benchmark measures software overhead, as if its data directories
//! were on tmpfs, where a flush costs nothing. It has to keep its data
//! inside its own checkout, which may sit on a disk-backed file system;
//! there, PLFS's flush of every dropping on close would time the device
//! instead, and each forced journal commit would slow the metadata calls
//! that follow. Listed first in `LD_PRELOAD`, these symbols are the ones
//! every caller binds to, including the preload library's own backing
//! flushes. The load generator reads the count through
//! [`perfbench_flushes`] and reports it, so the flushes the program asked
//! for stay visible.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicU64, Ordering};

static FLUSHES: AtomicU64 = AtomicU64::new(0);

fn count() -> c_int {
    // relaxed: a statistic, no data published
    FLUSHES.fetch_add(1, Ordering::Relaxed);
    0
}

/// `fsync(2)`: counted, not performed.
#[no_mangle]
pub extern "C" fn fsync(_fd: c_int) -> c_int {
    count()
}

/// `fdatasync(2)`: counted, not performed.
#[no_mangle]
pub extern "C" fn fdatasync(_fd: c_int) -> c_int {
    count()
}

/// Number of `fsync`/`fdatasync` calls so far.
#[no_mangle]
pub extern "C" fn perfbench_flushes() -> u64 {
    // relaxed: a statistic, no data published
    FLUSHES.load(Ordering::Relaxed)
}
