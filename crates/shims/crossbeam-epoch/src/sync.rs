//! Cfg-gated sync facade; see `llx-scx/src/sync.rs` for the full story.
//! std re-exports normally, instrumented `modelcheck` types (atomics plus a
//! scheduler-aware `Mutex`) under `--cfg llx_model`.

#[cfg(not(llx_model))]
#[allow(unused_imports)]
pub use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(llx_model))]
#[allow(unused_imports)]
pub use std::sync::{Mutex, MutexGuard};

#[cfg(llx_model)]
#[allow(unused_imports)]
pub use modelcheck::sync::{fence, AtomicU64, AtomicUsize, Mutex, MutexGuard, Ordering};
