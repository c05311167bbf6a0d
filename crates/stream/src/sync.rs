//! Sync primitives behind the `--cfg loom` seam.
//!
//! The engine's pause/resume protocol is the transport's one writer
//! pause, coordinated through a mutex/condvar pair, so it is the place
//! worth model-checking. Building with `RUSTFLAGS="--cfg loom"` swaps
//! `parking_lot` for the loom stand-in, whose primitives inject seeded
//! preemption points so `loom::model` can explore interleavings (see
//! `tests/loom_engine.rs` and ci.sh's loom job). The two export
//! sets are API-compatible: non-poisoning `lock()`, condvar waits by
//! `&mut MutexGuard`.

#[cfg(loom)]
pub(crate) use loom::sync::{Condvar, Mutex};

#[cfg(not(loom))]
pub(crate) use parking_lot::{Condvar, Mutex};
