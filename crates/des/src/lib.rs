//! # `des` — deterministic discrete-event simulation kernel
//!
//! This crate is the execution substrate of the page-cache simulator: a
//! single-threaded, deterministic discrete-event engine with an async/await
//! process model, playing the role SimGrid plays for WRENCH in the paper
//! *"Modeling the Linux page cache for accurate simulation of data-intensive
//! applications"* (CLUSTER 2021).
//!
//! ## Model
//!
//! * **Processes** are ordinary Rust futures spawned on a [`Simulation`].
//!   They represent application instances, background kernel threads (the
//!   periodical flusher), NFS daemons, etc.
//! * **Virtual time** ([`SimTime`]) only advances when every process is
//!   blocked on a timer or a resource; it then jumps to the next event.
//! * **Determinism**: processes are resumed in FIFO order and simultaneous
//!   events fire in scheduling order, so a given program always produces the
//!   same trace.
//! * **Speed**: timers live in one `(time, seq)`-ordered binary heap that
//!   drops cancelled keys lazily and compacts them once they outnumber live
//!   ones (see the [`scheduler`] module). Tasks, timers and device flows
//!   live in generational [`Slab`]s, so no event hashes an id.
//!
//! ## Example
//!
//! ```
//! use des::Simulation;
//!
//! let sim = Simulation::new();
//! let ctx = sim.context();
//! let handle = sim.spawn(async move {
//!     ctx.sleep(3.0).await;       // 3 seconds of virtual time
//!     ctx.now().as_secs()
//! });
//! sim.run();
//! assert_eq!(handle.try_take_result(), Some(3.0));
//! ```

#![warn(missing_docs)]

mod engine;
pub mod scheduler;
mod select;
mod slab;
mod time;

pub use engine::{
    Callback, EngineStats, JoinHandle, SimContext, Simulation, Sleep, TaskId, TimerId, YieldNow,
};
pub use select::{select2, Either, Select2};
pub use slab::Slab;
pub use time::SimTime;
