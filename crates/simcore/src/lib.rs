//! # sapsim-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the time base, event queue, and reproducible random
//! number streams that every other `sapsim` crate builds on. It is the
//! substrate for reproducing the 30-day observation window of the SAP Cloud
//! Infrastructure dataset (IMC '25): the cloud simulator in `sapsim-core`
//! schedules VM lifecycle events and telemetry scrapes on the engine defined
//! here.
//!
//! Design goals, in order:
//!
//! 1. **Determinism.** A simulation run is a pure function of its
//!    configuration and seed. The event queue breaks timestamp ties by
//!    insertion order, and all randomness flows through [`SimRng`], which
//!    supports labelled stream splitting so that adding a consumer of
//!    randomness in one subsystem never perturbs another.
//! 2. **Simplicity and robustness** over cleverness (following the smoltcp
//!    school of API design): plain data structures, no interior mutability,
//!    no global state, no unsafe code.
//! 3. **Throughput.** The engine must sustain tens of millions of events so
//!    that a full region (1,800 hypervisors, 48,000 VMs, 30 days) simulates
//!    in seconds-to-minutes on a laptop. The engine spawns no thread;
//!    concurrency, where it pays, lives above it (one run per sweep worker).
//!
//! ## Quick tour
//!
//! ```
//! use sapsim_sim::{Simulation, SimTime, SimDuration};
//!
//! // The event payload is caller-defined.
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut sim = Simulation::new();
//! sim.schedule_after(SimDuration::from_secs(30), Ev::Tick(1));
//! sim.schedule_after(SimDuration::from_secs(60), Ev::Tick(2));
//!
//! let mut seen = Vec::new();
//! while let Some(fired) = sim.next_event() {
//!     seen.push((fired.time.as_secs(), fired.payload));
//! }
//! assert_eq!(seen, vec![(30, Ev::Tick(1)), (60, Ev::Tick(2))]);
//! ```

#![warn(clippy::too_many_lines)]

mod engine;
mod queue;
mod rng;
mod time;
mod wheel;

pub use engine::Simulation;
pub use queue::{EventQueue, QueueBackend};
pub use wheel::WHEEL_LEVELS;
pub use rng::{for_each_seed, SimRng};
pub use time::{SimDuration, SimTime, MILLIS_PER_DAY, MILLIS_PER_HOUR};
