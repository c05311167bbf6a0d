//! # datatap — asynchronous staging transport
//!
//! A reimplementation of the DataTap/DataStager transport the paper moves
//! all inter-container data through. Its defining semantics:
//!
//! * **metadata push, data pull** — writers buffer payloads locally and
//!   announce small metadata records; receivers pull the bulk data when
//!   ready ([`channel`]);
//! * **bounded staging buffers** — a full buffer blocks the writer, which
//!   is exactly the application-blocking failure container management
//!   exists to prevent.
//!
//! The channel is a plain bounded MPMC queue: it carries the threaded
//! runtime's edges whose step order the step-streaming engine (crate
//! `stream`) would reject. The writer pause the container decrease
//! protocol waits on is the engine's. [`TransportCosts`] supplies the
//! calibrated software costs the discrete-event experiments charge for
//! the same operations, including that pause's drain time, and
//! [`Clock`] is the injectable time source both transports time their
//! timeout paths against.
//!
//! ## Example
//! ```
//! use datatap::channel;
//! use adios::StepData;
//!
//! let (writer, reader) = channel(4);
//! writer.try_write(StepData::new(0)).unwrap();
//! let meta = reader.peek_meta().unwrap();     // metadata arrives first
//! assert_eq!(meta.step, 0);
//! let (_, payload) = reader.pull().unwrap();  // then the data is pulled
//! assert_eq!(payload.step(), 0);
//! ```

#![warn(missing_docs)]

mod channel;
pub mod clock;
mod cost;

pub use channel::{channel, channel_with_clock, Reader, StepMeta, WriteError, Writer};
pub use clock::{Clock, ManualClock, WallClock};
pub use cost::TransportCosts;
