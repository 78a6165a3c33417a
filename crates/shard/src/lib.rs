//! # orion-shard
//!
//! Deterministic multi-threaded partitioning of one simulated network.
//!
//! A [`ShardedNetwork`] splits the topology's nodes into contiguous
//! ranges ([`ShardPlan`]), runs one `orion-sim` engine per range —
//! optionally on long-lived worker threads, one per shard after the
//! first, started on the first threaded step — and exchanges boundary
//! flits and credits through fixed-latency, fixed-order mailboxes
//! ([`MailGrid`]). The synchronous engine's two-phase cycle is the
//! only barrier: nothing a shard does in cycle `T` is observable
//! elsewhere before `T+1`, so one handoff round per cycle (cells out
//! to the workers, cells back) suffices.
//!
//! The headline property, pinned by this crate's tests and by
//! `orion-core`'s golden differential harness: **`N` shards are
//! bit-identical to one** — same latencies, same per-node energies,
//! same packet ids, same observability output — for every shard count
//! and plan. `docs/SCALING.md` walks through why.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mailbox;
pub mod plan;
pub mod sharded;

pub use mailbox::{MailGrid, MailboxIo};
pub use plan::{PlanError, ShardPlan};
pub use sharded::ShardedNetwork;
