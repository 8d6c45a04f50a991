//! # jserve — the concurrent multi-tenant serving core
//!
//! Turns a single-owner [`mongofind::Collection`] into a serving
//! process: many concurrent readers, one writer, per-tenant governance,
//! and a failure envelope that is *typed errors only* — no panics, no
//! hangs, no torn reads.
//!
//! Four layers, composed bottom-up:
//!
//! | Layer | Type | Contract |
//! |---|---|---|
//! | snapshot isolation | [`Store`] / [`Snapshot`] | readers get an immutable epoch-stamped view; the writer publishes atomically; [`Store::compact`] merges off to the side and catches up by segment adoption |
//! | worker pool | [`jpar::Pool`] | persistent parked helpers serve every pool-driven query path (the collection's pool configuration rides into every snapshot) |
//! | admission | [`Admission`] | bounded deadline-aware queue; excess load shed fail-closed as [`jguard::QueryError::Overloaded`] |
//! | verbs | [`Server`] / [`Request`] | find / projected find / aggregate / insert / `EXPLAIN` / `EXPLAIN ANALYZE`, each under a tenant's [`jguard::QueryCtx`] with a shared [`jtrace::QueryMetrics`] sink, panic-contained at the serve boundary |
//!
//! ## The linearizability contract
//!
//! Every read response names the epoch of the snapshot it ran against
//! ([`Response::Docs`]), and epoch `e` means *exactly* the seed
//! collection plus the first `e` entries of the commit log
//! ([`Store::log_prefix`]). The `s11` harness gate replays that
//! equation serially and byte-compares: what a concurrent reader saw is
//! what a serial replay of the committed prefix produces, storms,
//! compactions, and injected faults notwithstanding.

pub mod admission;
pub mod server;
pub mod store;

pub use admission::{Admission, AdmissionConfig, Permit};
pub use server::{Request, Response, Server, TenantSpec};
pub use store::{Snapshot, Store};
