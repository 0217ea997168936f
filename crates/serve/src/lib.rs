//! `arest-serve`: a dependency-free HTTP/1.1 query daemon for SR
//! deployment data.
//!
//! The crate is a hand-rolled HTTP server — listener, incremental
//! request parser, router, and response writer — that loads a
//! completed campaign's results (as a [`store::Store`]) and answers
//! operator queries over plain HTTP:
//!
//! | Route | Answer |
//! |---|---|
//! | `GET /api/summary` | campaign-wide totals + per-AS rollup |
//! | `GET /api/as/{asn}` | one AS's SR deployment summary |
//! | `GET /api/addr/{ip}` | per-address detections with full provenance |
//! | `GET /api/runs` | every run committed to the attached ledger |
//! | `GET /api/runs/{serial}` | one committed run's header + totals |
//! | `GET /api/diff/{a}/{b}` | announce/withdraw delta between two runs |
//! | `GET /metrics` | Prometheus text from the `arest-obs` registry |
//! | `GET /status` | liveness + dataset facts + ledger provenance |
//!
//! # Architecture
//!
//! Concurrency rides the existing [`arest_tnt::pool`] work-stealing
//! pool via [`pool::run_dynamic`](arest_tnt::pool::run_dynamic): one
//! long-lived *accept* unit camps on the nonblocking listener and
//! injects one *connection* unit per accepted socket, so the same
//! worker threads that power campaigns serve HTTP. All locks and
//! atomics come from the `arest-conc` facades, and every lifecycle
//! invariant (no admission after shutdown, drain-before-exit) lives in
//! [`dispatch::DispatchCore`], which the `model-check` scheduler
//! explores exhaustively in `tests/model_serve.rs`.
//!
//! JSON is produced by the in-tree [`json::Json`] encoder — no serde —
//! and every body is byte-deterministic for a given dataset, which is
//! what lets `docs/API.md` quote example responses verbatim and have a
//! test (`api_md.rs` in `arest-experiments`) hold them to it.
//!
//! The crate knows nothing about campaign types: it serves the
//! ledger's [`arest_ledger::RunSnapshot`] rows, which
//! `arest-experiments` flattens a `Dataset` into (and the ledger
//! loads from disk), keeping the dependency arrow pointing the same
//! way as every other crate here (`serve` sits beside `obs`/`tnt`,
//! not above the pipeline).
#![warn(missing_docs)]

pub mod dispatch;
pub mod http;
pub mod json;
pub mod ledger_bridge;
pub mod ledger_watch;
pub mod load;
pub mod prom;
pub mod router;
pub mod server;
pub mod store;
pub mod store_cell;

pub use dispatch::{DispatchCore, DispatchStats};
pub use json::Json;
pub use load::{LoadConfig, LoadReport};
pub use router::{route, Route, RouteError};
pub use server::{Server, ShutdownHandle};
pub use store::Store;
pub use store_cell::{LedgerStamp, RunOrigin, StoreCell, StoreVersion};
