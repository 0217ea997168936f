//! # arest-topo
//!
//! Router-level topology model shared by the whole AReST reproduction.
//!
//! The crate deliberately stays below the control planes: it knows
//! about routers, interfaces, point-to-point links, autonomous
//! systems, IGP costs and shortest paths — but nothing about MPLS or
//! Segment Routing, which live in `arest-mpls` and `arest-sr`.
//!
//! * [`ids`] — small typed identifiers for routers, interfaces and ASes.
//! * [`vendor`] — the hardware vendor vocabulary used by fingerprinting
//!   and by the SR label-block tables.
//! * [`prefix`] — IPv4 prefixes and a longest-prefix-match map, one
//!   sorted range table, used for FIBs, FTNs and AS ownership.
//! * [`graph`] — the topology itself with its builder API.
//! * [`spf`] — deterministic Dijkstra shortest-path-first used as the
//!   IGP (IS-IS/OSPF stand-in).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod graph;
pub mod ids;
pub mod prefix;
pub mod spf;
pub mod vendor;

pub use graph::{Interface, Link, Router, Topology};
pub use ids::{AsNumber, IfaceId, LinkId, RouterId};
pub use prefix::{Prefix, PrefixMap};
pub use spf::SpfTree;
pub use vendor::Vendor;
