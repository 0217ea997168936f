//! # arest-tnt
//!
//! Paris traceroute + TNT over the simulator.
//!
//! TNT (Trace the Naughty Tunnels, Luttringer et al. / Vanaubel et
//! al.) is the measurement tool AReST post-processes: a Paris
//! traceroute that understands MPLS. This crate reproduces its whole
//! pipeline:
//!
//! * [`trace`] — the augmented trace model: per-hop address, RTT,
//!   quoted LSE stack, quoted IP TTL (qTTL), reply IP TTL.
//! * [`tracer`] — flow-stable UDP probing, ICMP parsing (through the
//!   real `arest-wire` codecs), probe/reply matching on the Paris
//!   identifier.
//! * [`reveal`] — hidden-tunnel triggers (RTLA-style return-TTL
//!   mismatch) and revelation by direct probing of interface
//!   addresses (DPR/BRPR-style), which exposes invisible and opaque
//!   tunnel interiors *without* their LSEs, exactly as the paper
//!   notes (§2.2).
//! * [`tunnels`] — per-trace tunnel span classification into the
//!   explicit / implicit / opaque / invisible taxonomy.
//! * [`multipath`] — MDA-style ECMP enumeration: vary the flow per
//!   TTL to expose the branch diversity Paris-style probing pins.
//! * [`campaign`] — the multi-vantage-point measurement driver,
//!   scheduled as `(AS, VP)` work units over the shared pool.
//! * [`pool`] — the work-stealing worker pool every parallel pipeline
//!   stage runs on, with a deterministic in-order merge.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod multipath;
mod obs;
pub mod pool;
pub mod reveal;
pub mod trace;
pub mod tracer;
pub mod tunnels;

pub use campaign::{CampaignConfig, VantagePoint};
pub use multipath::{multipath_trace, MdaConfig, MultipathTrace};
pub use pool::{run_indexed, worker_count};
pub use trace::{Hop, Trace};
pub use tracer::{trace_route, TraceConfig};
pub use tunnels::{classify_tunnels, TunnelObservation};
