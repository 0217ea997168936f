//! # arest-mpls
//!
//! The classic MPLS control and forwarding plane of the reproduction.
//!
//! * [`pool`] — per-router dynamic label pools, the source of the
//!   *locally significant* labels that make repeated labels across
//!   consecutive hops a strong SR signal (paper §2.1/§4.1).
//! * [`tables`] — the executable router state: the LFIB (incoming
//!   label → operation) and the FTN (FEC → push instruction) that the
//!   simulator interprets, shared with the SR control plane.
//! * [`ldp`] — a Label Distribution Protocol stand-in that builds
//!   hop-by-hop LSPs for a set of FECs over the IGP shortest paths,
//!   with penultimate-hop popping.
//! * [`rsvp`] — RSVP-TE explicit-route LSPs (footnote 2 of the paper:
//!   the other label distribution protocol, used for traffic
//!   engineering), compiling to the same executable tables.
//! * [`visibility`] — ttl-propagate / RFC 4950 configuration and the
//!   explicit / implicit / opaque / invisible tunnel taxonomy of
//!   Donnet et al. that decides which AReST flags a tunnel can fire.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ldp;
pub mod pool;
pub mod rsvp;
pub mod tables;
pub mod visibility;

pub use ldp::{LdpDomain, LdpFec};
pub use pool::DynamicLabelPool;
pub use rsvp::{signal_tunnel, RsvpLsp, RsvpTunnel};
pub use tables::{Ftn, LabelTables, Lfib, LfibAction, MplsTables, PushInstruction};
pub use visibility::{TunnelType, TunnelVisibility};
