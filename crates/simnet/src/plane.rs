//! Per-router forwarding and behaviour state.

use arest_mpls::tables::{Ftn, LabelTables, Lfib, PushInstruction};
use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::{Prefix, PrefixMap};
use std::collections::HashMap;

/// A unicast IP route: egress interface and the neighbour behind it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Egress interface.
    pub out_iface: IfaceId,
    /// Next-hop router.
    pub next_router: RouterId,
}

/// Everything one router contributes to the data plane.
#[derive(Debug, Clone)]
pub struct RouterPlane {
    /// IP FIB. Keys are router loopbacks (for intra-domain routing —
    /// the engine resolves interface addresses to their owner's
    /// loopback before lookup) and external prefixes.
    pub fib: PrefixMap<Route>,
    /// MPLS label FIB, written by every control plane (LDP + SR)
    /// active on the router.
    pub lfib: Lfib,
    /// Ingress FEC table, likewise shared. Later installs win on FEC
    /// conflicts, so installing LDP before SR gives SR precedence —
    /// the RFC 8661 interworking preference.
    pub ftn: Ftn,
    /// Whether this router quotes received label stacks in ICMP
    /// time-exceeded messages (RFC 4950).
    pub rfc4950: bool,
    /// Whether this router, when acting as ingress LER, copies the IP
    /// TTL into pushed LSEs (`ttl-propagate`).
    pub ttl_propagate: bool,
    /// Whether the router answers ICMP echo requests (fingerprinting
    /// needs this; some operators filter it).
    pub answers_echo: bool,
    /// Whether the router emits ICMP errors at all. A `false` models
    /// the silent hops traceroute prints as `*`.
    pub icmp_enabled: bool,
    /// Whether this router's management plane responds to SNMPv3
    /// probing (feeds the simulated fingerprint dataset).
    pub snmp_responsive: bool,
    /// TI-LFA protection: per egress interface, the repair push
    /// applied when that interface's link is down (labels prepended
    /// to whatever the packet carries, then redirect).
    pub protection: HashMap<IfaceId, PushInstruction>,
}

impl Default for RouterPlane {
    fn default() -> RouterPlane {
        RouterPlane {
            fib: PrefixMap::new(),
            lfib: Lfib::new(),
            ftn: Ftn::new(),
            rfc4950: true,
            ttl_propagate: true,
            answers_echo: true,
            icmp_enabled: true,
            snmp_responsive: false,
            protection: HashMap::new(),
        }
    }
}

impl RouterPlane {
    /// Installs an IP route.
    pub fn install_route(&mut self, prefix: Prefix, route: Route) {
        self.fib.insert(prefix, route);
    }

    /// Installs a TI-LFA repair for one protected egress interface.
    pub fn install_protection(&mut self, protected: IfaceId, repair: PushInstruction) {
        self.protection.insert(protected, repair);
    }
}

/// Control planes compile straight into a router's plane.
impl LabelTables for RouterPlane {
    fn lfib_mut(&mut self) -> &mut Lfib {
        &mut self.lfib
    }

    fn ftn_mut(&mut self) -> &mut Ftn {
        &mut self.ftn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_visible_and_responsive() {
        let plane = RouterPlane::default();
        assert!(plane.rfc4950 && plane.ttl_propagate && plane.icmp_enabled);
        assert!(!plane.snmp_responsive, "SNMP exposure is opt-in");
    }
}
