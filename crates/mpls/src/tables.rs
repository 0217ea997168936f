//! Executable per-router MPLS state: the LFIB and the FTN.
//!
//! Both the classic LDP control plane ([`crate::ldp`]) and the SR
//! control plane (`arest-sr`) compile down to these two tables; the
//! simulator (`arest-simnet`) only ever interprets them, so one data
//! plane serves both — exactly the SR-MPLS premise of "SR over the
//! existing MPLS forwarding plane" (paper §2.3).
//!
//! Control planes write straight into a router's tables through
//! [`LabelTables`], which the simulator's router plane implements; a
//! standalone [`MplsTables`] pair serves tests and tools.

use arest_topo::ids::{IfaceId, RouterId};
use arest_topo::prefix::{Prefix, PrefixMap};
use arest_wire::mpls::Label;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// What a router does with an incoming top label (its NHLFE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LfibAction {
    /// SWAP: replace the top label and forward.
    Swap {
        /// The outgoing label.
        out_label: Label,
        /// Egress interface.
        out_iface: IfaceId,
        /// The neighbour on the far side (for bookkeeping/tests).
        next_router: RouterId,
    },
    /// POP and forward: remove the top label and send what remains
    /// (deeper stack or plain IP) out an interface — penultimate-hop
    /// popping, or an adjacency SID's forced egress.
    PopForward {
        /// Egress interface.
        out_iface: IfaceId,
        /// The neighbour on the far side.
        next_router: RouterId,
    },
    /// POP locally: the label addressed this router (its node SID or
    /// an egress label); remove it and re-process the packet here
    /// (IP lookup, or act on the next label).
    PopLocal,
}

/// A fixed multiplicative hasher (the `FxHash` shape) for label keys.
///
/// Labels are router-chosen integers, not attacker-chosen, so the
/// LFIB needs no DoS-resistant SipHash; one multiply per lookup keeps
/// the data plane's per-hop label lookup and the generator's installs
/// cheap, and a fixed seed makes iteration order reproducible.
#[derive(Debug, Clone, Copy, Default)]
struct LabelHasher(u64);

impl Hasher for LabelHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The Label Forwarding Information Base: incoming label → action.
#[derive(Debug, Clone, Default)]
pub struct Lfib {
    entries: HashMap<Label, LfibAction, BuildHasherDefault<LabelHasher>>,
    collisions: Vec<(Label, LfibAction, LfibAction)>,
}

impl Lfib {
    /// Creates an empty LFIB.
    pub fn new() -> Lfib {
        Lfib::default()
    }

    /// Installs an entry; returns the previous action when overwritten.
    ///
    /// Later installs win (the merge semantics control planes rely on),
    /// but an overwrite with a *different* action is remembered as a
    /// collision: two control planes claimed the same incoming label
    /// for different forwarding behaviour, which `arest-audit` reports
    /// as an error. Reinstalling an identical action is not a
    /// collision — egress PopLocal entries (ELI, service SIDs) are
    /// legitimately installed once per FEC.
    pub fn install(&mut self, in_label: Label, action: LfibAction) -> Option<LfibAction> {
        let previous = self.entries.insert(in_label, action);
        if let Some(old) = previous {
            if old != action {
                self.collisions.push((in_label, old, action));
            }
        }
        previous
    }

    /// Looks up the action for an incoming label.
    pub fn lookup(&self, label: Label) -> Option<LfibAction> {
        self.entries.get(&label).copied()
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the LFIB is empty (a pure-IP router).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(in_label, action)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &LfibAction)> {
        self.entries.iter()
    }

    /// Every overwrite that changed behaviour, as
    /// `(label, previous action, winning action)` in install order.
    pub fn collisions(&self) -> &[(Label, LfibAction, LfibAction)] {
        &self.collisions
    }
}

/// The ingress encapsulation instruction attached to a FEC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushInstruction {
    /// Labels to push, top of stack first. Empty means "forward as
    /// plain IP" (the downstream advertised implicit NULL).
    pub labels: Vec<Label>,
    /// Egress interface for the encapsulated packet.
    pub out_iface: IfaceId,
    /// The neighbour on the far side.
    pub next_router: RouterId,
}

/// The FEC-To-NHLFE map: destination prefix → push instruction.
///
/// Consulted by ingress LERs (and by LSRs whose [`LfibAction::PopLocal`]
/// re-enters the IP layer mid-tunnel, as happens at SR/LDP boundaries).
#[derive(Debug, Clone, Default)]
pub struct Ftn {
    map: PrefixMap<PushInstruction>,
}

impl Ftn {
    /// Creates an empty FTN.
    pub fn new() -> Ftn {
        Ftn::default()
    }

    /// Installs an instruction for a FEC.
    pub fn install(&mut self, fec: Prefix, instruction: PushInstruction) {
        self.map.insert(fec, instruction);
    }

    /// Longest-prefix-match lookup for a destination address.
    pub fn lookup(&self, dst: std::net::Ipv4Addr) -> Option<&PushInstruction> {
        self.map.lookup(dst).map(|(_, i)| i)
    }

    /// Number of FECs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no FEC is installed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over `(prefix, instruction)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Prefix, &PushInstruction)> {
        self.map.iter()
    }
}

/// A router's MPLS tables as a control plane writes them. Control
/// planes compile into a slot-indexed slice of these (one per domain
/// member, in [`arest_topo::spf::DomainSpf`] slot order), so every
/// entry is installed once, into the router's own tables.
pub trait LabelTables {
    /// The router's LFIB.
    fn lfib_mut(&mut self) -> &mut Lfib;
    /// The router's FTN.
    fn ftn_mut(&mut self) -> &mut Ftn;
}

impl<T: LabelTables + ?Sized> LabelTables for &mut T {
    fn lfib_mut(&mut self) -> &mut Lfib {
        (**self).lfib_mut()
    }

    fn ftn_mut(&mut self) -> &mut Ftn {
        (**self).ftn_mut()
    }
}

/// A standalone LFIB/FTN pair.
#[derive(Debug, Clone, Default)]
pub struct MplsTables {
    /// The label forwarding table.
    pub lfib: Lfib,
    /// The ingress FEC table.
    pub ftn: Ftn,
}

impl LabelTables for MplsTables {
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
    use std::net::Ipv4Addr;

    fn label(v: u32) -> Label {
        Label::new(v).unwrap()
    }

    #[test]
    fn lfib_install_lookup_overwrite() {
        let mut lfib = Lfib::new();
        assert!(lfib.is_empty());
        let swap = LfibAction::Swap {
            out_label: label(17_005),
            out_iface: IfaceId(4),
            next_router: RouterId(2),
        };
        assert_eq!(lfib.install(label(16_005), swap), None);
        assert_eq!(lfib.lookup(label(16_005)), Some(swap));
        assert_eq!(lfib.lookup(label(99)), None);
        let pop = LfibAction::PopLocal;
        assert_eq!(lfib.install(label(16_005), pop), Some(swap));
        assert_eq!(lfib.len(), 1);
    }

    #[test]
    fn collisions_record_conflicting_overwrites_only() {
        let mut lfib = Lfib::new();
        let pop = LfibAction::PopLocal;
        lfib.install(label(24_001), pop);
        lfib.install(label(24_001), pop); // identical reinstall: benign
        assert!(lfib.collisions().is_empty());

        let swap = LfibAction::Swap {
            out_label: label(24_009),
            out_iface: IfaceId(1),
            next_router: RouterId(3),
        };
        lfib.install(label(24_001), swap);
        assert_eq!(lfib.collisions(), &[(label(24_001), pop, swap)]);
        // Later-wins semantics are unchanged.
        assert_eq!(lfib.lookup(label(24_001)), Some(swap));
    }

    #[test]
    fn ftn_longest_prefix_wins() {
        let mut ftn = Ftn::new();
        let coarse = PushInstruction {
            labels: vec![label(30_000)],
            out_iface: IfaceId(1),
            next_router: RouterId(1),
        };
        let fine = PushInstruction {
            labels: vec![label(30_001), label(30_002)],
            out_iface: IfaceId(2),
            next_router: RouterId(2),
        };
        ftn.install("10.0.0.0/8".parse().unwrap(), coarse.clone());
        ftn.install("10.1.0.0/16".parse().unwrap(), fine.clone());
        assert_eq!(ftn.lookup(Ipv4Addr::new(10, 1, 2, 3)), Some(&fine));
        assert_eq!(ftn.lookup(Ipv4Addr::new(10, 9, 9, 9)), Some(&coarse));
        assert_eq!(ftn.lookup(Ipv4Addr::new(192, 0, 2, 1)), None);
        assert_eq!(ftn.len(), 2);
    }

    #[test]
    fn empty_push_means_plain_ip() {
        let mut ftn = Ftn::new();
        ftn.install(
            "198.51.100.0/24".parse().unwrap(),
            PushInstruction { labels: vec![], out_iface: IfaceId(0), next_router: RouterId(9) },
        );
        let i = ftn.lookup(Ipv4Addr::new(198, 51, 100, 77)).unwrap();
        assert!(i.labels.is_empty());
    }
}
