//! Network-function taxonomy.
//!
//! The paper's evaluation spans 4G/5G radio access (eNodeB, gNodeB),
//! transport (SIAD switches), core routers, and the virtualized functions of
//! three cloud services: VPN (vCE), SDWAN (vGW, portal, CPE, vVIG), and the
//! virtualized cellular core (vCOM, vRAR) — see Appendix A. Physical servers
//! appear as a layer below VNFs for cross-layer conflict scoping (§2.2).

use std::fmt;

/// Type of a network-function instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NfType {
    /// 4G LTE base station.
    ENodeB,
    /// 5G base station.
    GNodeB,
    /// Smart Integrated Access Device — transport switch aggregating
    /// co-located base stations.
    Siad,
    /// Transport-layer switch (e.g. top-of-rack in a cloud zone).
    TransportSwitch,
    /// Core router (VPN backbone).
    CoreRouter,
    /// Mobility management entity (4G core).
    Mme,
    /// Serving/packet gateway (4G/5G core).
    SPGateway,
    /// Virtual customer-edge router (VPN service).
    VceRouter,
    /// Virtual gateway (SDWAN traffic tunneling).
    VGateway,
    /// SDWAN configuration & monitoring portal.
    Portal,
    /// Virtualized internet gateway (SDWAN).
    Vvig,
    /// Customer premise equipment (SDWAN edge).
    Cpe,
    /// Centralized operations management VNF (VoLTE core).
    Vcom,
    /// Revenue assurance reporting VNF (VoLTE core).
    Vrar,
    /// Physical server hosting VNFs (cross-layer dependency target).
    PhysicalServer,
}

impl NfType {
    /// All variants, in declaration order.
    pub const ALL: [NfType; 15] = [
        NfType::ENodeB,
        NfType::GNodeB,
        NfType::Siad,
        NfType::TransportSwitch,
        NfType::CoreRouter,
        NfType::Mme,
        NfType::SPGateway,
        NfType::VceRouter,
        NfType::VGateway,
        NfType::Portal,
        NfType::Vvig,
        NfType::Cpe,
        NfType::Vcom,
        NfType::Vrar,
        NfType::PhysicalServer,
    ];

    /// Short lowercase name used in inventories and model comments.
    pub fn name(self) -> &'static str {
        match self {
            NfType::ENodeB => "enodeb",
            NfType::GNodeB => "gnodeb",
            NfType::Siad => "siad",
            NfType::TransportSwitch => "transport_switch",
            NfType::CoreRouter => "core_router",
            NfType::Mme => "mme",
            NfType::SPGateway => "sp_gateway",
            NfType::VceRouter => "vce_router",
            NfType::VGateway => "vgateway",
            NfType::Portal => "portal",
            NfType::Vvig => "vvig",
            NfType::Cpe => "cpe",
            NfType::Vcom => "vcom",
            NfType::Vrar => "vrar",
            NfType::PhysicalServer => "physical_server",
        }
    }
}

impl fmt::Display for NfType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_is_in_declaration_order() {
        for (i, nf) in NfType::ALL.iter().enumerate() {
            assert_eq!(*nf as usize, i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = NfType::ALL.iter().map(|t| t.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), NfType::ALL.len());
    }
}
