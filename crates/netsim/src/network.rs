//! Network hierarchy generator.
//!
//! Produces the inventory + topology substrate the planner and verifier
//! consume. The radio hierarchy follows Appendix C's footnotes: a *market*
//! consists of TACs (tracking area codes), a TAC of USIDs (cell sites), and
//! a USID of co-located eNodeB/gNodeB towers; every USID's base stations
//! hang off a common SIAD switch (§5.3), and markets sit inside timezones.
//! The cloud side follows Appendix A: VPN (vCE–PE chains), SDWAN (CPE →
//! vGW → vVIG chains plus a portal per zone), all VNFs pinned to physical
//! servers for cross-layer conflict scoping (§2.2).

use crate::rng::seeded;
use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};
use rand::rngs::StdRng;
use rand::Rng;

/// Sizing knobs for the generated radio access network.
#[derive(Clone, Debug, PartialEq)]
pub struct NetworkConfig {
    /// RNG seed; equal seeds produce identical networks.
    pub seed: u64,
    /// Timezone names and UTC offsets (default: the four CONUS zones).
    pub timezones: Vec<(String, f64)>,
    /// Markets per timezone.
    pub markets_per_tz: usize,
    /// TACs per market.
    pub tacs_per_market: usize,
    /// USIDs (cell sites) per TAC.
    pub usids_per_tac: usize,
    /// Probability a USID also hosts a 5G gNodeB next to its eNodeB.
    pub gnb_probability: f64,
    /// Element management systems per timezone (nodes attach to one EMS).
    pub ems_per_tz: usize,
    /// Hardware version pool (27 radio head types in the paper; we default
    /// to a handful and let experiments override).
    pub hw_versions: Vec<String>,
    /// Software version pool.
    pub sw_versions: Vec<String>,
    /// Carrier frequencies per eNodeB (the paper has 13 carrier types;
    /// Fig. 2 plots five).
    pub carriers_per_enb: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 1,
            timezones: vec![
                ("Eastern".into(), -5.0),
                ("Central".into(), -6.0),
                ("Mountain".into(), -7.0),
                ("Pacific".into(), -8.0),
            ],
            markets_per_tz: 2,
            tacs_per_market: 3,
            usids_per_tac: 10,
            gnb_probability: 0.4,
            ems_per_tz: 2,
            hw_versions: vec!["HW-A".into(), "HW-B".into(), "HW-C".into()],
            sw_versions: vec!["19.3".into(), "20.1".into()],
            carriers_per_enb: 5,
        }
    }
}

impl NetworkConfig {
    /// Scale the hierarchy so the RAN holds roughly `target` nodes.
    pub fn with_target_nodes(mut self, target: usize) -> Self {
        // Expected nodes per USID = 1 + gnb_probability; solve for USIDs.
        let per_usid = 1.0 + self.gnb_probability;
        let usids = (target as f64 / per_usid).ceil() as usize;
        let per_tz = usids.div_ceil(self.timezones.len());
        let per_market = per_tz.div_ceil(self.markets_per_tz);
        self.usids_per_tac = per_market.div_ceil(self.tacs_per_market).max(1);
        self
    }
}

/// A generated network: inventory plus topology.
#[derive(Clone, Debug)]
pub struct Network {
    /// All network-function instances and their attributes.
    pub inventory: Inventory,
    /// Physical/logical connectivity and service chains.
    pub topology: Topology,
}

impl Network {
    /// Generate the radio access network described by `config`.
    pub fn generate_ran(config: &NetworkConfig) -> Network {
        let mut rng = seeded(config.seed);
        let mut inventory = Inventory::new();
        let mut topology = Topology::default();

        let mut usid_counter = 0usize;
        for (tz_idx, (tz_name, offset)) in config.timezones.iter().enumerate() {
            for m in 0..config.markets_per_tz {
                let market = format!("{}-M{:02}", &tz_name[..1], m);
                for t in 0..config.tacs_per_market {
                    let tac = format!("{market}-T{t:03}");
                    let mut prev_siad: Option<NodeId> = None;
                    for _ in 0..config.usids_per_tac {
                        let usid = format!("U{usid_counter:06}");
                        usid_counter += 1;
                        let ems =
                            format!("EMS-{}-{}", tz_idx, rng.random_range(0..config.ems_per_tz));
                        let hw = config.hw_versions[rng.random_range(0..config.hw_versions.len())]
                            .clone();
                        let sw = config.sw_versions[rng.random_range(0..config.sw_versions.len())]
                            .clone();

                        let base_attrs = |nf: &str| {
                            Attributes::new()
                                .with("market", market.as_str())
                                .with("tac", tac.as_str())
                                .with("usid", usid.as_str())
                                .with("ems", ems.as_str())
                                .with("timezone", tz_name.as_str())
                                .with("utc_offset", *offset)
                                .with("hw_version", hw.as_str())
                                .with("sw_version", sw.as_str())
                                .with("nf", nf)
                        };

                        // The common SIAD switch of the cell site.
                        let siad = inventory.push(
                            format!("siad-{usid}"),
                            NfType::Siad,
                            base_attrs("siad"),
                        );
                        let enb = inventory.push(
                            format!("enb-{usid}"),
                            NfType::ENodeB,
                            base_attrs("enodeb").with("carriers", config.carriers_per_enb as i64),
                        );
                        // Backhaul: SIADs of a TAC form a chain, so
                        // multi-hop neighborhoods (2nd-tier control
                        // groups) exist across cell sites.
                        if let Some(prev) = prev_siad {
                            topology.add_edge(prev, siad);
                        }
                        prev_siad = Some(siad);
                        topology.add_edge(siad, enb);
                        if rng.random_bool(config.gnb_probability) {
                            let gnb = inventory.push(
                                format!("gnb-{usid}"),
                                NfType::GNodeB,
                                base_attrs("gnodeb"),
                            );
                            topology.add_edge(siad, gnb);
                            // X2-style neighbor relation between co-located
                            // radios (used for control-group derivation).
                            topology.add_edge(enb, gnb);
                        }
                    }
                }
            }
        }
        Network {
            inventory,
            topology,
        }
    }

    /// Generate the Appendix A cloud services: `vce_count` vCE routers
    /// (VPN), `sdwan_zones` SDWAN cloud zones (each with a vGW, portal,
    /// vVIG, ToR switch, physical servers, and CPE chains), and the VoLTE
    /// core pair (vCOM, vRAR).
    pub fn generate_cloud(seed: u64, vce_count: usize, sdwan_zones: usize) -> Network {
        let mut rng = seeded(seed);
        let mut inventory = Inventory::new();
        let mut topology = Topology::default();

        // VPN: vCE routers, pairs sharing a physical server and a PE chain.
        let pe = inventory.push(
            "core-pe-0",
            NfType::CoreRouter,
            Attributes::new()
                .with("service", "vpn")
                .with("zone", "core"),
        );
        for i in 0..vce_count {
            // One physical server hosts a handful of vCEs (cross-layer
            // dependency of §2.2).
            if i % 4 == 0 {
                inventory.push(
                    format!("server-vpn-{:04}", i / 4),
                    NfType::PhysicalServer,
                    Attributes::new()
                        .with("service", "vpn")
                        .with("zone", "cloud"),
                );
            }
            let host_name = format!("server-vpn-{:04}", i / 4);
            let host = inventory
                .find_by_name(&host_name)
                .expect("host just created")
                .id;
            let vce = inventory.push(
                format!("vce-{i:04}"),
                NfType::VceRouter,
                Attributes::new()
                    .with("service", "vpn")
                    .with("zone", "cloud")
                    .with("host", host_name.as_str())
                    .with("sw_version", "16.9"),
            );
            topology.add_edge(host, vce);
            topology.add_chain(format!("vpn-chain-{i:04}"), vec![vce, pe]);
        }

        // SDWAN zones.
        for z in 0..sdwan_zones {
            let zone = format!("zone-{z}");
            let server = inventory.push(
                format!("server-sdwan-{z:02}"),
                NfType::PhysicalServer,
                Attributes::new()
                    .with("service", "sdwan")
                    .with("zone", zone.as_str()),
            );
            let tor = inventory.push(
                format!("tor-{z:02}"),
                NfType::TransportSwitch,
                Attributes::new()
                    .with("service", "sdwan")
                    .with("zone", zone.as_str()),
            );
            let mk = |name: String, nf, host: &str| {
                Attributes::new()
                    .with("service", "sdwan")
                    .with("zone", zone.as_str())
                    .with("host", host)
                    .with("sw_version", "3.2")
                    .with("name", name)
                    .with(
                        "nf",
                        match nf {
                            NfType::VGateway => "vgw",
                            NfType::Portal => "portal",
                            NfType::Vvig => "vvig",
                            _ => "other",
                        },
                    )
            };
            let host_name = format!("server-sdwan-{z:02}");
            let vgw = inventory.push(
                format!("vgw-{z:02}"),
                NfType::VGateway,
                mk(format!("vgw-{z:02}"), NfType::VGateway, &host_name),
            );
            let portal = inventory.push(
                format!("portal-{z:02}"),
                NfType::Portal,
                mk(format!("portal-{z:02}"), NfType::Portal, &host_name),
            );
            let vvig = inventory.push(
                format!("vvig-{z:02}"),
                NfType::Vvig,
                mk(format!("vvig-{z:02}"), NfType::Vvig, &host_name),
            );
            for nf in [vgw, portal, vvig] {
                topology.add_edge(server, nf);
                topology.add_edge(tor, nf);
            }
            // CPE service chains through the zone gateway.
            for c in 0..rng.random_range(2..5) {
                let cpe = inventory.push(
                    format!("cpe-{z:02}-{c:02}"),
                    NfType::Cpe,
                    Attributes::new()
                        .with("service", "sdwan")
                        .with("zone", zone.as_str()),
                );
                topology.add_chain(format!("sdwan-chain-{z}-{c}"), vec![cpe, vgw, vvig]);
            }
        }

        // VoLTE virtualized core (vCOM, vRAR) on a shared server.
        let core_server = inventory.push(
            "server-volte-00",
            NfType::PhysicalServer,
            Attributes::new()
                .with("service", "volte")
                .with("zone", "core"),
        );
        for (name, nf) in [("vcom-00", NfType::Vcom), ("vrar-00", NfType::Vrar)] {
            let v = inventory.push(
                name,
                nf,
                Attributes::new()
                    .with("service", "volte")
                    .with("zone", "core")
                    .with("host", "server-volte-00")
                    .with("sw_version", "8.1"),
            );
            topology.add_edge(core_server, v);
        }

        Network {
            inventory,
            topology,
        }
    }

    /// All node ids of a given NF type.
    pub fn nodes_of_type(&self, nf: NfType) -> Vec<NodeId> {
        self.inventory
            .iter()
            .filter(|r| r.nf_type == nf)
            .map(|r| r.id)
            .collect()
    }

    /// All radio access nodes (eNodeB + gNodeB), sorted — the standard
    /// change scope for RAN experiments.
    pub fn ran_nodes(&self) -> Vec<NodeId> {
        let mut nodes = self.nodes_of_type(NfType::ENodeB);
        nodes.extend(self.nodes_of_type(NfType::GNodeB));
        nodes.sort();
        nodes
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.inventory.len()
    }

    /// True when the network is empty.
    pub fn is_empty(&self) -> bool {
        self.inventory.is_empty()
    }
}

/// Deterministic helper: pick `n` nodes of a type, in id order.
pub fn sample_nodes(net: &Network, nf: NfType, n: usize) -> Vec<NodeId> {
    net.nodes_of_type(nf).into_iter().take(n).collect()
}

/// Reusable RNG for callers that need extra randomness tied to a network.
pub fn network_rng(config: &NetworkConfig) -> StdRng {
    seeded(config.seed ^ 0x5EED)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ran_generation_is_deterministic() {
        let cfg = NetworkConfig::default();
        let a = Network::generate_ran(&cfg);
        let b = Network::generate_ran(&cfg);
        assert_eq!(a.inventory.len(), b.inventory.len());
        let ra: Vec<_> = a.inventory.iter().map(|r| r.name.clone()).collect();
        let rb: Vec<_> = b.inventory.iter().map(|r| r.name.clone()).collect();
        assert_eq!(ra, rb);
    }

    #[test]
    fn hierarchy_counts() {
        let cfg = NetworkConfig::default();
        let net = Network::generate_ran(&cfg);
        let usids = 4 * cfg.markets_per_tz * cfg.tacs_per_market * cfg.usids_per_tac;
        assert_eq!(net.nodes_of_type(NfType::Siad).len(), usids);
        assert_eq!(net.nodes_of_type(NfType::ENodeB).len(), usids);
        let gnbs = net.nodes_of_type(NfType::GNodeB).len();
        assert!(
            gnbs > 0 && gnbs < usids,
            "gNodeBs are a strict subset of sites"
        );
        assert_eq!(
            net.inventory.distinct_values("market").len(),
            4 * cfg.markets_per_tz
        );
    }

    #[test]
    fn enb_connects_to_its_siad() {
        let net = Network::generate_ran(&NetworkConfig::default());
        let enb = net.nodes_of_type(NfType::ENodeB)[0];
        let rec = net.inventory.record(enb);
        let usid = rec.attrs.group_key("usid").unwrap();
        let siad = net
            .inventory
            .find_by_name(&format!("siad-{usid}"))
            .expect("siad exists")
            .id;
        assert!(net.topology.connected(enb, siad));
    }

    #[test]
    fn with_target_nodes_scales() {
        let cfg = NetworkConfig::default().with_target_nodes(2000);
        let net = Network::generate_ran(&cfg);
        let ran = net.nodes_of_type(NfType::ENodeB).len() + net.nodes_of_type(NfType::GNodeB).len();
        assert!(
            (1600..3200).contains(&ran),
            "target 2000 → got {ran} RAN nodes"
        );
    }

    #[test]
    fn cloud_has_appendix_a_pieces() {
        let net = Network::generate_cloud(5, 12, 3);
        assert_eq!(net.nodes_of_type(NfType::VceRouter).len(), 12);
        assert_eq!(net.nodes_of_type(NfType::VGateway).len(), 3);
        assert_eq!(net.nodes_of_type(NfType::Portal).len(), 3);
        assert_eq!(net.nodes_of_type(NfType::Vcom).len(), 1);
        assert_eq!(net.nodes_of_type(NfType::Vrar).len(), 1);
        assert!(!net.topology.chains().is_empty());
        // Every vCE sits on a host (cross-layer dependency).
        for vce in net.nodes_of_type(NfType::VceRouter) {
            let host = net.inventory.record(vce).attrs.group_key("host");
            assert!(host.is_some());
        }
    }

    #[test]
    fn timezones_have_distinct_offsets() {
        let net = Network::generate_ran(&NetworkConfig::default());
        let offsets = net.inventory.distinct_values("utc_offset");
        assert_eq!(offsets.len(), 4);
    }
}
