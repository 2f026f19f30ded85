//! Simulated VNF testbed.
//!
//! §4.1 runs CORNET against "a testbed of virtualized network functions"
//! instantiated with OpenStack; building-block implementations were vendor
//! CLI scripts and Ansible playbooks. Our testbed holds the same observable
//! state those scripts touch — software version, health, traffic position,
//! configuration — behind a thread-safe API, with fault injection for the
//! §5.1 failure modes (SSH connectivity loss during deployment).

use crate::rng::seeded;
use cornet_types::{CornetError, NfType, Result};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Fault-injection knobs (the smoltcp examples' `--drop-chance` spirit).
#[derive(Clone, Debug, PartialEq)]
pub struct TestbedConfig {
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Probability that a management-plane operation fails with an SSH
    /// connectivity error (§5.1 observed exactly this in production).
    pub ssh_failure_rate: f64,
    /// Probability a node reports unhealthy at health-check time.
    pub unhealthy_rate: f64,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            seed: 1,
            ssh_failure_rate: 0.0,
            unhealthy_rate: 0.0,
        }
    }
}

/// Observable state of one VNF instance.
#[derive(Clone, Debug, PartialEq)]
pub struct VnfState {
    /// Instance name (matches the inventory record name).
    pub name: String,
    /// NF type.
    pub nf_type: NfType,
    /// Currently running software version.
    pub sw_version: String,
    /// Live/operational flag.
    pub healthy: bool,
    /// Whether traffic has been migrated away.
    pub traffic_redirected: bool,
    /// Applied configuration keys.
    pub config: BTreeMap<String, String>,
    /// Number of reboots the instance has taken.
    pub reboots: u32,
}

struct Inner {
    vnfs: BTreeMap<String, VnfState>,
    rng: StdRng,
    config: TestbedConfig,
    /// Log of management operations, for test assertions and fall-out
    /// troubleshooting (§3.4's fine-grained logging feeds off this).
    ops_log: Vec<String>,
}

/// Thread-safe simulated testbed.
#[derive(Clone)]
pub struct Testbed {
    inner: Arc<Mutex<Inner>>,
}

impl Testbed {
    /// Empty testbed with fault-injection config.
    pub fn new(config: TestbedConfig) -> Self {
        let rng = seeded(config.seed);
        Testbed {
            inner: Arc::new(Mutex::new(Inner {
                vnfs: BTreeMap::new(),
                rng,
                config,
                ops_log: Vec::new(),
            })),
        }
    }

    /// Instantiate a VNF (the OpenStack "boot" step).
    pub fn instantiate(&self, name: &str, nf_type: NfType, sw_version: &str) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.vnfs.insert(
            name.to_owned(),
            VnfState {
                name: name.to_owned(),
                nf_type,
                sw_version: sw_version.to_owned(),
                healthy: true,
                traffic_redirected: false,
                config: BTreeMap::new(),
                reboots: 0,
            },
        );
        inner
            .ops_log
            .push(format!("instantiate {name} {sw_version}"));
    }

    /// Snapshot of one VNF's state.
    pub fn state(&self, name: &str) -> Option<VnfState> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .vnfs
            .get(name)
            .cloned()
    }

    /// Number of instantiated VNFs.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .vnfs
            .len()
    }

    /// True when the testbed holds no VNFs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of the management-operation log.
    pub fn ops_log(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .ops_log
            .clone()
    }

    fn with_vnf<T>(
        &self,
        name: &str,
        op: &str,
        f: impl FnOnce(&mut VnfState) -> Result<T>,
    ) -> Result<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        // Fault injection happens at the management plane, before the
        // operation reaches the instance.
        let fail = inner.config.ssh_failure_rate > 0.0 && {
            let rate = inner.config.ssh_failure_rate;
            inner.rng.random_bool(rate)
        };
        if fail {
            inner
                .ops_log
                .push(format!("{op} {name} FAILED ssh_connectivity"));
            // Connectivity loss is §5.1's canonical *transient* fault —
            // classified so retry policies know it is worth another try.
            return Err(CornetError::TransientFailure(format!(
                "ssh connectivity lost reaching {name} during {op}"
            )));
        }
        inner.ops_log.push(format!("{op} {name}"));
        let vnf = inner
            .vnfs
            .get_mut(name)
            .ok_or_else(|| CornetError::UnknownReference(format!("no VNF named {name}")))?;
        f(vnf)
    }

    /// Health check; may report an injected unhealthy state.
    pub fn health_check(&self, name: &str) -> Result<bool> {
        let flap = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            let rate = inner.config.unhealthy_rate;
            rate > 0.0 && inner.rng.random_bool(rate)
        };
        self.with_vnf(name, "health_check", |v| {
            if flap {
                v.healthy = false;
            }
            Ok(v.healthy)
        })
    }

    /// Upgrade to `version`; returns the previous version. Requires the
    /// instance to be healthy (the workflow's health check gates this).
    pub fn software_upgrade(&self, name: &str, version: &str) -> Result<String> {
        self.with_vnf(name, "software_upgrade", |v| {
            if !v.healthy {
                return Err(CornetError::ExecutionFailed(format!(
                    "{name} is unhealthy; refusing upgrade"
                )));
            }
            let prev = std::mem::replace(&mut v.sw_version, version.to_owned());
            v.reboots += 1;
            Ok(prev)
        })
    }

    /// Roll back to a previous version.
    pub fn roll_back(&self, name: &str, version: &str) -> Result<()> {
        self.with_vnf(name, "roll_back", |v| {
            v.sw_version = version.to_owned();
            v.reboots += 1;
            Ok(())
        })
    }

    /// Migrate traffic away.
    pub fn traffic_redirect(&self, name: &str) -> Result<()> {
        self.with_vnf(name, "traffic_redirect", |v| {
            v.traffic_redirected = true;
            Ok(())
        })
    }

    /// Bring traffic back.
    pub fn traffic_restore(&self, name: &str) -> Result<()> {
        self.with_vnf(name, "traffic_restore", |v| {
            v.traffic_redirected = false;
            Ok(())
        })
    }

    /// Apply configuration keys; returns the previous values of the keys
    /// that changed.
    pub fn config_change(
        &self,
        name: &str,
        changes: &BTreeMap<String, String>,
    ) -> Result<BTreeMap<String, String>> {
        self.with_vnf(name, "config_change", |v| {
            let mut previous = BTreeMap::new();
            for (k, val) in changes {
                if let Some(old) = v.config.insert(k.clone(), val.clone()) {
                    previous.insert(k.clone(), old);
                }
            }
            Ok(previous)
        })
    }

    /// Force a health state (tests and failure-scenario setup).
    pub fn set_healthy(&self, name: &str, healthy: bool) {
        if let Some(v) = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .vnfs
            .get_mut(name)
        {
            v.healthy = healthy;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bed() -> Testbed {
        let t = Testbed::new(TestbedConfig::default());
        t.instantiate("vce-0001", NfType::VceRouter, "16.9");
        t
    }

    #[test]
    fn upgrade_and_rollback_cycle() {
        let t = bed();
        assert!(t.health_check("vce-0001").unwrap());
        let prev = t.software_upgrade("vce-0001", "17.3").unwrap();
        assert_eq!(prev, "16.9");
        assert_eq!(t.state("vce-0001").unwrap().sw_version, "17.3");
        assert_eq!(t.state("vce-0001").unwrap().reboots, 1);
        t.roll_back("vce-0001", &prev).unwrap();
        assert_eq!(t.state("vce-0001").unwrap().sw_version, "16.9");
        assert_eq!(t.state("vce-0001").unwrap().reboots, 2);
    }

    #[test]
    fn unhealthy_instance_refuses_upgrade() {
        let t = bed();
        t.set_healthy("vce-0001", false);
        assert!(t.software_upgrade("vce-0001", "17.3").is_err());
        assert_eq!(t.state("vce-0001").unwrap().sw_version, "16.9", "unchanged");
    }

    #[test]
    fn traffic_cycle() {
        let t = bed();
        t.traffic_redirect("vce-0001").unwrap();
        assert!(t.state("vce-0001").unwrap().traffic_redirected);
        t.traffic_restore("vce-0001").unwrap();
        assert!(!t.state("vce-0001").unwrap().traffic_redirected);
    }

    #[test]
    fn config_change_returns_previous() {
        let t = bed();
        let mut c1 = BTreeMap::new();
        c1.insert("mtu".to_string(), "1500".to_string());
        assert!(t.config_change("vce-0001", &c1).unwrap().is_empty());
        let mut c2 = BTreeMap::new();
        c2.insert("mtu".to_string(), "9000".to_string());
        let prev = t.config_change("vce-0001", &c2).unwrap();
        assert_eq!(prev["mtu"], "1500");
    }

    #[test]
    fn unknown_vnf_is_an_error() {
        let t = bed();
        assert!(t.health_check("ghost").is_err());
    }

    #[test]
    fn ssh_fault_injection_fails_sometimes() {
        let t = Testbed::new(TestbedConfig {
            seed: 7,
            ssh_failure_rate: 0.5,
            unhealthy_rate: 0.0,
        });
        t.instantiate("vgw-00", NfType::VGateway, "3.2");
        let mut failures = 0;
        for _ in 0..100 {
            if t.traffic_redirect("vgw-00").is_err() {
                failures += 1;
            }
        }
        assert!(
            (25..=75).contains(&failures),
            "≈50% expected, got {failures}"
        );
        assert!(t
            .ops_log()
            .iter()
            .any(|l| l.contains("FAILED ssh_connectivity")));
    }

    #[test]
    fn testbed_is_shareable_across_threads() {
        let t = bed();
        let t2 = t.clone();
        let h = std::thread::spawn(move || t2.software_upgrade("vce-0001", "18.0").unwrap());
        h.join().unwrap();
        assert_eq!(t.state("vce-0001").unwrap().sw_version, "18.0");
    }
}
