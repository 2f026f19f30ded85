//! WAR artifact generation.
//!
//! "We take the BPMN graphical layout with building blocks captured using
//! the corresponding REST APIs and then dynamically create the WAR file
//! which is the meta-code stitching of the different building blocks into a
//! workflow. … The WAR can then be referenced using a dynamically generated
//! REST API for the newly created change workflow" (§3.2).
//!
//! Our WAR is a manifest (workflow name, version digest, block → endpoint
//! table, the REST path for invoking the workflow) plus the graph as the
//! JSON document of [`Workflow::to_json`] — the artifact the orchestrator
//! deploys. The digest is a function of those bytes alone, so a workflow
//! has the same identity in every process.

use crate::graph::Workflow;
use crate::validate::require_valid;
use cornet_catalog::Catalog;
use cornet_types::hash::fnv1a64;
use cornet_types::{CornetError, Result};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Manifest describing one deployable workflow artifact.
#[derive(Clone, Debug, PartialEq)]
pub struct WarManifest {
    /// Workflow name.
    pub workflow: String,
    /// Content digest of the payload bytes (FNV-1a, hex).
    pub digest: String,
    /// REST path registered for launching this workflow.
    pub rest_api: String,
    /// Block name → REST endpoint path used during execution.
    pub block_endpoints: BTreeMap<String, String>,
}

/// A packaged workflow: manifest + the graph's JSON document.
#[derive(Clone, Debug, PartialEq)]
pub struct WarArtifact {
    /// Deployment manifest.
    pub manifest: WarManifest,
    /// The workflow document, UTF-8 (shared: dispatchers clone artifacts).
    pub payload: Arc<[u8]>,
}

impl WarArtifact {
    /// Validate and package a workflow. Fails if [`crate::validate::analyze`]
    /// reports any error-severity diagnostic — unverified workflows never
    /// reach the orchestrator (warnings do not block packaging).
    pub fn package(wf: &Workflow, catalog: &Catalog) -> Result<WarArtifact> {
        require_valid(wf, catalog)?;
        let payload = wf.to_json().into_bytes();
        let digest = format!("{:016x}", fnv1a64(&payload));
        let block_endpoints = wf
            .blocks()
            .iter()
            .filter_map(|b| {
                catalog
                    .get(b)
                    .map(|s| (s.name.clone(), s.endpoint.path.clone()))
            })
            .collect();
        let manifest = WarManifest {
            workflow: wf.name.clone(),
            rest_api: format!("/wf/{}/{digest}", wf.name),
            digest,
            block_endpoints,
        };
        Ok(WarArtifact {
            manifest,
            payload: payload.into(),
        })
    }

    /// Unpack the workflow graph from the artifact. The payload is read
    /// as outside input: a corrupt one is a [`CornetError::Parse`].
    pub fn unpack(&self) -> Result<Workflow> {
        let text = std::str::from_utf8(&self.payload)
            .map_err(|e| CornetError::Parse(format!("WAR payload is not UTF-8: {e}")))?;
        Workflow::from_json(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builtin::software_upgrade_workflow;
    use cornet_catalog::builtin_catalog;

    #[test]
    fn package_and_unpack_round_trip() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let war = WarArtifact::package(&wf, &cat).unwrap();
        assert_eq!(war.unpack().unwrap(), wf);
        assert!(war.manifest.rest_api.starts_with("/wf/software_upgrade/"));
        assert!(war
            .manifest
            .block_endpoints
            .contains_key("software_upgrade"));
        assert_eq!(
            war.manifest.block_endpoints["health_check"],
            "/bb/health_check"
        );
    }

    #[test]
    fn digest_changes_with_content() {
        let cat = builtin_catalog();
        let wf1 = software_upgrade_workflow(&cat);
        let mut wf2 = wf1.clone();
        wf2.name = "software_upgrade_v2".into();
        let d1 = WarArtifact::package(&wf1, &cat).unwrap().manifest.digest;
        let d2 = WarArtifact::package(&wf2, &cat).unwrap().manifest.digest;
        assert_ne!(d1, d2);
    }

    #[test]
    fn invalid_workflow_refuses_to_package() {
        let cat = builtin_catalog();
        let wf = Workflow::new("broken");
        assert!(WarArtifact::package(&wf, &cat).is_err());
    }

    #[test]
    fn outstanding_error_diagnostics_block_packaging() {
        // A structurally sound workflow that the deep dataflow pass
        // rejects (CN0207: a branch-merge type conflict) must not package;
        // warning-only findings (no backout coverage) must still package.
        use crate::designer::Designer;
        use cornet_catalog::{BlockSpec, Catalog, Phase};
        use cornet_types::ParamType;

        let build = |b_ty: ParamType| {
            let mut cat = Catalog::new();
            cat.register(
                BlockSpec::new("probe", Phase::DesignOrchestration, "p", true)
                    .input("node", ParamType::String)
                    .output("ready", ParamType::Bool),
            );
            cat.register(
                BlockSpec::new("branch_a", Phase::DesignOrchestration, "a", true)
                    .input("node", ParamType::String)
                    .output("result", ParamType::Int),
            );
            cat.register(
                BlockSpec::new("branch_b", Phase::DesignOrchestration, "b", true)
                    .mutating()
                    .input("node", ParamType::String)
                    .output("result", b_ty),
            );
            cat.register(
                BlockSpec::new("consume", Phase::DesignOrchestration, "c", true)
                    .input("result", ParamType::Int),
            );
            let mut d = Designer::new(&cat, "diamond");
            d.input("node", ParamType::String);
            let start = d.start();
            let probe = d.task("probe").unwrap();
            let dec = d.decision("ready");
            let a = d.task("branch_a").unwrap();
            let b = d.task("branch_b").unwrap();
            let c = d.task("consume").unwrap();
            let end = d.end();
            d.connect(start, probe)
                .connect(probe, dec)
                .connect_if(dec, a, true)
                .connect_if(dec, b, false)
                .connect(a, c)
                .connect(b, c)
                .connect(c, end);
            (d.build(), cat)
        };

        let (wf, cat) = build(ParamType::Map);
        let err = WarArtifact::package(&wf, &cat).unwrap_err();
        assert!(err.to_string().contains("conflicting types"), "{err}");

        // Corrected twin: types agree; only warnings remain (branch_b is
        // mutating with no backout flow) and packaging succeeds.
        let (wf, cat) = build(ParamType::Int);
        let report = crate::validate::analyze(&wf, &cat);
        assert!(report.warning_count() > 0, "{}", report.render_text());
        assert!(WarArtifact::package(&wf, &cat).is_ok());
    }

    #[test]
    fn packaging_is_deterministic() {
        let cat = builtin_catalog();
        let wf = software_upgrade_workflow(&cat);
        let a = WarArtifact::package(&wf, &cat).unwrap();
        let b = WarArtifact::package(&wf, &cat).unwrap();
        assert_eq!(a.manifest.digest, b.manifest.digest);
        assert_eq!(a.payload, b.payload);
    }
}
