//! Building-block metadata.
//!
//! A building block (BB) "is defined using an input/output parameter list,
//! and has a REST API. Its meta-data (API location, input/output parameter
//! definitions) is stored in our catalog" (§3.1).

use cornet_types::ParamType;
use std::fmt;

/// Change-management phase a building block belongs to (Table 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Design and orchestration of change workflows.
    DesignOrchestration,
    /// Change schedule planning.
    SchedulePlanning,
    /// Change impact verification.
    ImpactVerification,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::DesignOrchestration => "design_orchestration",
            Phase::SchedulePlanning => "schedule_planning",
            Phase::ImpactVerification => "impact_verification",
        })
    }
}

/// One named, typed parameter of a building block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParamSpec {
    /// Parameter name, e.g. `"node"` or `"software_version"`.
    pub name: String,
    /// Static type used for composition checking in the designer.
    pub ty: ParamType,
}

impl ParamSpec {
    /// Construct a parameter spec.
    pub fn new(name: impl Into<String>, ty: ParamType) -> Self {
        Self {
            name: name.into(),
            ty,
        }
    }
}

/// REST endpoint descriptor — the "API location" of a block.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestEndpoint {
    /// HTTP method (the catalog only needs POST/GET in practice).
    pub method: String,
    /// URL path template, e.g. `"/bb/health_check"`.
    pub path: String,
}

impl RestEndpoint {
    /// Standard endpoint under `/bb/{name}`.
    pub fn for_block(name: &str) -> Self {
        Self {
            method: "POST".into(),
            path: format!("/bb/{name}"),
        }
    }
}

/// A dimension of per-node network state a building block can read or
/// mutate.
///
/// The static effect system (CN06xx) tracks block effects as
/// `(node scope × state dimension)` pairs: a software upgrade writes the
/// node's *version*, a config push its *configuration*, traffic moves its
/// *routing*, and checks read its *health*. Two campaigns interfere when
/// their workflows touch the same dimension of the same node in
/// overlapping windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StateDim {
    /// Installed software version.
    Version,
    /// Applied configuration.
    Config,
    /// Traffic routing / carried load.
    Routing,
    /// Operational health and KPI readings.
    Health,
}

impl StateDim {
    /// All dimensions, used for conservative "can touch anything"
    /// assumptions about unannotated mutating blocks.
    pub const ALL: [StateDim; 4] = [
        StateDim::Version,
        StateDim::Config,
        StateDim::Routing,
        StateDim::Health,
    ];

    /// Lowercase label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            StateDim::Version => "version",
            StateDim::Config => "config",
            StateDim::Routing => "routing",
            StateDim::Health => "health",
        }
    }
}

impl fmt::Display for StateDim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Catalog entry describing one building block.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockSpec {
    /// Unique block name, e.g. `"health_check"`.
    pub name: String,
    /// Phase the block serves.
    pub phase: Phase,
    /// One-line description (Table 2's "Function" column).
    pub function: String,
    /// Whether one implementation serves every network-function type.
    pub nf_agnostic: bool,
    /// Whether the block mutates network state (upgrades, config pushes,
    /// traffic moves). Mutating blocks are what backout flows must cover;
    /// read-only blocks (health checks, comparisons, analytics) need no
    /// revert path. Consumed by the `CN02xx` backout-coverage analysis.
    pub mutates: bool,
    /// Whether re-executing the block after a partial run converges to the
    /// same end state (e.g. an upgrade that checks the installed version
    /// first). Idempotent mutating blocks are safe to re-run after a crash
    /// without a backout flow; non-idempotent ones need one. Consumed by
    /// the `CN0306` replay-safety analysis.
    pub idempotent: bool,
    /// State dimensions of the target node the block reads (health
    /// checks, pre/post comparisons). Consumed by the CN06xx effect
    /// system to detect read-write interference across campaigns.
    pub reads: Vec<StateDim>,
    /// State dimensions of the target node the block writes. A mutating
    /// block that declares no write dimensions is conservatively assumed
    /// to write all of them.
    pub writes: Vec<StateDim>,
    /// Input parameters.
    pub inputs: Vec<ParamSpec>,
    /// Output parameters.
    pub outputs: Vec<ParamSpec>,
    /// REST API location.
    pub endpoint: RestEndpoint,
}

impl BlockSpec {
    /// Construct a spec with the conventional endpoint.
    pub fn new(
        name: impl Into<String>,
        phase: Phase,
        function: impl Into<String>,
        nf_agnostic: bool,
    ) -> Self {
        let name = name.into();
        let endpoint = RestEndpoint::for_block(&name);
        Self {
            name,
            phase,
            function: function.into(),
            nf_agnostic,
            mutates: false,
            idempotent: false,
            reads: Vec::new(),
            writes: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            endpoint,
        }
    }

    /// Builder-style marker: this block mutates network state.
    pub fn mutating(mut self) -> Self {
        self.mutates = true;
        self
    }

    /// Builder-style marker: re-executing this block after a partial run
    /// converges to the same end state.
    pub fn idempotent(mut self) -> Self {
        self.idempotent = true;
        self
    }

    /// Builder-style effect annotation: the block reads `dim` of its
    /// target node.
    pub fn reads_dim(mut self, dim: StateDim) -> Self {
        self.reads.push(dim);
        self
    }

    /// Builder-style effect annotation: the block writes `dim` of its
    /// target node.
    pub fn writes_dim(mut self, dim: StateDim) -> Self {
        self.writes.push(dim);
        self
    }

    /// Builder-style input parameter.
    pub fn input(mut self, name: &str, ty: ParamType) -> Self {
        self.inputs.push(ParamSpec::new(name, ty));
        self
    }

    /// Builder-style output parameter.
    pub fn output(mut self, name: &str, ty: ParamType) -> Self {
        self.outputs.push(ParamSpec::new(name, ty));
        self
    }

    /// Look up an output parameter's type.
    pub fn output_type(&self, name: &str) -> Option<ParamType> {
        self.outputs.iter().find(|p| p.name == name).map(|p| p.ty)
    }

    /// Look up an input parameter's type.
    pub fn input_type(&self, name: &str) -> Option<ParamType> {
        self.inputs.iter().find(|p| p.name == name).map(|p| p.ty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_lookup() {
        let b = BlockSpec::new(
            "health_check",
            Phase::DesignOrchestration,
            "verify status",
            false,
        )
        .input("node", ParamType::String)
        .output("healthy", ParamType::Bool);
        assert_eq!(b.endpoint.path, "/bb/health_check");
        assert_eq!(b.endpoint.method, "POST");
        assert_eq!(b.input_type("node"), Some(ParamType::String));
        assert_eq!(b.output_type("healthy"), Some(ParamType::Bool));
        assert_eq!(b.output_type("nope"), None);
    }

    #[test]
    fn phase_display() {
        assert_eq!(Phase::SchedulePlanning.to_string(), "schedule_planning");
    }
}
