//! Fluent workflow construction.
//!
//! The paper's designer is a graphical BPMN editor; its programmatic core
//! is "pick blocks from the catalog, wire them, declare workflow inputs and
//! outputs". `Designer` is that core: it checks block names against the
//! catalog at insertion time so typos fail at design time, not run time.

use crate::graph::{NodeId, NodeKind, Workflow, WorkflowParam};
use cornet_catalog::Catalog;
use cornet_types::{CornetError, ParamType, Result};

/// Incremental workflow builder bound to a catalog.
pub struct Designer<'a> {
    catalog: &'a Catalog,
    wf: Workflow,
    start: NodeId,
}

impl<'a> Designer<'a> {
    /// Start designing a workflow; a start node is created implicitly.
    pub fn new(catalog: &'a Catalog, name: impl Into<String>) -> Self {
        let mut wf = Workflow::new(name);
        let start = wf.add_node("start", NodeKind::Start);
        Designer { catalog, wf, start }
    }

    /// The implicit start node.
    pub fn start(&self) -> NodeId {
        self.start
    }

    /// Declare a workflow input parameter.
    pub fn input(&mut self, name: &str, ty: ParamType) -> &mut Self {
        self.wf.inputs.push(WorkflowParam {
            name: name.into(),
            ty,
        });
        self
    }

    /// Declare a workflow output parameter.
    pub fn output(&mut self, name: &str, ty: ParamType) -> &mut Self {
        self.wf.outputs.push(WorkflowParam {
            name: name.into(),
            ty,
        });
        self
    }

    /// Add a task node running a catalog block. Fails on unknown blocks.
    pub fn task(&mut self, block: &str) -> Result<NodeId> {
        if self.catalog.get(block).is_none() {
            return Err(CornetError::UnknownReference(format!(
                "building block '{block}' is not in the catalog"
            )));
        }
        Ok(self.wf.add_node(
            block,
            NodeKind::Task {
                block: block.into(),
            },
        ))
    }

    /// Add a decision gateway on a boolean state variable.
    pub fn decision(&mut self, variable: &str) -> NodeId {
        self.wf.add_node(
            format!("{variable}?"),
            NodeKind::Decision {
                variable: variable.into(),
            },
        )
    }

    /// Add an end node.
    pub fn end(&mut self) -> NodeId {
        self.wf.add_node("end", NodeKind::End)
    }

    /// Unconditional edge.
    pub fn connect(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        self.wf.add_edge(from, to, None);
        self
    }

    /// Guarded edge out of a decision node.
    pub fn connect_if(&mut self, from: NodeId, to: NodeId, guard: bool) -> &mut Self {
        self.wf.add_edge(from, to, Some(guard));
        self
    }

    /// Designate an explicitly designed backout subgraph, executed by the
    /// engine on permanent failure (MOPs carry backout steps).
    pub fn backout(&mut self, backout: Workflow) -> &mut Self {
        self.wf.set_backout(backout);
        self
    }

    /// Convenience: designate a linear backout flow running the given
    /// catalog blocks in order. Fails on unknown blocks, like [`task`].
    ///
    /// [`task`]: Designer::task
    pub fn backout_sequence(&mut self, blocks: &[&str]) -> Result<&mut Self> {
        let mut d = Designer::new(self.catalog, format!("{}-backout", self.wf.name));
        let mut prev = d.start();
        for block in blocks {
            let t = d.task(block)?;
            d.connect(prev, t);
            prev = t;
        }
        let end = d.end();
        d.connect(prev, end);
        self.wf.set_backout(d.build());
        Ok(self)
    }

    /// Finish, returning the workflow (unvalidated — run
    /// [`crate::validate::analyze`] before deployment).
    pub fn build(self) -> Workflow {
        self.wf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_catalog::builtin_catalog;

    #[test]
    fn designer_builds_linear_flow() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "linear");
        d.input("node", ParamType::String);
        let start = d.start();
        let hc = d.task("health_check").unwrap();
        let end = d.end();
        d.connect(start, hc).connect(hc, end);
        let wf = d.build();
        assert_eq!(wf.nodes.len(), 3);
        assert_eq!(wf.blocks(), vec!["health_check"]);
        assert_eq!(wf.inputs.len(), 1);
    }

    #[test]
    fn unknown_block_rejected_at_design_time() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "typo");
        assert!(d.task("helth_check").is_err());
    }

    #[test]
    fn decision_labels() {
        let cat = builtin_catalog();
        let mut d = Designer::new(&cat, "dec");
        let dec = d.decision("healthy");
        let wf = d.build();
        assert_eq!(wf.node(dec).label, "healthy?");
        assert!(
            matches!(&wf.node(dec).kind, NodeKind::Decision { variable } if variable == "healthy")
        );
    }
}
