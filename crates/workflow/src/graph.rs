//! The workflow graph structure.
//!
//! "The building blocks serve as the nodes and the connections between
//! pairs of blocks serve as the edges of the graph" (§3.2). Decisions are
//! exclusive gateways branching on a boolean variable in the workflow's
//! global state; variables flow between blocks through that state.
//!
//! [`Workflow::to_json`] / [`Workflow::from_json`] are the one codec for
//! the graph: the bytes of a WAR payload (DESIGN.md § JSON has the layout).

use cornet_types::json::{parse, JsonValue, JsonWriter};
use cornet_types::{CornetError, ParamType, Result};

/// Node handle inside one workflow.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Vector index of the node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a workflow node does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// Entry point (exactly one per workflow).
    Start,
    /// Terminal point (at least one per workflow).
    End,
    /// Execute a building block from the catalog.
    Task {
        /// Catalog block name.
        block: String,
    },
    /// Exclusive gateway branching on a boolean global-state variable.
    Decision {
        /// Variable consulted for the branch.
        variable: String,
    },
}

/// One node of the workflow graph.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkflowNode {
    /// Handle of the node.
    pub id: NodeId,
    /// Display label (defaults to the block name for tasks).
    pub label: String,
    /// Node behaviour.
    pub kind: NodeKind,
}

/// Directed edge; decision out-edges carry a boolean guard.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkflowEdge {
    /// Source node.
    pub from: NodeId,
    /// Target node.
    pub to: NodeId,
    /// Guard: `Some(true)` = "yes" branch, `Some(false)` = "no" branch,
    /// `None` = unconditional.
    pub guard: Option<bool>,
}

/// Declared parameter of the workflow itself (its start inputs / end
/// outputs), e.g. Fig. 4's `(node, software_version) → status`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkflowParam {
    /// Parameter name in the global state.
    pub name: String,
    /// Parameter type.
    pub ty: ParamType,
}

/// A change workflow (the paper's MOP as a graph).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Workflow {
    /// Workflow name, e.g. `"software_upgrade_v2"`.
    pub name: String,
    /// Nodes in insertion order; `NodeId` indexes this vector.
    pub nodes: Vec<WorkflowNode>,
    /// Directed edges.
    pub edges: Vec<WorkflowEdge>,
    /// Input parameters the dispatcher must supply.
    pub inputs: Vec<WorkflowParam>,
    /// Output parameters the workflow promises to produce.
    pub outputs: Vec<WorkflowParam>,
    /// Optional backout subgraph — the paper's MOPs carry explicit
    /// backout steps. On a permanent block failure the engine executes
    /// this workflow over the instance's current global state and reports
    /// the instance as rolled back when it completes.
    pub backout: Option<Box<Workflow>>,
}

impl Workflow {
    /// Empty workflow with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Workflow {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Append a node.
    pub fn add_node(&mut self, label: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(WorkflowNode {
            id,
            label: label.into(),
            kind,
        });
        id
    }

    /// Append an edge.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, guard: Option<bool>) {
        self.edges.push(WorkflowEdge { from, to, guard });
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &WorkflowNode {
        &self.nodes[id.index()]
    }

    /// The unique start node, if the workflow has exactly one.
    pub fn start(&self) -> Option<NodeId> {
        let mut starts = self.nodes.iter().filter(|n| n.kind == NodeKind::Start);
        match (starts.next(), starts.next()) {
            (Some(s), None) => Some(s.id),
            _ => None,
        }
    }

    /// Outgoing edges of a node.
    pub fn out_edges(&self, id: NodeId) -> impl Iterator<Item = &WorkflowEdge> {
        self.edges.iter().filter(move |e| e.from == id)
    }

    /// Incoming edges of a node.
    pub fn in_edges(&self, id: NodeId) -> impl Iterator<Item = &WorkflowEdge> {
        self.edges.iter().filter(move |e| e.to == id)
    }

    /// Names of catalog blocks used by the workflow, in node order.
    pub fn blocks(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Task { block } => Some(block.as_str()),
                _ => None,
            })
            .collect()
    }

    /// Designate the backout subgraph executed on permanent failure.
    pub fn set_backout(&mut self, backout: Workflow) {
        self.backout = Some(Box::new(backout));
    }

    /// Nodes reachable from the start by BFS (guards ignored).
    pub fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let Some(start) = self.start() else {
            return seen;
        };
        let mut queue = std::collections::VecDeque::from([start]);
        seen[start.index()] = true;
        while let Some(cur) = queue.pop_front() {
            for e in self.out_edges(cur) {
                if !seen[e.to.index()] {
                    seen[e.to.index()] = true;
                    queue.push_back(e.to);
                }
            }
        }
        seen
    }
}

impl Workflow {
    /// The workflow as one compact JSON document. Equal workflows give
    /// equal text, so a digest of it identifies the workflow.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut JsonWriter::compact(&mut out));
        out
    }

    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.begin_object().key("name").str(&self.name);
        w.key("nodes").begin_array();
        for n in &self.nodes {
            w.begin_object().key("id").int(n.id.0);
            w.key("label").str(&n.label);
            match &n.kind {
                NodeKind::Start => w.key("kind").str("start"),
                NodeKind::End => w.key("kind").str("end"),
                NodeKind::Task { block } => w.key("kind").str("task").key("block").str(block),
                NodeKind::Decision { variable } => {
                    w.key("kind").str("decision").key("variable").str(variable)
                }
            };
            w.end_object();
        }
        w.end_array().key("edges").begin_array();
        for e in &self.edges {
            w.begin_object()
                .key("from")
                .int(e.from.0)
                .key("to")
                .int(e.to.0);
            if let Some(guard) = e.guard {
                w.key("guard").bool(guard);
            }
            w.end_object();
        }
        w.end_array();
        for (key, params) in [("inputs", &self.inputs), ("outputs", &self.outputs)] {
            w.key(key).begin_array();
            for p in params {
                w.begin_object().key("name").str(&p.name);
                w.key("ty").str(p.ty.label()).end_object();
            }
            w.end_array();
        }
        if let Some(backout) = &self.backout {
            w.key("backout");
            backout.write_json(w);
        }
        w.end_object();
    }

    /// Read a document written by [`Workflow::to_json`]. The text is
    /// outside input: anything that is not such a document is a
    /// [`CornetError::Parse`], and so is a graph the engine could not
    /// index — node ids that do not count up from 0, or an edge endpoint
    /// that names no node. Nesting of `backout` is bounded by the JSON
    /// reader's depth limit.
    pub fn from_json(text: &str) -> Result<Workflow> {
        Workflow::from_value(&parse(text)?)
    }

    fn from_value(doc: &JsonValue) -> Result<Workflow> {
        let mut wf = Workflow::new(req_str(doc, "name")?);
        for (i, n) in req_array(doc, "nodes")?.iter().enumerate() {
            if n.get("id").and_then(JsonValue::as_f64) != Some(i as f64) {
                return Err(bad(format!("node {i}: ids must count up from 0")));
            }
            let kind = match req_str(n, "kind")? {
                "start" => NodeKind::Start,
                "end" => NodeKind::End,
                "task" => NodeKind::Task {
                    block: req_str(n, "block")?.to_owned(),
                },
                "decision" => NodeKind::Decision {
                    variable: req_str(n, "variable")?.to_owned(),
                },
                other => return Err(bad(format!("node {i}: unknown kind '{other}'"))),
            };
            wf.add_node(req_str(n, "label")?, kind);
        }
        for e in req_array(doc, "edges")? {
            let endpoint = |key: &str| {
                e.get(key)
                    .and_then(JsonValue::as_f64)
                    .filter(|n| n.fract() == 0.0 && (0.0..wf.nodes.len() as f64).contains(n))
                    .map(|n| NodeId(n as u32))
                    .ok_or_else(|| bad(format!("edge '{key}' must name one of the nodes")))
            };
            let guard = match e.get("guard") {
                None => None,
                Some(JsonValue::Bool(b)) => Some(*b),
                Some(_) => return Err(bad("edge 'guard' must be true or false")),
            };
            let (from, to) = (endpoint("from")?, endpoint("to")?);
            wf.add_edge(from, to, guard);
        }
        for (key, params) in [("inputs", &mut wf.inputs), ("outputs", &mut wf.outputs)] {
            for p in req_array(doc, key)? {
                let ty = req_str(p, "ty")?;
                params.push(WorkflowParam {
                    name: req_str(p, "name")?.to_owned(),
                    ty: ParamType::parse(ty)
                        .ok_or_else(|| bad(format!("unknown parameter type '{ty}'")))?,
                });
            }
        }
        if let Some(backout) = doc.get("backout") {
            wf.set_backout(Workflow::from_value(backout)?);
        }
        Ok(wf)
    }
}

fn bad(msg: impl std::fmt::Display) -> CornetError {
    CornetError::Parse(format!("workflow document: {msg}"))
}

fn req_str<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a str> {
    obj.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(format!("needs a string '{key}'")))
}

fn req_array<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a [JsonValue]> {
    obj.get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| bad(format!("needs an array '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_small_graph() {
        let mut wf = Workflow::new("t");
        let s = wf.add_node("start", NodeKind::Start);
        let t = wf.add_node(
            "hc",
            NodeKind::Task {
                block: "health_check".into(),
            },
        );
        let e = wf.add_node("end", NodeKind::End);
        wf.add_edge(s, t, None);
        wf.add_edge(t, e, None);
        assert_eq!(wf.start(), Some(s));
        assert_eq!(wf.out_edges(t).count(), 1);
        assert_eq!(wf.in_edges(t).count(), 1);
        assert_eq!(wf.blocks(), vec!["health_check"]);
    }

    #[test]
    fn two_starts_is_ambiguous() {
        let mut wf = Workflow::new("t");
        wf.add_node("s1", NodeKind::Start);
        wf.add_node("s2", NodeKind::Start);
        assert_eq!(wf.start(), None);
    }

    #[test]
    fn reachability_skips_orphans() {
        let mut wf = Workflow::new("t");
        let s = wf.add_node("start", NodeKind::Start);
        let a = wf.add_node("a", NodeKind::Task { block: "x".into() });
        let orphan = wf.add_node("zombie", NodeKind::Task { block: "y".into() });
        let e = wf.add_node("end", NodeKind::End);
        wf.add_edge(s, a, None);
        wf.add_edge(a, e, None);
        let r = wf.reachable();
        assert!(r[s.index()] && r[a.index()] && r[e.index()]);
        assert!(!r[orphan.index()]);
    }

    #[test]
    fn json_round_trip_and_layout() {
        let mut wf = Workflow::new("t\"1");
        let s = wf.add_node("start", NodeKind::Start);
        let d = wf.add_node(
            "ok?",
            NodeKind::Decision {
                variable: "healthy".into(),
            },
        );
        wf.add_edge(s, d, None);
        wf.add_edge(d, s, Some(false));
        wf.inputs.push(WorkflowParam {
            name: "node".into(),
            ty: ParamType::String,
        });
        let mut backout = Workflow::new("undo");
        backout.add_node("rb", NodeKind::Task { block: "x".into() });
        backout.add_node("end", NodeKind::End);
        wf.set_backout(backout);
        let json = wf.to_json();
        assert_eq!(
            json,
            concat!(
                r#"{"name":"t\"1","nodes":[{"id":0,"label":"start","kind":"start"},"#,
                r#"{"id":1,"label":"ok?","kind":"decision","variable":"healthy"}],"#,
                r#""edges":[{"from":0,"to":1},{"from":1,"to":0,"guard":false}],"#,
                r#""inputs":[{"name":"node","ty":"string"}],"outputs":[],"#,
                r#""backout":{"name":"undo","nodes":[{"id":0,"label":"rb","kind":"task","block":"x"},"#,
                r#"{"id":1,"label":"end","kind":"end"}],"edges":[],"inputs":[],"outputs":[]}}"#,
            )
        );
        assert_eq!(Workflow::from_json(&json).unwrap(), wf);
    }
}
