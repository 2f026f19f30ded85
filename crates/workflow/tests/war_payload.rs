//! A WAR payload is a JSON document and nothing else: whatever
//! `package` writes `unpack` reads back as the same workflow, the digest
//! is a function of the bytes, and bytes that are not such a document are
//! a typed error — never a panic, never a graph the engine cannot index.

use cornet_catalog::{builtin_catalog, Catalog};
use cornet_types::json::parse;
use cornet_types::{CornetError, ParamType};
use cornet_workflow::builtin::*;
use cornet_workflow::graph::WorkflowParam;
use cornet_workflow::{Designer, NodeKind, WarArtifact, WfNodeId, Workflow};
use proptest::prelude::*;
use rand::prelude::*;

fn builtins(cat: &Catalog) -> Vec<Workflow> {
    vec![
        software_upgrade_workflow(cat),
        config_change_workflow(cat),
        vce_download_workflow(cat),
        vce_activate_workflow(cat),
        sdwan_upgrade_workflow(cat),
        schedule_planning_workflow(cat),
        impact_verification_workflow(cat),
    ]
}

/// A workflow that validates by construction: a chain of stages, each a
/// `health_check` or a decision diamond on its `healthy` output, with a
/// linear backout on some.
fn staged_workflow(cat: &Catalog, rng: &mut StdRng) -> Workflow {
    let mut d = Designer::new(cat, format!("staged-{}", rng.random_range(0..1000)));
    d.input("node", ParamType::String);
    let mut prev = d.task("health_check").unwrap();
    d.connect(d.start(), prev);
    for _ in 0..rng.random_range(0..5) {
        let next = d.task("health_check").unwrap();
        if rng.random_bool(0.5) {
            let dec = d.decision("healthy");
            let yes = d.task("health_check").unwrap();
            d.connect(prev, dec)
                .connect_if(dec, yes, true)
                .connect_if(dec, next, false)
                .connect(yes, next);
        } else {
            d.connect(prev, next);
        }
        prev = next;
    }
    let end = d.end();
    d.connect(prev, end);
    if rng.random_bool(0.5) {
        let blocks = vec!["health_check"; rng.random_range(1..4)];
        d.backout_sequence(&blocks).unwrap();
    }
    d.build()
}

/// Text with every escape class the writer handles.
fn text(rng: &mut StdRng) -> String {
    (0..rng.random_range(0..8))
        .map(|_| {
            *['a', '"', '\\', '\n', '\u{1}', 'é', '😀']
                .choose(rng)
                .unwrap()
        })
        .collect()
}

/// Any indexable graph, valid or not: every node kind, guard and
/// parameter type, nested backouts.
fn arbitrary_workflow(rng: &mut StdRng, depth: u32) -> Workflow {
    let mut wf = Workflow::new(text(rng));
    for _ in 0..rng.random_range(0..6) {
        let kind = match rng.random_range(0..4) {
            0 => NodeKind::Start,
            1 => NodeKind::End,
            2 => NodeKind::Task { block: text(rng) },
            _ => NodeKind::Decision {
                variable: text(rng),
            },
        };
        wf.add_node(text(rng), kind);
    }
    let n = wf.nodes.len() as u32;
    for _ in 0..if n == 0 { 0 } else { rng.random_range(0..8) } {
        let guard = [None, Some(true), Some(false)][rng.random_range(0..3usize)];
        let (from, to) = (rng.random_range(0..n), rng.random_range(0..n));
        wf.add_edge(WfNodeId(from), WfNodeId(to), guard);
    }
    for params in [&mut wf.inputs, &mut wf.outputs] {
        for _ in 0..rng.random_range(0..3) {
            params.push(WorkflowParam {
                name: text(rng),
                ty: *ParamType::ALL.choose(rng).unwrap(),
            });
        }
    }
    if depth > 0 && rng.random_bool(0.5) {
        wf.set_backout(arbitrary_workflow(rng, depth - 1));
    }
    wf
}

/// What the engine relies on when it indexes `nodes` by id.
fn indexable(wf: &Workflow) -> bool {
    wf.nodes.iter().enumerate().all(|(i, n)| n.id.index() == i)
        && wf
            .edges
            .iter()
            .all(|e| e.from.index() < wf.nodes.len() && e.to.index() < wf.nodes.len())
        && wf.backout.as_deref().is_none_or(indexable)
}

proptest! {
    #[test]
    fn packaged_workflows_unpack_to_themselves(seed in any::<u64>()) {
        let cat = builtin_catalog();
        let wf = staged_workflow(&cat, &mut StdRng::seed_from_u64(seed));
        let war = WarArtifact::package(&wf, &cat).unwrap();
        prop_assert!(parse(std::str::from_utf8(&war.payload).unwrap()).is_ok());
        prop_assert_eq!(war.unpack().unwrap(), wf);
    }

    #[test]
    fn any_graph_survives_the_codec(seed in any::<u64>()) {
        let wf = arbitrary_workflow(&mut StdRng::seed_from_u64(seed), 3);
        prop_assert_eq!(Workflow::from_json(&wf.to_json()).unwrap(), wf);
    }

    #[test]
    fn workflows_differing_in_one_field_differ_in_digest(seed in any::<u64>()) {
        let cat = builtin_catalog();
        let rng = &mut StdRng::seed_from_u64(seed);
        let wf = staged_workflow(&cat, rng);
        let mut other = wf.clone();
        let node = rng.random_range(0..other.nodes.len());
        match rng.random_range(0..4) {
            0 => other.name.push('x'),
            1 => other.nodes[node].label.push('x'),
            2 => other.outputs.push(WorkflowParam { name: "healthy".into(), ty: ParamType::Bool }),
            _ if other.backout.is_some() => other.backout = None,
            _ => other.set_backout(staged_workflow(&cat, rng)),
        }
        let digest = |wf: &Workflow| WarArtifact::package(wf, &cat).unwrap().manifest.digest;
        prop_assert_ne!(digest(&other), digest(&wf));
    }
}

#[test]
fn every_builtin_round_trips() {
    let cat = builtin_catalog();
    for wf in builtins(&cat) {
        let war = WarArtifact::package(&wf, &cat).unwrap();
        assert_eq!(war.unpack().unwrap(), wf, "{}", wf.name);
    }
}

#[test]
fn digest_does_not_depend_on_packaging_order() {
    let cat = builtin_catalog();
    let digests = |wfs: &[Workflow]| -> Vec<(String, String)> {
        let mut out: Vec<_> = wfs
            .iter()
            .map(|wf| WarArtifact::package(wf, &cat).unwrap().manifest)
            .map(|m| (m.workflow, m.digest))
            .collect();
        out.sort();
        out
    };
    let mut wfs = builtins(&cat);
    let forward = digests(&wfs);
    wfs.reverse();
    assert_eq!(digests(&wfs), forward);
}

fn fig4_with_backout() -> WarArtifact {
    let cat = builtin_catalog();
    let mut wf = software_upgrade_workflow(&cat);
    let mut d = Designer::new(&cat, "undo");
    let (start, rb, end) = (d.start(), d.task("roll_back").unwrap(), d.end());
    d.connect(start, rb).connect(rb, end);
    wf.set_backout(d.build());
    WarArtifact::package(&wf, &cat).unwrap()
}

fn with_payload(war: &WarArtifact, payload: Vec<u8>) -> WarArtifact {
    WarArtifact {
        manifest: war.manifest.clone(),
        payload: payload.into(),
    }
}

#[test]
fn every_truncation_is_a_parse_error() {
    let war = fig4_with_backout();
    for cut in 0..war.payload.len() {
        let torn = with_payload(&war, war.payload[..cut].to_vec());
        assert!(
            matches!(torn.unpack(), Err(CornetError::Parse(_))),
            "cut at {cut}"
        );
    }
}

#[test]
fn no_single_byte_mutation_panics_or_yields_an_unindexable_graph() {
    let war = fig4_with_backout();
    let original = war.unpack().unwrap();
    let mut rejected = 0;
    for at in 0..war.payload.len() {
        for byte in [b'0', b'9', b'"', b'}', b'x', 0xff, war.payload[at] ^ 1] {
            if byte == war.payload[at] {
                continue;
            }
            let mut bytes = war.payload.to_vec();
            bytes[at] = byte;
            match with_payload(&war, bytes).unpack() {
                Ok(wf) => {
                    assert!(indexable(&wf), "byte {at} -> {byte:#x}");
                    assert_ne!(wf, original, "byte {at} -> {byte:#x} went unnoticed");
                }
                Err(CornetError::Parse(_)) => rejected += 1,
                Err(other) => panic!("byte {at} -> {byte:#x}: {other}"),
            }
        }
    }
    assert!(
        rejected > war.payload.len(),
        "most mutations break the document"
    );
}

#[test]
fn graphs_the_engine_could_not_index_are_refused() {
    let node = |id: &str| format!(r#"{{"id":{id},"label":"n","kind":"end"}}"#);
    let doc = |nodes: &[String], edges: &str, rest: &str| {
        format!(
            r#"{{"name":"w","nodes":[{}],"edges":[{edges}],"inputs":[],"outputs":[]{rest}}}"#,
            nodes.join(",")
        )
    };
    let two = [node("0"), node("1")];
    assert!(Workflow::from_json(&doc(&two, r#"{"from":0,"to":1}"#, "")).is_ok());
    for (what, text) in [
        ("duplicate ids", doc(&[node("0"), node("0")], "", "")),
        ("gap in ids", doc(&[node("0"), node("2")], "", "")),
        ("ids from 1", doc(&[node("1")], "", "")),
        ("huge id", doc(&[node("4294967296")], "", "")),
        ("fractional id", doc(&[node("0.5")], "", "")),
        ("string id", doc(&[node("\"0\"")], "", "")),
        ("edge past the end", doc(&two, r#"{"from":0,"to":2}"#, "")),
        ("negative endpoint", doc(&two, r#"{"from":-1,"to":1}"#, "")),
        (
            "fractional endpoint",
            doc(&two, r#"{"from":0,"to":0.5}"#, ""),
        ),
        ("huge endpoint", doc(&two, r#"{"from":0,"to":1e300}"#, "")),
        ("missing endpoint", doc(&two, r#"{"from":0}"#, "")),
        (
            "guard not a bool",
            doc(&two, r#"{"from":0,"to":1,"guard":"yes"}"#, ""),
        ),
        ("bad backout", doc(&two, "", r#","backout":{"name":"b"}"#)),
        (
            "unknown kind",
            doc(&[r#"{"id":0,"label":"n","kind":"gateway"}"#.into()], "", ""),
        ),
        (
            "task without block",
            doc(&[r#"{"id":0,"label":"n","kind":"task"}"#.into()], "", ""),
        ),
        (
            "unknown ty",
            r#"{"name":"w","nodes":[],"edges":[],"inputs":[{"name":"p","ty":"str"}],"outputs":[]}"#
                .into(),
        ),
        ("not an object", "[]".into()),
        ("no nodes", r#"{"name":"w"}"#.into()),
    ] {
        assert!(
            matches!(Workflow::from_json(&text), Err(CornetError::Parse(_))),
            "{what}: {text}"
        );
    }
    let not_utf8 = with_payload(&fig4_with_backout(), vec![b'{', 0xc3, b'}']);
    assert!(matches!(not_utf8.unpack(), Err(CornetError::Parse(_))));
}

#[test]
fn backouts_nested_200_deep_are_refused_not_overflowed() {
    let mut text = String::new();
    for _ in 0..200 {
        text.push_str(r#"{"name":"w","nodes":[],"edges":[],"inputs":[],"outputs":[],"backout":"#);
    }
    text.push_str(r#"{"name":"w","nodes":[],"edges":[],"inputs":[],"outputs":[]}"#);
    text.push_str(&"}".repeat(200));
    let err = Workflow::from_json(&text).unwrap_err();
    assert!(err.to_string().contains("nesting deeper"), "{err}");
}
