//! Quickstart: design a change workflow from catalog building blocks,
//! validate it, package it as a WAR artifact, and execute it against a
//! simulated VNF — the smallest end-to-end CORNET loop.
//!
//! Run with: `cargo run --example quickstart`

use cornet::catalog::builtin_catalog;
use cornet::core::testbed_registry;
use cornet::netsim::{Testbed, TestbedConfig};
use cornet::orchestrator::{Engine, GlobalState};
use cornet::types::{NfType, ParamType, ParamValue};
use cornet::workflow::{analyze, Designer, WarArtifact};

fn main() {
    // 1. The catalog: Table 2's nineteen building blocks.
    let catalog = builtin_catalog();
    println!("catalog: {} building blocks", catalog.len());
    for block in catalog.iter().take(4) {
        println!(
            "  {:22} nf_agnostic={} {}",
            block.name, block.nf_agnostic, block.function
        );
    }
    println!("  ...");

    // 2. Design Fig. 4's software-upgrade workflow by stitching blocks.
    let mut d = Designer::new(&catalog, "quickstart_upgrade");
    d.input("node", ParamType::String);
    d.input("software_version", ParamType::String);
    let start = d.start();
    let hc = d.task("health_check").expect("block exists");
    let healthy = d.decision("healthy");
    let up = d.task("software_upgrade").expect("block exists");
    let cmp = d.task("pre_post_comparison").expect("block exists");
    let passed = d.decision("passed");
    let rb = d.task("roll_back").expect("block exists");
    let done = d.end();
    let skipped = d.end();
    d.connect(start, hc)
        .connect(hc, healthy)
        .connect_if(healthy, up, true)
        .connect_if(healthy, skipped, false)
        .connect(up, cmp)
        .connect(cmp, passed)
        .connect_if(passed, done, true)
        .connect_if(passed, rb, false)
        .connect(rb, done);
    let wf = d.build();

    // 3. Verify: no zombie blocks, decisions wired, parameters flow.
    let report = analyze(&wf, &catalog);
    println!("\nworkflow '{}' valid: {}", wf.name, !report.has_errors());

    // 4. Package into a WAR artifact with a dynamically generated REST API.
    let war = WarArtifact::package(&wf, &catalog).expect("validated workflow packages");
    println!(
        "deployed at {} (digest {})",
        war.manifest.rest_api, war.manifest.digest
    );

    // 5. Execute against a simulated vCE router.
    let testbed = Testbed::new(TestbedConfig::default());
    testbed.instantiate("vce-0001", NfType::VceRouter, "16.9");
    let registry = testbed_registry(testbed.clone());
    let mut inputs = GlobalState::new();
    inputs.insert("node".into(), ParamValue::from("vce-0001"));
    inputs.insert("software_version".into(), ParamValue::from("17.3"));
    let mut engine = Engine::from_war(&war, registry, inputs).expect("war unpacks");
    let status = engine.run().expect("execution proceeds").clone();

    println!("\nexecution: {status:?}");
    for entry in engine.log() {
        println!(
            "  {:22} {:?} in {:?}",
            entry.block, entry.status, entry.duration
        );
    }
    let state = testbed.state("vce-0001").unwrap();
    println!(
        "\nvce-0001 is now on {} (reboots: {})",
        state.sw_version, state.reboots
    );
    assert_eq!(state.sw_version, "17.3");
}
