//! `tenant_mix`: one campaign per op, submit → verdict, over real HTTP
//! against an in-process `cornetd` (`CampaignManager` + `ApiServer`, one
//! HTTP worker per CPU, default `ManagerConfig` but for `fsync: Never`).
//! One closed-loop client runs the op list; planner is absent. The daemon
//! runs its own journaled scenario executors (fault-free, zero *simulated*
//! latency — nothing sleeps). README.md says why one client and no fsync.

use crate::gen::{
    campaign_bundle, defective_bundle, kpi_feed, tenant_ops, TenantOp, FEED_CHANGE_MINUTE,
    FEED_KPI, FEED_NODES, FEED_TICKS,
};
use crate::measure::Metric;
use crate::trace::{layer_call, op_span};
use crate::workload::{ensure, Env, OpResult, Workload};
use cornet_daemon::{ApiServer, CampaignManager, ClientResponse, DaemonClient, ManagerConfig};
use cornet_journal::FsyncPolicy;
use cornet_obs::{ActiveSpan, Tracer};
use cornet_types::json::{parse, JsonValue};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// As many HTTP workers as the sandbox has CPUs.
pub const HTTP_WORKERS: usize = 2;
/// The tenant that owns every campaign of the workload.
const TENANT: &str = "tenant-0";
/// The bundle `cornet check` ships as its refused example.
const DEFECTIVE_EXAMPLE: &str = include_str!("../../examples/check/defective.json");

/// A booted daemon.
pub struct Daemon {
    pub manager: Arc<CampaignManager>,
    pub api: ApiServer,
    pub addr: String,
    state_dir: PathBuf,
}

impl Daemon {
    pub fn boot(state_dir: &Path, tracer: Tracer) -> Daemon {
        let _ = std::fs::remove_dir_all(state_dir);
        let manager = CampaignManager::start(ManagerConfig {
            state_dir: state_dir.to_path_buf(),
            tracer,
            // The disk's latency wanders on its own on the sandbox;
            // `fleet_rollout` is the workload that measures fsync.
            fsync: FsyncPolicy::Never,
            ..ManagerConfig::default()
        })
        .expect("campaign manager starts");
        let api = ApiServer::bind("127.0.0.1:0", HTTP_WORKERS, manager.clone())
            .expect("daemon binds a loopback port");
        let addr = api.local_addr().to_string();
        Daemon {
            manager,
            api,
            addr,
            state_dir: state_dir.to_path_buf(),
        }
    }

    pub fn client(&self, tenant: &str) -> DaemonClient {
        DaemonClient::new(self.addr.clone(), tenant)
    }

    pub fn stop(self) {
        self.manager.begin_shutdown();
        self.manager.drain(Duration::from_secs(60));
        self.api.shutdown();
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

fn expect_status(what: &str, r: &ClientResponse, status: u16) -> Result<(), String> {
    ensure(r.status == status, || {
        format!(
            "{what}: HTTP {} (want {status}): {}",
            r.status,
            r.body.trim()
        )
    })
}

fn field<'a>(v: &'a JsonValue, path: &[&str]) -> Option<&'a JsonValue> {
    path.iter().try_fold(v, |v, key| v.get(key))
}

fn number(v: &JsonValue, path: &[&str]) -> Option<f64> {
    field(v, path).and_then(JsonValue::as_f64)
}

/// Submit `bundle` and return the accepted campaign's id.
pub fn submit(client: &DaemonClient, bundle: &str) -> Result<String, String> {
    let r = client.post("/v1/campaigns", bundle)?;
    expect_status("submit", &r, 201)?;
    let doc = parse(&r.body).map_err(|e| e.to_string())?;
    field(&doc, &["id"])
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("submit: no id in {}", r.body))
}

/// Follow the event stream to its end, then fetch the snapshot.
pub fn wait_terminal(client: &DaemonClient, id: &str) -> Result<JsonValue, String> {
    client.stream(&format!("/v1/campaigns/{id}/events?follow=1"), |_| true)?;
    let r = client.get(&format!("/v1/campaigns/{id}"))?;
    expect_status("snapshot", &r, 200)?;
    parse(&r.body).map_err(|e| e.to_string())
}

/// Untimed proof that the gates the timed ops rely on are live: a 422 for
/// the shipped defective example and a 409 against a still-live large
/// campaign over the same nodes.
pub fn preflight(daemon: &Daemon) -> Result<(), String> {
    let client = daemon.client("preflight");
    let r = client.post("/v1/campaigns", DEFECTIVE_EXAMPLE)?;
    expect_status("defective example", &r, 422)?;
    // The largest campaign the intent's window holds, paused at once so
    // that it is still live when the second submission lands, and resumed
    // afterwards: wherever the pause caught it, the set-up runs the whole
    // campaign, so `setup_s` does not depend on that race. The rival names
    // the first 24 of the same nodes: loading a 480-node bundle is most of
    // a set-up, and once is enough.
    let id = submit(&client, &campaign_bundle("preflight", 480, 1))?;
    let r = client.post(&format!("/v1/campaigns/{id}/pause"), "")?;
    expect_status("pause", &r, 200)?;
    let r = daemon
        .client("preflight-rival")
        .post("/v1/campaigns", &campaign_bundle("preflight", 24, 2))?;
    expect_status("overlapping submission", &r, 409)?;
    let r = client.post(&format!("/v1/campaigns/{id}/resume"), "")?;
    expect_status("resume", &r, 200)?;
    let snapshot = wait_terminal(&client, &id)?;
    let ended = field(&snapshot, &["phase"]).and_then(JsonValue::as_str);
    ensure(ended == Some("completed"), || {
        format!("preflight campaign ended {ended:?}, not completed")
    })
}

/// Client-side phase sums, seconds.
#[derive(Clone, Copy, Default)]
struct Phases {
    submit: f64,
    wait: f64,
    ingest: f64,
    verdict: f64,
    campaigns: u64,
    samples: u64,
}

struct Prepared {
    op: TenantOp,
    bundle: String,
    feed: String,
}

pub struct TenantMix {
    env: Env,
    ops: Vec<Prepared>,
    /// The daemon of untraced cycles (no-op tracer, as shipped).
    plain: Daemon,
    /// The daemon of traced cycles, booted with the collecting tracer.
    traced: Option<Daemon>,
    /// Daemons booted so far; names their state directories.
    boots: u64,
    /// Peak of the global execution pool over every daemon stopped so far.
    pool_high_water: usize,
    cycle: u64,
    phases: Phases,
}

impl TenantMix {
    pub fn setup(env: &Env) -> Result<TenantMix, String> {
        let ops = tenant_ops(env.seed, env.quick)
            .into_iter()
            .enumerate()
            .map(|(k, op)| {
                let tag = format!("op{k}");
                let (bundle, feed) = match &op {
                    TenantOp::Campaign {
                        nodes,
                        shifted,
                        seed,
                    } => (
                        campaign_bundle(&tag, *nodes, *seed),
                        kpi_feed(*seed, *shifted),
                    ),
                    TenantOp::Defective { defect, nodes } => {
                        (defective_bundle(&tag, *defect, *nodes), String::new())
                    }
                };
                Prepared { op, bundle, feed }
            })
            .collect();
        let dir = env.work_dir.join("tenant_mix");
        let plain = Daemon::boot(&dir.join("state-0"), Tracer::noop());
        preflight(&plain)?;
        let traced = if env.tracer.is_enabled() {
            let daemon = Daemon::boot(&dir.join("state-1"), env.tracer.clone());
            preflight(&daemon)?;
            // Spans of the preflight are not part of any cycle.
            env.tracer.take();
            Some(daemon)
        } else {
            None
        };
        Ok(TenantMix {
            env: env.clone(),
            ops,
            plain,
            traced,
            boots: 2,
            pool_high_water: 0,
            cycle: 0,
            phases: Phases::default(),
        })
    }
}

/// Time one client-side phase of an op into `slot`.
fn phase<T>(
    tracer: &Tracer,
    span: &ActiveSpan,
    name: &str,
    slot: &mut f64,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let started = Instant::now();
    let out = layer_call(tracer, span, name, |_| f());
    *slot = started.elapsed().as_secs_f64();
    out
}

/// What one campaign op is run with.
struct CampaignRun<'a> {
    /// `host:port` of the daemon.
    addr: &'a str,
    tracer: &'a Tracer,
    span: &'a ActiveSpan,
    tenant: &'a str,
    /// Per-campaign feed identity carried in the tenant header.
    feed_tenant: &'a str,
    prepared: &'a Prepared,
    nodes: u32,
    shifted: bool,
}

impl CampaignRun<'_> {
    /// Submit → verdict. Returns the phase times and the oracle verdict.
    fn run(&self) -> (Phases, Result<(), String>) {
        let (tracer, span) = (self.tracer, self.span);
        let client = DaemonClient::new(self.addr, self.tenant);
        let feed_client = DaemonClient::new(self.addr, self.feed_tenant);
        let sent = (2 * FEED_NODES * FEED_TICKS) as f64;
        let mut p = Phases {
            campaigns: 1,
            samples: sent as u64,
            ..Phases::default()
        };
        let verdict = (|| {
            let id = phase(tracer, span, "http.submit", &mut p.submit, || {
                submit(&client, &self.prepared.bundle)
            })?;
            let snapshot = phase(tracer, span, "http.wait", &mut p.wait, || {
                wait_terminal(&client, &id)
            })?;
            let ended = field(&snapshot, &["phase"]).and_then(JsonValue::as_str);
            let completed = number(&snapshot, &["outcome", "completed"]);
            ensure(
                ended == Some("completed") && completed == Some(self.nodes as f64),
                || {
                    format!(
                        "campaign {id} ended {ended:?} with {completed:?} of {} completed",
                        self.nodes
                    )
                },
            )?;
            phase(tracer, span, "http.ingest", &mut p.ingest, || {
                let r = feed_client.post(
                    &format!(
                        "/v1/ingest?nodes={FEED_NODES}&kpi={FEED_KPI}&change_minute={FEED_CHANGE_MINUTE}&expect=any"
                    ),
                    &self.prepared.feed,
                )?;
                expect_status("ingest", &r, 200)?;
                let receipt = parse(&r.body).map_err(|e| e.to_string())?;
                let (accepted, shed) =
                    (number(&receipt, &["accepted"]), number(&receipt, &["shed"]));
                ensure(accepted == Some(sent) && shed == Some(0.0), || {
                    format!("ingest receipt {} (sent {sent})", r.body)
                })
            })?;
            phase(tracer, span, "http.verdict", &mut p.verdict, || {
                let r = feed_client.get("/v1/ingest")?;
                expect_status("verdict", &r, 200)?;
                let doc = parse(&r.body).map_err(|e| e.to_string())?;
                let verdict = field(&doc, &["verdicts"])
                    .and_then(JsonValue::as_array)
                    .and_then(|v| v.first())
                    .and_then(|rule| field(rule, &["kpis"]))
                    .and_then(JsonValue::as_array)
                    .and_then(|k| k.first())
                    .and_then(|k| field(k, &["verdict"]))
                    .and_then(JsonValue::as_str);
                let want = if self.shifted {
                    "Improvement"
                } else {
                    "NoImpact"
                };
                ensure(verdict == Some(want), || {
                    format!("feed verdict {verdict:?}, label {want}")
                })
            })
        })();
        (p, verdict)
    }
}

impl Workload for TenantMix {
    fn ops_fingerprint(&self) -> u64 {
        let ops: Vec<&TenantOp> = self.ops.iter().map(|p| &p.op).collect();
        crate::gen::fingerprint(&ops)
    }

    /// `cornetd` keeps every campaign and ingest session, and its per-op
    /// cost grows with them (a cycle takes twice as long after 900
    /// campaigns). Each cycle therefore starts on a freshly booted daemon,
    /// so that cycles are comparable and a run's length does not decide
    /// what it measures.
    fn prepare_cycle(&mut self) {
        let dir = self.env.work_dir.join("tenant_mix");
        let mut reboot = |tracer: Tracer| {
            self.boots += 1;
            Daemon::boot(&dir.join(format!("state-{}", self.boots)), tracer)
        };
        let fresh = reboot(Tracer::noop());
        let old = std::mem::replace(&mut self.plain, fresh);
        self.pool_high_water = self.pool_high_water.max(old.manager.pool_usage().1);
        old.stop();
        if self.traced.is_some() {
            let fresh = reboot(self.env.tracer.clone());
            if let Some(old) = self.traced.replace(fresh) {
                old.stop();
            }
        }
    }

    fn run_cycle(&mut self, traced: bool) -> Vec<OpResult> {
        let tracer = self.env.tracer_for(traced);
        let addr = match (&self.traced, traced) {
            (Some(daemon), true) => daemon.addr.as_str(),
            _ => self.plain.addr.as_str(),
        };
        self.cycle += 1;
        let cycle = self.cycle;
        // One client: it waits for each reply before sending the next
        // request (closed loop), so ops run one after another.
        let mut results = Vec::with_capacity(self.ops.len());
        for (k, prepared) in self.ops.iter().enumerate() {
            let class = match prepared.op {
                TenantOp::Campaign { nodes: 24, .. } => "campaign.n24",
                TenantOp::Campaign { nodes: 96, .. } => "campaign.n96",
                TenantOp::Campaign { .. } => "campaign.n384",
                TenantOp::Defective { .. } => "defective.422",
            };
            let span = op_span(&tracer, k, class);
            let started = Instant::now();
            let (phases, verdict, timed) = match prepared.op {
                TenantOp::Campaign { nodes, shifted, .. } => {
                    let feed_tenant = format!("feed-{cycle}-{k}");
                    let (phases, verdict) = CampaignRun {
                        addr,
                        tracer: &tracer,
                        span: &span,
                        tenant: TENANT,
                        feed_tenant: &feed_tenant,
                        prepared,
                        nodes,
                        shifted,
                    }
                    .run();
                    (phases, verdict, true)
                }
                TenantOp::Defective { .. } => {
                    let verdict = layer_call(&tracer, &span, "http.submit_refused", |_| {
                        let r = DaemonClient::new(addr, TENANT)
                            .post("/v1/campaigns", &prepared.bundle)?;
                        expect_status("defective bundle", &r, 422)
                    });
                    (Phases::default(), verdict, false)
                }
            };
            let latency = started.elapsed().as_secs_f64();
            let reference = layer_call(&tracer, &span, "harness.reference", |_| {
                self.env.reference.sample()
            });
            span.finish();
            let mut result = OpResult::new(class, latency, reference, verdict);
            result.timed = timed;
            if result.ok() {
                let t = &mut self.phases;
                t.submit += phases.submit;
                t.wait += phases.wait;
                t.ingest += phases.ingest;
                t.verdict += phases.verdict;
                t.campaigns += phases.campaigns;
                t.samples += phases.samples;
            }
            results.push(result);
        }
        results
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        let p = &self.phases;
        let n = p.campaigns.max(1) as f64;
        let high_water = self.pool_high_water.max(self.plain.manager.pool_usage().1);
        vec![
            Metric::new("daemon.phase_ms.submit", p.submit * 1e3 / n, "ms"),
            Metric::new("daemon.phase_ms.wait", p.wait * 1e3 / n, "ms"),
            Metric::new("daemon.phase_ms.ingest", p.ingest * 1e3 / n, "ms"),
            Metric::new("daemon.phase_ms.verdict", p.verdict * 1e3 / n, "ms"),
            Metric::new("daemon.quota_high_water", high_water as f64, "count"),
            Metric::new(
                "daemon.ingest_samples_per_s",
                if p.ingest > 0.0 {
                    p.samples as f64 / p.ingest
                } else {
                    0.0
                },
                "1/s",
            ),
        ]
    }

    fn finish(self: Box<Self>) {
        self.plain.stop();
        if let Some(daemon) = self.traced {
            daemon.stop();
        }
    }
}
