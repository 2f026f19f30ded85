//! `/v1` endpoint routing for `cornetd`.
//!
//! | Method | Path                            | Purpose                          |
//! |--------|---------------------------------|----------------------------------|
//! | GET    | `/v1/healthz`                   | liveness probe                   |
//! | POST   | `/v1/campaigns`                 | submit a MOP bundle (gate-checked) |
//! | GET    | `/v1/campaigns`                 | list the tenant's campaigns      |
//! | GET    | `/v1/campaigns/{id}`            | one campaign with progress       |
//! | POST   | `/v1/campaigns/{id}/pause`      | stop admitting new instances     |
//! | POST   | `/v1/campaigns/{id}/resume`     | resume admissions                |
//! | POST   | `/v1/campaigns/{id}/cancel`     | drain and close the campaign     |
//! | GET    | `/v1/campaigns/{id}/events`     | journal events as JSONL (`?follow=1` streams) |
//! | GET    | `/v1/campaigns/{id}/blast`      | declared blast radii (owner only) |
//! | GET    | `/v1/quotas`                    | tenant quota + global pool usage |
//! | POST   | `/v1/ingest`                    | stream KPI samples (JSONL) into the online verifier |
//! | GET    | `/v1/ingest`                    | ingest counters, live detections, current verdicts |
//! | POST   | `/v1/shutdown`                  | stop accepting, begin drain      |
//!
//! Every campaign route requires an `X-Cornet-Tenant` header; a tenant
//! can only see and drive its own campaigns (403 otherwise). Submissions
//! whose bundle fails the `cornet check` gate are refused with 422 and
//! the diagnostics as JSONL; bundles whose declared campaigns' blast
//! radii collide with a live campaign are refused with 409 and the
//! CN06xx diagnostics as JSONL (foreign-tenant details redacted).

use crate::http::{Handler, HttpServer, Reply, Request, Response};
use crate::manager::{ApiError, CampaignManager, CampaignSnapshot, SubmitOutcome};
use crate::stream::StreamHub;
use cornet_obs::Tracer;
use cornet_types::json::JsonWriter;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

/// The bound daemon API: an [`HttpServer`] routing into a
/// [`CampaignManager`].
pub struct ApiServer {
    server: HttpServer,
    shutdown_rx: mpsc::Receiver<()>,
}

impl ApiServer {
    /// Bind `addr` and serve the `/v1` API with `workers` threads.
    pub fn bind(
        addr: &str,
        workers: usize,
        manager: Arc<CampaignManager>,
    ) -> std::io::Result<ApiServer> {
        #[allow(
            clippy::disallowed_methods,
            reason = "POST /v1/shutdown hands one message to the thread that owns the server"
        )]
        let (tx, rx) = mpsc::channel();
        let server = HttpServer::bind(addr, workers, handler(manager, tx))?;
        Ok(ApiServer {
            server,
            shutdown_rx: rx,
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.server.local_addr()
    }

    /// Block until a `POST /v1/shutdown` arrives.
    pub fn wait_for_shutdown(&self) {
        let _ = self.shutdown_rx.recv();
    }

    /// Stop the HTTP server (in-flight requests finish).
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Build the routing handler (exposed for in-process tests).
pub fn handler(manager: Arc<CampaignManager>, shutdown_tx: mpsc::Sender<()>) -> Handler {
    let shutdown_tx = Mutex::new(shutdown_tx);
    let hub = StreamHub::new(Tracer::noop());
    Arc::new(move |req: Request| route(&manager, &hub, &shutdown_tx, req))
}

fn route(
    manager: &Arc<CampaignManager>,
    hub: &StreamHub,
    shutdown_tx: &Mutex<mpsc::Sender<()>>,
    req: Request,
) -> Reply {
    let segments: Vec<&str> = match req.path.strip_prefix("/v1/") {
        Some(rest) => rest.split('/').filter(|s| !s.is_empty()).collect(),
        None => return full(error_response(&ApiError::NotFound(req.path.clone()))),
    };
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => full(Response::json(200, r#"{"status":"ok"}"#)),
        ("POST", ["shutdown"]) => {
            manager.begin_shutdown();
            let _ = shutdown_tx
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .send(());
            full(Response::json(202, r#"{"status":"shutting-down"}"#))
        }
        ("GET", ["quotas"]) => with_tenant(&req, |tenant| {
            full(Response::json(200, render_quotas(manager, tenant)))
        }),
        ("POST", ["campaigns"]) => {
            with_tenant(&req, |tenant| match manager.submit(tenant, &req.body) {
                Ok(SubmitOutcome::Accepted { id, report }) => {
                    let mut body = String::new();
                    let mut w = JsonWriter::compact(&mut body);
                    w.begin_object();
                    w.key("id").str(&id);
                    w.key("warnings").int(report.warning_count());
                    w.key("phase").str("queued");
                    w.end_object();
                    full(Response::json(201, body))
                }
                Ok(SubmitOutcome::Rejected { report }) => {
                    full(Response::jsonl(422, report.render_jsonl()))
                }
                Ok(SubmitOutcome::Interfering { report }) => {
                    full(Response::jsonl(409, report.render_jsonl()))
                }
                Err(e) => full(error_response(&e)),
            })
        }
        ("GET", ["campaigns"]) => with_tenant(&req, |tenant| {
            let mut body = String::new();
            let mut w = JsonWriter::compact(&mut body);
            w.begin_array();
            for snap in &manager.list(tenant) {
                write_snapshot(&mut w, snap);
            }
            w.end_array();
            full(Response::json(200, body))
        }),
        ("GET", ["campaigns", id]) => {
            with_tenant(&req, |tenant| reply_snapshot(manager.snapshot(tenant, id)))
        }
        ("POST", ["campaigns", id, "pause"]) => {
            with_tenant(&req, |tenant| reply_snapshot(manager.pause(tenant, id)))
        }
        ("POST", ["campaigns", id, "resume"]) => {
            with_tenant(&req, |tenant| reply_snapshot(manager.resume(tenant, id)))
        }
        ("POST", ["campaigns", id, "cancel"]) => {
            with_tenant(&req, |tenant| reply_snapshot(manager.cancel(tenant, id)))
        }
        ("GET", ["campaigns", id, "blast"]) => {
            with_tenant(&req, |tenant| match manager.blast(tenant, id) {
                Ok(body) => full(Response::json(200, body)),
                Err(e) => full(error_response(&e)),
            })
        }
        ("GET", ["campaigns", id, "events"]) => with_tenant(&req, |tenant| {
            let from: usize = req.param("from").and_then(|v| v.parse().ok()).unwrap_or(0);
            let follow = matches!(req.param("follow"), Some("1" | "true"));
            if follow {
                stream_events(manager, tenant, id, from)
            } else {
                match manager.wait_events(tenant, id, from, Duration::ZERO) {
                    Ok((lines, _)) => full(Response::jsonl(200, jsonl(&lines))),
                    Err(e) => full(error_response(&e)),
                }
            }
        }),
        ("POST", ["ingest"]) => with_tenant(&req, |tenant| {
            let params = req.query.iter().map(|(k, v)| (k.clone(), v.clone()));
            match hub.ingest(tenant, params, &req.body) {
                Ok(receipt) => full(Response::json(200, receipt)),
                Err(e) => full(error_response(&ApiError::Invalid(e))),
            }
        }),
        ("GET", ["ingest"]) => with_tenant(&req, |tenant| match hub.snapshot(tenant) {
            Some(body) => full(Response::json(200, body)),
            None => full(error_response(&ApiError::NotFound(
                "no ingest session for tenant (POST samples first)".to_string(),
            ))),
        }),
        (_, ["healthz" | "shutdown" | "quotas" | "campaigns" | "ingest", ..]) => {
            full(Response::error(405, "method not allowed"))
        }
        _ => full(error_response(&ApiError::NotFound(req.path.clone()))),
    }
}

fn full(response: Response) -> Reply {
    Reply::Full(response)
}

fn with_tenant(req: &Request, f: impl FnOnce(&str) -> Reply) -> Reply {
    match req.header("x-cornet-tenant") {
        Some(tenant) if !tenant.is_empty() => f(tenant),
        _ => full(Response::error(400, "missing X-Cornet-Tenant header")),
    }
}

fn reply_snapshot(result: Result<CampaignSnapshot, ApiError>) -> Reply {
    match result {
        Ok(snap) => full(Response::json(200, render_snapshot(&snap))),
        Err(e) => full(error_response(&e)),
    }
}

fn stream_events(manager: &Arc<CampaignManager>, tenant: &str, id: &str, from: usize) -> Reply {
    // Validate ownership up front so auth failures are proper statuses,
    // not broken streams.
    if let Err(e) = manager.snapshot(tenant, id) {
        return full(error_response(&e));
    }
    let manager = Arc::clone(manager);
    let tenant = tenant.to_string();
    let id = id.to_string();
    Reply::Stream {
        content_type: "application/x-ndjson",
        write: Box::new(move |sink| {
            let mut cursor = from;
            loop {
                let (lines, done) =
                    match manager.wait_events(&tenant, &id, cursor, Duration::from_secs(10)) {
                        Ok(r) => r,
                        Err(_) => return Ok(()),
                    };
                cursor += lines.len();
                // One `write` per wake-up, not one per record.
                sink.write_all(jsonl(&lines).as_bytes())?;
                sink.flush()?;
                if done {
                    return Ok(());
                }
            }
        }),
    }
}

/// `lines` as one JSONL text: every line newline-terminated.
fn jsonl(lines: &[String]) -> String {
    lines
        .iter()
        .flat_map(|line| [line.as_str(), "\n"])
        .collect()
}

fn error_response(e: &ApiError) -> Response {
    let status = match e {
        ApiError::NotFound(_) => 404,
        ApiError::Forbidden(_) => 403,
        ApiError::Invalid(_) => 400,
        ApiError::Conflict(_) => 409,
        ApiError::Internal(_) => 500,
    };
    Response::error(status, e)
}

fn render_quotas(manager: &CampaignManager, tenant: &str) -> String {
    let (in_flight, high_water, pool) = manager.pool_usage();
    let mut body = String::new();
    let mut w = JsonWriter::compact(&mut body);
    w.begin_object();
    w.key("global").begin_object();
    w.key("in_flight").int(in_flight);
    w.key("high_water").int(high_water);
    w.key("pool").int(pool);
    w.end_object();
    match manager.quotas().get(tenant) {
        Some(snap) => {
            w.key("tenant").begin_object();
            w.key("in_flight").int(snap.in_flight);
            w.key("high_water").int(snap.high_water);
            w.key("quota").int(snap.quota);
            w.key("waiting").int(snap.waiting);
            w.end_object()
        }
        None => w.key("tenant").null(),
    };
    w.end_object();
    body
}

/// Render one campaign snapshot as a JSON object.
pub fn render_snapshot(snap: &CampaignSnapshot) -> String {
    let mut out = String::new();
    write_snapshot(&mut JsonWriter::compact(&mut out), snap);
    out
}

fn write_snapshot(w: &mut JsonWriter<'_>, snap: &CampaignSnapshot) {
    w.begin_object();
    w.key("id").str(&snap.id);
    w.key("tenant").str(&snap.tenant);
    w.key("name").str(&snap.name);
    w.key("phase").str(snap.phase.label());
    w.key("total_instances").int(snap.total_instances);
    w.key("instances_done").int(snap.instances_done);
    w.key("blocks_live").int(snap.blocks_live);
    w.key("blocks_recovered").int(snap.blocks_recovered);
    w.key("events").int(snap.events);
    match &snap.outcome {
        Some(o) => {
            w.key("outcome").begin_object();
            w.key("fingerprint")
                .display(format_args!("{:016x}", o.fingerprint));
            w.key("completed").int(o.completed);
            w.key("failed").int(o.failed);
            w.key("rolled_back").int(o.rolled_back);
            w.key("cancelled").bool(o.cancelled);
            write_opt_str(w.key("trip"), o.trip.as_deref());
            w.end_object()
        }
        None => w.key("outcome").null(),
    };
    write_opt_str(w.key("error"), snap.error.as_deref());
    w.end_object();
}

fn write_opt_str(w: &mut JsonWriter<'_>, s: Option<&str>) {
    match s {
        Some(s) => w.str(s),
        None => w.null(),
    };
}
