//! `kpi_verify`: one verification session per op — every sample streamed
//! through the online engine (pump every 4 ticks, verdict poll every 100
//! ticks after the change), **then** the same data verified in batch.
//! Streaming and batch exercise the same kernels differently, so a
//! streaming gain that costs batch (or breaks bit-equality) shows.

use crate::gen::{verify_ops, VerifyOp, VERIFY_KPIS, VERIFY_MARKETS};
use crate::measure::Metric;
use crate::trace::{layer_call, op_span};
use crate::workload::{ensure, Env, OpResult, Workload};
use cornet_netsim::{ImpactKind, InjectedImpact, KpiGenerator};
use cornet_obs::Tracer;
use cornet_stats::TimeSeries;
use cornet_types::{Attributes, Inventory, NfType, NodeId, Topology};
use cornet_verifier::{
    verify_rules_traced, ChangeScope, ClosureAdapter, ImpactVerdict, KpiQuery, StreamConfig,
    StreamSample, StreamingVerifier, VerificationReport, VerificationRule,
};
use std::time::Instant;

pub const STEP_MINUTES: u64 = 60;
pub const PUMP_EVERY: u64 = 4;
pub const POLL_EVERY: u64 = 100;

/// Everything one session needs, generated in set-up.
pub struct Session {
    pub op: VerifyOp,
    pub inventory: Inventory,
    pub topology: Topology,
    pub scope: ChangeScope,
    pub rule: VerificationRule,
    /// `series[node][kpi]`, study nodes first.
    pub series: Vec<Vec<TimeSeries>>,
}

impl Session {
    pub fn generate(op: &VerifyOp) -> Session {
        let mut inventory = Inventory::new();
        let market = |i: u32| format!("m{:02}", i as usize % VERIFY_MARKETS);
        let study: Vec<NodeId> = (0..op.study)
            .map(|i| {
                inventory.push(
                    format!("enb-{i}"),
                    NfType::ENodeB,
                    Attributes::new().with("market", market(i)),
                )
            })
            .collect();
        let mut topology = Topology::with_capacity(2 * op.study as usize);
        for i in 0..op.study {
            let control = inventory.push(
                format!("ctl-{i}"),
                NfType::ENodeB,
                Attributes::new().with("market", market(i)),
            );
            topology.add_edge(study[i as usize], control);
        }
        let change_minute = (op.ticks / 2) * STEP_MINUTES;
        let gen = KpiGenerator {
            seed: op.seed,
            noise: 0.01,
            step_minutes: STEP_MINUTES,
            ..KpiGenerator::default()
        };
        let series = (0..2 * op.study)
            .map(|n| {
                let node = NodeId(n);
                let impacts: Vec<InjectedImpact> = match op.impact {
                    Some(magnitude) if n < op.study => vec![InjectedImpact {
                        node,
                        kpi: VERIFY_KPIS[0].into(),
                        carrier: None,
                        at_minute: change_minute,
                        kind: ImpactKind::LevelShift,
                        magnitude,
                    }],
                    _ => Vec::new(),
                };
                VERIFY_KPIS
                    .iter()
                    .map(|kpi| gen.series(node, kpi, None, op.ticks as usize, &impacts))
                    .collect()
            })
            .collect();
        let mut rule = VerificationRule::standard(
            "session",
            vec![
                KpiQuery::monitor(VERIFY_KPIS[0], true),
                KpiQuery::monitor(VERIFY_KPIS[1], false),
            ],
        );
        rule.location_attributes = vec!["market".into()];
        Session {
            op: *op,
            scope: ChangeScope::simultaneous(&study, change_minute),
            inventory,
            topology,
            rule,
            series,
        }
    }

    pub fn samples(&self) -> u64 {
        2 * self.op.study as u64 * VERIFY_KPIS.len() as u64 * self.op.ticks
    }

    pub fn engine(&self, tracer: Tracer) -> StreamingVerifier {
        StreamingVerifier::new(
            vec![self.rule.clone()],
            self.scope.clone(),
            self.inventory.clone(),
            self.topology.clone(),
            StreamConfig {
                step_minutes: STEP_MINUTES,
                queue_capacity: self.samples() as usize,
                ..StreamConfig::default()
            },
            tracer,
        )
    }

    /// Offer tick `k` of every stream.
    pub fn offer_tick(&self, engine: &StreamingVerifier, k: u64) {
        for (n, per_kpi) in self.series.iter().enumerate() {
            for (kpi, series) in VERIFY_KPIS.iter().zip(per_kpi) {
                engine.offer(StreamSample {
                    node: NodeId(n as u32),
                    kpi: (*kpi).to_string(),
                    carrier: None,
                    minute: k * STEP_MINUTES,
                    value: series.values[k as usize],
                });
            }
        }
    }

    /// Stream the whole feed; the verdicts of the final poll.
    pub fn stream(&self, engine: &StreamingVerifier) -> Result<Vec<VerificationReport>, String> {
        let change_tick = self.op.ticks / 2;
        for k in 0..self.op.ticks {
            self.offer_tick(engine, k);
            if k % PUMP_EVERY == PUMP_EVERY - 1 {
                engine.pump();
            }
            let upto = k + 1;
            if upto > change_tick && upto % POLL_EVERY == 0 && upto < self.op.ticks {
                engine.pump();
                engine.poll_verdicts().map_err(|e| e.to_string())?;
            }
        }
        engine.pump();
        engine.poll_verdicts().map_err(|e| e.to_string())
    }

    pub fn batch(&self, tracer: &Tracer) -> Result<Vec<VerificationReport>, String> {
        let adapter = ClosureAdapter(|node: NodeId, kpi: &str, _: Option<usize>| {
            let k = VERIFY_KPIS.iter().position(|name| *name == kpi)?;
            self.series
                .get(node.0 as usize)
                .map(|per_kpi| per_kpi[k].clone())
        });
        verify_rules_traced(
            &adapter,
            std::slice::from_ref(&self.rule),
            &self.scope,
            &self.inventory,
            &self.topology,
            tracer,
            None,
        )
        .map_err(|e| e.to_string())
    }

    /// Verdict the injected ground truth demands for `kpi` (§4.3).
    fn truth(&self, kpi: &str) -> ImpactVerdict {
        match self.op.impact {
            Some(m) if kpi == VERIFY_KPIS[0] && m > 0.0 => ImpactVerdict::Improvement,
            Some(_) if kpi == VERIFY_KPIS[0] => ImpactVerdict::Degradation,
            _ => ImpactVerdict::NoImpact,
        }
    }
}

/// (KPI × location) units one batch pass evaluated.
pub fn units_of(reports: &[VerificationReport]) -> u64 {
    reports
        .iter()
        .flat_map(|r| &r.kpis)
        .map(|k| 1 + k.per_location.len() as u64)
        .sum()
}

/// Streamed verdicts must equal batch to the bit (decision, verdicts,
/// p-values overall and per location).
pub fn bit_equal(
    streamed: &[VerificationReport],
    batch: &[VerificationReport],
) -> Result<(), String> {
    ensure(streamed.len() == batch.len(), || {
        "report count differs".into()
    })?;
    for (s, b) in streamed.iter().zip(batch) {
        ensure(
            s.decision == b.decision && s.kpis.len() == b.kpis.len(),
            || format!("rule {}: streamed decision differs from batch", s.rule),
        )?;
        for (sk, bk) in s.kpis.iter().zip(&b.kpis) {
            let same = |x: &cornet_verifier::KpiAnalysis, y: &cornet_verifier::KpiAnalysis| {
                x.verdict == y.verdict && x.p_value.to_bits() == y.p_value.to_bits()
            };
            ensure(same(&sk.overall, &bk.overall), || {
                format!(
                    "{}: streamed overall verdict/p-value differs from batch",
                    sk.query.kpi
                )
            })?;
            ensure(sk.per_location.len() == bk.per_location.len(), || {
                format!("{}: location count differs", sk.query.kpi)
            })?;
            for (sl, bl) in sk.per_location.iter().zip(&bk.per_location) {
                let equal = match (&sl.analysis, &bl.analysis) {
                    (Ok(x), Ok(y)) => same(x, y),
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                };
                ensure(equal, || {
                    format!(
                        "{} @ {}={}: streamed differs from batch",
                        sk.query.kpi, sl.attribute, sl.value
                    )
                })?;
            }
        }
    }
    Ok(())
}

pub struct KpiVerify {
    env: Env,
    sessions: Vec<Session>,
    units: u64,
    units_repeat: bool,
    cycles: u64,
}

impl KpiVerify {
    pub fn setup(env: &Env) -> KpiVerify {
        KpiVerify {
            env: env.clone(),
            sessions: verify_ops(env.seed, env.quick)
                .iter()
                .map(Session::generate)
                .collect(),
            units: 0,
            units_repeat: true,
            cycles: 0,
        }
    }
}

impl Workload for KpiVerify {
    fn ops_fingerprint(&self) -> u64 {
        let ops: Vec<VerifyOp> = self.sessions.iter().map(|s| s.op).collect();
        crate::gen::fingerprint(&ops)
    }

    fn run_cycle(&mut self, traced: bool) -> Vec<OpResult> {
        let tracer = self.env.tracer_for(traced);
        let mut units = 0;
        let mut results = Vec::with_capacity(self.sessions.len());
        let regular_ticks = self.sessions.iter().map(|s| s.op.ticks).min();
        for (i, session) in self.sessions.iter().enumerate() {
            let class = if Some(session.op.ticks) == regular_ticks {
                "session.regular"
            } else {
                "session.long"
            };
            let span = op_span(&tracer, i, class);
            let started = Instant::now();
            let engine = session.engine(tracer.clone());
            let streamed = layer_call(&tracer, &span, "verifier.stream", |_| {
                session.stream(&engine)
            });
            let batch = layer_call(&tracer, &span, "verifier.verify_rules", |_| {
                session.batch(&tracer)
            });
            let latency = started.elapsed().as_secs_f64();
            let stats = engine.stats();
            let oracle = |streamed: Vec<VerificationReport>| {
                let batch = batch?;
                units += units_of(&batch);
                bit_equal(&streamed, &batch)?;
                ensure(
                    stats.processed == session.samples() && stats.shed == 0,
                    || {
                        format!(
                            "processed {} of {} offered, {} shed",
                            stats.processed,
                            session.samples(),
                            stats.shed
                        )
                    },
                )?;
                for kr in batch.iter().flat_map(|r| &r.kpis) {
                    let want = session.truth(&kr.query.kpi);
                    ensure(kr.overall.verdict == want, || {
                        format!(
                            "{}: verdict {:?}, ground truth {want:?}",
                            kr.query.kpi, kr.overall.verdict
                        )
                    })?;
                }
                Ok(())
            };
            let verdict = layer_call(&tracer, &span, "harness.oracle", |_| {
                streamed.and_then(oracle)
            });
            let reference = layer_call(&tracer, &span, "harness.reference", |_| {
                self.env.reference.sample()
            });
            span.finish();
            results.push(OpResult::new(class, latency, reference, verdict));
        }
        if self.cycles > 0 && units != self.units {
            self.units_repeat = false;
        }
        self.units = units;
        self.cycles += 1;
        results
    }

    fn check_counts(&self) -> Result<(), String> {
        ensure(self.units_repeat, || {
            "verifier.units differed between cycles".into()
        })
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        vec![Metric::new("verifier.units", self.units as f64, "count")]
    }
}
