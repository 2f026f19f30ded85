//! Campaign lifecycle events and their JSON wire form.
//!
//! The journal stores primitive records — status labels as strings, nodes
//! and slots as integers, global state as a type-tagged value tree — so
//! the log can be decoded without any orchestrator types in scope. The
//! orchestrator owns the translation to and from its richer structures.
//!
//! Events are written and read through `cornet_types::json`. Numbers
//! that must survive the reader's f64 representation exactly
//! (i64 params, durations in nanoseconds) are carried as strings; the
//! tagged parameter encoding (`{"i":"42"}` vs `{"f":"42"}`) keeps int and
//! float values distinct where untagged JSON could not.

use cornet_types::json::{Cursor, JsonValue, JsonWriter};
use cornet_types::{CornetError, ParamValue, Result};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Global state snapshot as stored in the journal — identical in shape to
/// the orchestrator's `GlobalState`.
pub type StateMap = BTreeMap<String, ParamValue>;

/// One block execution, exactly as the engine logged it, plus the full
/// post-block state snapshot that makes kill-safe replay possible.
#[derive(Clone, Debug, PartialEq)]
pub struct BlockRecord {
    /// Target node (the schedule's `NodeId`).
    pub node: u32,
    /// Timeslot the instance runs in.
    pub slot: u32,
    /// Building-block name.
    pub block: String,
    /// Outcome label: `success`, `failed`, `timed_out`, or `recovered`.
    pub status: String,
    /// Executor invocations consumed (1 = first try succeeded).
    pub attempts: u32,
    /// Total execution time across attempts, in nanoseconds.
    pub duration_ns: u64,
    /// Total backoff waited between attempts, in nanoseconds.
    pub backoff_ns: u64,
    /// Terminal error message, for failed/timed-out blocks.
    pub error: Option<String>,
    /// True when this block ran inside a backout flow.
    pub backout: bool,
    /// Global state immediately after the block (mutations applied even
    /// when the block failed — executors mutate before erroring).
    pub state: StateMap,
}

/// Recovery statistics from opening an existing journal.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Recovery {
    /// Records decoded successfully.
    pub events: usize,
    /// Byte length of the valid prefix kept.
    pub valid_len: u64,
    /// Bytes discarded past the valid prefix (torn tail).
    pub dropped_bytes: u64,
    /// True when any bytes were discarded.
    pub torn: bool,
}

/// One campaign lifecycle event.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// A fresh campaign began: identifying metadata, the full schedule as
    /// `(node, slot)` assignments, and the dispatcher concurrency.
    CampaignOpened {
        /// Free-form campaign metadata (seed, fault plan, workflow name…).
        meta: BTreeMap<String, String>,
        /// Schedule assignments as `(node, slot)` pairs.
        assignments: Vec<(u32, u32)>,
        /// Dispatcher concurrency of the original run.
        concurrency: u32,
    },
    /// A crashed campaign was reopened for resume (marker only — replay
    /// derives everything from the surviving records).
    CampaignResumed {
        /// Metadata echoed from the recovered campaign.
        meta: BTreeMap<String, String>,
    },
    /// An instance entered the admission pool.
    InstanceAdmitted {
        /// Target node.
        node: u32,
        /// Timeslot.
        slot: u32,
    },
    /// A block finished (any outcome) — the write-ahead unit of replay.
    BlockCompleted(BlockRecord),
    /// An instance reached a terminal status.
    InstanceFinished {
        /// Target node.
        node: u32,
        /// Timeslot.
        slot: u32,
        /// Status label: `completed`, `failed`, or `rolled_back`.
        status: String,
        /// Failing block (for `failed`/`rolled_back`) or detail message.
        detail: Option<String>,
    },
    /// The circuit breaker tripped and halted admission.
    BreakerTripped {
        /// Block whose fall-out crossed the threshold.
        block: String,
        /// Observed failure rate at the trip.
        failure_rate: f64,
        /// Instances sampled when the trip fired.
        samples: u64,
    },
    /// The dispatch ended and its report was handed back — nothing left
    /// to resume. A dispatch that ran every slot to its end closes bare
    /// (`{"ev":"campaign_closed"}`, `None`); one that halted or was
    /// cancelled writes the two facts its records cannot show, because
    /// they depend on timing (see [`Halt`]).
    CampaignClosed(Option<Halt>),
}

/// How a halted or cancelled dispatch ended: the optional fields of
/// `campaign_closed`, written together.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Halt {
    /// Length of the report's deterministic prefix (`ordered`): the
    /// schedule's first `ordered` instances in dispatch order (slot, then
    /// node) are the report; instances that finished past it drained.
    pub ordered: u32,
    /// A cancel halted the dispatch (`cancelled`), not a breaker or gate.
    pub cancelled: bool,
}

impl JournalEvent {
    /// Short machine name of the event kind (the `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::CampaignOpened { .. } => "campaign_opened",
            JournalEvent::CampaignResumed { .. } => "campaign_resumed",
            JournalEvent::InstanceAdmitted { .. } => "instance_admitted",
            JournalEvent::BlockCompleted(_) => "block_completed",
            JournalEvent::InstanceFinished { .. } => "instance_finished",
            JournalEvent::BreakerTripped { .. } => "breaker_tripped",
            JournalEvent::CampaignClosed(_) => "campaign_closed",
        }
    }

    /// Render the event as a single JSON document (one journal payload).
    pub fn encode(&self) -> String {
        let mut s = String::with_capacity(64);
        self.encode_into(&mut s);
        s
    }

    /// Append the event's JSON document to `out`: the journal writes it
    /// straight into the buffer it frames the record in.
    pub(crate) fn encode_into(&self, out: &mut String) {
        let mut w = JsonWriter::compact(out);
        w.begin_object();
        w.key("ev").str(self.kind());
        match self {
            JournalEvent::CampaignOpened {
                meta,
                assignments,
                concurrency,
            } => {
                write_string_map(w.key("meta"), meta);
                w.key("assignments").begin_array();
                for &(node, slot) in assignments {
                    w.begin_array().int(node).int(slot).end_array();
                }
                w.end_array();
                w.key("concurrency").int(*concurrency);
            }
            JournalEvent::CampaignResumed { meta } => write_string_map(w.key("meta"), meta),
            JournalEvent::InstanceAdmitted { node, slot } => {
                w.key("node").int(*node).key("slot").int(*slot);
            }
            JournalEvent::BlockCompleted(r) => {
                w.key("node").int(r.node).key("slot").int(r.slot);
                w.key("block").str(&r.block);
                w.key("status").str(&r.status);
                w.key("attempts").int(r.attempts);
                w.key("duration_ns").display(r.duration_ns);
                w.key("backoff_ns").display(r.backoff_ns);
                if let Some(err) = &r.error {
                    w.key("error").str(err);
                }
                if r.backout {
                    w.key("backout").bool(true);
                }
                write_state(w.key("state"), &r.state);
            }
            JournalEvent::InstanceFinished {
                node,
                slot,
                status,
                detail,
            } => {
                w.key("node").int(*node).key("slot").int(*slot);
                w.key("status").str(status);
                if let Some(d) = detail {
                    w.key("detail").str(d);
                }
            }
            JournalEvent::BreakerTripped {
                block,
                failure_rate,
                samples,
            } => {
                w.key("block").str(block);
                w.key("failure_rate").display(failure_rate);
                w.key("samples").int(*samples);
            }
            JournalEvent::CampaignClosed(halt) => {
                if let Some(h) = halt {
                    w.key("ordered").int(h.ordered);
                    w.key("cancelled").bool(h.cancelled);
                }
            }
        }
        w.end_object();
    }

    /// Decode one journal payload back into an event.
    ///
    /// One walk of a [`Cursor`] and no tree: keys are compared in place,
    /// a key the event's kind does not model is read past, and of a
    /// repeated key the first copy counts. Nesting is bounded by the
    /// cursor's `MAX_DEPTH`, state maps included.
    pub fn decode(payload: &str) -> Result<JournalEvent> {
        let mut c = Cursor::new(payload);
        c.begin_object()?;
        let kind = match c.next_key()? {
            Some(key) if key == "ev" => c.string()?,
            // Not where the encoder puts it: find its first copy, then
            // walk the object again from the top.
            _ => {
                let kind = kind_anywhere(payload)?;
                c = Cursor::new(payload);
                c.begin_object()?;
                kind
            }
        };
        match &*kind {
            "campaign_opened" => {
                let (mut meta, mut assignments, mut concurrency) = (None, None, None);
                fields(c, |key, c| {
                    match key {
                        "meta" if meta.is_none() => meta = Some(string_map(c)?),
                        "assignments" if assignments.is_none() => {
                            assignments = Some(schedule_pairs(c)?)
                        }
                        "concurrency" if concurrency.is_none() => concurrency = Some(u32_at(c)?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::CampaignOpened {
                    meta: meta.ok_or_else(|| bad("missing meta object"))?,
                    assignments: assignments
                        .ok_or_else(|| bad("campaign_opened without assignments"))?,
                    concurrency: required(concurrency, "concurrency")?,
                })
            }
            "campaign_resumed" => {
                let mut meta = None;
                fields(c, |key, c| {
                    match key {
                        "meta" if meta.is_none() => meta = Some(string_map(c)?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::CampaignResumed {
                    meta: meta.ok_or_else(|| bad("missing meta object"))?,
                })
            }
            "instance_admitted" => {
                let (mut node, mut slot) = (None, None);
                fields(c, |key, c| {
                    match key {
                        "node" if node.is_none() => node = Some(u32_at(c)?),
                        "slot" if slot.is_none() => slot = Some(u32_at(c)?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::InstanceAdmitted {
                    node: required(node, "node")?,
                    slot: required(slot, "slot")?,
                })
            }
            "block_completed" => {
                let (mut node, mut slot, mut attempts) = (None, None, None);
                let (mut block, mut status, mut error) = (None, None, None);
                let (mut duration_ns, mut backoff_ns) = (None, None);
                let (mut backout, mut state) = (None, None);
                fields(c, |key, c| {
                    match key {
                        "node" if node.is_none() => node = Some(u32_at(c)?),
                        "slot" if slot.is_none() => slot = Some(u32_at(c)?),
                        "block" if block.is_none() => block = Some(c.string()?.into_owned()),
                        "status" if status.is_none() => status = Some(c.string()?.into_owned()),
                        "attempts" if attempts.is_none() => attempts = Some(u32_at(c)?),
                        "duration_ns" if duration_ns.is_none() => {
                            duration_ns = Some(nanos(c, "duration_ns")?)
                        }
                        "backoff_ns" if backoff_ns.is_none() => {
                            backoff_ns = Some(nanos(c, "backoff_ns")?)
                        }
                        "error" if error.is_none() => error = Some(lenient_string(c)?),
                        "backout" if backout.is_none() => {
                            backout = Some(matches!(c.value()?, JsonValue::Bool(true)))
                        }
                        "state" if state.is_none() => state = Some(state_map(c)?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::BlockCompleted(BlockRecord {
                    node: required(node, "node")?,
                    slot: required(slot, "slot")?,
                    block: required(block, "block")?,
                    status: required(status, "status")?,
                    attempts: required(attempts, "attempts")?,
                    duration_ns: required(duration_ns, "duration_ns")?,
                    backoff_ns: required(backoff_ns, "backoff_ns")?,
                    error: error.flatten(),
                    backout: backout.unwrap_or(false),
                    state: state.ok_or_else(|| bad("block without state"))?,
                }))
            }
            "instance_finished" => {
                let (mut node, mut slot, mut status, mut detail) = (None, None, None, None);
                fields(c, |key, c| {
                    match key {
                        "node" if node.is_none() => node = Some(u32_at(c)?),
                        "slot" if slot.is_none() => slot = Some(u32_at(c)?),
                        "status" if status.is_none() => status = Some(c.string()?.into_owned()),
                        "detail" if detail.is_none() => detail = Some(lenient_string(c)?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::InstanceFinished {
                    node: required(node, "node")?,
                    slot: required(slot, "slot")?,
                    status: required(status, "status")?,
                    detail: detail.flatten(),
                })
            }
            "breaker_tripped" => {
                let (mut block, mut failure_rate, mut samples) = (None, None, None);
                fields(c, |key, c| {
                    match key {
                        "block" if block.is_none() => block = Some(c.string()?.into_owned()),
                        "failure_rate" if failure_rate.is_none() => {
                            failure_rate = Some(
                                c.string()?
                                    .parse()
                                    .map_err(|_| bad("malformed failure_rate"))?,
                            )
                        }
                        "samples" if samples.is_none() => {
                            samples = Some(match c.value()? {
                                JsonValue::String(s) => {
                                    s.parse().map_err(|_| bad("malformed u64"))?
                                }
                                JsonValue::Number(n) => u64::from(u32_of(n)?),
                                _ => return Err(bad("expected a number")),
                            })
                        }
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                Ok(JournalEvent::BreakerTripped {
                    block: required(block, "block")?,
                    failure_rate: required(failure_rate, "failure_rate")?,
                    samples: required(samples, "samples")?,
                })
            }
            "campaign_closed" => {
                let (mut ordered, mut cancelled) = (None, None);
                fields(c, |key, c| {
                    match key {
                        "ordered" if ordered.is_none() => ordered = Some(u32_at(c)?),
                        "cancelled" if cancelled.is_none() => cancelled = Some(c.boolean()?),
                        _ => return Ok(false),
                    }
                    Ok(true)
                })?;
                if ordered.is_none() && cancelled.is_some() {
                    return Err(bad("campaign_closed: cancelled without ordered"));
                }
                let halt = ordered.map(|ordered| Halt {
                    ordered,
                    cancelled: cancelled.unwrap_or(false),
                });
                Ok(JournalEvent::CampaignClosed(halt))
            }
            other => Err(bad(&format!("unknown event kind '{other}'"))),
        }
    }
}

fn bad(msg: &str) -> CornetError {
    CornetError::DataIntegrity(format!("journal event: {msg}"))
}

fn required<T>(field: Option<T>, key: &str) -> Result<T> {
    field.ok_or_else(|| bad(&format!("missing field '{key}'")))
}

/// The first `ev` of an event object that does not open with it.
fn kind_anywhere(payload: &str) -> Result<Cow<'_, str>> {
    let mut c = Cursor::new(payload);
    c.begin_object()?;
    while let Some(key) = c.next_key()? {
        if key == "ev" {
            return c.string();
        }
        c.value()?;
    }
    Err(bad("missing string field 'ev'"))
}

/// Walk the rest of an event object: `field` is offered each key and
/// answers whether it read the value; the values it leaves, every `ev`
/// included, are read past. The document must then end.
fn fields<'a>(
    mut c: Cursor<'a>,
    mut field: impl FnMut(&str, &mut Cursor<'a>) -> Result<bool>,
) -> Result<()> {
    while let Some(key) = c.next_key()? {
        if key == "ev" || !field(&key, &mut c)? {
            c.value()?;
        }
    }
    c.end()
}

fn u32_of(n: f64) -> Result<u32> {
    if n.fract() != 0.0 || !(0.0..=f64::from(u32::MAX)).contains(&n) {
        return Err(bad(&format!("number {n} is not a u32")));
    }
    Ok(n as u32)
}

fn u32_at(c: &mut Cursor<'_>) -> Result<u32> {
    u32_of(c.number()?)
}

/// Nanosecond counters are written as strings for exact round-tripping.
fn nanos(c: &mut Cursor<'_>, key: &str) -> Result<u64> {
    c.string()?
        .parse()
        .map_err(|_| bad(&format!("malformed nanosecond field '{key}'")))
}

/// An optional message: any value that is not a string reads as absent.
fn lenient_string(c: &mut Cursor<'_>) -> Result<Option<String>> {
    Ok(match c.value()? {
        JsonValue::String(s) => Some(s),
        _ => None,
    })
}

/// `[[node, slot], …]`; items past the pair are read past.
fn schedule_pairs(c: &mut Cursor<'_>) -> Result<Vec<(u32, u32)>> {
    c.begin_array()?;
    let mut pairs = Vec::new();
    while c.next_item()? {
        c.begin_array()?;
        let mut pair = [0; 2];
        for half in &mut pair {
            if !c.next_item()? {
                return Err(bad("malformed schedule assignment"));
            }
            *half = u32_at(c)?;
        }
        while c.next_item()? {
            c.value()?;
        }
        pairs.push((pair[0], pair[1]));
    }
    Ok(pairs)
}

pub(crate) fn write_string_map(w: &mut JsonWriter<'_>, map: &BTreeMap<String, String>) {
    w.begin_object();
    for (k, v) in map {
        w.key(k).str(v);
    }
    w.end_object();
}

/// A string-valued object; of a repeated key the last copy counts.
fn string_map(c: &mut Cursor<'_>) -> Result<BTreeMap<String, String>> {
    c.begin_object()?;
    let mut map = BTreeMap::new();
    while let Some(key) = c.next_key()? {
        let value = c.string()?.into_owned();
        map.insert(key.into_owned(), value);
    }
    Ok(map)
}

fn write_state(w: &mut JsonWriter<'_>, state: &StateMap) {
    w.begin_object();
    for (k, v) in state {
        write_param(w.key(k), v);
    }
    w.end_object();
}

/// Type-tagged parameter encoding. Int and float payloads are carried as
/// strings so `i64` precision and non-finite floats (`NaN`, `inf`) survive
/// the reader's f64-only number representation.
fn write_param(w: &mut JsonWriter<'_>, v: &ParamValue) {
    w.begin_object();
    match v {
        ParamValue::Str(x) => {
            w.key("s").str(x);
        }
        ParamValue::Int(x) => {
            w.key("i").display(x);
        }
        ParamValue::Float(x) => {
            w.key("f").display(x);
        }
        ParamValue::Bool(x) => {
            w.key("b").bool(*x);
        }
        ParamValue::List(items) => {
            w.key("l").begin_array();
            for item in items {
                write_param(w, item);
            }
            w.end_array();
        }
        ParamValue::Map(map) => write_state(w.key("m"), map),
    }
    w.end_object();
}

/// A state object; of a repeated key the last copy counts.
fn state_map(c: &mut Cursor<'_>) -> Result<StateMap> {
    c.begin_object()?;
    let mut state = StateMap::new();
    while let Some(key) = c.next_key()? {
        let value = param(c)?;
        state.insert(key.into_owned(), value);
    }
    Ok(state)
}

/// One tagged parameter. `l` and `m` recurse, each level through one
/// `begin_*`, so the cursor's depth cap bounds the recursion.
fn param(c: &mut Cursor<'_>) -> Result<ParamValue> {
    let one_tag = || bad("parameter must have exactly one tag");
    c.begin_object()?;
    let tag = c.next_key()?.ok_or_else(one_tag)?;
    let value = match &*tag {
        "s" => ParamValue::Str(c.string()?.into_owned()),
        "i" => ParamValue::Int(
            c.string()?
                .parse()
                .map_err(|_| bad("'i' tag holds a stringified i64"))?,
        ),
        "f" => ParamValue::Float(
            c.string()?
                .parse()
                .map_err(|_| bad("'f' tag holds a stringified f64"))?,
        ),
        "b" => ParamValue::Bool(c.boolean()?),
        "l" => {
            c.begin_array()?;
            let mut items = Vec::new();
            while c.next_item()? {
                items.push(param(c)?);
            }
            ParamValue::List(items)
        }
        "m" => ParamValue::Map(state_map(c)?),
        other => return Err(bad(&format!("unknown parameter tag '{other}'"))),
    };
    match c.next_key()? {
        None => Ok(value),
        Some(_) => Err(one_tag()),
    }
}

#[cfg(test)]
mod equivalence;

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(ev: JournalEvent) {
        let enc = ev.encode();
        let back = JournalEvent::decode(&enc).unwrap_or_else(|e| panic!("{e}: {enc}"));
        assert_eq!(back, ev, "wire form: {enc}");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut meta = BTreeMap::new();
        meta.insert("seed".into(), "42".into());
        meta.insert("plan \"x\"\n".into(), "with\tescapes".into());
        round_trip(JournalEvent::CampaignOpened {
            meta: meta.clone(),
            assignments: vec![(0, 1), (7, 2), (u32::MAX, 5)],
            concurrency: 4,
        });
        round_trip(JournalEvent::CampaignResumed { meta });
        round_trip(JournalEvent::InstanceAdmitted { node: 3, slot: 1 });
        round_trip(JournalEvent::InstanceFinished {
            node: 3,
            slot: 1,
            status: "rolled_back".into(),
            detail: Some("software_upgrade".into()),
        });
        round_trip(JournalEvent::InstanceFinished {
            node: 4,
            slot: 1,
            status: "completed".into(),
            detail: None,
        });
        round_trip(JournalEvent::BreakerTripped {
            block: "software_upgrade".into(),
            failure_rate: 0.8333333333333334,
            samples: 6,
        });
        round_trip(JournalEvent::CampaignClosed(None));
        for cancelled in [false, true] {
            round_trip(JournalEvent::CampaignClosed(Some(Halt {
                ordered: u32::MAX,
                cancelled,
            })));
        }
    }

    #[test]
    fn a_bare_close_is_byte_stable_and_a_halted_close_carries_both_fields() {
        assert_eq!(
            JournalEvent::CampaignClosed(None).encode(),
            r#"{"ev":"campaign_closed"}"#
        );
        let halted = JournalEvent::CampaignClosed(Some(Halt {
            ordered: 5,
            cancelled: true,
        }));
        assert_eq!(
            halted.encode(),
            r#"{"ev":"campaign_closed","ordered":5,"cancelled":true}"#
        );
        for not_a_u32 in ["-1", "4294967296", "2.5", "1e999"] {
            let payload = format!(r#"{{"ev":"campaign_closed","ordered":{not_a_u32}}}"#);
            let err = JournalEvent::decode(&payload).unwrap_err();
            assert!(
                matches!(err, CornetError::DataIntegrity(_)),
                "{payload}: {err}"
            );
        }
    }

    #[test]
    fn block_record_round_trips_with_full_state() {
        let mut state = StateMap::new();
        state.insert("node".into(), ParamValue::from("enb-1"));
        state.insert("count".into(), ParamValue::Int(i64::MIN));
        state.insert("big".into(), ParamValue::Int(i64::MAX));
        state.insert("rate".into(), ParamValue::Float(0.1 + 0.2));
        state.insert("nan".into(), ParamValue::Float(f64::NAN));
        state.insert("inf".into(), ParamValue::Float(f64::NEG_INFINITY));
        state.insert("ok".into(), ParamValue::Bool(true));
        state.insert(
            "list".into(),
            ParamValue::List(vec![ParamValue::Int(1), ParamValue::from("x")]),
        );
        let mut inner = StateMap::new();
        inner.insert("k".into(), ParamValue::from("v"));
        state.insert("map".into(), ParamValue::Map(inner));

        let ev = JournalEvent::BlockCompleted(BlockRecord {
            node: 12,
            slot: 2,
            block: "software_upgrade".into(),
            status: "recovered".into(),
            attempts: 3,
            duration_ns: u64::MAX,
            backoff_ns: 1_500_000_000,
            error: Some("injected fault: \"quoted\"".into()),
            backout: true,
            state,
        });
        // NaN breaks PartialEq, so compare the double round-trip wire form.
        let enc = ev.encode();
        let back = JournalEvent::decode(&enc).unwrap();
        assert_eq!(back.encode(), enc);
        let JournalEvent::BlockCompleted(r) = back else {
            panic!("kind changed");
        };
        assert_eq!(r.state["count"], ParamValue::Int(i64::MIN));
        assert_eq!(r.state["big"], ParamValue::Int(i64::MAX));
        assert_eq!(r.state["rate"], ParamValue::Float(0.1 + 0.2));
        assert!(matches!(r.state["nan"], ParamValue::Float(f) if f.is_nan()));
        assert_eq!(r.duration_ns, u64::MAX);
        assert!(r.backout);
    }

    #[test]
    fn int_and_float_stay_distinct() {
        let mut state = StateMap::new();
        state.insert("i".into(), ParamValue::Int(2));
        state.insert("f".into(), ParamValue::Float(2.0));
        let ev = JournalEvent::BlockCompleted(BlockRecord {
            node: 0,
            slot: 1,
            block: "b".into(),
            status: "success".into(),
            attempts: 1,
            duration_ns: 0,
            backoff_ns: 0,
            error: None,
            backout: false,
            state,
        });
        let JournalEvent::BlockCompleted(r) = JournalEvent::decode(&ev.encode()).unwrap() else {
            panic!()
        };
        assert_eq!(r.state["i"], ParamValue::Int(2));
        assert_eq!(r.state["f"], ParamValue::Float(2.0));
    }

    #[test]
    fn garbage_payloads_are_typed_errors() {
        for bad in [
            "not json",
            "{}",
            r#"{"ev":"wat"}"#,
            r#"{"ev":"instance_admitted","node":"x","slot":1}"#,
            r#"{"ev":"block_completed","node":1,"slot":1}"#,
            r#"{"ev":"campaign_closed","ordered":-1,"cancelled":false}"#,
            r#"{"ev":"campaign_closed","ordered":4294967296,"cancelled":false}"#,
            r#"{"ev":"campaign_closed","ordered":2.5,"cancelled":false}"#,
            r#"{"ev":"campaign_closed","ordered":"3","cancelled":false}"#,
            r#"{"ev":"campaign_closed","ordered":3,"cancelled":"yes"}"#,
            r#"{"ev":"campaign_closed","cancelled":true}"#,
        ] {
            assert!(
                matches!(
                    JournalEvent::decode(bad),
                    Err(CornetError::DataIntegrity(_) | CornetError::Parse(_))
                ),
                "payload {bad:?} must fail to decode"
            );
        }
    }
}
