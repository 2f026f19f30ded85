//! The cursor decoder is the tree decoder it replaced, on every input: the
//! tree decoder is kept here as the reference, and [`JournalEvent::decode`]
//! must give its answer — both `Err`, or equal events — on the golden
//! journals, on generated events of every kind, on hand-written edge
//! cases, and on byte mutations of all of them (truncation, single-byte
//! flips, splices). Neither may panic. The generated suite runs the
//! default case count, so CI raises it with `PROPTEST_CASES`.

use super::*;
use crate::frame::{encode_record, scan};
use crate::writer::{FsyncPolicy, Journal};
use cornet_types::json::{parse, MAX_DEPTH};
use proptest::prelude::*;

/// `JournalEvent::decode` as it was: the whole payload parsed into a
/// tree, then each field looked up in it (first copy of a key).
fn decode_tree(payload: &str) -> Result<JournalEvent> {
    let v = parse(payload)?;
    let kind = req_str(&v, "ev")?;
    match kind {
        "campaign_opened" => {
            let assignments = v
                .get("assignments")
                .and_then(JsonValue::as_array)
                .ok_or_else(|| bad("campaign_opened without assignments"))?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array().unwrap_or_default();
                    match (pair.first(), pair.get(1)) {
                        (Some(n), Some(s)) => Ok((num_u32(n)?, num_u32(s)?)),
                        _ => Err(bad("malformed schedule assignment")),
                    }
                })
                .collect::<Result<_>>()?;
            Ok(JournalEvent::CampaignOpened {
                meta: tree_string_map(&v)?,
                assignments,
                concurrency: req_u32(&v, "concurrency")?,
            })
        }
        "campaign_resumed" => Ok(JournalEvent::CampaignResumed {
            meta: tree_string_map(&v)?,
        }),
        "instance_admitted" => Ok(JournalEvent::InstanceAdmitted {
            node: req_u32(&v, "node")?,
            slot: req_u32(&v, "slot")?,
        }),
        "block_completed" => Ok(JournalEvent::BlockCompleted(BlockRecord {
            node: req_u32(&v, "node")?,
            slot: req_u32(&v, "slot")?,
            block: req_str(&v, "block")?.to_owned(),
            status: req_str(&v, "status")?.to_owned(),
            attempts: req_u32(&v, "attempts")?,
            duration_ns: req_ns(&v, "duration_ns")?,
            backoff_ns: req_ns(&v, "backoff_ns")?,
            error: opt_str(&v, "error"),
            backout: matches!(v.get("backout"), Some(JsonValue::Bool(true))),
            state: tree_state(v.get("state").ok_or_else(|| bad("block without state"))?)?,
        })),
        "instance_finished" => Ok(JournalEvent::InstanceFinished {
            node: req_u32(&v, "node")?,
            slot: req_u32(&v, "slot")?,
            status: req_str(&v, "status")?.to_owned(),
            detail: opt_str(&v, "detail"),
        }),
        "breaker_tripped" => Ok(JournalEvent::BreakerTripped {
            block: req_str(&v, "block")?.to_owned(),
            failure_rate: req_str(&v, "failure_rate")?
                .parse()
                .map_err(|_| bad("malformed failure_rate"))?,
            samples: req_str_or_num_u64(&v, "samples")?,
        }),
        "campaign_closed" => {
            let ordered = v.get("ordered").map(num_u32).transpose()?;
            let cancelled = match v.get("cancelled") {
                None => None,
                Some(JsonValue::Bool(b)) => Some(*b),
                Some(_) => return Err(bad("expected a boolean")),
            };
            match (ordered, cancelled) {
                (None, None) => Ok(JournalEvent::CampaignClosed(None)),
                (Some(ordered), cancelled) => Ok(JournalEvent::CampaignClosed(Some(Halt {
                    ordered,
                    cancelled: cancelled.unwrap_or(false),
                }))),
                (None, Some(_)) => Err(bad("campaign_closed: cancelled without ordered")),
            }
        }
        other => Err(bad(&format!("unknown event kind '{other}'"))),
    }
}

fn req_str<'a>(v: &'a JsonValue, key: &str) -> Result<&'a str> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| bad(&format!("missing string field '{key}'")))
}

fn opt_str(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(JsonValue::as_str).map(str::to_owned)
}

fn num_u32(v: &JsonValue) -> Result<u32> {
    u32_of(v.as_f64().ok_or_else(|| bad("expected a number"))?)
}

fn req_u32(v: &JsonValue, key: &str) -> Result<u32> {
    num_u32(
        v.get(key)
            .ok_or_else(|| bad(&format!("missing field '{key}'")))?,
    )
}

fn req_ns(v: &JsonValue, key: &str) -> Result<u64> {
    req_str(v, key)?
        .parse()
        .map_err(|_| bad(&format!("malformed nanosecond field '{key}'")))
}

fn req_str_or_num_u64(v: &JsonValue, key: &str) -> Result<u64> {
    let v = v
        .get(key)
        .ok_or_else(|| bad(&format!("missing field '{key}'")))?;
    if let Some(s) = v.as_str() {
        return s.parse().map_err(|_| bad("malformed u64"));
    }
    num_u32(v).map(u64::from)
}

fn tree_string_map(v: &JsonValue) -> Result<BTreeMap<String, String>> {
    let entries = v
        .get("meta")
        .and_then(JsonValue::entries)
        .ok_or_else(|| bad("missing meta object"))?;
    entries
        .iter()
        .map(|(k, v)| {
            v.as_str()
                .map(|s| (k.clone(), s.to_owned()))
                .ok_or_else(|| bad("meta values must be strings"))
        })
        .collect()
}

fn tree_state(v: &JsonValue) -> Result<StateMap> {
    let entries = v.entries().ok_or_else(|| bad("state must be an object"))?;
    entries
        .iter()
        .map(|(k, v)| Ok((k.clone(), tree_param(v)?)))
        .collect()
}

fn tree_param(v: &JsonValue) -> Result<ParamValue> {
    let entries = v
        .entries()
        .ok_or_else(|| bad("parameter must be a tagged object"))?;
    let [(tag, inner)] = entries else {
        return Err(bad("parameter must have exactly one tag"));
    };
    match tag.as_str() {
        "s" => Ok(ParamValue::Str(
            inner
                .as_str()
                .ok_or_else(|| bad("'s' tag holds a string"))?
                .to_owned(),
        )),
        "i" => inner
            .as_str()
            .and_then(|s| s.parse().ok())
            .map(ParamValue::Int)
            .ok_or_else(|| bad("'i' tag holds a stringified i64")),
        "f" => inner
            .as_str()
            .and_then(|s| s.parse().ok())
            .map(ParamValue::Float)
            .ok_or_else(|| bad("'f' tag holds a stringified f64")),
        "b" => match inner {
            JsonValue::Bool(b) => Ok(ParamValue::Bool(*b)),
            _ => Err(bad("'b' tag holds a boolean")),
        },
        "l" => inner
            .as_array()
            .ok_or_else(|| bad("'l' tag holds an array"))?
            .iter()
            .map(tree_param)
            .collect::<Result<_>>()
            .map(ParamValue::List),
        "m" => tree_state(inner).map(ParamValue::Map),
        other => Err(bad(&format!("unknown parameter tag '{other}'"))),
    }
}

/// Both decoders give the same answer. NaN breaks `PartialEq`, so events
/// compare by their `Debug` text, which spells every float exactly.
fn assert_same(payload: &str) {
    match (JournalEvent::decode(payload), decode_tree(payload)) {
        (Ok(cursor), Ok(tree)) => {
            assert_eq!(format!("{cursor:?}"), format!("{tree:?}"), "{payload:?}")
        }
        (Err(_), Err(_)) => {}
        (cursor, tree) => panic!("decoders disagree on {payload:?}: {cursor:?} vs {tree:?}"),
    }
}

/// Bytes a flip writes: structure, escapes, number syntax, bit flips.
fn flips(byte: u8) -> [u8; 10] {
    [
        byte ^ 1,
        byte ^ 0x20,
        b'"',
        b'\\',
        b'{',
        b']',
        b',',
        b'9',
        b'.',
        b'-',
    ]
}

/// Each mutation of `payload` picked by `pick` that is still UTF-8:
/// the cut at an offset, every flip of the byte there, and the splice of
/// `donor`'s tail (from the same offset, wrapped) onto the head.
fn sweep(payload: &str, donor: &str, pick: impl Fn(usize) -> bool) {
    let bytes = payload.as_bytes();
    for at in (0..=bytes.len()).filter(|&at| pick(at)) {
        if let Some(head) = payload.get(..at) {
            assert_same(head);
            let from = at % (donor.len() + 1);
            if let Some(tail) = donor.get(from..) {
                assert_same(&format!("{head}{tail}"));
            }
        }
        let Some(&byte) = bytes.get(at) else { continue };
        for flip in flips(byte) {
            let mut mutant = bytes.to_vec();
            mutant[at] = flip;
            if let Ok(mutant) = std::str::from_utf8(&mutant) {
                assert_same(mutant);
            }
        }
    }
}

fn golden_payloads(name: &str) -> Vec<String> {
    let path = format!("{}/../../tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let out = scan(&bytes);
    assert!(!out.torn && !out.payloads.is_empty(), "{path} scans clean");
    out.payloads
}

#[test]
fn never_panic_golden_journals_decode_alike_under_cuts_flips_and_splices() {
    for name in ["journal_frames.wal", "crashed_run.wal"] {
        let payloads = golden_payloads(name);
        let round_trips = payloads
            .iter()
            .filter(|p| JournalEvent::decode(p).is_ok_and(|event| event.encode() == **p))
            .count();
        // journal_frames.wal pins a `breaker_tripped` whose `samples` is
        // u64::MAX, a JSON number that was never read back as a u32.
        let unreadable = usize::from(name == "journal_frames.wal");
        assert_eq!(round_trips, payloads.len() - unreadable, "{name}");
        for (k, payload) in payloads.iter().enumerate() {
            let donor = &payloads[(k + 1) % payloads.len()];
            sweep(payload, donor, |_| true);
        }
    }
}

/// Payloads the encoder never writes but the tree decoder had an answer
/// for: keys out of order, repeated or unknown, fields of the wrong type,
/// escaped keys, whitespace, trailing bytes.
const EDGE_CASES: &[&str] = &[
    r#"{"node":3,"slot":1,"ev":"instance_admitted"}"#,
    r#"{"ev":"instance_admitted","node":3,"slot":1,"node":"x"}"#,
    r#"{"ev":"instance_admitted","node":"x","slot":1,"node":3}"#,
    r#"{"ev":"instance_admitted","ev":7,"node":3,"slot":1}"#,
    r#"{"ev":7,"ev":"instance_admitted","node":3,"slot":1}"#,
    r#"{"node":1,"ev":"instance_admitted","ev":[{}],"slot":2}"#,
    r#"{"ev":"instance_admitted","node":3,"slot":1}"#,
    r#" { "ev" : "instance_admitted" , "node" : 3 , "slot" : 1 } "#,
    r#"{"ev":"instance_admitted","node":3,"slot":1} x"#,
    r#"{"ev":"instance_admitted","node":3.5,"slot":1}"#,
    r#"{"ev":"instance_admitted","node":-0,"slot":4294967295}"#,
    r#"{"ev":"instance_admitted","node":1e999,"slot":1}"#,
    r#"{"ev":"instance_admitted","node":3,"slot":4294967296}"#,
    r#"{"ev":"instance_admitted","node":3,"slot":1,"extra":{"deep":[1,[2,{"x":null}]]}}"#,
    r#"{"ev":"instance_finished","node":3,"slot":1,"status":"failed","detail":7}"#,
    r#"{"ev":"instance_finished","node":3,"slot":1,"status":"failed","detail":null,"detail":"b"}"#,
    r#"{"ev":"instance_finished","node":3,"slot":1,"status":1,"status":"failed"}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","backout":1,"backout":true,"error":["x"],"state":{}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":5,"backoff_ns":"0","state":{}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"k":{"i":"1"},"k":{"s":"dup"}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"k":{"i":"1","s":"two tags"}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"k":{"i":"1","i":"1"}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"k":{}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"a":{"f":"-inf"},"b":{"f":"NaN"},"c":{"i":"-9223372036854775808"},"d":{"l":[{"b":false},{"m":{"e":{"s":"😀"}}}]}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":{"a":{"b":"true"}}}"#,
    r#"{"ev":"block_completed","node":1,"slot":1,"block":"b","status":"success","attempts":1,"duration_ns":"5","backoff_ns":"0","state":[]}"#,
    r#"{"ev":"campaign_opened","meta":{"a":"1","a":"2"},"assignments":[[0,1,"extra",{}],[2,3]],"concurrency":2}"#,
    r#"{"ev":"campaign_opened","meta":{"a":1},"assignments":[],"concurrency":2}"#,
    r#"{"ev":"campaign_opened","meta":{},"assignments":[[0]],"concurrency":2}"#,
    r#"{"ev":"campaign_opened","meta":{},"assignments":[0,1],"concurrency":2}"#,
    r#"{"ev":"campaign_opened","meta":{},"assignments":{},"concurrency":2}"#,
    r#"{"ev":"campaign_resumed","meta":{"k":"v"},"meta":7}"#,
    r#"{"ev":"breaker_tripped","block":"b","failure_rate":"0.5","samples":"18446744073709551615"}"#,
    r#"{"ev":"breaker_tripped","block":"b","failure_rate":"0.5","samples":18446744073709551615}"#,
    r#"{"ev":"breaker_tripped","block":"b","failure_rate":0.5,"samples":3}"#,
    r#"{"ev":"breaker_tripped","block":"b","failure_rate":"x","samples":3}"#,
    r#"{"ev":"breaker_tripped","block":"b","failure_rate":"NaN","samples":null}"#,
    r#"{"ev":"campaign_closed","anything":[true,false,null]}"#,
    r#"{"ev":"campaign_closed",}"#,
    r#"{"ev":"campaign_closed","ordered":7,"cancelled":true}"#,
    r#"{"ev":"campaign_closed","cancelled":false,"ordered":0}"#,
    r#"{"ev":"campaign_closed","ordered":3}"#,
    r#"{"ev":"campaign_closed","cancelled":true}"#,
    r#"{"ev":"campaign_closed","ordered":3,"ordered":"x","cancelled":1,"cancelled":true}"#,
    r#"{"ev":"campaign_closed","ordered":4294967295,"cancelled":null}"#,
    r#"{"ev":"campaign_closed","ordered":4294967296,"cancelled":false}"#,
    r#"{"ev":"campaign_closed","ordered":-1,"cancelled":false}"#,
    r#"{"ev":"campaign_closed","ordered":1.5}"#,
    r#"{"ev":"nonsense"}"#,
    r#"{"ev":"campaign_closed""#,
    r#"{"EV":"campaign_closed"}"#,
    r#"{}"#,
    r#"[]"#,
    r#""campaign_closed""#,
    "",
];

#[test]
fn never_panic_edge_cases_decode_alike_under_cuts_flips_and_splices() {
    for (k, payload) in EDGE_CASES.iter().enumerate() {
        assert_same(payload);
        sweep(payload, EDGE_CASES[(k + 1) % EDGE_CASES.len()], |_| true);
    }
    // The cursor decoder is not merely consistent with the tree: it
    // accepts what the tree accepted.
    assert!(JournalEvent::decode(EDGE_CASES[0]).is_ok());
    assert!(JournalEvent::decode(EDGE_CASES[6]).is_ok());
}

/// A `block_completed` payload whose state nests `levels` maps deep
/// through `m` tags.
fn nested_state_payload(levels: usize) -> String {
    let state = format!(
        "{}{{\"leaf\":{{\"b\":true}}}}{}",
        "{\"k\":{\"m\":".repeat(levels),
        "}}".repeat(levels)
    );
    format!(
        "{{\"ev\":\"block_completed\",\"node\":1,\"slot\":1,\"block\":\"b\",\"status\":\"success\",\
         \"attempts\":1,\"duration_ns\":\"5\",\"backoff_ns\":\"0\",\"state\":{state}}}"
    )
}

#[test]
fn state_nested_past_the_depth_cap_is_an_error_and_recovery_cuts_it_as_torn() {
    // Each `m` level opens two objects; the event, the state and the leaf
    // parameter open four more.
    let levels = (MAX_DEPTH - 4) / 2;
    let fits = nested_state_payload(levels);
    assert!(JournalEvent::decode(&fits).is_ok());
    assert_same(&fits);
    for deep in [
        nested_state_payload(levels + 1),
        nested_state_payload(50_000),
    ] {
        let err = JournalEvent::decode(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        assert_same(&deep);
    }

    let path = std::env::temp_dir().join(format!(
        "cornet-journal-deep-state-{}.log",
        std::process::id()
    ));
    let opened = JournalEvent::CampaignOpened {
        meta: BTreeMap::new(),
        assignments: Vec::new(),
        concurrency: 1,
    };
    let clean = encode_record(&opened.encode());
    let deep = encode_record(&nested_state_payload(MAX_DEPTH));
    std::fs::write(&path, format!("{clean}{deep}")).unwrap();
    let (events, recovery) = Journal::read(&path).unwrap();
    drop(Journal::reopen(&path, FsyncPolicy::Never, (events.clone(), recovery)).unwrap());
    assert_eq!(events, [opened]);
    assert!(recovery.torn);
    assert_eq!(recovery.valid_len, clean.len() as u64);
    assert_eq!(recovery.dropped_bytes, deep.len() as u64);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), clean.len() as u64);
    std::fs::remove_file(&path).ok();
}

/// Splitmix64 over a proptest-drawn seed: events need nested,
/// size-dependent choices that range strategies do not compose into.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Text weighted towards what an escaper can get wrong.
    fn text(&mut self) -> String {
        (0..self.below(10))
            .map(|_| match self.below(7) {
                0 => '"',
                1 => '\\',
                2 => char::from(self.below(0x20) as u8),
                3 => ['é', '😀', '\u{2028}', '/', '\u{7f}'][self.below(5) as usize],
                _ => char::from(b'a' + self.below(26) as u8),
            })
            .collect()
    }

    fn float(&mut self) -> f64 {
        match self.below(4) {
            0 => {
                [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, f64::MAX][self.below(5) as usize]
            }
            1 => f64::from_bits(self.next()),
            _ => (self.next() as i32) as f64 / 7.0,
        }
    }

    fn int(&mut self) -> i64 {
        match self.below(3) {
            0 => [i64::MIN, i64::MAX, 0, -1][self.below(4) as usize],
            _ => self.next() as i64,
        }
    }

    fn u32(&mut self) -> u32 {
        if self.below(5) == 0 {
            u32::MAX
        } else {
            self.below(1000) as u32
        }
    }

    fn param(&mut self, depth: u32) -> ParamValue {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => ParamValue::Str(self.text()),
            1 => ParamValue::Int(self.int()),
            2 => ParamValue::Float(self.float()),
            3 => ParamValue::Bool(self.below(2) == 0),
            4 => ParamValue::List((0..self.below(3)).map(|_| self.param(depth - 1)).collect()),
            _ => ParamValue::Map(self.state(depth - 1)),
        }
    }

    fn state(&mut self, depth: u32) -> StateMap {
        (0..self.below(4))
            .map(|_| (self.text(), self.param(depth)))
            .collect()
    }

    fn meta(&mut self) -> BTreeMap<String, String> {
        (0..self.below(3))
            .map(|_| (self.text(), self.text()))
            .collect()
    }

    fn maybe_text(&mut self) -> Option<String> {
        (self.below(2) == 0).then(|| self.text())
    }

    fn event(&mut self) -> JournalEvent {
        match self.below(7) {
            0 => JournalEvent::CampaignOpened {
                meta: self.meta(),
                assignments: (0..self.below(4))
                    .map(|_| (self.u32(), self.u32()))
                    .collect(),
                concurrency: self.u32(),
            },
            1 => JournalEvent::CampaignResumed { meta: self.meta() },
            2 => JournalEvent::InstanceAdmitted {
                node: self.u32(),
                slot: self.u32(),
            },
            3 => JournalEvent::BlockCompleted(BlockRecord {
                node: self.u32(),
                slot: self.u32(),
                block: self.text(),
                status: self.text(),
                attempts: self.u32(),
                duration_ns: [0, u64::MAX, self.next()][self.below(3) as usize],
                backoff_ns: self.next(),
                error: self.maybe_text(),
                backout: self.below(2) == 0,
                state: self.state(3),
            }),
            4 => JournalEvent::InstanceFinished {
                node: self.u32(),
                slot: self.u32(),
                status: self.text(),
                detail: self.maybe_text(),
            },
            5 => JournalEvent::BreakerTripped {
                block: self.text(),
                failure_rate: self.float(),
                samples: [u64::from(self.u32()), u64::MAX][self.below(2) as usize],
            },
            _ => JournalEvent::CampaignClosed((self.below(2) == 0).then(|| Halt {
                ordered: self.u32(),
                cancelled: self.below(2) == 0,
            })),
        }
    }
}

proptest! {
    #[test]
    fn never_panic_generated_events_decode_alike_and_round_trip(seed in any::<u64>()) {
        let mut dice = Dice(seed);
        let event = dice.event();
        let payload = event.encode();
        assert_same(&payload);
        // `samples` travels as a JSON number, read back through f64 as a
        // u32: larger counts were never readable, by either decoder.
        let readable = !matches!(
            event,
            JournalEvent::BreakerTripped { samples, .. } if samples > u64::from(u32::MAX)
        );
        if readable {
            let back = JournalEvent::decode(&payload).unwrap();
            prop_assert_eq!(format!("{back:?}"), format!("{event:?}"));
        }
        let donor = dice.event().encode();
        let stride = payload.len() / 48 + 1;
        let phase = dice.below(stride as u64) as usize;
        sweep(&payload, &donor, |at| at % stride == phase || at == payload.len());
    }
}
