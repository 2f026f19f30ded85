//! The cursor sample parser is the tree parser it replaced, on every line:
//! the tree parser is kept here as the reference, and [`parse_sample`]
//! must give its answer — both `None`, or equal samples — on hand-written
//! and generated JSONL lines (null values, `carrier`, repeated and unknown
//! keys, trailing bytes) and on byte mutations of them (truncation,
//! single-byte flips, splices). Neither may panic. The generated suite
//! runs the default case count, so CI raises it with `PROPTEST_CASES`.

use super::*;
use cornet_types::json::{parse, JsonValue};
use proptest::prelude::*;

/// `parse_sample` as it was: the line parsed into a tree, then each field
/// looked up in it (first copy of a key).
fn parse_sample_tree(line: &str, nodes_by_name: &HashMap<String, NodeId>) -> Option<StreamSample> {
    let value = parse(line).ok()?;
    let node = *nodes_by_name.get(value.get("node")?.as_str()?)?;
    let kpi = value.get("kpi")?.as_str()?.to_string();
    let minute = value.get("minute")?.as_f64()?;
    if !(minute.is_finite() && minute >= 0.0 && minute.fract() == 0.0) {
        return None;
    }
    let sample_value = match value.get("value")? {
        JsonValue::Null => f64::NAN,
        v => v.as_f64()?,
    };
    let carrier = match value.get("carrier") {
        None | Some(JsonValue::Null) => None,
        Some(c) => {
            let c = c.as_f64()?;
            if c.fract() != 0.0 || c < 0.0 {
                return None;
            }
            Some(c as usize)
        }
    };
    Some(StreamSample {
        node,
        kpi,
        carrier,
        minute: minute as u64,
        value: sample_value,
    })
}

fn nodes() -> HashMap<String, NodeId> {
    ["study-0", "study-1", "control-0", "zürich 😀", "a\"b"]
        .iter()
        .enumerate()
        .map(|(i, name)| (name.to_string(), NodeId(i as u32)))
        .collect()
}

/// Both parsers give the same answer. NaN breaks `PartialEq`, so samples
/// compare by their `Debug` text.
fn assert_same(line: &str, nodes: &HashMap<String, NodeId>) {
    let cursor = parse_sample(line, nodes);
    let tree = parse_sample_tree(line, nodes);
    assert_eq!(format!("{cursor:?}"), format!("{tree:?}"), "{line:?}");
}

/// Every cut, flip and splice of `line` at the offsets `pick` takes that
/// is still UTF-8.
fn sweep(line: &str, donor: &str, nodes: &HashMap<String, NodeId>, pick: impl Fn(usize) -> bool) {
    let bytes = line.as_bytes();
    for at in (0..=bytes.len()).filter(|&at| pick(at)) {
        if let Some(head) = line.get(..at) {
            assert_same(head, nodes);
            if let Some(tail) = donor.get(at % (donor.len() + 1)..) {
                assert_same(&format!("{head}{tail}"), nodes);
            }
        }
        let Some(&byte) = bytes.get(at) else { continue };
        for flip in [
            byte ^ 1,
            byte ^ 0x20,
            b'"',
            b'\\',
            b'{',
            b'}',
            b',',
            b'-',
            b'n',
        ] {
            let mut mutant = bytes.to_vec();
            mutant[at] = flip;
            if let Ok(mutant) = std::str::from_utf8(&mutant) {
                assert_same(mutant, nodes);
            }
        }
    }
}

const LINES: &[&str] = &[
    r#"{"node":"study-0","kpi":"thr","minute":4200,"value":97.3}"#,
    r#"{"node":"study-0","kpi":"thr","minute":4200,"value":null}"#,
    r#"{"node":"study-1","kpi":"thr","minute":60,"value":-1.5e3,"carrier":2}"#,
    r#"{"node":"study-1","kpi":"thr","minute":60,"value":1,"carrier":null}"#,
    r#"{"node":"study-1","kpi":"thr","minute":60,"value":1,"carrier":2.5}"#,
    r#"{"node":"study-1","kpi":"thr","minute":60,"value":1,"carrier":-1}"#,
    r#"{"node":"study-1","kpi":"thr","minute":60,"value":1,"carrier":"2"}"#,
    r#"{"value":3,"minute":0,"kpi":"k","node":"control-0"}"#,
    r#"{"node":"study-0","node":"nobody","kpi":"k","minute":0,"value":1}"#,
    r#"{"node":"nobody","node":"study-0","kpi":"k","minute":0,"value":1}"#,
    r#"{"node":7,"node":"study-0","kpi":"k","minute":0,"value":1}"#,
    r#"{"node":"study-0","kpi":"k","kpi":7,"minute":0,"value":1,"value":"x"}"#,
    r#"{"node":"study-0","kpi":"k","minute":0,"value":1,"extra":{"deep":[1,{"a":null}]}}"#,
    r#"{"node":"study-0","kpi":"k","minute":0,"value":1} trailing"#,
    r#"{"node":"study-0","kpi":"k","minute":0,"value":1}}"#,
    r#"  {"node" : "study-0" , "kpi" : "k\tk" , "minute" : 1e2 , "value" : -0 }  "#,
    r#"{"node":"study-0","kpi":"k","minute":0.5,"value":1}"#,
    r#"{"node":"study-0","kpi":"k","minute":-60,"value":1}"#,
    r#"{"node":"study-0","kpi":"k","minute":1e999,"value":1}"#,
    r#"{"node":"study-0","kpi":"k","minute":"60","value":1}"#,
    r#"{"node":"study-0","kpi":"k","minute":60,"value":true}"#,
    r#"{"node":"study-0","kpi":"k","minute":60}"#,
    r#"{"node":"zürich 😀","kpi":"é","minute":60,"value":2}"#,
    r#"{"node":"a\"b","kpi":"é😀","minute":60,"value":2}"#,
    r#"{"\u006eode":"study-0","kpi":"k","minute":60,"value":2}"#,
    r#"{"node":"study-0","kpi":"k","minute":60,"value":nul}"#,
    r#"{"node":"study-0","kpi":"k","minute":60,"value":1,}"#,
    r#"["node","study-0"]"#,
    "null",
    "",
    "{}",
];

#[test]
fn never_panic_sample_lines_parse_alike_under_cuts_flips_and_splices() {
    let nodes = nodes();
    for (k, line) in LINES.iter().enumerate() {
        assert_same(line, &nodes);
        sweep(line, LINES[(k + 1) % LINES.len()], &nodes, |_| true);
    }
    // Consistent with the tree, and as accepting as it was.
    assert!(parse_sample(LINES[0], &nodes).is_some());
    assert!(parse_sample(LINES[1], &nodes).is_some_and(|s| s.value.is_nan()));
    assert!(
        parse_sample(LINES[9], &nodes).is_none(),
        "the first node counts"
    );
    assert!(parse_sample(LINES[24], &nodes).is_some(), "escaped key");
}

/// Splitmix64 over a proptest-drawn seed.
struct Dice(u64);

impl Dice {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[(self.next() % from.len() as u64) as usize]
    }

    /// A JSON value of the kind a field may (or may not) hold.
    fn value(&mut self) -> String {
        match self.next() % 9 {
            0 => format!(
                "\"{}\"",
                self.pick(&["study-0", "control-0", "nobody", "k", "a\\\"b"])
            ),
            1 => "null".to_string(),
            2 => self
                .pick(&["true", "false", "[]", "{\"x\":[1]}"])
                .to_string(),
            3 => format!("{}", self.next() % 100_000 * 60),
            4 => format!("-{}", self.next() % 100),
            5 => format!("{:?}", f64::from_bits(self.next()) % 1e6),
            6 => self
                .pick(&["1e999", "-0", "0.5", "1e2", "4294967296"])
                .to_string(),
            _ => format!("{}", self.next() % 1000),
        }
    }

    /// A sample line: mostly the five fields, in any order, some twice,
    /// some missing, with an unknown key or trailing bytes now and then.
    fn line(&mut self) -> String {
        let mut fields = Vec::new();
        for key in ["node", "kpi", "minute", "value", "carrier", "extra"] {
            for _ in 0..self.next() % 3 {
                let value = match (key, self.next() % 3) {
                    ("node", 0 | 1) => {
                        format!("\"{}\"", self.pick(&["study-0", "study-1", "nobody"]))
                    }
                    ("kpi", 0 | 1) => "\"kpi\"".to_string(),
                    ("minute", 0 | 1) => format!("{}", self.next() % 200 * 60),
                    ("value" | "carrier", 0) => "null".to_string(),
                    ("value" | "carrier", 1) => format!("{}", self.next() % 64),
                    _ => self.value(),
                };
                fields.push(format!("\"{key}\":{value}"));
            }
        }
        let n = fields.len();
        for i in 0..n {
            fields.swap(i, (self.next() % n as u64) as usize);
        }
        let tail = self.pick(&["", "", "", " ", "\t", "x", "}", "{}"]);
        format!("{{{}}}{tail}", fields.join(","))
    }
}

proptest! {
    #[test]
    fn never_panic_generated_lines_parse_alike(seed in any::<u64>()) {
        let nodes = nodes();
        let mut dice = Dice(seed);
        let line = dice.line();
        assert_same(&line, &nodes);
        let donor = dice.line();
        let stride = line.len() / 32 + 1;
        let phase = (dice.next() % stride as u64) as usize;
        sweep(&line, &donor, &nodes, |at| at % stride == phase || at == line.len());
    }
}
