//! Writer ∘ reader properties of `cornet_types::json`: whatever
//! [`JsonWriter`] emits, [`parse`] reads back as the same value.

use cornet_types::json::{parse, FloatFmt, JsonValue, JsonWriter};
use proptest::prelude::*;

/// Small deterministic generator driven by the proptest case seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        // splitmix64
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Strings weighted towards what an escaper can get wrong: quotes,
    /// backslashes, every C0 control, DEL, multi-byte and non-BMP chars.
    fn string(&mut self) -> String {
        (0..self.below(12))
            .map(|_| match self.below(8) {
                0 => '"',
                1 => '\\',
                2 => char::from(self.below(0x20) as u8),
                3 => ['\u{7f}', '/', 'é', '\u{2028}', '\u{ffff}'][self.below(5) as usize],
                4 => char::from_u32(0x1_0000 + self.below(0xF_0000) as u32).unwrap_or('😀'),
                _ => char::from(b' ' + self.below(95) as u8),
            })
            .collect()
    }

    /// Any finite or non-finite `f64`, by bit pattern half of the time.
    fn float(&mut self) -> f64 {
        match self.below(6) {
            0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][self.below(3) as usize],
            1 => [0.0, -0.0, f64::MAX, f64::MIN_POSITIVE, 5e-324][self.below(5) as usize],
            2 => (self.next() as i64 as f64) / 1e3,
            _ => f64::from_bits(self.next()),
        }
    }

    fn value(&mut self, depth: u32) -> JsonValue {
        let scalar_only = depth == 0;
        match self.below(if scalar_only { 5 } else { 7 }) {
            0 => JsonValue::Null,
            1 => JsonValue::Bool(self.below(2) == 1),
            2 => JsonValue::Number(self.next() as i32 as f64),
            3 => {
                let f = self.float();
                JsonValue::Number(if f.is_finite() { f } else { 0.5 })
            }
            4 => JsonValue::String(self.string()),
            5 => JsonValue::Array((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
            _ => JsonValue::Object(
                (0..self.below(4))
                    .map(|_| (self.string(), self.value(depth - 1)))
                    .collect(),
            ),
        }
    }
}

fn write_value(w: &mut JsonWriter<'_>, v: &JsonValue) {
    match v {
        JsonValue::Null => w.null(),
        JsonValue::Bool(b) => w.bool(*b),
        JsonValue::Number(n) => w.float(*n, FloatFmt::Debug),
        JsonValue::String(s) => w.str(s),
        JsonValue::Array(items) => {
            w.begin_array();
            items.iter().for_each(|item| write_value(w, item));
            w.end_array()
        }
        JsonValue::Object(entries) => {
            w.begin_object();
            for (k, item) in entries {
                write_value(w.key(k), item);
            }
            w.end_object()
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn strings_round_trip(seed in any::<u64>()) {
        let s = Gen(seed).string();
        let mut out = String::new();
        JsonWriter::compact(&mut out).str(&s);
        prop_assert_eq!(parse(&out).unwrap(), JsonValue::String(s.clone()));
        // The Display route goes through the same escaper.
        let mut via_display = String::new();
        JsonWriter::compact(&mut via_display).display(&s);
        prop_assert_eq!(via_display, out);
    }

    #[test]
    fn documents_round_trip_in_both_spacings(seed in any::<u64>()) {
        let doc = Gen(seed).value(4);
        let mut compact = String::new();
        write_value(&mut JsonWriter::compact(&mut compact), &doc);
        prop_assert_eq!(&parse(&compact).unwrap(), &doc, "{}", compact);
        let mut spaced = String::new();
        write_value(&mut JsonWriter::spaced(&mut spaced), &doc);
        prop_assert_eq!(&parse(&spaced).unwrap(), &doc, "{}", spaced);
    }

    #[test]
    fn floats_parse_back(seed in any::<u64>()) {
        let f = Gen(seed).float();
        for fmt in [FloatFmt::Display, FloatFmt::Debug, FloatFmt::Fixed(3), FloatFmt::Exp] {
            let mut out = String::new();
            JsonWriter::compact(&mut out).float(f, fmt);
            let back = parse(&out);
            prop_assert!(back.is_ok(), "{:?} as {:?} wrote {}", f, fmt, out);
            match back.unwrap() {
                JsonValue::Null => prop_assert!(!f.is_finite()),
                JsonValue::Number(n) if fmt != FloatFmt::Fixed(3) => {
                    prop_assert_eq!(n.to_bits(), f.to_bits(), "{:?} wrote {}", fmt, out)
                }
                JsonValue::Number(_) => prop_assert!(f.is_finite()),
                other => prop_assert!(false, "{:?} read back as {:?}", f, other),
            }
        }
    }
}
