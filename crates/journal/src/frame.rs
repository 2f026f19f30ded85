//! Record framing for the campaign journal.
//!
//! Each record is a single line: `<len>:<crc>:<payload>\n`, where `len` is
//! the payload length in bytes (decimal), `crc` is the FNV-1a-64 checksum
//! of the payload as 16 lowercase hex digits, and `payload` is one JSON
//! document. The framing makes the log self-describing: a reader never
//! needs to trust the payload to find the next record, and any torn or
//! bit-flipped tail is detected by the length/checksum pair and truncated
//! away on recovery.

use cornet_types::hash::fnv1a64;

/// Frame a payload as one journal record, trailing newline included.
pub fn encode_record(payload: &str) -> String {
    format!(
        "{}:{:016x}:{}\n",
        payload.len(),
        fnv1a64(payload.as_bytes()),
        payload
    )
}

/// Result of scanning a journal byte stream for valid records.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScanOutcome {
    /// Payloads of every record that framed and checksummed correctly, in
    /// file order.
    pub payloads: Vec<String>,
    /// Byte offset just past the last valid record — the truncation point
    /// a recovering writer should `set_len` to.
    pub valid_len: usize,
    /// True when trailing bytes after `valid_len` had to be discarded
    /// (torn tail, flipped bits, or garbage).
    pub torn: bool,
}

/// Walk the valid records of a journal byte stream once, yielding each
/// payload (borrowed) with the offset just past its record. Stops at the
/// first byte range that does not frame and checksum.
pub(crate) fn records(bytes: &[u8]) -> impl Iterator<Item = (&str, usize)> {
    let mut pos = 0;
    std::iter::from_fn(move || {
        let (payload, end) = parse_record(bytes, pos)?;
        pos = end;
        Some((payload, end))
    })
}

/// End offsets of each valid record, so tests can cut a journal exactly at
/// a record boundary. `boundaries(b)[k]` is the length of a journal
/// containing the first `k + 1` records.
pub fn boundaries(bytes: &[u8]) -> Vec<usize> {
    records(bytes).map(|(_, end)| end).collect()
}

/// Scan a journal byte stream, collecting valid record payloads and
/// locating the torn-tail truncation point.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut out = ScanOutcome::default();
    for (payload, end) in records(bytes) {
        out.payloads.push(payload.to_owned());
        out.valid_len = end;
    }
    out.torn = out.valid_len != bytes.len();
    out
}

fn parse_record(bytes: &[u8], start: usize) -> Option<(&str, usize)> {
    // `<len>` — 1..=9 decimal digits, then ':'.
    let mut pos = start;
    let mut len: usize = 0;
    let mut digits = 0;
    while let Some(b @ b'0'..=b'9') = bytes.get(pos) {
        len = len.checked_mul(10)?.checked_add(usize::from(b - b'0'))?;
        digits += 1;
        pos += 1;
        if digits > 9 {
            return None;
        }
    }
    if digits == 0 || bytes.get(pos) != Some(&b':') {
        return None;
    }
    pos += 1;
    // `<crc>` — exactly 16 lowercase hex digits, then ':'.
    let crc_hex = bytes.get(pos..pos + 16)?;
    let crc_str = std::str::from_utf8(crc_hex).ok()?;
    let crc = u64::from_str_radix(crc_str, 16).ok()?;
    pos += 16;
    if bytes.get(pos) != Some(&b':') {
        return None;
    }
    pos += 1;
    // `<payload>\n` — length and checksum must both agree.
    let payload = bytes.get(pos..pos + len)?;
    pos += len;
    if bytes.get(pos) != Some(&b'\n') || fnv1a64(payload) != crc {
        return None;
    }
    Some((std::str::from_utf8(payload).ok()?, pos + 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_then_scan_round_trips() {
        let mut log = String::new();
        for payload in ["{}", r#"{"ev":"x"}"#, "", "unicode: é😀"] {
            log.push_str(&encode_record(payload));
        }
        let out = scan(log.as_bytes());
        assert_eq!(
            out.payloads,
            vec!["{}", r#"{"ev":"x"}"#, "", "unicode: é😀"]
        );
        assert_eq!(out.valid_len, log.len());
        assert!(!out.torn);
    }

    #[test]
    fn torn_tail_is_truncated_at_the_last_valid_record() {
        let good = encode_record("{\"a\":1}");
        let mut log = good.clone().into_bytes();
        let torn = encode_record("{\"b\":2}");
        log.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        let out = scan(&log);
        assert_eq!(out.payloads, vec!["{\"a\":1}"]);
        assert_eq!(out.valid_len, good.len());
        assert!(out.torn);
    }

    #[test]
    fn corrupt_checksum_stops_the_scan() {
        let mut log = encode_record("first").into_bytes();
        let second = encode_record("second");
        log.extend_from_slice(second.as_bytes());
        // Flip one payload byte in the second record.
        let idx = log.len() - 2;
        log[idx] ^= 0x01;
        let out = scan(&log);
        assert_eq!(out.payloads, vec!["first"]);
        assert!(out.torn);
    }

    #[test]
    fn truncation_at_every_offset_never_yields_garbage() {
        let mut log = String::new();
        for i in 0..5 {
            log.push_str(&encode_record(&format!("{{\"n\":{i}}}")));
        }
        let bytes = log.as_bytes();
        let bounds = boundaries(bytes);
        assert_eq!(bounds.len(), 5);
        assert_eq!(*bounds.last().unwrap(), bytes.len());
        for cut in 0..=bytes.len() {
            let out = scan(&bytes[..cut]);
            // Records recovered = full records before the cut, exactly.
            let expect = bounds.iter().filter(|&&b| b <= cut).count();
            assert_eq!(out.payloads.len(), expect, "cut at {cut}");
            assert_eq!(out.torn, out.valid_len != cut);
        }
    }

    #[test]
    fn boundaries_cut_points_are_clean_journals() {
        let mut log = String::new();
        for i in 0..3 {
            log.push_str(&encode_record(&format!("rec-{i}")));
        }
        for (k, end) in boundaries(log.as_bytes()).iter().enumerate() {
            let out = scan(&log.as_bytes()[..*end]);
            assert_eq!(out.payloads.len(), k + 1);
            assert!(!out.torn);
        }
    }
}
