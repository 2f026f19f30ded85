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
use std::io::Write as _;
use std::ops::Range;

/// Room in front of a payload for its `<len>:<crc>:` header: the digits of
/// any `usize`, two colons and 16 hex digits.
const HEADER_GAP: usize = 20 + 1 + 16 + 1;

/// Frame a payload as one journal record, trailing newline included.
pub fn encode_record(payload: &str) -> String {
    let mut buf = String::with_capacity(HEADER_GAP + payload.len() + 1);
    let framed = frame_in_place(&mut buf, |out| out.push_str(payload));
    buf.drain(..framed.start);
    buf
}

/// Where [`frame_in_place`] left a record in its buffer.
pub(crate) struct Framed {
    /// Offset the record starts at; it runs to the end of the buffer.
    pub start: usize,
    /// Byte range of the record's payload.
    pub payload: Range<usize>,
}

/// The one framer. `write_payload` appends the payload to `buf` after a
/// gap, the checksum is taken over the payload where it lies, and the
/// header is written into the gap, so a record costs no copy of its
/// payload into a second buffer. The first record of an empty `buf`
/// starts inside its gap, with the header in the gap's end, and no byte
/// of it moves; a record framed after others closes its whole gap, so the
/// records of one buffer follow each other with nothing between them and
/// are one contiguous run from the first record's start to the end.
pub(crate) fn frame_in_place(buf: &mut String, write_payload: impl FnOnce(&mut String)) -> Framed {
    let gap = buf.len();
    buf.extend(std::iter::repeat_n(' ', HEADER_GAP));
    write_payload(buf);
    let payload = &buf.as_bytes()[gap + HEADER_GAP..];
    let mut header = [0u8; HEADER_GAP];
    let mut rest = &mut header[..];
    write!(rest, "{}:{:016x}:", payload.len(), fnv1a64(payload)).expect("the gap fits any header");
    let len = HEADER_GAP - rest.len();
    let start = if gap == 0 { HEADER_GAP - len } else { gap };
    buf.replace_range(
        start..gap + HEADER_GAP,
        std::str::from_utf8(&header[..len]).expect("the header is ASCII"),
    );
    let payload = start + len..buf.len();
    buf.push('\n');
    Framed { start, payload }
}

/// Whether the bytes after a journal's last valid record are a torn tail.
/// Zero bytes are not: they are space the writer allocated ahead of its
/// records (see `Journal`'s growth-ahead) and never wrote. Any other byte
/// there is what a crash, a short write or corruption left behind.
pub(crate) fn is_torn_tail(tail: &[u8]) -> bool {
    tail.iter().any(|&b| b != 0)
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
    /// (torn tail, flipped bits, or garbage). A tail of zero bytes is
    /// unused space, not a torn tail.
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
    out.torn = is_torn_tail(&bytes[out.valid_len..]);
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

    #[test]
    fn records_framed_into_one_buffer_follow_each_other() {
        let big = "x".repeat(12_345);
        let payloads = ["{}", big.as_str(), "", "unicode: é😀"];
        let mut buf = String::new();
        let framed: Vec<Framed> = payloads
            .iter()
            .map(|p| frame_in_place(&mut buf, |out| out.push_str(p)))
            .collect();
        let joined: String = payloads.iter().map(|p| encode_record(p)).collect();
        assert_eq!(&buf[framed[0].start..], joined);
        for (f, p) in framed.iter().zip(payloads) {
            assert_eq!(&buf[f.payload.clone()], p);
        }
    }

    #[test]
    fn a_zero_tail_is_unused_space_not_a_torn_tail() {
        let log = encode_record("{\"a\":1}");
        let mut bytes = log.clone().into_bytes();
        bytes.resize(log.len() + 4096, 0);
        let out = scan(&bytes);
        assert_eq!(out.payloads, vec!["{\"a\":1}"]);
        assert_eq!(out.valid_len, log.len());
        assert!(!out.torn);
        assert!(!scan(&[0; 64]).torn, "an all-zero file is an empty journal");
    }

    #[test]
    fn half_a_record_followed_by_zeros_is_torn() {
        let good = encode_record("{\"a\":1}");
        let torn = encode_record("{\"b\":2}");
        let mut bytes = good.clone().into_bytes();
        bytes.extend_from_slice(&torn.as_bytes()[..torn.len() / 2]);
        bytes.resize(bytes.len() + 4096, 0);
        let out = scan(&bytes);
        assert_eq!(out.valid_len, good.len());
        assert!(out.torn);
    }
}
