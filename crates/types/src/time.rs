//! Simulated civil time, maintenance windows, and schedulable timeslots.
//!
//! The paper schedules changes into discrete *timeslots* derived from a
//! scheduling window plus a nightly maintenance window (Listing 1 lines
//! 2–12). We model civil time as minutes since the Unix epoch with our own
//! Gregorian conversion so the workspace needs no external date crate.

use crate::error::CornetError;
use std::fmt;

/// Minutes in one day.
pub const MINUTES_PER_DAY: u64 = 24 * 60;

/// A point in simulated civil time, stored as minutes since the Unix epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Construct from a civil date and time (UTC).
    ///
    /// `month` is 1..=12, `day` is 1..=31. Panics on out-of-range fields;
    /// use [`SimTime::parse`] for fallible construction from text.
    pub fn from_ymd_hm(year: i64, month: u32, day: u32, hour: u32, minute: u32) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!((1..=31).contains(&day), "day out of range: {day}");
        assert!(
            hour < 24 && minute < 60,
            "time out of range: {hour}:{minute}"
        );
        let days = days_from_civil(year, month, day);
        assert!(days >= 0, "dates before 1970 are not representable");
        SimTime(days as u64 * MINUTES_PER_DAY + hour as u64 * 60 + minute as u64)
    }

    /// Parse the `"YYYY-MM-DD HH:MM:SS"` format used in the paper's JSON
    /// intent API (seconds are accepted and truncated to minutes).
    pub fn parse(s: &str) -> Result<Self, CornetError> {
        let bad = || CornetError::Parse(format!("invalid datetime: {s:?}"));
        let (date, time) = s.trim().split_once(' ').ok_or_else(bad)?;
        let mut dp = date.split('-');
        let year: i64 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if dp.next().is_some() {
            return Err(bad());
        }
        let mut tp = time.split(':');
        let hour: u32 = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let minute: u32 = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        // Optional seconds component, ignored.
        if let Some(sec) = tp.next() {
            let _: u32 = sec.parse().map_err(|_| bad())?;
        }
        if !(1..=12).contains(&month) || !(1..=31).contains(&day) || hour >= 24 || minute >= 60 {
            return Err(bad());
        }
        if year < 1970 {
            return Err(CornetError::Parse(format!(
                "dates before 1970 are not representable: {s:?}"
            )));
        }
        // Reject nonexistent dates (Feb 30, Apr 31, Feb 29 off-leap) —
        // days_from_civil would silently normalize them.
        let days = days_from_civil(year, month, day);
        if civil_from_days(days) != (year, month, day) {
            return Err(CornetError::Parse(format!(
                "nonexistent calendar date: {s:?}"
            )));
        }
        Ok(Self::from_ymd_hm(year, month, day, hour, minute))
    }

    /// Minutes since the epoch.
    #[inline]
    pub fn minutes(self) -> u64 {
        self.0
    }

    /// Whole days since the epoch.
    #[inline]
    pub fn days(self) -> u64 {
        self.0 / MINUTES_PER_DAY
    }

    /// Minute of the day, 0..1440.
    #[inline]
    pub fn minute_of_day(self) -> u64 {
        self.0 % MINUTES_PER_DAY
    }

    /// Civil `(year, month, day)` of this instant.
    pub fn ymd(self) -> (i64, u32, u32) {
        civil_from_days(self.days() as i64)
    }

    /// Add a number of whole days.
    pub fn plus_days(self, days: u64) -> Self {
        SimTime(self.0 + days * MINUTES_PER_DAY)
    }

    /// Add a number of minutes.
    pub fn plus_minutes(self, minutes: u64) -> Self {
        SimTime(self.0 + minutes)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.ymd();
        let mod_ = self.minute_of_day();
        write!(
            f,
            "{y:04}-{m:02}-{d:02} {:02}:{:02}:00",
            mod_ / 60,
            mod_ % 60
        )
    }
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
fn days_from_civil(y: i64, m: u32, d: u32) -> i64 {
    let y = if m <= 2 { y - 1 } else { y };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as u64; // [0, 399]
    let mp = (m + 9) % 12; // Mar=0 .. Feb=11
    let doy = (153 * mp + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy as u64; // [0, 146096]
    era * 146097 + doe as i64 - 719468
}

/// Civil date for days since 1970-01-01 (inverse of [`days_from_civil`]).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = (z - era * 146097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
    (if m <= 2 { y + 1 } else { y }, m, d)
}

/// Calendar unit of a granularity specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TimeUnit {
    /// One minute.
    Minute,
    /// One hour.
    Hour,
    /// One day.
    Day,
    /// Seven days.
    Week,
}

impl TimeUnit {
    /// Length of the unit in minutes.
    pub fn minutes(self) -> u64 {
        match self {
            TimeUnit::Minute => 1,
            TimeUnit::Hour => 60,
            TimeUnit::Day => MINUTES_PER_DAY,
            TimeUnit::Week => 7 * MINUTES_PER_DAY,
        }
    }
}

/// Granularity of a timeslot or constraint, e.g. `{"metric":"day","value":1}`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Granularity {
    /// Calendar unit.
    pub metric: TimeUnit,
    /// Multiplier of the unit.
    pub value: u32,
}

impl Granularity {
    /// Granularity of `value` × `metric`.
    pub fn new(metric: TimeUnit, value: u32) -> Self {
        Self { metric, value }
    }

    /// One day — the paper's most common timeslot granularity.
    pub fn daily() -> Self {
        Self::new(TimeUnit::Day, 1)
    }

    /// Span of the granularity in minutes.
    pub fn minutes(self) -> u64 {
        self.metric.minutes() * self.value as u64
    }
}

/// Nightly window during which changes may execute (e.g. 00:00–06:00 local).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MaintenanceWindow {
    /// Start minute-of-day (inclusive).
    pub start_minute: u32,
    /// End minute-of-day (exclusive).
    pub end_minute: u32,
}

impl MaintenanceWindow {
    /// Window spanning `[start_hour:00, end_hour:00)` each day.
    pub fn overnight(start_hour: u32, end_hour: u32) -> Self {
        assert!(start_hour <= 24 && end_hour <= 24);
        Self {
            start_minute: start_hour * 60,
            end_minute: end_hour * 60,
        }
    }

    /// Duration of one window in minutes.
    pub fn duration_minutes(&self) -> u64 {
        (self.end_minute.saturating_sub(self.start_minute)) as u64
    }

    /// Whether an instant falls inside the window (ignoring timezone shift).
    pub fn contains(&self, t: SimTime) -> bool {
        let m = t.minute_of_day() as u32;
        m >= self.start_minute && m < self.end_minute
    }
}

impl Default for MaintenanceWindow {
    /// The paper's canonical midnight–6AM window.
    fn default() -> Self {
        Self::overnight(0, 6)
    }
}

/// Discrete schedulable slot index, 1-based to match the paper's models.
///
/// Slot 0 is reserved to mean "unscheduled" in solver encodings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Timeslot(pub u32);

impl Timeslot {
    /// Sentinel for "not scheduled".
    pub const UNSCHEDULED: Timeslot = Timeslot(0);

    /// True when this is a real slot (not the unscheduled sentinel).
    pub fn is_scheduled(self) -> bool {
        self.0 > 0
    }

    /// 0-based index into per-slot vectors. Panics on the sentinel.
    pub fn index(self) -> usize {
        assert!(self.is_scheduled(), "UNSCHEDULED has no index");
        (self.0 - 1) as usize
    }

    /// Construct from a 0-based index.
    pub fn from_index(i: usize) -> Self {
        Timeslot(i as u32 + 1)
    }
}

impl fmt::Debug for Timeslot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_scheduled() {
            write!(f, "slot{}", self.0)
        } else {
            f.write_str("unscheduled")
        }
    }
}

/// The calendar horizon over which a change plan is discovered.
///
/// Mirrors Listing 1: a start/end instant, a slot granularity, the nightly
/// maintenance window, and excluded periods (holidays, Super Bowl, …).
#[derive(Clone, Debug, PartialEq)]
pub struct SchedulingWindow {
    /// First instant of the window (inclusive).
    pub start: SimTime,
    /// Last instant of the window (inclusive, per the paper's examples).
    pub end: SimTime,
    /// Width of one schedulable timeslot.
    pub granularity: Granularity,
    /// Nightly execution window within each slot.
    pub maintenance: MaintenanceWindow,
    /// Calendar periods during which nothing may be scheduled.
    pub excluded: Vec<(SimTime, SimTime)>,
}

impl SchedulingWindow {
    /// A window of `num_days` daily slots starting at `start`, with the
    /// default 00:00–06:00 maintenance window and no exclusions.
    pub fn daily(start: SimTime, num_days: u32) -> Self {
        Self {
            start,
            end: start
                .plus_days(num_days.saturating_sub(1) as u64)
                .plus_minutes(MINUTES_PER_DAY - 1),
            granularity: Granularity::daily(),
            maintenance: MaintenanceWindow::default(),
            excluded: Vec::new(),
        }
    }

    /// Exclude a calendar period from scheduling (builder style).
    pub fn exclude(mut self, from: SimTime, to: SimTime) -> Self {
        self.excluded.push((from, to));
        self
    }

    /// Total number of raw slots in the window (before exclusions).
    pub fn raw_slot_count(&self) -> u32 {
        let span = self.end.minutes().saturating_sub(self.start.minutes()) + 1;
        span.div_ceil(self.granularity.minutes()) as u32
    }

    /// Start instant of a slot.
    pub fn slot_start(&self, slot: Timeslot) -> SimTime {
        self.start
            .plus_minutes(slot.index() as u64 * self.granularity.minutes())
    }

    /// Whether a slot overlaps any excluded period.
    pub fn slot_excluded(&self, slot: Timeslot) -> bool {
        let s = self.slot_start(slot).minutes();
        let e = s + self.granularity.minutes() - 1;
        self.excluded
            .iter()
            .any(|(from, to)| s <= to.minutes() && e >= from.minutes())
    }

    /// The usable slots of the window, in order, with exclusions removed.
    pub fn usable_slots(&self) -> Vec<Timeslot> {
        (0..self.raw_slot_count() as usize)
            .map(Timeslot::from_index)
            .filter(|s| !self.slot_excluded(*s))
            .collect()
    }

    /// Calendar period `[start, end]` covered by a slot (inclusive).
    pub fn slot_period(&self, slot: Timeslot) -> (SimTime, SimTime) {
        let start = self.slot_start(slot);
        (start, start.plus_minutes(self.granularity.minutes() - 1))
    }

    /// Slot containing a given instant, if it is inside the window.
    pub fn slot_of(&self, t: SimTime) -> Option<Timeslot> {
        if t < self.start || t > self.end {
            return None;
        }
        let offset = t.minutes() - self.start.minutes();
        Some(Timeslot::from_index(
            (offset / self.granularity.minutes()) as usize,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_conversion_round_trips() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2020, 7, 1),
            (2021, 8, 23),
            (2024, 12, 31),
        ] {
            let t = SimTime::from_ymd_hm(y, m, d, 3, 30);
            assert_eq!(t.ymd(), (y, m, d));
            assert_eq!(t.minute_of_day(), 3 * 60 + 30);
        }
    }

    #[test]
    fn epoch_is_zero() {
        assert_eq!(SimTime::from_ymd_hm(1970, 1, 1, 0, 0).minutes(), 0);
    }

    #[test]
    fn parse_paper_format() {
        let t = SimTime::parse("2020-07-01 00:00:00").unwrap();
        assert_eq!(t.ymd(), (2020, 7, 1));
        assert_eq!(t.to_string(), "2020-07-01 00:00:00");
        assert!(SimTime::parse("not a date").is_err());
        assert!(SimTime::parse("2020-13-01 00:00:00").is_err());
        assert!(SimTime::parse("2020-07-01 25:00:00").is_err());
    }

    #[test]
    fn parse_rejects_nonexistent_dates() {
        assert!(
            SimTime::parse("2021-02-29 00:00:00").is_err(),
            "2021 is not a leap year"
        );
        assert!(SimTime::parse("2020-02-29 00:00:00").is_ok(), "2020 is");
        assert!(SimTime::parse("2020-04-31 00:00:00").is_err());
        assert!(
            SimTime::parse("1969-12-31 00:00:00").is_err(),
            "pre-epoch errors, not panics"
        );
    }

    #[test]
    fn parse_without_seconds() {
        assert!(SimTime::parse("2020-07-01 06:30").is_ok());
    }

    #[test]
    fn leap_year_day_counts() {
        let feb28 = SimTime::from_ymd_hm(2020, 2, 28, 0, 0);
        let mar1 = SimTime::from_ymd_hm(2020, 3, 1, 0, 0);
        assert_eq!(mar1.days() - feb28.days(), 2, "2020 is a leap year");
    }

    #[test]
    fn maintenance_window_contains() {
        let mw = MaintenanceWindow::default();
        assert!(mw.contains(SimTime::from_ymd_hm(2020, 7, 1, 3, 0)));
        assert!(!mw.contains(SimTime::from_ymd_hm(2020, 7, 1, 6, 0)));
        assert_eq!(mw.duration_minutes(), 360);
    }

    #[test]
    fn scheduling_window_slots() {
        let start = SimTime::from_ymd_hm(2020, 7, 1, 0, 0);
        let w = SchedulingWindow::daily(start, 7);
        assert_eq!(w.raw_slot_count(), 7);
        assert_eq!(w.usable_slots().len(), 7);
        assert_eq!(w.slot_start(Timeslot(1)), start);
        assert_eq!(w.slot_start(Timeslot(3)), start.plus_days(2));
    }

    #[test]
    fn scheduling_window_exclusions_match_listing1() {
        // Listing 1: July 1–7 window, excluding July 1 and July 4–5.
        let start = SimTime::parse("2020-07-01 00:00:00").unwrap();
        let w = SchedulingWindow::daily(start, 7)
            .exclude(
                SimTime::parse("2020-07-01 00:00:00").unwrap(),
                SimTime::parse("2020-07-01 23:59:00").unwrap(),
            )
            .exclude(
                SimTime::parse("2020-07-04 00:00:00").unwrap(),
                SimTime::parse("2020-07-05 23:59:00").unwrap(),
            );
        let usable = w.usable_slots();
        // Slots 2, 3, 6, 7 remain (July 2, 3, 6, 7).
        assert_eq!(
            usable,
            vec![Timeslot(2), Timeslot(3), Timeslot(6), Timeslot(7)]
        );
    }

    #[test]
    fn slot_of_maps_instants() {
        let start = SimTime::from_ymd_hm(2020, 7, 1, 0, 0);
        let w = SchedulingWindow::daily(start, 3);
        assert_eq!(w.slot_of(start.plus_days(1)), Some(Timeslot(2)));
        assert_eq!(w.slot_of(start.plus_days(10)), None);
    }

    #[test]
    fn timeslot_sentinel() {
        assert!(!Timeslot::UNSCHEDULED.is_scheduled());
        assert_eq!(Timeslot::from_index(0), Timeslot(1));
        assert_eq!(Timeslot(5).index(), 4);
    }

    #[test]
    #[should_panic(expected = "UNSCHEDULED")]
    fn unscheduled_index_panics() {
        let _ = Timeslot::UNSCHEDULED.index();
    }

    #[test]
    fn granularity_minutes() {
        assert_eq!(Granularity::daily().minutes(), 1440);
        assert_eq!(Granularity::new(TimeUnit::Week, 2).minutes(), 2 * 7 * 1440);
        assert_eq!(Granularity::new(TimeUnit::Hour, 6).minutes(), 360);
    }
}
