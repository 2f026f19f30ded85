//! High-level change-plan intent: the JSON API of Appendix B, Listing 1.
//!
//! Operations teams "only deal with high-level scheduling constraints rules
//! (or intent) and do not need to understand or modify the underlying
//! constraint templates" (§3.3). This module parses that JSON into typed
//! rules; [`crate::translate()`] maps the rules onto constraint templates.

use cornet_types::json::{parse, JsonValue};
use cornet_types::{
    ConflictEntry, ConflictTable, CornetError, Granularity, MaintenanceWindow, NodeId, Result,
    SchedulingWindow, SimTime, TimeUnit,
};
use std::collections::BTreeMap;

/// Conflict tolerance (Listing 1's `conflict_handling`): zero-tolerance
/// schedules must avoid every ticketed busy period; minimize-conflicts
/// trades conflicts against completion (emergency roll-outs, §3.3.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConflictTolerance {
    /// No conflicts permitted (risking leftovers / longer makespan).
    Zero,
    /// Schedule as much as possible, minimizing generated conflicts.
    Minimize,
}

/// One high-level constraint rule (the paper's six templates).
#[derive(Clone, Debug, PartialEq)]
pub enum ConstraintRule {
    /// Conflict tolerance selection.
    ConflictHandling {
        /// Zero tolerance or minimize.
        value: ConflictTolerance,
    },
    /// Concurrency: bound how much can run per timeslot.
    Concurrency {
        /// Attribute counted against the capacity (ESA or non-ESA).
        base_attribute: String,
        /// When present, the capacity applies *within each* value of this
        /// attribute (Listing 1's per-pool/per-market variant).
        aggregate_attribute: Option<String>,
        /// Comparison operator (the paper always uses `"<="`).
        operator: String,
        /// Time granularity of the bound.
        granularity: Granularity,
        /// Capacity per granule.
        default_capacity: i64,
    },
    /// Consistency: schedule all instances sharing the attribute together
    /// (co-located 4G/5G upgrades).
    Consistency {
        /// Grouping attribute, e.g. `"usid"`.
        attribute: String,
    },
    /// Uniformity: instances sharing a slot must have attribute values
    /// within `value` of each other (e.g. adjacent timezones).
    Uniformity {
        /// Numeric attribute, e.g. `"utc_offset"`.
        attribute: String,
        /// Maximum allowed spread.
        value: f64,
    },
    /// Localize: finish each attribute group before starting the next.
    Localize {
        /// Grouping attribute, e.g. `"market"`.
        attribute: String,
    },
    /// Conflict scope: which related instances count as conflicting.
    ConflictScope {
        /// `"same_instance"` or `"service_chain"` (neighbors included).
        value: String,
    },
}

/// A frozen element: an attribute selector plus an optional busy period.
/// Without a period the element is frozen for the whole window.
#[derive(Clone, Debug, PartialEq)]
pub struct FrozenElement {
    /// Optional freeze start.
    pub start: Option<String>,
    /// Optional freeze end.
    pub end: Option<String>,
    /// Attribute selector, e.g. `{"common_id": "id000041"}` or
    /// `{"market": "NYC"}`. Exactly one key is expected.
    pub selector: BTreeMap<String, String>,
}

/// A conflict-table entry in the JSON API.
#[derive(Clone, Debug, PartialEq)]
pub struct ConflictPeriod {
    /// Busy-period start.
    pub start: String,
    /// Busy-period end.
    pub end: String,
    /// Tickets responsible.
    pub tickets: Vec<String>,
}

/// Scheduling window section of the intent.
#[derive(Clone, Debug, PartialEq)]
pub struct WindowSpec {
    /// Window start, `"YYYY-MM-DD HH:MM:SS"`.
    pub start: String,
    /// Window end.
    pub end: String,
    /// Slot granularity.
    pub granularity: Granularity,
}

/// Maintenance window section (times-of-day; timezone is informational —
/// the generated schedule interprets slots in each node's local time).
#[derive(Clone, Debug, PartialEq)]
pub struct MaintenanceSpec {
    /// Start time-of-day, `"H:MM"`.
    pub start: String,
    /// End time-of-day, `"H:MM"`.
    pub end: String,
    /// Granularity label (informational).
    pub granularity: Option<String>,
    /// `"local"` or a fixed zone (informational).
    pub timezone: Option<String>,
}

/// Excluded calendar period.
#[derive(Clone, Debug, PartialEq)]
pub struct PeriodSpec {
    /// Period start.
    pub start: String,
    /// Period end.
    pub end: String,
}

/// The full high-level intent (Listing 1).
#[derive(Clone, Debug, PartialEq)]
pub struct PlanIntent {
    /// Calendar horizon and slot granularity.
    pub scheduling_window: WindowSpec,
    /// Nightly execution window.
    pub maintenance_window: MaintenanceSpec,
    /// Holidays / special events with no scheduling.
    pub excluded_periods: Vec<PeriodSpec>,
    /// Elementary schedulable attribute (ESA, §3.3.2).
    pub schedulable_attribute: String,
    /// Conflict attribute (CA).
    pub conflict_attribute: String,
    /// Elements that must not be touched.
    pub frozen_elements: Vec<FrozenElement>,
    /// Ticketed busy periods keyed by element id (e.g. `"id000001"`).
    pub conflict_table: BTreeMap<String, Vec<ConflictPeriod>>,
    /// High-level constraint rules.
    pub constraints: Vec<ConstraintRule>,
}

impl PlanIntent {
    /// Parse the JSON intent API (Listing 1). Malformed text is a
    /// [`CornetError::Parse`] naming the byte offset.
    pub fn from_json(json: &str) -> Result<Self> {
        from_json_value(&parse(json)?)
    }

    /// Build an intent from an already-parsed [`JsonValue`] document —
    /// used by loaders (e.g. the static-analysis bundle reader) that embed
    /// an intent object inside a larger JSON file.
    pub fn from_value(root: &JsonValue) -> Result<Self> {
        from_json_value(root)
    }

    /// Resolve the scheduling window into typed form.
    pub fn window(&self) -> Result<SchedulingWindow> {
        let start = SimTime::parse(&self.scheduling_window.start)?;
        let end = SimTime::parse(&self.scheduling_window.end)?;
        if end < start {
            return Err(CornetError::InvalidIntent(
                "scheduling window ends before it starts".into(),
            ));
        }
        let parse_hm = |s: &str| -> Result<u32> {
            let (h, m) = s
                .split_once(':')
                .ok_or_else(|| CornetError::Parse(format!("bad time-of-day {s:?}")))?;
            let h: u32 = h
                .trim()
                .parse()
                .map_err(|_| CornetError::Parse(format!("bad hour {s:?}")))?;
            let m: u32 = m
                .trim()
                .parse()
                .map_err(|_| CornetError::Parse(format!("bad minute {s:?}")))?;
            Ok(h * 60 + m)
        };
        let mw_start = parse_hm(&self.maintenance_window.start)?;
        let mw_end = parse_hm(&self.maintenance_window.end)?;
        if mw_start >= 24 * 60 || mw_end > 24 * 60 {
            return Err(CornetError::InvalidIntent(format!(
                "maintenance window times must be within one day: {}–{}",
                self.maintenance_window.start, self.maintenance_window.end
            )));
        }
        if mw_end <= mw_start {
            return Err(CornetError::InvalidIntent(format!(
                "maintenance window ends before it starts ({}–{}); wrap-around windows are not supported",
                self.maintenance_window.start, self.maintenance_window.end
            )));
        }
        let mut excluded = Vec::new();
        for p in &self.excluded_periods {
            excluded.push((SimTime::parse(&p.start)?, SimTime::parse(&p.end)?));
        }
        Ok(SchedulingWindow {
            start,
            end,
            granularity: self.scheduling_window.granularity,
            maintenance: MaintenanceWindow {
                start_minute: mw_start,
                end_minute: mw_end,
            },
            excluded,
        })
    }

    /// Resolve the conflict table against node display ids (`id000001` →
    /// [`NodeId`]); unknown ids are reported, not ignored (§5.3: data
    /// integrity issues must surface).
    pub fn conflicts(&self) -> Result<ConflictTable> {
        let mut table = ConflictTable::new();
        for (key, periods) in &self.conflict_table {
            let node = parse_display_id(key)?;
            for p in periods {
                table.add(
                    node,
                    ConflictEntry {
                        start: SimTime::parse(&p.start)?,
                        end: SimTime::parse(&p.end)?,
                        tickets: p.tickets.clone(),
                    },
                );
            }
        }
        Ok(table)
    }

    /// The requested conflict tolerance (defaults to zero tolerance, the
    /// operations teams' usual request, §3.3.1).
    pub fn tolerance(&self) -> ConflictTolerance {
        self.constraints
            .iter()
            .find_map(|c| match c {
                ConstraintRule::ConflictHandling { value } => Some(*value),
                _ => None,
            })
            .unwrap_or(ConflictTolerance::Zero)
    }

    /// The plain (non-aggregate) concurrency capacity on the schedulable
    /// attribute, when the intent declares one — the per-slot throughput
    /// callers like the heuristic CLI path need.
    pub fn plain_concurrency_capacity(&self) -> Option<i64> {
        self.constraints.iter().find_map(|c| match c {
            ConstraintRule::Concurrency {
                base_attribute,
                aggregate_attribute: None,
                default_capacity,
                ..
            } if *base_attribute == self.schedulable_attribute => Some(*default_capacity),
            _ => None,
        })
    }

    /// The conflict scope (defaults to same-instance).
    pub fn conflict_scope(&self) -> &str {
        self.constraints
            .iter()
            .find_map(|c| match c {
                ConstraintRule::ConflictScope { value } => Some(value.as_str()),
                _ => None,
            })
            .unwrap_or("same_instance")
    }
}

/// Map a parsed [`JsonValue`] document onto [`PlanIntent`].
fn from_json_value(root: &JsonValue) -> Result<PlanIntent> {
    let obj = |v: &JsonValue, what: &str| -> Result<()> {
        if v.entries().is_some() {
            Ok(())
        } else {
            Err(CornetError::Parse(format!(
                "intent JSON: {what} must be an object"
            )))
        }
    };
    obj(root, "document")?;
    let field = |name: &str| -> Result<&JsonValue> {
        root.get(name)
            .ok_or_else(|| CornetError::Parse(format!("intent JSON: missing field {name:?}")))
    };
    let str_of = |v: &JsonValue, what: &str| -> Result<String> {
        v.as_str()
            .map(str::to_owned)
            .ok_or_else(|| CornetError::Parse(format!("intent JSON: {what} must be a string")))
    };

    let sw = field("scheduling_window")?;
    let scheduling_window = WindowSpec {
        start: str_of(
            sw.get("start").unwrap_or(&JsonValue::Null),
            "scheduling_window.start",
        )?,
        end: str_of(
            sw.get("end").unwrap_or(&JsonValue::Null),
            "scheduling_window.end",
        )?,
        granularity: granularity_value(
            sw.get("granularity")
                .ok_or_else(|| CornetError::Parse("intent JSON: missing granularity".into()))?,
        )?,
    };

    let mw = field("maintenance_window")?;
    let maintenance_window = MaintenanceSpec {
        start: str_of(
            mw.get("start").unwrap_or(&JsonValue::Null),
            "maintenance_window.start",
        )?,
        end: str_of(
            mw.get("end").unwrap_or(&JsonValue::Null),
            "maintenance_window.end",
        )?,
        granularity: mw
            .get("granularity")
            .and_then(|v| v.as_str())
            .map(str::to_owned),
        timezone: mw
            .get("timezone")
            .and_then(|v| v.as_str())
            .map(str::to_owned),
    };

    let mut excluded_periods = Vec::new();
    if let Some(periods) = root.get("excluded_periods").and_then(|v| v.as_array()) {
        for p in periods {
            excluded_periods.push(PeriodSpec {
                start: str_of(
                    p.get("start").unwrap_or(&JsonValue::Null),
                    "excluded period start",
                )?,
                end: str_of(
                    p.get("end").unwrap_or(&JsonValue::Null),
                    "excluded period end",
                )?,
            });
        }
    }

    let mut frozen_elements = Vec::new();
    if let Some(frozen) = root.get("frozen_elements").and_then(|v| v.as_array()) {
        for f in frozen {
            let entries = f.entries().ok_or_else(|| {
                CornetError::Parse("intent JSON: frozen element must be an object".into())
            })?;
            let mut element = FrozenElement {
                start: None,
                end: None,
                selector: BTreeMap::new(),
            };
            for (key, value) in entries {
                let text = str_of(value, &format!("frozen element field {key:?}"))?;
                match key.as_str() {
                    "start" => element.start = Some(text),
                    "end" => element.end = Some(text),
                    _ => {
                        element.selector.insert(key.clone(), text);
                    }
                }
            }
            frozen_elements.push(element);
        }
    }

    let mut conflict_table = BTreeMap::new();
    if let Some(entries) = root.get("conflict_table").and_then(|v| v.entries()) {
        for (id, periods) in entries {
            let periods = periods.as_array().ok_or_else(|| {
                CornetError::Parse(format!(
                    "intent JSON: conflict_table[{id:?}] must be an array"
                ))
            })?;
            let mut list = Vec::new();
            for p in periods {
                let mut tickets = Vec::new();
                if let Some(ts) = p.get("tickets").and_then(|v| v.as_array()) {
                    for t in ts {
                        tickets.push(str_of(t, "conflict ticket")?);
                    }
                }
                list.push(ConflictPeriod {
                    start: str_of(p.get("start").unwrap_or(&JsonValue::Null), "conflict start")?,
                    end: str_of(p.get("end").unwrap_or(&JsonValue::Null), "conflict end")?,
                    tickets,
                });
            }
            conflict_table.insert(id.clone(), list);
        }
    }

    let mut constraints = Vec::new();
    for c in field("constraints")?
        .as_array()
        .ok_or_else(|| CornetError::Parse("intent JSON: constraints must be an array".into()))?
    {
        constraints.push(constraint_value(c)?);
    }

    Ok(PlanIntent {
        scheduling_window,
        maintenance_window,
        excluded_periods,
        schedulable_attribute: str_of(field("schedulable_attribute")?, "schedulable_attribute")?,
        conflict_attribute: str_of(field("conflict_attribute")?, "conflict_attribute")?,
        frozen_elements,
        conflict_table,
        constraints,
    })
}

/// Decode a `{"metric": ..., "value": ...}` granularity object.
fn granularity_value(v: &JsonValue) -> Result<Granularity> {
    let metric = match v.get("metric").and_then(|m| m.as_str()) {
        Some("minute") => TimeUnit::Minute,
        Some("hour") => TimeUnit::Hour,
        Some("day") => TimeUnit::Day,
        Some("week") => TimeUnit::Week,
        other => {
            return Err(CornetError::Parse(format!(
                "intent JSON: unknown granularity metric {other:?}"
            )))
        }
    };
    let value = v.get("value").and_then(|x| x.as_f64()).ok_or_else(|| {
        CornetError::Parse("intent JSON: granularity value must be a number".into())
    })?;
    Ok(Granularity::new(metric, value as u32))
}

/// Decode one `{"name": ...}`-tagged constraint rule.
fn constraint_value(c: &JsonValue) -> Result<ConstraintRule> {
    let name = c
        .get("name")
        .and_then(|v| v.as_str())
        .ok_or_else(|| CornetError::Parse("intent JSON: constraint missing \"name\" tag".into()))?;
    let text = |key: &str| -> Result<String> {
        c.get(key)
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| {
                CornetError::Parse(format!("intent JSON: constraint {name:?} missing {key:?}"))
            })
    };
    let number = |key: &str| -> Result<f64> {
        c.get(key).and_then(|v| v.as_f64()).ok_or_else(|| {
            CornetError::Parse(format!("intent JSON: constraint {name:?} missing {key:?}"))
        })
    };
    Ok(match name {
        "conflict_handling" => ConstraintRule::ConflictHandling {
            value: match text("value")?.as_str() {
                "zero-tolerance" => ConflictTolerance::Zero,
                "minimize-conflicts" => ConflictTolerance::Minimize,
                other => {
                    return Err(CornetError::Parse(format!(
                        "intent JSON: unknown conflict tolerance {other:?}"
                    )))
                }
            },
        },
        "concurrency" => ConstraintRule::Concurrency {
            base_attribute: text("base_attribute")?,
            aggregate_attribute: c
                .get("aggregate_attribute")
                .and_then(|v| v.as_str())
                .map(str::to_owned),
            operator: text("operator")?,
            granularity: granularity_value(c.get("granularity").ok_or_else(|| {
                CornetError::Parse("intent JSON: concurrency missing granularity".into())
            })?)?,
            default_capacity: number("default_capacity")? as i64,
        },
        "consistency" => ConstraintRule::Consistency {
            attribute: text("attribute")?,
        },
        "uniformity" => ConstraintRule::Uniformity {
            attribute: text("attribute")?,
            value: number("value")?,
        },
        "localize" => ConstraintRule::Localize {
            attribute: text("attribute")?,
        },
        "conflict_scope" => ConstraintRule::ConflictScope {
            value: text("value")?,
        },
        other => {
            return Err(CornetError::Parse(format!(
                "intent JSON: unknown constraint rule {other:?}"
            )))
        }
    })
}

/// Parse `idNNNNNN` display form back to a [`NodeId`].
pub fn parse_display_id(s: &str) -> Result<NodeId> {
    s.strip_prefix("id")
        .and_then(|d| d.parse::<u32>().ok())
        .map(NodeId)
        .ok_or_else(|| CornetError::UnknownReference(format!("malformed element id {s:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cornet_types::{TimeUnit, Timeslot};

    /// A trimmed version of Listing 1.
    pub(crate) const LISTING1: &str = r#"{
        "scheduling_window": {
            "start": "2020-07-01 00:00:00",
            "end": "2020-07-07 23:59:00",
            "granularity": {"metric": "day", "value": 1}
        },
        "maintenance_window": {
            "start": "0:00", "end": "6:00",
            "granularity": "hour", "timezone": "local"
        },
        "excluded_periods": [
            {"start": "2020-07-01 00:00:00", "end": "2020-07-01 23:59:00"},
            {"start": "2020-07-04 00:00:00", "end": "2020-07-05 23:59:00"}
        ],
        "schedulable_attribute": "common_id",
        "conflict_attribute": "common_id",
        "frozen_elements": [
            {"common_id": "id000041"},
            {"common_id": "id000283",
             "start": "2020-07-03 00:00:00", "end": "2020-07-03 23:59:00"},
            {"market": "NYC",
             "start": "2020-07-03 00:00:00", "end": "2020-07-06 00:00:00"}
        ],
        "conflict_table": {
            "id000001": [
                {"start": "2020-07-01 00:00:00", "end": "2020-07-04 00:00:00",
                 "tickets": ["CHG000005482383"]}
            ],
            "id000002": [
                {"start": "2020-07-03 00:00:00", "end": "2020-07-05 00:00:00",
                 "tickets": ["CHG000005485234", "CHG000005485999"]}
            ]
        },
        "constraints": [
            {"name": "conflict_handling", "value": "minimize-conflicts"},
            {"name": "concurrency", "base_attribute": "common_id",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 300},
            {"name": "concurrency", "base_attribute": "market",
             "operator": "<=", "granularity": {"metric": "day", "value": 1},
             "default_capacity": 5},
            {"name": "concurrency", "base_attribute": "common_id",
             "aggregate_attribute": "pool_id", "operator": "<=",
             "granularity": {"metric": "day", "value": 1},
             "default_capacity": 10},
            {"name": "uniformity", "attribute": "utc_offset", "value": 1},
            {"name": "localize", "attribute": "market"}
        ]
    }"#;

    #[test]
    fn parses_listing1() {
        let intent = PlanIntent::from_json(LISTING1).unwrap();
        assert_eq!(intent.schedulable_attribute, "common_id");
        assert_eq!(intent.constraints.len(), 6);
        assert_eq!(intent.tolerance(), ConflictTolerance::Minimize);
        assert_eq!(intent.frozen_elements.len(), 3);
        assert_eq!(intent.frozen_elements[2].selector["market"], "NYC");
    }

    #[test]
    fn window_resolution() {
        let intent = PlanIntent::from_json(LISTING1).unwrap();
        let w = intent.window().unwrap();
        assert_eq!(w.granularity, Granularity::new(TimeUnit::Day, 1));
        assert_eq!(w.maintenance.start_minute, 0);
        assert_eq!(w.maintenance.end_minute, 360);
        // July 1, 4, 5 excluded → slots 2, 3, 6, 7 usable.
        assert_eq!(
            w.usable_slots(),
            vec![Timeslot(2), Timeslot(3), Timeslot(6), Timeslot(7)]
        );
    }

    #[test]
    fn conflict_table_resolution() {
        let intent = PlanIntent::from_json(LISTING1).unwrap();
        let ct = intent.conflicts().unwrap();
        assert_eq!(ct.node_count(), 2);
        let july3 = SimTime::parse("2020-07-03 12:00:00").unwrap();
        assert_eq!(ct.conflicts_in(NodeId(1), july3, july3), 1);
        assert_eq!(ct.conflicts_in(NodeId(2), july3, july3), 2, "two tickets");
    }

    #[test]
    fn constraint_rule_shapes() {
        let intent = PlanIntent::from_json(LISTING1).unwrap();
        let concurrency: Vec<_> = intent
            .constraints
            .iter()
            .filter(|c| matches!(c, ConstraintRule::Concurrency { .. }))
            .collect();
        assert_eq!(concurrency.len(), 3);
        if let ConstraintRule::Concurrency {
            aggregate_attribute,
            default_capacity,
            ..
        } = concurrency[2]
        {
            assert_eq!(aggregate_attribute.as_deref(), Some("pool_id"));
            assert_eq!(*default_capacity, 10);
        } else {
            unreachable!()
        }
    }

    #[test]
    fn bad_json_is_a_parse_error() {
        let Err(CornetError::Parse(msg)) = PlanIntent::from_json("{ not json") else {
            panic!("malformed intent must be a parse error");
        };
        assert_eq!(msg, "JSON at byte 2: expected '\"'");
    }

    #[test]
    fn inverted_window_rejected() {
        let mut intent = PlanIntent::from_json(LISTING1).unwrap();
        intent.scheduling_window.end = "2020-06-01 00:00:00".into();
        assert!(intent.window().is_err());
    }

    #[test]
    fn maintenance_window_validation() {
        let mut intent = PlanIntent::from_json(LISTING1).unwrap();
        intent.maintenance_window.start = "6:00".into();
        intent.maintenance_window.end = "0:00".into();
        assert!(intent.window().is_err(), "wrap-around rejected");
        intent.maintenance_window.start = "25:00".into();
        intent.maintenance_window.end = "26:00".into();
        assert!(intent.window().is_err(), "out-of-day hours rejected");
    }

    #[test]
    fn display_id_round_trip() {
        assert_eq!(parse_display_id("id000283").unwrap(), NodeId(283));
        assert!(parse_display_id("283").is_err());
        assert!(parse_display_id("idxyz").is_err());
    }

    #[test]
    fn defaults_are_conservative() {
        let minimal = r#"{
            "scheduling_window": {"start": "2020-07-01 00:00:00",
                                   "end": "2020-07-07 23:59:00",
                                   "granularity": {"metric": "day", "value": 1}},
            "maintenance_window": {"start": "0:00", "end": "6:00"},
            "schedulable_attribute": "common_id",
            "conflict_attribute": "common_id",
            "constraints": []
        }"#;
        let intent = PlanIntent::from_json(minimal).unwrap();
        assert_eq!(intent.tolerance(), ConflictTolerance::Zero);
        assert_eq!(intent.conflict_scope(), "same_instance");
        assert!(intent.excluded_periods.is_empty());
    }
}
