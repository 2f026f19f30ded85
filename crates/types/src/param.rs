//! Typed parameters flowing between building blocks.
//!
//! Each building block is defined by an input/output parameter list (§3.1),
//! and the workflow designer must "ensure proper propagation of parameter
//! values across building blocks". `ParamType` gives the designer enough
//! type information to reject incompatible compositions at design time,
//! while `ParamValue` is the runtime value carried in the workflow's global
//! state.

use std::collections::BTreeMap;
use std::fmt;

/// Static type of a building-block parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ParamType {
    /// UTF-8 text (node names, software versions, status strings).
    String,
    /// Signed integer.
    Int,
    /// Floating-point number (KPI values, thresholds).
    Float,
    /// Boolean flag (health status, go/no-go decisions).
    Bool,
    /// Homogeneous list (node lists, KPI vectors).
    List,
    /// String-keyed map (structured results such as pre/post reports).
    Map,
}

impl ParamType {
    /// Every parameter type.
    pub const ALL: [ParamType; 6] = [
        ParamType::String,
        ParamType::Int,
        ParamType::Float,
        ParamType::Bool,
        ParamType::List,
        ParamType::Map,
    ];

    /// The type's name in JSON documents (bundle specs, WAR payloads).
    pub fn label(self) -> &'static str {
        match self {
            ParamType::String => "string",
            ParamType::Int => "int",
            ParamType::Float => "float",
            ParamType::Bool => "bool",
            ParamType::List => "list",
            ParamType::Map => "map",
        }
    }

    /// Inverse of [`ParamType::label`].
    pub fn parse(label: &str) -> Option<ParamType> {
        ParamType::ALL.into_iter().find(|t| t.label() == label)
    }
}

/// Runtime value of a building-block parameter.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamValue {
    /// Text value.
    Str(String),
    /// Integer value.
    Int(i64),
    /// Float value.
    Float(f64),
    /// Boolean value.
    Bool(bool),
    /// List value.
    List(Vec<ParamValue>),
    /// Map value.
    Map(BTreeMap<String, ParamValue>),
}

impl ParamValue {
    /// The [`ParamType`] this value inhabits.
    pub fn param_type(&self) -> ParamType {
        match self {
            ParamValue::Str(_) => ParamType::String,
            ParamValue::Int(_) => ParamType::Int,
            ParamValue::Float(_) => ParamType::Float,
            ParamValue::Bool(_) => ParamType::Bool,
            ParamValue::List(_) => ParamType::List,
            ParamValue::Map(_) => ParamType::Map,
        }
    }

    /// Borrow as `&str` if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ParamValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Borrow as `bool` if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ParamValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric view (ints widen to floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::Int(v) => Some(*v as f64),
            ParamValue::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow as integer if this is an int.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            ParamValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Borrow the list contents if this is a list.
    pub fn as_list(&self) -> Option<&[ParamValue]> {
        match self {
            ParamValue::List(l) => Some(l),
            _ => None,
        }
    }

    /// Borrow the map contents if this is a map.
    pub fn as_map(&self) -> Option<&BTreeMap<String, ParamValue>> {
        match self {
            ParamValue::Map(m) => Some(m),
            _ => None,
        }
    }
}

impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamValue::Str(s) => f.write_str(s),
            ParamValue::Int(v) => write!(f, "{v}"),
            ParamValue::Float(v) => write!(f, "{v}"),
            ParamValue::Bool(b) => write!(f, "{b}"),
            ParamValue::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            ParamValue::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl From<&str> for ParamValue {
    fn from(s: &str) -> Self {
        ParamValue::Str(s.to_owned())
    }
}

impl From<String> for ParamValue {
    fn from(s: String) -> Self {
        ParamValue::Str(s)
    }
}

impl From<i64> for ParamValue {
    fn from(v: i64) -> Self {
        ParamValue::Int(v)
    }
}

impl From<f64> for ParamValue {
    fn from(v: f64) -> Self {
        ParamValue::Float(v)
    }
}

impl From<bool> for ParamValue {
    fn from(v: bool) -> Self {
        ParamValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn types_match_values() {
        assert_eq!(ParamValue::from("x").param_type(), ParamType::String);
        assert_eq!(ParamValue::from(1i64).param_type(), ParamType::Int);
        assert_eq!(ParamValue::from(1.5).param_type(), ParamType::Float);
        assert_eq!(ParamValue::from(true).param_type(), ParamType::Bool);
        assert_eq!(ParamValue::List(vec![]).param_type(), ParamType::List);
        assert_eq!(
            ParamValue::Map(BTreeMap::new()).param_type(),
            ParamType::Map
        );
    }

    #[test]
    fn type_labels_parse_back() {
        for ty in ParamType::ALL {
            assert_eq!(ParamType::parse(ty.label()), Some(ty));
        }
        assert_eq!(ParamType::parse("String"), None);
    }

    #[test]
    fn accessors() {
        assert_eq!(ParamValue::from("hi").as_str(), Some("hi"));
        assert_eq!(ParamValue::from(2i64).as_f64(), Some(2.0));
        assert_eq!(ParamValue::from(2i64).as_i64(), Some(2));
        assert_eq!(ParamValue::from(false).as_bool(), Some(false));
        assert_eq!(ParamValue::from("hi").as_bool(), None);
    }

    #[test]
    fn display_nested() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), ParamValue::from(1i64));
        let v = ParamValue::List(vec![ParamValue::Map(m), ParamValue::from("z")]);
        assert_eq!(v.to_string(), "[{a: 1}, z]");
    }
}
