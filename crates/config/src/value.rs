//! The JSON document model.

use std::collections::BTreeMap;
use std::fmt;

use crate::error::ConfigError;

/// An ordered string-keyed map, the representation of JSON objects.
///
/// `BTreeMap` keeps key order deterministic, which matters for reproducible
/// serialization of configurations.
pub type Map = BTreeMap<String, Value>;

/// A JSON value.
///
/// Integers are kept separate from floats (`Int` vs `Float`) so that
/// configuration quantities such as buffer depths or radixes never suffer
/// floating-point round-off.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null`.
    Null,
    /// JSON `true` / `false`.
    Bool(bool),
    /// A JSON number with no fractional part or exponent.
    Int(i64),
    /// A JSON number with a fractional part or exponent.
    Float(f64),
    /// A JSON string.
    Str(String),
    /// A JSON array.
    Array(Vec<Value>),
    /// A JSON object.
    Object(Map),
}

impl Value {
    /// Parses a JSON document. Equivalent to [`crate::parse`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] describing the first syntax error, with
    /// line and column information.
    pub fn parse(text: &str) -> Result<Value, ConfigError> {
        crate::parse(text)
    }

    /// Creates an empty object value.
    pub fn object() -> Value {
        Value::Object(Map::new())
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an `i64`, if it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// The value as an `f64`. Integers convert losslessly where possible.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            Value::Int(i) => Some(*i as f64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The value as an object map, if it is an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Mutable object access, if the value is an object.
    pub fn as_object_mut(&mut self) -> Option<&mut Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this value is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// A short name of this value's JSON type, for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }

    /// Direct child of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }

    /// Looks up a descendant by dotted path, e.g. `network.router.radix`.
    ///
    /// Array elements are addressed by numeric segments: `widths.2`.
    ///
    /// # Example
    ///
    /// ```
    /// # use supersim_config::parse;
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let v = parse(r#"{"a": {"b": [10, 20]}}"#)?;
    /// assert_eq!(v.path("a.b.1").and_then(|x| x.as_u64()), Some(20));
    /// # Ok(())
    /// # }
    /// ```
    pub fn path(&self, path: &str) -> Option<&Value> {
        let mut cur = self;
        for seg in path.split('.') {
            cur = match cur {
                Value::Object(m) => m.get(seg)?,
                Value::Array(a) => a.get(seg.parse::<usize>().ok()?)?,
                _ => return None,
            };
        }
        Some(cur)
    }

    /// Sets a descendant by dotted path, creating intermediate objects as
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns an error if the path traverses a non-object, non-array value,
    /// or indexes an array out of bounds or with a non-numeric segment.
    pub fn set_path(&mut self, path: &str, value: Value) -> Result<(), ConfigError> {
        let segments: Vec<&str> = path.split('.').collect();
        if segments.iter().any(|s| s.is_empty()) {
            return Err(ConfigError::BadPath {
                path: path.to_string(),
            });
        }
        let mut cur = self;
        for (i, seg) in segments.iter().enumerate() {
            let last = i == segments.len() - 1;
            match cur {
                Value::Object(m) => {
                    if last {
                        m.insert((*seg).to_string(), value);
                        return Ok(());
                    }
                    cur = m.entry((*seg).to_string()).or_insert_with(Value::object);
                }
                Value::Array(a) => {
                    let idx: usize = seg.parse().map_err(|_| ConfigError::BadPath {
                        path: path.to_string(),
                    })?;
                    let slot = a.get_mut(idx).ok_or_else(|| ConfigError::BadPath {
                        path: path.to_string(),
                    })?;
                    if last {
                        *slot = value;
                        return Ok(());
                    }
                    cur = slot;
                }
                other => {
                    return Err(ConfigError::PathThroughScalar {
                        path: path.to_string(),
                        found: other.type_name(),
                    })
                }
            }
        }
        unreachable!("set_path loop always returns on the last segment")
    }

    /// Typed lookup helpers that produce descriptive errors — the workhorses
    /// of component constructors.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Missing`] when the path does not exist and
    /// [`ConfigError::WrongType`] when it has the wrong JSON type.
    pub fn req_u64(&self, path: &str) -> Result<u64, ConfigError> {
        self.req(path)?
            .as_u64()
            .ok_or_else(|| wrong(self, path, "uint"))
    }

    /// See [`Value::req_u64`].
    pub fn req_i64(&self, path: &str) -> Result<i64, ConfigError> {
        self.req(path)?
            .as_i64()
            .ok_or_else(|| wrong(self, path, "int"))
    }

    /// See [`Value::req_u64`].
    pub fn req_f64(&self, path: &str) -> Result<f64, ConfigError> {
        self.req(path)?
            .as_f64()
            .ok_or_else(|| wrong(self, path, "float"))
    }

    /// See [`Value::req_u64`].
    pub fn req_bool(&self, path: &str) -> Result<bool, ConfigError> {
        self.req(path)?
            .as_bool()
            .ok_or_else(|| wrong(self, path, "bool"))
    }

    /// See [`Value::req_u64`].
    pub fn req_str(&self, path: &str) -> Result<&str, ConfigError> {
        self.req(path)?
            .as_str()
            .ok_or_else(|| wrong(self, path, "string"))
    }

    /// See [`Value::req_u64`].
    pub fn req_array(&self, path: &str) -> Result<&[Value], ConfigError> {
        self.req(path)?
            .as_array()
            .ok_or_else(|| wrong(self, path, "array"))
    }

    /// Required sub-object lookup; component constructors use this to pass
    /// sub-blocks down to child constructors (paper §III-C).
    pub fn req_obj(&self, path: &str) -> Result<&Value, ConfigError> {
        let v = self.req(path)?;
        if v.as_object().is_some() {
            Ok(v)
        } else {
            Err(wrong(self, path, "object"))
        }
    }

    /// A `uint` setting that must fit in 32 bits.
    ///
    /// # Errors
    ///
    /// As [`Value::req_u64`], and [`ConfigError::Invalid`] naming the
    /// path when the value exceeds `u32::MAX`.
    pub fn req_u32(&self, path: &str) -> Result<u32, ConfigError> {
        let n = self.req_u64(path)?;
        u32::try_from(n).map_err(|_| {
            ConfigError::invalid(path, format!("{n} is out of range (at most {})", u32::MAX))
        })
    }

    /// Optional typed lookup with a default.
    pub fn opt_u64(&self, path: &str, default: u64) -> Result<u64, ConfigError> {
        match self.path(path) {
            None => Ok(default),
            Some(_) => self.req_u64(path),
        }
    }

    /// See [`Value::opt_u64`] and [`Value::req_u32`].
    pub fn opt_u32(&self, path: &str, default: u32) -> Result<u32, ConfigError> {
        match self.path(path) {
            None => Ok(default),
            Some(_) => self.req_u32(path),
        }
    }

    /// See [`Value::opt_u64`].
    pub fn opt_f64(&self, path: &str, default: f64) -> Result<f64, ConfigError> {
        match self.path(path) {
            None => Ok(default),
            Some(_) => self.req_f64(path),
        }
    }

    /// See [`Value::opt_u64`].
    pub fn opt_bool(&self, path: &str, default: bool) -> Result<bool, ConfigError> {
        match self.path(path) {
            None => Ok(default),
            Some(_) => self.req_bool(path),
        }
    }

    /// See [`Value::opt_u64`].
    pub fn opt_str<'a>(&'a self, path: &str, default: &'a str) -> Result<&'a str, ConfigError> {
        match self.path(path) {
            None => Ok(default),
            Some(_) => self.req_str(path),
        }
    }

    /// Required array of `u64`, e.g. torus dimension widths.
    ///
    /// # Errors
    ///
    /// Returns an error if missing, not an array, or any element is not a
    /// non-negative integer.
    pub fn req_u64_array(&self, path: &str) -> Result<Vec<u64>, ConfigError> {
        self.req_array(path)?
            .iter()
            .map(|v| v.as_u64().ok_or_else(|| wrong(self, path, "array of uint")))
            .collect()
    }

    fn req(&self, path: &str) -> Result<&Value, ConfigError> {
        self.path(path).ok_or_else(|| ConfigError::Missing {
            path: path.to_string(),
        })
    }
}

fn wrong(root: &Value, path: &str, expected: &'static str) -> ConfigError {
    ConfigError::WrongType {
        path: path.to_string(),
        expected,
        found: root.path(path).map(Value::type_name).unwrap_or("missing"),
    }
}

impl Default for Value {
    /// The default value is an empty object, the natural root of a
    /// configuration document.
    fn default() -> Self {
        Value::object()
    }
}

impl fmt::Display for Value {
    /// Displays as compact JSON.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_json())
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v as i64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Builds an object [`Value`] with struct-literal-like syntax.
///
/// # Example
///
/// ```
/// use supersim_config::obj;
///
/// let v = obj! {
///     "name" => "torus",
///     "widths" => vec![4u64, 4, 4],
///     "nested" => obj! { "x" => 1i64 },
/// };
/// assert_eq!(v.path("nested.x").and_then(|x| x.as_i64()), Some(1));
/// ```
#[macro_export]
macro_rules! obj {
    ( $( $key:expr => $val:expr ),* $(,)? ) => {{
        let mut m = $crate::Map::new();
        $( m.insert($key.to_string(), $crate::Value::from($val)); )*
        $crate::Value::Object(m)
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Value {
        Value::parse(
            r#"{"network": {"router": {"radix": 16, "arch": "iq"},
                "widths": [8, 8, 8], "rate": 0.5, "adaptive": true}}"#,
        )
        .unwrap()
    }

    #[test]
    fn path_lookup() {
        let v = sample();
        assert_eq!(v.path("network.router.radix").unwrap().as_u64(), Some(16));
        assert_eq!(v.path("network.widths.1").unwrap().as_u64(), Some(8));
        assert!(v.path("network.nope").is_none());
        assert!(v.path("network.router.radix.deeper").is_none());
    }

    #[test]
    fn typed_accessors() {
        let v = sample();
        assert_eq!(v.req_u64("network.router.radix").unwrap(), 16);
        assert_eq!(v.req_str("network.router.arch").unwrap(), "iq");
        assert_eq!(v.req_f64("network.rate").unwrap(), 0.5);
        assert!(v.req_bool("network.adaptive").unwrap());
        assert_eq!(v.req_u64_array("network.widths").unwrap(), vec![8, 8, 8]);
        // Integers widen to f64.
        assert_eq!(v.req_f64("network.router.radix").unwrap(), 16.0);
    }

    #[test]
    fn typed_errors() {
        let v = sample();
        assert!(matches!(
            v.req_u64("network.missing"),
            Err(ConfigError::Missing { .. })
        ));
        let err = v.req_u64("network.router.arch").unwrap_err();
        assert!(err.to_string().contains("expected uint"));
        // A 32-bit setting takes u32::MAX and names the key past it.
        let v = Value::parse(r#"{"max": 4294967295, "over": 4294967296}"#).unwrap();
        assert_eq!(v.req_u32("max").unwrap(), u32::MAX);
        assert_eq!(
            v.req_u32("over").unwrap_err().to_string(),
            "invalid setting \"over\": 4294967296 is out of range (at most 4294967295)"
        );
    }

    #[test]
    fn optional_defaults() {
        let v = sample();
        assert_eq!(v.opt_u64("network.missing", 7).unwrap(), 7);
        assert_eq!(v.opt_u64("network.router.radix", 7).unwrap(), 16);
        assert!(v.opt_u64("network.router.arch", 7).is_err());
        assert_eq!(v.opt_u32("network.missing", 7).unwrap(), 7);
        assert_eq!(v.opt_u32("network.router.radix", 7).unwrap(), 16);
        assert!(v.opt_u32("network.router.arch", 7).is_err());
        assert_eq!(v.opt_str("network.missing", "dflt").unwrap(), "dflt");
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut v = Value::object();
        v.set_path("a.b.c", Value::Int(5)).unwrap();
        assert_eq!(v.path("a.b.c").unwrap().as_i64(), Some(5));
        v.set_path("a.b.c", Value::from("now a string")).unwrap();
        assert_eq!(v.path("a.b.c").unwrap().as_str(), Some("now a string"));
    }

    #[test]
    fn set_path_into_array() {
        let mut v = sample();
        v.set_path("network.widths.0", Value::Int(4)).unwrap();
        assert_eq!(v.req_u64_array("network.widths").unwrap(), vec![4, 8, 8]);
        assert!(v.set_path("network.widths.9", Value::Int(1)).is_err());
        assert!(v.set_path("network.widths.x", Value::Int(1)).is_err());
    }

    #[test]
    fn set_path_through_scalar_is_error() {
        let mut v = sample();
        let err = v.set_path("network.rate.deep", Value::Int(1)).unwrap_err();
        assert!(matches!(err, ConfigError::PathThroughScalar { .. }));
    }

    #[test]
    fn obj_macro_builds_nested() {
        let v = obj! { "a" => 1i64, "b" => obj!{ "c" => true } };
        assert_eq!(v.path("a").unwrap().as_i64(), Some(1));
        assert_eq!(v.path("b.c").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Value::from(3u32), Value::Int(3));
        assert_eq!(Value::from(3usize), Value::Int(3));
        assert_eq!(Value::from("x"), Value::Str("x".into()));
        let arr: Value = vec![1i64, 2].into();
        assert_eq!(arr.as_array().unwrap().len(), 2);
        let collected: Value = (0i64..3).collect();
        assert_eq!(collected.as_array().unwrap().len(), 3);
    }

    #[test]
    fn type_names() {
        assert_eq!(Value::Null.type_name(), "null");
        assert_eq!(Value::Bool(true).type_name(), "bool");
        assert_eq!(Value::Float(1.5).type_name(), "float");
        assert_eq!(Value::object().type_name(), "object");
    }
}
