//! The JSON-shaped value model that `serde_json` renders and parses.
//! It is plain data — neither `Serialize` nor `Deserialize` — and
//! `serde_json` re-exports [`Value`] and [`Map`], so code written
//! against the real crates ([`Value::String`], `Map<String, Value>`, …)
//! compiles unchanged.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// A floating-point number.
    F64(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (insertion-ordered).
    Object(Map),
}

impl Value {
    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(n) => Some(*n),
            Value::I64(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `i64`, if it is an integer that fits.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(n) => Some(*n),
            Value::U64(n) => i64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// The value as `f64`, if it is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::F64(x) => Some(*x),
            Value::U64(n) => Some(*n as f64),
            Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The value as an object.
    pub fn as_object(&self) -> Option<&Map> {
        match self {
            Value::Object(m) => Some(m),
            _ => None,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|m| m.get(key))
    }
}

/// An insertion-ordered string-keyed object, mirroring
/// `serde_json::Map<String, Value>`. The type parameters exist only for
/// signature compatibility; `String`/`Value` is the sole instantiation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Map<K = String, V = Value> {
    entries: Vec<(K, V)>,
}

impl<K, V> Map<K, V> {
    /// An empty map.
    pub fn new() -> Map<K, V> {
        Map {
            entries: Vec::new(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates entries in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, (K, V)> {
        self.entries.iter()
    }
}

impl<K: AsRef<str>, V> Map<K, V> {
    /// Inserts `key` → `value`, replacing any existing entry.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        for entry in &mut self.entries {
            if entry.0.as_ref() == key.as_ref() {
                return Some(std::mem::replace(&mut entry.1, value));
            }
        }
        self.entries.push((key, value));
        None
    }

    /// Looks up `key`.
    pub fn get(&self, key: &str) -> Option<&V> {
        self.entries
            .iter()
            .find(|(k, _)| k.as_ref() == key)
            .map(|(_, v)| v)
    }
}

impl<K: AsRef<str>, V> FromIterator<(K, V)> for Map<K, V> {
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Map<K, V> {
        let mut map = Map::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        map
    }
}

impl<K, V> IntoIterator for Map<K, V> {
    type Item = (K, V);
    type IntoIter = std::vec::IntoIter<(K, V)>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.into_iter()
    }
}
