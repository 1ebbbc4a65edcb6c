//! Keys and values of the key-value model.

use std::borrow::Borrow;
use std::fmt;
use std::sync::Arc;

/// A shared object identifier.
///
/// Keys are cheap to clone (`Arc<str>` internally) because the protocol
/// copies them into read-sets, write-sets, snapshot-queues and messages.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Arc<str>);

impl Key {
    /// Creates a key from anything string-like.
    pub fn new(name: impl AsRef<str>) -> Self {
        Key(Arc::from(name.as_ref()))
    }

    /// The key's textual form.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(value: &str) -> Self {
        Key::new(value)
    }
}

impl From<String> for Key {
    fn from(value: String) -> Self {
        Key::new(value)
    }
}

impl AsRef<str> for Key {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        &self.0
    }
}

/// A value stored under a [`Key`].
///
/// Values are opaque, immutable byte strings; cloning is cheap (`Arc<[u8]>`
/// internally, so clones share one buffer).
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct Value(Arc<[u8]>);

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(bytes: impl Into<Arc<[u8]>>) -> Self {
        Value(bytes.into())
    }

    /// An empty value.
    pub fn empty() -> Self {
        Value::default()
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` if the value holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Interprets the value as UTF-8 text, if possible.
    pub fn as_utf8(&self) -> Option<&str> {
        std::str::from_utf8(&self.0).ok()
    }

    /// Convenience constructor for integer-valued cells (used heavily by the
    /// invariant-checking tests, e.g. bank balances).
    pub fn from_u64(v: u64) -> Self {
        Value(Arc::from(v.to_be_bytes()))
    }

    /// Inverse of [`Value::from_u64`]; `None` if the value is not 8 bytes.
    pub fn to_u64(&self) -> Option<u64> {
        let bytes: [u8; 8] = (*self.0).try_into().ok()?;
        Some(u64::from_be_bytes(bytes))
    }
}

impl From<&[u8]> for Value {
    fn from(value: &[u8]) -> Self {
        Value(Arc::from(value))
    }
}

impl From<Vec<u8>> for Value {
    fn from(value: Vec<u8>) -> Self {
        Value(Arc::from(value))
    }
}

impl From<&str> for Value {
    fn from(value: &str) -> Self {
        Value::from(value.as_bytes())
    }
}

impl From<String> for Value {
    fn from(value: String) -> Self {
        Value::from(value.into_bytes())
    }
}

impl AsRef<[u8]> for Value {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// `Value(b"…")`, printable ASCII verbatim and every other byte (and `"`,
/// `\`) as a `\xNN` escape.
impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Value(b\"")?;
        for &b in self.0.iter() {
            if (b' '..=b'~').contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        f.write_str("\")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn keys_compare_by_content() {
        assert_eq!(Key::new("x"), Key::from("x"));
        assert_ne!(Key::new("x"), Key::new("y"));
        assert!(Key::new("a") < Key::new("b"));
        assert_eq!(Key::new("abc").to_string(), "abc");
    }

    #[test]
    fn keys_can_be_looked_up_by_str() {
        let mut map = HashMap::new();
        map.insert(Key::new("k1"), 1);
        assert_eq!(map.get("k1"), Some(&1));
    }

    #[test]
    fn value_roundtrips_u64() {
        let v = Value::from_u64(123_456);
        assert_eq!(v.to_u64(), Some(123_456));
        assert_eq!(v.len(), 8);
        assert!(Value::from("abc").to_u64().is_none());
    }

    #[test]
    fn value_utf8_view() {
        assert_eq!(Value::from("hello").as_utf8(), Some("hello"));
        assert_eq!(Value::new(vec![0xff, 0xfe]).as_utf8(), None);
    }

    #[test]
    fn empty_value() {
        assert!(Value::empty().is_empty());
        assert_eq!(Value::default(), Value::empty());
        assert_eq!(Value::empty().as_bytes(), &[] as &[u8]);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(vec![1, 2]).as_ref(), &[1, 2]);
        assert_eq!(Value::from(&b"xy"[..]), Value::from("xy".to_string()));
    }
}
