//! Basic identifiers and values shared across the consistency-model core.

use core::fmt;

use regular_storage::wire_layout;

/// Identifier of an application process (Section 3.1 of the paper).
///
/// Processes issue operations on services, exchange messages with one another,
/// and are the unit over which per-process (sub-execution) equivalence is
/// defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

/// Identifier of an operation (or transaction) within a [`crate::history::History`].
///
/// Operation ids are dense indices assigned by the history builder in
/// insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u32);

impl OpId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a service in a (possibly composite) service (Section 3.2).
///
/// A composite service is the composition of several constituent services;
/// transactions never span services.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ServiceId(pub u32);

wire_layout! { struct ServiceId(id) }

impl ServiceId {
    /// The default key-value service used when only one service exists.
    pub const KV: ServiceId = ServiceId(0);
    /// A second service, conventionally the messaging/queue service of the
    /// photo-sharing example.
    pub const QUEUE: ServiceId = ServiceId(1);
}

/// A key in a key-value or queue service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

wire_layout! { struct Key(key) }

/// A value stored under a key.
///
/// The all-zero value is reserved to mean "not present" ([`Value::NULL`]),
/// matching the paper's convention that reading an absent key returns null.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Value(pub u64);

wire_layout! { struct Value(value) }

impl Value {
    /// The value returned when a key is not present.
    pub const NULL: Value = Value(0);

    /// True if this is the null (absent) value.
    pub fn is_null(self) -> bool {
        self == Value::NULL
    }
}

/// A real-time instant, in microseconds, on the global (omniscient) clock used
/// to define the real-time order of an execution.
///
/// Application processes cannot observe this clock; it exists only in the
/// formal model (and in the simulator harness recording histories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The zero timestamp.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Constructs a timestamp from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Timestamp(us)
    }

    /// The timestamp in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

impl fmt::Display for ServiceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "svc{}", self.0)
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_null() {
            write!(f, "null")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_value() {
        assert!(Value::NULL.is_null());
        assert!(!Value(3).is_null());
    }

    #[test]
    fn ordering() {
        assert!(Timestamp(1) < Timestamp(2));
        assert!(OpId(0) < OpId(1));
        assert!(Key(5) > Key(4));
    }

    #[test]
    fn display() {
        assert_eq!(ProcessId(2).to_string(), "P2");
        assert_eq!(OpId(7).to_string(), "op7");
        assert_eq!(Value::NULL.to_string(), "null");
        assert_eq!(Value(9).to_string(), "9");
        assert_eq!(Key(1).to_string(), "k1");
        assert_eq!(Timestamp(10).to_string(), "10us");
        assert_eq!(ServiceId::KV.to_string(), "svc0");
    }

    #[test]
    fn opid_index() {
        assert_eq!(OpId(3).index(), 3);
    }
}
