//! Identifier newtypes used across the stack.

use std::fmt;

macro_rules! id_type {
    ($(#[$meta:meta])* $name:ident, $prefix:expr) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
        )]
        pub struct $name(pub u64);

        impl $name {
            /// Creates an identifier from its raw numeric value.
            pub const fn new(raw: u64) -> Self {
                $name(raw)
            }

            /// The raw numeric value of this identifier.
            pub const fn raw(self) -> u64 {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u64> for $name {
            fn from(raw: u64) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// Identifies a connected player (and their avatar).
    PlayerId,
    "player-"
);

id_type!(
    /// Identifies a simulated construct (a connected set of stateful blocks).
    ConstructId,
    "sc-"
);

id_type!(
    /// Identifies a single serverless function invocation.
    InvocationId,
    "inv-"
);

id_type!(
    /// Identifies a request issued by the game server to a backend service
    /// (storage read/write, terrain generation, SC offload).
    RequestId,
    "req-"
);

/// A monotonically increasing identifier allocator.
///
/// # Example
///
/// ```
/// use servo_types::id::IdAllocator;
/// use servo_types::PlayerId;
/// let mut alloc = IdAllocator::<PlayerId>::new();
/// assert_eq!(alloc.next(), PlayerId::new(0));
/// assert_eq!(alloc.next(), PlayerId::new(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct IdAllocator<T> {
    next: u64,
    _marker: std::marker::PhantomData<fn() -> T>,
}

impl<T: From<u64>> IdAllocator<T> {
    /// Creates an allocator starting at zero.
    pub fn new() -> Self {
        IdAllocator {
            next: 0,
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocates the next identifier.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> T {
        let id = T::from(self.next);
        self.next += 1;
        id
    }

    /// Number of identifiers allocated so far.
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(PlayerId::new(3).to_string(), "player-3");
        assert_eq!(ConstructId::new(1).to_string(), "sc-1");
        assert_eq!(InvocationId::new(9).to_string(), "inv-9");
        assert_eq!(RequestId::new(0).to_string(), "req-0");
    }

    #[test]
    fn allocator_is_monotonic_and_unique() {
        let mut alloc = IdAllocator::<RequestId>::new();
        let ids: Vec<_> = (0..100).map(|_| alloc.next()).collect();
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.raw(), i as u64);
        }
        assert_eq!(alloc.allocated(), 100);
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(PlayerId::new(1) < PlayerId::new(2));
        assert_eq!(ConstructId::from(7).raw(), 7);
    }
}
