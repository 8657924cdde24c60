//! Implementation-variant selection (the `type` argument of the paper's
//! `*_init` functions).

/// Variant bits accepted when initializing a synchronization variable.
///
/// "The programmer may choose the particular implementation variant of the
/// synchronization semantic at the time the variable is initialized. If the
/// variable is initialized to zero, a default implementation is used."
///
/// Bits compose with bitwise-or, e.g. `SyncType::SPIN | SyncType::SHARED`
/// ("The programmer may bitwise-or `THREAD_SYNC_SHARED` into the variant
/// type").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SyncType(pub u32);

impl SyncType {
    /// The default variant: sleep on contention (value zero, so zeroed
    /// memory selects it).
    pub const DEFAULT: SyncType = SyncType(0);
    /// `THREAD_SYNC_SHARED`: the variable may live in memory shared between
    /// processes; all blocking goes through the kernel.
    pub const SHARED: SyncType = SyncType(0x1);
    /// Busy-wait instead of sleeping (the paper's "spin locks").
    pub const SPIN: SyncType = SyncType(0x2);
    /// Spin briefly, then sleep (the paper's "adaptive locks").
    pub const ADAPTIVE: SyncType = SyncType(0x4);
    /// The paper's "extra debugging" variant: ownership is tracked and
    /// misuse (releasing an unheld lock, recursive entry by the owner)
    /// panics instead of corrupting state. Costs one extra word of traffic
    /// per operation; not usable across processes.
    pub const DEBUG: SyncType = SyncType(0x8);

    /// Whether the `SHARED` bit is set.
    #[inline]
    pub fn is_shared(self) -> bool {
        self.0 & Self::SHARED.0 != 0
    }

    /// Whether the `SPIN` bit is set.
    #[inline]
    pub fn is_spin(self) -> bool {
        self.0 & Self::SPIN.0 != 0
    }

    /// Whether the `ADAPTIVE` bit is set.
    #[inline]
    pub fn is_adaptive(self) -> bool {
        self.0 & Self::ADAPTIVE.0 != 0
    }

    /// Whether the `DEBUG` bit is set.
    #[inline]
    pub fn is_debug(self) -> bool {
        self.0 & Self::DEBUG.0 != 0
    }
}

impl core::ops::BitOr for SyncType {
    type Output = SyncType;
    fn bitor(self, rhs: SyncType) -> SyncType {
        SyncType(self.0 | rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        let t = SyncType::default();
        assert_eq!(t, SyncType::DEFAULT);
        assert!(!t.is_shared() && !t.is_spin() && !t.is_adaptive());
    }

    #[test]
    fn bits_compose() {
        let t = SyncType::SPIN | SyncType::SHARED;
        assert!(t.is_shared());
        assert!(t.is_spin());
        assert!(!t.is_adaptive());
    }
}
