//! The publication epoch as a type.

use std::fmt;

/// A publication epoch, bound into every signature of its publication.
///
/// Every decision made about an epoch is one of three questions: *does this
/// candidate advance the current epoch*, *would adopting it roll us back*,
/// and *what is the next epoch*. `Epoch` answers those and nothing else:
/// with no `PartialOrd` and no arithmetic, a raw `<` or `+ 1` on an epoch —
/// how off-by-one rollback windows are born — does not compile. Equality
/// stays free (`pinned == served` is a match, not an ordering). Wire
/// messages carry epochs as plain `u64`s; a holder wraps one with
/// [`Epoch::new`] where it orders it.
///
/// ```compile_fail,E0369
/// let (a, b) = (vaq_wire::Epoch::new(1), vaq_wire::Epoch::new(2));
/// let _ = a < b;
/// ```
///
/// ```compile_fail,E0369
/// let _ = vaq_wire::Epoch::new(1) + 1;
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Epoch(u64);

impl Epoch {
    /// The epoch numbered `epoch`.
    pub const fn new(epoch: u64) -> Epoch {
        Epoch(epoch)
    }

    /// The epoch's number, as the wire and the signatures carry it.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// True when `self` strictly advances `current` — the only condition
    /// under which a republication or an offered signed map may be adopted.
    /// A same-epoch candidate does **not** advance.
    pub fn advances(self, current: Epoch) -> bool {
        self.0 > current.0
    }

    /// True when adopting `self` would roll a holder of `current` back to a
    /// superseded publication. Strict: a same-epoch offer is no rollback.
    pub fn rolls_back(self, current: Epoch) -> bool {
        self.0 < current.0
    }

    /// The epoch following `self`. Saturates at `u64::MAX` instead of
    /// wrapping: a wrapped 0 would read as *older than everything* and open
    /// a rollback hole, while a pinned ceiling merely stops republication.
    pub fn next(self) -> Epoch {
        Epoch(self.0.saturating_add(1))
    }
}

impl PartialEq<u64> for Epoch {
    fn eq(&self, other: &u64) -> bool {
        self.0 == *other
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::Epoch as E;

    #[test]
    fn advances_is_strict() {
        assert!(E::new(1).advances(E::new(0)));
        assert!(E::new(u64::MAX).advances(E::new(41)));
        assert!(!E::new(7).advances(E::new(7)));
        assert!(!E::new(6).advances(E::new(7)));
        assert!(!E::new(u64::MAX).advances(E::new(u64::MAX)));
    }

    #[test]
    fn rolls_back_is_strict() {
        assert!(E::new(6).rolls_back(E::new(7)));
        assert!(E::new(0).rolls_back(E::new(u64::MAX)));
        assert!(!E::new(7).rolls_back(E::new(7)));
        assert!(!E::new(8).rolls_back(E::new(7)));
    }

    #[test]
    fn next_advances_and_saturates() {
        assert_eq!(E::new(0).next(), 1);
        assert!(E::new(41).next().advances(E::new(41)));
        assert_eq!(E::new(u64::MAX).next(), u64::MAX);
        assert_eq!(E::new(u64::MAX - 1).next(), u64::MAX);
    }
}
