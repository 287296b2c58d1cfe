//! Gen2 sessions, inventoried flags, and select flags.
//!
//! Sessions are what let multiple readers inventory the same tag
//! population without resetting each other's progress — directly
//! relevant to RFly's deployments where a relay extends an
//! infrastructure of several readers (§4.3).

/// One of the four Gen2 sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Session {
    /// Session 0: inventoried flag decays immediately when unpowered.
    S0,
    /// Session 1: flag persists 0.5–5 s.
    S1,
    /// Session 2: flag persists > 2 s after power loss.
    S2,
    /// Session 3: like S2, independent flag.
    S3,
}

impl Session {
    /// The 2-bit field value.
    pub fn field(self) -> u64 {
        match self {
            Session::S0 => 0b00,
            Session::S1 => 0b01,
            Session::S2 => 0b10,
            Session::S3 => 0b11,
        }
    }

    /// Parses a 2-bit field.
    pub fn from_field(f: u64) -> Self {
        match f & 0b11 {
            0b00 => Session::S0,
            0b01 => Session::S1,
            0b10 => Session::S2,
            _ => Session::S3,
        }
    }
}

/// The per-session inventoried flag value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InventoriedFlag {
    /// Target A (the reset state).
    #[default]
    A,
    /// Target B (set after a successful inventory).
    B,
}

impl InventoriedFlag {
    /// The other flag value.
    pub fn toggled(self) -> Self {
        match self {
            InventoriedFlag::A => InventoriedFlag::B,
            InventoriedFlag::B => InventoriedFlag::A,
        }
    }

    /// The Target bit of a Query (false = A, true = B).
    pub fn bit(self) -> bool {
        matches!(self, InventoriedFlag::B)
    }

    /// Parses the Target bit.
    pub fn from_bit(bit: bool) -> Self {
        if bit {
            InventoriedFlag::B
        } else {
            InventoriedFlag::A
        }
    }
}

/// The set of per-session inventoried flags plus the SL (selected) flag
/// a tag carries.
#[derive(Debug, Clone, Copy, Default)]
pub struct TagFlags {
    inventoried: [InventoriedFlag; 4],
    /// The selected (SL) flag toggled by Select commands.
    pub selected: bool,
}

impl TagFlags {
    /// Fresh tag state: all flags A, not selected.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inventoried flag for `session`.
    pub fn inventoried(&self, session: Session) -> InventoriedFlag {
        self.inventoried[session.field() as usize]
    }

    /// Toggles the inventoried flag for `session` (done after a
    /// successful singulation).
    pub fn toggle_inventoried(&mut self, session: Session) {
        let i = session.field() as usize;
        self.inventoried[i] = self.inventoried[i].toggled();
    }

    /// Sets the inventoried flag for `session` explicitly.
    pub fn set_inventoried(&mut self, session: Session, v: InventoriedFlag) {
        self.inventoried[session.field() as usize] = v;
    }

    /// Models loss of power: S0 resets to A; S1–S3 persistence is
    /// approximated as retained (the drone revisits within seconds).
    pub fn power_cycle(&mut self) {
        self.inventoried[0] = InventoriedFlag::A;
    }

    /// Packs the flag set into 5 bits (S0..S3 inventoried, then SL) —
    /// the persistent tag state a mission checkpoint must carry.
    pub fn snapshot(&self) -> u8 {
        let mut bits = 0u8;
        for (k, f) in self.inventoried.iter().enumerate() {
            if f.bit() {
                bits |= 1 << k;
            }
        }
        if self.selected {
            bits |= 1 << 4;
        }
        bits
    }

    /// Rebuilds a flag set from [`Self::snapshot`] bits.
    pub fn from_bits(bits: u8) -> Self {
        let mut flags = Self::new();
        for (k, f) in flags.inventoried.iter_mut().enumerate() {
            *f = InventoriedFlag::from_bit(bits & (1 << k) != 0);
        }
        flags.selected = bits & (1 << 4) != 0;
        flags
    }
}

/// The Sel field of a Query: which tags (by SL flag) participate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelFilter {
    /// All tags participate.
    All,
    /// Only tags with SL deasserted.
    NotSelected,
    /// Only tags with SL asserted.
    Selected,
}

impl SelFilter {
    /// The 2-bit field value (00/01 both mean All).
    pub fn field(self) -> u64 {
        match self {
            SelFilter::All => 0b00,
            SelFilter::NotSelected => 0b10,
            SelFilter::Selected => 0b11,
        }
    }

    /// Parses a 2-bit field.
    pub fn from_field(f: u64) -> Self {
        match f & 0b11 {
            0b00 | 0b01 => SelFilter::All,
            0b10 => SelFilter::NotSelected,
            _ => SelFilter::Selected,
        }
    }

    /// Whether a tag with SL flag `selected` participates.
    pub fn matches(self, selected: bool) -> bool {
        match self {
            SelFilter::All => true,
            SelFilter::NotSelected => !selected,
            SelFilter::Selected => selected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_fields_roundtrip() {
        for s in [Session::S0, Session::S1, Session::S2, Session::S3] {
            assert_eq!(Session::from_field(s.field()), s);
        }
    }

    #[test]
    fn inventoried_flag_toggles() {
        let a = InventoriedFlag::A;
        assert_eq!(a.toggled(), InventoriedFlag::B);
        assert_eq!(a.toggled().toggled(), a);
        assert!(!a.bit());
        assert_eq!(InventoriedFlag::from_bit(true), InventoriedFlag::B);
    }

    #[test]
    fn flags_are_per_session() {
        let mut f = TagFlags::new();
        f.toggle_inventoried(Session::S1);
        assert_eq!(f.inventoried(Session::S1), InventoriedFlag::B);
        assert_eq!(f.inventoried(Session::S0), InventoriedFlag::A);
        assert_eq!(f.inventoried(Session::S2), InventoriedFlag::A);
    }

    #[test]
    fn power_cycle_resets_only_s0() {
        let mut f = TagFlags::new();
        f.toggle_inventoried(Session::S0);
        f.toggle_inventoried(Session::S2);
        f.power_cycle();
        assert_eq!(f.inventoried(Session::S0), InventoriedFlag::A);
        assert_eq!(f.inventoried(Session::S2), InventoriedFlag::B);
    }

    #[test]
    fn sel_filter_matching() {
        assert!(SelFilter::All.matches(true));
        assert!(SelFilter::All.matches(false));
        assert!(SelFilter::Selected.matches(true));
        assert!(!SelFilter::Selected.matches(false));
        assert!(SelFilter::NotSelected.matches(false));
        assert!(!SelFilter::NotSelected.matches(true));
    }

    #[test]
    fn sel_filter_fields() {
        assert_eq!(SelFilter::from_field(0b00), SelFilter::All);
        assert_eq!(SelFilter::from_field(0b01), SelFilter::All);
        assert_eq!(
            SelFilter::from_field(SelFilter::Selected.field()),
            SelFilter::Selected
        );
        assert_eq!(
            SelFilter::from_field(SelFilter::NotSelected.field()),
            SelFilter::NotSelected
        );
    }

    #[test]
    fn set_inventoried_explicit() {
        let mut f = TagFlags::new();
        f.set_inventoried(Session::S3, InventoriedFlag::B);
        assert_eq!(f.inventoried(Session::S3), InventoriedFlag::B);
    }

    #[test]
    fn flag_snapshot_round_trips_every_combination() {
        for bits in 0u8..32 {
            let f = TagFlags::from_bits(bits);
            assert_eq!(f.snapshot(), bits);
        }
        let mut f = TagFlags::new();
        f.set_inventoried(Session::S1, InventoriedFlag::B);
        f.selected = true;
        let g = TagFlags::from_bits(f.snapshot());
        for s in [Session::S0, Session::S1, Session::S2, Session::S3] {
            assert_eq!(g.inventoried(s), f.inventoried(s));
        }
        assert_eq!(g.selected, f.selected);
    }
}
