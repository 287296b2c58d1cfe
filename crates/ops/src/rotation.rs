//! Duty roster and the make-before-break rotation planner.
//!
//! Every relay is always in exactly one duty: serving a cell, charging
//! on a dock, or dead. The planner walks the cells in order each tick
//! and swaps a launch-ready standby into any cell whose incumbent has
//! reached its reserve margin — the standby lifts off *first*, so the
//! cell is never left unserved by a planned rotation (make-before-
//! break). The launch frees a dock slot, which is exactly the slot the
//! incumbent lands on; dock occupancy therefore never exceeds capacity
//! even with a single shared pad.

use rfly_drone::energy::EnergyModel;
use rfly_dsp::units::Seconds;

use crate::energy::Battery;

/// What a relay is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Duty {
    /// Hovering over a cell, relaying reader traffic.
    Serving {
        /// Index of the cell being served.
        cell: usize,
    },
    /// Parked on a charging dock.
    Docked {
        /// Index of the dock occupied.
        dock: usize,
    },
    /// Battery flat while serving, or retired — out of the roster.
    Dead,
}

/// One completed swap: `standby` took over `cell` from `incumbent`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rotation {
    /// Campaign tick the swap happened on.
    pub tick: usize,
    /// The cell that changed hands.
    pub cell: usize,
    /// The relay rotated out.
    pub incumbent: usize,
    /// The relay rotated in.
    pub standby: usize,
    /// Dock the incumbent landed on, or `None` if it died in place
    /// and the standby is replacing a downed relay.
    pub dock: Option<usize>,
}

#[derive(Debug, Clone)]
struct RosterRelay {
    battery: Battery,
    duty: Duty,
}

/// The fleet's duty roster: batteries, duties, and dock occupancy.
#[derive(Debug, Clone)]
pub struct Roster {
    relays: Vec<RosterRelay>,
    /// Slot capacity per dock, in dock order.
    slots: Vec<usize>,
}

impl Roster {
    /// Builds the opening roster: relays `0..n_cells` serve cells
    /// `0..n_cells`, the rest park round-robin across the docks.
    ///
    /// Fails if there are fewer relays than cells, more standbys than
    /// dock slots, or a model whose `ready_frac` does not exceed its
    /// `reserve_frac` ([`EnergyModel::check_fractions`]).
    pub fn new(
        model: &EnergyModel,
        n_relays: usize,
        n_cells: usize,
        dock_slots: &[usize],
    ) -> Result<Self, String> {
        model.check_fractions()?;
        if n_relays < n_cells {
            return Err(format!(
                "roster needs at least one relay per cell ({n_relays} relays, {n_cells} cells)"
            ));
        }
        let standbys = n_relays - n_cells;
        let capacity: usize = dock_slots.iter().sum();
        if standbys > capacity {
            return Err(format!(
                "{standbys} standby relays but only {capacity} dock slots"
            ));
        }
        let mut relays = Vec::with_capacity(n_relays);
        let mut occupancy = vec![0usize; dock_slots.len()];
        for relay in 0..n_relays {
            let duty = if relay < n_cells {
                Duty::Serving { cell: relay }
            } else {
                // Lowest-index dock with a free slot; capacity was
                // checked above so one always exists.
                let mut dock = None;
                for (d, &cap) in dock_slots.iter().enumerate() {
                    if occupancy[d] < cap {
                        dock = Some(d);
                        break;
                    }
                }
                let Some(d) = dock else {
                    return Err("dock capacity accounting is inconsistent".into());
                };
                occupancy[d] += 1;
                Duty::Docked { dock: d }
            };
            relays.push(RosterRelay {
                battery: Battery::full(model),
                duty,
            });
        }
        Ok(Self {
            relays,
            slots: dock_slots.to_vec(),
        })
    }

    /// Rebuilds a roster from checkpointed `(duty, charge)` pairs —
    /// the campaign-recovery path. Validates that dock indices exist
    /// and occupancy fits capacity; duties and charges are otherwise
    /// restored verbatim.
    pub fn from_duties(duties: &[(Duty, f64)], dock_slots: &[usize]) -> Result<Self, String> {
        let mut occupancy = vec![0usize; dock_slots.len()];
        let mut relays = Vec::with_capacity(duties.len());
        for &(duty, charge_j) in duties {
            if let Duty::Docked { dock } = duty {
                let cap = dock_slots
                    .get(dock)
                    .ok_or_else(|| format!("checkpoint docks relay on unknown dock {dock}"))?;
                occupancy[dock] += 1;
                if occupancy[dock] > *cap {
                    return Err(format!("checkpoint overflows dock {dock} ({cap} slots)"));
                }
            }
            relays.push(RosterRelay {
                battery: Battery { charge_j },
                duty,
            });
        }
        Ok(Self {
            relays,
            slots: dock_slots.to_vec(),
        })
    }

    /// Checkpointable `(duty, charge)` pairs, in relay order — the
    /// inverse of [`Self::from_duties`].
    pub fn duties(&self) -> Vec<(Duty, f64)> {
        self.relays
            .iter()
            .map(|s| (s.duty, s.battery.charge_j))
            .collect()
    }

    /// The duty of `relay`.
    pub fn duty(&self, relay: usize) -> Duty {
        self.relays[relay].duty
    }

    /// The battery of `relay`.
    pub fn battery(&self, relay: usize) -> &Battery {
        &self.relays[relay].battery
    }

    /// Mutable battery of `relay` (the campaign drains and charges
    /// through this).
    pub fn battery_mut(&mut self, relay: usize) -> &mut Battery {
        &mut self.relays[relay].battery
    }

    /// `(relay, cell)` pairs currently serving, in cell order.
    pub fn serving(&self) -> Vec<(usize, usize)> {
        let mut out: Vec<(usize, usize)> = self
            .relays
            .iter()
            .enumerate()
            .filter_map(|(r, s)| match s.duty {
                Duty::Serving { cell } => Some((r, cell)),
                _ => None,
            })
            .collect();
        out.sort_by_key(|&(_, cell)| cell);
        out
    }

    /// Per-dock occupant counts, in dock order.
    pub fn dock_occupancy(&self) -> Vec<usize> {
        let mut occ = vec![0usize; self.slots.len()];
        for s in &self.relays {
            if let Duty::Docked { dock } = s.duty {
                occ[dock] += 1;
            }
        }
        occ
    }

    /// Asserts dock occupancy never exceeds capacity (campaign-loop
    /// sanity check; also what the dock-contention test leans on).
    pub fn docks_within_capacity(&self) -> bool {
        self.dock_occupancy()
            .iter()
            .zip(&self.slots)
            .all(|(occ, cap)| occ <= cap)
    }

    /// The launch-ready docked relay with the fullest battery (ties
    /// break toward the lowest index), if any.
    fn best_standby(&self, model: &EnergyModel) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (r, s) in self.relays.iter().enumerate() {
            if !matches!(s.duty, Duty::Docked { .. }) || !s.battery.launch_ready(model) {
                continue;
            }
            match best {
                None => best = Some(r),
                Some(b) => {
                    if s.battery
                        .charge_j
                        .total_cmp(&self.relays[b].battery.charge_j)
                        == core::cmp::Ordering::Greater
                    {
                        best = Some(r);
                    }
                }
            }
        }
        best
    }

    /// Lowest-index dock with a free slot.
    fn free_dock(&self) -> Option<usize> {
        let occ = self.dock_occupancy();
        (0..self.slots.len()).find(|&d| occ[d] < self.slots[d])
    }

    /// One planning pass: for each served cell (in cell order), if the
    /// incumbent has reached its reserve margin and a launch-ready
    /// standby is docked, swap them. Both the launching standby and
    /// the landing incumbent pay one `transit` leg of hover energy;
    /// the swap is atomic within the tick, so the cell never goes
    /// unserved. With no ready standby the incumbent keeps serving —
    /// degraded endurance beats an empty cell.
    pub fn rotate(&mut self, model: &EnergyModel, tick: usize, transit: Seconds) -> Vec<Rotation> {
        let mut swaps = Vec::new();
        for (incumbent, cell) in self.serving() {
            if !self.relays[incumbent].battery.at_reserve(model) {
                continue;
            }
            let Some(standby) = self.best_standby(model) else {
                continue;
            };
            // Launch first: the standby's slot frees, and is the slot
            // the incumbent takes — make-before-break.
            self.relays[standby].duty = Duty::Serving { cell };
            self.relays[standby].battery.drain_transit(model, transit);
            let dock = self.free_dock();
            self.relays[incumbent].duty = match dock {
                Some(d) => Duty::Docked { dock: d },
                // Every launch frees a slot, so this arm is dead in
                // practice; a relay with nowhere to land is lost.
                None => Duty::Dead,
            };
            self.relays[incumbent].battery.drain_transit(model, transit);
            swaps.push(Rotation {
                tick,
                cell,
                incumbent,
                standby,
                dock,
            });
        }
        swaps
    }

    /// Retires `relay` (battery flat mid-serve). Returns the cell it
    /// was serving, if any, so the campaign can try a promotion or
    /// repartition around the hole.
    pub fn mark_dead(&mut self, relay: usize) -> Option<usize> {
        let cell = match self.relays[relay].duty {
            Duty::Serving { cell } => Some(cell),
            _ => None,
        };
        self.relays[relay].duty = Duty::Dead;
        cell
    }

    /// Launches the best standby straight into `cell` after its
    /// incumbent died in place. Returns the rotation (dock `None`) or
    /// `None` if no standby is launch-ready.
    pub fn promote(
        &mut self,
        model: &EnergyModel,
        tick: usize,
        cell: usize,
        dead: usize,
        transit: Seconds,
    ) -> Option<Rotation> {
        let standby = self.best_standby(model)?;
        self.relays[standby].duty = Duty::Serving { cell };
        self.relays[standby].battery.drain_transit(model, transit);
        Some(Rotation {
            tick,
            cell,
            incumbent: dead,
            standby,
            dock: None,
        })
    }

    /// Reassigns the serving relays to a fresh cell numbering after a
    /// repartition: the `i`-th surviving server (in old cell order)
    /// takes new cell `i`.
    pub fn renumber_cells(&mut self) {
        let serving = self.serving();
        for (new_cell, (relay, _)) in serving.into_iter().enumerate() {
            self.relays[relay].duty = Duty::Serving { cell: new_cell };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EnergyModel {
        EnergyModel::default()
    }

    #[test]
    fn opening_roster_serves_every_cell_and_parks_the_rest() {
        let m = model();
        let roster = Roster::new(&m, 4, 2, &[1, 1]).unwrap();
        assert_eq!(roster.serving(), vec![(0, 0), (1, 1)]);
        assert_eq!(roster.duty(2), Duty::Docked { dock: 0 });
        assert_eq!(roster.duty(3), Duty::Docked { dock: 1 });
        assert!(roster.docks_within_capacity());
    }

    #[test]
    fn roster_rejects_understaffed_or_overparked_fleets() {
        let m = model();
        assert!(Roster::new(&m, 1, 2, &[4]).is_err());
        assert!(Roster::new(&m, 5, 2, &[1, 1]).is_err());
    }

    #[test]
    fn swap_fires_exactly_at_the_reserve_margin() {
        let m = model();
        let mut roster = Roster::new(&m, 2, 1, &[1]).unwrap();
        // One joule above reserve: no rotation yet.
        roster.battery_mut(0).charge_j = m.reserve_frac * m.capacity_j + 1.0;
        assert!(roster.rotate(&m, 1, Seconds::new(0.0)).is_empty());
        // Exactly at reserve: the standby must take over *this* tick.
        roster.battery_mut(0).charge_j = m.reserve_frac * m.capacity_j;
        let swaps = roster.rotate(&m, 2, Seconds::new(0.0));
        assert_eq!(swaps.len(), 1);
        assert_eq!(swaps[0].incumbent, 0);
        assert_eq!(swaps[0].standby, 1);
        assert_eq!(swaps[0].dock, Some(0));
        assert_eq!(roster.duty(1), Duty::Serving { cell: 0 });
        assert_eq!(roster.duty(0), Duty::Docked { dock: 0 });
    }

    #[test]
    fn single_dock_contention_alternates_without_overflow() {
        // Two relays, one cell, ONE dock slot: the launch must free
        // the slot the lander needs, every time.
        let m = model();
        let mut roster = Roster::new(&m, 2, 1, &[1]).unwrap();
        let mut served_by = Vec::new();
        for tick in 0..6 {
            let (relay, _) = roster.serving()[0];
            // Run the server down to its reserve, recharge the parked one.
            roster.battery_mut(relay).charge_j = m.reserve_frac * m.capacity_j;
            let parked = 1 - relay;
            roster.battery_mut(parked).charge_j = m.capacity_j;
            let swaps = roster.rotate(&m, tick, Seconds::new(30.0));
            assert_eq!(swaps.len(), 1, "tick {tick}");
            assert!(roster.docks_within_capacity(), "tick {tick}");
            served_by.push(roster.serving()[0].0);
        }
        assert_eq!(served_by, vec![1, 0, 1, 0, 1, 0]);
    }

    #[test]
    fn no_ready_standby_means_the_incumbent_soldiers_on() {
        let m = model();
        let mut roster = Roster::new(&m, 2, 1, &[1]).unwrap();
        roster.battery_mut(0).charge_j = m.reserve_frac * m.capacity_j;
        // Standby below its launch-ready bar.
        roster.battery_mut(1).charge_j = 0.5 * m.capacity_j;
        assert!(roster.rotate(&m, 1, Seconds::new(0.0)).is_empty());
        assert_eq!(roster.duty(0), Duty::Serving { cell: 0 });
    }

    #[test]
    fn death_promotes_a_standby_into_the_hole() {
        let m = model();
        let mut roster = Roster::new(&m, 3, 2, &[2]).unwrap();
        roster
            .battery_mut(0)
            .drain_serve(&m, Seconds::new(1e9), m.ref_gain, 0);
        assert!(roster.battery(0).is_empty());
        let cell = roster.mark_dead(0).unwrap();
        let promo = roster.promote(&m, 5, cell, 0, Seconds::new(30.0)).unwrap();
        assert_eq!(promo.standby, 2);
        assert_eq!(promo.dock, None);
        assert_eq!(roster.duty(2), Duty::Serving { cell: 0 });
        assert_eq!(roster.duty(0), Duty::Dead);
    }

    #[test]
    fn renumbering_packs_surviving_servers_densely() {
        let m = model();
        let mut roster = Roster::new(&m, 3, 3, &[]).unwrap();
        roster.mark_dead(1);
        roster.renumber_cells();
        assert_eq!(roster.serving(), vec![(0, 0), (2, 1)]);
    }
}
