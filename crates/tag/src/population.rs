//! Tag populations: generating and indexing many tags for a scene.
//!
//! Warehouse scenarios involve tens to thousands of tags; this module
//! builds deterministic populations (EPC ↔ index ↔ position) and
//! provides the product-database lookup the paper's §3 describes
//! ("a local database that maps each RFID's unique ID to the object it
//! is attached to").

use std::collections::BTreeMap;

use rfly_channel::geometry::Point2;
use rfly_protocol::epc::Epc;

use crate::tag::PassiveTag;

/// A set of tags plus the EPC → description database.
#[derive(Debug, Default)]
pub struct TagPopulation {
    tags: Vec<PassiveTag>,
    database: BTreeMap<Epc, String>,
}

impl TagPopulation {
    /// An empty population.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `n` tags at the given positions (cycled if shorter than
    /// `n`), with EPCs derived from their index and RNG seeds derived
    /// from `seed_base`.
    pub fn generate(n: usize, positions: &[Point2], seed_base: u64) -> Self {
        assert!(!positions.is_empty() || n == 0, "positions required");
        let mut pop = Self::new();
        for i in 0..n {
            let epc = Epc::from_index(i as u64);
            let pos = positions[i % positions.len()];
            pop.add(
                PassiveTag::new(epc, seed_base.wrapping_add(i as u64), pos),
                format!("item-{i:04}"),
            );
        }
        pop
    }

    /// Adds a tag with its database entry.
    pub fn add(&mut self, tag: PassiveTag, description: String) {
        self.database.insert(tag.epc(), description);
        self.tags.push(tag);
    }

    /// Number of tags.
    pub fn len(&self) -> usize {
        self.tags.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.tags.is_empty()
    }

    /// Immutable tag access.
    pub fn tags(&self) -> &[PassiveTag] {
        &self.tags
    }

    /// Mutable tag access (the simulator drives protocol state).
    pub fn tags_mut(&mut self) -> &mut [PassiveTag] {
        &mut self.tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Point2> {
        (0..n)
            .map(|i| Point2::new(i as f64 % 10.0, (i / 10) as f64))
            .collect()
    }

    #[test]
    fn generate_assigns_unique_epcs() {
        let pop = TagPopulation::generate(50, &grid(50), 7);
        assert_eq!(pop.len(), 50);
        let mut epcs: Vec<Epc> = pop.tags().iter().map(|t| t.epc()).collect();
        epcs.sort();
        epcs.dedup();
        assert_eq!(epcs.len(), 50);
    }

    #[test]
    fn positions_cycle_when_fewer_than_tags() {
        let pop = TagPopulation::generate(6, &grid(3), 2);
        assert_eq!(pop.tags()[0].position(), pop.tags()[3].position());
    }

    #[test]
    fn empty_population() {
        let pop = TagPopulation::new();
        assert!(pop.is_empty());
        assert_eq!(pop.len(), 0);
    }
}
