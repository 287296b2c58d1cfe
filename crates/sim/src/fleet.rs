//! Multi-relay medium names: one warehouse, one reader, N drone-borne
//! relays.
//!
//! The fleet physics — coherent/incoherent downlink superposition,
//! Δf-rejected uplink leakage, TDM serving — lives in the shared
//! propagation core, [`crate::medium::WorldMedium`]. This module keeps
//! the fleet-facing names ([`FleetMedium`], [`FleetRelay`],
//! [`FLEET_PASSBAND`]) and the fleet behavior tests.

use crate::medium::WorldMedium;

pub use crate::medium::{FleetRelay, FLEET_PASSBAND};

/// Reader ↔ serving relay ↔ tags, with the rest of the fleet
/// radiating: the fleet view of [`WorldMedium`]. Construct with
/// [`WorldMedium::fleet`].
pub type FleetMedium<'a> = WorldMedium<'a>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{PhasorWorld, RelayModel};
    use rfly_channel::environment::Environment;
    use rfly_channel::geometry::Point2;
    use rfly_dsp::rng::StdRng;
    use rfly_dsp::units::Hertz;
    use rfly_protocol::commands::Command;
    use rfly_protocol::epc::Epc;
    use rfly_reader::config::ReaderConfig;
    use rfly_reader::inventory::InventoryController;
    use rfly_reader::inventory::Medium;
    use rfly_tag::population::TagPopulation;
    use rfly_tag::tag::PassiveTag;

    fn world_with_tag(tag_pos: Point2, seed: u64) -> PhasorWorld {
        let mut tags = TagPopulation::new();
        tags.add(
            PassiveTag::new(Epc::from_index(1), 7, tag_pos),
            "test".into(),
        );
        PhasorWorld::new(
            Environment::free_space(),
            Point2::ORIGIN,
            ReaderConfig::usrp_default(),
            tags,
            RelayModel::prototype(Hertz::mhz(915.0)),
            seed,
        )
    }

    fn member(f1_mhz: f64, shift_mhz: f64, pos: Point2) -> FleetRelay {
        let mut model = RelayModel::prototype(Hertz::mhz(f1_mhz));
        model.f2 = model.f1 + Hertz::mhz(shift_mhz);
        FleetRelay { model, pos }
    }

    fn inventory(medium: &mut dyn Medium, seed: u64) -> Vec<rfly_reader::inventory::TagRead> {
        let mut c =
            InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(seed));
        c.run_until_quiet(medium, 10)
    }

    #[test]
    fn single_relay_fleet_behaves_like_relayed_medium() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 3);
        let fleet = vec![member(915.0, 1.0, Point2::new(48.0, 0.0))];
        let reads = inventory(&mut FleetMedium::fleet(&mut w, fleet, 0), 3);
        assert!(reads.iter().any(|r| r.epc == Epc::from_index(1)));
        assert!(reads.iter().any(|r| r.epc == PhasorWorld::embedded_epc()));
    }

    #[test]
    fn co_channel_neighbor_jams_the_serving_uplink() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 4);
        // Both relays on the same f1/f2: zero Δf rejection.
        let fleet = vec![
            member(915.0, 1.0, Point2::new(48.0, 0.0)),
            member(915.0, 1.0, Point2::new(48.0, 8.0)),
        ];
        let reads = inventory(&mut FleetMedium::fleet(&mut w, fleet, 0), 4);
        assert!(
            !reads.iter().any(|r| r.epc == Epc::from_index(1)),
            "co-channel interference should bury the tag reply"
        );
    }

    #[test]
    fn offset_neighbor_is_rejected_by_the_chain_filters() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 4);
        // Same geometry as the jamming case, but 5 MHz apart.
        let fleet = vec![
            member(915.0, 1.0, Point2::new(48.0, 0.0)),
            member(920.0, 1.0, Point2::new(48.0, 8.0)),
        ];
        let reads = inventory(&mut FleetMedium::fleet(&mut w, fleet, 0), 4);
        assert!(
            reads.iter().any(|r| r.epc == Epc::from_index(1)),
            "Δf-offset neighbor should be filtered out"
        );
    }

    #[test]
    fn fleet_raises_incident_power_incoherently() {
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 5);
        let near = Point2::new(46.0, 0.0);
        let one = vec![member(915.0, 1.0, near)];
        let solo = FleetMedium::fleet(&mut w, one, 0).incident_at(Point2::new(50.0, 0.0));
        // A second relay the same distance away on another channel
        // doubles the incident power: +3 dB, no fading risk.
        let two = vec![
            member(915.0, 1.0, near),
            member(920.0, 1.0, Point2::new(54.0, 0.0)),
        ];
        let duo = FleetMedium::fleet(&mut w, two, 0).incident_at(Point2::new(50.0, 0.0));
        let gain = (duo - solo).value();
        assert!((gain - 3.01).abs() < 0.1, "incoherent +3 dB, got {gain}");
    }

    #[test]
    fn co_channel_fleet_can_fade_destructively() {
        // Two co-channel relays with a λ/2 path difference cancel at the
        // tag — the blind-spot hazard that distinct f₂ avoids.
        let mut w = world_with_tag(Point2::new(50.0, 0.0), 6);
        let f2 = Hertz::mhz(916.0);
        let lambda = f2.wavelength();
        let tag = Point2::new(50.0, 0.0);
        let a = Point2::new(46.0, 0.0);
        let b = Point2::new(54.0 + lambda / 2.0, 0.0);
        let co = vec![member(915.0, 1.0, a), member(915.0, 1.0, b)];
        let faded = FleetMedium::fleet(&mut w, co.clone(), 0).incident_at(tag);
        let offset = vec![member(915.0, 1.0, a), member(920.0, 1.0, b)];
        let summed = FleetMedium::fleet(&mut w, offset, 0).incident_at(tag);
        assert!(
            summed.value() > faded.value() + 1.0,
            "coherent pair {faded} should fade below incoherent pair {summed}"
        );
    }

    #[test]
    fn unstable_serving_relay_is_silent() {
        let mut w = world_with_tag(Point2::new(400.0, 0.0), 7);
        let fleet = vec![member(915.0, 1.0, Point2::new(399.0, 0.0))];
        let mut m = FleetMedium::fleet(&mut w, fleet, 0);
        assert!(!m.stable());
        assert!(m.transact(&Command::Nak).is_empty());
    }
}
