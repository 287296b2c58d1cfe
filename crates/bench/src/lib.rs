//! # rfly-bench — experiment harness shared code
//!
//! Each binary in `src/bin/` regenerates one figure (or table) of the
//! paper's evaluation — see DESIGN.md §3 for the full index. This
//! library holds the pieces they share: standard experiment geometries,
//! trial helpers, and a localization-trial driver used by Figs. 12–14
//! and the ablations.

use rfly_dsp::rng::Rng;

use rfly_channel::environment::Environment;
use rfly_channel::geometry::Point2;
use rfly_channel::pathloss::free_space_amplitude;
use rfly_core::loc::disentangle::{isolate_track, paired_reads};
use rfly_core::loc::rssi::RssiLocalizer;
use rfly_core::loc::sar::SarLocalizer;
use rfly_core::loc::trajectory::Trajectory;
use rfly_dsp::units::Meters;
use rfly_dsp::Complex;
use rfly_reader::config::ReaderConfig;
use rfly_sim::medium::WorldMedium;
use rfly_sim::world::{PhasorWorld, RelayModel};

pub mod harness;

/// Re-export shim (keeps binary imports short).
pub mod prelude {
    pub use crate::harness::{quartiles, shelf_items, time, Bench};
    pub use rfly_core::loc::error::ErrorStats;
    pub use rfly_core::relay::gains::IsolationBudget;
    pub use rfly_sim::experiment::{seed_from_args, MonteCarlo};
    pub use rfly_sim::report::{fmt_db, fmt_m, fmt_pct, Table};
}

/// One localization trial through the relay: returns `(sar_error_m,
/// rssi_error_m)` for a tag at `tag`, relay trajectory `traj`, reader at
/// `reader`, in `env`. `snr_penalty` degrades measurement SNR (0 dB for
/// geometric experiments; Fig. 14 maps projected distance onto it).
pub fn localization_trial(
    env: &Environment,
    reader: Point2,
    tag: Point2,
    traj: &Trajectory,
    region: (Point2, Point2),
    seed: u64,
    snr_penalty: rfly_dsp::units::Db,
) -> Option<(f64, f64)> {
    let config = ReaderConfig::usrp_default();
    let mut tags = rfly_tag::population::TagPopulation::new();
    tags.add(
        rfly_tag::tag::PassiveTag::new(rfly_protocol::epc::Epc::from_index(0), seed, tag),
        "trial-tag".into(),
    );
    let mut relay = RelayModel::prototype(config.frequency);
    relay.snr_penalty = snr_penalty;
    let f2 = relay.f2;
    let local_mag = relay.embedded_local.abs();
    let mut world = PhasorWorld::new(env.clone(), reader, config.clone(), tags, relay, seed);

    // Fly and inventory.
    let mut tag_track: Vec<Option<Complex>> = vec![None; traj.len()];
    let mut emb_track: Vec<Option<Complex>> = vec![None; traj.len()];
    for (i, pos) in traj.points().iter().enumerate() {
        world.power_cycle_tags();
        let mut controller = rfly_reader::inventory::InventoryController::new(
            config.clone(),
            rfly_dsp::rng::StdRng::seed_from_u64(seed ^ (i as u64).wrapping_mul(0x9E37)),
        );
        let mut medium = WorldMedium::relayed(&mut world, *pos);
        for read in controller.run_until_quiet(&mut medium, 6) {
            if read.epc == PhasorWorld::embedded_epc() {
                emb_track[i] = Some(read.channel);
            } else {
                tag_track[i] = Some(read.channel);
            }
        }
    }

    let (used, channels) = isolate_track(paired_reads(traj.points(), &tag_track, &emb_track))?;

    // SAR.
    let sar = SarLocalizer::new(f2, region.0, region.1, 0.04);
    let sar_err = sar
        .localize(&used, &channels)
        .map(|(est, _)| est.distance(tag))?;

    // RSSI baseline over the same measurements. Its 1 m reference is
    // the free-space round-trip amplitude over |local|, although the
    // medium builds the disentangled channel as h₂²/local²
    // (`fleet_transact`) and the supervisor's fallback divides by
    // |local|². Settling the formula is ROADMAP item 5 step 2.
    let rssi = RssiLocalizer {
        frequency: f2,
        region_min: region.0,
        region_max: region.1,
        resolution: 0.04,
        reference_amplitude_1m: free_space_amplitude(Meters::new(1.0), f2).powi(2) / local_mag,
    };
    let rssi_err = rssi
        .localize(&used, &channels)
        .map(|est| est.distance(tag))?;

    Some((sar_err, rssi_err))
}

/// Draws a uniform point in a rectangle.
pub fn uniform_point<R: Rng>(rng: &mut R, min: Point2, max: Point2) -> Point2 {
    Point2::new(rng.gen_range(min.x..max.x), rng.gen_range(min.y..max.y))
}
