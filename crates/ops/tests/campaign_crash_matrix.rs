//! The campaign store under the chaos crash matrix: every storage
//! operation of a stored campaign — including ticks that rotate,
//! kill, and repartition the fleet — is crashed in every fault mode,
//! and recovery must leave the durable files bit-identical to an
//! uncrashed campaign's. The uncrashed campaign's own files are pinned
//! byte for byte by the goldens under `tests/golden/`.

use rfly_channel::geometry::Point2;
use rfly_chaos::durable;
use rfly_chaos::{verify_recovery, MemStorage, Storage, StorePaths};
use rfly_dsp::units::Seconds;
use rfly_ops::{CampaignRun, OpsConfig};
use rfly_sim::scene::Scene;

const EVERY: usize = 4;

fn docked_scene() -> Scene {
    let mut scene = Scene::warehouse(16.0, 12.0, 2);
    scene.add_dock(Point2::new(1.0, 11.0), 2);
    scene
}

/// A 2-hour campaign on a standby-short roster: long enough for
/// rotations, deaths, and a repartition — so the matrix crashes
/// storage mid-rotation, not just on quiet ticks.
fn config() -> OpsConfig {
    let mut cfg = OpsConfig::small(11);
    cfg.duration = Seconds::new(7200.0);
    cfg
}

#[test]
fn stored_campaign_matches_the_golden_log_and_checkpoint() {
    let (scene, cfg) = (docked_scene(), config());
    let paths = StorePaths::named("campaign");
    let mut store = MemStorage::new();
    let run = CampaignRun::new(&scene, &cfg).expect("builds");
    durable::run(run, &mut store, &paths, EVERY).expect("campaign completes");
    let text =
        |path: &str| String::from_utf8(store.read(path).expect("file exists")).expect("utf8");
    assert_eq!(
        text(&paths.journal),
        include_str!("golden/campaign_log_seed11.txt"),
        "the campaign tick log diverged from the golden"
    );
    assert_eq!(
        text(&paths.checkpoint),
        include_str!("golden/campaign_checkpoint_seed11.txt"),
        "the campaign checkpoint diverged from the golden"
    );
}

#[test]
fn campaign_store_recovers_at_every_crash_point() {
    let scene = docked_scene();
    let cfg = config();
    let paths = StorePaths::named("campaign");

    // The reference campaign must actually exercise the interesting
    // paths, or the matrix proves nothing about mid-rotation crashes.
    let mut plain = MemStorage::new();
    let run = CampaignRun::new(&scene, &cfg).expect("builds");
    let report =
        durable::run(run, &mut plain, &paths, EVERY).expect("reference campaign completes");
    assert!(!report.rotations.is_empty(), "campaign must rotate");
    assert!(report.deaths > 0, "campaign must kill a relay");
    assert!(report.repartitions > 0, "campaign must repartition");

    let mut workload = |s: &mut dyn Storage| {
        durable::run(CampaignRun::new(&scene, &cfg)?, s, &paths, EVERY).map(|_| ())
    };
    let mut recover = |mut survivor: MemStorage| {
        durable::recover(
            CampaignRun::new(&scene, &cfg)?,
            &mut survivor,
            &paths,
            EVERY,
        )?;
        Ok(survivor)
    };
    let report = verify_recovery(&mut workload, &mut recover, 11).expect("harness ok");
    assert!(
        report.crash_points > report.ops * 3,
        "matrix too small: {} points over {} ops",
        report.crash_points,
        report.ops
    );
    assert!(
        report.all_recovered(),
        "unrecovered crash point: {:?}",
        report.failures.first()
    );
    assert_eq!(
        report.exact, report.crash_points,
        "recovery re-executes lost ticks, so every point must be exact"
    );
}
