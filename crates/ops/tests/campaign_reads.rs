//! Absolute campaign reads, pinned: a small seeded campaign's per-tick
//! read counts and first-seen tags must match recorded values exactly.
//! The crash matrix compares a campaign only with itself, so this is
//! the test that notices when the inventory path through the fleet
//! medium changes what a campaign reads.

use rfly_channel::geometry::Point2;
use rfly_dsp::units::Seconds;
use rfly_ops::{CampaignRun, OpsConfig};
use rfly_protocol::epc::Epc;
use rfly_sim::scene::Scene;

/// The tag index behind an `Epc::from_index` EPC.
fn index(epc: &Epc) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&epc.0[4..]);
    u64::from_be_bytes(b)
}

/// `(reads, new tag indices)` for each of the first `ticks` ticks.
fn per_tick(ticks: usize) -> Vec<(usize, Vec<u64>)> {
    let mut scene = Scene::warehouse(16.0, 12.0, 2);
    scene.add_dock(Point2::new(1.0, 11.0), 2);
    let mut cfg = OpsConfig::small(23);
    cfg.n_tags = 24;
    cfg.duration = Seconds::new(ticks as f64 * cfg.tick.value());
    let mut run = CampaignRun::new(&scene, &cfg).expect("campaign builds");
    let mut out = Vec::new();
    while !run.finished() {
        let rec = run.step().expect("tick runs");
        out.push((rec.reads, rec.new_tags.iter().map(index).collect()));
    }
    out
}

#[test]
fn seeded_campaign_reads_match_recorded_values() {
    let want: Vec<(usize, Vec<u64>)> = vec![
        (9, vec![0, 18, 19, 5, 15, 20, 13, 6, 4]),
        (10, vec![8]),
        (9, vec![]),
        (7, vec![]),
        (8, vec![]),
        (12, vec![2, 14, 3]),
    ];
    assert_eq!(per_tick(want.len()), want);
}
