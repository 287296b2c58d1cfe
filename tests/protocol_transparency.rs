//! Protocol transparency (§1, §3): the relay is invisible to the Gen2
//! protocol. The *identical* reader stack — same inventory controller,
//! same commands, including Select-based filtering — runs against the
//! direct medium and the relayed medium.

use rfly::channel::environment::Environment;
use rfly::channel::geometry::Point2;
use rfly::protocol::bits::Bits;
use rfly::protocol::commands::{Command, MemBank, SelectTarget};
use rfly::protocol::epc::Epc;
use rfly::protocol::session::SelFilter;
use rfly::reader::config::ReaderConfig;
use rfly::reader::inventory::{InventoryController, Medium};
use rfly::sim::medium::WorldMedium;
use rfly::sim::world::{PhasorWorld, RelayModel};
use rfly::tag::population::TagPopulation;
use rfly::tag::PassiveTag;

fn world(tag_base: Point2, seed: u64) -> PhasorWorld {
    let config = ReaderConfig::usrp_default();
    let mut tags = TagPopulation::new();
    for i in 0..3u64 {
        tags.add(
            PassiveTag::new(
                Epc::from_index(i),
                seed ^ i,
                tag_base + Point2::new(i as f64 * 0.5, 0.3),
            ),
            format!("tag-{i}"),
        );
    }
    PhasorWorld::new(
        Environment::free_space(),
        Point2::ORIGIN,
        config,
        tags,
        RelayModel::prototype(rfly::dsp::units::Hertz::mhz(915.0)),
        seed,
    )
}

fn inventory(medium: &mut dyn Medium, config: ReaderConfig, seed: u64) -> Vec<Epc> {
    let mut c = InventoryController::new(config, rfly::dsp::rng::StdRng::seed_from_u64(seed));
    let mut epcs: Vec<Epc> = c
        .run_until_quiet(medium, 12)
        .into_iter()
        .map(|r| r.epc)
        .filter(|e| *e != PhasorWorld::embedded_epc())
        .collect();
    epcs.sort();
    epcs.dedup();
    epcs
}

#[test]
fn identical_reader_stack_works_direct_and_relayed() {
    // Near tags, no relay.
    let mut near = world(Point2::new(3.0, 0.0), 1);
    let direct = inventory(
        &mut WorldMedium::direct(&mut near),
        ReaderConfig::usrp_default(),
        1,
    );
    assert_eq!(direct.len(), 3, "direct inventory reads all near tags");

    // The same tags 45 m away, through the relay — same reader code.
    let mut far = world(Point2::new(45.0, 0.0), 2);
    let relayed = inventory(
        &mut WorldMedium::relayed(&mut far, Point2::new(43.5, 0.0)),
        ReaderConfig::usrp_default(),
        2,
    );
    assert_eq!(relayed.len(), 3, "relayed inventory reads all far tags");
    assert_eq!(direct, relayed, "same EPCs either way");
}

#[test]
fn select_filtering_works_through_the_relay() {
    let mut far = world(Point2::new(45.0, 0.0), 3);
    let mut medium = WorldMedium::relayed(&mut far, Point2::new(43.5, 0.0));

    // Select only tag 1 by matching its full EPC (bank pointer 32 =
    // after StoredCRC + PC).
    let target_epc = Epc::from_index(1);
    let select = Command::Select {
        target: SelectTarget::Sl,
        action: 0,
        bank: MemBank::Epc,
        pointer: 32,
        mask: target_epc.to_bits(),
        truncate: false,
    };
    let replies = medium.transact(&select);
    assert!(replies.is_empty(), "Select solicits no reply");

    // Inventory only SL-asserted tags.
    let mut config = ReaderConfig::usrp_default();
    config.sel = SelFilter::Selected;
    let selected = inventory(&mut medium, config, 3);
    assert_eq!(selected, vec![target_epc], "only the selected tag answers");

    // And the complement: NotSelected reads the other two.
    let mut far2 = world(Point2::new(45.0, 0.0), 4);
    let mut medium2 = WorldMedium::relayed(&mut far2, Point2::new(43.5, 0.0));
    medium2.transact(&select);
    let mut config2 = ReaderConfig::usrp_default();
    config2.sel = SelFilter::NotSelected;
    let rest = inventory(&mut medium2, config2, 4);
    assert_eq!(rest.len(), 2);
    assert!(!rest.contains(&target_epc));
}

#[test]
fn select_mask_encoding_is_gen2_legal_on_air() {
    // The Select frame used above round-trips its bit-level encoding —
    // i.e. it is a real Gen2 frame, not a simulation shortcut.
    let select = Command::Select {
        target: SelectTarget::Sl,
        action: 0,
        bank: MemBank::Epc,
        pointer: 32,
        mask: Bits::from_bools(&[true; 96]),
        truncate: false,
    };
    let frame = select.encode();
    assert_eq!(Command::decode(&frame), Some(select));
}
