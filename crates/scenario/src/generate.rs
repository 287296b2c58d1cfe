//! Seeded procedural scenario generation.
//!
//! [`generate`] maps a `(family, seed)` pair to a complete, validated
//! [`ScenarioSpec`] — a pure function of its inputs, so the same pair
//! always yields the same scenario bit for bit (the corpus tests
//! assert this). Families cover the geometries and populations the
//! paper's deployment sections describe: multi-floor buildings,
//! outdoor pallet yards, conveyor lines with moving tags, dense
//! interferer fields, mixed tag populations, and REM-style occupancy
//! grids.

use rfly_channel::geometry::Point2;
use rfly_core::relay::gains::IsolationBudget;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::{Db, Dbm, Meters};

use crate::schema::{
    BeltSpec, FaultsSpec, InterfererSpec, MissionSpec, ModulationSpec, Placement, RelaySpec,
    ScenarioSpec, TagGroupSpec, WorldSpec,
};

/// A procedural scenario family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Stacked warehouse floors split by concrete slabs.
    MultiFloor,
    /// An outdoor pallet yard without perimeter walls.
    OutdoorAisles,
    /// Conveyor belts carrying tags through an open floor.
    Conveyor,
    /// A warehouse drowned in external interferers.
    InterfererField,
    /// Mixed tag populations: varying power-up thresholds and
    /// modulation depths on the same shelves.
    MixedPopulation,
    /// A radio-environment-map-style occupancy grid.
    OccupancyGrid,
}

impl Family {
    /// All families, in a stable order.
    pub const ALL: [Family; 6] = [
        Family::MultiFloor,
        Family::OutdoorAisles,
        Family::Conveyor,
        Family::InterfererField,
        Family::MixedPopulation,
        Family::OccupancyGrid,
    ];

    /// The family's stable name (used in generated scenario names).
    pub fn name(&self) -> &'static str {
        match self {
            Family::MultiFloor => "multi-floor",
            Family::OutdoorAisles => "outdoor-aisles",
            Family::Conveyor => "conveyor",
            Family::InterfererField => "interferer-field",
            Family::MixedPopulation => "mixed-population",
            Family::OccupancyGrid => "occupancy-grid",
        }
    }

    /// A per-family RNG domain constant so two families never share a
    /// draw stream even under the same seed.
    fn domain(&self) -> u64 {
        match self {
            Family::MultiFloor => 0x4D46_0001,
            Family::OutdoorAisles => 0x4F41_0002,
            Family::Conveyor => 0x4356_0003,
            Family::InterfererField => 0x4946_0004,
            Family::MixedPopulation => 0x4D50_0005,
            Family::OccupancyGrid => 0x4F47_0006,
        }
    }
}

fn relays(n: usize) -> Vec<RelaySpec> {
    (0..n)
        .map(|i| RelaySpec {
            id: format!("r{i}"),
            cell: i,
            snr_penalty: Db::new(0.0),
        })
        .collect()
}

fn shelf_group(count: usize) -> TagGroupSpec {
    TagGroupSpec {
        count,
        seed: None,
        placement: Placement::Shelf {
            lateral: Meters::new(0.8),
            offset: Meters::new(0.3),
            depth_min: Meters::new(0.2),
            depth_max: Meters::new(0.8),
        },
        power_up: None,
        modulation: ModulationSpec::Typical,
    }
}

/// Generates one scenario. Pure: `generate(f, s)` is the same spec on
/// every call, on every platform.
pub fn generate(family: Family, seed: u64) -> ScenarioSpec {
    let mut rng = StdRng::seed_from_u64(seed ^ family.domain());
    let name = format!("{}-{seed:04x}", family.name());
    let base = ScenarioSpec {
        name,
        seed,
        world: WorldSpec::OpenFloor {
            width: Meters::new(10.0),
            depth: Meters::new(10.0),
        },
        interferers: InterfererSpec::default(),
        belts: Vec::new(),
        reader: Point2::new(1.0, 1.0),
        relays: relays(2),
        tags: Vec::new(),
        mission: MissionSpec {
            max_rounds: 2,
            ..MissionSpec::default()
        },
        budget: IsolationBudget::fig9(),
        energy: None,
        docks: Vec::new(),
        faults: FaultsSpec::default(),
    };

    match family {
        Family::MultiFloor => {
            let width = 16.0 + rng.gen_range(0..5) as f64 * 2.0;
            let floors = 2 + rng.gen_range(0..2) as usize;
            let shelves = 2 + rng.gen_range(0..2) as usize;
            ScenarioSpec {
                world: WorldSpec::MultiFloor {
                    width: Meters::new(width),
                    floor_depth: Meters::new(8.0 + rng.gen_range(0..3) as f64),
                    floors,
                    shelves,
                },
                relays: relays(2 + rng.gen_range(0..2) as usize),
                tags: vec![shelf_group(24 + rng.gen_range(0..17) as usize)],
                ..base
            }
        }
        Family::OutdoorAisles => {
            let width = 20.0 + rng.gen_range(0..6) as f64 * 2.0;
            let depth = 12.0 + rng.gen_range(0..5) as f64 * 2.0;
            ScenarioSpec {
                world: WorldSpec::OutdoorAisles {
                    width: Meters::new(width),
                    depth: Meters::new(depth),
                    rows: 3 + rng.gen_range(0..3) as usize,
                },
                relays: relays(2 + rng.gen_range(0..3) as usize),
                tags: vec![shelf_group(30 + rng.gen_range(0..31) as usize)],
                ..base
            }
        }
        Family::Conveyor => {
            let width = 20.0 + rng.gen_range(0..4) as f64 * 2.0;
            let depth = 10.0 + rng.gen_range(0..3) as f64 * 2.0;
            let n_belts = 1 + rng.gen_range(0..2) as usize;
            let belts: Vec<BeltSpec> = (0..n_belts)
                .map(|k| BeltSpec {
                    y: Meters::new(depth * (k + 1) as f64 / (n_belts + 1) as f64),
                    x_min: Meters::new(2.0),
                    x_max: Meters::new(width - 2.0),
                    speed: 0.25 + 0.25 * rng.gen_range(0..3) as f64,
                })
                .collect();
            ScenarioSpec {
                world: WorldSpec::OpenFloor {
                    width: Meters::new(width),
                    depth: Meters::new(depth),
                },
                belts,
                relays: relays(2),
                tags: vec![TagGroupSpec {
                    count: 16 + rng.gen_range(0..9) as usize,
                    seed: None,
                    placement: Placement::Belt,
                    power_up: None,
                    modulation: ModulationSpec::Typical,
                }],
                ..base
            }
        }
        Family::InterfererField => ScenarioSpec {
            world: WorldSpec::Warehouse {
                width: Meters::new(20.0 + rng.gen_range(0..3) as f64 * 2.0),
                depth: Meters::new(16.0 + rng.gen_range(0..3) as f64 * 4.0),
                shelves: 3 + rng.gen_range(0..2) as usize,
            },
            interferers: InterfererSpec {
                count: 4 + rng.gen_range(0..5) as usize,
                level: 0.25 + 0.25 * rng.gen_range(0..3) as f64,
            },
            relays: relays(2 + rng.gen_range(0..2) as usize),
            tags: vec![shelf_group(30 + rng.gen_range(0..21) as usize)],
            ..base
        },
        Family::MixedPopulation => {
            let sensitive = 10 + rng.gen_range(0..11) as usize;
            let deaf = 6 + rng.gen_range(0..7) as usize;
            let shallow = 8 + rng.gen_range(0..9) as usize;
            ScenarioSpec {
                world: WorldSpec::Warehouse {
                    width: Meters::new(24.0),
                    depth: Meters::new(20.0),
                    shelves: 4,
                },
                relays: relays(2),
                tags: vec![
                    // Off-the-shelf baseline.
                    shelf_group(sensitive),
                    // Hard-to-power tags deep in the racks.
                    TagGroupSpec {
                        power_up: Some(Dbm::new(-12.0 + rng.gen_range(0..3) as f64)),
                        ..shelf_group(deaf)
                    },
                    // Weakly-modulating tags (shallow backscatter).
                    TagGroupSpec {
                        modulation: ModulationSpec::Depth(0.3 + 0.1 * rng.gen_range(0..3) as f64),
                        ..shelf_group(shallow)
                    },
                ],
                ..base
            }
        }
        Family::OccupancyGrid => {
            let cols = 10 + rng.gen_range(0..5) as usize;
            let grid_rows = 5 + 2 * rng.gen_range(0..2) as usize;
            // Odd rows carry shelving with random gaps; even rows stay
            // fully free so the grid always has flyable aisles.
            let rows: Vec<String> = (0..grid_rows)
                .map(|r| {
                    if r % 2 == 0 {
                        ".".repeat(cols)
                    } else {
                        (0..cols)
                            .map(|c| {
                                if c == 0 || c == cols - 1 || rng.gen_range(0..5) == 0 {
                                    '.'
                                } else {
                                    '#'
                                }
                            })
                            .collect()
                    }
                })
                .collect();
            ScenarioSpec {
                world: WorldSpec::OccupancyGrid {
                    cell: Meters::new(2.0),
                    rows,
                },
                relays: relays(2),
                tags: vec![shelf_group(20 + rng.gen_range(0..13) as usize)],
                ..base
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_generates_a_spec_that_round_trips() {
        for family in Family::ALL {
            let spec = generate(family, 42);
            // The generated spec survives emit → parse unchanged, which
            // also proves it passes full schema validation.
            let text = crate::emit::emit(&spec);
            let back = crate::parse_str(&text).unwrap_or_else(|e| {
                panic!("{}: generated spec invalid: {e}\n{text}", family.name())
            });
            assert_eq!(spec, back, "{}", family.name());
        }
    }

    #[test]
    fn same_seed_is_bit_identical_and_seeds_differ() {
        for family in Family::ALL {
            assert_eq!(generate(family, 7), generate(family, 7));
            assert_ne!(
                generate(family, 7),
                generate(family, 8),
                "{}",
                family.name()
            );
        }
    }

    #[test]
    fn every_family_compiles() {
        for family in Family::ALL {
            let spec = generate(family, 1);
            crate::compile::compile(&spec).unwrap_or_else(|e| panic!("{}: {e}", family.name()));
        }
    }
}
