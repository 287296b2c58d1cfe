//! The replay store under the chaos crash matrix: every storage
//! operation of a journaled mission is crashed in every fault mode, and
//! recovery must leave the durable files bit-identical to an uncrashed
//! run — plus the byte-level truncation property (salvage is exactly
//! the longest complete-block prefix at *every* cut) and a planted-bug
//! negative test proving the matrix catches a salvage that keeps the
//! torn tail.

use rfly_chaos::durable::recover_keeping_torn_tail;
use rfly_chaos::{verify_recovery, MemStorage, Storage};
use rfly_faults::FaultSchedule;
use rfly_replay::store::{recover_stored, run_stored, salvage_journal, StorePaths};
use rfly_replay::{Journal, MissionRun, Scenario};

const EVERY: usize = 3;

fn scenario() -> Scenario {
    Scenario::small(11)
}

fn storm() -> FaultSchedule {
    FaultSchedule::storm(11, 2, 12)
}

fn reference_storage() -> MemStorage {
    let mut store = MemStorage::new();
    run_stored(
        &scenario(),
        &storm(),
        &mut store,
        &StorePaths::default(),
        EVERY,
    )
    .expect("reference run completes");
    store
}

#[test]
fn replay_store_recovers_at_every_crash_point() {
    let scn = scenario();
    let schedule = storm();
    let paths = StorePaths::default();
    let mut workload =
        |s: &mut dyn Storage| run_stored(&scn, &schedule, s, &paths, EVERY).map(|_| ());
    let mut recover = |mut survivor: MemStorage| {
        recover_stored(&scn, &schedule, &mut survivor, &paths, EVERY)?;
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
        "recovery re-executes lost steps, so every point must be exact"
    );
}

#[test]
fn planted_bug_keeping_torn_tail_is_caught_by_matrix() {
    let scn = scenario();
    let schedule = storm();
    let paths = StorePaths::default();
    let mut workload =
        |s: &mut dyn Storage| run_stored(&scn, &schedule, s, &paths, EVERY).map(|_| ());
    // Broken recovery: resumes correctly from the salvage point but
    // "forgets" to truncate — the torn tail stays in the durable file
    // with the re-executed blocks appended after it.
    let mut buggy = |survivor| {
        recover_keeping_torn_tail(MissionRun::new(&scn, &schedule)?, survivor, &paths, EVERY)
    };
    let report = verify_recovery(&mut workload, &mut buggy, 11).expect("harness ok");
    assert!(
        !report.all_recovered(),
        "the matrix must catch a salvage that keeps the torn tail"
    );
    assert!(
        report
            .failures
            .iter()
            .any(|f| f.point.kind.name() == "torn"),
        "failures must include torn-write points: {:?}",
        report.failures.first()
    );
}

/// The block-boundary offsets of a journal text: the end of the header
/// (version + scenario lines), the end of every step block, and the end
/// of the seal — computed independently of the salvage code.
fn block_boundaries(text: &str) -> Vec<usize> {
    let mut boundaries = Vec::new();
    let mut offset = 0usize;
    let mut lines_seen = 0usize;
    for line in text.split_inclusive('\n') {
        offset += line.len();
        lines_seen += 1;
        if lines_seen == 2 {
            boundaries.push(offset); // header: version line + scenario line
        } else if lines_seen > 2 {
            let first = line.split_whitespace().next().unwrap_or("");
            if first == "e" || first == "end" {
                boundaries.push(offset);
            }
        }
    }
    boundaries
}

#[test]
fn salvage_is_longest_complete_prefix_at_every_truncation() {
    let reference = reference_storage();
    let paths = StorePaths::default();
    let raw = reference.read(&paths.journal).expect("journal exists");
    let text = String::from_utf8(raw.clone()).expect("utf8");
    let boundaries = block_boundaries(&text);
    assert!(boundaries.len() > 3, "need several blocks to be meaningful");

    for cut in 0..=raw.len() {
        let salv = salvage_journal(&raw[..cut]);
        // The longest boundary at or before the cut is exactly what
        // salvage must keep; before the header completes, nothing.
        let keep = boundaries
            .iter()
            .copied()
            .filter(|&b| b <= cut)
            .max()
            .unwrap_or(0);
        assert_eq!(
            salv.text.as_bytes(),
            &raw[..keep],
            "cut at byte {cut}: salvage must keep exactly the longest \
             complete-block prefix ({keep} bytes)"
        );
        assert_eq!(salv.dropped_bytes, cut - keep, "cut at byte {cut}");
        assert_eq!(salv.seal.is_some(), keep == raw.len(), "cut at byte {cut}");
        if keep > 0 {
            let j = Journal::from_text(&salv.text).expect("salvage parses");
            assert_eq!(j.steps, salv.records, "cut at byte {cut}");
        } else {
            assert!(salv.identity.is_none(), "cut at byte {cut}");
        }
    }
}

#[test]
fn resume_succeeds_from_byte_level_tears() {
    let scn = scenario();
    let schedule = storm();
    let paths = StorePaths::default();
    let reference = reference_storage();
    let raw = reference.read(&paths.journal).expect("journal exists");
    let text = String::from_utf8(raw.clone()).expect("utf8");

    // Every block boundary, plus a stride of interior byte cuts: each
    // seeds a crashed store (journal prefix only, no checkpoint) and
    // recovery must rebuild storage bit-identical to the reference.
    let mut cuts = block_boundaries(&text);
    cuts.extend((0..=raw.len()).step_by(151));
    cuts.sort_unstable();
    cuts.dedup();
    for cut in cuts {
        let mut crashed = MemStorage::new();
        if cut > 0 {
            crashed
                .append(&paths.journal, &raw[..cut])
                .expect("seed torn journal");
        }
        recover_stored(&scn, &schedule, &mut crashed, &paths, EVERY)
            .unwrap_or_else(|e| panic!("recovery from cut at byte {cut} failed: {e}"));
        assert_eq!(
            crashed, reference,
            "recovery from cut at byte {cut} must be bit-identical"
        );
    }
}
