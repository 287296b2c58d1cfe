//! Crash-consistent mission persistence: the supervised mission as a
//! [`Durable`] stepper, so the one engine in [`rfly_chaos::durable`]
//! journals it through the injectable [`rfly_chaos::Storage`] trait and
//! resumes a mission killed at *any storage operation* bit-identically.
//!
//! The journal is the [`crate::journal`] text (header, one step block
//! per step, seal) and the checkpoint is a [`Checkpoint`]. The engine's
//! module docs describe the salvage and recovery protocol.

use rfly_chaos::durable::{self, Durable, Salvage};
use rfly_chaos::Storage;
use rfly_faults::supervisor::StepRecord;
use rfly_faults::FaultSchedule;

pub use rfly_chaos::durable::StorePaths;

use crate::checkpoint::Checkpoint;
use crate::journal;
use crate::runner::{MissionRun, Run, Scenario};

impl Durable for MissionRun<'_> {
    type Record = StepRecord;
    type Checkpoint = Checkpoint;
    type Output = Run;

    const MAGIC: &'static str = journal::MAGIC;

    fn is_identity(line: &str) -> bool {
        Scenario::from_line(line, 2).is_ok()
    }

    fn parse_block(block: &str) -> Option<(usize, StepRecord)> {
        let rec = journal::parse_step_block(block, 1).ok()?;
        Some((rec.step, rec))
    }

    fn seal_steps(line: &str) -> Option<usize> {
        journal::parse_seal(line, 1).ok().map(|seal| seal.steps)
    }

    fn parse_checkpoint(text: &str) -> Option<(usize, Checkpoint)> {
        let cp = Checkpoint::from_text(text).ok()?;
        Some((cp.mission.step, cp))
    }

    fn identity(&self) -> String {
        self.scenario.to_line()
    }

    fn position(&self) -> usize {
        self.state.step()
    }

    fn finished(&self) -> bool {
        MissionRun::finished(self)
    }

    fn next_block(&mut self) -> Result<String, String> {
        Ok(journal::step_block(&self.advance()))
    }

    fn checkpoint(&self) -> String {
        MissionRun::checkpoint(self).to_text()
    }

    fn restore(&mut self, checkpoint: Checkpoint) -> Result<(), String> {
        MissionRun::restore(self, &checkpoint)
    }

    fn replay(&mut self, record: StepRecord) {
        self.journal.steps.push(record);
    }

    fn finish(self) -> Result<(Run, String), String> {
        let run = self.into_run();
        let seal = run
            .journal
            .sealed
            .ok_or_else(|| "sealed journal lost its seal".to_string())?;
        Ok((run, journal::seal_text(&seal)))
    }
}

/// Salvages raw journal bytes down to the longest valid prefix of
/// complete step blocks ([`durable::salvage`] over mission journals).
pub fn salvage_journal(raw: &[u8]) -> Salvage<StepRecord> {
    durable::salvage::<MissionRun>(raw)
}

/// Flies `scenario` under `schedule` start to finish, persisting
/// through `storage` ([`durable::run`]): the journal as incremental
/// appends, a checkpoint atomically replaced every `checkpoint_every`
/// steps (`0` = final checkpoint only), and a final checkpoint.
pub fn run_stored(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<Run, String> {
    durable::run(
        MissionRun::new(scenario, schedule)?,
        storage,
        paths,
        checkpoint_every,
    )
}

/// Recovers a crashed [`run_stored`] mission from whatever `storage`
/// holds and flies it to completion ([`durable::recover`]), leaving the
/// durable files bit-identical to an uncrashed run's.
pub fn recover_stored(
    scenario: &Scenario,
    schedule: &FaultSchedule,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<Run, String> {
    durable::recover(
        MissionRun::new(scenario, schedule)?,
        storage,
        paths,
        checkpoint_every,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use rfly_chaos::MemStorage;

    fn stored_run(seed: u64, every: usize) -> (MemStorage, Run) {
        let scn = Scenario::small(seed);
        let storm = FaultSchedule::storm(seed, 2, 12);
        let mut store = MemStorage::new();
        let run = run_stored(&scn, &storm, &mut store, &StorePaths::default(), every)
            .expect("stored run completes");
        (store, run)
    }

    #[test]
    fn stored_journal_matches_to_text() {
        let (store, run) = stored_run(11, 3);
        let paths = StorePaths::default();
        let bytes = store.read(&paths.journal).expect("journal exists");
        assert_eq!(bytes, run.journal.to_text().as_bytes());
        let cp_bytes = store.read(&paths.checkpoint).expect("checkpoint exists");
        let cp = Checkpoint::from_text(&String::from_utf8(cp_bytes).expect("utf8"))
            .expect("final checkpoint parses");
        assert!(cp.mission.done, "final checkpoint is the done state");
        assert_eq!(cp.mission.steps, run.outcome.steps);
    }

    #[test]
    fn stored_run_matches_run_full() {
        let scn = Scenario::small(7);
        let storm = FaultSchedule::storm(7, 2, 12);
        let full = crate::runner::run_full(&scn, &storm).expect("runs");
        let (_, stored) = stored_run(7, 4);
        assert_eq!(stored.journal, full.journal);
        assert_eq!(stored.outcome.steps, full.outcome.steps);
        assert_eq!(stored.outcome.duration_s, full.outcome.duration_s);
    }

    #[test]
    fn salvage_keeps_complete_prefix_and_drops_torn_tail() {
        let (store, run) = stored_run(11, 3);
        let text = run.journal.to_text();
        let full = salvage_journal(text.as_bytes());
        assert_eq!(full.text, text, "an intact journal salvages whole");
        assert!(full.seal.is_some());
        assert_eq!(full.records, run.journal.steps);
        assert_eq!(full.dropped_bytes, 0);
        drop(store);

        // Tear mid-way through the last step block's RNG line: the
        // whole block (and the footer after it) goes.
        let cut = text.rfind("\ng ").expect("has an RNG line") + 3;
        let torn = salvage_journal(&text.as_bytes()[..cut]);
        assert!(torn.seal.is_none());
        assert!(torn.records.len() < run.journal.steps.len());
        assert!(torn.dropped_bytes > 0);
        let parsed = Journal::from_text(&torn.text).expect("salvage parses");
        assert_eq!(parsed.steps, torn.records);
        assert_eq!(parsed.steps[..], run.journal.steps[..torn.records.len()]);
    }

    #[test]
    fn salvage_drops_duplicated_last_block() {
        let (_, run) = stored_run(11, 0);
        let rec = run.journal.steps.last().expect("has steps");
        let mut text = journal::header_text(&run.journal.scenario);
        for rec in &run.journal.steps {
            text.push_str(&journal::step_block(rec));
        }
        text.push_str(&journal::step_block(rec)); // duplicated append
        let salv = salvage_journal(text.as_bytes());
        assert_eq!(salv.records, run.journal.steps);
        assert_eq!(salv.dropped_duplicates, 1);
    }

    #[test]
    fn salvage_of_garbage_is_empty() {
        for raw in [
            &b""[..],
            b"rfly-journ",
            b"rfly-journal v1\n",
            b"rfly-journal v1\nscenario relays=",
            b"not a journal at all\n",
        ] {
            let salv = salvage_journal(raw);
            assert!(salv.records.is_empty());
            assert!(salv.text.is_empty() && salv.identity.is_none(), "{raw:?}");
        }
    }

    #[test]
    fn recover_from_truncated_journal_is_bit_identical() {
        let paths = StorePaths::default();
        let (reference, run) = stored_run(42, 3);
        let text = run.journal.to_text();
        // Crash after an arbitrary byte prefix of the journal, with the
        // checkpoint as of step 3 durable.
        let scn = Scenario::small(42);
        let storm = FaultSchedule::storm(42, 2, 12);
        let mut crashed = MemStorage::new();
        crashed
            .append(&paths.journal, &text.as_bytes()[..text.len() / 2])
            .expect("seed torn journal");
        let recovered =
            recover_stored(&scn, &storm, &mut crashed, &paths, 3).expect("recovery completes");
        assert_eq!(recovered.journal, run.journal);
        assert_eq!(crashed, reference, "recovered storage is bit-identical");
    }

    #[test]
    fn recover_from_empty_storage_runs_from_scratch() {
        let paths = StorePaths::default();
        let (reference, run) = stored_run(7, 4);
        let scn = Scenario::small(7);
        let storm = FaultSchedule::storm(7, 2, 12);
        let mut empty = MemStorage::new();
        let recovered =
            recover_stored(&scn, &storm, &mut empty, &paths, 4).expect("recovery completes");
        assert_eq!(recovered.journal, run.journal);
        assert_eq!(empty, reference);
    }

    #[test]
    fn recover_rejects_foreign_scenario() {
        let paths = StorePaths::default();
        let (mut store, _) = stored_run(11, 3);
        let scn = Scenario::small(12); // different seed → different line
        let storm = FaultSchedule::storm(11, 2, 12);
        let err = recover_stored(&scn, &storm, &mut store, &paths, 3)
            .expect_err("scenario mismatch must be rejected");
        assert!(err.contains("different run"), "{err}");
    }
}
