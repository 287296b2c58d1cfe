//! The crash helper the kill-and-resume tests share.

use rfly_chaos::{MemStorage, Storage};
use rfly_faults::FaultSchedule;
use rfly_replay::journal;
use rfly_replay::store::StorePaths;
use rfly_replay::{MissionRun, Scenario};

/// Flies `scn` under `storm` to the step boundary `kill` (or the finish
/// line, whichever comes first) and crashes there. The returned storage
/// holds what a journaled run has made durable at that boundary, under
/// the default [`StorePaths`]: the journal header, one block per
/// completed step, and the checkpoint taken at the kill point. The
/// mission itself is dropped, so a resume can only come from storage.
pub fn crash_at(scn: &Scenario, storm: &FaultSchedule, kill: usize) -> MemStorage {
    let mut run = MissionRun::new(scn, storm).expect("mission builds");
    let mut text = journal::header_text(scn);
    for _ in 0..kill {
        if run.finished() {
            break;
        }
        text.push_str(&journal::step_block(&run.advance()));
    }
    let paths = StorePaths::default();
    let mut storage = MemStorage::new();
    storage
        .append(&paths.journal, text.as_bytes())
        .expect("journal prefix lands");
    storage
        .write_atomic(&paths.checkpoint, run.checkpoint().to_text().as_bytes())
        .expect("checkpoint lands");
    storage
}

/// The UTF-8 text of the file at `path` in `storage`.
pub fn file_text(storage: &MemStorage, path: &str) -> String {
    let bytes = storage.read(path).expect("file exists");
    String::from_utf8(bytes).expect("utf8")
}
