//! The durable-run engine: one salvage / run / recover implementation
//! for every deterministic stepper whose progress must survive a crash.
//!
//! A stepper implements [`Durable`]; the engine persists it through a
//! [`Storage`] with exactly three moving parts:
//!
//! 1. **Incremental journal appends.** [`run`] appends the journal
//!    header once, then one block per executed step, then the seal
//!    line. Appends are prefix-durable: a crash mid-append leaves a torn
//!    tail, never scrambled interior bytes.
//! 2. **Atomic checkpoints.** Every `checkpoint_every` steps (and once
//!    at the end) the stepper's full state is written with
//!    [`Storage::write_atomic`], so the checkpoint file is always
//!    either the old snapshot or the new one, whole.
//! 3. **Salvage + verified resume.** [`recover`] reads the journal back,
//!    [`salvage`]s it down to the longest prefix of complete blocks,
//!    physically truncates the durable file to that prefix, and resumes:
//!    from the checkpoint when it is at or before the salvage point,
//!    otherwise from step zero. Re-executed steps the salvaged journal
//!    already holds are byte-compared against their durable blocks, not
//!    re-appended; steps past it are appended live. The final durable
//!    bytes are identical to an uncrashed run's.
//!
//! What can be lost: blocks whose append was never acknowledged (the
//! torn tail); those steps simply re-execute. A lost-but-acked append
//! is healed too, because recovery trusts only what it can read back.
//!
//! The journal format the engine understands is line-oriented text:
//!
//! ```text
//! <MAGIC>              header line 1: format and version
//! <identity>           header line 2: names the run (scenario, config)
//! ...                  one block per step; its last line starts with `e`
//! end <totals>         the seal, appended once the run has finished
//! ```

use crate::storage::{MemStorage, Storage, StorageError};

/// Where a durable run keeps its two files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StorePaths {
    /// The append-only journal: header, one block per step, seal.
    pub journal: String,
    /// The atomically replaced checkpoint.
    pub checkpoint: String,
}

impl StorePaths {
    /// `<stem>.journal` and `<stem>.ck`.
    pub fn named(stem: &str) -> Self {
        Self {
            journal: format!("{stem}.journal"),
            checkpoint: format!("{stem}.ck"),
        }
    }
}

impl Default for StorePaths {
    /// The supervised mission's files: `mission.journal`, `mission.ck`.
    fn default() -> Self {
        Self::named("mission")
    }
}

/// A deterministic stepper the engine can make durable.
///
/// Re-executing a step from the same state must reproduce its block
/// byte for byte: that is what lets [`recover`] verify the durable
/// prefix instead of trusting it.
pub trait Durable: Sized {
    /// One step's parsed block.
    type Record;
    /// A parsed checkpoint.
    type Checkpoint;
    /// What a finished run hands back.
    type Output;

    /// The journal's first line, without its newline.
    const MAGIC: &'static str;

    /// Whether `line` is a well-formed identity line. [`salvage`] keeps
    /// any such header; [`recover`] then refuses a journal whose
    /// identity is not this run's.
    fn is_identity(line: &str) -> bool;
    /// Parses one complete block (ending in its `e` line) into the step
    /// index it records and the record; `None` if it is malformed.
    fn parse_block(block: &str) -> Option<(usize, Self::Record)>;
    /// The step count a well-formed seal line declares.
    fn seal_steps(line: &str) -> Option<usize>;
    /// Parses checkpoint text into the step it was taken at and the
    /// checkpoint; `None` if it is malformed.
    fn parse_checkpoint(text: &str) -> Option<(usize, Self::Checkpoint)>;

    /// This run's identity line, without its newline.
    fn identity(&self) -> String;
    /// Steps executed so far, which is the index of the next step.
    fn position(&self) -> usize;
    /// Whether the run has finished.
    fn finished(&self) -> bool;
    /// Executes one step and returns its journal block.
    fn next_block(&mut self) -> Result<String, String>;
    /// The full state at the current step boundary, as checkpoint text.
    fn checkpoint(&self) -> String;
    /// Restores a fresh run to `checkpoint`.
    fn restore(&mut self, checkpoint: Self::Checkpoint) -> Result<(), String>;
    /// Folds an already-durable step the restored state has passed into
    /// the run's aggregates: the bookkeeping the step did when it first
    /// executed.
    fn replay(&mut self, record: Self::Record);
    /// Ends the run: its output and its seal line (newline included).
    fn finish(self) -> Result<(Self::Output, String), String>;
}

/// What [`salvage`] kept of a journal and what it dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct Salvage<R> {
    /// The kept text: header, complete blocks, and the seal if it
    /// survived. Empty when the header was lost.
    pub text: String,
    /// The kept header's identity line; `None` when the header was lost.
    pub identity: Option<String>,
    /// The kept blocks' records, in step order.
    pub records: Vec<R>,
    /// The kept blocks' exact text, which recovery byte-compares
    /// re-executed steps against.
    pub blocks: Vec<String>,
    /// The kept seal line.
    pub seal: Option<String>,
    /// Raw bytes not carried into the salvage (torn tail and garbage).
    pub dropped_bytes: usize,
    /// Duplicated blocks dropped (a crashed duplicated append).
    pub dropped_duplicates: usize,
}

fn io(op: &str, e: StorageError) -> String {
    format!("{op}: {e}")
}

fn header<D: Durable>(run: &D) -> String {
    format!("{}\n{}\n", D::MAGIC, run.identity())
}

/// Truncates raw journal bytes to the longest valid prefix of complete
/// blocks. It drops a torn tail line, any block missing its `e` line,
/// an out-of-sequence block, a duplicated last block, and anything
/// after the seal.
///
/// Never fails: unusable input salvages to nothing, and the run
/// restarts from step zero. The kept blocks' step indices run from
/// zero without a gap, and a kept seal agrees with the block count.
pub fn salvage<D: Durable>(raw: &[u8]) -> Salvage<D::Record> {
    let text = String::from_utf8_lossy(raw);
    let mut out = Salvage {
        text: String::new(),
        identity: None,
        records: Vec::new(),
        blocks: Vec::new(),
        seal: None,
        dropped_bytes: raw.len(),
        dropped_duplicates: 0,
    };
    // A line without its newline is the torn tail.
    let mut lines = text
        .split_inclusive('\n')
        .take_while(|line| line.ends_with('\n'));
    let (Some(magic), Some(identity)) = (lines.next(), lines.next()) else {
        return out;
    };
    if magic.trim() != D::MAGIC || !D::is_identity(identity.trim()) {
        return out;
    }
    out.text = format!("{magic}{identity}");
    out.identity = Some(identity.trim().to_string());

    // The lines of the block being scanned; a block is kept only once
    // its `e` line arrives whole.
    let mut pending = String::new();
    for line in lines {
        if out.seal.is_some() {
            break; // nothing is valid after the seal
        }
        let first = line.split_whitespace().next().unwrap_or("");
        if pending.is_empty() && first == "end" {
            if D::seal_steps(line.trim()) != Some(out.records.len()) {
                break;
            }
            out.text.push_str(line);
            out.seal = Some(line.to_string());
            continue;
        }
        pending.push_str(line);
        if first != "e" {
            continue;
        }
        match D::parse_block(&pending) {
            Some((index, record)) if index == out.records.len() => {
                out.text.push_str(&pending);
                out.blocks.push(std::mem::take(&mut pending));
                out.records.push(record);
            }
            // A duplicated append landed the last block twice.
            Some(_) if out.blocks.last() == Some(&pending) => {
                out.dropped_duplicates += 1;
                pending.clear();
            }
            _ => break, // malformed or out-of-sequence block
        }
    }
    out.dropped_bytes = raw.len().saturating_sub(out.text.len());
    out
}

/// Drives `run` start to finish, persisting through `storage`: the
/// journal as incremental appends (header, one block per step, seal),
/// a checkpoint atomically replaced every `checkpoint_every` steps
/// (`0` = final checkpoint only), and a final checkpoint.
///
/// Storage errors, an injected crash included, abort mid-protocol and
/// surface as `Err`: exactly the state [`recover`] heals.
pub fn run<D: Durable>(
    mut run: D,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<D::Output, String> {
    let _span = rfly_obs::span("durable.run");
    storage
        .append(&paths.journal, header(&run).as_bytes())
        .map_err(|e| io("journal header append", e))?;
    drive(&mut run, storage, paths, checkpoint_every, &[])?;
    close(run, storage, paths, None)
}

/// Recovers a crashed [`run`] from whatever `storage` holds and drives
/// `run`, a fresh stepper for the same run, to completion. The durable
/// files end bit-identical to an uncrashed run's.
///
/// A journal naming a different run is refused. So is a re-executed
/// step or seal that disagrees with its durable text: that is real
/// corruption, not a crash.
pub fn recover<D: Durable>(
    mut run: D,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<D::Output, String> {
    let _span = rfly_obs::span("durable.recover");
    rfly_obs::counter_add("durable.recoveries", 1);
    let raw = match storage.read(&paths.journal) {
        Ok(bytes) => bytes,
        Err(StorageError::NotFound(_)) => Vec::new(),
        Err(e) => return Err(io("journal read", e)),
    };
    let salv = salvage::<D>(&raw);
    if let Some(identity) = &salv.identity {
        if *identity != run.identity() {
            return Err(format!(
                "journal belongs to a different run ({identity}); refusing to resume"
            ));
        }
    }
    rfly_obs::counter_add("durable.salvaged_steps", salv.records.len() as u64);
    rfly_obs::counter_add("durable.salvage_dropped_bytes", salv.dropped_bytes as u64);

    // Physically truncate the journal to the salvaged prefix (or restart
    // it at the bare header) so the torn tail is gone even if recovery
    // crashes again.
    let base = match salv.identity {
        Some(_) => salv.text,
        None => header(&run),
    };
    storage
        .write_atomic(&paths.journal, base.as_bytes())
        .map_err(|e| io("journal truncate", e))?;

    // A checkpoint ahead of the salvage point lost its covering blocks:
    // resuming from it would skip steps, so the run restarts instead.
    let checkpoint = storage
        .read(&paths.checkpoint)
        .ok()
        .and_then(|bytes| String::from_utf8(bytes).ok())
        .and_then(|text| D::parse_checkpoint(&text))
        .filter(|(step, _)| *step <= salv.records.len());
    if let Some((_, checkpoint)) = checkpoint {
        run.restore(checkpoint)?;
    }
    let resumed_at = run.position();
    for record in salv.records.into_iter().take(resumed_at) {
        run.replay(record);
    }
    drive(&mut run, storage, paths, checkpoint_every, &salv.blocks)?;
    close(run, storage, paths, salv.seal)
}

/// Steps `run` to the end. Steps with a block in `durable` are verified
/// against it; the rest are appended live.
fn drive<D: Durable>(
    run: &mut D,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    checkpoint_every: usize,
    durable: &[String],
) -> Result<(), String> {
    while !run.finished() {
        let step = run.position();
        let block = run.next_block()?;
        match durable.get(step) {
            Some(kept) if *kept != block => {
                return Err(format!(
                    "recovery diverged from the durable journal at step {step}"
                ))
            }
            Some(_) => {}
            None => {
                storage
                    .append(&paths.journal, block.as_bytes())
                    .map_err(|e| io("journal step append", e))?;
                rfly_obs::counter_add("durable.steps_appended", 1);
            }
        }
        if checkpoint_every != 0 && (step + 1).is_multiple_of(checkpoint_every) {
            storage
                .write_atomic(&paths.checkpoint, run.checkpoint().as_bytes())
                .map_err(|e| io("checkpoint write", e))?;
        }
    }
    Ok(())
}

/// Finishes `run`: appends its seal unless `kept` already holds it
/// (which must then agree), and writes the final checkpoint.
fn close<D: Durable>(
    run: D,
    storage: &mut dyn Storage,
    paths: &StorePaths,
    kept: Option<String>,
) -> Result<D::Output, String> {
    let checkpoint = run.checkpoint();
    let (output, seal) = run.finish()?;
    match kept {
        Some(kept) if kept != seal => {
            return Err(format!(
                "durable seal {:?} disagrees with the recovered run's {:?}",
                kept.trim(),
                seal.trim()
            ))
        }
        Some(_) => {}
        None => storage
            .append(&paths.journal, seal.as_bytes())
            .map_err(|e| io("journal seal append", e))?,
    }
    storage
        .write_atomic(&paths.checkpoint, checkpoint.as_bytes())
        .map_err(|e| io("final checkpoint write", e))?;
    Ok(output)
}

/// A deliberately broken [`recover`], kept as the planted-bug control
/// for crash-matrix gates: it resumes correctly but never truncates, so
/// the torn tail stays in the journal with the re-executed blocks
/// appended after it. A matrix that passes it cannot see torn records.
pub fn recover_keeping_torn_tail<D: Durable>(
    run: D,
    survivor: MemStorage,
    paths: &StorePaths,
    checkpoint_every: usize,
) -> Result<MemStorage, String> {
    let raw = survivor.read(&paths.journal).unwrap_or_default();
    let kept = salvage::<D>(&raw).text.len();
    let mut healed = survivor.clone();
    recover(run, &mut healed, paths, checkpoint_every)?;
    let mut storage = survivor;
    let full = healed.read(&paths.journal).map_err(|e| e.to_string())?;
    storage
        .append(&paths.journal, full.get(kept..).unwrap_or_default())
        .map_err(|e| e.to_string())?;
    let checkpoint = healed.read(&paths.checkpoint).map_err(|e| e.to_string())?;
    storage
        .write_atomic(&paths.checkpoint, &checkpoint)
        .map_err(|e| e.to_string())?;
    Ok(storage)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A miniature durable run: step `i` appends the block
    /// `s <i>` / `v <i²>` / `e`, the checkpoint records the next step
    /// and the running sum, and the seal carries the step count and the
    /// sum. Its output is the sum and the number of replayed blocks.
    #[derive(Debug, Default)]
    pub(crate) struct Toy {
        next: usize,
        sum: usize,
        replayed: usize,
    }

    const TOY_STEPS: usize = 7;

    impl Durable for Toy {
        type Record = usize;
        type Checkpoint = (usize, usize);
        type Output = (usize, usize);

        const MAGIC: &'static str = "toy v1";

        fn is_identity(line: &str) -> bool {
            line.starts_with("toy-run ")
        }

        fn parse_block(block: &str) -> Option<(usize, usize)> {
            let mut lines = block.lines();
            let step: usize = lines.next()?.strip_prefix("s ")?.parse().ok()?;
            let value: usize = lines.next()?.strip_prefix("v ")?.parse().ok()?;
            (lines.next()? == "e" && lines.next().is_none() && value == step * step)
                .then_some((step, value))
        }

        fn seal_steps(line: &str) -> Option<usize> {
            line.strip_prefix("end steps=")?
                .split(' ')
                .next()?
                .parse()
                .ok()
        }

        fn parse_checkpoint(text: &str) -> Option<(usize, (usize, usize))> {
            let (next, sum) = text.trim().split_once(' ')?;
            let next = next.parse().ok()?;
            Some((next, (next, sum.parse().ok()?)))
        }

        fn identity(&self) -> String {
            "toy-run 1".to_string()
        }

        fn position(&self) -> usize {
            self.next
        }

        fn finished(&self) -> bool {
            self.next >= TOY_STEPS
        }

        fn next_block(&mut self) -> Result<String, String> {
            let i = self.next;
            self.next += 1;
            self.sum += i * i;
            Ok(format!("s {i}\nv {}\ne\n", i * i))
        }

        fn checkpoint(&self) -> String {
            format!("{} {}\n", self.next, self.sum)
        }

        fn restore(&mut self, (next, sum): (usize, usize)) -> Result<(), String> {
            self.next = next;
            self.sum = sum;
            Ok(())
        }

        fn replay(&mut self, _record: usize) {
            self.replayed += 1;
        }

        fn finish(self) -> Result<((usize, usize), String), String> {
            let seal = format!("end steps={} sum={}\n", self.next, self.sum);
            Ok(((self.sum, self.replayed), seal))
        }
    }

    const EVERY: usize = 3;

    pub(crate) fn toy_workload(s: &mut dyn Storage) -> Result<(), String> {
        run(Toy::default(), s, &StorePaths::named("toy"), EVERY).map(|_| ())
    }

    pub(crate) fn toy_recover(mut survivor: MemStorage) -> Result<MemStorage, String> {
        let paths = StorePaths::named("toy");
        recover(Toy::default(), &mut survivor, &paths, EVERY)?;
        Ok(survivor)
    }

    /// [`toy_recover`] with the planted truncation bug.
    pub(crate) fn toy_recover_keeping_torn_tail(
        survivor: MemStorage,
    ) -> Result<MemStorage, String> {
        let paths = StorePaths::named("toy");
        recover_keeping_torn_tail(Toy::default(), survivor, &paths, EVERY)
    }

    fn reference() -> (MemStorage, String) {
        let mut store = MemStorage::new();
        toy_workload(&mut store).expect("toy run completes");
        let text = String::from_utf8(store.read("toy.journal").expect("journal")).expect("utf8");
        (store, text)
    }

    #[test]
    fn run_writes_header_blocks_seal_and_checkpoints() {
        let (store, text) = reference();
        assert!(
            text.starts_with("toy v1\ntoy-run 1\ns 0\nv 0\ne\n"),
            "{text}"
        );
        assert!(text.ends_with("e\nend steps=7 sum=91\n"), "{text}");
        assert_eq!(store.read("toy.ck").expect("checkpoint"), b"7 91\n");
    }

    #[test]
    fn salvage_keeps_exactly_the_longest_complete_prefix() {
        let (_, text) = reference();
        let raw = text.as_bytes();
        let mut boundaries = vec!["toy v1\ntoy-run 1\n".len(), raw.len()];
        boundaries.extend(text.match_indices("\ne\n").map(|(i, _)| i + 3));
        for cut in 0..=raw.len() {
            let salv = salvage::<Toy>(&raw[..cut]);
            let keep = boundaries.iter().copied().filter(|&b| b <= cut).max();
            assert_eq!(salv.text.len(), keep.unwrap_or(0), "cut {cut}");
            assert_eq!(salv.dropped_bytes, cut - salv.text.len(), "cut {cut}");
            assert_eq!(salv.seal.is_some(), cut == raw.len(), "cut {cut}");
            assert_eq!(salv.records.len(), salv.blocks.len());
        }
    }

    #[test]
    fn salvage_drops_a_duplicated_block_and_stops_at_a_gap() {
        let dup = "toy v1\ntoy-run 1\ns 0\nv 0\ne\ns 1\nv 1\ne\ns 1\nv 1\ne\ns 2\nv 4\ne\n";
        let salv = salvage::<Toy>(dup.as_bytes());
        assert_eq!(salv.records, vec![0, 1, 4]);
        assert_eq!(salv.dropped_duplicates, 1);

        let gap = "toy v1\ntoy-run 1\ns 0\nv 0\ne\ns 2\nv 4\ne\n";
        let salv = salvage::<Toy>(gap.as_bytes());
        assert_eq!(salv.records, vec![0]);
        assert_eq!(salv.dropped_bytes, "s 2\nv 4\ne\n".len());

        for garbage in ["", "toy v1\n", "toy v2\ntoy-run 1\n", "not a journal\n"] {
            let salv = salvage::<Toy>(garbage.as_bytes());
            assert_eq!(salv.identity, None, "{garbage:?}");
            assert!(salv.text.is_empty());
        }
    }

    #[test]
    fn recover_resumes_from_the_checkpoint_and_replays_earlier_blocks() {
        let (reference, text) = reference();
        // Five blocks durable, and the checkpoint taken after step 2.
        let cut = text.match_indices("\ne\n").nth(4).expect("five blocks").0 + 3;
        let mut crashed = MemStorage::new();
        crashed
            .append("toy.journal", &text.as_bytes()[..cut])
            .expect("seed");
        crashed.write_atomic("toy.ck", b"3 5\n").expect("seed");
        let (sum, replayed) = recover(
            Toy::default(),
            &mut crashed,
            &StorePaths::named("toy"),
            EVERY,
        )
        .expect("recovers");
        assert_eq!(sum, 91);
        assert_eq!(replayed, 3, "blocks before the checkpoint are replayed");
        assert_eq!(crashed, reference, "recovered storage is bit-identical");

        // A checkpoint ahead of the durable blocks is not trusted.
        let mut ahead = MemStorage::new();
        ahead
            .append("toy.journal", &text.as_bytes()[..cut])
            .expect("seed");
        ahead.write_atomic("toy.ck", b"6 55\n").expect("seed");
        let (sum, replayed) = recover(Toy::default(), &mut ahead, &StorePaths::named("toy"), EVERY)
            .expect("recovers");
        assert_eq!((sum, replayed), (91, 0));
        assert_eq!(ahead, reference);
    }

    #[test]
    fn recover_refuses_a_foreign_journal_and_a_diverging_block() {
        let paths = StorePaths::named("toy");
        let mut foreign = MemStorage::new();
        foreign
            .append(&paths.journal, b"toy v1\ntoy-run 2\n")
            .expect("seed");
        let err = recover(Toy::default(), &mut foreign, &paths, EVERY).expect_err("foreign");
        assert!(err.contains("different run"), "{err}");

        // A well-formed block that is not what the run re-executes.
        let mut corrupt = MemStorage::new();
        corrupt
            .append(
                &paths.journal,
                b"toy v1\ntoy-run 1\ns 0\nv 0\ne\ns 1\nv 01\ne\n",
            )
            .expect("seed");
        let err = recover(Toy::default(), &mut corrupt, &paths, EVERY).expect_err("diverges");
        assert!(err.contains("diverged"), "{err}");
    }
}
