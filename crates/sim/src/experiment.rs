//! Seeded Monte-Carlo experiment running.
//!
//! Every figure in the evaluation is a statistic over repeated trials
//! with randomized placements/components. Trials must be independent
//! *and* reproducible, so each gets its own sub-seed derived from a
//! master seed — re-running trial 37 of experiment 5 always replays the
//! same randomness regardless of how many trials run or in what order.

use rfly_dsp::rng::StdRng;

/// Derives a stable per-trial seed from a master seed (SplitMix64 on
/// the pair, so nearby trial indices decorrelate fully).
pub fn trial_seed(master: u64, trial: u64) -> u64 {
    let mut z = master
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(trial.wrapping_mul(0xBF58476D1CE4E5B9))
        .wrapping_add(0x94D049BB133111EB);
    z ^= z >> 30;
    z = z.wrapping_mul(0xBF58476D1CE4E5B9);
    z ^= z >> 27;
    z = z.wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A Monte-Carlo runner bound to a master seed.
#[derive(Debug, Clone, Copy)]
pub struct MonteCarlo {
    /// The master seed (CLI `--seed`).
    pub master_seed: u64,
}

impl MonteCarlo {
    /// Creates a runner.
    pub fn new(master_seed: u64) -> Self {
        Self { master_seed }
    }

    /// Runs `n` trials; `f(trial_index, rng)` produces each result.
    pub fn run<T>(&self, n: usize, mut f: impl FnMut(usize, &mut StdRng) -> T) -> Vec<T> {
        (0..n)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(trial_seed(self.master_seed, i as u64));
                f(i, &mut rng)
            })
            .collect()
    }

    /// Like [`Self::run`] but hands the raw seed instead of an RNG
    /// (for trial functions that seed several components).
    pub fn run_seeded<T>(&self, n: usize, mut f: impl FnMut(usize, u64) -> T) -> Vec<T> {
        (0..n)
            .map(|i| f(i, trial_seed(self.master_seed, i as u64)))
            .collect()
    }
}

/// Parses a `--seed N` argument from a CLI argument list, with a
/// default when there is none — shared by every experiment binary. A
/// `--seed` not followed by an unsigned integer (`--seed x`, a trailing
/// `--seed`) or written `--seed=N` is an error naming the bad argument,
/// never a silent run at the default seed.
pub fn seed_from_args(args: &[String], default: u64) -> Result<u64, String> {
    let Some(i) = args
        .iter()
        .position(|a| a == "--seed" || a.starts_with("--seed="))
    else {
        return Ok(default);
    };
    if args[i] != "--seed" {
        return Err(format!("bad argument {:?}: write `--seed N`", args[i]));
    }
    match args.get(i + 1) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--seed needs an unsigned integer, got {v:?}")),
        None => Err("--seed needs a value".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfly_dsp::rng::Rng;

    #[test]
    fn trial_seeds_are_stable_and_distinct() {
        let a = trial_seed(42, 0);
        let b = trial_seed(42, 1);
        let a2 = trial_seed(42, 0);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(trial_seed(42, 0), trial_seed(43, 0));
    }

    #[test]
    fn seeds_look_uniform() {
        // Cheap avalanche check: bit histogram over many seeds.
        let mut ones = [0u32; 64];
        let n = 4096;
        for t in 0..n {
            let s = trial_seed(7, t);
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((s >> b) & 1) as u32;
            }
        }
        for (b, count) in ones.iter().enumerate() {
            let frac = *count as f64 / n as f64;
            assert!((frac - 0.5).abs() < 0.05, "bit {b} biased: {frac}");
        }
    }

    #[test]
    fn runner_is_order_independent() {
        let mc = MonteCarlo::new(9);
        let all: Vec<f64> = mc.run(10, |_, rng| rng.gen());
        // Re-running only trial 7 reproduces the same draw.
        let one: Vec<f64> =
            MonteCarlo::new(9).run(10, |i, rng| if i == 7 { rng.gen() } else { 0.0 });
        assert_eq!(all[7], one[7]);
    }

    #[test]
    fn seed_arg_parsing() {
        let args: Vec<String> = ["prog", "--seed", "123"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(seed_from_args(&args, 7), Ok(123));
        let none: Vec<String> = vec!["prog".into()];
        assert_eq!(seed_from_args(&none, 7), Ok(7));
        let argv = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            seed_from_args(&argv(&["prog", "--seed", "xyz"]), 7),
            Err("--seed needs an unsigned integer, got \"xyz\"".into())
        );
        assert_eq!(
            seed_from_args(&argv(&["prog", "--seed"]), 7),
            Err("--seed needs a value".into())
        );
        assert_eq!(
            seed_from_args(&argv(&["prog", "--seed=7"]), 7),
            Err("bad argument \"--seed=7\": write `--seed N`".into())
        );
    }
}
