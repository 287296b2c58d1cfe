//! The composable medium middleware stack.
//!
//! [`super::inventory::Medium`] is the paper's transparency seam: the
//! reader stack runs unmodified over any air interface. This module
//! makes the seam *composable*: cross-cutting behaviors — fault
//! injection, instrumentation, journal taps — are [`MediumLayer`]s
//! wrapped around one shared propagation core
//! (`rfly_sim::medium::WorldMedium`, the only `impl Medium` with
//! physics in it), instead of bespoke decorator structs each
//! re-implementing the plumbing:
//!
//! ```text
//! base.layer(FaultLayer::new(..)).layer(ObsLayer::new()).layer(Tap::new(..))
//! ```
//!
//! Layer order is outermost-last: the layer added last sees the
//! command first and the observations last. A layer receives the inner
//! medium as `&mut dyn Medium`, so it can drop the transaction
//! entirely (fault drops), forward and perturb (fades), or forward and
//! observe (taps, metrics).

use rfly_protocol::commands::Command;

use crate::inventory::{Medium, Observation};

/// One middleware stage over a [`Medium`].
///
/// Implementors decide whether and how to call `inner` — forwarding
/// unchanged, perturbing the result, or suppressing the transaction.
pub trait MediumLayer {
    /// Processes one transaction against the wrapped medium.
    fn process(&mut self, cmd: &Command, inner: &mut dyn Medium) -> Vec<Observation>;
}

/// A medium with one layer applied — itself a [`Medium`], so stacks
/// compose by repeated [`MediumExt::layer`] calls.
#[derive(Debug)]
pub struct Layered<M, L> {
    inner: M,
    layer: L,
}

impl<M: Medium, L: MediumLayer> Layered<M, L> {
    /// Wraps `inner` with `layer` (equivalent to `inner.layer(layer)`).
    pub fn new(inner: M, layer: L) -> Self {
        Self { inner, layer }
    }

    /// The layer.
    pub fn layer_ref(&self) -> &L {
        &self.layer
    }
}

impl<M: Medium, L: MediumLayer> Medium for Layered<M, L> {
    fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
        self.layer.process(cmd, &mut self.inner)
    }
}

/// Extension adding `.layer(..)` to every [`Medium`].
pub trait MediumExt: Medium + Sized {
    /// Wraps `self` with `layer`; the returned stack is again a
    /// [`Medium`].
    fn layer<L: MediumLayer>(self, layer: L) -> Layered<Self, L> {
        Layered::new(self, layer)
    }
}

impl<M: Medium> MediumExt for M {}

/// A transparent recording layer: forwards every transaction unchanged
/// and hands `(command, observations)` to a callback — the shape of
/// `rfly-replay`'s transaction-level journal taps.
pub struct Tap<F: FnMut(&Command, &[Observation])> {
    sink: F,
}

impl<F: FnMut(&Command, &[Observation])> Tap<F> {
    /// A tap feeding `sink`.
    pub fn new(sink: F) -> Self {
        Self { sink }
    }
}

impl<F: FnMut(&Command, &[Observation])> MediumLayer for Tap<F> {
    fn process(&mut self, cmd: &Command, inner: &mut dyn Medium) -> Vec<Observation> {
        let obs = inner.transact(cmd);
        (self.sink)(cmd, &obs);
        obs
    }
}

impl<F: FnMut(&Command, &[Observation])> std::fmt::Debug for Tap<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tap").finish_non_exhaustive()
    }
}

/// A transparent instrumentation layer: counts transactions and
/// observations and histograms per-reply SNR into the thread's
/// `rfly-obs` recorder (no-ops when none is installed).
#[derive(Debug, Default)]
pub struct ObsLayer;

impl ObsLayer {
    /// A fresh instrumentation layer.
    pub fn new() -> Self {
        Self
    }
}

impl MediumLayer for ObsLayer {
    fn process(&mut self, cmd: &Command, inner: &mut dyn Medium) -> Vec<Observation> {
        let obs = inner.transact(cmd);
        if rfly_obs::is_active() {
            rfly_obs::counter_add("medium.transactions", 1);
            rfly_obs::counter_add("medium.observations", obs.len() as u64);
            for o in &obs {
                rfly_obs::observe_db("medium.snr_db", o.snr);
            }
        }
        obs
    }
}

/// A scripted, physics-free medium for layer and controller tests:
/// every powered tag replies over a fixed channel at a fixed SNR.
/// Public so downstream crates can property-test layer stacks without
/// building a world.
#[derive(Debug)]
pub struct MockMedium {
    tags: Vec<(
        rfly_protocol::tag_state::TagMachine,
        rfly_dsp::Complex,
        rfly_dsp::units::Db,
    )>,
}

impl MockMedium {
    /// `n` tags, EPCs `0..n`, deterministic per-tag channels, all at
    /// `snr`.
    pub fn new(n: usize, snr: rfly_dsp::units::Db) -> Self {
        use rfly_protocol::epc::Epc;
        use rfly_protocol::tag_state::TagMachine;
        let tags = (0..n)
            .map(|i| {
                (
                    TagMachine::new(Epc::from_index(i as u64), 1000 + i as u64),
                    rfly_dsp::Complex::from_polar(1e-3 * (i + 1) as f64, i as f64),
                    snr,
                )
            })
            .collect();
        Self { tags }
    }
}

impl Medium for MockMedium {
    fn transact(&mut self, cmd: &Command) -> Vec<Observation> {
        self.tags
            .iter_mut()
            .filter_map(|(t, ch, snr)| {
                t.handle(cmd).map(|reply| Observation {
                    frame: reply.into_frame(),
                    channel: *ch,
                    snr: *snr,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReaderConfig;
    use crate::inventory::InventoryController;
    use rfly_dsp::rng::StdRng;
    use rfly_dsp::units::Db;

    fn reads(medium: &mut dyn Medium, seed: u64) -> Vec<crate::inventory::TagRead> {
        let mut c =
            InventoryController::new(ReaderConfig::usrp_default(), StdRng::seed_from_u64(seed));
        c.run_until_quiet(medium, 10)
    }

    #[test]
    fn transparent_layers_do_not_change_reads() {
        let bare = reads(&mut MockMedium::new(5, Db::new(30.0)), 9);
        let mut layered = MockMedium::new(5, Db::new(30.0))
            .layer(ObsLayer::new())
            .layer(Tap::new(|_, _| {}));
        let stacked = reads(&mut layered, 9);
        assert_eq!(bare.len(), stacked.len());
        for (a, b) in bare.iter().zip(&stacked) {
            assert_eq!(a.epc, b.epc);
            assert_eq!(a.channel, b.channel);
            assert_eq!(a.snr.value().to_bits(), b.snr.value().to_bits());
        }
    }

    #[test]
    fn tap_sees_every_transaction() {
        let mut commands = 0usize;
        let mut observations = 0usize;
        {
            let mut m = MockMedium::new(3, Db::new(30.0)).layer(Tap::new(|_, obs| {
                commands += 1;
                observations += obs.len();
            }));
            let r = reads(&mut m, 4);
            assert!(!r.is_empty());
        }
        assert!(commands > 0, "tap saw no commands");
        assert!(observations > 0, "tap saw no observations");
    }

    #[test]
    fn obs_layer_counts_when_a_recorder_is_installed() {
        rfly_obs::install(rfly_obs::Recorder::new("medium-test"));
        let mut m = MockMedium::new(2, Db::new(30.0)).layer(ObsLayer::new());
        let _ = reads(&mut m, 5);
        let rec = rfly_obs::take().unwrap();
        assert!(rec.counters["medium.transactions"] > 0);
        assert!(rec.counters["medium.observations"] > 0);
        assert!(rec.histograms["medium.snr_db"].count > 0);
    }
}
