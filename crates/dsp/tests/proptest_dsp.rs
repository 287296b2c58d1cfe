//! Property-style tests for the DSP substrate, driven by the in-repo
//! seeded RNG: each test sweeps a few hundred random cases and asserts
//! the same invariants the original property-based suite checked, with
//! full reproducibility from the fixed seeds.

use rfly_dsp::complex::{phase_distance, wrap_phase, Complex};
use rfly_dsp::fft::{fft, ifft};
use rfly_dsp::filter::fir::{FirDesign, FirFilter};
use rfly_dsp::goertzel::goertzel;
use rfly_dsp::rng::{Rng, StdRng};
use rfly_dsp::units::{Db, Dbm, Hertz};

const CASES: usize = 200;

fn rand_complex(rng: &mut StdRng) -> Complex {
    Complex::new(rng.gen_range(-1e3..1e3), rng.gen_range(-1e3..1e3))
}

fn rand_signal(rng: &mut StdRng, n: usize) -> Vec<Complex> {
    (0..n)
        .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
        .collect()
}

#[test]
fn complex_field_axioms() {
    let mut rng = StdRng::seed_from_u64(0xD50_001);
    for _ in 0..CASES {
        let (a, b, c) = (
            rand_complex(&mut rng),
            rand_complex(&mut rng),
            rand_complex(&mut rng),
        );
        assert!(((a + b) + c - (a + (b + c))).abs() < 1e-9);
        assert!((a * b - b * a).abs() < 1e-9);
        assert!((a * (b + c) - (a * b + a * c)).abs() < 1e-6);
    }
}

#[test]
fn magnitude_is_multiplicative_and_conjugation_distributes() {
    let mut rng = StdRng::seed_from_u64(0xD50_002);
    for _ in 0..CASES {
        let (a, b) = (rand_complex(&mut rng), rand_complex(&mut rng));
        let rhs = a.abs() * b.abs();
        assert!(((a * b).abs() - rhs).abs() <= 1e-9 * (1.0 + rhs));
        assert!(((a * b).conj() - a.conj() * b.conj()).abs() < 1e-6);
    }
}

#[test]
fn cis_adds_phases() {
    let mut rng = StdRng::seed_from_u64(0xD50_003);
    for _ in 0..CASES {
        let a = rng.gen_range(-10.0..10.0);
        let b = rng.gen_range(-10.0..10.0);
        assert!((Complex::cis(a) * Complex::cis(b) - Complex::cis(a + b)).abs() < 1e-9);
    }
}

#[test]
fn wrap_phase_is_idempotent_and_in_range() {
    let mut rng = StdRng::seed_from_u64(0xD50_004);
    for _ in 0..CASES {
        let phi = rng.gen_range(-1e4..1e4);
        let w = wrap_phase(phi);
        assert!(w > -std::f64::consts::PI - 1e-12);
        assert!(w <= std::f64::consts::PI + 1e-12);
        assert!((wrap_phase(w) - w).abs() < 1e-12);
        assert!(phase_distance(w, phi) < 1e-6);
    }
}

#[test]
fn fft_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xD50_005);
    for _ in 0..40 {
        let x = rand_signal(&mut rng, 128);
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            assert!((*a - *b).abs() < 1e-9);
        }
    }
}

#[test]
fn fft_is_linear() {
    let mut rng = StdRng::seed_from_u64(0xD50_006);
    for _ in 0..40 {
        let x = rand_signal(&mut rng, 64);
        let y = rand_signal(&mut rng, 64);
        let k = rng.gen_range(-3.0..3.0);
        let combined: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b * k).collect();
        let lhs = fft(&combined);
        let fx = fft(&x);
        let fy = fft(&y);
        for i in 0..64 {
            assert!((lhs[i] - (fx[i] + fy[i] * k)).abs() < 1e-6);
        }
    }
}

#[test]
fn parseval() {
    let mut rng = StdRng::seed_from_u64(0xD50_007);
    for _ in 0..40 {
        let x = rand_signal(&mut rng, 256);
        let time: f64 = x.iter().map(|s| s.norm_sq()).sum();
        let freq: f64 = fft(&x).iter().map(|s| s.norm_sq()).sum::<f64>() / 256.0;
        assert!((time - freq).abs() <= 1e-9 * (1.0 + time));
    }
}

#[test]
fn goertzel_recovers_arbitrary_tone() {
    let mut rng = StdRng::seed_from_u64(0xD50_008);
    for _ in 0..CASES {
        let amp = rng.gen_range(0.01..10.0);
        let phase = rng.gen_range(-3.0..3.0);
        let bin = rng.gen_range(1usize..100);
        let fs = 1e6;
        let freq = Hertz::hz(bin as f64 * fs / 1000.0);
        let x: Vec<Complex> = (0..1000)
            .map(|n| {
                Complex::from_polar(
                    amp,
                    phase + std::f64::consts::TAU * freq.as_hz() * n as f64 / fs,
                )
            })
            .collect();
        let g = goertzel(&x, freq, fs);
        assert!((g.abs() - amp).abs() < 1e-9 * (1.0 + amp));
        assert!(phase_distance(g.arg(), phase) < 1e-9);
    }
}

#[test]
fn fir_streaming_split_equivalence() {
    let mut rng = StdRng::seed_from_u64(0xD50_009);
    for _ in 0..20 {
        let split = rng.gen_range(1usize..999);
        let tone_khz = rng.gen_range(1.0..450.0);
        let design = FirDesign::new(4e6, Db::new(50.0), Hertz::khz(150.0));
        let mut a = design.lowpass(Hertz::khz(200.0));
        let mut b = a.clone();
        let x: Vec<Complex> = (0..1000)
            .map(|n| Complex::cis(std::f64::consts::TAU * tone_khz * 1e3 * n as f64 / 4e6))
            .collect();
        let whole = a.filter_block(&x);
        let mut parts = b.filter_block(&x[..split]);
        parts.extend(b.filter_block(&x[split..]));
        for (u, v) in whole.iter().zip(&parts) {
            assert!((*u - *v).abs() < 1e-9);
        }
    }
}

/// The bits of a run of samples, for exact comparison.
fn bits(xs: &[Complex]) -> Vec<(u64, u64)> {
    xs.iter()
        .map(|z| (z.re.to_bits(), z.im.to_bits()))
        .collect()
}

/// Random taps, `1..=max` of them, and a signal whose length is often
/// shorter than the taps.
fn rand_fir_case(rng: &mut StdRng, max: usize) -> (Vec<f64>, Vec<Complex>) {
    let taps = (0..rng.gen_range(1..=max))
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let len = rng.gen_range(0usize..100);
    (taps, rand_signal(rng, len))
}

#[test]
fn fir_block_equals_repeated_samples_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xD50_00C);
    for _ in 0..CASES {
        let (taps, x) = rand_fir_case(&mut rng, 40);
        let splits = [rng.gen_range(0..=x.len()), rng.gen_range(0..=x.len())];
        let (a, b) = (splits[0].min(splits[1]), splits[0].max(splits[1]));
        let mut block = FirFilter::new(taps);
        let mut one = block.clone();
        let mut out = block.filter_block(&x[..a]);
        out.extend(block.filter_block(&x[a..b]));
        out.extend(block.filter_block(&x[b..]));
        let reference: Vec<Complex> = x.iter().map(|&s| one.filter_sample(s)).collect();
        assert_eq!(
            bits(&out),
            bits(&reference),
            "{} taps, split {a}/{b}",
            one.taps().len()
        );
        // Both leave the same delay line behind.
        let probe = rand_signal(&mut rng, 1)[0];
        assert_eq!(
            bits(&[block.filter_sample(probe)]),
            bits(&[one.filter_sample(probe)])
        );
    }
}

#[test]
fn planted_control_one_tap_out_of_order_is_caught() {
    // A model of each output summing its taps newest sample first
    // matches `filter_block` bit for bit; the same model with tap 0
    // summed last instead must not.
    let mut rng = StdRng::seed_from_u64(0xD50_00D);
    let mut reordered = 0;
    for _ in 0..CASES {
        let (taps, x) = rand_fir_case(&mut rng, 40);
        let out = FirFilter::new(taps.clone()).filter_block(&x);
        let term = |i: usize, t: usize| {
            let past = if i >= t { x[i - t] } else { Complex::default() };
            past * taps[t]
        };
        let model = |i: usize, order: &mut dyn Iterator<Item = usize>| {
            order.fold(Complex::default(), |acc, t| acc + term(i, t))
        };
        for (i, y) in out.iter().enumerate() {
            let in_order = model(i, &mut (0..taps.len()));
            let tap0_last = model(i, &mut (1..taps.len()).chain([0]));
            assert_eq!(bits(&[in_order]), bits(&[*y]));
            reordered += usize::from(bits(&[tap0_last]) != bits(&[*y]));
        }
    }
    assert!(reordered >= 1, "summing tap 0 last went undetected");
}

#[test]
fn fir_output_bounded_by_tap_l1_norm() {
    let mut rng = StdRng::seed_from_u64(0xD50_00A);
    for _ in 0..20 {
        let x = rand_signal(&mut rng, 512);
        let design = FirDesign::new(4e6, Db::new(40.0), Hertz::khz(200.0));
        let mut f = design.lowpass(Hertz::khz(300.0));
        let l1: f64 = f.taps().iter().map(|t| t.abs()).sum();
        let peak_in = x.iter().map(|s| s.abs()).fold(0.0f64, f64::max);
        for s in &f.filter_block(&x) {
            assert!(s.abs() <= l1 * peak_in + 1e-9);
        }
    }
}

#[test]
fn db_roundtrips_and_addition_multiplies() {
    let mut rng = StdRng::seed_from_u64(0xD50_00B);
    for _ in 0..CASES {
        let v = rng.gen_range(-120.0..120.0);
        assert!((Db::from_linear(Db::new(v).linear()).value() - v).abs() < 1e-9);
        assert!((Db::from_amplitude(Db::new(v).amplitude()).value() - v).abs() < 1e-9);
        assert!((Dbm::from_watts(Dbm::new(v).watts()).value() - v).abs() < 1e-9);
        let a = rng.gen_range(-60.0..60.0);
        let b = rng.gen_range(-60.0..60.0);
        let lhs = (Db::new(a) + Db::new(b)).linear();
        let rhs = Db::new(a).linear() * Db::new(b).linear();
        assert!((lhs - rhs).abs() <= 1e-9 * rhs.abs().max(1.0));
    }
}

#[test]
fn wavelength_frequency_inverse() {
    let mut rng = StdRng::seed_from_u64(0xD50_00C);
    for _ in 0..CASES {
        let f = Hertz::mhz(rng.gen_range(100.0..3000.0));
        let back = rfly_dsp::SPEED_OF_LIGHT / f.wavelength();
        assert!((back - f.as_hz()).abs() < 1e-3);
    }
}
