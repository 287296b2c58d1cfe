//! Fig. 4 — the guard band between the reader's query and the tag's
//! backscatter response.
//!
//! The paper overlays the two spectra: the PIE query confined within
//! ≈125 kHz of the carrier, the FM0 response concentrated around the
//! backscatter link frequency (up to 640 kHz), with a filterable gap
//! between them. We synthesize both waveforms with the real coders and
//! print their Welch PSDs over the same frequency grid.

use rfly_bench::prelude::*;
use rfly_dsp::spectrum::welch_psd;
use rfly_dsp::units::{Hertz, Seconds};
use rfly_dsp::Complex;
use rfly_protocol::bits::Bits;
use rfly_protocol::fm0;
use rfly_protocol::pie::{FrameStart, PieEncoder};
use rfly_reader::config::ReaderConfig;

fn main() {
    let mut bench = Bench::new("fig04_guardband", 0);
    let fs = ReaderConfig::SAMPLE_RATE;

    // The query: a representative 22-bit Query frame, PIE-encoded,
    // repeated to fill an analysis window.
    let encoder = PieEncoder::new(fs)
        .and_then(|e| e.with_edge_time(Seconds::new(3e-6)))
        .expect("legal encoder");
    let payload = Bits::from_str01("1000110100101011001010");
    let mut query: Vec<Complex> = Vec::new();
    while query.len() < 1 << 17 {
        query.extend(
            encoder
                .encode(FrameStart::Preamble, &payload, Seconds::new(200e-6))
                .into_iter()
                .map(Complex::from_re),
        );
    }
    let query_psd = welch_psd(&query[..1 << 17], 4096, fs);

    // The response: a 128-bit EPC frame, FM0 at BLF = 500 kHz
    // (8 samples/symbol at 4 MS/s), as the *differential* backscatter
    // the reader sees after DC cancellation.
    let epc_bits: String = (0..128)
        .map(|i| if i % 3 == 0 { '1' } else { '0' })
        .collect();
    let mut reply: Vec<Complex> = Vec::new();
    while reply.len() < 1 << 17 {
        reply.extend(
            fm0::encode_reply(&Bits::from_str01(&epc_bits), true, 8)
                .into_iter()
                .map(|l| Complex::from_re(l - 0.5)),
        );
    }
    let reply_psd = welch_psd(&reply[..1 << 17], 4096, fs);

    let mut table = Table::new(
        "Fig. 4: query vs response PSD (dB rel. each peak)",
        &["freq", "query", "response"],
    );
    for k in -14..=14 {
        let f = k as f64 * 50e3;
        table.row(&[
            format!("{:+.0} kHz", f / 1e3),
            fmt_db(query_psd.relative_db_at(Hertz(f)).value()),
            fmt_db(reply_psd.relative_db_at(Hertz(f)).value()),
        ]);
    }
    bench.table("main", table, true);

    let query_bw = query_psd.occupied_bandwidth(0.99);
    let reply_low = reply_psd.band_power_fraction(Hertz(-150e3), Hertz(150e3));
    let reply_sub = reply_psd.band_power_fraction(Hertz(300e3), Hertz(700e3))
        + reply_psd.band_power_fraction(Hertz(-700e3), Hertz(-300e3));
    println!(
        "query 99% occupied bandwidth : +/-{:.0} kHz (paper: <=125 kHz)",
        query_bw / 1e3
    );
    println!(
        "response power in +/-150 kHz : {:.1} % (the guard band)",
        reply_low * 100.0
    );
    println!(
        "response power at 300-700 kHz: {:.1} % (the subcarrier band)",
        reply_sub * 100.0
    );
    bench.metric("query_occupied_bw_khz", query_bw / 1e3);
    bench.metric("reply_subcarrier_fraction", reply_sub);
    assert!(query_bw <= 130e3, "query must fit the paper's 125 kHz");
    assert!(reply_sub > 0.5, "response must concentrate at the BLF");
    bench.finish();
}
