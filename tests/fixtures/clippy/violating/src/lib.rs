// Planted violations of every token-level invariant the workspace hands
// to rustc and clippy. `scripts/ci.sh` requires clippy to fail here and
// to name each lint. The crate doc is missing on purpose (missing_docs).

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    clippy::cast_possible_wrap,
    clippy::print_stdout,
    clippy::print_stderr
)]

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub fn panics(x: Option<u32>, y: Result<u32, ()>) -> u32 {
    if x == Some(0) {
        panic!("R1");
    }
    x.unwrap() + y.expect("R1")
}

pub fn casts(x: f64, y: u64) -> (u32, i64) {
    (x as u32, y as i64)
}

pub fn nondeterministic() -> (HashMap<u32, u32>, HashSet<u32>, Instant, SystemTime) {
    (HashMap::new(), HashSet::new(), Instant::now(), SystemTime::now())
}

pub fn single_precision(x: f32) -> f32 {
    x
}

pub fn prints() {
    println!("R6");
    eprintln!("R6");
}

pub fn unfinished(flag: bool) -> u32 {
    dbg!(flag);
    if flag {
        todo!()
    } else {
        unimplemented!()
    }
}

pub fn pushes(out: &mut String, x: f64) {
    out.push_str(&format!("{x}"));
}

pub fn raw(x: &u32) -> u32 {
    let p: *const u32 = x;
    unsafe { *p }
}
