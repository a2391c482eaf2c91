//! Bounded in-process smoke run of every generator — the same checks
//! `fuzzherd` drives, small enough for the tier-1 suite. Zero
//! disagreements expected; a failure prints the replayable seed and the
//! shrunk minimal case via [`fuzzkit::Disagreement`]'s `Display`.

use fuzzkit::litmusgen::{self, Pool, Profile};
use fuzzkit::{cnf, relform, round_seed};

const BASE_SEED: u64 = 7;

#[test]
fn cnf_rounds_find_no_disagreement() {
    for round in 0..48 {
        let seed = round_seed(BASE_SEED, "cnf", round);
        cnf::run_round(seed).unwrap_or_else(|d| panic!("{d}"));
    }
}

#[test]
fn relform_rounds_find_no_disagreement() {
    for round in 0..16 {
        let seed = round_seed(BASE_SEED, "relform", round);
        relform::run_round(seed).unwrap_or_else(|d| panic!("{d}"));
    }
}

#[test]
fn litmus_rounds_find_no_disagreement() {
    let pool = Pool::new();
    for round in 0..10 {
        let seed = round_seed(BASE_SEED, Profile::Plain.tag(), round);
        litmusgen::run_round(Profile::Plain, seed, &pool).unwrap_or_else(|d| panic!("{d}"));
    }
}
