//! Pins the litmus generator's draws. `perfbench`'s `ptxd-mix` workload
//! draws its tests from the plain mix, so any change to the plain
//! draw's RNG consumption or rendering would silently move the
//! benchmark; the barrier mix is pinned alongside it. Each pin is an
//! FNV-1a hash over the rendered text of rounds 0..64 of base seed 7.

use fuzzkit::{litmusgen, round_seed};
use litmus::{format_ptx_litmus, parse_ptx_litmus, PtxLitmus};
use satsolver::hash::Fnv64;
use testkit::Rng;

fn pin(tag: &str, draw: impl Fn(&mut Rng) -> PtxLitmus) -> u64 {
    let mut h = Fnv64::new();
    for round in 0..64 {
        let test = draw(&mut Rng::seed(round_seed(7, tag, round)));
        let text = format_ptx_litmus(&test);
        let back = parse_ptx_litmus(&text)
            .unwrap_or_else(|e| panic!("{tag} round {round} does not parse back: {e}\n{text}"));
        assert_eq!(format_ptx_litmus(&back), text, "{tag} round {round}");
        h.write(text.as_bytes());
    }
    h.finish()
}

#[test]
fn plain_draws_are_pinned() {
    let h = pin("litmusgen", |rng| litmusgen::generate(rng).to_test());
    assert_eq!(h, 0x5176_02ac_704d_1956, "got {h:#018x}");
}

#[test]
fn barrier_draws_are_pinned() {
    let h = pin("barriergen", |rng| {
        litmusgen::generate_barrier(rng).to_test()
    });
    assert_eq!(h, 0x7efc_32c2_a232_2ff2, "got {h:#018x}");
}
