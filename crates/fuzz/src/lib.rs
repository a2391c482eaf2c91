//! Cross-layer differential fuzzing for the PTX memory-model stack.
//!
//! Every layer of the workspace has at least two independent ways to
//! answer the same question, and this crate generates random inputs and
//! pits them against each other:
//!
//! * [`cnf`] — random CNF instances (with assumptions): the CDCL solver
//!   in `ptxmm-satsolver` against a naive DPLL oracle, with every `Unsat`
//!   answer certified by the independent DRAT checker and every unsat
//!   core re-checked by the oracle;
//! * [`relform`] — random relational formulas over small universes: the
//!   bounded model finder (scratch and incremental-session paths) against
//!   ground-truth enumeration of every instance through
//!   [`relational::eval_formula`];
//! * [`litmusgen`] — random PTX litmus programs: exhaustive execution
//!   enumeration against the SAT path, both scratch
//!   [`modelfinder::ModelFinder`] problems and pooled incremental
//!   [`litmus::sat::SatSession`]s with incremental proof certification.
//!   One case type and one check serve three [`litmusgen::Profile`]s:
//!   plain stores/loads/fences, a barrier/RMW/data-dependency mix aimed
//!   at the symbolic value layer, and the plain mix answered under
//!   *both* PTX consistency models (the paper's axiomatic model and the
//!   cumulative draft), where cross-model verdict divergence is counted
//!   as the known distinguishing fragment, not a failure.
//!
//! Failures are deterministic: each round derives from an explicit seed
//! ([`round_seed`]), and a failing case is greedily minimized by
//! [`shrink::shrink`] before being reported as a [`Disagreement`]. The
//! `fuzzherd` binary drives all five generators (`cnf`, `relform`, and
//! the three litmus profiles) under the existing worker-pool harness
//! ([`modelfinder::harness`]).

#![warn(missing_docs)]

pub mod cnf;
pub mod litmusgen;
pub mod relform;
pub mod shrink;

/// A cross-layer disagreement (or certificate failure) found by a
/// generator round, after shrinking.
#[derive(Debug, Clone)]
pub struct Disagreement {
    /// Which generator found it: its [`round_seed`] tag (`"cnf"`,
    /// `"relform"`, or a litmus profile's `"litmusgen"`, `"barriergen"`,
    /// `"modelgen"`).
    pub generator: &'static str,
    /// The litmus profile that found it; `None` for `cnf` and `relform`.
    pub profile: Option<litmusgen::Profile>,
    /// The round seed that reproduces the failure deterministically.
    pub seed: u64,
    /// What went wrong (which engines disagreed, or which certificate
    /// was rejected) — reported for the *original* generated case.
    pub what: String,
    /// The shrunk, minimal failing case, pretty-printed.
    pub shrunk: String,
}

impl std::fmt::Display for Disagreement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} disagreement (seed {:#018x})",
            self.generator, self.seed
        )?;
        writeln!(f, "  {}", self.what)?;
        writeln!(f, "  minimal failing case:")?;
        for line in self.shrunk.lines() {
            writeln!(f, "    {line}")?;
        }
        let call = match self.profile {
            Some(p) => format!("litmusgen::run_round(Profile::{p:?}, "),
            None => format!("{}::run_round(", self.generator),
        };
        write!(f, "  replay with fuzzkit::{call}{:#018x}, ..)", self.seed)
    }
}

/// SAT-pipeline size counters accumulated by a generator round.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundStats {
    /// CNF variables in the round's largest solver.
    pub sat_vars: u64,
    /// CNF clauses in the round's largest solver.
    pub sat_clauses: u64,
    /// Total SAT conflicts spent.
    pub conflicts: u64,
}

/// Derives the deterministic seed for `round` of `generator` under a
/// base seed, decorrelating generators and rounds the way
/// [`testkit::case_seed`] decorrelates property-test cases.
pub fn round_seed(base: u64, generator: &str, round: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in generator.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    testkit::Rng::seed(base ^ h ^ round.rotate_left(32)).next_u64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_are_deterministic_and_decorrelated() {
        assert_eq!(round_seed(7, "cnf", 0), round_seed(7, "cnf", 0));
        assert_ne!(round_seed(7, "cnf", 0), round_seed(7, "cnf", 1));
        assert_ne!(round_seed(7, "cnf", 0), round_seed(7, "relform", 0));
        assert_ne!(round_seed(7, "cnf", 0), round_seed(8, "cnf", 0));
    }

    #[test]
    fn disagreements_print_a_replay_call() {
        let profile = litmusgen::Profile::Barrier;
        let d = Disagreement {
            generator: profile.tag(),
            profile: Some(profile),
            seed: 0xab,
            what: "session says observable=true, enumeration says false".to_string(),
            shrunk: "layout kind 0\nT0: []".to_string(),
        };
        assert_eq!(
            d.to_string(),
            "barriergen disagreement (seed 0x00000000000000ab)\n  \
             session says observable=true, enumeration says false\n  \
             minimal failing case:\n    layout kind 0\n    T0: []\n  \
             replay with fuzzkit::litmusgen::run_round(Profile::Barrier, 0x00000000000000ab, ..)"
        );
        let cnf = Disagreement {
            generator: "cnf",
            profile: None,
            ..d
        };
        assert!(cnf
            .to_string()
            .ends_with("fuzzkit::cnf::run_round(0x00000000000000ab, ..)"));
    }
}
