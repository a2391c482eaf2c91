//! Random CNF instances: CDCL against a naive DPLL oracle.
//!
//! Instances are small (≤ 8 variables) so the oracle's exhaustive
//! branching is instant, but the clause/variable ratio is swept through
//! the satisfiability threshold so both verdicts occur often. Half the
//! rounds also draw assumption literals, exercising
//! [`satsolver::Solver::solve_with_assumptions`] and its unsat cores.
//!
//! Checks per round:
//!
//! * verdict agreement between CDCL and the oracle;
//! * `Sat` models actually satisfy every clause and assumption;
//! * `Unsat` answers carry a DRAT proof accepted by the independent
//!   checker, with the failed-assumption core as the certified final
//!   derivation ([`satsolver::drat::certify_unsat`]);
//! * the reported core is a subset of the assumptions and is itself
//!   unsatisfiable according to the oracle.

use std::fmt;

use satsolver::{drat, ArenaMode, Lit, SolveResult, Solver, Var};
use testkit::Rng;

use crate::{Disagreement, RoundStats};

/// A generated CNF instance in DIMACS-style signed-integer literals
/// (variable `k` is `k`/`-k`, 1-based), plus assumption literals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfCase {
    /// Number of variables; literals range over `±1..=±num_vars`.
    pub num_vars: usize,
    /// The clauses.
    pub clauses: Vec<Vec<i32>>,
    /// Assumption literals for the incremental interface (may be empty).
    pub assumptions: Vec<i32>,
}

impl fmt::Display for CnfCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "p cnf {} {}", self.num_vars, self.clauses.len())?;
        for cl in &self.clauses {
            for l in cl {
                write!(f, "{l} ")?;
            }
            writeln!(f, "0")?;
        }
        if !self.assumptions.is_empty() {
            write!(f, "a")?;
            for l in &self.assumptions {
                write!(f, " {l}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Draws a random instance around the 3-SAT threshold.
pub fn generate(rng: &mut Rng) -> CnfCase {
    let num_vars = rng.range(3, 9) as usize;
    let num_clauses = rng.range(1, 4 * num_vars as u64 + 1) as usize;
    let clauses = (0..num_clauses)
        .map(|_| {
            let len = rng.range(1, 4) as usize;
            (0..len).map(|_| random_lit(rng, num_vars)).collect()
        })
        .collect();
    let assumptions = if rng.flip() {
        let n = rng.range(1, 4) as usize;
        (0..n).map(|_| random_lit(rng, num_vars)).collect()
    } else {
        Vec::new()
    };
    CnfCase {
        num_vars,
        clauses,
        assumptions,
    }
}

fn random_lit(rng: &mut Rng, num_vars: usize) -> i32 {
    let v = rng.range(1, num_vars as u64 + 1) as i32;
    if rng.flip() {
        v
    } else {
        -v
    }
}

/// The naive oracle: exhaustive DPLL branching with no propagation or
/// learning — nothing in common with the CDCL implementation.
pub fn oracle_sat(case: &CnfCase) -> bool {
    let mut assign: Vec<Option<bool>> = vec![None; case.num_vars + 1];
    for &a in &case.assumptions {
        let v = a.unsigned_abs() as usize;
        let want = a > 0;
        match assign[v] {
            Some(b) if b != want => return false, // contradictory assumptions
            _ => assign[v] = Some(want),
        }
    }
    dpll(&case.clauses, &mut assign)
}

fn dpll(clauses: &[Vec<i32>], assign: &mut [Option<bool>]) -> bool {
    let mut branch = None;
    for cl in clauses {
        let mut satisfied = false;
        let mut unassigned = None;
        for &l in cl {
            let v = l.unsigned_abs() as usize;
            match assign[v] {
                Some(b) => {
                    if b == (l > 0) {
                        satisfied = true;
                        break;
                    }
                }
                None => unassigned = unassigned.or(Some(v)),
            }
        }
        if satisfied {
            continue;
        }
        match unassigned {
            None => return false, // clause falsified
            Some(v) => {
                branch = Some(v);
                break;
            }
        }
    }
    let Some(v) = branch else {
        return true; // every clause satisfied
    };
    for b in [false, true] {
        assign[v] = Some(b);
        if dpll(clauses, assign) {
            assign[v] = None;
            return true;
        }
    }
    assign[v] = None;
    false
}

/// Runs one instance through CDCL (with proof logging) and every check
/// listed in the module docs — twice: once with the default solver
/// configuration, and once in a stress configuration (huge-page clause
/// arena, reduction sweep after every conflict) that forces the LBD
/// deletion policy and arena compaction onto even these tiny instances.
/// Both runs face the same oracle and both must produce certifiable
/// DRAT proofs. `Err` explains the first failure.
pub fn check(case: &CnfCase) -> Result<RoundStats, String> {
    let stats = check_with(case, Solver::new())?;
    let mut stress = Solver::with_arena_mode(ArenaMode::HugePages);
    stress.set_reduce_interval(1);
    check_with(case, stress).map_err(|e| format!("stress config: {e}"))?;
    Ok(stats)
}

fn check_with(case: &CnfCase, mut solver: Solver) -> Result<RoundStats, String> {
    let expected = oracle_sat(case);
    solver.enable_proof_logging();
    let vars: Vec<Var> = (0..case.num_vars).map(|_| solver.new_var()).collect();
    let lit = |l: i32| -> Lit {
        let v = vars[(l.unsigned_abs() - 1) as usize];
        Lit::new(v, l < 0)
    };
    for cl in &case.clauses {
        let lits: Vec<Lit> = cl.iter().map(|&l| lit(l)).collect();
        solver.add_clause(&lits);
    }
    let assumptions: Vec<Lit> = case.assumptions.iter().map(|&l| lit(l)).collect();
    match solver.solve_with_assumptions(&assumptions) {
        SolveResult::Sat => {
            if !expected {
                return Err("CDCL answered Sat, the DPLL oracle answers Unsat".to_string());
            }
            for cl in &case.clauses {
                if !cl
                    .iter()
                    .any(|&l| solver.model_lit_value(lit(l)) == Some(true))
                {
                    return Err(format!("CDCL model does not satisfy clause {cl:?}"));
                }
            }
            for &a in &case.assumptions {
                if solver.model_lit_value(lit(a)) != Some(true) {
                    return Err(format!("CDCL model violates assumption {a}"));
                }
            }
        }
        SolveResult::Unsat => {
            if expected {
                return Err("CDCL answered Unsat, the DPLL oracle answers Sat".to_string());
            }
            let core = solver.final_conflict().to_vec();
            let proof = solver.proof().expect("proof logging enabled");
            drat::certify_unsat(proof, &core)
                .map_err(|e| format!("DRAT certificate rejected: {e}"))?;
            for l in &core {
                if !assumptions.contains(l) {
                    return Err(format!("core literal {l:?} is not an assumption"));
                }
            }
            // The core must be sufficient on its own: re-solving under
            // just the core assumptions stays Unsat per the oracle.
            let core_case = CnfCase {
                num_vars: case.num_vars,
                clauses: case.clauses.clone(),
                assumptions: core.iter().map(|l| l.to_dimacs() as i32).collect(),
            };
            if oracle_sat(&core_case) {
                return Err(format!(
                    "unsat core {:?} is satisfiable under the oracle",
                    core_case.assumptions
                ));
            }
        }
        SolveResult::Unknown(why) => {
            return Err(format!(
                "CDCL answered Unknown ({why:?}) with no budget set"
            ));
        }
    }
    Ok(RoundStats {
        sat_vars: solver.num_vars() as u64,
        sat_clauses: solver.num_clauses() as u64,
        conflicts: solver.stats().conflicts,
    })
}

/// One fuzz round: generate from `seed`, check, and on failure shrink to
/// a minimal reproduction.
///
/// # Errors
///
/// The shrunk [`Disagreement`] when any check fails.
pub fn run_round(seed: u64) -> Result<RoundStats, Disagreement> {
    let mut rng = Rng::seed(seed);
    let case = generate(&mut rng);
    match check(&case) {
        Ok(stats) => Ok(stats),
        Err(what) => {
            let minimal = crate::shrink::shrink(case, candidates, |c| check(c).is_err(), 400);
            Err(Disagreement {
                generator: "cnf",
                profile: None,
                seed,
                what,
                shrunk: minimal.to_string(),
            })
        }
    }
}

/// Reduction step: drop a clause, drop a literal, or drop an assumption.
fn candidates(case: &CnfCase) -> Vec<CnfCase> {
    let mut out = Vec::new();
    for i in 0..case.clauses.len() {
        let mut c = case.clone();
        c.clauses.remove(i);
        out.push(c);
    }
    for i in 0..case.clauses.len() {
        for j in 0..case.clauses[i].len() {
            let mut c = case.clone();
            c.clauses[i].remove(j);
            out.push(c);
        }
    }
    for i in 0..case.assumptions.len() {
        let mut c = case.clone();
        c.assumptions.remove(i);
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_handles_known_instances() {
        let sat = CnfCase {
            num_vars: 2,
            clauses: vec![vec![1, 2], vec![-1, 2]],
            assumptions: vec![],
        };
        assert!(oracle_sat(&sat));
        let unsat = CnfCase {
            num_vars: 1,
            clauses: vec![vec![1], vec![-1]],
            assumptions: vec![],
        };
        assert!(!oracle_sat(&unsat));
        let by_assumption = CnfCase {
            num_vars: 2,
            clauses: vec![vec![1, 2]],
            assumptions: vec![-1, -2],
        };
        assert!(!oracle_sat(&by_assumption));
        let contradictory = CnfCase {
            num_vars: 1,
            clauses: vec![],
            assumptions: vec![1, -1],
        };
        assert!(!oracle_sat(&contradictory));
    }

    #[test]
    fn rounds_are_deterministic_and_agree() {
        for round in 0..64 {
            let seed = crate::round_seed(0xF00D, "cnf", round);
            let first = run_round(seed).unwrap_or_else(|d| panic!("{d}"));
            let second = run_round(seed).unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(first.sat_clauses, second.sat_clauses);
        }
    }
}
