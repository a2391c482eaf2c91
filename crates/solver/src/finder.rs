//! The model finding driver: translate, solve, decode.

use std::time::{Duration, Instant};

use relational::{Bounds, Formula, Instance, Schema, TypeError};
use satsolver::{CancelToken, Interrupt, SolveResult, Solver, Var};

use crate::circuit::CircuitEncoder;
use crate::symmetry::{break_symmetries, formula_pins_atoms, symmetry_classes};
use crate::translate::{translate, ClosureStrategy};

/// A bounded relational satisfiability problem.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The relation vocabulary.
    pub schema: Schema,
    /// Per-relation lower/upper bounds over a finite universe.
    pub bounds: Bounds,
    /// The formula to satisfy.
    pub formula: Formula,
}

/// Model finding options.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// How to encode transitive closure.
    pub closure: ClosureStrategy,
    /// Whether to add lex-leader symmetry-breaking predicates.
    ///
    /// Sound for satisfiability checks but removes isomorphic models, so it
    /// must be disabled when enumerating all models.
    pub symmetry_breaking: bool,
    /// Optional conflict budget for the SAT solver.
    pub conflict_budget: Option<u64>,
    /// Optional propagation budget for the SAT solver.
    pub propagation_budget: Option<u64>,
    /// Optional wall-clock budget for the whole run (translation +
    /// solving), measured from the start of the `solve` call. On expiry
    /// the verdict is [`Verdict::Unknown`] and the [`Report`] records
    /// [`Interrupt::Deadline`].
    pub deadline: Option<Duration>,
    /// Optional cancellation token polled by the SAT solver, for stopping
    /// a run from another thread (see [`satsolver::CancelToken`]).
    pub cancel: Option<CancelToken>,
    /// Record a DRAT proof log while solving, returned in
    /// [`Report::proof`] (scratch runs) or kept on the session
    /// ([`crate::Session::proof`]). `Unsat` verdicts then carry an
    /// independently checkable certificate (see [`satsolver::drat`]).
    /// Off by default; roughly doubles clause bookkeeping cost.
    pub proof_logging: bool,
    /// Event tracer bracketing the translate/encode/solve phases and
    /// receiving the SAT solver's milestone events. The
    /// [`obs::trace::Tracer::disabled`] default records nothing.
    pub tracer: obs::trace::Tracer,
    /// Overrides the SAT solver's learnt-database reduction cadence
    /// (conflicts between sweeps; see
    /// [`satsolver::Solver::set_reduce_interval`]). `None` keeps the
    /// solver default, which is tuned for real workloads; tests and
    /// stress harnesses lower it to force sweeps on small instances.
    pub reduce_interval: Option<u64>,
}

impl Options {
    /// Options for a plain satisfiability check (symmetry breaking on).
    pub fn check() -> Options {
        Options {
            symmetry_breaking: true,
            ..Options::default()
        }
    }

    /// This configuration with a wall-clock budget.
    pub fn with_deadline(mut self, deadline: Duration) -> Options {
        self.deadline = Some(deadline);
        self
    }

    /// This configuration with a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Options {
        self.cancel = Some(token);
        self
    }

    /// This configuration with DRAT proof logging turned on.
    pub fn with_proof_logging(mut self) -> Options {
        self.proof_logging = true;
        self
    }

    /// This configuration with an event tracer.
    pub fn with_tracer(mut self, tracer: obs::trace::Tracer) -> Options {
        self.tracer = tracer;
        self
    }

    /// This configuration with an explicit learnt-database reduction
    /// cadence (conflicts between sweeps).
    pub fn with_reduce_interval(mut self, interval: u64) -> Options {
        self.reduce_interval = Some(interval);
        self
    }
}

/// The verdict of a model finding run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// A satisfying instance exists.
    Sat(Instance),
    /// No satisfying instance exists within the bounds.
    Unsat,
    /// The conflict budget ran out.
    Unknown,
}

impl Verdict {
    /// The instance, if satisfiable.
    pub fn instance(&self) -> Option<&Instance> {
        match self {
            Verdict::Sat(i) => Some(i),
            _ => None,
        }
    }

    /// True iff the verdict is [`Verdict::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }
}

/// Statistics about one model finding run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Gates in the translated circuit.
    pub gates: usize,
    /// Free boolean inputs (relation tuples not fixed by bounds).
    pub inputs: usize,
    /// Variables in the CNF handed to the SAT solver.
    pub sat_vars: usize,
    /// Clauses in the CNF.
    pub sat_clauses: usize,
    /// Sparse matrix cells materialized during translation (for a
    /// session query: cells this query added); subexpressions served
    /// from the translator's per-formula cache add none.
    pub matrix_cells: u64,
    /// Tseitin defining clauses emitted while encoding (for a session
    /// query: clauses this query added).
    pub tseitin_clauses: u64,
    /// Number of symmetry classes broken.
    pub symmetry_classes: usize,
    /// True when [`Options::symmetry_breaking`] was requested but the
    /// formula pins atoms by identity (see
    /// [`crate::symmetry::formula_pins_atoms`]), so the predicates were
    /// skipped to preserve soundness.
    pub symmetry_downgraded: bool,
    /// Time spent translating to CNF.
    pub translate_time: Duration,
    /// Time spent in the SAT solver.
    pub solve_time: Duration,
    /// SAT solver counters.
    pub solver_stats: satsolver::SolverStats,
    /// Gates found already encoded by an earlier query on the same
    /// incremental session (0 for a scratch run).
    pub gate_cache_hits: u64,
    /// Why the run stopped early, when the verdict is
    /// [`Verdict::Unknown`]. `None` for a completed run.
    pub interrupted: Option<Interrupt>,
    /// The DRAT proof recorded for this run when
    /// [`Options::proof_logging`] is set (scratch runs only; session
    /// proofs accumulate on the session instead). An `Unsat` verdict is
    /// certified by `satsolver::drat::certify_unsat(proof, &[])`.
    pub proof: Option<satsolver::Proof>,
}

impl Report {
    /// Records this report's counters, timings, and size histograms
    /// into an observability registry under the workspace's canonical
    /// stat names (`circuit.*`, `sat.*`, `solver.*`, `time.*`). No-op
    /// for a disabled registry. Counter values are deterministic for a
    /// fixed problem; the `time.*` entries are wall clock and excluded
    /// from exact comparisons by the JSONL schema.
    pub fn record_obs(&self, reg: &obs::Registry) {
        if !reg.enabled() {
            return;
        }
        reg.add("circuit.gates", self.gates as u64);
        reg.add("circuit.inputs", self.inputs as u64);
        reg.add("circuit.matrix_cells", self.matrix_cells);
        reg.add("circuit.gate_cache_hits", self.gate_cache_hits);
        reg.add("sat.vars", self.sat_vars as u64);
        reg.add("sat.clauses", self.sat_clauses as u64);
        reg.add("sat.tseitin_clauses", self.tseitin_clauses);
        reg.add("sym.classes", self.symmetry_classes as u64);
        if self.symmetry_downgraded {
            reg.add("sym.downgraded", 1);
        }
        let s = &self.solver_stats;
        reg.add("solver.propagations", s.propagations);
        reg.add("solver.binary_propagations", s.binary_propagations);
        reg.add("solver.conflicts", s.conflicts);
        reg.add("solver.decisions", s.decisions);
        reg.add("solver.restarts", s.restarts);
        reg.add("solver.learnt_clauses", s.learnt_clauses);
        reg.add("solver.learnt_literals", s.learnt_literals);
        reg.add("solver.lbd_sum", s.lbd_sum);
        reg.add("solver.lbd_glue_learnts", s.lbd_glue_learnts);
        reg.add("solver.reduce_sweeps", s.reduce_sweeps);
        reg.add("solver.deleted_clauses", s.deleted_clauses);
        if let Some(proof) = &self.proof {
            reg.add("proof.drat_bytes", proof.drat_bytes());
        }
        reg.observe("hist.sat_clauses", self.sat_clauses as u64);
        reg.record_duration("time.translate", self.translate_time);
        reg.record_duration("time.solve", self.solve_time);
    }
}

/// A model finder for bounded relational problems.
///
/// # Examples
///
/// Find a non-trivial acyclic relation:
///
/// ```
/// use relational::{Schema, Bounds, patterns};
/// use relational::schema::rel;
/// use modelfinder::{ModelFinder, Problem, Options};
///
/// let mut schema = Schema::new();
/// let r = schema.relation("r", 2);
/// let bounds = Bounds::new(&schema, 3);
/// let formula = patterns::acyclic(&rel(r)).and(&rel(r).some());
/// let problem = Problem { schema, bounds, formula };
///
/// let (verdict, _report) = ModelFinder::new(Options::check()).solve(&problem)?;
/// let instance = verdict.instance().expect("satisfiable");
/// assert!(!instance.get(r).is_empty());
/// # Ok::<(), relational::TypeError>(())
/// ```
#[derive(Debug, Default)]
pub struct ModelFinder {
    options: Options,
}

impl ModelFinder {
    /// Creates a finder with the given options.
    pub fn new(options: Options) -> ModelFinder {
        ModelFinder { options }
    }

    /// Solves the problem, returning the verdict and a run report.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn solve(&self, problem: &Problem) -> Result<(Verdict, Report), TypeError> {
        let t0 = Instant::now();
        let deadline = self.options.deadline.map(|d| t0 + d);
        let trace = &self.options.tracer;
        let translate_span = trace.span("translate");
        let mut translation = translate(
            &problem.schema,
            &problem.bounds,
            &problem.formula,
            self.options.closure,
        )?;
        let mut root = translation.root;
        let mut report = Report::default();
        if self.options.symmetry_breaking {
            if formula_pins_atoms(&problem.formula) {
                // Bounds-only symmetry breaking is unsound for formulas
                // that pin atoms by identity: downgrade to a plain search
                // rather than risk a wrong Unsat.
                report.symmetry_downgraded = true;
                warn_symmetry_downgrade();
            } else {
                let classes = symmetry_classes(&problem.schema, &problem.bounds);
                report.symmetry_classes = classes.len();
                let sym = break_symmetries(
                    &problem.schema,
                    &problem.bounds,
                    &mut translation.circuit,
                    &translation.rel_inputs,
                    &classes,
                );
                root = translation.circuit.and(root, sym);
            }
        }
        drop(translate_span);
        let mut solver = Solver::new();
        if self.options.proof_logging {
            solver.enable_proof_logging();
        }
        solver.set_conflict_budget(self.options.conflict_budget);
        solver.set_propagation_budget(self.options.propagation_budget);
        solver.set_deadline(deadline);
        solver.set_cancel_token(self.options.cancel.clone());
        solver.set_tracer(trace);
        if let Some(interval) = self.options.reduce_interval {
            solver.set_reduce_interval(interval);
        }
        let encode_span = trace.span("encode");
        let mut encoder = CircuitEncoder::new();
        let root_lit = encoder.encode(&translation.circuit, root, &mut solver);
        solver.add_clause(&[root_lit]);
        drop(encode_span);
        let input_vars = encoder.input_vars();
        report.gates = translation.circuit.num_gates();
        report.inputs = translation.circuit.num_inputs();
        report.sat_vars = solver.num_vars();
        report.sat_clauses = solver.num_clauses();
        report.matrix_cells = translation.matrix_cells;
        report.tseitin_clauses = encoder.tseitin_clauses();
        report.translate_time = t0.elapsed();

        // The deadline covers translation too; if it already passed (or
        // the caller cancelled during translation), skip the search but
        // still return an accurate report of the work done so far.
        let expired = deadline.is_some_and(|d| Instant::now() >= d);
        let cancelled = self
            .options
            .cancel
            .as_ref()
            .is_some_and(CancelToken::is_cancelled);
        if expired || cancelled {
            report.interrupted = Some(if cancelled {
                Interrupt::Cancelled
            } else {
                Interrupt::Deadline
            });
            report.proof = solver.take_proof();
            return Ok((Verdict::Unknown, report));
        }

        let t1 = Instant::now();
        let solve_span = trace.span("solve");
        let result = solver.solve();
        drop(solve_span);
        report.solve_time = t1.elapsed();
        report.solver_stats = solver.stats();

        let verdict = match result {
            SolveResult::Unsat => Verdict::Unsat,
            SolveResult::Unknown(reason) => {
                report.interrupted = Some(reason);
                Verdict::Unknown
            }
            SolveResult::Sat => Verdict::Sat(decode(
                &problem.schema,
                &problem.bounds,
                &translation.rel_inputs,
                input_vars,
                &solver,
            )),
        };
        report.proof = solver.take_proof();
        Ok((verdict, report))
    }

    /// Enumerates satisfying instances, invoking `visit` for each, up to
    /// `limit`. Returns the number of instances found.
    ///
    /// Symmetry breaking is forcibly disabled so the enumeration is
    /// complete.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the formula violates arity discipline.
    pub fn enumerate<F: FnMut(&Instance)>(
        &self,
        problem: &Problem,
        limit: usize,
        mut visit: F,
    ) -> Result<usize, TypeError> {
        let translation = translate(
            &problem.schema,
            &problem.bounds,
            &problem.formula,
            self.options.closure,
        )?;
        let mut solver = Solver::new();
        solver.set_conflict_budget(self.options.conflict_budget);
        solver.set_propagation_budget(self.options.propagation_budget);
        solver.set_deadline(self.options.deadline.map(|d| Instant::now() + d));
        solver.set_cancel_token(self.options.cancel.clone());
        if let Some(interval) = self.options.reduce_interval {
            solver.set_reduce_interval(interval);
        }
        let input_vars = translation.circuit.to_solver(translation.root, &mut solver);
        let all_inputs: Vec<Var> = input_vars.values().copied().collect();
        let mut count = 0;
        while count < limit && solver.solve() == SolveResult::Sat {
            let inst = decode(
                &problem.schema,
                &problem.bounds,
                &translation.rel_inputs,
                &input_vars,
                &solver,
            );
            visit(&inst);
            count += 1;
            if all_inputs.is_empty() || !solver.block_model(&all_inputs) {
                break;
            }
        }
        Ok(count)
    }
}

/// The result of an Alloy-style `check`: either the assertion holds
/// within the bounds, or a counterexample instance is produced.
#[derive(Debug, Clone)]
pub enum CheckResult {
    /// No counterexample exists within the bounds.
    Valid,
    /// The assertion fails on this instance.
    Counterexample(Instance),
    /// The conflict budget ran out before a verdict.
    Unknown,
}

impl CheckResult {
    /// True iff the assertion held within bounds.
    pub fn is_valid(&self) -> bool {
        matches!(self, CheckResult::Valid)
    }
}

impl ModelFinder {
    /// Alloy's `check` idiom: verify that `assumptions ⇒ assertion` holds
    /// for every instance within the bounds, by searching for an instance
    /// satisfying `assumptions ∧ ¬assertion`.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if either formula violates arity
    /// discipline.
    pub fn check(
        &self,
        schema: &Schema,
        bounds: &Bounds,
        assumptions: &Formula,
        assertion: &Formula,
    ) -> Result<(CheckResult, Report), TypeError> {
        let problem = Problem {
            schema: schema.clone(),
            bounds: bounds.clone(),
            formula: assumptions.and(&assertion.not()),
        };
        let (verdict, report) = self.solve(&problem)?;
        let result = match verdict {
            Verdict::Unsat => CheckResult::Valid,
            Verdict::Sat(instance) => CheckResult::Counterexample(instance),
            Verdict::Unknown => CheckResult::Unknown,
        };
        Ok((result, report))
    }
}

/// Warns (once per process) that a symmetry-breaking request was
/// downgraded because the formula pins atoms. The downgrade itself is
/// also visible programmatically via [`Report::symmetry_downgraded`]
/// and the `sym.downgraded` stats counter.
pub(crate) fn warn_symmetry_downgrade() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: symmetry breaking downgraded: the formula pins atoms by \
             identity (non-empty constant expression), which lex-leader \
             predicates over bounds symmetries would make unsound; solving \
             without symmetry breaking"
        );
    });
}

/// Reads a satisfying assignment back into a relational [`Instance`].
pub(crate) fn decode(
    schema: &Schema,
    bounds: &Bounds,
    rel_inputs: &[std::collections::BTreeMap<relational::Tuple, u32>],
    input_vars: &std::collections::HashMap<u32, Var>,
    solver: &Solver,
) -> Instance {
    let mut inst = Instance::empty(schema, bounds.universe_size());
    for (id, d) in schema.iter() {
        let mut value = bounds.lower(id).clone();
        let _ = d;
        for (tuple, input_idx) in &rel_inputs[id.index()] {
            // Inputs outside the root's cone of influence have no SAT
            // variable; they are unconstrained, so leave them absent.
            if let Some(var) = input_vars.get(input_idx) {
                if solver.model_value(*var) == Some(true) {
                    value.insert(tuple.clone());
                }
            }
        }
        inst.set(id, value);
    }
    inst
}

#[cfg(test)]
mod tests {
    use super::*;
    use relational::patterns;
    use relational::schema::rel;
    use relational::{eval_formula, TupleSet};

    fn simple_problem() -> (Problem, relational::RelId) {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        let formula = patterns::acyclic(&rel(r)).and(&rel(r).some());
        (
            Problem {
                schema,
                bounds,
                formula,
            },
            r,
        )
    }

    #[test]
    fn finds_satisfying_instance() {
        let (problem, r) = simple_problem();
        let (verdict, report) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let inst = verdict.instance().expect("sat");
        assert!(!inst.get(r).is_empty());
        assert!(eval_formula(&problem.schema, inst, &problem.formula).unwrap());
        assert!(report.sat_vars > 0);
    }

    #[test]
    fn unsat_when_formula_contradictory() {
        let (mut problem, _) = simple_problem();
        // r must be non-empty, acyclic, and empty: contradiction.
        let r = problem.schema.find("r").unwrap();
        problem.formula = problem.formula.and(&rel(r).no());
        let (verdict, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        assert!(verdict.is_unsat());
    }

    #[test]
    fn symmetry_breaking_preserves_satisfiability() {
        let (problem, _) = simple_problem();
        let (v1, _) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        let (v2, r2) = ModelFinder::new(Options::check()).solve(&problem).unwrap();
        assert!(v1.instance().is_some());
        assert!(v2.instance().is_some());
        assert!(r2.symmetry_classes >= 1);
        // The symmetric model must still satisfy the formula.
        assert!(eval_formula(&problem.schema, v2.instance().unwrap(), &problem.formula).unwrap());
    }

    #[test]
    fn enumeration_matches_hand_count() {
        // Relations over a 2-atom universe with `one r`: exactly 4 models.
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 2);
        let formula = rel(r).one();
        let problem = Problem {
            schema,
            bounds,
            formula,
        };
        let count = ModelFinder::new(Options::default())
            .enumerate(&problem, 100, |inst| {
                assert_eq!(inst.get(r).len(), 1);
            })
            .unwrap();
        assert_eq!(count, 4);
    }

    #[test]
    fn exact_bounds_need_no_search() {
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let mut bounds = Bounds::new(&schema, 2);
        bounds.bound_exact(r, TupleSet::from_pairs([(0, 1)]));
        let formula = rel(r).some();
        let problem = Problem {
            schema,
            bounds,
            formula,
        };
        let (verdict, report) = ModelFinder::new(Options::default())
            .solve(&problem)
            .unwrap();
        assert!(verdict.instance().is_some());
        assert_eq!(report.inputs, 0);
    }

    #[test]
    fn closure_strategies_agree() {
        let (problem, _) = simple_problem();
        for strategy in [
            ClosureStrategy::IterativeSquaring,
            ClosureStrategy::Unrolled,
        ] {
            let opts = Options {
                closure: strategy,
                ..Options::default()
            };
            let (verdict, _) = ModelFinder::new(opts).solve(&problem).unwrap();
            assert!(verdict.instance().is_some(), "{strategy:?}");
        }
    }
}

#[cfg(test)]
mod check_tests {
    use super::*;
    use relational::patterns;
    use relational::schema::rel;

    #[test]
    fn check_valid_assertion() {
        // Assuming r is acyclic, r is irreflexive — valid at any bound.
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        let finder = ModelFinder::new(Options::check());
        let (result, _) = finder
            .check(
                &schema,
                &bounds,
                &patterns::acyclic(&rel(r)),
                &patterns::irreflexive(&rel(r)),
            )
            .unwrap();
        assert!(result.is_valid());
    }

    #[test]
    fn check_invalid_assertion_yields_counterexample() {
        // Assuming r is irreflexive, r is acyclic — false (2-cycles).
        let mut schema = Schema::new();
        let r = schema.relation("r", 2);
        let bounds = Bounds::new(&schema, 3);
        let finder = ModelFinder::new(Options::default());
        let (result, _) = finder
            .check(
                &schema,
                &bounds,
                &patterns::irreflexive(&rel(r)),
                &patterns::acyclic(&rel(r)),
            )
            .unwrap();
        match result {
            CheckResult::Counterexample(inst) => {
                let v = inst.get(r);
                assert!(!v.is_empty(), "counterexample must contain a cycle");
            }
            other => panic!("expected counterexample, got {other:?}"),
        }
    }
}
