//! Random PTX litmus programs: enumeration against the SAT path.
//!
//! Every case has one shape ([`Case`]: two threads over two locations,
//! a layout, a conjunctive outcome condition), drawn by one of two
//! instruction mixes: [`generate`] (stores, loads at every strength,
//! fences) exercises the core axioms; [`generate_barrier`]
//! (`bar.sync`/`bar.arrive`, `atom.add`/`exch`/`cas`, `red.add`,
//! register-operand stores, memory-equality conditions) aims at the
//! symbolic value layer and the barrier edges. A [`Profile`] picks a mix
//! and the consistency models to answer it under; under each model,
//! [`check_model`] answers the test three ways:
//!
//! * [`litmus::run_ptx_model`] — exhaustive execution enumeration, the
//!   ground truth;
//! * a scratch [`modelfinder::ModelFinder`] on
//!   [`litmus::sat::scratch_problem_model`], with `Unsat` proofs
//!   certified;
//! * a pooled incremental [`litmus::sat::SatSession`] keyed by
//!   `(model, signature)` — the production `ptxherd --sat`
//!   configuration — with its append-only proof absorbed incrementally
//!   by the [`CertSession`]'s dedicated checker and every `Unsat` core
//!   certified.
//!
//! Per-model engine disagreement (or a rejected certificate) is a
//! failure. *Cross-model* verdict differences under
//! [`Profile::CrossModel`] are not — they are the distinguishing
//! fragment the `ptxdistill` search mines (CoRR-style shapes whose
//! Read→Read coherence the cumulative draft drops) — and are only
//! counted, as `fuzzherd --stats`' `gen.model.fuzz.model_diffs`.

use litmus::sat::{self, SatSession, Signature};
use litmus::{run_ptx_model, Cond, Expectation, Model, PtxLitmus};
use memmodel::{BarrierId, Location, Register, Scope, SystemLayout, Value};
use modelfinder::harness::SessionPool;
use modelfinder::{drat, ModelFinder, Options, Verdict};
use ptx::cumulative::ALL_MODELS;
use ptx::inst::build;
use ptx::{AtomSem, Instruction, Operand, Program, RmwOp};
use testkit::Rng;

use crate::{Disagreement, RoundStats};

/// A register- or memory-equality conjunct of the outcome condition.
#[derive(Debug, Clone, Copy)]
pub enum CondAtom {
    /// `thread:rREG = value`.
    Reg(u32, u32, u64),
    /// `[loc] = value` in the final memory.
    Mem(u32, u64),
}

/// A generated litmus case, kept in shrink-friendly parts.
#[derive(Debug, Clone)]
pub struct Case {
    /// 0 = single CTA, 1 = CTA per thread, 2 = GPU per thread.
    pub layout_kind: u8,
    /// Instructions per thread.
    pub threads: Vec<Vec<Instruction>>,
    /// Outcome-condition conjuncts.
    pub conds: Vec<CondAtom>,
}

impl Case {
    /// Builds the runnable test (expectation is irrelevant to the
    /// differential check and fixed to `Allowed`).
    pub fn to_test(&self) -> PtxLitmus {
        let layout = match self.layout_kind {
            0 => SystemLayout::single_cta(self.threads.len()),
            1 => SystemLayout::cta_per_thread(self.threads.len()),
            _ => SystemLayout::gpu_per_thread(self.threads.len()),
        };
        let cond = self
            .conds
            .iter()
            .map(|atom| match *atom {
                CondAtom::Reg(t, r, v) => Cond::reg(t, r, v),
                CondAtom::Mem(l, v) => Cond::mem(l, v),
            })
            .reduce(|a, b| a.and(b))
            .unwrap_or(Cond::True);
        PtxLitmus {
            name: "fuzz".to_string(),
            description: "generated by fuzzkit::litmusgen".to_string(),
            program: Program::new(self.threads.clone(), layout),
            cond,
            expectation: Expectation::Allowed,
        }
    }
}

impl std::fmt::Display for Case {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "layout kind {}", self.layout_kind)?;
        for (t, instrs) in self.threads.iter().enumerate() {
            writeln!(f, "T{t}: {instrs:?}")?;
        }
        write!(f, "cond:")?;
        for atom in &self.conds {
            match atom {
                CondAtom::Reg(t, r, v) => write!(f, " {t}:r{r}={v}")?,
                CondAtom::Mem(l, v) => write!(f, " [{l}]={v}")?,
            }
        }
        Ok(())
    }
}

/// Draws a random case over stores, loads, and fences.
pub fn generate(rng: &mut Rng) -> Case {
    let layout_kind = rng.below(3) as u8;
    let mut threads = Vec::new();
    let mut loads: Vec<(u32, u32)> = Vec::new();
    for t in 0..2u32 {
        let len = rng.range(1, 4) as usize;
        let mut instrs = Vec::new();
        let mut next_reg = 0u32;
        for _ in 0..len {
            let loc = Location(rng.below(2) as u32);
            let val = rng.range(1, 3);
            let scope = *rng.choose(&[Scope::Cta, Scope::Gpu, Scope::Sys]);
            let instr = match rng.below(8) {
                0 => build::st_weak(loc, val),
                1 => build::st_relaxed(scope, loc, val),
                2 => build::st_release(scope, loc, val),
                3..=5 => {
                    let reg = Register(next_reg);
                    next_reg += 1;
                    loads.push((t, reg.0));
                    match rng.below(3) {
                        0 => build::ld_weak(reg, loc),
                        1 => build::ld_relaxed(scope, reg, loc),
                        _ => build::ld_acquire(scope, reg, loc),
                    }
                }
                6 => build::fence_sc(scope),
                _ => build::fence_acq_rel(scope),
            };
            instrs.push(instr);
        }
        threads.push(instrs);
    }
    let mut conds = Vec::new();
    for &(t, r) in &loads {
        if rng.chance(0.7) {
            conds.push(CondAtom::Reg(t, r, rng.below(3)));
        }
    }
    Case {
        layout_kind,
        threads,
        conds,
    }
}

/// Draws a random case over barriers, RMWs, dependent stores, loads,
/// and fences.
pub fn generate_barrier(rng: &mut Rng) -> Case {
    // Bias toward a single CTA: that is where `bar` instructions pair
    // across threads and produce synchronization edges.
    let layout_kind = u8::from(rng.chance(0.25));
    let mut threads = Vec::new();
    let mut dsts: Vec<(u32, u32)> = Vec::new();
    for t in 0..2u32 {
        let len = rng.range(2, 5) as usize;
        let mut instrs = Vec::new();
        let mut next_reg = 0u32;
        for _ in 0..len {
            let loc = Location(rng.below(2) as u32);
            let val = rng.range(1, 3);
            let scope = *rng.choose(&[Scope::Cta, Scope::Gpu, Scope::Sys]);
            let sem = *rng.choose(&[
                AtomSem::Relaxed,
                AtomSem::Acquire,
                AtomSem::Release,
                AtomSem::AcqRel,
            ]);
            let instr = match rng.below(10) {
                0 => build::st_weak(loc, val),
                // A data-dependent store: forward an earlier load's
                // register if the thread has one, else degrade to an
                // immediate (keeps generation total).
                1 if next_reg > 0 => {
                    build::st_weak_reg(loc, Register(rng.below(u64::from(next_reg)) as u32))
                }
                1 => build::st_weak(loc, val),
                2 => {
                    let reg = Register(next_reg);
                    next_reg += 1;
                    dsts.push((t, reg.0));
                    match rng.below(3) {
                        0 => build::ld_weak(reg, loc),
                        1 => build::ld_relaxed(scope, reg, loc),
                        _ => build::ld_acquire(scope, reg, loc),
                    }
                }
                3 => {
                    let reg = Register(next_reg);
                    next_reg += 1;
                    dsts.push((t, reg.0));
                    build::atom_add(sem, scope, reg, loc, val)
                }
                4 => {
                    let reg = Register(next_reg);
                    next_reg += 1;
                    dsts.push((t, reg.0));
                    build::atom_exch(sem, scope, reg, loc, val)
                }
                5 => {
                    // `atom.cas dst, [loc], val (cmp)` — no terse builder,
                    // constructed directly.
                    let reg = Register(next_reg);
                    next_reg += 1;
                    dsts.push((t, reg.0));
                    Instruction::Atom {
                        sem,
                        scope,
                        dst: reg,
                        loc,
                        op: RmwOp::Cas {
                            cmp: Value(rng.below(3)),
                        },
                        src: Operand::Imm(Value(val)),
                    }
                }
                6 => build::red_add(sem, scope, loc, val),
                7 => build::bar_sync(BarrierId(rng.below(2) as u32)),
                8 => build::bar_arrive(BarrierId(rng.below(2) as u32)),
                _ => build::fence_acq_rel(scope),
            };
            instrs.push(instr);
        }
        threads.push(instrs);
    }
    let mut conds = Vec::new();
    for &(t, r) in &dsts {
        if rng.chance(0.5) {
            // Adds can stack, so condition values range past single
            // stores to probe the bit-vector width logic.
            conds.push(CondAtom::Reg(t, r, rng.below(5)));
        }
    }
    if rng.chance(0.5) {
        conds.push(CondAtom::Mem(rng.below(2) as u32, rng.below(5)));
    }
    Case {
        layout_kind,
        threads,
        conds,
    }
}

/// What a fuzz round draws and which models it answers the draw under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// The plain mix ([`generate`]) under the axiomatic model.
    Plain,
    /// The barrier/RMW/data-dependency mix ([`generate_barrier`]) under
    /// the axiomatic model.
    Barrier,
    /// The plain mix under both models; cross-model divergence is
    /// reported, not a failure.
    CrossModel,
}

impl Profile {
    /// Every profile, in `fuzzherd`'s per-round order.
    pub const ALL: [Profile; 3] = [Profile::Plain, Profile::Barrier, Profile::CrossModel];

    /// Draws the profile's case.
    pub fn draw(self, rng: &mut Rng) -> Case {
        match self {
            Profile::Plain | Profile::CrossModel => generate(rng),
            Profile::Barrier => generate_barrier(rng),
        }
    }

    /// The models every case is checked under.
    pub fn models(self) -> &'static [Model] {
        match self {
            Profile::Plain | Profile::Barrier => &[Model::Axiomatic],
            Profile::CrossModel => &ALL_MODELS,
        }
    }

    /// The generator tag [`crate::round_seed`] derives round seeds from.
    pub fn tag(self) -> &'static str {
        match self {
            Profile::Plain => "litmusgen",
            Profile::Barrier => "barriergen",
            Profile::CrossModel => "modelgen",
        }
    }
}

/// A pooled session with its incremental proof checker. The two travel
/// together: the checker has absorbed exactly the session's proof so
/// far, so each new query only pays for its own derivations.
pub struct CertSession {
    /// The incremental SAT session.
    pub session: SatSession,
    /// The checker tracking the session's append-only proof.
    pub checker: drat::Checker,
}

impl CertSession {
    /// Opens a proof-logging session for `sig` under `model` with a
    /// fresh checker.
    pub fn open(sig: Signature, model: Model) -> CertSession {
        CertSession {
            session: SatSession::with_options_model(
                sig,
                model,
                Options::default().with_proof_logging(),
            )
            .expect("internal encoding error"),
            checker: drat::Checker::new(),
        }
    }
}

/// Certified sessions shared across rounds, warm per model *and*
/// universe signature (the models translate to different axiom clauses
/// and must never share learnt state).
pub type Pool = SessionPool<(Model, Signature), CertSession>;

/// Runs one test under one model through all three engines. `Err`
/// explains the first engine disagreement or certificate failure; `Ok`
/// carries the model's (agreed) observability verdict.
pub fn check_model(
    test: &PtxLitmus,
    model: Model,
    pool: &Pool,
) -> Result<(bool, RoundStats), String> {
    let ground = run_ptx_model(test, model).observable;
    let agree = |engine: &str, answer: Option<bool>| match answer {
        Some(o) if o == ground => Ok(()),
        Some(o) => Err(format!(
            "{model}: {engine} says observable={o}, enumeration says {ground}"
        )),
        None => Err(format!("{model}: {engine} answered Unknown with no budget")),
    };
    let mut stats = RoundStats::default();

    // Pooled incremental session (checked back in only on success — a
    // failed certification leaves the checker desynced from the proof).
    let sig = sat::signature(&test.program);
    let key = (model, sig);
    let mut cs = pool.checkout(&key, || CertSession::open(sig, model));
    let result = cs
        .session
        .run(test)
        .map_err(|e| format!("{model}: session error: {e}"))?;
    stats.sat_vars = result.report.sat_vars as u64;
    stats.sat_clauses = result.report.sat_clauses as u64;
    stats.conflicts += result.report.solver_stats.conflicts;
    cs.checker
        .absorb(cs.session.proof().expect("proof logging enabled"))
        .map_err(|e| format!("{model}: session proof rejected: {e}"))?;
    if result.observable == Some(false) {
        let core = cs.session.last_core().expect("unsat records a core");
        cs.checker
            .expect_core(core)
            .map_err(|e| format!("{model}: session core rejected: {e}"))?;
    }
    agree("session", result.observable)?;
    pool.checkin(key, cs);

    // Scratch model finder on the self-contained problem.
    let problem = sat::scratch_problem_model(test, model);
    let (verdict, report) = ModelFinder::new(Options::default().with_proof_logging())
        .solve(&problem)
        .map_err(|e| format!("{model}: scratch finder type error: {e:?}"))?;
    stats.conflicts += report.solver_stats.conflicts;
    let observable = match verdict {
        Verdict::Sat(_) => Some(true),
        Verdict::Unsat => Some(false),
        Verdict::Unknown => None,
    };
    agree("scratch finder", observable)?;
    if observable == Some(false) {
        let proof = report.proof.as_ref().expect("proof logging enabled");
        drat::certify_unsat(proof, &[])
            .map_err(|e| format!("{model}: scratch DRAT certificate rejected: {e}"))?;
    }
    Ok((ground, stats))
}

/// Runs one test under each of `models`. `Ok` carries the accumulated
/// stats (largest solver, summed conflicts) plus whether the models'
/// verdicts diverged.
pub fn check(
    test: &PtxLitmus,
    models: &[Model],
    pool: &Pool,
) -> Result<(RoundStats, bool), String> {
    let mut stats = RoundStats::default();
    let mut verdicts = Vec::with_capacity(models.len());
    for &model in models {
        let (observable, s) = check_model(test, model, pool)?;
        verdicts.push(observable);
        stats.sat_vars = stats.sat_vars.max(s.sat_vars);
        stats.sat_clauses = stats.sat_clauses.max(s.sat_clauses);
        stats.conflicts += s.conflicts;
    }
    Ok((stats, verdicts.windows(2).any(|w| w[0] != w[1])))
}

/// One fuzz round against a shared session pool: draw from `seed` under
/// `profile`, check, shrink on failure (shrink candidates get throwaway
/// pools, so a broken shared session cannot mask the minimal case). The
/// `bool` reports cross-model divergence.
///
/// # Errors
///
/// The shrunk [`Disagreement`] when any per-model check fails.
pub fn run_round(
    profile: Profile,
    seed: u64,
    pool: &Pool,
) -> Result<(RoundStats, bool), Disagreement> {
    let case = profile.draw(&mut Rng::seed(seed));
    let models = profile.models();
    check(&case.to_test(), models, pool).map_err(|what| {
        let minimal = crate::shrink::shrink(
            case,
            candidates,
            |c| check(&c.to_test(), models, &SessionPool::new()).is_err(),
            60,
        );
        Disagreement {
            generator: profile.tag(),
            profile: Some(profile),
            seed,
            what,
            shrunk: minimal.to_string(),
        }
    })
}

/// Reduction step: drop an instruction, drop a condition conjunct, or
/// flatten the layout to a single CTA.
fn candidates(case: &Case) -> Vec<Case> {
    let mut out = Vec::new();
    for t in 0..case.threads.len() {
        for i in 0..case.threads[t].len() {
            if case.threads[t].len() == 1 {
                continue; // programs keep at least one instruction per thread
            }
            let mut c = case.clone();
            c.threads[t].remove(i);
            out.push(c);
        }
    }
    for i in 0..case.conds.len() {
        let mut c = case.clone();
        c.conds.remove(i);
        out.push(c);
    }
    if case.layout_kind != 0 {
        let mut c = case.clone();
        c.layout_kind = 0;
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_encode_without_panics() {
        // The symbolic encoding accepts every generated case; building
        // the scratch problem exercises the full structure/value/rf/cond
        // pipeline without paying for a solve.
        for round in 0..64 {
            let seed = crate::round_seed(0xF00D, "litmusgen", round);
            let case = generate(&mut Rng::seed(seed));
            let _ = sat::scratch_problem(&case.to_test());
        }
    }

    #[test]
    fn generated_cases_exercise_barriers_and_dependent_values() {
        // Over a modest sweep the generator must actually produce the
        // features it exists for; each case must also encode cleanly.
        let (mut bars, mut rmws, mut dep_stores) = (0, 0, 0);
        for round in 0..64 {
            let seed = crate::round_seed(0xBA55, "barriergen", round);
            let case = generate_barrier(&mut Rng::seed(seed));
            for instr in case.threads.iter().flatten() {
                match instr {
                    Instruction::Bar { .. } => bars += 1,
                    Instruction::Atom { .. } | Instruction::Red { .. } => rmws += 1,
                    Instruction::St {
                        src: Operand::Reg(_),
                        ..
                    } => dep_stores += 1,
                    _ => {}
                }
            }
            let _ = sat::scratch_problem(&case.to_test());
        }
        assert!(bars > 0, "no barrier instruction in 64 cases");
        assert!(rmws > 0, "no RMW instruction in 64 cases");
        assert!(dep_stores > 0, "no dependent store in 64 cases");
    }

    #[test]
    fn rounds_agree_on_a_seeded_sweep() {
        for profile in Profile::ALL {
            let base = match profile {
                Profile::Barrier => 0xBA55,
                Profile::Plain | Profile::CrossModel => 0xF00D,
            };
            let pool = SessionPool::new();
            for round in 0..12 {
                let seed = crate::round_seed(base, profile.tag(), round);
                run_round(profile, seed, &pool).unwrap_or_else(|d| panic!("{d}"));
            }
            // The pool actually shared per-(model, signature) sessions.
            let models = profile.models().len() as u64;
            let (created, reused) = pool.stats();
            assert!(
                created >= models,
                "{profile:?}: every model opened a session"
            );
            assert!(created + reused >= 12 * models, "{profile:?}");
        }
    }

    #[test]
    fn the_corr_relaxed_shape_diverges_across_models_without_failing() {
        // The known distinguishing fragment: a relaxed store against two
        // same-location relaxed reads observing new-then-stale. The
        // axiomatic model forbids it (SC-per-Location); the cumulative
        // draft drops Read→Read coherence and allows it. The check must
        // report divergence, not failure.
        let x = Location(0);
        let case = Case {
            layout_kind: 0,
            threads: vec![
                vec![build::st_relaxed(Scope::Sys, x, 1)],
                vec![
                    build::ld_relaxed(Scope::Sys, Register(0), x),
                    build::ld_relaxed(Scope::Sys, Register(1), x),
                ],
            ],
            conds: vec![CondAtom::Reg(1, 0, 1), CondAtom::Reg(1, 1, 0)],
        };
        let (_, diverged) = check(
            &case.to_test(),
            Profile::CrossModel.models(),
            &SessionPool::new(),
        )
        .expect("engines agree per model");
        assert!(diverged, "CoRR-relaxed must distinguish the models");
    }
}
