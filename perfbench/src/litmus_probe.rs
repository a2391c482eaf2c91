//! The `litmus` layer timed from outside, for the traced run of
//! `ptxd-mix`. The server answers every request through `litmus`
//! (parse, canonicalize, `SatSession`); these probes make the same
//! public calls in this process, over the workload's own pool and after
//! its timed rounds:
//!
//! - one pass of the pool under both models on `SatSession`s pooled per
//!   (model, signature) and built cold, as a fresh `ptxherd --sat` pays
//!   them: session builds (translating and Tseitin-encoding the PTX
//!   axioms once per signature) dominate, and the solves are small;
//! - the scratch path of one query per session, layer by layer.
//!
//! Every verdict is checked against the same references as the
//! server's.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use litmus::sat::{self, EncodingStats, SatSession};
use litmus::{Model, Signature};
use modelfinder::circuit::CircuitEncoder;
use modelfinder::{translate, Options, Report};
use satsolver::{SolveResult, Solver};

use crate::corpus::{FrontEnd, Oracle, Test, MODELS};
use crate::Outcome;

struct Query {
    test: usize,
    model: usize,
    /// The query had to build its (model, signature) session.
    built: bool,
    build_secs: f64,
    run_secs: f64,
    observable: Option<bool>,
    report: Report,
    encoding: EncodingStats,
}

/// Times the `litmus` layer over `tests` and records its per-layer
/// metrics; `fe` holds the front-end time of loading them.
pub fn probe(out: &mut Outcome, tests: &[Test], fe: FrontEnd) -> Result<(), String> {
    let mut oracle = Oracle::default();
    let queries = pass(tests)?;
    for q in &queries {
        out.attempted += 1;
        let t = &tests[q.test];
        match q.observable {
            None => out.unknown += 1,
            Some(o) if o != oracle.observable(q.test, t, q.model) => {
                out.wrong += 1;
                eprintln!(
                    "litmus probe: {} under {}: SAT says observable={o}, reference disagrees",
                    t.test.name, MODELS[q.model]
                );
            }
            Some(_) => {}
        }
    }
    per_layer(out, &queries, fe);
    scratch_split(out, tests, &mut oracle)
}

/// Every test under both models, in order, on a pool of sessions built
/// cold on first use.
fn pass(tests: &[Test]) -> Result<Vec<Query>, String> {
    let mut pool: BTreeMap<(Model, Signature), SatSession> = BTreeMap::new();
    let mut queries = Vec::with_capacity(tests.len() * MODELS.len());
    for (idx, t) in tests.iter().enumerate() {
        for (m, &model) in MODELS.iter().enumerate() {
            let sig = sat::signature(&t.test.program);
            let (session, built, build_secs) = match pool.entry((model, sig)) {
                Entry::Occupied(e) => (e.into_mut(), false, 0.0),
                Entry::Vacant(v) => {
                    let tb = Instant::now();
                    let s = SatSession::for_model(sig, model)
                        .map_err(|e| format!("SatSession::for_model: {e:?}"))?;
                    let secs = tb.elapsed().as_secs_f64();
                    (v.insert(s), true, secs)
                }
            };
            let tr = Instant::now();
            let r = session
                .run(&t.test)
                .map_err(|e| format!("{}: {e}", t.test.name))?;
            queries.push(Query {
                test: idx,
                model: m,
                built,
                build_secs,
                run_secs: tr.elapsed().as_secs_f64(),
                observable: r.observable,
                report: r.report,
                encoding: r.encoding,
            });
        }
    }
    Ok(queries)
}

fn per_layer(out: &mut Outcome, queries: &[Query], fe: FrontEnd) {
    let l = &mut out.layer;
    l.insert("litmus.parse_s", fe.parse);
    l.insert("litmus.canon_s", fe.canon);
    let sum = |f: &dyn Fn(&Query) -> f64| queries.iter().map(f).sum::<f64>();
    l.insert("solver.session_build_s", sum(&|q| q.build_secs));
    l.insert("litmus.run_s", sum(&|q| q.run_secs));
    let count = |f: &dyn Fn(&Query) -> u64| queries.iter().map(f).sum::<u64>() as f64;
    l.insert("litmus.sessions_built", count(&|q| q.built as u64));
    l.insert("litmus.value_bits", count(&|q| q.encoding.value_bits));
    l.insert("litmus.rf_vars", count(&|q| q.encoding.symbolic_rf_vars));
    l.insert("solver.circuit_gates", count(&|q| q.report.gates as u64));
    l.insert(
        "solver.tseitin_clauses",
        count(&|q| q.report.tseitin_clauses),
    );
    l.insert(
        "solver.gate_cache_hits",
        count(&|q| q.report.gate_cache_hits),
    );
    l.insert(
        "satsolver.conflicts",
        count(&|q| q.report.solver_stats.conflicts),
    );
    l.insert(
        "satsolver.propagations",
        count(&|q| q.report.solver_stats.propagations),
    );
    l.insert(
        "satsolver.decisions",
        count(&|q| q.report.solver_stats.decisions),
    );
    l.insert(
        "satsolver.learnt_literals",
        count(&|q| q.report.solver_stats.learnt_literals),
    );
    let solve = sum(&|q| q.report.solve_time.as_secs_f64());
    l.insert(
        "satsolver.props_per_s",
        count(&|q| q.report.solver_stats.propagations) / solve,
    );
}

/// The scratch path of one query per (model, signature) — the first,
/// the one that builds the session in a pass — timed layer by layer
/// through the public functions in pipeline order: litmus encoding
/// (`sat::scratch_problem_model`), relational translation
/// (`translate::translate`), Tseitin encoding (`CircuitEncoder::encode`)
/// and CDCL search (`Solver::solve`). Every scratch query pays the full
/// axiom translation, so one per session keeps this to about a pass's
/// length. Its verdicts are checked like the sessions' and count as
/// attempts.
fn scratch_split(out: &mut Outcome, tests: &[Test], oracle: &mut Oracle) -> Result<(), String> {
    let closure = Options::default().closure;
    let (mut encode, mut trans, mut tseitin, mut solve) = (0.0, 0.0, 0.0, 0.0);
    let mut seen = BTreeSet::new();
    for (idx, t) in tests.iter().enumerate() {
        for (m, &model) in MODELS.iter().enumerate() {
            if !seen.insert((model, sat::signature(&t.test.program))) {
                continue;
            }
            let t0 = Instant::now();
            let problem = sat::scratch_problem_model(&t.test, model);
            let t1 = Instant::now();
            let tr =
                translate::translate(&problem.schema, &problem.bounds, &problem.formula, closure)
                    .map_err(|e| format!("translate {}: {e:?}", t.test.name))?;
            let t2 = Instant::now();
            let mut solver = Solver::new();
            let root = CircuitEncoder::new().encode(&tr.circuit, tr.root, &mut solver);
            solver.add_clause(&[root]);
            let t3 = Instant::now();
            let result = solver.solve();
            let t4 = Instant::now();
            encode += (t1 - t0).as_secs_f64();
            trans += (t2 - t1).as_secs_f64();
            tseitin += (t3 - t2).as_secs_f64();
            solve += (t4 - t3).as_secs_f64();
            out.attempted += 1;
            let observable = match result {
                SolveResult::Sat => true,
                SolveResult::Unsat => false,
                SolveResult::Unknown(_) => {
                    out.unknown += 1;
                    continue;
                }
            };
            if observable != oracle.observable(idx, t, m) {
                out.wrong += 1;
                eprintln!(
                    "litmus probe: scratch {} under {model} disagrees",
                    t.test.name
                );
            }
        }
    }
    let l = &mut out.layer;
    l.insert("litmus.encode_s", encode);
    l.insert("solver.translate_s", trans);
    l.insert("solver.encode_s", tseitin);
    l.insert("satsolver.solve_s", solve);
    Ok(())
}
