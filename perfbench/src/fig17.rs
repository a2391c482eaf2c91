//! `fig17-b3`: the six bound-3 Figure-17 mapping queries.
//!
//! {Scoped, Descoped} × {Coherence, Atomicity, SC}, answered in order on
//! one thread, through one fresh [`mapping::AxiomSession`] per mode and
//! pass. Every verdict must be UNSAT: the Figure-11 mapping is sound
//! within the bound. This is the CDCL-bound extreme of the benchmark;
//! the two Coherence queries take nearly all of the time. Bound 3 keeps
//! a pass near half a second, so a run repeats the table often enough
//! for each query's fastest time to be its own cost (bound 4 takes
//! 14–24 s a pass: a few per run, as noisy as the machine).

use std::hint::black_box;
use std::time::Instant;

use mapping::{AxiomSession, RecipeVariant, ScopeMode};
use modelfinder::{Options, Report, Verdict};

use crate::stats::{alternate_within, list, median, peak_rss_mb};
use crate::{Args, Kind, Outcome};

const BOUND: usize = 3;
const MODES: [ScopeMode; 2] = [ScopeMode::Scoped, ScopeMode::Descoped];
const AXIOMS: [&str; 3] = ["Coherence", "Atomicity", "SC"];

/// Timings of one set-up, both modes.
struct SetupTime {
    /// `mapping::build` on its own, outside the set-up the program pays.
    build: f64,
    /// `AxiomSession::new`, which builds the model itself: the set-up.
    session_build: f64,
}

struct Query {
    axiom: &'static str,
    /// First query on its session: it starts with no learnt clauses and
    /// no encoded goal gates to reuse.
    first: bool,
    secs: f64,
    verdict: Verdict,
    report: Report,
}

struct Pass {
    /// The set-up of this pass's sessions.
    setup: SetupTime,
    wall: f64,
    queries: Vec<Query>,
}

/// Opens both modes' sessions, and times the public model builder on
/// its own so its share of the set-up is visible.
fn setup() -> Result<(Vec<AxiomSession>, SetupTime), String> {
    let mut time = SetupTime {
        build: 0.0,
        session_build: 0.0,
    };
    let mut sessions = Vec::new();
    for mode in MODES {
        let t = Instant::now();
        black_box(mapping::build(BOUND, mode, RecipeVariant::Correct));
        time.build += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let session = AxiomSession::new(BOUND, mode, RecipeVariant::Correct, Options::check())
            .map_err(|e| format!("AxiomSession::new: {e:?}"))?;
        time.session_build += t.elapsed().as_secs_f64();
        sessions.push(session);
    }
    Ok((sessions, time))
}

/// One pass on fresh sessions: its own set-up, then the six queries.
fn pass() -> Result<Pass, String> {
    let (mut sessions, setup) = setup()?;
    let start = Instant::now();
    let mut queries = Vec::new();
    for session in sessions.iter_mut() {
        for (i, axiom) in AXIOMS.into_iter().enumerate() {
            let t = Instant::now();
            let row = session
                .verify(axiom)
                .map_err(|e| format!("verify {axiom}: {e:?}"))?;
            queries.push(Query {
                axiom,
                first: i == 0,
                secs: t.elapsed().as_secs_f64(),
                verdict: row.verdict,
                report: row.report,
            });
        }
    }
    Ok(Pass {
        setup,
        wall: start.elapsed().as_secs_f64(),
        queries,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (untraced, traced) = alternate_within(args.seconds, args.trace, |_| pass())?;
    let rss = peak_rss_mb("self").ok_or("cannot read VmHWM")?;

    let mut out = Outcome::default();
    let all: Vec<&Pass> = untraced.iter().chain(&traced).collect();
    for q in all.iter().flat_map(|p| &p.queries) {
        out.attempted += 1;
        match q.verdict {
            Verdict::Unsat => {}
            Verdict::Unknown => out.unknown += 1,
            Verdict::Sat(_) => {
                out.wrong += 1;
                eprintln!(
                    "fig17-b3: {} found a counterexample (expected UNSAT)",
                    q.axiom
                );
            }
        }
    }

    let measured = if args.trace { &traced } else { &untraced };
    let walls: Vec<f64> = measured.iter().map(|p| p.wall).collect();
    // Every pass asks the same six queries in the same order.
    let rows: Vec<Vec<f64>> = measured
        .iter()
        .map(|p| p.queries.iter().map(|q| q.secs * 1e3).collect())
        .collect();
    let kinds: Vec<Kind> = measured[0]
        .queries
        .iter()
        .map(|q| if q.first { Kind::Miss } else { Kind::Hit })
        .collect();
    let best = out.latencies(&rows, &kinds);
    let e = &mut out.e2e;
    e.insert(
        "setup_s",
        median(
            &all.iter()
                .map(|p| p.setup.session_build)
                .collect::<Vec<_>>(),
        ),
    );
    // The pass with every query at its fastest: a whole pass rarely
    // falls in one quiet stretch of the machine, a single query often.
    let wall = best.iter().sum::<f64>() / 1e3;
    e.insert("wall_s", wall);
    e.insert("max_rate_rps", best.len() as f64 / wall);
    e.insert("peak_rss_mb", rss);

    if args.trace {
        per_layer(&mut out, &all, &untraced, &traced);
    }
    out.notes.push(format!(
        "{} passes ({} untraced, {} traced), each on its own set-up; {} queries per pass; \
         hit = a later query on its session, miss = the first",
        all.len(),
        untraced.len(),
        traced.len(),
        MODES.len() * AXIOMS.len()
    ));
    out.notes.push(format!(
        "set-ups (s): {}",
        list(all.iter().map(|p| p.setup.session_build))
    ));
    out.notes
        .push(format!("pass walls (s): {}", list(walls.iter().copied())));
    let row: Vec<String> = measured[0]
        .queries
        .iter()
        .zip(&best)
        .map(|(q, b)| format!("{}={b:.1}ms/{}c", q.axiom, q.report.solver_stats.conflicts))
        .collect();
    out.notes
        .push(format!("fastest per query: {}", row.join(" ")));
    Ok(out)
}

/// Per-layer figures: medians over set-ups and traced passes; work
/// counts from the last traced pass (they repeat exactly).
fn per_layer(out: &mut Outcome, all: &[&Pass], untraced: &[Pass], traced: &[Pass]) {
    let l = &mut out.layer;
    l.insert(
        "mapping.build_s",
        median(&all.iter().map(|p| p.setup.build).collect::<Vec<_>>()),
    );
    l.insert(
        "solver.session_build_s",
        median(
            &all.iter()
                .map(|p| p.setup.session_build)
                .collect::<Vec<_>>(),
        ),
    );
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    for axiom in AXIOMS {
        let name = match axiom {
            "Coherence" => "verify_s.Coherence",
            "Atomicity" => "verify_s.Atomicity",
            _ => "verify_s.SC",
        };
        l.insert(
            name,
            per_pass(&|p| {
                p.queries
                    .iter()
                    .filter(|q| q.axiom == axiom)
                    .map(|q| q.secs)
                    .sum()
            }),
        );
    }
    let called = |p: &Pass| p.queries.iter().map(|q| q.secs).sum::<f64>();
    l.insert("unattributed_s", per_pass(&|p| p.wall - called(p)));
    let wall = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall).collect::<Vec<_>>());
    l.insert("trace.overhead_s", wall(traced) - wall(untraced));

    let last = traced.last().expect("at least one traced pass");
    let sum =
        |f: &dyn Fn(&Report) -> u64| last.queries.iter().map(|q| f(&q.report)).sum::<u64>() as f64;
    l.insert("solver.circuit_gates", sum(&|r| r.gates as u64));
    l.insert("solver.tseitin_clauses", sum(&|r| r.tseitin_clauses));
    l.insert("solver.gate_cache_hits", sum(&|r| r.gate_cache_hits));
    l.insert("satsolver.conflicts", sum(&|r| r.solver_stats.conflicts));
    l.insert(
        "satsolver.propagations",
        sum(&|r| r.solver_stats.propagations),
    );
    l.insert("satsolver.decisions", sum(&|r| r.solver_stats.decisions));
    l.insert(
        "satsolver.learnt_literals",
        sum(&|r| r.solver_stats.learnt_literals),
    );
    let solve: f64 = last
        .queries
        .iter()
        .map(|q| q.report.solve_time.as_secs_f64())
        .sum();
    l.insert(
        "satsolver.props_per_s",
        sum(&|r| r.solver_stats.propagations) / solve,
    );
    l.insert("satsolver.solve_s", solve);
}
