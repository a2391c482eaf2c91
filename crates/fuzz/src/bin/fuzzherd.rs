//! `fuzzherd` — the cross-layer differential fuzzing driver.
//!
//! ```text
//! fuzzherd --rounds 200 --seed 7
//! fuzzherd --rounds 50 --seed 7 --jobs 4 --timeout-secs 60 --json
//! ```
//!
//! Each round derives a deterministic seed per generator
//! ([`fuzzkit::round_seed`]) and runs one case from each of the five
//! generators — random CNF against a DPLL oracle, random relational
//! formulas against ground enumeration, random litmus programs against
//! execution enumeration, random barrier/data-dependency programs
//! against the symbolic value encoding, and random litmus programs
//! answered under both PTX consistency models (axiomatic vs the
//! cumulative draft) — as jobs on the workspace's worker-pool harness
//! ([`modelfinder::harness`]). The last three are the profiles of
//! [`fuzzkit::litmusgen`]. Litmus and barrier rounds share incremental
//! SAT sessions (with their proof checkers) through a
//! [`modelfinder::SessionPool`], exactly like `ptxherd --sat`; model
//! rounds share a second pool, so they never reuse sessions the other
//! rounds warmed. Cross-model verdict divergence in a model round is
//! not a failure — it is counted under `gen.model.fuzz.model_diffs`.
//!
//! Every `Unsat` any engine produces is certified against the
//! independent DRAT checker. On disagreement the round's seed and a
//! shrunk minimal case are printed and the exit code is nonzero;
//! timeouts degrade to `Unknown` records, never hangs.
//!
//! `--stats` prints an observability table after the run — totals plus
//! per-generator counters under `gen.{cnf,relform,litmus,barrier,model}.`;
//! `--stats-json PATH` writes the snapshot as JSON Lines in the shared
//! `obs` schema. `--trace-out PATH` writes the run's event timeline as
//! Chrome trace-event JSON (per-round `query:*` spans, worker-tagged),
//! loadable in Perfetto.

use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use fuzzkit::litmusgen::{self, Pool, Profile};
use fuzzkit::{cnf, relform, round_seed, Disagreement, RoundStats};
use modelfinder::harness::{run_queries, HarnessOptions, Query, QueryOutput};

struct Cli {
    rounds: u64,
    seed: u64,
    jobs: usize,
    timeout_secs: Option<u64>,
    json: bool,
    stats: bool,
    stats_json: Option<String>,
    trace_out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        rounds: 100,
        seed: 7,
        jobs: 1,
        timeout_secs: None,
        json: false,
        stats: false,
        stats_json: None,
        trace_out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--stats" => cli.stats = true,
            "--stats-json" => {
                let v = it.next().ok_or("--stats-json needs a path")?;
                cli.stats_json = Some(v.clone());
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a path")?;
                cli.trace_out = Some(v.clone());
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a value")?;
                cli.rounds = v.parse().map_err(|_| format!("bad --rounds value `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                cli.seed = parse_seed(v)?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.jobs = v.parse().map_err(|_| format!("bad --jobs value `{v}`"))?;
                if cli.jobs == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
            }
            "--timeout-secs" => {
                let v = it.next().ok_or("--timeout-secs needs a value")?;
                cli.timeout_secs = Some(
                    v.parse()
                        .map_err(|_| format!("bad --timeout-secs value `{v}`"))?,
                );
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

fn parse_seed(v: &str) -> Result<u64, String> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| format!("bad --seed value `{v}`"))
}

fn output(
    result: Result<RoundStats, Disagreement>,
    failures: &Mutex<Vec<Disagreement>>,
    obs: &modelfinder::obs::Registry,
) -> QueryOutput {
    obs.add("fuzz.rounds", 1);
    match result {
        Ok(stats) => {
            obs.add("fuzz.sat_vars", stats.sat_vars);
            obs.add("fuzz.sat_clauses", stats.sat_clauses);
            obs.add("fuzz.conflicts", stats.conflicts);
            QueryOutput {
                verdict: "Ok".to_string(),
                sat_vars: stats.sat_vars,
                sat_clauses: stats.sat_clauses,
                conflicts: stats.conflicts,
                path: None,
                detail: None,
            }
        }
        Err(d) => {
            obs.add("fuzz.disagreements", 1);
            let detail = format!("{}: {} (seed {:#018x})", d.generator, d.what, d.seed);
            failures.lock().unwrap().push(d);
            QueryOutput {
                verdict: "Disagree".to_string(),
                detail: Some(detail),
                ..QueryOutput::default()
            }
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fuzzherd: {e}");
            eprintln!(
                "usage: fuzzherd [--rounds N] [--seed S] [--jobs N] [--timeout-secs S] \
                 [--json] [--stats] [--stats-json PATH] [--trace-out PATH]"
            );
            return ExitCode::FAILURE;
        }
    };

    let pool = Arc::new(Pool::new());
    let model_pool = Arc::new(Pool::new());
    let failures: Arc<Mutex<Vec<Disagreement>>> = Arc::new(Mutex::new(Vec::new()));
    let mut queries = Vec::new();
    for round in 0..cli.rounds {
        let f = Arc::clone(&failures);
        let seed = round_seed(cli.seed, "cnf", round);
        queries.push(Query::new(format!("cnf/{round}"), move |ctx| {
            output(cnf::run_round(seed), &f, &ctx.obs)
        }));
        let f = Arc::clone(&failures);
        let seed = round_seed(cli.seed, "relform", round);
        queries.push(Query::new(format!("relform/{round}"), move |ctx| {
            output(relform::run_round(seed), &f, &ctx.obs)
        }));
        for profile in Profile::ALL {
            let f = Arc::clone(&failures);
            let (p, name) = match profile {
                Profile::Plain => (Arc::clone(&pool), "litmus"),
                Profile::Barrier => (Arc::clone(&pool), "barrier"),
                Profile::CrossModel => (Arc::clone(&model_pool), "model"),
            };
            let seed = round_seed(cli.seed, profile.tag(), round);
            queries.push(Query::new(format!("{name}/{round}"), move |ctx| {
                let result = litmusgen::run_round(profile, seed, &p).map(|(stats, diverged)| {
                    if diverged {
                        ctx.obs.add("fuzz.model_diffs", 1);
                    }
                    stats
                });
                output(result, &f, &ctx.obs)
            }));
        }
    }

    let stats_wanted = cli.stats || cli.stats_json.is_some();
    let reg = if stats_wanted {
        modelfinder::obs::Registry::new()
    } else {
        modelfinder::obs::Registry::disabled()
    };
    let tracer = if cli.trace_out.is_some() {
        modelfinder::obs::trace::Tracer::for_export()
    } else {
        modelfinder::obs::trace::Tracer::flight_recorder()
    };
    let options = HarnessOptions {
        jobs: cli.jobs,
        timeout: cli.timeout_secs.map(Duration::from_secs),
        obs: reg.clone(),
        trace: tracer.clone(),
        ..HarnessOptions::default()
    };
    let json = cli.json;
    let records = run_queries(queries, &options, |rec| {
        let generator = rec.name.split('/').next().unwrap_or("unknown");
        reg.merge_prefixed(&rec.obs, &format!("gen.{generator}."));
        if json {
            println!("{}", rec.to_json());
        } else if rec.verdict != "Ok" {
            println!(
                "{:<16} {:<9} {:.3}s{}",
                rec.name,
                rec.verdict,
                rec.wall.as_secs_f64(),
                rec.detail
                    .as_deref()
                    .map(|d| format!("  {d}"))
                    .unwrap_or_default()
            );
        }
    });

    let timeouts = records.iter().filter(|r| r.timed_out).count();
    let failures = failures.lock().unwrap();
    let (created, reused) = pool.stats();
    let (m_created, m_reused) = model_pool.stats();
    if !json {
        println!(
            "fuzzherd: {} rounds x 5 generators, {} disagreements, {} timeouts \
             (litmus sessions: {} created, {} reused; model sessions: {} created, {} reused)",
            cli.rounds,
            failures.len(),
            timeouts,
            created,
            reused,
            m_created,
            m_reused
        );
    }
    if stats_wanted {
        let snap = reg.snapshot();
        if let Some(path) = &cli.stats_json {
            if let Err(e) = std::fs::write(path, snap.to_jsonl()) {
                eprintln!("fuzzherd: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if cli.stats {
            print!("{}", snap.render_table());
        }
    }
    if let Some(path) = &cli.trace_out {
        if let Err(e) = std::fs::write(path, tracer.snapshot().to_chrome_json()) {
            eprintln!("fuzzherd: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        for d in failures.iter() {
            eprintln!("{d}");
        }
        ExitCode::FAILURE
    }
}
