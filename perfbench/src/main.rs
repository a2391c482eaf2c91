//! `perfbench` — the repository benchmark: two workloads timed end to
//! end, and layer by layer from the outside.
//!
//! ```text
//! perfbench --workload fig17-b3|ptxd-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run it from the repository root (it reads `litmus/` and builds the
//! `ptxd` binary from the workspace there). With `--trace 0` the last
//! stdout line is a JSON object carrying every end-to-end metric; with
//! `--trace 1` it carries every per-layer metric instead. The lines
//! before it are a human-readable table. See `perfbench/README.md` for
//! what each metric measures and which layer should move it.
//!
//! Every per-layer number comes from outside the program: the benchmark
//! times the calls it makes into each crate's public functions and reads
//! the work counters those calls return. Nothing inside the program is
//! instrumented for the benchmark.

mod corpus;
mod fig17;
mod litmus_probe;
mod ptxd_mix;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// How long the measured part of the run lasts.
    pub seconds: f64,
    /// Whether to print the per-layer metrics instead of the end-to-end
    /// ones.
    pub trace: bool,
}

/// End-to-end metrics, printed with `--trace 0`, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("verdict_p50_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed in the `--trace 0` table but left out of the result line.
/// The tail latencies spread from run to run well beyond any bound a
/// gate could hold them to on a 2-vCPU VM; `max_rate_rps` is verdicts
/// (or sweep requests) over `wall_s`, which is gated already.
const UNGATED: &[(&str, &str)] = &[
    ("verdict_p99_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("max_rate_rps", "1/s"),
];

/// Per-layer metrics, printed with `--trace 1`, in output order. A
/// layer a workload leaves idle reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("mapping.build_s", "s"),
    ("solver.session_build_s", "s"),
    ("solver.circuit_gates", "count"),
    ("solver.tseitin_clauses", "count"),
    ("solver.gate_cache_hits", "count"),
    ("verify_s.Coherence", "s"),
    ("verify_s.Atomicity", "s"),
    ("verify_s.SC", "s"),
    ("satsolver.conflicts", "count"),
    ("satsolver.propagations", "count"),
    ("satsolver.decisions", "count"),
    ("satsolver.learnt_literals", "count"),
    ("satsolver.props_per_s", "1/s"),
    ("litmus.parse_s", "s"),
    ("litmus.canon_s", "s"),
    ("litmus.run_s", "s"),
    ("litmus.sessions_built", "count"),
    ("litmus.value_bits", "count"),
    ("litmus.rf_vars", "count"),
    ("litmus.encode_s", "s"),
    ("solver.translate_s", "s"),
    ("solver.encode_s", "s"),
    ("satsolver.solve_s", "s"),
    ("ptxd.ping_p50_ms", "ms"),
    ("ptxd.ping_p99_ms", "ms"),
    ("ptxd.queue_wait_p50_ms", "ms"),
    ("ptxd.queue_wait_p99_ms", "ms"),
    ("ptxd.solve_p50_ms", "ms"),
    ("ptxd.solve_p99_ms", "ms"),
    ("ptxd.hit_ratio", "ratio"),
    ("ptxd.shed", "count"),
    ("ptxd.sessions_created", "count"),
    ("ptxd.batched", "count"),
    ("ptxd.miss_time_share", "ratio"),
    ("ptxd.busy_frac", "ratio"),
    ("gen.late_p99_ms", "ms"),
    ("unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Verdicts (or requests) attempted.
    pub attempted: u64,
    /// Verdicts that disagree with the reference.
    pub wrong: u64,
    /// Verdicts that came back `Unknown`.
    pub unknown: u64,
    /// Requests refused by load shedding.
    pub shed: u64,
    /// Requests that failed any other way (error reply, lost reply).
    pub errors: u64,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (absent means the layer is idle).
    pub layer: BTreeMap<&'static str, f64>,
    /// Free-form lines printed above the result (sample counts, rates).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Everything that counts against `failed_frac`.
    pub fn failed(&self) -> u64 {
        self.wrong + self.unknown + self.shed + self.errors
    }

    /// Records the latencies of a run whose passes (or rounds) each ask
    /// the same queries in the same order: `rows[p][i]` is query `i`'s
    /// time in pass `p`, in milliseconds, and `kinds[i]` its kind. The
    /// p50s are over each query's fastest time, the p99s over every
    /// sample. Returns each query's fastest time.
    pub fn latencies(&mut self, rows: &[Vec<f64>], kinds: &[Kind]) -> Vec<f64> {
        let best = stats::best_per_column(rows);
        let all = rows.concat();
        let mut record = |keep: fn(Kind) -> bool, p50: &'static str, p99: &'static str| {
            self.e2e
                .insert(p50, stats::median(&of_kind(&best, kinds, keep)));
            self.e2e
                .insert(p99, stats::quantile(&of_kind(&all, kinds, keep), 0.99));
        };
        record(|k| k != Kind::Lost, "verdict_p50_ms", "verdict_p99_ms");
        record(|k| k == Kind::Hit, "hit_p50_ms", "hit_p99_ms");
        record(|k| k == Kind::Miss, "miss_p50_ms", "miss_p99_ms");
        best
    }
}

/// The values of `v` (one pass, or passes back to back) whose query's
/// kind `keep` accepts.
pub fn of_kind(v: &[f64], kinds: &[Kind], keep: fn(Kind) -> bool) -> Vec<f64> {
    v.iter()
        .zip(kinds.iter().cycle())
        .filter(|(_, &k)| keep(k))
        .map(|(x, _)| *x)
        .collect()
}

/// How a query counts in the latencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Answered from state an earlier query built.
    Hit,
    /// Had to build that state.
    Miss,
    /// No verdict came back; counts in none of the latencies.
    Lost,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse().map_err(|_| format!("bad --seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds `{v}`"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got `{v}`"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["fig17-b3", "ptxd-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders the result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`, each metric as `{"value": v, "unit": u}`.
fn result_json(outcome: &Outcome, spec: &[(&str, &str)], values: &BTreeMap<&str, f64>) -> String {
    let mut out = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed()
    );
    for (i, (name, unit)) in spec.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(values[name])
        );
    }
    out.push_str("}}");
    out
}

/// A finite JSON number with all its digits (non-finite values, which
/// JSON cannot carry, read as 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload fig17-b3|ptxd-mix \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::FAILURE;
        }
    };
    // Inputs live in the repository the benchmark is run from; refuse
    // early, before any work, when they are not there.
    if !std::path::Path::new(corpus::EXPECTED_PATH).is_file() {
        eprintln!(
            "perfbench: {} not found; run from the repository root",
            corpus::EXPECTED_PATH
        );
        return ExitCode::FAILURE;
    }
    // Whichever workload runs first in a checkout builds the server, so
    // no later run pays a build.
    let ptxd = match ptxd_mix::build_ptxd() {
        Ok(path) => path,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.workload.as_str() {
        "fig17-b3" => fig17::run(&args),
        _ => ptxd_mix::run(&args, &ptxd),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };

    let (spec, values) = if args.trace {
        let mut values: BTreeMap<&str, f64> = PER_LAYER.iter().map(|(n, _)| (*n, 0.0)).collect();
        values.extend(outcome.layer.iter().map(|(k, v)| (*k, *v)));
        (PER_LAYER, values)
    } else {
        let values: BTreeMap<&str, f64> = outcome.e2e.iter().map(|(k, v)| (*k, *v)).collect();
        (END_TO_END, values)
    };
    if let Some((missing, _)) = spec.iter().find(|(n, _)| !values.contains_key(n)) {
        eprintln!(
            "perfbench: {}: metric `{missing}` was not measured",
            args.workload
        );
        return ExitCode::FAILURE;
    }

    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    println!(
        "# attempted {} wrong {} unknown {} shed {} errors {} failed_frac {:.6} (fraction)",
        outcome.attempted,
        outcome.wrong,
        outcome.unknown,
        outcome.shed,
        outcome.errors,
        outcome.failed() as f64 / outcome.attempted.max(1) as f64
    );
    for (name, unit) in spec {
        let idle = args.trace && !outcome.layer.contains_key(name);
        println!(
            "{name:<28} {:>16.6} {unit}{}",
            values[name],
            if idle { "  (idle)" } else { "" }
        );
    }
    if !args.trace {
        for (name, unit) in UNGATED {
            let v = outcome.e2e.get(name).copied().unwrap_or(f64::NAN);
            println!("{name:<28} {v:>16.6} {unit}  (not in the result line)");
        }
    }
    println!("{}", result_json(&outcome, spec, &values));
    if outcome.wrong == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
