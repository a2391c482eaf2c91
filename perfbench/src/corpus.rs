//! Benchmark inputs: the checked-in PTX corpus with its pinned verdicts,
//! seeded `litmusgen` draws, and the references every verdict is
//! checked against.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use litmus::{Model, PtxLitmus, Signature};
use testkit::Rng;

/// The golden verdict file, relative to the repository root.
pub const EXPECTED_PATH: &str = "litmus/EXPECTED.txt";
/// Both PTX models; every test is asked under each.
pub const MODELS: [Model; 2] = ptx::cumulative::ALL_MODELS;

/// One benchmark test and, when the repository pins it, its verdict
/// under each of [`MODELS`].
#[derive(Debug, Clone)]
pub struct Test {
    /// The parsed test.
    pub test: PtxLitmus,
    /// `EXPECTED.txt` verdicts (observable?) per model, for files.
    pub pinned: Option<[bool; 2]>,
}

/// Time spent in the litmus front end while loading.
#[derive(Debug, Default, Clone, Copy)]
pub struct FrontEnd {
    /// Inside `parse_ptx_litmus`.
    pub parse: f64,
    /// Inside `canonical_ptx_text`.
    pub canon: f64,
}

/// The checked-in corpus: every PTX row of `EXPECTED.txt` (the files
/// under `litmus/` and `litmus/synth/`) with its pinned verdicts, then
/// `litmus::library::extended_suite` (references from enumeration).
pub fn checked_in(fe: &mut FrontEnd) -> Result<Vec<Test>, String> {
    let golden =
        std::fs::read_to_string(EXPECTED_PATH).map_err(|e| format!("read {EXPECTED_PATH}: {e}"))?;
    let mut out = Vec::new();
    for line in golden.lines().filter(|l| !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let column = |key: &str| fields.iter().find_map(|f| f.strip_prefix(key));
        let (Some(ax), Some(cum)) = (column("ptx="), column("ptx-cumulative=")) else {
            continue; // a scoped C++ row
        };
        let word = |w: &str| match w {
            "observable" => Ok(true),
            "never" => Ok(false),
            other => Err(format!(
                "{EXPECTED_PATH}: bad verdict `{other}` in `{line}`"
            )),
        };
        let path = format!("litmus/{}", fields[0]);
        let source = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        let t = Instant::now();
        let test = litmus::parse_ptx_litmus(&source).map_err(|e| format!("{path}: {e}"))?;
        fe.parse += t.elapsed().as_secs_f64();
        out.push(Test {
            test,
            pinned: Some([word(ax)?, word(cum)?]),
        });
    }
    if out.is_empty() {
        return Err(format!("{EXPECTED_PATH} lists no PTX tests"));
    }
    out.extend(
        litmus::library::extended_suite()
            .into_iter()
            .map(|test| Test { test, pinned: None }),
    );
    Ok(out)
}

/// `n` distinct `fuzzkit::litmusgen` draws from `rng`, named
/// `gen-<i>`. Draws whose canonical text repeats an earlier one, or one
/// in `seen`, are skipped; kept draws are added to `seen`.
pub fn generated(
    rng: &mut Rng,
    n: usize,
    seen: &mut BTreeSet<String>,
    fe: &mut FrontEnd,
) -> Vec<PtxLitmus> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut test = fuzzkit::litmusgen::generate(rng).to_test();
        let t = Instant::now();
        let canon = litmus::canonical_ptx_text(&test);
        fe.canon += t.elapsed().as_secs_f64();
        if seen.insert(canon) {
            test.name = format!("gen-{}", out.len());
            out.push(test);
        }
    }
    out
}

/// Like [`generated`], but keeps only draws whose universe signature is
/// in `sigs`: the draws add tests to existing sessions, not sessions.
pub fn generated_on(
    rng: &mut Rng,
    n: usize,
    sigs: &BTreeSet<Signature>,
    seen: &mut BTreeSet<String>,
    fe: &mut FrontEnd,
) -> Vec<PtxLitmus> {
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let mut test = generated(rng, 1, seen, fe).pop().expect("one draw");
        if sigs.contains(&litmus::sat::signature(&test.program)) {
            test.name = format!("gen-{}", out.len());
            out.push(test);
        }
    }
    out
}

/// Reference verdicts, each computed at most once: the pinned column
/// when the repository has one, else the enumeration engine — never the
/// SAT path under test.
#[derive(Debug, Default)]
pub struct Oracle {
    memo: BTreeMap<(usize, usize), bool>,
}

impl Oracle {
    /// Whether test `idx`'s outcome is observable under `MODELS[model]`.
    pub fn observable(&mut self, idx: usize, t: &Test, model: usize) -> bool {
        *self
            .memo
            .entry((idx, model))
            .or_insert_with(|| match t.pinned {
                Some(p) => p[model],
                None => litmus::run_ptx_model(&t.test, MODELS[model]).observable,
            })
    }
}
