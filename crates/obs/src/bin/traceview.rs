//! `traceview` — offline summarizer for Chrome trace-event JSON files
//! written by `--trace-out` (ptxherd, fig17_table, fuzzherd).
//!
//! ```text
//! traceview trace.json           # top spans by self-time + per-query phases
//! traceview --top N trace.json   # show N rows per table
//! traceview --diff a.json b.json # self-time regression diff
//! ```
//!
//! The summary has two tables: **top spans by self-time** (time inside a
//! span minus time in its nested child spans, aggregated by span name
//! across all threads), and **per-query phase attribution** (for every
//! `query:<name>` span, how its wall time splits into translate / encode
//! / solve / other). `--diff` compares the per-name self-times of two
//! traces — the regression-hunting mode: capture a trace before and
//! after a change and see which phase moved.
//!
//! Files are read with the workspace's JSON parser ([`obs::json::parse`]),
//! so any standard trace-event array loads; a malformed file is an error
//! and a nonzero exit, which is what the CI smoke check relies on.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::io;
use std::process::ExitCode;

use obs::json::Value;

/// One span/instant/counter event lifted out of the parsed array.
struct Event {
    ph: char,
    tid: u64,
    ts_us: f64,
    name: String,
}

/// Per-name aggregates from one trace file.
#[derive(Default)]
struct Summary {
    /// name -> (count, total µs, self µs).
    spans: BTreeMap<String, (u64, f64, f64)>,
    /// query name -> phase -> self µs (phases: translate/encode/solve/other).
    queries: BTreeMap<String, BTreeMap<String, f64>>,
    instants: BTreeMap<String, u64>,
    counters: BTreeMap<String, f64>,
    unbalanced: u64,
}

/// Loads a trace file: parse, validate shape, lift events.
fn load(path: &str) -> Result<Vec<Event>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = obs::json::parse(&text).ok_or_else(|| format!("{path}: malformed JSON"))?;
    let Value::Arr(items) = doc else {
        return Err(format!("{path}: expected a top-level trace-event array"));
    };
    let mut events = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let ph = item
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i}: missing \"ph\""))?;
        let name = item
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}: event {i}: missing \"name\""))?;
        let ph = ph.chars().next().unwrap_or('?');
        if ph == 'M' {
            continue; // metadata (thread names)
        }
        let tid = item.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
        let ts_us = item
            .get("ts")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{path}: event {i}: missing \"ts\""))?;
        events.push(Event {
            ph,
            tid,
            ts_us,
            name: name.to_string(),
        });
    }
    Ok(events)
}

/// Aggregates events into per-span self-times and per-query phases.
///
/// Self-time is a span's wall time minus the wall time of spans nested
/// inside it on the same thread. Each closed span is also attributed to
/// the innermost enclosing `query:<name>` span, bucketed as its phase
/// (`translate`/`encode`/`solve`, anything else as `other`); the query
/// span's own self-time lands in `other`.
fn summarize(events: &[Event]) -> Summary {
    let mut summary = Summary::default();
    // Per-thread stack of open spans: (name, start ts, child time).
    let mut stacks: BTreeMap<u64, Vec<(String, f64, f64)>> = BTreeMap::new();
    for e in events {
        match e.ph {
            'B' => stacks
                .entry(e.tid)
                .or_default()
                .push((e.name.clone(), e.ts_us, 0.0)),
            'E' => {
                let stack = stacks.entry(e.tid).or_default();
                // Tolerate truncated traces (ring wraparound drops old
                // events, so an E may arrive with no matching B).
                let Some(top) = stack.last() else {
                    summary.unbalanced += 1;
                    continue;
                };
                if top.0 != e.name {
                    summary.unbalanced += 1;
                    continue;
                }
                let (name, start, child_time) = stack.pop().unwrap();
                let total = (e.ts_us - start).max(0.0);
                let self_time = (total - child_time).max(0.0);
                if let Some(parent) = stack.last_mut() {
                    parent.2 += total;
                }
                let entry = summary.spans.entry(name.clone()).or_insert((0, 0.0, 0.0));
                entry.0 += 1;
                entry.1 += total;
                entry.2 += self_time;
                // Attribute to the innermost enclosing query span.
                let query = if name.starts_with("query:") {
                    Some(name.trim_start_matches("query:").to_string())
                } else {
                    stack
                        .iter()
                        .rev()
                        .find(|(n, _, _)| n.starts_with("query:"))
                        .map(|(n, _, _)| n.trim_start_matches("query:").to_string())
                };
                if let Some(q) = query {
                    let phase = match name.as_str() {
                        "translate" | "encode" | "solve" => name.as_str(),
                        _ => "other",
                    };
                    *summary
                        .queries
                        .entry(q)
                        .or_default()
                        .entry(phase.to_string())
                        .or_insert(0.0) += self_time;
                }
            }
            'i' => *summary.instants.entry(e.name.clone()).or_insert(0) += 1,
            'C' => {
                // Keep the latest sample per counter name.
                summary.counters.insert(e.name.clone(), e.ts_us);
            }
            _ => {}
        }
    }
    // Spans still open at snapshot time (e.g. a hung worker) count as
    // unbalanced too.
    summary.unbalanced += stacks.values().map(|s| s.len() as u64).sum::<u64>();
    summary
}

fn render_summary(out: &mut String, summary: &Summary, top: usize) {
    let _ = writeln!(out, "top spans by self-time:");
    let _ = writeln!(
        out,
        "  {:<28} {:>8} {:>14} {:>14}",
        "span", "count", "total", "self"
    );
    let mut rows: Vec<(&String, &(u64, f64, f64))> = summary.spans.iter().collect();
    rows.sort_by(|a, b| {
        b.1 .2
            .partial_cmp(&a.1 .2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, (count, total, self_time)) in rows.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<28} {:>8} {:>13.3}ms {:>13.3}ms",
            name,
            count,
            total / 1000.0,
            self_time / 1000.0
        );
    }
    if !summary.queries.is_empty() {
        let _ = writeln!(out, "\nper-query phase attribution (self-time ms):");
        let _ = writeln!(
            out,
            "  {:<28} {:>10} {:>10} {:>10} {:>10}",
            "query", "translate", "encode", "solve", "other"
        );
        let mut rows: Vec<(&String, f64, &BTreeMap<String, f64>)> = summary
            .queries
            .iter()
            .map(|(q, phases)| (q, phases.values().sum::<f64>(), phases))
            .collect();
        rows.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        for (query, _, phases) in rows.iter().take(top) {
            let f = |k: &str| phases.get(k).copied().unwrap_or(0.0) / 1000.0;
            let _ = writeln!(
                out,
                "  {:<28} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
                query,
                f("translate"),
                f("encode"),
                f("solve"),
                f("other")
            );
        }
    }
    if !summary.instants.is_empty() {
        let _ = writeln!(out, "\ninstant events:");
        for (name, count) in &summary.instants {
            let _ = writeln!(out, "  {name:<28} x{count}");
        }
    }
    if summary.unbalanced > 0 {
        let _ = writeln!(
            out,
            "\nnote: {} unbalanced span event(s) — ring wraparound or spans \
             still open at snapshot time",
            summary.unbalanced
        );
    }
}

/// Renders the self-time differences between two traces, largest first.
fn render_diff(out: &mut String, a: &Summary, b: &Summary, top: usize) {
    let names: std::collections::BTreeSet<&String> = a.spans.keys().chain(b.spans.keys()).collect();
    let _ = writeln!(
        out,
        "  {:<28} {:>14} {:>14} {:>12}",
        "span (self-time)", "baseline", "candidate", "delta"
    );
    let mut rows: Vec<(&String, f64, f64)> = names
        .into_iter()
        .map(|n| {
            let sa = a.spans.get(n).map_or(0.0, |v| v.2);
            let sb = b.spans.get(n).map_or(0.0, |v| v.2);
            (n, sa, sb)
        })
        .collect();
    rows.sort_by(|x, y| {
        (y.2 - y.1)
            .abs()
            .partial_cmp(&(x.2 - x.1).abs())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for (name, sa, sb) in rows.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<28} {:>13.3}ms {:>13.3}ms {:>+11.3}ms",
            name,
            sa / 1000.0,
            sb / 1000.0,
            (sb - sa) / 1000.0
        );
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: traceview [--top N] <trace.json> | traceview --diff <a.json> <b.json>");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut top = 20usize;
    let mut diff = false;
    let mut files: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => diff = true,
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => top = n,
                _ => return usage(),
            },
            other if other.starts_with("--") => return usage(),
            path => files.push(path.to_string()),
        }
    }
    let expected = if diff { 2 } else { 1 };
    if files.len() != expected {
        return usage();
    }
    let summaries: Vec<Summary> = {
        let mut out = Vec::new();
        for path in &files {
            match load(path) {
                Ok(events) => out.push(summarize(&events)),
                Err(e) => {
                    eprintln!("traceview: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        out
    };
    let mut report = String::new();
    if diff {
        render_diff(&mut report, &summaries[0], &summaries[1], top);
    } else {
        render_summary(&mut report, &summaries[0], top);
    }
    // One buffered write; a closed pipe (`traceview ... | head`) is not
    // an error worth a nonzero exit once the summary is computed.
    let _ = io::Write::write_all(&mut io::stdout(), report.as_bytes());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let events = vec![
            Event {
                ph: 'B',
                tid: 0,
                ts_us: 0.0,
                name: "query:MP".into(),
            },
            Event {
                ph: 'B',
                tid: 0,
                ts_us: 10.0,
                name: "solve".into(),
            },
            Event {
                ph: 'E',
                tid: 0,
                ts_us: 110.0,
                name: "solve".into(),
            },
            Event {
                ph: 'E',
                tid: 0,
                ts_us: 120.0,
                name: "query:MP".into(),
            },
        ];
        let s = summarize(&events);
        assert_eq!(s.spans["solve"], (1, 100.0, 100.0));
        let q = &s.spans["query:MP"];
        assert_eq!((q.0, q.1, q.2), (1, 120.0, 20.0));
        assert_eq!(s.queries["MP"]["solve"], 100.0);
        assert_eq!(s.queries["MP"]["other"], 20.0);
        assert_eq!(s.unbalanced, 0);
    }

    #[test]
    fn unbalanced_events_are_counted_not_fatal() {
        let events = vec![
            Event {
                ph: 'E',
                tid: 0,
                ts_us: 5.0,
                name: "solve".into(),
            },
            Event {
                ph: 'B',
                tid: 0,
                ts_us: 10.0,
                name: "encode".into(),
            },
        ];
        let s = summarize(&events);
        assert_eq!(s.unbalanced, 2);
        assert!(s.spans.is_empty());
    }

    #[test]
    fn threads_do_not_interleave_stacks() {
        let events = vec![
            Event {
                ph: 'B',
                tid: 0,
                ts_us: 0.0,
                name: "solve".into(),
            },
            Event {
                ph: 'B',
                tid: 1,
                ts_us: 1.0,
                name: "solve".into(),
            },
            Event {
                ph: 'E',
                tid: 0,
                ts_us: 10.0,
                name: "solve".into(),
            },
            Event {
                ph: 'E',
                tid: 1,
                ts_us: 21.0,
                name: "solve".into(),
            },
        ];
        let s = summarize(&events);
        assert_eq!(s.spans["solve"].0, 2);
        assert_eq!(s.spans["solve"].1, 30.0);
        assert_eq!(s.unbalanced, 0);
    }
}
