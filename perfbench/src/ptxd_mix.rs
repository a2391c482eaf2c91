//! `ptxd-mix`: the `ptxd` binary under a synthetic mix of traffic.
//!
//! The run is a series of rounds. Each round spawns a fresh server with
//! its default configuration on an ephemeral port, warms it (every pool
//! test once under each model), sends it the same traffic as every
//! other round, and stops it. One generator process talks to it over
//! [`CONNS`] connections and matches the out-of-order replies by `id`,
//! in two stretches:
//!
//! - an open loop at [`REFERENCE_RATE`]: requests are sent on a fixed
//!   schedule whatever the replies do, and latency runs from the
//!   scheduled send time, so a stall also charges the requests queued
//!   behind it. The `verdict_*`, `hit_*` and `miss_*` latencies come
//!   from here;
//! - a pipelined sweep of [`SWEEP_REQUESTS`] re-sends with [`WINDOW`]
//!   in flight per connection, as `ptxherd --server` sends a suite. Its
//!   wall is `wall_s`: how long the server takes to answer a sweep of
//!   cached tests at full load.
//!
//! Most requests re-send an already-answered test under a new name and
//! a new register numbering; the server's canonicalization maps it to
//! the cached verdict (a hit: read, parse, canonicalize, look up,
//! reply). The rest are fresh `litmusgen` draws whose signature has a
//! warm session (a miss: queue, solve, cache insert). A fresh server
//! has never seen them, so they are misses in every round. Each reply
//! is classed by its `cached` field, and checked against a reference
//! the server did not produce.
//!
//! Because every round sends the same requests, each request has one
//! latency per round; the gated latencies are medians of each
//! request's fastest round, and `wall_s` is the fastest sweep.
//!
//! No recorded traffic exists for `ptxd`, so the mix is synthetic. Its
//! numbers are chosen for properties the run measures and prints:
//! [`MISS_FRAC`] gives each round enough misses for a steady median
//! (they then take about two thirds of the server's busy time), and
//! [`REFERENCE_RATE`] keeps the workers mostly idle, so the latencies
//! measure service rather than queueing.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use litmus::{Cond, PtxLitmus, Reply, Signature};
use memmodel::Register;
use obs::json;
use obs::Snapshot;
use ptx::{Instruction, Operand};
use testkit::Rng;

use crate::corpus::{self, FrontEnd, Test, MODELS};
use crate::stats::{alternate_within, list, median, min, ms, peak_rss_mb, quantile};
use crate::{litmus_probe, of_kind, Args, Kind, Outcome};

/// Requests per second of the open loop, whose latencies are reported
/// as `verdict_*`, `hit_*` and `miss_*`.
const REFERENCE_RATE: f64 = 1000.0;
/// Requests of each round's open loop: 2 s at [`REFERENCE_RATE`].
const OPEN_REQUESTS: usize = 2000;
/// Share of requests that are fresh draws (misses).
const MISS_FRAC: f64 = 0.03;
/// Client connections: one per server worker, and at most `nproc` of
/// the reference machine.
const CONNS: usize = 2;
/// Worker threads in the server's default configuration.
const WORKERS: usize = 2;
/// `litmusgen` draws in the re-sent pool, besides the checked-in corpus.
const POOL_DRAWS: usize = 200;
/// Requests of each round's pipelined sweep.
const SWEEP_REQUESTS: usize = 4000;
/// In-flight requests per connection in the warm pass and the sweeps;
/// the server sheds beyond 64 per connection or 256 in all.
const WINDOW: usize = 16;
/// Closed-loop pings of the traced run (the transport floor).
const PING_PROBES: usize = 1000;
/// How close to a due time the sender stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(80);
/// How long a reader waits for the next reply before failing the run.
const DRAIN: Duration = Duration::from_secs(30);

/// One request line and when it is due, relative to its step's start.
#[derive(Clone)]
struct Req {
    id: u64,
    due: Duration,
    line: String,
}

/// What happened to one request.
#[derive(Default, Clone)]
struct Rec {
    /// When it was due, from its step's start.
    due: Duration,
    /// How late the generator sent it.
    late: Duration,
    /// From the scheduled send to the reply; `None` if none came.
    latency: Option<Duration>,
    reply: Option<Reply>,
}

impl Rec {
    /// A verdict came back.
    fn answered(&self) -> bool {
        self.reply
            .as_ref()
            .is_some_and(|x| x.ok && x.observable.is_some())
    }

    /// The verdict came from the server's cache.
    fn cached(&self) -> bool {
        self.reply.as_ref().is_some_and(|x| x.cached)
    }
}

/// What a request asks, to check its reply against the reference.
#[derive(Clone, Copy)]
enum Asked {
    /// Pool test `idx` under model `m`.
    Pool(usize, usize),
    /// Fresh draw `idx` under model `m`.
    Fresh(usize, usize),
}

/// One connected client. Replies are read by a thread of their own,
/// blocked in `read` until a line arrives, so a reply is stamped the
/// moment it is readable while the sender keeps the schedule.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // A server that stops answering fails the run instead of
        // hanging it.
        s.set_read_timeout(Some(DRAIN)).map_err(|e| e.to_string())?;
        let r = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            writer: s,
            reader: BufReader::new(r),
        })
    }

    fn send(writer: &mut TcpStream, line: &str) -> Result<(), String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        writer
            .write_all(framed.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    fn recv(reader: &mut BufReader<TcpStream>) -> Result<Reply, String> {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".to_string()),
            Ok(_) => Reply::from_json(line.trim_end())
                .ok_or_else(|| format!("unparseable reply: {}", line.trim_end())),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn round_trip(&mut self, line: &str) -> Result<Reply, String> {
        Conn::send(&mut self.writer, line)?;
        Conn::recv(&mut self.reader)
    }
}

/// Sends `reqs` round-robin over `conns`, each once it is due and
/// fewer than `window` are in flight on its connection, on this thread;
/// one reader thread per connection collects the replies by id. Returns
/// the records in request order.
fn drive_all(conns: &mut [Conn], reqs: Vec<Req>, window: usize) -> Result<Vec<Rec>, String> {
    let n = conns.len();
    let by_id: HashMap<u64, usize> = reqs.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
    let answered: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let (mut writers, readers): (Vec<_>, Vec<_>) = conns
            .iter_mut()
            .map(|c| (&mut c.writer, &mut c.reader))
            .unzip();
        let handles: Vec<_> = readers
            .into_iter()
            .enumerate()
            .map(|(c, reader)| {
                let expect = reqs.len() / n + usize::from(c < reqs.len() % n);
                let (by_id, answered) = (&by_id, &answered[c]);
                s.spawn(move || -> Result<Vec<(usize, Instant, Reply)>, String> {
                    let mut got = Vec::with_capacity(expect);
                    while got.len() < expect {
                        let reply = Conn::recv(reader)?;
                        let at = Instant::now();
                        let i = *reply
                            .id
                            .and_then(|id| by_id.get(&id))
                            .ok_or_else(|| format!("reply with unknown id {:?}", reply.id))?;
                        got.push((i, at, reply));
                        answered.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(got)
                })
            })
            .collect();
        let mut recs: Vec<Rec> = reqs
            .iter()
            .map(|r| Rec {
                due: r.due,
                ..Rec::default()
            })
            .collect();
        let mut sent = vec![0usize; n];
        let mut failed = None;
        for (i, r) in reqs.iter().enumerate() {
            let c = i % n;
            let due = t0 + r.due;
            while sent[c] - answered[c].load(Ordering::Relaxed) >= window {
                std::thread::sleep(Duration::from_micros(50));
            }
            // Sleep to just short of the due time, then spin: a plain
            // sleep overshoots by the kernel's timer slack, which would
            // show up in every latency.
            let now = Instant::now();
            if due > now + SPIN {
                std::thread::sleep(due - now - SPIN);
            }
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            let now = Instant::now();
            recs[i].late = now.saturating_duration_since(due);
            if let Err(e) = Conn::send(writers[c], &r.line) {
                failed = Some(e);
                break;
            }
            sent[c] += 1;
        }
        if let Some(e) = failed {
            // Unblock the readers before reporting.
            for w in writers {
                let _ = w.shutdown(std::net::Shutdown::Both);
            }
            for h in handles {
                let _ = h.join();
            }
            return Err(e);
        }
        for h in handles {
            let got = h
                .join()
                .unwrap_or_else(|_| Err("reader thread panicked".to_string()))?;
            for (i, at, reply) in got {
                recs[i].latency = Some(at.saturating_duration_since(t0 + recs[i].due));
                recs[i].reply = Some(reply);
            }
        }
        Ok(recs)
    })
}

/// A spawned `ptxd` child.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn spawn(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = match stderr.read_line(&mut line) {
            Ok(_) => line
                .trim()
                .strip_prefix("ptxd: listening on ")
                .map(str::to_string),
            Err(_) => None,
        };
        // The server says nothing more on stderr unless something goes
        // wrong; hand the pipe back so it is closed with the child.
        child.stderr = Some(stderr.into_inner());
        // Owned before the address is checked, so a child that never
        // reported one is still killed and reaped on drop.
        let mut server = Server {
            child,
            addr: String::new(),
        };
        server.addr = addr.ok_or_else(|| format!("ptxd did not report its address: {line}"))?;
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Graceful shutdown over the wire, then reap the child.
    fn stop(mut self) -> Result<(), String> {
        if let Ok(mut c) = Conn::open(&self.addr) {
            let _ = c.round_trip("{\"id\":0,\"op\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("ptxd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => return Err("ptxd did not shut down".to_string()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After `stop` the child is already reaped and this is a no-op.
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(mut e) = self.child.stderr.take() {
            let mut rest = String::new();
            let _ = e.read_to_string(&mut rest);
            if !rest.trim().is_empty() {
                eprint!("{rest}");
            }
        }
    }
}

/// Builds the `ptxd` binary from the workspace in the current directory
/// into this program's own target directory, and returns its path.
pub fn build_ptxd() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("no executable directory")?;
    let target = profile_dir.parent().ok_or("no target directory")?;
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args([
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "ptxmm-ptxd",
            "--bin",
            "ptxd",
        ])
        .arg("--target-dir")
        .arg(target)
        .stdin(Stdio::null())
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building ptxd failed: {status}"));
    }
    Ok(profile_dir.join("ptxd"))
}

/// The same test with every register shifted by `by` and a new name:
/// a different text the server's canonicalization maps back.
fn renamed(t: &PtxLitmus, by: u32, name: String) -> PtxLitmus {
    fn shift(r: &mut Register, by: u32) {
        r.0 += by;
    }
    fn shift_op(o: &mut Operand, by: u32) {
        if let Operand::Reg(r) = o {
            shift(r, by);
        }
    }
    fn shift_cond(c: &mut Cond, by: u32) {
        match c {
            Cond::RegEq(_, r, _) => shift(r, by),
            Cond::And(cs) | Cond::Or(cs) => cs.iter_mut().for_each(|c| shift_cond(c, by)),
            Cond::Not(c) => shift_cond(c, by),
            Cond::True | Cond::MemEq(..) => {}
        }
    }
    let mut out = t.clone();
    out.name = name;
    for i in out.program.threads.iter_mut().flatten() {
        match i {
            Instruction::Ld { dst, .. } => shift(dst, by),
            Instruction::St { src, .. } | Instruction::Red { src, .. } => shift_op(src, by),
            Instruction::Atom { dst, src, .. } => {
                shift(dst, by);
                shift_op(src, by);
            }
            Instruction::Fence { .. } | Instruction::Bar { .. } => {}
        }
    }
    shift_cond(&mut out.cond, by);
    out
}

/// Every input of a run, drawn from the seed, and the request streams
/// built from them.
struct Traffic {
    /// Tests answered in the warm pass and re-sent as hits.
    pool: Vec<Test>,
    /// Fresh draws, one per miss, in the order they were drawn.
    fresh: Vec<Test>,
    /// Signatures the warm pass opens a session for.
    warm: BTreeSet<Signature>,
    /// Canonical texts drawn so far; a fresh draw never repeats one.
    seen: BTreeSet<String>,
    fe: FrontEnd,
    next_id: u64,
    /// The draws' stream: the pool, then the fresh draws.
    draws: Rng,
    /// The schedule's own stream: which request is a miss, which pool
    /// test a hit re-sends, its register shift and its model.
    rng: Rng,
}

impl Traffic {
    fn new(seed: u64) -> Result<Traffic, String> {
        let mut fe = FrontEnd::default();
        let mut pool = corpus::checked_in(&mut fe)?;
        let canon = Instant::now();
        let mut seen: BTreeSet<String> = pool
            .iter()
            .map(|t| litmus::canonical_ptx_text(&t.test))
            .collect();
        fe.canon += canon.elapsed().as_secs_f64();
        let mut draws = Rng::seed(seed);
        let drawn = corpus::generated(&mut draws, POOL_DRAWS, &mut seen, &mut fe);
        pool.extend(drawn.into_iter().map(|test| Test { test, pinned: None }));
        let warm = pool
            .iter()
            .map(|t| litmus::sat::signature(&t.test.program))
            .collect();
        Ok(Traffic {
            pool,
            fresh: Vec::new(),
            warm,
            seen,
            fe,
            next_id: 1,
            draws,
            rng: Rng::seed(seed ^ 0x6d69_7800),
        })
    }

    /// The next fresh draw whose signature has a warm session, so a
    /// miss measures a warm solve and not a session build.
    fn fresh_draw(&mut self) -> usize {
        let drawn =
            corpus::generated_on(&mut self.draws, 1, &self.warm, &mut self.seen, &mut self.fe);
        let mut test = drawn.into_iter().next().expect("one draw");
        test.name = format!("fresh-{}", self.fresh.len());
        self.fresh.push(Test { test, pinned: None });
        self.fresh.len() - 1
    }

    fn request(&mut self, due: Duration, test: &PtxLitmus, model: usize) -> Req {
        let id = self.next_id;
        self.next_id += 1;
        let mut line = format!("{{\"id\":{id},\"op\":\"run\",\"source\":");
        json::escape_into(&mut line, &litmus::format_ptx_litmus(test));
        let model = MODELS[model].as_str();
        line.push_str(&format!(",\"mode\":\"sat\",\"model\":\"{model}\"}}"));
        Req { id, due, line }
    }

    /// The warm pass: every pool test once under each model, all due
    /// at once.
    fn warm(&mut self) -> (Vec<Req>, Vec<Asked>) {
        let mut reqs = Vec::new();
        let mut asked = Vec::new();
        for idx in 0..self.pool.len() {
            for m in 0..MODELS.len() {
                let test = self.pool[idx].test.clone();
                reqs.push(self.request(Duration::ZERO, &test, m));
                asked.push(Asked::Pool(idx, m));
            }
        }
        (reqs, asked)
    }

    /// `n` requests, request `k` due at `due(k)`: a `miss_frac` share
    /// of fresh draws, the rest renamed re-sends.
    fn mix(
        &mut self,
        n: usize,
        miss_frac: f64,
        due: impl Fn(usize) -> Duration,
    ) -> (Vec<Req>, Vec<Asked>) {
        let mut reqs = Vec::with_capacity(n);
        let mut asked = Vec::with_capacity(n);
        for k in 0..n {
            let m = self.rng.below(MODELS.len() as u64) as usize;
            let (test, a) = if self.rng.chance(miss_frac) {
                let i = self.fresh_draw();
                (self.fresh[i].test.clone(), Asked::Fresh(i, m))
            } else {
                let i = self.rng.below(self.pool.len() as u64) as usize;
                let by = 1 + self.rng.below(40) as u32;
                let name = format!("hit-{}", self.next_id);
                (renamed(&self.pool[i].test, by, name), Asked::Pool(i, m))
            };
            reqs.push(self.request(due(k), &test, m));
            asked.push(a);
        }
        (reqs, asked)
    }
}

/// One measured stretch of traffic: an open loop or a pipelined sweep.
struct Step {
    recs: Vec<Rec>,
    asked: Vec<Asked>,
    /// From the first due time to the last reply (summed over the
    /// segments of a joined open loop).
    wall: f64,
}

impl Step {
    fn drive(
        conns: &mut [Conn],
        (reqs, asked): (Vec<Req>, Vec<Asked>),
        window: usize,
    ) -> Result<Step, String> {
        let recs = drive_all(conns, reqs, window)?;
        let wall = recs
            .iter()
            .filter_map(|r| r.latency.map(|l| (r.due + l).as_secs_f64()))
            .fold(0.0, f64::max);
        Ok(Step { recs, asked, wall })
    }

    fn latencies_ms(&self, keep: impl Fn(&Rec) -> bool) -> Vec<f64> {
        self.recs
            .iter()
            .filter(|r| keep(r))
            .map(|r| r.latency.map_or(f64::INFINITY, ms))
            .collect()
    }

    /// Server-side time (`wall_secs`) of the replies `keep` selects.
    fn server_secs(&self, keep: impl Fn(&Rec) -> bool) -> f64 {
        self.recs
            .iter()
            .filter(|r| keep(r))
            .filter_map(|r| r.reply.as_ref())
            .map(|x| x.wall_secs)
            .sum()
    }
}

fn hit(r: &Rec) -> bool {
    r.answered() && r.cached()
}

fn miss(r: &Rec) -> bool {
    r.answered() && !r.cached()
}

const PING: &str = "{\"id\":0,\"op\":\"ping\"}";

/// Counters (stats v1, which carries the live pool counters) and the
/// full snapshot (stats v2, which carries the histograms).
fn telemetry(conn: &mut Conn) -> Result<(HashMap<String, u64>, Snapshot), String> {
    let v1 = conn.round_trip("{\"id\":0,\"op\":\"stats\"}")?;
    let v2 = conn.round_trip("{\"id\":0,\"op\":\"stats\",\"v\":2}")?;
    let snap = v2.snapshot.ok_or("stats v2 reply without a snapshot")?;
    Ok((v1.counters.into_iter().collect(), snap))
}

/// What a traced round adds: closed-loop pings before its traffic and
/// the server's telemetry on either side of it.
struct Telemetry {
    pings: Vec<f64>,
    before: (HashMap<String, u64>, Snapshot),
    after: (HashMap<String, u64>, Snapshot),
}

/// One round on a fresh server.
struct Round {
    /// Spawn, first `ping` reply and warm pass.
    setup: f64,
    /// The warm pass's replies, checked with the rest.
    warm: Vec<(Asked, Rec)>,
    open: Step,
    sweep: Step,
    /// The server's `VmHWM`, in MB, before it stopped.
    rss: f64,
    telemetry: Option<Telemetry>,
}

/// The requests every round sends, drawn once from the seed.
struct Schedule {
    warm: (Vec<Req>, Vec<Asked>),
    open: (Vec<Req>, Vec<Asked>),
    sweep: (Vec<Req>, Vec<Asked>),
}

fn round(bin: &Path, schedule: &Schedule, traced: bool) -> Result<Round, String> {
    let t = Instant::now();
    let server = Server::spawn(bin)?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::open(&server.addr))
        .collect::<Result<Vec<_>, _>>()?;
    if !conns[0].round_trip(PING)?.ok {
        return Err("ping refused".to_string());
    }
    let (reqs, asked) = schedule.warm.clone();
    let recs = drive_all(&mut conns, reqs, WINDOW)?;
    let setup = t.elapsed().as_secs_f64();
    let warm = asked.into_iter().zip(recs).collect();

    let mut pings = Vec::new();
    let mut before = None;
    if traced {
        for _ in 0..PING_PROBES {
            let t = Instant::now();
            if !conns[0].round_trip(PING)?.ok {
                return Err("ping refused".to_string());
            }
            pings.push(ms(t.elapsed()));
        }
        before = Some(telemetry(&mut conns[0])?);
    }
    let open = Step::drive(&mut conns, schedule.open.clone(), usize::MAX)?;
    let sweep = Step::drive(&mut conns, schedule.sweep.clone(), WINDOW)?;
    let telemetry = match before {
        Some(before) => Some(Telemetry {
            pings,
            before,
            after: telemetry(&mut conns[0])?,
        }),
        None => None,
    };
    let rss = peak_rss_mb(&server.pid()).ok_or("cannot read the server's VmHWM")?;
    drop(conns);
    server.stop()?;
    Ok(Round {
        setup,
        warm,
        open,
        sweep,
        rss,
        telemetry,
    })
}

/// The open loops of `rounds` back to back, as one step.
fn joined_open(rounds: &[Round]) -> Step {
    let mut open = Step {
        recs: Vec::new(),
        asked: Vec::new(),
        wall: 0.0,
    };
    for r in rounds {
        open.recs.extend(r.open.recs.iter().cloned());
        open.asked.extend(r.open.asked.iter().copied());
        open.wall += r.open.wall;
    }
    open
}

pub fn run(args: &Args, bin: &Path) -> Result<Outcome, String> {
    let mut traffic = Traffic::new(args.seed)?;
    let schedule = Schedule {
        warm: traffic.warm(),
        open: traffic.mix(OPEN_REQUESTS, MISS_FRAC, |k| {
            Duration::from_secs_f64(k as f64 / REFERENCE_RATE)
        }),
        // Re-sends only: the wall of a sweep is set by its slowest
        // reply, so a single costly fresh draw would decide it.
        sweep: traffic.mix(SWEEP_REQUESTS, 0.0, |_| Duration::ZERO),
    };
    let (untraced, traced) = alternate_within(args.seconds, args.trace, |traced| {
        round(bin, &schedule, traced)
    })?;

    let mut out = Outcome::default();
    let all: Vec<&Round> = untraced.iter().chain(&traced).collect();
    let replies = all.iter().flat_map(|r| {
        let steps = [&r.open, &r.sweep];
        let traffic = steps
            .into_iter()
            .flat_map(|s| s.asked.iter().copied().zip(s.recs.iter().cloned()));
        r.warm.iter().cloned().chain(traffic)
    });
    check(&mut out, &traffic, replies);

    let measured = if args.trace { &traced } else { &untraced };
    // Every round sends the same open loop, so request `i` has one
    // latency per round; a lost reply reads as infinitely late.
    let rows: Vec<Vec<f64>> = measured
        .iter()
        .map(|r| r.open.latencies_ms(|_| true))
        .collect();
    let kinds: Vec<Kind> = measured[0]
        .open
        .recs
        .iter()
        .map(|r| match (hit(r), miss(r)) {
            (true, _) => Kind::Hit,
            (_, true) => Kind::Miss,
            _ => Kind::Lost,
        })
        .collect();
    let best = out.latencies(&rows, &kinds);
    let sweep_walls: Vec<f64> = measured.iter().map(|r| r.sweep.wall).collect();
    let setups: Vec<f64> = all.iter().map(|r| r.setup).collect();
    let e = &mut out.e2e;
    e.insert("setup_s", median(&setups));
    e.insert("wall_s", min(&sweep_walls));
    e.insert("max_rate_rps", SWEEP_REQUESTS as f64 / min(&sweep_walls));
    e.insert(
        "peak_rss_mb",
        median(&all.iter().map(|r| r.rss).collect::<Vec<_>>()),
    );

    let open = joined_open(measured);
    let late: Vec<f64> = open.recs.iter().map(|r| ms(r.late)).collect();
    out.notes.push(format!(
        "pool {} tests over {} signatures; {} fresh draws; {} rounds ({} untraced, {} traced), \
         each on a fresh server; set-ups (s): {}",
        traffic.pool.len(),
        traffic.warm.len(),
        traffic.fresh.len(),
        all.len(),
        untraced.len(),
        traced.len(),
        list(setups.iter().copied())
    ));
    out.notes.push(format!(
        "open loop {REFERENCE_RATE}/s: {OPEN_REQUESTS} requests a round, {} hit / {} miss; \
         late p99 {:.3} ms; misses {:.0}% of server time; server busy {:.0}% of {WORKERS} workers",
        of_kind(&best, &kinds, |k| k == Kind::Hit).len(),
        of_kind(&best, &kinds, |k| k == Kind::Miss).len(),
        quantile(&late, 0.99),
        100.0 * miss_time_share(&open),
        100.0 * busy_frac(&open)
    ));
    out.notes.push(format!(
        "sweeps of {SWEEP_REQUESTS} requests, {WINDOW} in flight per connection; walls (s): {}",
        list(sweep_walls.iter().copied())
    ));
    if args.trace {
        per_layer(&mut out, &traced, &untraced);
        // The litmus layer the server runs, timed in this process over
        // the same pool, after the rounds.
        litmus_probe::probe(&mut out, &traffic.pool, traffic.fe)?;
    }
    Ok(out)
}

/// Share of the server's time spent on misses, from its own
/// `wall_secs`: the property [`MISS_FRAC`] is chosen to hit.
fn miss_time_share(s: &Step) -> f64 {
    s.server_secs(miss) / s.server_secs(Rec::answered).max(f64::MIN_POSITIVE)
}

/// How busy the server's workers were over a step: the property
/// [`REFERENCE_RATE`] is chosen for.
fn busy_frac(s: &Step) -> f64 {
    s.server_secs(Rec::answered) / (s.wall * WORKERS as f64).max(f64::MIN_POSITIVE)
}

/// Checks every reply against its reference, outside the timed region.
fn check(out: &mut Outcome, traffic: &Traffic, replies: impl Iterator<Item = (Asked, Rec)>) {
    let mut pool_oracle = corpus::Oracle::default();
    let mut fresh_oracle = corpus::Oracle::default();
    for (asked, rec) in replies {
        out.attempted += 1;
        let Some(reply) = rec.reply else {
            out.errors += 1;
            continue;
        };
        if !reply.ok {
            match reply.kind.as_deref() {
                Some("shed") => out.shed += 1,
                _ => out.errors += 1,
            }
            continue;
        }
        let Some(observable) = reply.observable else {
            out.unknown += 1;
            continue;
        };
        let expected = match asked {
            Asked::Pool(i, m) => pool_oracle.observable(i, &traffic.pool[i], m),
            Asked::Fresh(i, m) => fresh_oracle.observable(i, &traffic.fresh[i], m),
        };
        if observable != expected {
            out.wrong += 1;
            eprintln!(
                "ptxd-mix: {} says observable={observable}, reference disagrees",
                reply.name.as_deref().unwrap_or("?")
            );
        }
    }
}

fn per_layer(out: &mut Outcome, traced: &[Round], untraced: &[Round]) {
    let t = traced
        .last()
        .and_then(|r| r.telemetry.as_ref())
        .expect("a traced round carries telemetry");
    let l = &mut out.layer;
    l.insert("ptxd.ping_p50_ms", median(&t.pings));
    l.insert("ptxd.ping_p99_ms", quantile(&t.pings, 0.99));
    // The server's own quantile rule, so these agree with `ptxtop` and
    // `--stats-json` over the same histograms. Counters and histograms
    // are deltas over the last traced round's traffic.
    let delta = t.after.1.delta(&t.before.1);
    let hist_ms = |name: &str, q: f64| {
        delta
            .histograms
            .get(name)
            .map_or(0.0, |h| h.quantile(q) as f64 / 1e6)
    };
    l.insert("ptxd.queue_wait_p50_ms", hist_ms("ptxd.queue_wait_ns", 0.5));
    l.insert(
        "ptxd.queue_wait_p99_ms",
        hist_ms("ptxd.queue_wait_ns", 0.99),
    );
    l.insert("ptxd.solve_p50_ms", hist_ms("ptxd.solve_ns", 0.5));
    l.insert("ptxd.solve_p99_ms", hist_ms("ptxd.solve_ns", 0.99));
    let counter = |c: &HashMap<String, u64>, name: &str| c.get(name).copied().unwrap_or(0);
    let d =
        |name: &str| counter(&t.after.0, name).saturating_sub(counter(&t.before.0, name)) as f64;
    let lookups = d("ptxd.cache_hits") + d("ptxd.cache_misses");
    l.insert("ptxd.hit_ratio", d("ptxd.cache_hits") / lookups.max(1.0));
    l.insert("ptxd.shed", d("ptxd.shed"));
    l.insert("ptxd.batched", d("ptxd.batched"));
    l.insert(
        "ptxd.sessions_created",
        counter(&t.after.0, "ptxd.pool.created") as f64,
    );
    let open = joined_open(traced);
    l.insert("ptxd.miss_time_share", miss_time_share(&open));
    l.insert("ptxd.busy_frac", busy_frac(&open));
    l.insert(
        "gen.late_p99_ms",
        quantile(
            &open.recs.iter().map(|r| ms(r.late)).collect::<Vec<_>>(),
            0.99,
        ),
    );
    // Client time from the actual send, minus the server's own time,
    // per traced round.
    let client: f64 = open
        .recs
        .iter()
        .filter_map(|r| r.latency.map(|l| l.saturating_sub(r.late)))
        .map(|d| d.as_secs_f64())
        .sum();
    l.insert(
        "unattributed_s",
        (client - open.server_secs(|_| true)) / traced.len() as f64,
    );
    let mean_open = |rounds: &[Round]| {
        let lat = joined_open(rounds).latencies_ms(Rec::answered);
        lat.iter().sum::<f64>() / lat.len().max(1) as f64 / 1e3
    };
    l.insert("trace.overhead_s", mean_open(traced) - mean_open(untraced));
}
