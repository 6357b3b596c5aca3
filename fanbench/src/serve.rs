//! `serve-open`: an open loop over TCP against the in-process server of
//! `fannet listen` (interval screening, serial checker, cache 4096, two
//! workers), at three fixed offered rates over two client connections.
//!
//! The mix has two populations. A "dashboard" warm set — the seed's
//! test inputs at fixed radii under `check`, `tolerance`, `fault_check`
//! and `joint_check` — is answered during set-up, so in the measured
//! window these requests hit the cache. A cold share of fresh jittered
//! inputs (`check`, which misses and inserts) and `sensitivity` (never
//! cached) exercises the solver under queueing. The cold share (14 %)
//! keeps p50 inside the warm population and, once cold requests are the
//! slower ones, puts p99 well inside the cold one. The run's detail line
//! reports each population's percentiles.
//!
//! `setup_s` times the set-up of the paper's network (seed 0, network
//! 0) whatever the seed. Answering the warm set dominates set-up, and
//! its cost varies several-fold from network to network (most of it is
//! `tolerance` to ±50 %), so only a fixed network gives set-up times
//! that compare between runs. The seed's own network is then set up
//! once more, untimed, and served.
//!
//! Every request is one write on a `TCP_NODELAY` client socket; latency
//! runs from the request's due time, so a stalled server or a late
//! generator both count. The server side is measured as it ships: its
//! sockets keep Nagle on and it writes each response body and its
//! newline separately, so a response's newline waits for the client's
//! next request on that connection or its delayed-ACK timer. Today that
//! wait, not solver work, sets both populations' latency.
//!
//! All offered rates sit well below the server's capacity. So `max_rps`
//! reads the achieved rate of `high` and `inputs_per_s` the answered
//! rate of the schedule: both are pass/fail gates that fall when the
//! server misses the limit or falls behind, and cannot show a gain.

use std::collections::{HashMap, HashSet};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fannet_core::behavior::rational_input;
use fannet_engine::protocol::{self, Request};
use fannet_engine::{AnswerSource, Engine, EngineConfig};
use fannet_nn::Network;
use fannet_numeric::Rational;
use fannet_search::{ScreeningTier, SearchStats, TierTimer};
use fannet_server::{serve_tcp, SessionConfig};
use fannet_verify::bab::{CheckerConfig, RegionChecker};
use fannet_verify::noise::ExclusionSet;
use serde::Value;

use crate::kernel::{self, NoiseBox};
use crate::metrics::{Checks, Metrics};
use crate::nets::{self, Net};
use crate::rng::{self, SplitMix64};
use crate::spans::Spans;
use crate::stats::{median, percentile, ratio, supports};
use crate::{Run, SETUP_REPEATS, THREADS};

/// Offered load levels: name, requests per second, and the names of
/// their p50 and p99 metrics. Each level runs for a share of the run
/// inversely proportional to its rate, so every level sends the same
/// number of requests: enough for p99 at runs of 25 s and more. The
/// rates stay low because today's latency follows the gap between
/// requests on a connection (module docs): the scheduling jitter of a
/// shared two-core machine, a millisecond or so, must stay small next
/// to that gap.
pub const LEVELS: [(&str, f64, &str, &str); 3] = [
    ("low", 100.0, "p50_ms.low", "p99_ms.low"),
    ("mid", 150.0, "p50_ms.mid", "p99_ms.mid"),
    ("high", 200.0, "p50_ms.high", "p99_ms.high"),
];
/// Latency limit on p99 for a level to count towards `max_rps`.
const LIMIT_MS: f64 = 100.0;
/// Client connections.
const CONNECTIONS: usize = 2;
/// Share of requests drawn from the warm dashboard set.
const WARM_SHARE: f64 = 0.86;
/// Share of fresh jittered `check` requests (cache misses).
const FRESH_SHARE: f64 = 0.12;
// The remaining 2 % are `sensitivity` requests.
/// Fixed radii of the dashboard and fresh requests.
const CHECK_DELTA: i64 = 10;
const JOINT_DELTA: i64 = 2;
const EPS: &str = "1/50";
const SENSITIVITY_DELTA: i64 = 20;
const SENSITIVITY_CAP: usize = 10;
/// How long to wait for the last responses of a level.
const DRAIN: Duration = Duration::from_secs(30);

/// The request populations of the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Population {
    Warm,
    Fresh,
    Sensitivity,
}

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Scheduled {
    /// Seconds after the level starts.
    pub due: f64,
    pub conn: usize,
    pub population: Population,
    pub op: &'static str,
    /// The request's fields after `op` and `id`.
    pub body: String,
}

fn input_json(x: &[Rational]) -> String {
    let parts: Vec<String> = x.iter().map(|v| format!("\"{v}\"")).collect();
    format!("[{}]", parts.join(","))
}

/// `net`'s correctly classified test inputs with their labels.
fn inputs(net: &Net) -> Vec<(Vec<Rational>, usize)> {
    net.correct
        .iter()
        .map(|&i| (rational_input(&net.test.samples()[i]), net.test.labels()[i]))
        .collect()
}

/// The dashboard set: every test input at the fixed radii.
pub fn warm_set(net: &Net) -> Vec<(&'static str, String)> {
    let mut warm = Vec::new();
    for (x, label) in inputs(net) {
        let input = input_json(&x);
        let head = format!("\"input\":{input},\"label\":{label}");
        let model = format!("\"model\":\"weight-noise\",\"eps\":\"{EPS}\"");
        warm.push(("check", format!("{head},\"delta\":{CHECK_DELTA}")));
        warm.push(("tolerance", format!("{head},\"max_delta\":50")));
        warm.push(("fault_check", format!("{head},{model}")));
        warm.push((
            "joint_check",
            format!("{head},\"delta\":{JOINT_DELTA},{model}"),
        ));
    }
    warm
}

/// The seeded request stream of `seed` over `net`: one schedule per
/// level, `seconds` in total.
pub fn stream(seed: u64, net: &Net, seconds: f64) -> Vec<Vec<Scheduled>> {
    let inputs = inputs(net);
    let warm = warm_set(net);
    let mut rng = SplitMix64::new(rng::derive(seed, 2));
    let mut seen: HashSet<Vec<Rational>> = inputs.iter().map(|(x, _)| x.clone()).collect();
    let requests = seconds / LEVELS.iter().map(|level| 1.0 / level.1).sum::<f64>();
    LEVELS
        .iter()
        .map(|&(_, rate, ..)| {
            let duration = requests / rate;
            let mut out = Vec::new();
            let mut t = rng.exp(1.0 / rate);
            while t < duration {
                let u = rng.next_f64();
                let conn = rng.below(CONNECTIONS);
                let (population, op, body) = if u < WARM_SHARE {
                    let (op, body) = warm[rng.below(warm.len())].clone();
                    (Population::Warm, op, body)
                } else if u < WARM_SHARE + FRESH_SHARE {
                    let (x, label) = &inputs[rng.below(inputs.len())];
                    let fresh = loop {
                        // ±2 % per-coordinate jitter, rounded to integers.
                        let jittered: Vec<Rational> = x
                            .iter()
                            .map(|v| {
                                let k = rng.below(41) as f64 - 20.0;
                                Rational::from_integer((v.to_f64() * (1000.0 + k) / 1000.0).round() as i128)
                            })
                            .collect();
                        if seen.insert(jittered.clone()) {
                            break jittered;
                        }
                    };
                    (
                        Population::Fresh,
                        "check",
                        format!(
                            "\"input\":{},\"label\":{label},\"delta\":{CHECK_DELTA}",
                            input_json(&fresh)
                        ),
                    )
                } else {
                    let (x, label) = &inputs[rng.below(inputs.len())];
                    (
                        Population::Sensitivity,
                        "sensitivity",
                        format!(
                            "\"input\":{},\"label\":{label},\"delta\":{SENSITIVITY_DELTA},\"cap\":{SENSITIVITY_CAP}",
                            input_json(x)
                        ),
                    )
                };
                out.push(Scheduled {
                    due: t,
                    conn,
                    population,
                    op,
                    body,
                });
                t += rng.exp(1.0 / rate);
            }
            out
        })
        .collect()
}

/// The wire line of a request (newline-terminated).
fn line(op: &str, id: u64, body: &str, trace: bool) -> String {
    let trace = if trace && op != "sensitivity" {
        ",\"trace\":true"
    } else {
        ""
    };
    format!("{{\"op\":\"{op}\",\"id\":{id},{body}{trace}}}\n")
}

/// `fannet listen`'s engine defaults: serial checker, interval screen.
fn engine_config() -> EngineConfig {
    EngineConfig {
        checker: CheckerConfig::serial_exact().with_screening(ScreeningTier::Interval),
        cache_capacity: 4096,
    }
}

struct Server {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<std::io::Result<()>>,
    addr: SocketAddr,
}

impl Server {
    fn start(engine: Arc<Engine>) -> Server {
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel();
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            serve_tcp(
                engine,
                &SessionConfig::with_workers(THREADS),
                "127.0.0.1:0",
                move || flag.load(Ordering::SeqCst),
                move |addr| {
                    let _ = tx.send(addr);
                },
            )
        });
        match rx.recv() {
            Ok(addr) => Server { stop, handle, addr },
            Err(_) => panic!("server did not start: {:?}", handle.join()),
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        match self.handle.join() {
            Ok(Ok(())) => {}
            other => eprintln!("fanbench: server ended with {other:?}"),
        }
    }
}

struct Client {
    stream: TcpStream,
    received: Arc<AtomicUsize>,
    reader: JoinHandle<Vec<(Instant, String)>>,
    sent: usize,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the local server");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let read_half = stream.try_clone().expect("clone the client socket");
        let received = Arc::new(AtomicUsize::new(0));
        let count = Arc::clone(&received);
        let reader = std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            let mut lines = Vec::new();
            loop {
                let mut text = String::new();
                match reader.read_line(&mut text) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        lines.push((Instant::now(), text));
                        count.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            lines
        });
        Client {
            stream,
            received,
            reader,
            sent: 0,
        }
    }

    /// Sends one request as a single write.
    fn send(&mut self, text: &str) -> bool {
        self.sent += 1;
        self.stream.write_all(text.as_bytes()).is_ok()
    }

    /// Waits until every request sent so far has its response.
    fn wait(&self, deadline: Instant) -> bool {
        while self.received.load(Ordering::SeqCst) < self.sent {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        true
    }

    fn close(self) -> Vec<(Instant, String)> {
        let _ = self.stream.shutdown(Shutdown::Both);
        self.reader.join().expect("client reader panicked")
    }
}

/// A built server with its connected clients.
struct Stack {
    net: Net,
    server: Server,
    clients: Vec<Client>,
}

impl Stack {
    fn shut(self) -> (Vec<Vec<(Instant, String)>>, Net) {
        let responses = self.clients.into_iter().map(Client::close).collect();
        self.server.stop();
        (responses, self.net)
    }
}

/// Answers the whole warm set on `engine`, so its requests hit the cache.
fn prewarm(engine: &Engine, net: &Net) {
    for (op, body) in warm_set(net) {
        let request = protocol::parse_request(line(op, 0, &body, false).trim_end())
            .expect("warm requests parse");
        let _ = protocol::handle(engine, &request);
    }
}

/// Case-study build, engine construction, bind, pre-warm and connect;
/// returns the stack and the case-study and pre-warm seconds.
fn set_up(seed: u64, index: u64) -> (Stack, f64, f64) {
    let start = Instant::now();
    let net = nets::build(seed, index);
    let casestudy_s = start.elapsed().as_secs_f64();
    let engine = Arc::new(Engine::new(net.exact.clone(), engine_config()));
    let server = Server::start(Arc::clone(&engine));
    let warm_start = Instant::now();
    prewarm(&engine, &net);
    let warm_s = warm_start.elapsed().as_secs_f64();
    let clients = (0..CONNECTIONS)
        .map(|_| Client::connect(server.addr))
        .collect();
    (
        Stack {
            net,
            server,
            clients,
        },
        casestudy_s,
        warm_s,
    )
}

/// One sent request.
struct Sent {
    level: usize,
    population: Population,
    op: &'static str,
    body: String,
    id: u64,
    due: Instant,
    send: Instant,
    conn: usize,
    /// Index of its response among the connection's responses.
    slot: usize,
}

/// Any JSON value (the workspace's `serde` stand-in has no
/// `Deserialize` for its `Value`).
struct Json(Value);

impl<'de> serde::Deserialize<'de> for Json {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.take_value().map(Json)
    }
}

fn parse_json(text: &str) -> Option<Value> {
    serde_json::from_str::<Json>(text.trim_end())
        .ok()
        .map(|json| json.0)
}

fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
    match value {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(value: Option<&Value>) -> f64 {
    match value {
        Some(Value::Int(n)) => *n as f64,
        Some(Value::Float(x)) => *x,
        _ => 0.0,
    }
}

fn path<'v>(value: &'v Value, keys: &[&str]) -> Option<&'v Value> {
    keys.iter().try_fold(value, |v, key| field(v, key))
}

/// A response with its volatile fields (cache source, solver counters,
/// trace, request id) removed: what must equal a fresh engine's answer.
fn stripped(value: &Value) -> Value {
    match value {
        Value::Map(entries) => Value::Map(
            entries
                .iter()
                .filter(|(k, _)| {
                    !matches!(k.as_str(), "id" | "source" | "stats" | "search" | "trace")
                })
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Cache and solver counters of a `stats` response.
fn engine_counts(stats: &Value) -> (f64, f64, f64) {
    let get = |key: &str| number(field(stats, key));
    let hits = get("exact_hits") + get("subsumption_hits") + get("fault_hits") + get("joint_hits");
    let misses = get("misses") + get("fault_misses") + get("joint_misses");
    let evictions = get("evictions") + get("fault_evictions") + get("joint_evictions");
    (hits, misses, evictions)
}

pub fn run(run: &Run) -> (Metrics, Checks) {
    let mut checks = Checks::default();
    // Timed set-ups of the paper's network (module docs).
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (stack, casestudy_s, warm_s) = set_up(0, 0);
        setups.push((start.elapsed().as_secs_f64(), casestudy_s, warm_s));
        let _ = stack.shut();
    }
    let setup_s = median(&setups.iter().map(|s| s.0).collect::<Vec<_>>());
    let served_start = Instant::now();
    let (mut stack, _, _) = set_up(run.seed, 0);
    let served_setup_s = served_start.elapsed().as_secs_f64();
    checks.count(nets::paper_tolerance_holds(run.seed, &stack.net));
    let schedules = stream(run.seed, &stack.net, run.seconds);
    eprintln!(
        "fanbench: network fingerprint {}",
        nets::family_fingerprint([&stack.net])
    );

    // Engine counters before the window (a `stats` request on conn 0).
    let mut next_id = 1u64;
    let stats_line = |id: u64| format!("{{\"op\":\"stats\",\"id\":{id}}}\n");
    let mut control_slots = Vec::new();
    let control = |stack: &mut Stack, id: u64, slots: &mut Vec<usize>| {
        slots.push(stack.clients[0].sent);
        stack.clients[0].send(&stats_line(id));
        stack.clients[0].wait(Instant::now() + DRAIN);
    };
    control(&mut stack, next_id, &mut control_slots);
    next_id += 1;

    let mut sent: Vec<Sent> = Vec::new();
    let mut level_spans = Vec::new();
    for (level, schedule) in schedules.iter().enumerate() {
        let start = Instant::now() + Duration::from_millis(1);
        for req in schedule {
            let due = start + Duration::from_secs_f64(req.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let text = line(req.op, next_id, &req.body, run.trace);
            let client = &mut stack.clients[req.conn];
            let slot = client.sent;
            let send = Instant::now();
            if !client.send(&text) {
                eprintln!("fanbench: write to connection {} failed", req.conn);
            }
            sent.push(Sent {
                level,
                population: req.population,
                op: req.op,
                body: req.body.clone(),
                id: next_id,
                due,
                send,
                conn: req.conn,
                slot,
            });
            next_id += 1;
        }
        let deadline = Instant::now() + DRAIN;
        for client in &stack.clients {
            if !client.wait(deadline) {
                eprintln!(
                    "fanbench: level {} left responses unanswered",
                    LEVELS[level].0
                );
            }
        }
        level_spans.push(start);
    }
    control(&mut stack, next_id, &mut control_slots);

    let (responses, net) = stack.shut();
    let control_value = |k: usize| {
        responses[0]
            .get(control_slots[k])
            .and_then(|(_, text)| parse_json(text))
            .unwrap_or(Value::Null)
    };
    let (stats_before, stats_after) = (control_value(0), control_value(1));

    // Output checks, untimed: each response against a fresh engine's
    // answer to the same request.
    let exact = &net.exact;
    let mut reference: HashMap<(&str, &str), Value> = HashMap::new();
    let mut render_us = Vec::new();
    for s in &sent {
        if reference.contains_key(&(s.op, s.body.as_str())) {
            continue;
        }
        let request = protocol::parse_request(line(s.op, s.id, &s.body, false).trim_end())
            .expect("generated requests parse");
        let fresh = Engine::new(exact.clone(), engine_config());
        let response = protocol::handle(&fresh, &request);
        let start = Instant::now();
        let text = protocol::render_response(&response);
        render_us.push(start.elapsed().as_secs_f64() * 1e6);
        reference.insert(
            (s.op, s.body.as_str()),
            stripped(&parse_json(&text).expect("rendered JSON parses")),
        );
    }

    struct Answer {
        latency_ms: f64,
        recv: Instant,
        value: Option<Value>,
    }
    let answers: Vec<Answer> = sent
        .iter()
        .map(|s| {
            let got = responses[s.conn].get(s.slot);
            let value = got.and_then(|(_, text)| parse_json(text));
            let ok = value.as_ref().is_some_and(|v| {
                number(field(v, "id")) == s.id as f64
                    && stripped(v) == reference[&(s.op, s.body.as_str())]
            });
            checks.count(ok);
            let recv = got.map_or(Instant::now(), |(at, _)| *at);
            Answer {
                // A failed request misses every limit.
                latency_ms: if ok {
                    (recv - s.due).as_secs_f64() * 1e3
                } else {
                    DRAIN.as_secs_f64() * 1e3
                },
                recv,
                value,
            }
        })
        .collect();

    let mut m = Metrics::default();
    let late_ms: Vec<f64> = sent
        .iter()
        .map(|s| (s.send - s.due).as_secs_f64() * 1e3)
        .collect();
    let mut detail = Vec::new();
    let mut max_rps = 0.0f64;
    let (mut answered, mut busy_s) = (0usize, 0.0f64);
    for (level, &(name, rate, p50_name, p99_name)) in LEVELS.iter().enumerate() {
        let idx: Vec<usize> = (0..sent.len())
            .filter(|&k| sent[k].level == level)
            .collect();
        let lat = |pop: Option<Population>| -> Vec<f64> {
            idx.iter()
                .filter(|&&k| pop.is_none_or(|p| sent[k].population == p))
                .map(|&k| answers[k].latency_ms)
                .collect()
        };
        let all = lat(None);
        let p50 = percentile(&all, 50.0, name);
        let p99 = percentile(&all, 99.0, name);
        let last = idx
            .iter()
            .map(|&k| answers[k].recv)
            .max()
            .unwrap_or(level_spans[level]);
        let span_s = (last - level_spans[level]).as_secs_f64();
        let achieved = ratio(idx.len() as f64, span_s);
        // A growing backlog shows as the second half of the level waiting
        // far longer than the first.
        let half = all.len() / 2;
        let steady = median(&all[half..]) <= 2.0 * median(&all[..half]) + 1.0;
        let passes = p99 <= LIMIT_MS && steady;
        if passes {
            max_rps = max_rps.max(achieved);
        }
        answered += idx.len();
        busy_s += span_s;
        if !run.trace {
            m.set(p50_name, p50);
            m.set(p99_name, p99);
        }
        // Per-population percentiles, each only where the sample
        // supports it, show which population a reported one falls in.
        let pop = |p: Population| {
            let v = lat(Some(p));
            let at = |q: f64| {
                if supports(v.len(), q) {
                    percentile(&v, q, "population").to_string()
                } else {
                    "null".to_string()
                }
            };
            format!(
                "{{\"n\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
                v.len(),
                at(50.0),
                at(99.0)
            )
        };
        detail.push(format!(
            "\"{name}\":{{\"offered_rps\":{rate},\"sent\":{},\"achieved_rps\":{achieved},\"p50_ms\":{p50},\"p99_ms\":{p99},\"meets_limit\":{passes},\"warm\":{},\"fresh\":{},\"sensitivity\":{}}}",
            idx.len(),
            pop(Population::Warm),
            pop(Population::Fresh),
            pop(Population::Sensitivity)
        ));
    }
    let share = |p: Population| {
        ratio(
            sent.iter().filter(|s| s.population == p).count() as f64,
            sent.len() as f64,
        )
    };
    let (h0, m0, _) = engine_counts(&stats_before);
    let (h1, m1, _) = engine_counts(&stats_after);
    let cached = ratio(h1 - h0, (h1 - h0) + (m1 - m0));
    println!(
        "{{\"workload\":\"serve-open\",\"seed\":{},\"trace\":{},\"served_setup_s\":{served_setup_s},\"warm_share\":{},\"fresh_share\":{},\"sensitivity_share\":{},\"cached_share\":{cached},\"late_ms_max\":{},\"levels\":{{{}}}}}",
        run.seed,
        run.trace,
        share(Population::Warm),
        share(Population::Fresh),
        share(Population::Sensitivity),
        late_ms.iter().copied().fold(0.0, f64::max),
        detail.join(",")
    );

    if !run.trace {
        m.set("setup_s", setup_s);
        m.set("inputs_per_s", ratio(answered as f64, busy_s));
        m.set("max_rps", max_rps);
        return (m, checks);
    }

    crate::zero_all(&mut m);
    m.set(
        "setup.casestudy_s",
        median(&setups.iter().map(|s| s.1).collect::<Vec<_>>()),
    );
    m.set(
        "setup.warm_s",
        median(&setups.iter().map(|s| s.2).collect::<Vec<_>>()),
    );
    m.set(
        "loadgen.late_ms.max",
        late_ms.iter().copied().fold(0.0, f64::max),
    );
    let (_, _, e0) = engine_counts(&stats_before);
    let (_, _, e1) = engine_counts(&stats_after);
    m.set("engine.hit_frac", cached);
    m.set("engine.evictions", e1 - e0);
    m.set(
        "server.queue_high_water",
        number(path(&stats_after, &["server", "queue_high_water"])),
    );
    m.set(
        "server.sequence_ms.p99",
        number(path(
            &stats_after,
            &["server", "latency", "phases", "sequence", "p99_ns"],
        )) / 1e6,
    );

    // Benchmark-side spans: one per request (due → response), with the
    // server's own queue and engine shares as children.
    let spans = Spans::new(true);
    let (mut queue_ms, mut delivery_ms, mut hit_us, mut miss_ms) = (vec![], vec![], vec![], vec![]);
    for (s, a) in sent.iter().zip(&answers) {
        let root = spans.record("loadgen.request", s.due, a.recv, None, s.id);
        let client = spans.record("server.request", s.send, a.recv, root, s.id);
        let Some(trace) = a.value.as_ref().and_then(|v| field(v, "trace")) else {
            continue;
        };
        let queue_ns = number(field(trace, "queue_ns"));
        let wall_ns = number(field(trace, "wall_ns"));
        queue_ms.push(queue_ns / 1e6);
        let end = a
            .recv
            .min(s.send + Duration::from_nanos((queue_ns + wall_ns) as u64));
        let queued = s.send + Duration::from_nanos(queue_ns as u64);
        spans.record("server.queue", s.send, queued.min(end), client, s.id);
        spans.record("engine.handle", queued.min(end), end, client, s.id);
        delivery_ms.push((a.recv - s.send).as_secs_f64() * 1e3 - (queue_ns + wall_ns) / 1e6);
        match field(trace, "cache") {
            Some(Value::Str(c)) if c == "miss" => miss_ms.push(wall_ns / 1e6),
            Some(Value::Str(_)) => hit_us.push(wall_ns / 1e3),
            _ => {}
        }
    }
    m.set(
        "server.queue_ms.p99",
        percentile(&queue_ms, 99.0, "server.queue_ms"),
    );
    m.set(
        "server.delivery_ms.p50",
        percentile(&delivery_ms, 50.0, "server.delivery_ms"),
    );
    m.set(
        "engine.hit_us.p50",
        percentile(&hit_us, 50.0, "engine.hit_us"),
    );
    m.set(
        "engine.miss_ms.p99",
        percentile(&miss_ms, 99.0, "engine.miss_ms"),
    );

    let parse_us: Vec<f64> = sent
        .iter()
        .map(|s| {
            let text = line(s.op, s.id, &s.body, true);
            let start = Instant::now();
            let parsed = protocol::parse_request(text.trim_end());
            let us = start.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(parsed).expect("generated requests parse");
            us
        })
        .collect();
    m.set(
        "protocol.parse_us.p50",
        percentile(&parse_us, 50.0, "protocol.parse_us"),
    );
    m.set(
        "protocol.render_us.p50",
        percentile(&render_us, 50.0, "protocol.render_us"),
    );

    // The cold checks the window solved, replayed through the serving
    // checker with tier timing on.
    let fresh: Vec<&Sent> = sent
        .iter()
        .filter(|s| s.population == Population::Fresh)
        .collect();
    let (stats, boxes) = replay_fresh(exact, &fresh, &reference, &mut checks);
    crate::analysis::set_verify(&mut m, &stats);
    let k = kernel::noise(&boxes);
    m.set("kernel.float_ns_per_box", k.float);
    m.set("kernel.batch_ns_per_box", k.batch);
    m.set("kernel.zonotope_ns_per_box", k.zonotope);
    m.set("kernel.exact_ns_per_box", k.exact);
    kernel::set_sizes(&mut m, exact);
    m.set("obs.trace_overhead_frac", trace_overhead(&net, &sent));
    if let Some(dir) = &run.out_dir {
        let path = dir.join(format!("spans-serve-open-seed{}.jsonl", run.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("fanbench: cannot write {}: {e}", path.display());
        }
    }
    (m, checks)
}

/// Replays the fresh `check` requests through `RegionChecker` under the
/// serving configuration with tier timing on, checking each verdict and
/// witness against the fresh-engine `reference`; returns merged search
/// stats and the probed boxes.
fn replay_fresh<'n>(
    net: &'n Network<Rational>,
    fresh: &[&Sent],
    reference: &HashMap<(&str, &str), Value>,
    checks: &mut Checks,
) -> (SearchStats, Vec<NoiseBox<'n>>) {
    let checker = RegionChecker::new(net, engine_config().checker);
    let mut stats = SearchStats::default();
    let mut boxes = Vec::new();
    for s in fresh {
        let Ok(Request::Check {
            input,
            label,
            region,
            ..
        }) = protocol::parse_request(line(s.op, s.id, &s.body, false).trim_end())
        else {
            checks.count(false);
            continue;
        };
        let (outcome, probe) = checker
            .check_region_timed(
                &input,
                label,
                &region,
                &ExclusionSet::new(),
                TierTimer::enabled(),
            )
            .expect("widths match the network");
        let replayed = protocol::render_response(&protocol::Response::Check {
            id: None,
            outcome,
            source: AnswerSource::Solver,
            stats: probe,
            trace: None,
        });
        checks.count(
            parse_json(&replayed)
                .is_some_and(|v| stripped(&v) == reference[&(s.op, s.body.as_str())]),
        );
        stats.merge(&probe);
        boxes.push(NoiseBox {
            net,
            x: input,
            label,
            region,
        });
    }
    (stats, boxes)
}

/// The traced run's serving cost over the untraced run's, minus 1: the
/// window's requests replayed in order through the serving path
/// (`parse_request`, `handle_traced` with timing forced as the server
/// forces it, `render_response`) on two engines pre-warmed like the
/// served one, one sent the traced lines and one the untraced. It
/// leaves out the sockets, where a trace only lengthens the response
/// line. Near zero it can read slightly negative.
fn trace_overhead(net: &Net, sent: &[Sent]) -> f64 {
    let engines = [(), ()].map(|()| {
        let engine = Engine::new(net.exact.clone(), engine_config());
        prewarm(&engine, net);
        engine
    });
    let mut seconds = [0.0f64; 2];
    for (k, s) in sent.iter().enumerate() {
        // Arm 0 is traced; the arms take turns going first.
        for arm in [k % 2, 1 - k % 2] {
            let text = line(s.op, s.id, &s.body, arm == 0);
            let start = Instant::now();
            let request =
                protocol::parse_request(text.trim_end()).expect("generated requests parse");
            let (response, _) = protocol::handle_traced(&engines[arm], &request, true);
            std::hint::black_box(protocol::render_response(&response));
            seconds[arm] += start.elapsed().as_secs_f64();
        }
    }
    ratio(seconds[0], seconds[1]) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_a_byte_identical_request_stream() {
        let net = nets::build(3, 0);
        let a = stream(3, &net, 3.0);
        let b = stream(3, &net, 3.0);
        assert_eq!(a, b);
        let render = |s: &Vec<Vec<Scheduled>>| -> String {
            s.iter()
                .flatten()
                .enumerate()
                .map(|(id, r)| {
                    format!(
                        "{} {} {}",
                        r.due,
                        r.conn,
                        line(r.op, id as u64, &r.body, false)
                    )
                })
                .collect()
        };
        assert_eq!(render(&a), render(&b));
        assert_ne!(render(&a), render(&stream(4, &net, 3.0)));
    }

    #[test]
    fn generated_requests_parse() {
        let net = nets::build(1, 0);
        let s = stream(1, &net, 1.0);
        for r in s.iter().flatten() {
            protocol::parse_request(line(r.op, 1, &r.body, true).trim_end()).expect("parses");
        }
        for (op, body) in &warm_set(&net) {
            protocol::parse_request(line(op, 1, body, false).trim_end()).expect("parses");
        }
    }
}
