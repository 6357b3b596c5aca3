//! The two closed-loop offline workloads: the paper's input-noise
//! analyses (`noise-analysis`) and the weight-fault extension
//! (`fault-analysis`), run over a seeded family of trained networks.
//!
//! Each pass analyses one network by calling the `fannet-core` entry
//! points once per input (one query), fanned over two threads with the
//! core's own `par::ordered_map`, so every query's latency is observable
//! from outside. On the first [`REFERENCE_NETS`] networks an untimed
//! pass calls the same entry points once per network with
//! `input_threads = 2`; its reports are the reference every timed pass
//! must reproduce exactly. On the others every pass must reproduce the
//! first.

use std::time::{Duration, Instant};

use fannet_core::adversarial::{self, AdversarialReport};
use fannet_core::bias::{self, BiasReport};
use fannet_core::faults::{self, FaultAnalysisConfig, FaultReport};
use fannet_core::joint::{self, InputJointFrontier, JointAnalysisConfig, JointFrontierReport};
use fannet_core::pipeline::AnalysisConfig;
use fannet_core::sensitivity::{self, SensitivityReport};
use fannet_core::tolerance::{self, ToleranceReport};
use fannet_core::{behavior::rational_input, par};
use fannet_faults::checker::{FaultChecker, FaultOutcome};
use fannet_faults::joint::{JointChecker, JointOutcome};
use fannet_faults::FaultModel;
use fannet_numeric::Rational;
use fannet_search::{SearchStats, TierTimer};
use fannet_verify::bab::RegionChecker;
use fannet_verify::noise::ExclusionSet;
use fannet_verify::region::NoiseRegion;

use crate::kernel::{self, FaultBox, NoiseBox};
use crate::metrics::{Checks, Metrics};
use crate::nets::{self, Net};
use crate::spans::{SpanId, Spans};
use crate::stats::{median, percentile, ratio};
use crate::steal::{self, Timing};
use crate::{Run, SETUP_REPEATS, THREADS};

/// Networks per run of `noise-analysis`; every correctly classified
/// test input of each is analysed.
const NOISE_NETS: usize = 32;
/// Networks per run of `fault-analysis`: enough that one pass over the
/// family makes the 1,088 queries p99 needs (ten beyond it).
const FAULT_NETS: usize = 68;
/// Inputs per network of `fault-analysis`, stratified by margin: fault
/// queries cost ~20x noise queries, and more networks with fewer inputs
/// each keep the family's cost steady from seed to seed.
const FAULT_INPUTS: usize = 4;
/// Networks checked against the core's own batch entry points, and
/// replayed through the timed checkers in a traced run.
const REFERENCE_NETS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Noise,
    Fault,
}

/// One network and the inputs a pass analyses on it.
struct Job {
    net: Net,
    inputs: Vec<usize>,
}

/// Everything a pass reports; two passes over one job must be equal.
#[derive(Debug, Clone)]
enum Outcome {
    Noise {
        tolerance: ToleranceReport,
        adversarial: AdversarialReport,
        bias: BiasReport,
        sensitivity: SensitivityReport,
    },
    Fault {
        fault: FaultReport,
        joint: JointFrontierReport,
    },
}

impl Outcome {
    /// Per-query results of the pass, for counting matches.
    fn queries(&self) -> Vec<String> {
        match self {
            Outcome::Noise {
                tolerance,
                adversarial,
                bias,
                sensitivity,
            } => {
                let mut out: Vec<String> = tolerance
                    .per_input
                    .iter()
                    .map(|r| format!("radius {} {:?}", r.index, r.radius))
                    .collect();
                out.extend(adversarial.per_input.iter().map(|a| {
                    format!(
                        "vectors {} {} {}",
                        a.index,
                        a.counterexamples.len(),
                        a.exhausted
                    )
                }));
                out.push(format!("bias {bias:?} {sensitivity:?}"));
                out
            }
            Outcome::Fault { fault, joint } => {
                let mut out: Vec<String> = fault
                    .per_input
                    .iter()
                    .map(|f| format!("fault {f:?}"))
                    .collect();
                out.extend(joint.per_input.iter().map(|j| format!("joint {j:?}")));
                out
            }
        }
    }
}

/// Counts per-query matches of `got` against `want`.
fn check(got: &Outcome, want: &Outcome, checks: &mut Checks) {
    let (got, want) = (got.queries(), want.queries());
    if got.len() != want.len() {
        checks.count(false);
        return;
    }
    for (g, w) in got.iter().zip(&want) {
        checks.count(g == w);
    }
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        input_threads: THREADS,
        fault: FaultAnalysisConfig {
            input_threads: THREADS,
            ..FaultAnalysisConfig::default()
        },
        joint: JointAnalysisConfig {
            input_threads: THREADS,
            ..JointAnalysisConfig::default()
        },
        ..AnalysisConfig::default()
    }
}

fn setup(kind: Kind, seed: u64) -> (Vec<Job>, f64) {
    let mut times = Vec::new();
    let mut jobs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        jobs = match kind {
            Kind::Noise => nets::build_family(seed, NOISE_NETS)
                .into_iter()
                .map(|net| Job {
                    inputs: net.correct.clone(),
                    net,
                })
                .collect(),
            Kind::Fault => nets::build_family(seed, FAULT_NETS)
                .into_iter()
                .map(|net| Job {
                    inputs: nets::stratified_inputs(&net, FAULT_INPUTS),
                    net,
                })
                .collect(),
        };
        times.push(start.elapsed().as_secs_f64());
    }
    (jobs, median(&times))
}

/// The reference pass: the core entry points, once per network.
fn reference(kind: Kind, job: &Job, config: &AnalysisConfig) -> Outcome {
    let (exact, test) = (&job.net.exact, &job.net.test);
    match kind {
        Kind::Noise => {
            let tolerance = tolerance::par_analyze(
                exact,
                test,
                &job.inputs,
                config.max_delta,
                &config.checker,
                config.input_threads,
            );
            let adversarial = adversarial::par_extract(
                exact,
                test,
                &job.inputs,
                extraction_delta(&tolerance, config),
                config.per_input_cap,
                &config.checker,
                config.input_threads,
            );
            let bias = bias::analyze(&adversarial, &tolerance, &job.net.train);
            let sensitivity = sensitivity::analyze(&adversarial);
            Outcome::Noise {
                tolerance,
                adversarial,
                bias,
                sensitivity,
            }
        }
        Kind::Fault => Outcome::Fault {
            fault: faults::analyze(exact, test, &job.inputs, &config.fault),
            joint: joint::analyze(exact, test, &job.inputs, &config.joint),
        },
    }
}

/// The adversarial extraction range: tolerance + 5, as the pipeline
/// picks it.
fn extraction_delta(tolerance: &ToleranceReport, config: &AnalysisConfig) -> i64 {
    (tolerance.tolerance() + 5).clamp(1, config.max_delta)
}

/// Request id of one query in the span log: network, then input.
fn request(net: usize, input: usize) -> u64 {
    (net as u64) << 16 | input as u64
}

/// Runs `f` once per input of `job`, fanned over two threads by the
/// core's `par::ordered_map`, each call inside a span; returns the
/// results and each call's timing, in input order.
fn fan<T: Send>(
    job: &Job,
    index: usize,
    name: &'static str,
    spans: &Spans,
    parent: Option<SpanId>,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, Vec<Timing>) {
    par::ordered_map(&job.inputs, THREADS, |&i| {
        spans
            .time(name, parent, request(index, i), || steal::time(|| f(i)))
            .0
    })
    .into_iter()
    .unzip()
}

/// The single per-input entry of a report over a one-input slice.
fn only<T>(mut per_input: Vec<T>) -> T {
    assert_eq!(per_input.len(), 1, "one input per query");
    per_input.pop().expect("one input")
}

/// One timed pass over a job; pushes one timing per input on
/// noise-analysis and one per tolerance query on fault-analysis.
fn pass(
    kind: Kind,
    index: usize,
    job: &Job,
    config: &AnalysisConfig,
    spans: &Spans,
    latencies: &mut Vec<Timing>,
) -> Outcome {
    let (exact, test) = (&job.net.exact, &job.net.test);
    let parent = spans.open("analysis.pass", None, request(index, 0xFFFF));
    // One query per input: the core entry point on a one-input slice
    // with one thread; the fan-out is the core's own.
    let outcome = match kind {
        Kind::Noise => {
            let (radii, radius_t) = fan(job, index, "core.tolerance", spans, parent, |i| {
                only(
                    tolerance::par_analyze(exact, test, &[i], config.max_delta, &config.checker, 1)
                        .per_input,
                )
            });
            let tolerance = ToleranceReport {
                max_delta: config.max_delta,
                per_input: radii,
            };
            let delta = extraction_delta(&tolerance, config);
            let (vectors, vector_t) = fan(job, index, "core.adversarial", spans, parent, |i| {
                let cap = config.per_input_cap;
                only(
                    adversarial::par_extract(exact, test, &[i], delta, cap, &config.checker, 1)
                        .per_input,
                )
            });
            // An input's latency is its tolerance query plus its
            // extraction query.
            latencies.extend(radius_t.iter().zip(&vector_t).map(|(a, b)| a.then(*b)));
            let adversarial = AdversarialReport {
                delta,
                per_input: vectors,
            };
            let request = request(index, 0xFFFF);
            let (bias, _) = spans.time("core.bias", parent, request, || {
                bias::analyze(&adversarial, &tolerance, &job.net.train)
            });
            let (sensitivity, _) = spans.time("core.sensitivity", parent, request, || {
                sensitivity::analyze(&adversarial)
            });
            Outcome::Noise {
                tolerance,
                adversarial,
                bias,
                sensitivity,
            }
        }
        Kind::Fault => {
            let one_fault = FaultAnalysisConfig {
                input_threads: 1,
                ..config.fault.clone()
            };
            let (eps, eps_t) = fan(job, index, "core.faults", spans, parent, |i| {
                only(faults::analyze(exact, test, &[i], &one_fault).per_input)
            });
            latencies.extend(eps_t);
            // One joint query per (input, δ) of the frontier's axis.
            let mut joint: Vec<InputJointFrontier> = eps
                .iter()
                .map(|e| InputJointFrontier {
                    index: e.index,
                    label: e.label,
                    per_delta: Vec::new(),
                })
                .collect();
            for &delta in &config.joint.deltas {
                let one_joint = JointAnalysisConfig {
                    deltas: vec![delta],
                    input_threads: 1,
                    ..config.joint.clone()
                };
                let (frontiers, frontier_t) = fan(job, index, "core.joint", spans, parent, |i| {
                    only(joint::analyze(exact, test, &[i], &one_joint).per_input).per_delta
                });
                latencies.extend(frontier_t);
                for (row, eps) in joint.iter_mut().zip(frontiers) {
                    row.per_delta.extend(eps);
                }
            }
            let classes = test.class_counts().len();
            Outcome::Fault {
                fault: FaultReport {
                    search: config.fault.search,
                    classes,
                    per_input: eps,
                },
                joint: JointFrontierReport {
                    deltas: config.joint.deltas.clone(),
                    search: config.joint.search,
                    classes,
                    per_input: joint,
                },
            }
        }
    };
    spans.close(parent);
    outcome
}

/// Cycles over the whole family until the budget is spent; only
/// complete cycles count, so every seed's timing covers its whole
/// family whatever the speed. Another cycle starts only if half of one
/// still fits, so a run overshoots its budget by half a cycle at most
/// on average.
///
/// Each pass records into one of `arms`, network `j` of cycle `k` into
/// arm `(j + k) % arms.len()`, and at least one cycle runs per arm, so
/// with two arms every network is analysed under both.
///
/// A pass's seconds are its wall time less the steal its queries lost,
/// shared over the threads that ran them (see `steal`); a cycle's are
/// the sum of its passes'.
struct Loop {
    /// Seconds of each complete cycle over the family.
    cycles: Vec<f64>,
    latencies: Vec<Timing>,
    /// Seconds of each pass, by network and arm.
    passes: Vec<Vec<Vec<f64>>>,
}

impl Loop {
    /// Passes recorded into `arm`.
    fn passes_in(&self, arm: usize) -> usize {
        self.passes.iter().map(|by_arm| by_arm[arm].len()).sum()
    }

    /// Seconds of a pass over the whole family in `arm`: the sum over
    /// networks of each one's median pass.
    fn family_seconds(&self, arm: usize) -> f64 {
        self.passes.iter().map(|by_arm| median(&by_arm[arm])).sum()
    }
}

fn run_loop(
    kind: Kind,
    jobs: &[Job],
    references: &mut [Option<Outcome>],
    config: &AnalysisConfig,
    arms: &[&Spans],
    budget: Duration,
    checks: &mut Checks,
) -> Loop {
    let mut out = Loop {
        cycles: Vec::new(),
        latencies: Vec::new(),
        passes: vec![vec![Vec::new(); arms.len()]; jobs.len()],
    };
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while out.cycles.len() < arms.len() || start.elapsed() + last / 2 < budget {
        let cycle = Instant::now();
        let mut cycle_s = 0.0;
        for (index, (job, want)) in jobs.iter().zip(references.iter_mut()).enumerate() {
            let arm = (index + out.cycles.len()) % arms.len();
            let (queries, began) = (out.latencies.len(), Instant::now());
            let got = pass(kind, index, job, config, arms[arm], &mut out.latencies);
            let wall = began.elapsed().as_secs_f64();
            let stolen: f64 = out.latencies[queries..].iter().map(Timing::stolen).sum();
            let seconds = wall - stolen / THREADS.min(job.inputs.len()).max(1) as f64;
            out.passes[index][arm].push(seconds);
            cycle_s += seconds;
            match want {
                Some(want) => check(&got, want, checks),
                None => *want = Some(got),
            }
        }
        last = cycle.elapsed();
        out.cycles.push(cycle_s);
    }
    out
}

pub fn run(kind: Kind, run: &Run) -> (Metrics, Checks) {
    let config = config();
    let (jobs, setup_s) = setup(kind, run.seed);
    let mut checks = Checks::default();
    checks.count(nets::paper_tolerance_holds(run.seed, &jobs[0].net));
    eprintln!(
        "fanbench: {} networks, fingerprint {}",
        jobs.len(),
        fingerprint(&jobs)
    );
    let checked = &jobs[..REFERENCE_NETS.min(jobs.len())];
    let batch: Vec<Outcome> = checked
        .iter()
        .map(|job| reference(kind, job, &config))
        .collect();
    let mut references: Vec<Option<Outcome>> = batch.iter().cloned().map(Some).collect();
    references.resize(jobs.len(), None);

    // A traced run alternates passes with spans on and off (`Loop`);
    // comparing the two gives the trace's overhead.
    let spans = Spans::new(run.trace);
    let untraced = Spans::new(false);
    let arms: &[&Spans] = if run.trace {
        &[&spans, &untraced]
    } else {
        &[&spans]
    };
    let budget = Duration::from_secs_f64(if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    });
    let timed = run_loop(
        kind,
        &jobs,
        &mut references,
        &config,
        arms,
        budget,
        &mut checks,
    );

    let mut m = Metrics::default();
    if !run.trace {
        // Rates over the median cycle: one cycle slowed by the machine
        // does not move them.
        let inputs: usize = jobs.iter().map(|job| job.inputs.len()).sum();
        let cycle_s = median(&timed.cycles);
        let inputs_per_s = ratio(inputs as f64, cycle_s);
        let queries_per_s = ratio((timed.latencies.len() / timed.cycles.len()) as f64, cycle_s);
        let latency_ms: Vec<f64> = timed.latencies.iter().map(|t| t.latency * 1e3).collect();
        let p50 = percentile(&latency_ms, 50.0, "query latency");
        let p99 = percentile(&latency_ms, 99.0, "query latency");
        let stolen_s: f64 = timed.latencies.iter().map(Timing::stolen).sum();
        let unseparated = timed.latencies.iter().filter(|t| !t.separated).count();
        // A closed loop has one operating point (saturation); it is
        // reported under every load level.
        for &(_, _, p50_name, p99_name) in &crate::serve::LEVELS {
            m.set(p50_name, p50);
            m.set(p99_name, p99);
        }
        m.set("setup_s", setup_s);
        m.set("inputs_per_s", inputs_per_s);
        m.set("max_rps", queries_per_s);
        println!(
            "{{\"workload\":\"{}\",\"seed\":{},\"networks\":{},\"inputs_per_pass\":{},\"passes\":{},\"queries\":{},\"seconds\":{},\"stolen_s\":{},\"unseparated\":{}}}",
            kind.name(),
            run.seed,
            jobs.len(),
            ratio(inputs as f64, jobs.len() as f64),
            timed.passes_in(0),
            timed.latencies.len(),
            timed.cycles.iter().sum::<f64>(),
            stolen_s,
            unseparated
        );
        return (m, checks);
    }

    crate::zero_all(&mut m);
    m.set("setup.casestudy_s", setup_s);
    let own = spans.self_seconds();
    let per_pass = |name: &str| {
        ratio(
            own.get(name).copied().unwrap_or(0.0),
            timed.passes_in(0) as f64,
        )
    };
    m.set("core.tolerance_s", per_pass("core.tolerance"));
    m.set("core.adversarial_s", per_pass("core.adversarial"));
    m.set("core.bias_s", per_pass("core.bias"));
    m.set("core.sensitivity_s", per_pass("core.sensitivity"));
    m.set("core.faults_s", per_pass("core.faults"));
    m.set("core.joint_s", per_pass("core.joint"));

    m.set(
        "obs.trace_overhead_frac",
        ratio(timed.family_seconds(0), timed.family_seconds(1)) - 1.0,
    );
    match kind {
        Kind::Noise => {
            let (stats, boxes) = noise_replay(checked, &batch, &config, &spans, &mut checks);
            set_verify(&mut m, &stats);
            let k = kernel::noise(&boxes);
            m.set("kernel.float_ns_per_box", k.float);
            m.set("kernel.batch_ns_per_box", k.batch);
            m.set("kernel.zonotope_ns_per_box", k.zonotope);
            m.set("kernel.exact_ns_per_box", k.exact);
        }
        Kind::Fault => {
            let (stats, unknown, boxes) =
                fault_replay(checked, &batch, &config, &spans, &mut checks);
            set_faults(&mut m, &stats, unknown);
            m.set("kernel.fault_ns_per_box", kernel::fault(&boxes));
        }
    }
    kernel::set_sizes(&mut m, &jobs[0].net.exact);
    if let Some(dir) = &run.out_dir {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", kind.name(), run.seed));
        if let Err(e) = spans.write_jsonl(&path) {
            eprintln!("fanbench: cannot write {}: {e}", path.display());
        }
    }
    (m, checks)
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Noise => "noise-analysis",
            Kind::Fault => "fault-analysis",
        }
    }
}

fn fingerprint(jobs: &[Job]) -> String {
    nets::family_fingerprint(jobs.iter().map(|job| &job.net))
}

/// Replays every tolerance bisection of `jobs` through
/// `RegionChecker::check_region_timed` with tier timing on, asserting
/// each radius equals the reference; returns the merged search stats and
/// the probed boxes.
fn noise_replay<'j>(
    jobs: &'j [Job],
    references: &[Outcome],
    config: &AnalysisConfig,
    spans: &Spans,
    checks: &mut Checks,
) -> (SearchStats, Vec<NoiseBox<'j>>) {
    let timer = TierTimer::enabled();
    let mut stats = SearchStats::default();
    let mut boxes = Vec::new();
    for (index, (job, reference)) in jobs.iter().zip(references).enumerate() {
        let Outcome::Noise { tolerance, .. } = reference else {
            unreachable!("noise references")
        };
        let net = &job.net.exact;
        let checker = RegionChecker::new(net, config.checker.clone());
        let results = par::ordered_map(&job.inputs, THREADS, |&i| {
            let x = rational_input(&job.net.test.samples()[i]);
            let label = job.net.test.labels()[i];
            let parent = spans.open("verify.bisect", None, request(index, i));
            let mut stats = SearchStats::default();
            let mut probes = Vec::new();
            let mut has_ce = |delta: i64| {
                let region = NoiseRegion::symmetric(delta, x.len());
                let ((outcome, probe), _) =
                    spans.time("verify.check", parent, request(index, i), || {
                        checker
                            .check_region_timed(&x, label, &region, &ExclusionSet::new(), timer)
                            .expect("widths match the network")
                    });
                stats.merge(&probe);
                probes.push(region);
                !outcome.is_robust()
            };
            // The bisection of `tolerance::robustness_radius_on`.
            let radius = if has_ce(config.max_delta) {
                let (mut lo, mut hi) = (0, config.max_delta);
                while hi - lo > 1 {
                    let mid = lo + (hi - lo) / 2;
                    if has_ce(mid) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                Some(hi)
            } else {
                None
            };
            spans.close(parent);
            (x, label, radius, stats, probes)
        });
        for ((x, label, radius, probe_stats, probes), want) in
            results.into_iter().zip(&tolerance.per_input)
        {
            checks.count(radius == want.radius);
            stats.merge(&probe_stats);
            boxes.extend(probes.into_iter().map(|region| NoiseBox {
                net,
                x: x.clone(),
                label,
                region,
            }));
        }
    }
    (stats, boxes)
}

pub fn set_verify(m: &mut Metrics, s: &SearchStats) {
    let f = |v: u64| v as f64;
    m.set("verify.boxes", f(s.boxes_visited));
    m.set("verify.splits", f(s.splits));
    m.set("search.depth_max", f(s.depth_high_water));
    let interval = f(s.interval_hits + s.interval_fallbacks);
    let zonotope = f(s.zonotope_hits + s.zonotope_fallbacks);
    m.set("verify.interval.yield", ratio(f(s.interval_hits), interval));
    m.set("verify.zonotope.yield", ratio(f(s.zonotope_hits), zonotope));
    // Non-point boxes every screen left undecided reach the exact
    // interval pass; those it does not decide are split.
    let exact_boxes = f(s.screen_fallbacks.saturating_sub(s.exact_evals));
    m.set(
        "verify.exact.yield",
        ratio(exact_boxes - f(s.splits), exact_boxes),
    );
    m.set(
        "verify.interval.ns_per_box",
        ratio(f(s.interval_ns), interval),
    );
    m.set(
        "verify.zonotope.ns_per_box",
        ratio(f(s.zonotope_ns), zonotope),
    );
    m.set(
        "verify.exact.ns_per_box",
        ratio(f(s.exact_ns), f(s.screen_fallbacks)),
    );
}

/// Replays every fault and joint bisection of `jobs` probe by probe
/// through `FaultChecker`/`JointChecker::check_timed`, asserting each
/// certified ε equals the reference; returns merged stats, the number of
/// probes that ended `Unknown` (with the probe count) and the probed
/// fault boxes.
fn fault_replay<'j>(
    jobs: &'j [Job],
    references: &[Outcome],
    config: &AnalysisConfig,
    spans: &Spans,
    checks: &mut Checks,
) -> (SearchStats, (u64, u64), Vec<FaultBox<'j>>) {
    let timer = TierTimer::enabled();
    let mut stats = SearchStats::default();
    let (mut unknown, mut probes_total) = (0, 0);
    let mut boxes = Vec::new();
    for (index, (job, reference)) in jobs.iter().zip(references).enumerate() {
        let Outcome::Fault { fault, joint } = reference else {
            unreachable!("fault references")
        };
        let net = &job.net.exact;
        let fault_checker = FaultChecker::new(net.clone(), config.fault.checker.clone());
        let joint_checker = JointChecker::new(net.clone(), config.joint.checker.clone());
        let results = par::ordered_map(&job.inputs, THREADS, |&i| {
            let x = rational_input(&job.net.test.samples()[i]);
            let label = job.net.test.labels()[i];
            let req = request(index, i);
            let mut stats = SearchStats::default();
            let (mut unknown, mut probes) = (0u64, 0u64);
            let mut probed: Vec<(i64, Rational)> = Vec::new();
            let model = |eps: Rational| FaultModel::WeightNoise { rel_eps: eps };
            let parent = spans.open("faults.bisect", None, req);
            let eps = fannet_search::tolerance_search(&config.fault.search, |eps| {
                let ((outcome, probe), _) = spans.time("faults.check", parent, req, || {
                    fault_checker
                        .check_timed(&x, label, &model(eps), timer)
                        .expect("widths match the network")
                });
                stats.merge(&probe);
                probes += 1;
                unknown += u64::from(matches!(outcome, FaultOutcome::Unknown));
                probed.push((0, eps));
                Ok::<_, String>(outcome.is_robust())
            })
            .expect("probes do not fail");
            spans.close(parent);
            let frontier: Vec<Option<Rational>> = config
                .joint
                .deltas
                .iter()
                .map(|&delta| {
                    let noise = NoiseRegion::symmetric(delta, x.len());
                    let parent = spans.open("joint.bisect", None, req);
                    let result = fannet_search::tolerance_search(&config.joint.search, |eps| {
                        let ((outcome, probe), _) = spans.time("joint.check", parent, req, || {
                            joint_checker
                                .check_timed(&x, label, &noise, &model(eps), timer)
                                .expect("widths match the network")
                        });
                        stats.merge(&probe);
                        probes += 1;
                        unknown += u64::from(matches!(outcome, JointOutcome::Unknown));
                        probed.push((delta, eps));
                        Ok::<_, String>(outcome.is_robust())
                    })
                    .expect("probes do not fail");
                    spans.close(parent);
                    result.robust_eps
                })
                .collect();
            (x, eps.robust_eps, frontier, stats, unknown, probes, probed)
        });
        for (((x, eps, frontier, probe_stats, u, p, probed), want_fault), want_joint) in results
            .into_iter()
            .zip(&fault.per_input)
            .zip(&joint.per_input)
        {
            checks.count(eps == want_fault.robust_eps);
            checks.count(frontier == want_joint.per_delta);
            stats.merge(&probe_stats);
            unknown += u;
            probes_total += p;
            boxes.extend(probed.into_iter().map(|(delta, eps)| FaultBox {
                net,
                x: x.clone(),
                delta,
                eps,
            }));
        }
    }
    (stats, (unknown, probes_total), boxes)
}

fn set_faults(m: &mut Metrics, s: &SearchStats, (unknown, probes): (u64, u64)) {
    let f = |v: u64| v as f64;
    m.set("faults.boxes", f(s.boxes_visited));
    m.set("faults.unknown_frac", ratio(f(unknown), f(probes)));
    m.set(
        "faults.interval.yield",
        ratio(
            f(s.interval_hits),
            f(s.interval_hits + s.interval_fallbacks),
        ),
    );
    m.set(
        "faults.zonotope.yield",
        ratio(
            f(s.zonotope_hits),
            f(s.zonotope_hits + s.zonotope_fallbacks),
        ),
    );
    m.set(
        "faults.exact.yield",
        ratio(
            f(s.exact_decisions),
            f(s.exact_decisions + s.exact_fallbacks),
        ),
    );
    m.set(
        "faults.ns_per_box",
        ratio(
            f(s.interval_ns + s.zonotope_ns + s.exact_ns),
            f(s.boxes_visited),
        ),
    );
}
