//! The two workloads and the run loop they share.
//!
//! A run sets the workload up, builds its correctness oracle once, then
//! repeats the workload's unit of work for `--seconds`, checking every
//! output it times. Between steps it sets the workload up again, spread
//! evenly over the timed phase; the median of all set-ups is `setup_s`.
//! A traced run splits that time into an untraced and a traced half
//! (their `fast_us` ratio is the tracing overhead) and then replays each
//! layer on the workload's own shapes for the per-layer metrics.

use std::time::Instant;

use serde::json::Value as Json;
use yoloc_core::{CompileOptions, CompiledNetwork};
use yoloc_models::NetworkDesc;
use yoloc_tensor::Tensor;

use crate::metrics::{self, Metric};
use crate::probe::{self, median, percentile};
use crate::replay::{replay_net, zoo_shapes, InferLayers};
use crate::trace::Tracer;
use crate::Values;

pub mod rebranch;
pub mod yolo;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// darknet19 and yolo-v2 single-sample inference.
    Yolo,
    /// A ReBranch network on the ROM + SRAM CiM domains.
    Rebranch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Yolo, Workload::Rebranch];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Yolo => "yolo",
            Workload::Rebranch => "rebranch",
        }
    }

    /// Why the workload exists (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Yolo => "the paper's detection nets (darknet19, yolo-v2) in warm single-sample inference: qconv staging and cim kernels do most of the work",
            Workload::Rebranch => "a ReBranch network deployed with CimDeployedModel: the only path through ReBranch plan ops and the SRAM-CiM domain, the paper's central mechanism",
        }
    }

    /// Parses a `--workload` name.
    pub fn from_name(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Seed every input of the run is generated from.
    pub seed: u64,
    /// Seconds the timed phase lasts.
    pub seconds: f64,
    /// Whether to record spans and report per-layer metrics.
    pub trace: bool,
    /// Shrinks set-up repeats, traces and replays to a few iterations
    /// (the benchmark's own tests).
    pub smoke: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> [--seconds <s>] [--trace 0|1]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first unknown, missing or malformed
    /// argument.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) =
            (None, None, metrics::RUN_SECONDS as f64, false);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--seed {value:?} is not a u64"))?,
                    )
                }
                "--seconds" => {
                    seconds = value
                        .parse()
                        .map_err(|_| format!("--seconds {value:?} is not a number"))?;
                    if !(0.0..=3600.0).contains(&seconds) {
                        return Err(format!("--seconds {value} out of range 0..=3600"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value:?} must be 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
            smoke: false,
        })
    }
}

/// One unit-of-work step of a workload's timed loop.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Which network / sample group the step belongs to (percentiles are
    /// taken per group, then averaged).
    pub group: usize,
    /// Host time of the timed calls, ns.
    pub ns: u64,
    /// Units of work the step completed.
    pub units: u64,
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
}

/// A workload: set-up, oracle, one timed step, per-layer replay.
pub trait Bench: Sized {
    /// Compile/deploy plus warm-up — the work `setup_s` times.
    fn setup(args: &Args) -> Self;
    /// Builds the references every timed output is checked against
    /// (untimed). Returns `(attempted, failed)` of checks it runs itself.
    fn oracle(&mut self) -> (u64, u64);
    /// Number of step groups.
    fn groups(&self) -> usize;
    /// Runs and checks step `i`.
    fn step(&mut self, tr: &mut Tracer, i: u64) -> Step;
    /// Per-layer metrics from a replay on the workload's own shapes;
    /// `unit_us` is the untraced median time of one unit of work (the replays
    /// report medians too). Also returns `(attempted, failed)` of checks
    /// the replay runs.
    fn layers(&mut self, tr: &mut Tracer, reps: usize, unit_us: f64) -> (Values, (u64, u64));
}

/// Set-ups per run; `setup_s` is their median. All but the first run
/// between steps of the timed phase, spread evenly over it: other tenants
/// slow this host in phases of seconds to minutes, and set-ups in one
/// burst would all land in the same phase.
const SETUPS: usize = 9;
/// How much slower than its group's fastest step the step before a set-up
/// may be. Set-ups are timed where the workload's own steps show the host
/// uncontended, as `fast_us` is.
const CALM: f64 = 1.2;
/// The percentile `fast_us` takes of a group of `samples`: the lowest one
/// with at least ten samples below it, kept between p0.1 and the median.
/// On a shared host other tenants slow this work by up to 1.7x, in bursts
/// of milliseconds and in stretches of seconds to minutes. With thousands
/// of samples a run the lowest percentiles (the uncontended speed) moved
/// less between runs than the median; with 7-15 samples a run the minimum
/// moved more.
fn fast_percentile(samples: usize) -> f64 {
    (100.0 * 10.0 / samples as f64).clamp(0.1, 50.0)
}
/// Repeats of each per-layer replay (odd, so the median is a sample).
const REPLAY_REPS: usize = 31;

/// What one timed phase measured.
#[derive(Debug, Default)]
struct Phase {
    /// Per-unit host ns samples, by group.
    samples: Vec<Vec<f64>>,
    units: u64,
    ns: u64,
    steps: u64,
    attempted: u64,
    failed: u64,
}

impl Phase {
    /// Percentile `p(group size)` of one unit of work, µs: the mean over
    /// groups of the per-group percentile (a percentile of the pooled
    /// mixture of two networks would sit in the gap between them).
    fn percentile_us(&self, p: impl Fn(usize) -> f64) -> f64 {
        let groups: Vec<f64> = self
            .samples
            .iter()
            .filter(|g| !g.is_empty())
            .map(|g| percentile(g, p(g.len())) / 1e3)
            .collect();
        groups.iter().sum::<f64>() / groups.len() as f64
    }

    fn per_s(&self) -> f64 {
        self.units as f64 / (self.ns as f64 / 1e9)
    }

    fn pooled_us(&self) -> Vec<f64> {
        self.samples.iter().flatten().map(|ns| ns / 1e3).collect()
    }
}

/// Times one set-up of the workload, s.
fn time_setup<B: Bench>(args: &Args) -> (B, f64) {
    let t = Instant::now();
    let b = B::setup(args);
    (b, t.elapsed().as_secs_f64())
}

/// Repeats steps until `seconds` of wall time pass and every group has a
/// sample. Times `setups.1` more set-ups between steps, evenly spread, and
/// appends them to `setups.2`. A set-up that is due waits for a step no
/// slower than [`CALM`] times its group's fastest so far; set-ups still
/// outstanding when the phase ends run then.
fn phase<B: Bench>(
    bench: &mut B,
    tr: &mut Tracer,
    seconds: f64,
    first: u64,
    setups: (&Args, usize, &mut Vec<f64>),
) -> Phase {
    let (args, more, setup_s) = setups;
    let mut p = Phase {
        samples: vec![Vec::new(); bench.groups()],
        ..Phase::default()
    };
    let start = Instant::now();
    let mut fastest = vec![f64::INFINITY; bench.groups()];
    let mut done = 0;
    while p.steps < bench.groups() as u64 || start.elapsed().as_secs_f64() < seconds {
        let s = bench.step(tr, first + p.steps);
        let unit_ns = s.ns as f64 / s.units.max(1) as f64;
        fastest[s.group] = fastest[s.group].min(unit_ns);
        if done < more
            && start.elapsed().as_secs_f64() >= (done as f64 + 0.5) * seconds / more as f64
            && unit_ns <= CALM * fastest[s.group]
        {
            setup_s.push(time_setup::<B>(args).1);
            done += 1;
        }
        p.samples[s.group].push(unit_ns);
        p.units += s.units;
        p.ns += s.ns;
        p.steps += 1;
        p.attempted += s.attempted;
        p.failed += s.failed;
    }
    for _ in done..more {
        setup_s.push(time_setup::<B>(args).1);
    }
    p
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload that ran.
    pub workload: Workload,
    /// Checked operations.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Every measured metric.
    pub values: Values,
    /// Host facts and tail statistics of the run.
    pub facts: Json,
    /// Spans and totals of a traced run.
    pub trace: Option<Json>,
}

impl Outcome {
    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    /// A metric the workload's layers do not exercise reads 0.
    ///
    /// # Panics
    ///
    /// Panics when the workload failed to report a metric it exercises.
    pub fn result_json(&self, traced: bool) -> Json {
        let list: &[Metric] = if traced {
            metrics::PER_LAYER
        } else {
            metrics::END_TO_END
        };
        let metrics = list
            .iter()
            .map(|m| {
                let value = match self.values.get(m.name) {
                    Some(&v) => v,
                    None if !m.workloads.contains(&self.workload) => 0.0,
                    None => panic!(
                        "workload {} did not report {}",
                        self.workload.name(),
                        m.name
                    ),
                };
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Runs one workload as `args` describe.
pub fn run(args: &Args) -> Outcome {
    match args.workload {
        Workload::Yolo => run_bench::<yolo::Yolo>(args),
        Workload::Rebranch => run_bench::<rebranch::Rebranch>(args),
    }
}

fn run_bench<B: Bench>(args: &Args) -> Outcome {
    // Host facts first: the oracle temporarily forces the scalar tier.
    let kernel_tier = probe::kernel_tier();
    let (mut bench, first_setup) = time_setup::<B>(args);
    let mut setup_s = vec![first_setup];
    let more = if args.smoke { 0 } else { SETUPS - 1 };
    let (mut attempted, mut failed) = bench.oracle();

    let mut tr = Tracer::new(false);
    let mut values = Values::new();
    let main = if args.trace {
        let untraced = phase(
            &mut bench,
            &mut tr,
            args.seconds / 2.0,
            0,
            (args, more, &mut setup_s),
        );
        tr.set_on(true);
        let traced = phase(
            &mut bench,
            &mut tr,
            args.seconds / 2.0,
            untraced.steps,
            (args, 0, &mut setup_s),
        );
        values.insert(
            "trace.overhead_share",
            traced.percentile_us(fast_percentile) / untraced.percentile_us(fast_percentile) - 1.0,
        );
        attempted += traced.attempted;
        failed += traced.failed;
        let reps = if args.smoke { 3 } else { REPLAY_REPS };
        let (layers, (a, f)) = bench.layers(&mut tr, reps, untraced.percentile_us(|_| 50.0));
        values.extend(layers);
        attempted += a;
        failed += f;
        untraced
    } else {
        phase(
            &mut bench,
            &mut tr,
            args.seconds,
            0,
            (args, more, &mut setup_s),
        )
    };
    attempted += main.attempted;
    failed += main.failed;

    let pooled = main.pooled_us();
    let p99 = percentile(&pooled, 99.0);
    let tail = [
        ("tail.p50_us", main.percentile_us(|_| 50.0)),
        ("tail.p99_us", p99),
        ("tail.samples", pooled.len() as f64),
        (
            "tail.beyond_p99",
            pooled.iter().filter(|&&v| v > p99).count() as f64,
        ),
        ("tail.per_s", main.per_s()),
    ];
    values.extend(tail);
    values.insert("fast_us", main.percentile_us(fast_percentile));
    values.insert("setup_s", median(&setup_s));
    values.insert("peak_rss_mb", probe::peak_rss_mib());

    let facts = Json::obj([
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("host_parallelism", Json::UInt(probe::parallelism() as u64)),
        ("kernel_tier", Json::str(kernel_tier)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "error_rate",
            Json::Num(failed as f64 / attempted.max(1) as f64),
        ),
        (
            "setup_s_samples",
            Json::Arr(setup_s.iter().map(|&s| Json::Num(s)).collect()),
        ),
        (
            "tail",
            Json::Obj(
                tail.iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "network_p1_p5_p10_p50_us",
            Json::Arr(
                main.samples
                    .iter()
                    .map(|g| {
                        Json::Arr(
                            [1.0, 5.0, 10.0, 50.0]
                                .iter()
                                .map(|&q| Json::Num(percentile(g, q) / 1e3))
                                .collect(),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let trace = args
        .trace
        .then(|| Json::obj([("facts", facts.clone()), ("spans", tr.to_json())]));
    Outcome {
        workload: args.workload,
        attempted,
        failed,
        values,
        facts,
        trace,
    }
}

/// Compiles a zoo network with the paper defaults and seeded weights.
pub(crate) fn compile(desc: &NetworkDesc, seed: u64) -> CompiledNetwork {
    CompiledNetwork::compile_random(desc, seed, CompileOptions::paper_default())
        .expect("zoo network compiles")
}

/// Per-layer replay of compiled zoo networks `(desc, net, input)`: the
/// mean of their inference layers, compile time, plan ops and packed
/// subarrays.
fn zoo_layers(
    tr: &mut Tracer,
    nets: &[(&NetworkDesc, &CompiledNetwork, &Tensor)],
    seed: u64,
    reps: usize,
) -> (Values, InferLayers) {
    let tiles = CompileOptions::paper_default().memory.clusters();
    let k = nets.len() as f64;
    let mut v = Values::new();
    let mut per_net = Vec::new();
    for (i, &(desc, net, x)) in nets.iter().enumerate() {
        let id = i as u64;
        per_net.push(replay_net(
            tr,
            id,
            net.plan(),
            x,
            &zoo_shapes(desc, tiles),
            seed,
            reps,
        ));
        let compiles: Vec<f64> = (0..reps.div_ceil(8))
            .map(|_| tr.time("compiler.compile", id, || compile(desc, seed)).1 as f64 / 1e6)
            .collect();
        *v.entry("compiler.compile_ms").or_default() += median(&compiles) / k;
        *v.entry("compiler.plan_ops").or_default() += net.plan().len() as f64 / k;
        *v.entry("mapping.subarrays_packed").or_default() +=
            net.mapping.subarrays_packed as f64 / k;
    }
    let mean = InferLayers::mean(&per_net);
    mean.insert_into(&mut v);
    (v, mean)
}
