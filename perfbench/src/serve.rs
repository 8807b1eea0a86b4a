//! The serving replay of the `yolo` workload's traced run: the serving
//! tenant set (vgg8/16@16, resnet18/16@32, tiny-yolo/32@32) behind one
//! `Broker` with canary health checks, fed a seeded `LoadGen` trace
//! (Poisson 80k rps with a 120 us deadline, bursts of 20 per 120 us with a
//! 400 us deadline, a 10k->120k rps ramp) of 30 ms simulated time on a
//! 2-worker pool and the virtual clock.
//!
//! Arrivals are open loop in modeled time; the host replays the trace as
//! fast as it can. One `Broker::run` over the trace takes over a second of
//! host time, and other tenants of a shared host slow it by up to 1.7x in
//! stretches longer than that, so it yields no steady end-to-end figure;
//! these are per-layer metrics only.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoloc_core::engine::sample_stream_seed;
use yoloc_core::serve::{
    AdmissionPolicy, Arrival, ArrivalPattern, Broker, BrokerConfig, HealthConfig, LoadGen,
    ServeOutput, TenantConfig, TrafficSpec, VirtualClock,
};
use yoloc_core::{CompiledNetwork, WorkerPool};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

use crate::probe::{inference_digest, median, percentile, with_scalar_kernels};
use crate::trace::Tracer;
use crate::workloads::compile;
use crate::Values;

/// Broker worker lanes.
pub const WORKERS: usize = 2;
/// Simulated trace length, ns.
pub const DURATION_NS: u64 = 30_000_000;
/// Trace length of the benchmark's own smoke test, ns.
pub const SMOKE_DURATION_NS: u64 = 2_000_000;
/// Requests of the untimed warm-up run.
const WARMUP: usize = 256;
/// Requests of the capture run the oracle checks one by one.
const ORACLE_PREFIX: usize = 1024;
/// Most completed requests the sequential replay re-executes.
const REPLAY_REQUESTS: usize = 2000;

/// The resident tenants.
pub fn descs() -> Vec<NetworkDesc> {
    vec![
        zoo::scaled(&zoo::vgg8(8), 16, (16, 16)),
        zoo::scaled(&zoo::resnet18(8), 16, (32, 32)),
        zoo::scaled(&zoo::tiny_yolo(4, 2), 32, (32, 32)),
    ]
}

/// The traffic mix: a deadline-bound Poisson stream, a queue-flooding
/// bursty stream and a best-effort ramp, one per tenant.
pub fn specs() -> Vec<TrafficSpec> {
    vec![
        TrafficSpec {
            model: 0,
            pattern: ArrivalPattern::Poisson { rate_rps: 80_000.0 },
            deadline_ns: Some(120_000),
        },
        TrafficSpec {
            model: 1,
            pattern: ArrivalPattern::Bursty {
                period_ns: 120_000,
                burst: 20,
            },
            deadline_ns: Some(400_000),
        },
        TrafficSpec {
            model: 2,
            pattern: ArrivalPattern::Ramp {
                start_rps: 10_000.0,
                end_rps: 120_000.0,
            },
            deadline_ns: None,
        },
    ]
}

/// The arrival trace generated from `seed`.
pub fn trace(seed: u64, duration_ns: u64) -> Vec<Arrival> {
    LoadGen::new(seed).trace(&specs(), duration_ns)
}

fn broker_config(seed: u64, capture: bool) -> BrokerConfig {
    BrokerConfig {
        infer_seed: infer_seed(seed),
        batch_overhead_ns: 20_000,
        capture,
        health: Some(HealthConfig::default_serving()),
    }
}

fn infer_seed(seed: u64) -> u64 {
    seed ^ 0x5E12_F00D
}

/// Deploys `nets` on a fresh broker and runs `trace`, timing `Broker::run`.
fn serve(
    tr: &mut Tracer,
    id: u64,
    nets: &[CompiledNetwork],
    trace: &[Arrival],
    cfg: BrokerConfig,
) -> (ServeOutput, u64) {
    WorkerPool::with(WORKERS, |pool| {
        let mut broker = Broker::new(VirtualClock::new(), cfg);
        for (i, net) in nets.iter().enumerate() {
            let admission = if i % 2 == 0 {
                AdmissionPolicy::ShedOldest
            } else {
                AdmissionPolicy::RejectNew
            };
            broker.deploy(
                &net.name,
                net,
                TenantConfig {
                    queue_cap: 16,
                    admission,
                    max_batch: 8,
                    window_ns: 50_000,
                },
            );
        }
        tr.time("serve.run", id, || broker.run(trace, pool))
    })
}

fn request_input(net: &CompiledNetwork, a: &Arrival) -> Tensor {
    let (c, h, w) = net.input_shape();
    Tensor::rand_uniform(
        &[1, c, h, w],
        0.0,
        1.0,
        &mut StdRng::seed_from_u64(a.input_seed),
    )
}

fn accounted(out: &ServeOutput) -> bool {
    let r = &out.report;
    r.completed + r.shed + r.rejected + r.timed_out == r.offered
        && r.offered as usize == out.outcomes.len()
}

/// Serves `seed`'s trace of `duration_ns` `passes` times after an
/// untimed warm-up. The oracle serves a prefix with result capture on and
/// checks every captured request against a scalar-tier replay of it;
/// every timed pass must close the accounting identity and render the
/// same report as the first. Returns the serve metrics and the
/// `(attempted, failed)` counts of those checks.
pub fn layers(tr: &mut Tracer, seed: u64, duration_ns: u64, passes: usize) -> (Values, (u64, u64)) {
    let descs = descs();
    let nets: Vec<_> = descs.iter().map(|d| compile(d, seed)).collect();
    let trace = trace(seed, duration_ns);
    let mut quiet = Tracer::new(false);
    let _ = serve(
        &mut quiet,
        0,
        &nets,
        &trace[..WARMUP.min(trace.len())],
        broker_config(seed, false),
    );

    let (out, _) = serve(
        &mut quiet,
        0,
        &nets,
        &trace[..ORACLE_PREFIX.min(trace.len())],
        broker_config(seed, true),
    );
    let twins: Vec<_> = with_scalar_kernels(|| descs.iter().map(|d| compile(d, seed)).collect());
    let mut attempted = out.captures.len() as u64 + 1;
    let mut failed = u64::from(!accounted(&out));
    for cap in &out.captures {
        let a = &trace[cap.id as usize];
        let twin = &twins[a.model];
        let mut rng = StdRng::seed_from_u64(sample_stream_seed(infer_seed(seed), cap.id as usize));
        let (y, r) = twin.infer(&request_input(twin, a), &mut rng);
        failed +=
            u64::from(inference_digest(y.data(), &r) != inference_digest(&cap.logits, &cap.exec));
    }

    let mut run_s = Vec::new();
    let mut reference = None;
    let mut last = None;
    for i in 0..passes {
        let (out, ns) = serve(tr, i as u64, &nets, &trace, broker_config(seed, false));
        let rendered = out.report.render();
        let same = reference.get_or_insert_with(|| rendered.clone()) == &rendered;
        attempted += 1;
        failed += u64::from(!(accounted(&out) && same));
        run_s.push(ns as f64 / 1e9);
        last = Some(out);
    }
    let out = last.expect("at least one pass");
    let r = &out.report;

    let mut v = Values::new();
    let completed: Vec<_> = out
        .outcomes
        .iter()
        .filter_map(|o| o.latency_ns().map(|l| (o, l as f64 / 1e3)))
        .collect();
    let lat: Vec<f64> = completed.iter().map(|&(_, l)| l).collect();
    let batches = r.models.iter().map(|m| m.batches).sum::<u64>() as f64;
    v.insert("serve.offered", r.offered as f64);
    v.insert("serve.completed", r.completed as f64);
    v.insert("serve.shed", r.shed as f64);
    v.insert("serve.rejected", r.rejected as f64);
    v.insert("serve.timed_out", r.timed_out as f64);
    v.insert("serve.batches", batches);
    v.insert("serve.mean_batch", r.completed as f64 / batches);
    v.insert(
        "serve.max_queue_depth",
        r.models
            .iter()
            .map(|m| m.max_queue_depth)
            .max()
            .unwrap_or(0) as f64,
    );
    v.insert(
        "serve.canary_probes",
        out.health.iter().map(|h| h.probes).sum::<u64>() as f64,
    );
    v.insert("serve.modeled_p50_us", percentile(&lat, 50.0));
    v.insert("serve.modeled_p99_us", percentile(&lat, 99.0));
    v.insert(
        "serve.goodput",
        out.outcomes.iter().filter(|o| o.deadline_hit()).count() as f64 / r.offered as f64,
    );

    // Sequential infer_in replay of (a stride through) the completed
    // requests: the execution time the broker fans out.
    let stride = completed.len().div_ceil(REPLAY_REQUESTS).max(1);
    let mut arenas: Vec<_> = nets.iter().map(|n| n.take_arena()).collect();
    let mut exec_ns = Vec::new();
    for &(o, _) in completed.iter().step_by(stride) {
        let a = &trace[o.id as usize];
        let net = &nets[a.model];
        let x = request_input(net, a);
        let mut rng = StdRng::seed_from_u64(sample_stream_seed(infer_seed(seed), o.id as usize));
        exec_ns.push(
            tr.time("serve.replay_infer_in", o.id, || {
                net.infer_in(&x, &mut rng, &mut arenas[a.model])
                    .1
                    .latency_ns
            })
            .1 as f64,
        );
    }
    for (net, arena) in nets.iter().zip(arenas) {
        net.give_arena(arena);
    }
    let exec_us = exec_ns.iter().sum::<f64>() / exec_ns.len() as f64 / 1e3;
    let run_s = median(&run_s);
    v.insert("serve.run_s", run_s);
    v.insert("serve.exec_us_per_req", exec_us);
    v.insert(
        "serve.parallel_efficiency",
        exec_us * r.completed as f64 / (run_s * 1e6 * WORKERS as f64),
    );
    (v, (attempted, failed))
}
