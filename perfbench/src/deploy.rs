//! The deploy replay of the `yolo` workload's traced run: the five engine
//! zoo networks plus a darknet19 compiled against a seeded fault map
//! (stuck bits, dead subarrays, ADC faults, hot spares). A cycle deploys
//! every network cold (compile, serialize, store into a fresh on-disk
//! `PlanCache`) and then warm (a second `PlanCache` on the same
//! directory); each deploy is checked with one sample afterwards. Then
//! serialization, JSON parsing and the rebuild from the parsed plan are
//! timed on their own.
//!
//! A cycle takes seconds, almost all of it in the JSON parser, so it
//! yields too few samples in a timed phase for a steady end-to-end
//! figure; these are per-layer metrics only.

use std::fs;
use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::json::Value as Json;
use yoloc_cim::FaultSpec;
use yoloc_core::compiler::cache::PlanCache;
use yoloc_core::compiler::compile_count;
use yoloc_core::{CompileOptions, CompiledNetwork, FaultConfig};
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

use crate::probe::{inference_digest, median, with_scalar_kernels};
use crate::trace::Tracer;
use crate::Values;

/// Hot spares of the fault-aware compile.
const SPARES: u64 = 4;

/// The networks and compile options of one cycle, generated from `seed`:
/// the five engine zoo networks, then darknet19 on a faulty fabric.
pub fn networks(seed: u64) -> Vec<(NetworkDesc, CompileOptions)> {
    let darknet = zoo::scaled(&zoo::darknet19(8), 16, (64, 64));
    let mut nets: Vec<_> = [
        zoo::scaled(&zoo::vgg8(10), 16, (16, 16)),
        zoo::scaled(&zoo::resnet18(10), 16, (32, 32)),
        zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (64, 64)),
        darknet.clone(),
        zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
    ]
    .into_iter()
    .map(|d| (d, CompileOptions::paper_default()))
    .collect();
    let mut faulty = CompileOptions::paper_default();
    faulty.faults = Some(FaultConfig::sized(
        FaultSpec {
            stuck_rate: 0.02,
            dead_subarray_rate: 0.10,
            adc_fault_rate: 0.05,
            ..FaultSpec::uniform(seed ^ 0xFA17, 0.0)
        },
        SPARES,
    ));
    nets.push((darknet, faulty));
    nets
}

fn input(desc: &NetworkDesc, seed: u64, k: usize) -> Tensor {
    let (c, h, w) = desc.input;
    Tensor::rand_uniform(
        &[1, c, h, w],
        0.0,
        1.0,
        &mut StdRng::seed_from_u64(seed ^ (0xDE00 + k as u64)),
    )
}

fn one_sample(net: &CompiledNetwork, x: &Tensor) -> u64 {
    let (y, r) = net.infer(x, &mut StdRng::seed_from_u64(0));
    inference_digest(y.data(), &r)
}

/// Removes the cache directory on every way out.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// What one cold + warm deploy cycle measured.
struct Cycle {
    cold_ms: f64,
    warm_ms: f64,
    misses: u64,
    hits: u64,
    failed: u64,
}

/// One cold + warm pass over every network of `nets` in a fresh cache
/// under `dir`, checked against the `expect` digests.
fn cycle(
    tr: &mut Tracer,
    i: u64,
    dir: &Path,
    nets: &[(NetworkDesc, CompileOptions)],
    seed: u64,
    inputs: &[Tensor],
    expect: &[u64],
) -> Cycle {
    let _ = fs::remove_dir_all(dir);
    let span = tr.begin("deploy.cycle", i);
    let (mut cold, mut warm, mut counted) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cold_ns, mut warm_ns) = (0, 0);
    let cache = PlanCache::at(dir);
    for (k, (desc, opts)) in nets.iter().enumerate() {
        let before = compile_count();
        let (net, ns) = tr.time("cache.cold_deploy", k as u64, || {
            cache.compile_random(desc, seed, opts.clone())
        });
        cold.push(net.expect("zoo network compiles"));
        cold_ns += ns;
        counted.push(compile_count() == before + 1 && cache.misses() == k as u64 + 1);
    }
    let misses = cache.misses();
    let cache = PlanCache::at(dir);
    for (k, (desc, opts)) in nets.iter().enumerate() {
        let before = compile_count();
        let (net, ns) = tr.time("cache.warm_deploy", k as u64, || {
            cache.compile_random(desc, seed, opts.clone())
        });
        warm.push(net.expect("cached plan deploys"));
        warm_ns += ns;
        counted[k] &= compile_count() == before && cache.hits() == k as u64 + 1;
    }
    let hits = cache.hits();
    tr.end(span);
    let _ = fs::remove_dir_all(dir);
    let failed = (0..nets.len())
        .filter(|&k| {
            !(counted[k]
                && one_sample(&cold[k], &inputs[k]) == expect[k]
                && one_sample(&warm[k], &inputs[k]) == expect[k])
        })
        .count() as u64;
    Cycle {
        cold_ms: cold_ns as f64 / 1e6,
        warm_ms: warm_ns as f64 / 1e6,
        misses,
        hits,
        failed,
    }
}

/// Runs `cycles` checked deploy cycles over `seed`'s networks in a cache
/// under `root`, then times serialize, parse and rebuild of each plan
/// (medians of `reps`). Returns the serial, json and cache metrics and
/// the `(attempted, failed)` counts of the cycle checks.
pub fn layers(
    tr: &mut Tracer,
    seed: u64,
    cycles: usize,
    reps: usize,
    root: &Path,
) -> (Values, (u64, u64)) {
    let nets = networks(seed);
    let inputs: Vec<_> = nets
        .iter()
        .enumerate()
        .map(|(k, (d, _))| input(d, seed, k))
        .collect();
    // The oracle: one sample per network through the scalar tier.
    let expect: Vec<u64> = with_scalar_kernels(|| {
        nets.iter()
            .zip(&inputs)
            .map(|((desc, opts), x)| {
                let net = CompiledNetwork::compile_random(desc, seed, opts.clone())
                    .expect("zoo network compiles");
                one_sample(&net, x)
            })
            .collect()
    });
    let scratch = Scratch(root.join(format!("deploy-{}", std::process::id())));
    let (mut cold_ms, mut warm_ms, mut failed) = (Vec::new(), Vec::new(), 0);
    let mut hits_misses = (0, 0);
    for i in 0..cycles {
        let dir = scratch.0.join(format!("cycle-{i}"));
        let c = cycle(tr, i as u64, &dir, &nets, seed, &inputs, &expect);
        cold_ms.push(c.cold_ms);
        warm_ms.push(c.warm_ms);
        hits_misses = (c.hits, c.misses);
        failed += c.failed;
    }

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut v = Values::new();
    let (mut bytes, mut parse_ms) = (0.0, 0.0);
    for (k, (desc, opts)) in nets.iter().enumerate() {
        let id = k as u64;
        let mut timed = |name: &'static str, f: &mut dyn FnMut() -> u64| {
            median(
                &(0..reps)
                    .map(|_| ms(tr.time(name, id, &mut *f).1))
                    .collect::<Vec<_>>(),
            )
        };
        let net = CompiledNetwork::compile_random(desc, seed, opts.clone())
            .expect("zoo network compiles");
        let text = net.serialize_plan();
        let serialize = timed("serial.serialize_plan", &mut || {
            net.serialize_plan().len() as u64
        });
        let parse = timed("json.parse", &mut || u64::from(Json::parse(&text).is_ok()));
        let doc = Json::parse(&text).expect("plan text parses");
        let rebuild = timed("serial.from_plan_json", &mut || {
            u64::from(CompiledNetwork::from_plan_json(&doc).is_ok())
        });
        bytes += text.len() as f64;
        parse_ms += parse;
        *v.entry("serial.serialize_ms").or_default() += serialize;
        *v.entry("serial.deserialize_ms").or_default() += parse + rebuild;
        *v.entry("serial.rebuild_ms").or_default() += rebuild;
    }
    v.insert("serial.plan_bytes", bytes);
    v.insert("json.parse_ms", parse_ms);
    v.insert("json.parse_ns_per_byte", parse_ms * 1e6 / bytes);
    v.insert("cache.warm_lookup_ms", median(&warm_ms));
    v.insert("cache.cold_deploy_ms", median(&cold_ms));
    v.insert("cache.hits", hits_misses.0 as f64);
    v.insert("cache.misses", hits_misses.1 as f64);
    (v, ((cycles * nets.len()) as u64, failed))
}
