//! The metric registry: every metric the benchmark reports, with its
//! unit, direction, layer and the end-to-end metric it should move.
//!
//! `BENCHMARK.json` at the repository root is rendered from this table
//! (`perfbench --manifest`), and the contract tests check the two agree,
//! so a metric is named in exactly one place.

use serde::json::Value as Json;

use crate::workloads::Workload;

/// Whether a smaller or a larger value is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, bytes, energy, failures).
    Lower,
    /// Larger is better (throughput, hits, efficiency).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Stable name (`[A-Za-z0-9_.-]+`).
    pub name: &'static str,
    /// Unit as printed next to every value.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
    /// The repository layer the metric measures (`e2e` for end-to-end).
    pub layer: &'static str,
    /// Workloads that exercise the layer; every other workload reports 0
    /// (the layer does no work there).
    pub workloads: &'static [Workload],
    /// What is measured, and which end-to-end metric it should move on
    /// which workload.
    pub about: &'static str,
}

use Better::{Higher, Lower};
use Workload::{Rebranch, Yolo};

const ALL: &[Workload] = &[Yolo, Rebranch];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        layer: "e2e",
        workloads: ALL,
        about,
    }
}

#[allow(clippy::too_many_arguments)]
const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    layer: &'static str,
    workloads: &'static [Workload],
    about: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        layer,
        workloads,
        about,
    }
}

/// End-to-end metrics, reported by every untraced run of every workload.
pub const END_TO_END: &[Metric] = &[
    e2e("fast_us", "us", Lower, 0.25,
        "host time of one warm single-sample inference at the lowest percentile with ten samples below it, kept between p0.1 and the median (p0.1 in a full-length run), mean over the workload's networks"),
    e2e("setup_s", "s", Lower, 0.25,
        "median over nine set-ups (compile/deploy plus warm-up): one before the timed phase, eight spread over it, each after a step no slower than 1.2x the fastest so far; oracle preparation is excluded"),
    e2e("peak_rss_mb", "MiB", Lower, 0.1,
        "peak resident memory (VmHWM) of the benchmark process"),
];

/// Per-layer metrics, reported by traced runs (`--trace 1`).
pub const PER_LAYER: &[Metric] = &[
    // cim: RomMvm kernels, replayed on the workload's lowered shapes.
    layer("cim.mvm_batch_us", "us", Lower, "cim", ALL,
        "RomMvm batched MVM per inference, replayed on every lowered (outs, ins) shape at the per-call width the plan uses -> fast_us on yolo (large share), rebranch"),
    layer("cim.mvm_calls", "count", Lower, "cim", ALL, "batched MVM calls per inference"),
    layer("cim.macs", "count", Lower, "cim", ALL, "multiply-accumulates per inference"),
    layer("cim.ns_per_mac", "ns", Lower, "cim", ALL, "cim.mvm_batch_us per MAC -> fast_us on yolo"),
    layer("cim.program_ms", "ms", Lower, "cim", ALL,
        "RomMvm::program over the workload's shapes -> setup_s everywhere"),
    layer("cim.energy_uj", "uJ", Lower, "cim", ALL, "modeled CiM macro energy (with peripheral overhead) per inference"),
    // qconv: CimConv2d / CimLinear staging around the kernel.
    layer("qconv.forward_us", "us", Lower, "qconv", ALL,
        "CimConv2d/CimLinear::forward_in per inference on each layer's input shape -> fast_us on yolo and rebranch"),
    layer("qconv.im2col_us", "us", Lower, "qconv", ALL, "CimConv2d::lower (im2col) per inference"),
    layer("qconv.self_us", "us", Lower, "qconv", ALL,
        "qconv.forward_us - cim.mvm_batch_us: im2col, quantize/stage, dequant/scatter -> fast_us on yolo and rebranch; cache.* unchanged"),
    layer("qconv.staging_share", "ratio", Lower, "qconv", ALL, "qconv.self_us / qconv.forward_us"),
    // compiler: compile + passes + mapping, and the arena interpreter.
    layer("compiler.infer_in_us", "us", Lower, "compiler", ALL, "warm single-sample infer_in / execute_in, replayed per network"),
    layer("compiler.exec_self_us", "us", Lower, "compiler", ALL,
        "compiler.infer_in_us - qconv.forward_us: digital ops, epilogues, memory accounting, finalize -> fast_us on yolo (small share), serve.run_s"),
    layer("compiler.steady_allocs", "count", Lower, "compiler", ALL, "heap allocations per warm inference (expected 0)"),
    layer("compiler.compile_ms", "ms", Lower, "compiler", ALL,
        "compile per network (rebranch: CimDeployedModel::deploy) -> setup_s everywhere, cache.cold_deploy_ms on yolo"),
    layer("compiler.plan_ops", "count", Lower, "compiler", ALL, "plan ops per network"),
    layer("mapping.subarrays_packed", "count", Lower, "compiler", &[Yolo], "packed subarrays per network"),
    // serial / json / cache: plan documents and the on-disk plan cache,
    // from the deploy replay of yolo's traced run (six networks).
    layer("serial.serialize_ms", "ms", Lower, "serial", &[Yolo], "serialize_plan per deploy cycle -> cache.cold_deploy_ms"),
    layer("serial.plan_bytes", "bytes", Lower, "serial", &[Yolo], "plan text bytes per deploy cycle"),
    layer("json.parse_ms", "ms", Lower, "json", &[Yolo], "Value::parse of the plan texts per deploy cycle -> cache.warm_lookup_ms"),
    layer("json.parse_ns_per_byte", "ns", Lower, "json", &[Yolo], "json.parse_ms per plan byte"),
    layer("serial.deserialize_ms", "ms", Lower, "serial", &[Yolo], "json.parse_ms + serial.rebuild_ms: what deserialize_plan costs per deploy cycle"),
    layer("serial.rebuild_ms", "ms", Lower, "serial", &[Yolo], "CompiledNetwork::from_plan_json on the parsed plans per deploy cycle (re-programs every MVM backend)"),
    layer("cache.warm_lookup_ms", "ms", Lower, "cache", &[Yolo], "warm PlanCache lookups per deploy cycle (median of three cycles)"),
    layer("cache.cold_deploy_ms", "ms", Lower, "cache", &[Yolo], "cold deploys (compile, serialize, store) per cycle (median of three cycles)"),
    layer("cache.hits", "count", Higher, "cache", &[Yolo], "warm cache hits per cycle (one per network)"),
    layer("cache.misses", "count", Lower, "cache", &[Yolo], "cold cache misses per cycle (one per network)"),
    // engine: worker pool, batched and tiled inference.
    layer("engine.infer_batch_us", "us", Lower, "engine", ALL, "infer_batch of 8 samples on 2 workers, per sample -> serve.run_s"),
    layer("engine.infer_tiled_us", "us", Lower, "engine", ALL, "one sample through the tile Scheduler on 2 workers"),
    layer("engine.tiled_vs_serial", "ratio", Lower, "engine", ALL, "engine.infer_tiled_us / compiler.infer_in_us"),
    // serve: Broker on the virtual clock, from the serve replay of yolo's
    // traced run.
    layer("serve.run_s", "s", Lower, "serve", &[Yolo], "median host seconds of one Broker::run over the 30 ms trace on 2 workers (three passes)"),
    layer("serve.exec_us_per_req", "us", Lower, "serve", &[Yolo], "sequential infer_in replay of the completed requests, per request"),
    layer("serve.parallel_efficiency", "ratio", Higher, "serve", &[Yolo], "serve.exec_us_per_req * completed / (serve.run_s * workers)"),
    layer("serve.offered", "count", Higher, "serve", &[Yolo], "requests offered by the trace"),
    layer("serve.completed", "count", Higher, "serve", &[Yolo], "requests completed"),
    layer("serve.shed", "count", Lower, "serve", &[Yolo], "requests shed by shed-oldest admission"),
    layer("serve.rejected", "count", Lower, "serve", &[Yolo], "requests refused by reject-new admission"),
    layer("serve.timed_out", "count", Lower, "serve", &[Yolo], "requests timed out"),
    layer("serve.batches", "count", Lower, "serve", &[Yolo], "batches launched"),
    layer("serve.mean_batch", "count", Higher, "serve", &[Yolo], "completed requests per batch"),
    layer("serve.max_queue_depth", "count", Lower, "serve", &[Yolo], "deepest admission queue over all tenants"),
    layer("serve.canary_probes", "count", Lower, "serve", &[Yolo], "golden-probe canaries run"),
    layer("serve.modeled_p50_us", "us", Lower, "serve", &[Yolo], "modeled (virtual-clock) p50 latency of completed requests"),
    layer("serve.modeled_p99_us", "us", Lower, "serve", &[Yolo], "modeled p99 latency of completed requests"),
    layer("serve.goodput", "ratio", Higher, "serve", &[Yolo], "requests completed within deadline / offered (shed, rejected, timed out count as misses)"),
    // memory: SRAM buffer / NoC / DRAM pricing (modeled counts).
    layer("memory.buffer_bits", "bits", Lower, "memory", ALL, "activation bits through the on-chip buffer per inference"),
    layer("memory.noc_bits", "bits", Lower, "memory", ALL, "activation bits across the NoC per inference"),
    layer("memory.dram_bits", "bits", Lower, "memory", ALL, "bits across the chip boundary per inference"),
    layer("memory.energy_uj", "uJ", Lower, "memory", ALL, "modeled buffer + NoC + DRAM + link energy per inference"),
    layer("modeled_latency_us", "us", Lower, "memory", ALL, "ExecutionReport.latency_ns per inference (the paper's latency, modeled)"),
    layer("modeled_energy_uj", "uJ", Lower, "memory", ALL, "ExecutionReport energy total per inference (the paper's energy, modeled)"),
    // rebranch: ReBranch lowering and the SRAM-CiM domain.
    layer("rebranch.infer_us", "us", Lower, "rebranch", &[Rebranch], "ReBranch plan execute_in, replayed -> fast_us on rebranch"),
    layer("rebranch.deploy_ms", "ms", Lower, "rebranch", &[Rebranch], "CimDeployedModel::deploy -> setup_s on rebranch"),
    layer("rebranch.sram_energy_share", "ratio", Lower, "rebranch", ALL, "SRAM-domain MvmStats energy / all CiM MvmStats energy"),
    // Closure, tail and tracing.
    layer("unattributed_share", "ratio", Lower, "closure", ALL,
        "1 - (per-layer self time) / median time of one unit of work (tail.p50_us): time the replay does not explain"),
    layer("tail.p50_us", "us", Lower, "tail", ALL, "median host time of one unit of work (reported, not gated: moves with host contention)"),
    layer("tail.per_s", "1/s", Higher, "tail", ALL, "units of work per host second of the timed phase (inferences; not gated)"),
    layer("tail.p99_us", "us", Lower, "tail", ALL, "p99 host time of one unit of work (reported, not gated)"),
    layer("tail.samples", "count", Higher, "tail", ALL, "unit-of-work samples behind tail.p99_us"),
    layer("tail.beyond_p99", "count", Lower, "tail", ALL, "samples above tail.p99_us"),
    layer("trace.overhead_share", "ratio", Lower, "trace", ALL, "traced fast_us / untraced fast_us - 1 within the traced run"),
];

/// Both metric lists, end-to-end first.
pub fn all() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().chain(PER_LAYER)
}

/// Whether `s` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(s: &str) -> bool {
    (1..=64).contains(&s.len())
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Default seconds of the timed phase (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 45;

/// The `BENCHMARK.json` document this registry describes.
pub fn manifest() -> Json {
    let metric = |m: &Metric| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(m.better.label())),
        ];
        if let Some(b) = m.bound {
            fields.push(("bound", Json::Num(b)));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::UInt(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric).collect()),
        ),
    ])
}
