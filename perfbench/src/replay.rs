//! Per-layer replay: times the public calls of the `cim`, `qconv`,
//! `compiler`, `engine` and `memory` layers on one network's own shapes,
//! so self times follow by subtraction.
//!
//! The kernel and staging replays build fresh layers from the network's
//! shapes (random weights, the same macro parameters and per-call width
//! as the compiled plan), because a compiled plan does not expose its
//! layers. Anything the replay misses shows up in `unattributed_share`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yoloc_cim::backend::MvmScratch;
use yoloc_cim::{transposed_pad, MacroParams, MatmulLayout, MvmBackend, MvmStats, RomMvm};
use yoloc_core::engine::Scheduler;
use yoloc_core::qconv::{split_ranges, CimConv2d, CimLinear, CimScratch};
use yoloc_core::{ExecPlan, ExecutionReport, WorkerPool};
use yoloc_models::{LayerSpec, NetworkDesc};
use yoloc_tensor::Tensor;

use crate::probe::{allocations, median};
use crate::trace::Tracer;
use crate::Values;

/// Workers of the batched and tiled engine replays.
pub const ENGINE_WORKERS: usize = 2;
/// Samples per batched engine call.
const BATCH: usize = 8;

/// One convolution as the plan executes it.
#[derive(Debug, Clone, Copy)]
pub struct ConvShape {
    /// Input channels.
    pub c: usize,
    /// Output channels.
    pub oc: usize,
    /// Square kernel size.
    pub k: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Whether the layer lives in the SRAM-CiM domain.
    pub sram: bool,
}

impl ConvShape {
    fn out_hw(&self) -> (usize, usize) {
        let o = |d: usize| (d + 2 * self.pad - self.k) / self.stride + 1;
        (o(self.h), o(self.w))
    }
}

/// One fully-connected layer: `(outs, ins)` plus its domain.
#[derive(Debug, Clone, Copy)]
pub struct LinearShape {
    /// Input features.
    pub ins: usize,
    /// Output features.
    pub outs: usize,
    /// Whether the layer lives in the SRAM-CiM domain.
    pub sram: bool,
}

/// The CiM layers of one network, as its plan executes them.
#[derive(Debug, Clone, Default)]
pub struct NetShapes {
    /// Convolutions in execution order.
    pub convs: Vec<ConvShape>,
    /// Fully-connected layers in execution order.
    pub linears: Vec<LinearShape>,
    /// Tile hint of the plan's convs (positions per call = positions / tiles).
    pub tiles: usize,
}

/// The CiM layers of a zoo description, with the compiler's placement
/// rule (the last CiM layer goes to SRAM) and tile hint. Residual
/// projection convs are not replayed; their time stays unattributed.
///
/// # Panics
///
/// Panics if the description is inconsistent.
pub fn zoo_shapes(desc: &NetworkDesc, tiles: usize) -> NetShapes {
    let reports = desc.analyze().expect("zoo description analyzes");
    let last_cim = desc
        .layers
        .iter()
        .rposition(|l| matches!(l, LayerSpec::Conv { .. } | LayerSpec::Linear { .. }));
    let mut shapes = NetShapes {
        tiles,
        ..NetShapes::default()
    };
    for (i, (layer, r)) in desc.layers.iter().zip(&reports).enumerate() {
        let sram = Some(i) == last_cim;
        match *layer {
            LayerSpec::Conv {
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                ..
            } => shapes.convs.push(ConvShape {
                c: in_ch,
                oc: out_ch,
                k: kernel,
                stride,
                pad: padding,
                h: r.in_shape.1,
                w: r.in_shape.2,
                sram,
            }),
            LayerSpec::Linear {
                in_features,
                out_features,
                ..
            } => shapes.linears.push(LinearShape {
                ins: in_features,
                outs: out_features,
                sram,
            }),
            _ => {}
        }
    }
    shapes
}

fn params(sram: bool) -> MacroParams {
    if sram {
        MacroParams::sram_paper()
    } else {
        MacroParams::rom_paper()
    }
}

fn weight_codes(p: &MacroParams, n: usize, rng: &mut StdRng) -> Vec<i32> {
    let max = (1i32 << (p.weight_bits - 1)) - 1;
    (0..n).map(|_| rng.gen_range(-max..=max)).collect()
}

fn act_codes(p: &MacroParams, n: usize, rng: &mut StdRng) -> Vec<i32> {
    let max = (1i32 << p.act_bits) - 1;
    (0..n).map(|_| rng.gen_range(0..=max)).collect()
}

/// Per-inference layer measurements of one network.
#[derive(Debug, Clone, Copy, Default)]
pub struct InferLayers {
    /// Batched MVM kernel time, µs.
    pub mvm_us: f64,
    /// Batched MVM calls.
    pub mvm_calls: f64,
    /// Multiply-accumulates.
    pub macs: f64,
    /// `RomMvm::program` over all shapes, ms.
    pub program_ms: f64,
    /// `forward_in` over all CiM layers, µs.
    pub forward_us: f64,
    /// `CimConv2d::lower` over all convs, µs.
    pub im2col_us: f64,
    /// Warm whole-network `execute_in`, µs.
    pub infer_in_us: f64,
    /// Heap allocations per warm inference.
    pub steady_allocs: f64,
    /// `execute_batch` per sample, µs.
    pub batch_us: f64,
    /// One sample through the tile scheduler, µs.
    pub tiled_us: f64,
    /// Modeled CiM energy (with peripheral overhead), µJ.
    pub cim_energy_uj: f64,
    /// Modeled activation bits through the buffer.
    pub buffer_bits: f64,
    /// Modeled activation bits across the NoC.
    pub noc_bits: f64,
    /// Modeled bits across the chip boundary.
    pub dram_bits: f64,
    /// Modeled buffer + NoC + DRAM + link energy, µJ.
    pub memory_uj: f64,
    /// Modeled latency, µs.
    pub latency_us: f64,
    /// Modeled total energy, µJ.
    pub energy_uj: f64,
    /// SRAM share of CiM macro energy.
    pub sram_share: f64,
}

impl InferLayers {
    /// Mean of per-network measurements.
    pub fn mean(items: &[InferLayers]) -> InferLayers {
        let s = 1.0 / items.len() as f64;
        let mut out = InferLayers::default();
        for l in items {
            out.mvm_us += s * l.mvm_us;
            out.mvm_calls += s * l.mvm_calls;
            out.macs += s * l.macs;
            out.program_ms += s * l.program_ms;
            out.forward_us += s * l.forward_us;
            out.im2col_us += s * l.im2col_us;
            out.infer_in_us += s * l.infer_in_us;
            out.steady_allocs += s * l.steady_allocs;
            out.batch_us += s * l.batch_us;
            out.tiled_us += s * l.tiled_us;
            out.cim_energy_uj += s * l.cim_energy_uj;
            out.buffer_bits += s * l.buffer_bits;
            out.noc_bits += s * l.noc_bits;
            out.dram_bits += s * l.dram_bits;
            out.memory_uj += s * l.memory_uj;
            out.latency_us += s * l.latency_us;
            out.energy_uj += s * l.energy_uj;
            out.sram_share += s * l.sram_share;
        }
        out
    }

    /// The registry metrics these measurements define.
    pub fn insert_into(&self, v: &mut Values) {
        let qself = self.forward_us - self.mvm_us;
        v.insert("cim.mvm_batch_us", self.mvm_us);
        v.insert("cim.mvm_calls", self.mvm_calls);
        v.insert("cim.macs", self.macs);
        v.insert("cim.ns_per_mac", self.mvm_us * 1e3 / self.macs);
        v.insert("cim.program_ms", self.program_ms);
        v.insert("cim.energy_uj", self.cim_energy_uj);
        v.insert("qconv.forward_us", self.forward_us);
        v.insert("qconv.im2col_us", self.im2col_us);
        v.insert("qconv.self_us", qself);
        v.insert("qconv.staging_share", qself / self.forward_us);
        v.insert("compiler.infer_in_us", self.infer_in_us);
        v.insert("compiler.exec_self_us", self.infer_in_us - self.forward_us);
        v.insert("compiler.steady_allocs", self.steady_allocs);
        v.insert("engine.infer_batch_us", self.batch_us);
        v.insert("engine.infer_tiled_us", self.tiled_us);
        v.insert("engine.tiled_vs_serial", self.tiled_us / self.infer_in_us);
        v.insert("memory.buffer_bits", self.buffer_bits);
        v.insert("memory.noc_bits", self.noc_bits);
        v.insert("memory.dram_bits", self.dram_bits);
        v.insert("memory.energy_uj", self.memory_uj);
        v.insert("modeled_latency_us", self.latency_us);
        v.insert("modeled_energy_uj", self.energy_uj);
        v.insert("rebranch.sram_energy_share", self.sram_share);
    }

    fn set_modeled(&mut self, r: &ExecutionReport) {
        let e = &r.energy;
        self.cim_energy_uj = e.cim_uj + e.peripheral_uj;
        self.buffer_bits = r.buffer_traffic_bits as f64;
        self.noc_bits = r.noc_traffic_bits as f64;
        self.dram_bits = r.dram_traffic_bits as f64;
        self.memory_uj = e.buffer_uj + e.noc_uj + e.dram_uj + e.link_uj;
        self.latency_us = r.latency_ns / 1e3;
        self.energy_uj = e.total_uj();
        self.sram_share = r.sram.energy_pj / r.cim_energy_pj();
    }
}

/// Median over `reps` of the summed durations `one_rep` reports, µs.
fn median_us(reps: usize, mut one_rep: impl FnMut() -> u64) -> f64 {
    let v: Vec<f64> = (0..reps).map(|_| one_rep() as f64 / 1e3).collect();
    median(&v)
}

/// Programs one engine per CiM layer (convs then linears), returning them
/// with positions per inference and the programming time in ms.
fn program_engines(
    tr: &mut Tracer,
    shapes: &NetShapes,
    seed: u64,
) -> (Vec<(RomMvm, usize, MacroParams)>, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let layers = shapes
        .convs
        .iter()
        .map(|c| {
            let (oh, ow) = c.out_hw();
            (c.oc, c.c * c.k * c.k, oh * ow, c.sram)
        })
        .chain(shapes.linears.iter().map(|l| (l.outs, l.ins, 1, l.sram)));
    let mut ns = 0;
    let mut engines = Vec::new();
    for (i, (outs, ins, positions, sram)) in layers.enumerate() {
        let p = params(sram);
        let codes = weight_codes(&p, outs * ins, &mut rng);
        let (engine, t) = tr.time("cim.program", i as u64, || {
            RomMvm::program(p, &codes, outs, ins)
        });
        ns += t;
        engines.push((engine, positions, p));
    }
    (engines, ns as f64 / 1e6)
}

/// Replays one network's inference layers `reps` times each (medians),
/// and reads its modeled counts from a warm `execute_in` report.
pub fn replay_net(
    tr: &mut Tracer,
    id: u64,
    plan: &ExecPlan,
    x: &Tensor,
    shapes: &NetShapes,
    seed: u64,
    reps: usize,
) -> InferLayers {
    let parent = tr.begin("replay.net", id);
    let mut out = InferLayers::default();
    let mut rng = StdRng::seed_from_u64(seed);

    // cim: the batched kernel at the plan's per-call widths, staged in
    // the layout the backend picks (as qconv stages it).
    let (engines, program_ms) = program_engines(tr, shapes, seed);
    out.program_ms = program_ms;
    let mut calls = Vec::new();
    for (li, (engine, positions, p)) in engines.iter().enumerate() {
        let (outs, ins) = engine.dims();
        let tiles = if li < shapes.convs.len() {
            shapes.tiles
        } else {
            1
        };
        for (lo, hi) in split_ranges(*positions, tiles) {
            let n = hi - lo;
            let layout = engine.batch_layout(n);
            let len = match layout {
                MatmulLayout::Transposed => ins * transposed_pad(n),
                MatmulLayout::RowMajor => ins * n,
            };
            calls.push((
                li,
                n,
                layout,
                act_codes(p, len, &mut rng),
                vec![0i64; n * outs],
            ));
        }
        out.macs += (outs * ins * positions) as f64;
    }
    out.mvm_calls = calls.len() as f64;
    let mut scratch = MvmScratch::new();
    let mut mvm_rep = |tr: &mut Tracer| {
        let mut ns = 0;
        for (li, n, layout, acts, accs) in calls.iter_mut() {
            let engine = &engines[*li].0;
            let mut stats = MvmStats::default();
            let mut r = StdRng::seed_from_u64(0);
            let (_, t) = tr.time("cim.mvm_batch", *li as u64, || match layout {
                MatmulLayout::Transposed => engine.mvm_batch_transposed(
                    acts,
                    *n,
                    transposed_pad(*n),
                    accs,
                    &mut stats,
                    &mut scratch,
                    &mut r,
                ),
                MatmulLayout::RowMajor => {
                    engine.mvm_batch(acts, *n, accs, &mut stats, &mut scratch, &mut r)
                }
            });
            ns += t;
        }
        ns
    };
    mvm_rep(tr);
    out.mvm_us = median_us(reps, || mvm_rep(tr));

    // qconv: forward_in (staging + kernel + scatter) and im2col alone.
    let mut convs: Vec<_> = shapes
        .convs
        .iter()
        .map(|s| {
            let w = Tensor::randn(&[s.oc, s.c, s.k, s.k], 0.0, 0.2, &mut rng);
            let xin = Tensor::rand_uniform(&[1, s.c, s.h, s.w], 0.0, 1.0, &mut rng);
            let mut conv = CimConv2d::compile(&w, s.stride, s.pad, &[&xin], params(s.sram));
            conv.set_tile_hint(shapes.tiles);
            let (oh, ow) = s.out_hw();
            (conv, xin, vec![0f32; s.oc * oh * ow])
        })
        .collect();
    let mut linears: Vec<_> = shapes
        .linears
        .iter()
        .map(|s| {
            let w = Tensor::randn(&[s.outs, s.ins], 0.0, 0.2, &mut rng);
            let feats = Tensor::rand_uniform(&[1, s.ins], 0.0, 1.0, &mut rng);
            let lin = CimLinear::compile(&w, None, &[&feats], params(s.sram));
            (lin, feats, vec![0f32; s.outs])
        })
        .collect();
    let mut scratch = CimScratch::new();
    let mut forward_rep = |tr: &mut Tracer| {
        let mut ns = 0;
        let mut r = StdRng::seed_from_u64(0);
        for (i, (conv, xin, y)) in convs.iter_mut().enumerate() {
            let s = xin.shape();
            let (h, w) = (s[2], s[3]);
            ns += tr
                .time("qconv.forward_in", i as u64, || {
                    conv.forward_in(xin.data(), 1, h, w, y, &mut scratch, &mut r)
                })
                .1;
        }
        for (i, (lin, feats, y)) in linears.iter_mut().enumerate() {
            ns += tr
                .time("qconv.linear_forward_in", i as u64, || {
                    lin.forward_in(feats.data(), 1, y, &mut scratch, &mut r)
                })
                .1;
        }
        ns
    };
    forward_rep(tr);
    out.forward_us = median_us(reps, || forward_rep(tr));
    out.im2col_us = median_us(reps, || {
        convs
            .iter()
            .enumerate()
            .map(|(i, (conv, xin, _))| {
                tr.time("qconv.lower", i as u64, || {
                    std::hint::black_box(conv.lower(xin))
                })
                .1
            })
            .sum()
    });

    // compiler: the warm arena interpreter, and its allocation count.
    let mut arena = plan.take_arena();
    let mut r = StdRng::seed_from_u64(0);
    for _ in 0..2 {
        let _ = plan.execute_in(x, &mut r, &mut arena);
    }
    out.infer_in_us = median_us(reps, || {
        tr.time("compiler.execute_in", id, || {
            plan.execute_in(x, &mut r, &mut arena).1.latency_ns
        })
        .1
    });
    let before = allocations();
    for _ in 0..reps {
        let _ = plan.execute_in(x, &mut r, &mut arena);
    }
    out.steady_allocs = (allocations() - before) as f64 / reps as f64;
    out.set_modeled(arena.report());
    plan.give_arena(arena);

    // engine: batched and tile-parallel inference on two workers.
    let (c, h, w) = (x.shape()[1], x.shape()[2], x.shape()[3]);
    let batch = Tensor::rand_uniform(&[BATCH, c, h, w], 0.0, 1.0, &mut rng);
    let (batch_us, tiled_us) = WorkerPool::with(ENGINE_WORKERS, |pool| {
        let _ = plan.execute_batch(&batch, seed, pool);
        let b = median_us(reps.div_ceil(4).max(3), || {
            tr.time("engine.infer_batch", id, || {
                plan.execute_batch(&batch, seed, pool).1.latency_ns
            })
            .1
        });
        let sched = Scheduler::new(plan);
        let _ = sched.infer(x, seed, pool);
        let t = median_us(reps, || {
            tr.time("engine.infer_tiled", id, || {
                sched.infer(x, seed, pool).1.latency_ns
            })
            .1
        });
        (b / BATCH as f64, t)
    });
    out.batch_us = batch_us;
    out.tiled_us = tiled_us;
    tr.end(parent);
    out
}
