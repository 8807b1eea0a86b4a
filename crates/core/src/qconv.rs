//! Quantized convolution and linear layers executed on an MVM backend.
//!
//! This is the deployment path of Fig. 9: a layer's weights are quantized
//! per-channel to 8 bits, lowered to a `(out_ch, in_ch*k*k)` (conv) or
//! `(out_features, in_features)` (linear) matrix and programmed onto an
//! [`MvmBackend`] — the analog reference path, the popcount fast path, or
//! the pure-software integer reference, selected per layer
//! ([`yoloc_cim::BackendKind`]). At run time activations are
//! affine-quantized, driven through the backend, and the results are
//! dequantized with zero-point correction. With the paper's 5-bit-ADC
//! design point the integer arithmetic is exact, so the only deviation
//! from a software layer is the quantization itself — the basis for the
//! paper's "almost no accuracy loss" claim, which the integration tests
//! verify end to end.

use rand::Rng;

use yoloc_cim::backend::{
    program_backend, program_backend_faulted, BackendKind, BatchActs, DynRng, MvmBackend,
    MvmScratch,
};
use yoloc_cim::faults::{FaultContext, FaultPlan, FaultSpec};
use yoloc_cim::kernels::{transposed_pad, MatmulLayout};
use yoloc_cim::macro_model::{MacroParams, MvmStats};
use yoloc_quant::{calibrate_affine, PerChannelQuant, QuantParams};
use yoloc_tensor::ops::{im2col_into, Conv2dGeometry};
use yoloc_tensor::Tensor;

use serde::json::Value as Json;
use serde::{Deserialize, Serialize};

pub use yoloc_cim::backend::{split_range_iter, split_ranges};

/// Reusable staging for one CiM layer execution: the conv input
/// quantized once into a code map, that map lowered into the
/// code-domain im2col patch matrix (rows at the batch panel's lane
/// stride), the activation codes of a batch that cannot read that
/// matrix in place, the integer MVM accumulators, and the backend's
/// bit-plane staging.
///
/// Staging never touches a float patch matrix: each input value is
/// quantized exactly once. A whole-op batch in the transposed layout
/// reads the lowered matrix as its panel with no copy at all; row-major
/// batches and scheduler tiles copy codes out of it.
///
/// One `CimScratch` serves every layer of a deployment in turn (layers
/// run serially, and each call fully overwrites what it uses), which is
/// how the arena executor keeps steady-state inference allocation-free:
/// every buffer grows on first use and keeps its capacity across ops,
/// samples and repeated `infer` calls.
#[derive(Debug, Default)]
pub struct CimScratch {
    /// Quantized `(n, C, H, W)` input codes (convs only).
    act: Vec<i32>,
    /// Lowered `(patch, positions)` code matrix, rows at stride
    /// `transposed_pad(positions)` (convs only).
    cols: Vec<i32>,
    /// Activation codes copied for the batch in flight: a tile's
    /// transposed panel or a vector-major block.
    codes: Vec<i32>,
    /// Integer accumulators of the batch in flight, vector-major.
    accs: Vec<i64>,
    /// Bit-plane staging for [`MvmBackend::mvm_batch_tiled`].
    mvm: MvmScratch,
}

impl CimScratch {
    /// A fresh, empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-channel dequantization state shared by conv and linear layers:
/// symmetric weight scales plus weight-code row sums for zero-point
/// correction.
struct Dequant {
    channel_scales: Vec<f32>,
    row_sums: Vec<i64>,
}

impl Dequant {
    fn from_quant(pc: &PerChannelQuant, outs: usize, ins: usize) -> Self {
        let row_sums: Vec<i64> = (0..outs)
            .map(|o| {
                pc.values[o * ins..(o + 1) * ins]
                    .iter()
                    .map(|&v| v as i64)
                    .sum()
            })
            .collect();
        Dequant {
            channel_scales: pc.channel_params.iter().map(|p| p.scale).collect(),
            row_sums,
        }
    }

    /// Dequantizes one accumulator value for output channel `o`.
    #[inline]
    fn value(&self, o: usize, acc: i64, act: &QuantParams) -> f32 {
        self.channel_scales[o] * act.scale * (acc - act.zero_point as i64 * self.row_sums[o]) as f32
    }
}

/// Everything needed to re-program an MVM backend deterministically:
/// the compile-time backend choice, macro parameters and quantized
/// weight codes. Retained by compiled layers so a plan can be serialized
/// and rebuilt bit-identically (the backends themselves own un-walkable
/// state like the analog array, so layers re-run [`program_backend`] on
/// deserialization instead of persisting the engine).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct ProgramSpec {
    kind: BackendKind,
    params: MacroParams,
    outs: usize,
    ins: usize,
    codes: Vec<i32>,
    /// Fault-injection context the layer was programmed under. `None`
    /// compiles the pristine path — and is what every `yoloc-plan/1`
    /// document reads back as, which keeps the field backward
    /// compatible.
    faults: Option<LayerFaults>,
}

/// Per-layer fault record retained for re-programming: the fabric-wide
/// seeded fault spec plus this layer's physical subarray ids and the
/// chiplet-link slowdown it executes under. Re-running the programmer
/// with the same record reproduces the exact faulty engine, so faulted
/// plans serialize and rebuild bit-identically like pristine ones.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct LayerFaults {
    /// Seeded fabric-wide fault rates.
    pub spec: FaultSpec,
    /// Physical subarray ids in row-major tile order
    /// (`row_tile * col_tiles + col_tile`).
    pub phys_ids: Vec<u64>,
    /// Evaluation-latency multiplier from degraded links (1.0 = none).
    pub link_slowdown: f64,
}

impl ProgramSpec {
    fn program(&self) -> Box<dyn MvmBackend> {
        match &self.faults {
            None => program_backend(self.kind, self.params, &self.codes, self.outs, self.ins),
            Some(lf) => {
                let plan = FaultPlan::new(lf.spec);
                let ctx = FaultContext {
                    plan: &plan,
                    phys_ids: &lf.phys_ids,
                    link_slowdown: lf.link_slowdown,
                };
                program_backend_faulted(
                    self.kind,
                    self.params,
                    &self.codes,
                    self.outs,
                    self.ins,
                    &ctx,
                )
            }
        }
    }
}

/// Object field lookup + deserialize with field context in errors
/// (missing fields route through `Deserialize::from_missing`, so
/// `Option` fields default). Shared by the hand-written layer impls here
/// and the plan serializer in `compiler::serial`.
pub(crate) fn json_field<T: Deserialize>(v: &Json, name: &str) -> Result<T, String> {
    match v.get(name) {
        Some(x) => T::from_value(x).map_err(|e| format!("{name}: {e}")),
        None => T::from_missing(name),
    }
}

/// `QuantParams` lives in `yoloc-quant`, which has no serde dependency
/// (and the orphan rule forbids implementing the shim traits for it
/// here), so the field mapping is spelled out.
fn quant_params_to_json(p: &QuantParams) -> Json {
    Json::obj([
        ("scale", p.scale.to_json()),
        ("zero_point", p.zero_point.to_json()),
        ("bits", p.bits.to_json()),
        ("symmetric", p.symmetric.to_json()),
    ])
}

fn quant_params_from(v: &Json) -> Result<QuantParams, String> {
    Ok(QuantParams {
        scale: json_field(v, "scale")?,
        zero_point: json_field(v, "zero_point")?,
        bits: json_field(v, "bits")?,
        symmetric: json_field(v, "symmetric")?,
    })
}

/// Same story for `Conv2dGeometry` (`yoloc-tensor` has no serde dep).
fn geom_to_json(g: &Conv2dGeometry) -> Json {
    Json::obj([
        ("in_channels", g.in_channels.to_json()),
        ("kernel", g.kernel.to_json()),
        ("stride", g.stride.to_json()),
        ("padding", g.padding.to_json()),
    ])
}

fn geom_from(v: &Json) -> Result<Conv2dGeometry, String> {
    Ok(Conv2dGeometry {
        in_channels: json_field(v, "in_channels")?,
        kernel: json_field(v, "kernel")?,
        stride: json_field(v, "stride")?,
        padding: json_field(v, "padding")?,
    })
}

/// A convolution compiled onto an MVM backend.
pub struct CimConv2d {
    engine: Box<dyn MvmBackend>,
    dequant: Dequant,
    /// Activation quantization parameters.
    pub act_params: QuantParams,
    geom: Conv2dGeometry,
    out_channels: usize,
    /// Target tile count for [`CimConv2d::tile_ranges`] (1 = the whole
    /// position range as a single tile).
    par_tiles: usize,
    /// Compile-time programming record, kept for plan serialization.
    program: ProgramSpec,
}

impl CimConv2d {
    /// Compiles `weight` (`(OC, C, k, k)`) onto the default
    /// [`BackendKind::Popcount`] backend (bit-identical to the analog
    /// reference whenever both apply, with automatic analog fallback for
    /// noisy macros).
    ///
    /// `calibration` tensors determine the activation quantization range
    /// (include zero automatically).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-4.
    pub fn compile(
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on(
            BackendKind::Popcount,
            weight,
            stride,
            padding,
            calibration,
            params,
        )
    }

    /// Compiles `weight` onto an explicitly chosen backend (the per-layer
    /// selection point of the graph compiler).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-4.
    pub fn compile_on(
        kind: BackendKind,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on_with(kind, weight, stride, padding, calibration, params, None)
    }

    /// [`CimConv2d::compile_on`] with an optional fault-injection
    /// record (the graph compiler's entry when the deployment carries a
    /// fault map).
    pub(crate) fn compile_on_with(
        kind: BackendKind,
        weight: &Tensor,
        stride: usize,
        padding: usize,
        calibration: &[&Tensor],
        params: MacroParams,
        faults: Option<LayerFaults>,
    ) -> Self {
        assert_eq!(weight.ndim(), 4, "weight must be (OC, C, k, k)");
        let (oc, c, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
        let patch = c * k * k;
        let pc = PerChannelQuant::quantize(weight, params.weight_bits);
        let dequant = Dequant::from_quant(&pc, oc, patch);
        let program = ProgramSpec {
            kind,
            params,
            outs: oc,
            ins: patch,
            codes: pc.values,
            faults,
        };
        let engine = program.program();
        let act_params = calibrate_affine(calibration, params.act_bits);
        CimConv2d {
            engine,
            dequant,
            act_params,
            geom: Conv2dGeometry {
                in_channels: c,
                kernel: k,
                stride,
                padding,
            },
            out_channels: oc,
            par_tiles: 1,
            program,
        }
    }

    /// Sets the target tile count the layer decomposes its output
    /// positions into (see [`CimConv2d::tile_ranges`]). The graph compiler
    /// derives this from the layer's placement (how many macro clusters of
    /// the mesh — or of its chiplet shard — serve the layer), so a single
    /// inference can fan across workers. The decomposition is a pure
    /// function of this hint and the input shape — never of the worker
    /// count — which is what keeps tiled execution bit-identical to the
    /// serial walk of the same plan.
    pub fn set_tile_hint(&mut self, tiles: usize) {
        self.par_tiles = tiles.max(1);
    }

    /// The contiguous position ranges `forward` folds its statistics
    /// over and the scheduler fans across workers: `positions` output
    /// pixels split into (at most) the hinted tile count of near-equal
    /// chunks, in position order.
    pub fn tile_ranges(&self, positions: usize) -> Vec<(usize, usize)> {
        split_ranges(positions, self.par_tiles)
    }

    /// Number of tiles [`CimConv2d::tile_ranges`] decomposes `positions`
    /// into, without materializing them.
    pub fn tile_count(&self, positions: usize) -> usize {
        if positions == 0 {
            0
        } else {
            self.par_tiles.clamp(1, positions)
        }
    }

    /// Number of physical subarrays programmed (0 on the software
    /// reference backend).
    pub fn subarrays(&self) -> usize {
        self.engine.subarrays_used()
    }

    /// The execution path this layer currently runs on.
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Enables or disables the backend's popcount fast path where one
    /// exists (see [`yoloc_cim::macro_model::RomMvm::set_fast_path`]).
    /// Disabling it forces hardware backends through the cell-accurate
    /// analog reference path.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.engine.set_fast_path(enabled);
    }

    /// Moves a fault-aware layer onto new physical subarrays and
    /// re-programs its engine (the repair path after a subarray dies).
    /// No-op on layers compiled without a fault record.
    pub(crate) fn set_fault_ids(&mut self, phys_ids: &[u64]) {
        if let Some(lf) = &mut self.program.faults {
            lf.phys_ids = phys_ids.to_vec();
            self.engine = self.program.program();
        }
    }

    /// Lowers `x` (`(N, C, H, W)`) to its quantized im2col matrix: the
    /// `(C*k*k, N*OH*OW)` activation codes every tile of this layer
    /// reads, row `r` starting at `r * transposed_pad(N*OH*OW)`; padding
    /// taps and the lanes past each row's end hold the zero point's
    /// code. Exposed so the scheduler can lower once and fan
    /// [`CimConv2d::forward_tile_with`] calls over the result.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `(N, C, H, W)` with this layer's `C`.
    pub fn lower(&self, x: &Tensor) -> Vec<i32> {
        assert_eq!(x.ndim(), 4, "input must be (N, C, H, W)");
        assert_eq!(x.shape()[1], self.geom.in_channels, "channel mismatch");
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let mut cols = Vec::new();
        self.lower_into(x.data(), n, h, w, &mut Vec::new(), &mut cols);
        cols
    }

    /// Quantizes the raw `(n, C, h, w)` input once into `act`, lowers
    /// those codes into the `(patch, positions)` matrix `cols` and
    /// returns `positions`. Quantization is elementwise, so quantizing
    /// before the gather equals quantizing every gathered element, and a
    /// padding tap holds `quantize_value(0.0)` — exactly what a zero-
    /// padded float patch quantizes to.
    ///
    /// Rows sit at the stride `transposed_pad(positions)`, so the matrix
    /// already is the `[patch x n_pad]` panel of a whole-op transposed
    /// batch; its tail lanes hold the pad code, which the panel kernels
    /// accept like any padding lane.
    fn lower_into(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        act: &mut Vec<i32>,
        cols: &mut Vec<i32>,
    ) -> usize {
        let q = &self.act_params;
        act.clear();
        act.extend(x.iter().map(|&v| q.quantize_value(v)));
        let (oh, ow) = self.geom.output_hw(h, w);
        let stride = transposed_pad(n * oh * ow);
        im2col_into(
            act,
            n,
            h,
            w,
            &self.geom,
            q.quantize_value(0.0),
            stride,
            cols,
        )
        .1
    }

    /// Output spatial dims for an `(H, W)` input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        self.geom.output_hw(h, w)
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Runs output positions `lo..hi` of the lowered code matrix
    /// (`cols`, from [`CimConv2d::lower`]) through the backend as one
    /// tile, returning the dequantized values in `[position][channel]`
    /// order plus the tile's statistics (folded from zero, in position
    /// order). The panel, accumulators and bit-plane planes live in
    /// `scratch` and are reused across calls, so only the returned value
    /// vector is allocated.
    ///
    /// This is the parallel unit of the tile scheduler (which draws
    /// `scratch` from the deployment's arena pool); scattering tiles in
    /// range order with [`CimConv2d::scatter_tile`] and merging their
    /// statistics in the same order reproduces [`CimConv2d::forward`] bit
    /// for bit.
    pub fn forward_tile_with<R: Rng + ?Sized>(
        &self,
        cols: &[i32],
        lo: usize,
        hi: usize,
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> (Vec<f32>, MvmStats) {
        let stats = self.run_batch(cols, lo, hi, 1, scratch, rng);
        let oc = self.out_channels;
        let vals = scratch.accs[..(hi - lo) * oc]
            .iter()
            .enumerate()
            .map(|(i, &a)| self.dequant.value(i % oc, a, &self.act_params))
            .collect();
        (vals, stats)
    }

    /// Batches positions `lo..hi` of a patch-major code matrix (rows at
    /// stride `cols.len() / patch`, as [`CimConv2d::lower_into`] writes
    /// it) through the backend into `scratch.accs` with **one** call,
    /// returning the statistics folded over `tiles` ranges of the batch
    /// (see [`MvmBackend::mvm_batch_tiled`]).
    ///
    /// The staging follows the backend's [`MvmBackend::batch_layout`]
    /// choice. When the batch starts at position 0 and its panel stride
    /// equals the matrix's row stride — every whole-op batch — the
    /// matrix is passed as the panel as it is: no copy, no zero fill.
    /// A transposed tile copies each row's *contiguous* lane
    /// `cols[r * stride + lo..hi]` into its panel, and the vector-major
    /// staging gathers one code per row for each position.
    fn run_batch<R: Rng + ?Sized>(
        &self,
        cols: &[i32],
        lo: usize,
        hi: usize,
        tiles: usize,
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        let patch = self.geom.patch_len();
        let stride = cols.len() / patch;
        let count = hi - lo;
        scratch.accs.clear();
        scratch.accs.resize(count * self.out_channels, 0);
        let acts = match self.engine.batch_layout(count) {
            MatmulLayout::Transposed if lo == 0 && transposed_pad(count) == stride => {
                BatchActs::Transposed {
                    acts_t: cols,
                    n_pad: stride,
                }
            }
            MatmulLayout::Transposed => {
                let n_pad = transposed_pad(count);
                scratch.codes.clear();
                scratch.codes.resize(patch * n_pad, 0);
                for r in 0..patch {
                    scratch.codes[r * n_pad..r * n_pad + count]
                        .copy_from_slice(&cols[r * stride + lo..r * stride + hi]);
                }
                BatchActs::Transposed {
                    acts_t: &scratch.codes,
                    n_pad,
                }
            }
            MatmulLayout::RowMajor => {
                scratch.codes.clear();
                for pos in lo..hi {
                    scratch
                        .codes
                        .extend((0..patch).map(|r| cols[r * stride + pos]));
                }
                BatchActs::RowMajor(&scratch.codes)
            }
        };
        let mut stats = MvmStats::default();
        self.engine.mvm_batch_tiled(
            acts,
            count,
            tiles,
            &mut scratch.accs,
            &mut stats,
            &mut scratch.mvm,
            &mut DynRng(rng),
        );
        stats
    }

    /// Arena forward: runs the convolution on a raw row-major
    /// `(n, C, h, w)` buffer, writing the dequantized `(n, OC, OH, OW)`
    /// feature map into `out` using only `scratch` storage — the
    /// allocation-free counterpart of [`CimConv2d::forward`].
    ///
    /// All output positions go through the backend as **one** batch
    /// call whose statistics fold over [`CimConv2d::tile_ranges`], so
    /// the returned stats (and every output bit) match the tile
    /// scheduler's per-tile walk exactly.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the given dimensions.
    #[allow(clippy::too_many_arguments)] // raw-buffer entry: data + dims + staging
    pub fn forward_in<R: Rng + ?Sized>(
        &self,
        x: &[f32],
        n: usize,
        h: usize,
        w: usize,
        out: &mut [f32],
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        let (oh, ow) = self.geom.output_hw(h, w);
        let oc = self.out_channels;
        assert_eq!(out.len(), n * oc * oh * ow, "output length");
        let mut cols = std::mem::take(&mut scratch.cols);
        let positions = self.lower_into(x, n, h, w, &mut scratch.act, &mut cols);
        let stats = self.run_batch(&cols, 0, positions, self.par_tiles, scratch, rng);
        scratch.cols = cols;
        let accs = &scratch.accs;
        scatter_blocked(out, oc, oh * ow, 0, positions, |v, o| {
            self.dequant.value(o, accs[v * oc + o], &self.act_params)
        });
        stats
    }

    /// Scatters one tile's `[position][channel]` values (from
    /// [`CimConv2d::forward_tile_with`] at range start `lo`) into the `(N, OC,
    /// OH, OW)` output map.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `(N, OC, OH, OW)` with this layer's `OC`
    /// or the tile runs past its end.
    pub fn scatter_tile(&self, out: &mut Tensor, lo: usize, vals: &[f32]) {
        let oc = self.out_channels;
        assert!(out.ndim() == 4 && out.shape()[1] == oc, "output map shape");
        let hw = out.shape()[2] * out.shape()[3];
        scatter_blocked(out.data_mut(), oc, hw, lo, vals.len() / oc, |v, o| {
            vals[v * oc + o]
        });
    }

    /// Runs the convolution on `x` (`(N, C, H, W)`), returning the output
    /// feature map and the accumulated backend statistics.
    ///
    /// Execution is tile-structured: the output positions are split by
    /// [`CimConv2d::tile_ranges`] and folded **in tile order** (each tile
    /// folding its positions in order), so the serial walk and the
    /// tile-parallel scheduler perform the exact same floating-point
    /// reduction and agree bit for bit.
    #[must_use = "dropping the result discards the layer output and its measured statistics"]
    pub fn forward<R: Rng + ?Sized>(&self, x: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        assert_eq!(x.ndim(), 4, "input must be (N, C, H, W)");
        assert_eq!(x.shape()[1], self.geom.in_channels, "channel mismatch");
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = self.geom.output_hw(h, w);
        let mut out = Tensor::zeros(&[n, self.out_channels, oh, ow]);
        let stats = self.forward_in(
            x.data(),
            n,
            h,
            w,
            out.data_mut(),
            &mut CimScratch::new(),
            rng,
        );
        (out, stats)
    }
}

/// Output positions per block of [`scatter_blocked`]. A block turns each
/// channel's stores into one contiguous run of up to 64 floats instead of
/// stores `hw` floats apart, which map to the same L1 sets. It is not
/// sized to keep the block's `64 x outs` accumulators in L1: on the
/// 1024-channel layers they span 512 KiB.
const SCATTER_BLOCK: usize = 64;

/// Writes `count` position-major values — `value(v, o)` is channel `o`
/// of position `lo + v` — into the channel-major `(n, outs, hw)` map
/// `out`.
///
/// A position-by-position walk writes `out` at a stride of `hw` floats,
/// so every channel's store for one position lands in the same L1 sets
/// once a plane spans a few KiB. This walks blocks of up to
/// [`SCATTER_BLOCK`] positions within one sample instead and writes each
/// channel's block as one contiguous run of its plane. Every element is
/// written exactly once with the value it would get in any order.
fn scatter_blocked(
    out: &mut [f32],
    outs: usize,
    hw: usize,
    lo: usize,
    count: usize,
    value: impl Fn(usize, usize) -> f32,
) {
    let mut v0 = 0;
    while v0 < count {
        let (ni, p) = ((lo + v0) / hw, (lo + v0) % hw);
        let len = SCATTER_BLOCK.min(count - v0).min(hw - p);
        for o in 0..outs {
            let base = (ni * outs + o) * hw + p;
            for (i, d) in out[base..base + len].iter_mut().enumerate() {
                *d = value(v0 + i, o);
            }
        }
        v0 += len;
    }
}

/// A fully-connected layer compiled onto an MVM backend (the prediction
/// head / classifier path of Fig. 9, always SRAM-CiM in the paper).
pub struct CimLinear {
    engine: Box<dyn MvmBackend>,
    dequant: Dequant,
    bias: Vec<f32>,
    /// Activation quantization parameters.
    pub act_params: QuantParams,
    outs: usize,
    ins: usize,
    /// Compile-time programming record, kept for plan serialization.
    program: ProgramSpec,
}

impl CimLinear {
    /// Compiles `weight` (`(outs, ins)`) with an optional bias vector onto
    /// the default popcount backend; see [`CimLinear::compile_on`].
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or the bias length mismatches.
    pub fn compile(
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on(BackendKind::Popcount, weight, bias, calibration, params)
    }

    /// Compiles onto an explicitly chosen backend. The bias is applied
    /// digitally after dequantization (biases are never stored in the
    /// arrays; see `mapping.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `weight` is not rank-2 or the bias length mismatches.
    pub fn compile_on(
        kind: BackendKind,
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
    ) -> Self {
        Self::compile_on_with(kind, weight, bias, calibration, params, None)
    }

    /// [`CimLinear::compile_on`] with an optional fault-injection
    /// record (the graph compiler's entry when the deployment carries a
    /// fault map).
    pub(crate) fn compile_on_with(
        kind: BackendKind,
        weight: &Tensor,
        bias: Option<&[f32]>,
        calibration: &[&Tensor],
        params: MacroParams,
        faults: Option<LayerFaults>,
    ) -> Self {
        assert_eq!(weight.ndim(), 2, "weight must be (outs, ins)");
        let (outs, ins) = (weight.shape()[0], weight.shape()[1]);
        let pc = PerChannelQuant::quantize(weight, params.weight_bits);
        let dequant = Dequant::from_quant(&pc, outs, ins);
        let bias = match bias {
            Some(b) => {
                assert_eq!(b.len(), outs, "bias length mismatch");
                b.to_vec()
            }
            None => vec![0.0; outs],
        };
        let program = ProgramSpec {
            kind,
            params,
            outs,
            ins,
            codes: pc.values,
            faults,
        };
        CimLinear {
            engine: program.program(),
            dequant,
            bias,
            act_params: calibrate_affine(calibration, params.act_bits),
            outs,
            ins,
            program,
        }
    }

    /// Output features.
    pub fn outs(&self) -> usize {
        self.outs
    }

    /// Number of physical subarrays programmed.
    pub fn subarrays(&self) -> usize {
        self.engine.subarrays_used()
    }

    /// The execution path this layer currently runs on.
    pub fn backend_name(&self) -> &'static str {
        self.engine.backend_name()
    }

    /// Enables or disables the backend's popcount fast path.
    pub fn set_fast_path(&mut self, enabled: bool) {
        self.engine.set_fast_path(enabled);
    }

    /// Moves a fault-aware layer onto new physical subarrays and
    /// re-programs its engine (the repair path after a subarray dies).
    /// No-op on layers compiled without a fault record.
    pub(crate) fn set_fault_ids(&mut self, phys_ids: &[u64]) {
        if let Some(lf) = &mut self.program.faults {
            lf.phys_ids = phys_ids.to_vec();
            self.engine = self.program.program();
        }
    }

    /// Runs the layer on `feats` (`(N, ins)`) through the backend's
    /// tile-granular entry (the whole batch as one tile), returning the
    /// output and the layer's statistics folded from zero **in sample
    /// order** — the caller merges them into its accumulator exactly once,
    /// so serial, batched and tile-scheduled executions all perform the
    /// same reduction.
    ///
    /// # Panics
    ///
    /// Panics if `feats` is not `(N, ins)`.
    #[must_use = "dropping the result discards the layer output and its measured statistics"]
    pub fn forward<R: Rng + ?Sized>(&self, feats: &Tensor, rng: &mut R) -> (Tensor, MvmStats) {
        assert_eq!(feats.ndim(), 2, "features must be (N, ins)");
        let n = feats.shape()[0];
        let mut out = Tensor::zeros(&[n, self.outs]);
        let stats = self.forward_in(feats.data(), n, out.data_mut(), &mut CimScratch::new(), rng);
        (out, stats)
    }

    /// Arena forward: runs the layer on a raw row-major `(n, ins)` buffer,
    /// writing the biased, dequantized `(n, outs)` result into `out` using
    /// only `scratch` storage — the allocation-free counterpart of
    /// [`CimLinear::forward`] (the whole batch as one tile, statistics
    /// folded from zero in sample order), bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if the buffer lengths do not match the given dimensions.
    pub fn forward_in<R: Rng + ?Sized>(
        &self,
        feats: &[f32],
        n: usize,
        out: &mut [f32],
        scratch: &mut CimScratch,
        rng: &mut R,
    ) -> MvmStats {
        assert_eq!(feats.len(), n * self.ins, "feature width mismatch");
        assert_eq!(out.len(), n * self.outs, "output length mismatch");
        scratch.accs.clear();
        scratch.accs.resize(n * self.outs, 0);
        let mut stats = MvmStats::default();
        match self.engine.batch_layout(n) {
            MatmulLayout::Transposed => {
                // Features arrive sample-major, so quantize straight into
                // the panel's strided lanes — still a single pass, no
                // quantize-then-repack.
                let n_pad = transposed_pad(n);
                scratch.codes.clear();
                scratch.codes.resize(self.ins * n_pad, 0);
                for (v, row) in feats.chunks_exact(self.ins).enumerate() {
                    for (i, &f) in row.iter().enumerate() {
                        scratch.codes[i * n_pad + v] = self.act_params.quantize_value(f);
                    }
                }
                self.engine.mvm_batch_transposed(
                    &scratch.codes,
                    n,
                    n_pad,
                    &mut scratch.accs,
                    &mut stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
            MatmulLayout::RowMajor => {
                scratch.codes.clear();
                scratch
                    .codes
                    .extend(feats.iter().map(|&v| self.act_params.quantize_value(v)));
                self.engine.mvm_batch(
                    &scratch.codes,
                    n,
                    &mut scratch.accs,
                    &mut stats,
                    &mut scratch.mvm,
                    &mut DynRng(rng),
                );
            }
        }
        for (ni, acc) in scratch.accs.chunks_exact(self.outs).enumerate() {
            for (o, &a) in acc.iter().enumerate() {
                out[ni * self.outs + o] = self.dequant.value(o, a, &self.act_params) + self.bias[o];
            }
        }
        stats
    }
}

/// Serialization of a compiled conv layer: the programming record plus
/// the digital dequantization state. The engine is rebuilt from the
/// record on deserialization (`row_sums` and `channel_scales` are stored
/// rather than recomputed so the digital path is byte-for-byte the
/// compile-time state). Runtime [`CimConv2d::set_fast_path`] toggles are
/// *not* captured — a deserialized layer starts on its backend's default
/// path, exactly like a freshly compiled one.
impl Serialize for CimConv2d {
    fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program.to_json()),
            ("channel_scales", self.dequant.channel_scales.to_json()),
            ("row_sums", self.dequant.row_sums.to_json()),
            ("act_params", quant_params_to_json(&self.act_params)),
            ("geom", geom_to_json(&self.geom)),
            ("out_channels", self.out_channels.to_json()),
            ("par_tiles", self.par_tiles.to_json()),
        ])
    }
}

impl Deserialize for CimConv2d {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let engine = program.program();
        Ok(CimConv2d {
            engine,
            dequant: Dequant {
                channel_scales: json_field(v, "channel_scales")?,
                row_sums: json_field(v, "row_sums")?,
            },
            act_params: quant_params_from(
                v.get("act_params").ok_or("missing field \"act_params\"")?,
            )
            .map_err(|e| format!("act_params: {e}"))?,
            geom: geom_from(v.get("geom").ok_or("missing field \"geom\"")?)
                .map_err(|e| format!("geom: {e}"))?,
            out_channels: json_field(v, "out_channels")?,
            par_tiles: json_field(v, "par_tiles")?,
            program,
        })
    }
}

/// See the [`CimConv2d`] serialization notes; identical contract.
impl Serialize for CimLinear {
    fn to_json(&self) -> Json {
        Json::obj([
            ("program", self.program.to_json()),
            ("channel_scales", self.dequant.channel_scales.to_json()),
            ("row_sums", self.dequant.row_sums.to_json()),
            ("bias", self.bias.to_json()),
            ("act_params", quant_params_to_json(&self.act_params)),
            ("outs", self.outs.to_json()),
            ("ins", self.ins.to_json()),
        ])
    }
}

impl Deserialize for CimLinear {
    fn from_value(v: &Json) -> Result<Self, String> {
        let program: ProgramSpec = json_field(v, "program")?;
        let engine = program.program();
        Ok(CimLinear {
            engine,
            dequant: Dequant {
                channel_scales: json_field(v, "channel_scales")?,
                row_sums: json_field(v, "row_sums")?,
            },
            bias: json_field(v, "bias")?,
            act_params: quant_params_from(
                v.get("act_params").ok_or("missing field \"act_params\"")?,
            )
            .map_err(|e| format!("act_params: {e}"))?,
            outs: json_field(v, "outs")?,
            ins: json_field(v, "ins")?,
            program,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use yoloc_cim::KernelDispatch;
    use yoloc_tensor::ops::{conv2d_reference, im2col};

    #[test]
    fn cim_conv_matches_software_within_quantization() {
        let mut rng = StdRng::seed_from_u64(1);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 6, 6], 0.0, 1.0, &mut rng);
        let mut params = MacroParams::rom_paper();
        params.subarrays = 2;
        let conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (y, stats) = conv.forward(&x, &mut rng);
        let expect = conv2d_reference(&x, &w, None, 1, 1);
        let mag = expect.abs_max().max(1e-6);
        for (a, b) in y.data().iter().zip(expect.data()) {
            assert!(
                (a - b).abs() / mag < 0.03,
                "CiM {a} vs software {b} (mag {mag})"
            );
        }
        assert!(stats.analog_evaluations > 0);
        assert!(stats.energy_pj > 0.0);
    }

    #[test]
    fn noise_degrades_gracefully() {
        let mut rng = StdRng::seed_from_u64(2);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[1, 3, 5, 5], 0.0, 1.0, &mut rng);
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        let conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (y, _) = conv.forward(&x, &mut rng);
        let expect = conv2d_reference(&x, &w, None, 1, 1);
        let mag = expect.abs_max().max(1e-6);
        // Noisy analog readout: bounded but nonzero error.
        let mut max_rel = 0.0f32;
        for (a, b) in y.data().iter().zip(expect.data()) {
            max_rel = max_rel.max((a - b).abs() / mag);
        }
        assert!(max_rel > 0.0, "noise should perturb the output");
        assert!(max_rel < 0.5, "noise error out of control: {max_rel}");
    }

    #[test]
    fn conv_backends_agree_at_paper_design_point() {
        // The per-layer backend selection point: analog, popcount and
        // software deployments of the same conv agree bit-for-bit at the
        // paper's exact design point.
        let mut rng = StdRng::seed_from_u64(3);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 6, 6], 0.0, 1.0, &mut rng);
        let params = MacroParams::rom_paper();
        let outputs: Vec<Tensor> = [
            BackendKind::Analog,
            BackendKind::Popcount,
            BackendKind::Software,
        ]
        .into_iter()
        .map(|kind| {
            let conv = CimConv2d::compile_on(kind, &w, 1, 1, &[&x], params);
            conv.forward(&x, &mut rng).0
        })
        .collect();
        assert_eq!(outputs[0].data(), outputs[1].data());
        assert_eq!(outputs[1].data(), outputs[2].data());
    }

    #[test]
    fn cim_linear_matches_software_within_quantization() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[5, 24], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[3, 24], 0.0, 1.0, &mut rng);
        let bias: Vec<f32> = (0..5).map(|i| i as f32 * 0.1).collect();
        let linear = CimLinear::compile(&w, Some(&bias), &[&x], MacroParams::sram_paper());
        let (y, stats) = linear.forward(&x, &mut rng);
        assert!(stats.adc_conversions > 0);
        // Float reference: y = W x + b.
        for ni in 0..3 {
            for (o, b) in bias.iter().enumerate() {
                let expect: f32 = (0..24).map(|i| w.at(&[o, i]) * x.at(&[ni, i])).sum::<f32>() + b;
                let got = y.at(&[ni, o]);
                assert!((got - expect).abs() < 0.05, "{got} vs {expect}");
            }
        }
    }

    #[test]
    fn cim_linear_software_backend_zero_stats() {
        let mut rng = StdRng::seed_from_u64(5);
        let w = Tensor::randn(&[4, 16], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 16], 0.0, 1.0, &mut rng);
        let linear = CimLinear::compile_on(
            BackendKind::Software,
            &w,
            None,
            &[&x],
            MacroParams::sram_paper(),
        );
        assert_eq!(linear.subarrays(), 0);
        assert_eq!(linear.backend_name(), "software");
        let (_, stats) = linear.forward(&x, &mut rng);
        assert_eq!(stats, MvmStats::default());
    }

    #[test]
    fn split_ranges_covers_exactly() {
        assert_eq!(split_ranges(0, 4), vec![]);
        assert_eq!(split_ranges(5, 1), vec![(0, 5)]);
        assert_eq!(split_ranges(5, 2), vec![(0, 3), (3, 5)]);
        assert_eq!(split_ranges(3, 8), vec![(0, 1), (1, 2), (2, 3)]);
        for (len, parts) in [(17usize, 4usize), (64, 16), (7, 7)] {
            let r = split_ranges(len, parts);
            assert_eq!(r.first().unwrap().0, 0);
            assert_eq!(r.last().unwrap().1, len);
            assert!(r.windows(2).all(|w| w[0].1 == w[1].0));
        }
    }

    #[test]
    fn tiled_forward_bit_identical_for_any_hint() {
        // The tile decomposition must not change a single bit of the
        // output or the stats fold relative to the single-tile walk —
        // the root invariant of the tile-parallel scheduler.
        let mut rng = StdRng::seed_from_u64(9);
        let w = Tensor::randn(&[6, 3, 3, 3], 0.0, 0.4, &mut rng);
        let x = Tensor::rand_uniform(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let params = MacroParams::rom_paper();
        let mut conv = CimConv2d::compile(&w, 1, 1, &[&x], params);
        let (base, base_stats) = conv.forward(&x, &mut rng);
        for tiles in [2usize, 5, 16, 1000] {
            conv.set_tile_hint(tiles);
            let (y, s) = conv.forward(&x, &mut rng);
            assert_eq!(base.data(), y.data(), "tiles = {tiles}");
            assert_eq!(base_stats.analog_evaluations, s.analog_evaluations);
            assert_eq!(base_stats.adc_conversions, s.adc_conversions);
            assert_eq!(base_stats.wl_pulses, s.wl_pulses);
        }
    }

    /// The float-staging reference: f32 im2col (zero padding), every
    /// patch element quantized, a software-backend MVM, then the layer's
    /// own dequantization, scattered to `(N, OC, OH, OW)`.
    fn reference_forward(conv: &CimConv2d, x: &Tensor) -> Vec<f32> {
        let cols = im2col(x, &conv.geom);
        let (patch, positions) = (cols.shape()[0], cols.shape()[1]);
        let mut codes = Vec::with_capacity(patch * positions);
        for pos in 0..positions {
            for r in 0..patch {
                codes.push(
                    conv.act_params
                        .quantize_value(cols.data()[r * positions + pos]),
                );
            }
        }
        let spec = &conv.program;
        let sw = program_backend(
            BackendKind::Software,
            spec.params,
            &spec.codes,
            spec.outs,
            patch,
        );
        let mut accs = vec![0i64; positions * spec.outs];
        sw.mvm_batch(
            &codes,
            positions,
            &mut accs,
            &mut MvmStats::default(),
            &mut MvmScratch::new(),
            &mut DynRng(&mut StdRng::seed_from_u64(0)),
        );
        let (h, w) = (x.shape()[2], x.shape()[3]);
        let (oh, ow) = conv.output_hw(h, w);
        let mut out = vec![0f32; positions * spec.outs];
        for (pos, acc) in accs.chunks_exact(spec.outs).enumerate() {
            let (ni, p) = (pos / (oh * ow), pos % (oh * ow));
            for (o, &a) in acc.iter().enumerate() {
                out[(ni * spec.outs + o) * oh * ow + p] =
                    conv.dequant.value(o, a, &conv.act_params);
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Runs `conv` on `x` through the whole-op `forward_in` and through
    /// the scheduler's `lower` + `forward_tile_with` + `scatter_tile`
    /// path at tile hints 1, 2 and 7, every run from the same seed,
    /// asserting the paths agree bit for bit in values and stats and
    /// that every hint gives the same values (noise is drawn per
    /// position, in position order): `want` when given (the
    /// float-staging reference), else hint 1's. Returns the layouts the
    /// whole op and the tiles staged in.
    fn assert_staging_paths_agree(
        conv: &mut CimConv2d,
        x: &Tensor,
        want: Option<Vec<u32>>,
        case: &str,
    ) -> Vec<MatmulLayout> {
        let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
        let (oh, ow) = conv.output_hw(h, w);
        let outs = conv.out_channels;
        let mut want = want;
        let mut layouts = vec![conv.engine.batch_layout(n * oh * ow)];
        let mut scratch = CimScratch::new();
        for tiles in [1, 2, 7] {
            conv.set_tile_hint(tiles);
            let mut y = vec![0f32; n * outs * oh * ow];
            let mut rng = StdRng::seed_from_u64(0);
            let stats = conv.forward_in(x.data(), n, h, w, &mut y, &mut scratch, &mut rng);
            let want = want.get_or_insert_with(|| bits(&y));
            assert_eq!(&bits(&y), want, "forward_in {case} t{tiles}");
            // The scheduler's path: lower once, then run, scatter and
            // fold each tile in order.
            let mut rng = StdRng::seed_from_u64(0);
            let cols = conv.lower(x);
            let mut tiled = Tensor::zeros(&[n, outs, oh, ow]);
            let mut tiled_stats = MvmStats::default();
            for (lo, hi) in conv.tile_ranges(n * oh * ow) {
                layouts.push(conv.engine.batch_layout(hi - lo));
                let (vals, s) = conv.forward_tile_with(&cols, lo, hi, &mut scratch, &mut rng);
                conv.scatter_tile(&mut tiled, lo, &vals);
                tiled_stats.merge(&s);
            }
            assert_eq!(&bits(tiled.data()), want, "tiled {case} t{tiles}");
            assert_eq!(tiled_stats, stats, "stats {case} t{tiles}");
        }
        layouts
    }

    /// [`assert_staging_paths_agree`] against the float-staging
    /// reference.
    fn assert_staging_matches_reference(
        conv: &mut CimConv2d,
        x: &Tensor,
        case: &str,
    ) -> Vec<MatmulLayout> {
        let want = bits(&reference_forward(conv, x));
        assert_staging_paths_agree(conv, x, Some(want), case)
    }

    #[test]
    fn quantize_once_staging_matches_the_float_staging_reference() {
        // Inputs straddle zero, so the activation zero point (and with it
        // every padding tap's code) is far from 0: a lowering that pads
        // with code 0 instead of the zero point fails here.
        let mut rng = StdRng::seed_from_u64(12);
        let mut layouts = Vec::new();
        // 8 outputs take the transposed panel once a tile holds >= 4
        // positions on a SIMD tier; 40 outputs always stage row-major.
        for outs in [8, 40] {
            for k in [1, 3, 5] {
                let w = Tensor::randn(&[outs, 3, k, k], 0.0, 0.3, &mut rng);
                for stride in [1, 2] {
                    for padding in [0, 1, 2] {
                        for n in [1, 2] {
                            let x = Tensor::rand_uniform(&[n, 3, 6, 6], -1.0, 1.0, &mut rng);
                            let params = MacroParams::rom_paper();
                            let mut conv = CimConv2d::compile(&w, stride, padding, &[&x], params);
                            assert_ne!(conv.act_params.quantize_value(0.0), 0, "zero point");
                            let case = format!("outs{outs} k{k} s{stride} p{padding} n{n}");
                            layouts.extend(assert_staging_matches_reference(&mut conv, &x, &case));
                        }
                    }
                }
            }
        }
        // Maps narrower than the padding, where whole kernel rows and
        // columns read only padding taps.
        for (k, stride, padding, hw) in [(5, 1, 2, 1), (5, 1, 2, 2), (7, 2, 3, 2)] {
            let w = Tensor::randn(&[8, 3, k, k], 0.0, 0.3, &mut rng);
            let x = Tensor::rand_uniform(&[2, 3, hw, hw], -1.0, 1.0, &mut rng);
            let mut conv = CimConv2d::compile(&w, stride, padding, &[&x], MacroParams::rom_paper());
            let case = format!("narrow k{k} s{stride} p{padding} hw{hw}");
            layouts.extend(assert_staging_matches_reference(&mut conv, &x, &case));
        }
        assert!(layouts.contains(&MatmulLayout::RowMajor));
        if KernelDispatch::from_env().resolve() != yoloc_cim::KernelKind::Scalar {
            assert!(layouts.contains(&MatmulLayout::Transposed));
        }
    }

    #[test]
    fn noisy_staging_agrees_between_the_whole_op_and_the_tiles() {
        // A noisy macro runs the per-vector analog walk, drawing its
        // noise vector by vector: the one whole-op call and the
        // scheduler's tiles must draw the same stream from the same seed
        // and fold the same stats.
        let mut rng = StdRng::seed_from_u64(13);
        let mut params = MacroParams::rom_paper();
        params.noise_sigma = 0.3;
        for (k, stride, padding) in [(3, 1, 1), (1, 2, 0)] {
            let w = Tensor::randn(&[6, 3, k, k], 0.0, 0.3, &mut rng);
            let x = Tensor::rand_uniform(&[2, 3, 7, 7], -1.0, 1.0, &mut rng);
            let mut conv = CimConv2d::compile(&w, stride, padding, &[&x], params);
            assert_eq!(conv.backend_name(), "analog-reference");
            let case = format!("noisy k{k} s{stride} p{padding}");
            assert_staging_paths_agree(&mut conv, &x, None, &case);
        }
    }
}
