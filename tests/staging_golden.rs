//! Golden-digest suite for the CiM activation staging.
//!
//! Each case compiles a seeded network, runs seeded inputs through it
//! and folds every logit bit plus the full modeled `ExecutionReport`
//! into one FNV-1a digest. The constants below were captured from the
//! f32-im2col staging (quantize every patch element), so any staging
//! rewrite is checked against that path rather than against itself.
//!
//! Covered paths: the arena executor (`CompiledNetwork::infer_in`) on
//! five zoo networks, the tile scheduler (`infer_tiled`) on the same
//! plans, and a ReBranch `TinyCnn` deployed through `CimDeployedModel`
//! (trunk, compress, SRAM Res-Conv, decompress, SRAM classifier). The
//! datapath is noiseless, so the digests hold under every forced kernel
//! tier (`YOLOC_KERNEL=scalar|avx2|avx512`).

use rand::rngs::StdRng;
use rand::SeedableRng;

use yoloc::cim::MacroParams;
use yoloc::core::compiler::{CompileOptions, CompiledNetwork, ExecutionReport};
use yoloc::core::engine::WorkerPool;
use yoloc::core::pipeline::CimDeployedModel;
use yoloc::core::{ConvBlock, ConvUnit, Family, ReBranchConv, ReBranchRatios, TinyCnn};
use yoloc::models::{zoo, NetworkDesc};
use yoloc::tensor::layers::Linear;
use yoloc::tensor::Tensor;

/// Seeded inputs per case.
const INPUTS: usize = 3;
/// Compile / weight seed of every zoo case.
const SEED: u64 = 0x57A6_1A6E;

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn f64(self, v: f64) -> Self {
        self.word(v.to_bits())
    }

    /// Mixes in every output bit and every modeled report field.
    fn inference(mut self, out: &Tensor, r: &ExecutionReport) -> Self {
        self = self.word(out.data().len() as u64);
        for v in out.data() {
            self = self.word(u64::from(v.to_bits()));
        }
        for s in [&r.rom, &r.sram] {
            self = self
                .word(s.analog_evaluations)
                .word(s.adc_conversions)
                .word(s.wl_pulses)
                .f64(s.energy_pj)
                .f64(s.latency_ns);
        }
        let e = &r.energy;
        for v in [
            e.cim_uj,
            e.peripheral_uj,
            e.buffer_uj,
            e.noc_uj,
            e.dram_uj,
            e.write_uj,
            e.stall_uj,
            e.link_uj,
            r.latency_ns,
        ] {
            self = self.f64(v);
        }
        for &v in r.per_op_latency_ns.iter().chain(&r.intra_sample_latency_ns) {
            self = self.f64(v);
        }
        self.word(r.buffer_traffic_bits)
            .word(r.noc_traffic_bits)
            .word(r.link_traffic_bits)
            .word(r.dram_traffic_bits)
            .word(r.peak_arena_bytes)
            .word(r.naive_arena_bytes)
    }
}

fn inputs(shape: &[usize], seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..INPUTS)
        .map(|_| Tensor::rand_uniform(shape, 0.0, 1.0, &mut rng))
        .collect()
}

/// The zoo cases: `(desc, arena digest, scheduler digest)`.
fn zoo_cases() -> [(NetworkDesc, u64, u64); 5] {
    [
        (
            zoo::scaled(&zoo::vgg8(3), 16, (16, 16)),
            0x2bf4_2cbb_2663_ca05,
            0xaafb_5b46_dfaa_5995,
        ),
        (
            zoo::scaled(&zoo::resnet18(3), 16, (32, 32)),
            0x8c23_6714_ffa9_8b5d,
            0x16ae_d322_7839_4930,
        ),
        (
            zoo::scaled(&zoo::tiny_yolo(4, 2), 16, (64, 64)),
            0x11ef_6ea7_ea8d_58fd,
            0x5556_6cca_5af2_a31e,
        ),
        (
            zoo::scaled(&zoo::darknet19(8), 16, (64, 64)),
            0xbbcd_9f80_68d1_9941,
            0xcc6e_e32a_9636_e1bf,
        ),
        (
            zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
            0x5578_48e9_e001_01d5,
            0x74fb_dacf_97c6_0a01,
        ),
    ]
}

/// Digest of the ReBranch `TinyCnn` deployment.
const REBRANCH_DIGEST: u64 = 0x8360_f275_aa63_43d5;

fn compile(desc: &NetworkDesc) -> CompiledNetwork {
    CompiledNetwork::compile_random(desc, SEED, CompileOptions::paper_default())
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", desc.name))
}

#[test]
fn zoo_networks_match_the_golden_digests() {
    let mut mismatches = Vec::new();
    for (i, (desc, arena_want, tiled_want)) in zoo_cases().into_iter().enumerate() {
        let net = compile(&desc);
        let (c, h, w) = desc.input;
        let xs = inputs(&[1, c, h, w], SEED ^ i as u64);
        let mut arena = net.take_arena();
        let mut rng = StdRng::seed_from_u64(0);
        // Two passes over the inputs: the second runs on warm scratch.
        let mut arena_got = Digest::new();
        for x in xs.iter().chain(&xs) {
            let (y, r) = net.infer_in(x, &mut rng, &mut arena);
            arena_got = arena_got.inference(y, r);
        }
        net.give_arena(arena);
        let tiled_got = WorkerPool::with(2, |pool| {
            xs.iter().fold(Digest::new(), |d, x| {
                let (y, r) = net.infer_tiled(x, 7, pool);
                d.inference(&y, &r)
            })
        });
        for (path, got, want) in [
            ("infer_in", arena_got.0, arena_want),
            ("infer_tiled", tiled_got.0, tiled_want),
        ] {
            if got != want {
                mismatches.push(format!(
                    "{} {path}: got {got:#018x}, want {want:#018x}",
                    desc.name
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// A three-block ReBranch `TinyCnn` (paper D = U = 4) with trained-like
/// SRAM Res-Conv weights, plus its calibration batch.
fn rebranch_model() -> (TinyCnn, Tensor) {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x2EB2);
    let mut blocks = Vec::new();
    let mut c = 3;
    for (i, (oc, pool, skip)) in [(8, true, false), (16, true, false), (16, false, true)]
        .into_iter()
        .enumerate()
    {
        let mut rb = ReBranchConv::new(
            &format!("b{i}"),
            c,
            oc,
            3,
            1,
            1,
            ReBranchRatios::paper_default(),
            &mut rng,
        );
        let shape = rb.res_conv_mut().weight.value.shape().to_vec();
        rb.res_conv_mut().weight.value = Tensor::randn(&shape, 0.0, 0.1, &mut rng);
        rb.freeze_trunk();
        blocks.push(ConvBlock::bare(ConvUnit::ReBranch(rb), pool, skip));
        c = oc;
    }
    let classifier = Linear::new("fc", c, 10, true, &mut rng);
    let calibration = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    (
        TinyCnn::from_parts(blocks, classifier, Family::Vgg),
        calibration,
    )
}

#[test]
fn rebranch_deployment_matches_the_golden_digest() {
    let (model, calibration) = rebranch_model();
    let deployed = CimDeployedModel::deploy(
        &model,
        &calibration,
        MacroParams::rom_paper(),
        MacroParams::sram_paper(),
    );
    let plan = deployed.plan();
    let mut arena = plan.take_arena();
    let mut rng = StdRng::seed_from_u64(0);
    let mut got = Digest::new();
    let xs = inputs(&[1, 3, 16, 16], SEED ^ 0x2EB3);
    for x in xs.iter().chain(&xs) {
        let (y, r) = plan.execute_in(x, &mut rng, &mut arena);
        got = got.inference(y, r);
    }
    let batch = Tensor::rand_uniform(&[2, 3, 16, 16], 0.0, 1.0, &mut rng);
    let (y, r) = deployed.infer_report(&batch, &mut rng);
    got = got.inference(&y, &r);
    assert_eq!(
        got.0, REBRANCH_DIGEST,
        "rebranch: got {:#018x}, want {REBRANCH_DIGEST:#018x}",
        got.0
    );
}
