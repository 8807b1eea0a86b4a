//! `rebranch`: a TinyCnn of ReBranch blocks (paper D = U = 4) built from
//! seeded random weights, deployed with `CimDeployedModel::deploy`, and
//! run as a single-sample `execute_in` loop on one thread.

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoloc_cim::MacroParams;
use yoloc_core::compiler::ExecArena;
use yoloc_core::pipeline::CimDeployedModel;
use yoloc_core::{ConvBlock, ConvUnit, Family, ReBranchConv, ReBranchRatios, TinyCnn};
use yoloc_tensor::layers::Linear;
use yoloc_tensor::Tensor;

use super::{Args, Bench, Step};
use crate::probe::{inference_digest, median, with_scalar_kernels};
use crate::replay::{replay_net, ConvShape, LinearShape, NetShapes};
use crate::trace::Tracer;
use crate::Values;

/// Seeded inputs.
pub const INPUTS: usize = 16;
/// Input `(C, H, W)`.
pub const INPUT: (usize, usize, usize) = (3, 32, 32);
/// Blocks as `(out_channels, pool_after, skip)`.
const BLOCKS: [(usize, bool, bool); 4] = [
    (16, true, false),
    (32, true, false),
    (64, true, false),
    (64, false, true),
];
const CLASSES: usize = 10;

/// The ReBranch model and calibration batch generated from `seed`.
pub fn model(seed: u64) -> (TinyCnn, Tensor) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2EB2);
    let mut blocks = Vec::new();
    let mut c = INPUT.0;
    for (i, &(oc, pool, skip)) in BLOCKS.iter().enumerate() {
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
        // Res-Conv starts at zero; give the SRAM branch trained-like weights.
        let shape = rb.res_conv_mut().weight.value.shape().to_vec();
        rb.res_conv_mut().weight.value = Tensor::randn(&shape, 0.0, 0.1, &mut rng);
        rb.freeze_trunk();
        blocks.push(ConvBlock::bare(ConvUnit::ReBranch(rb), pool, skip));
        c = oc;
    }
    let classifier = Linear::new("fc", c, CLASSES, true, &mut rng);
    let calibration = Tensor::rand_uniform(&[2, INPUT.0, INPUT.1, INPUT.2], 0.0, 1.0, &mut rng);
    (
        TinyCnn::from_parts(blocks, classifier, Family::Vgg),
        calibration,
    )
}

/// The `(1, C, H, W)` inputs generated from `seed`.
pub fn inputs(seed: u64) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x2EB3);
    (0..INPUTS)
        .map(|_| Tensor::rand_uniform(&[1, INPUT.0, INPUT.1, INPUT.2], 0.0, 1.0, &mut rng))
        .collect()
}

/// The CiM layers the deployed plan executes: per block the trunk,
/// compress (1x1), SRAM Res-Conv (3x3) and decompress (1x1), then the
/// SRAM classifier. `CimDeployedModel` leaves the tile hint at 1.
pub fn shapes() -> NetShapes {
    let r = ReBranchRatios::paper_default();
    let (mut c, mut h) = (INPUT.0, INPUT.1);
    let mut convs = Vec::new();
    for &(m, pool, _) in &BLOCKS {
        let (nc, mc) = ((c / r.d).max(1), (m / r.u).max(1));
        let conv = |c, oc, k, pad, sram| ConvShape {
            c,
            oc,
            k,
            stride: 1,
            pad,
            h,
            w: h,
            sram,
        };
        convs.extend([
            conv(c, m, 3, 1, false),
            conv(c, nc, 1, 0, false),
            conv(nc, mc, 3, 1, true),
            conv(mc, m, 1, 0, false),
        ]);
        c = m;
        if pool {
            h /= 2;
        }
    }
    NetShapes {
        convs,
        linears: vec![LinearShape {
            ins: c,
            outs: CLASSES,
            sram: true,
        }],
        tiles: 1,
    }
}

fn deploy(model: &TinyCnn, calibration: &Tensor) -> CimDeployedModel {
    CimDeployedModel::deploy(
        model,
        calibration,
        MacroParams::rom_paper(),
        MacroParams::sram_paper(),
    )
}

/// The `rebranch` workload.
pub struct Rebranch {
    seed: u64,
    model: TinyCnn,
    calibration: Tensor,
    deployed: CimDeployedModel,
    arena: ExecArena,
    inputs: Vec<Tensor>,
    expect: Vec<u64>,
    rng: StdRng,
}

impl Bench for Rebranch {
    fn setup(args: &Args) -> Self {
        let (model, calibration) = model(args.seed);
        let deployed = deploy(&model, &calibration);
        let inputs = inputs(args.seed);
        let mut rng = StdRng::seed_from_u64(0);
        let mut arena = deployed.plan().take_arena();
        for x in &inputs {
            let _ = deployed.plan().execute_in(x, &mut rng, &mut arena);
        }
        Rebranch {
            seed: args.seed,
            model,
            calibration,
            deployed,
            arena,
            inputs,
            expect: Vec::new(),
            rng,
        }
    }

    fn oracle(&mut self) -> (u64, u64) {
        let twin = with_scalar_kernels(|| deploy(&self.model, &self.calibration));
        self.expect = self
            .inputs
            .iter()
            .map(|x| {
                let (y, r) = twin.infer_report(x, &mut StdRng::seed_from_u64(0));
                inference_digest(y.data(), &r)
            })
            .collect();
        (0, 0)
    }

    fn groups(&self) -> usize {
        1
    }

    fn step(&mut self, tr: &mut Tracer, i: u64) -> Step {
        let k = i as usize % INPUTS;
        let open = tr.begin("rebranch.execute_in", i);
        let (y, r) =
            self.deployed
                .plan()
                .execute_in(&self.inputs[k], &mut self.rng, &mut self.arena);
        let ns = tr.end(open);
        let ok = inference_digest(y.data(), r) == self.expect[k];
        Step {
            group: 0,
            ns,
            units: 1,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layers(&mut self, tr: &mut Tracer, reps: usize, unit_us: f64) -> (Values, (u64, u64)) {
        let shapes = shapes();
        let l = replay_net(
            tr,
            0,
            self.deployed.plan(),
            &self.inputs[0],
            &shapes,
            self.seed,
            reps,
        );
        let mut v = Values::new();
        l.insert_into(&mut v);
        let deploy_ms = median(
            &(0..reps.div_ceil(8))
                .map(|i| {
                    tr.time("rebranch.deploy", i as u64, || {
                        deploy(&self.model, &self.calibration)
                    })
                    .1 as f64
                        / 1e6
                })
                .collect::<Vec<_>>(),
        );
        v.insert("rebranch.deploy_ms", deploy_ms);
        v.insert("rebranch.infer_us", l.infer_in_us);
        v.insert("compiler.compile_ms", deploy_ms);
        v.insert("compiler.plan_ops", self.deployed.plan().len() as f64);
        v.insert("unattributed_share", 1.0 - l.infer_in_us / unit_us);
        (v, (0, 0))
    }
}
