//! `yolo`: darknet19 (width /16, 64x64) and yolo-v2 (/32, 64x64) compiled
//! with the paper defaults, alternating warm single-sample `infer_in` over
//! 16 seeded inputs each. Single thread, closed loop. The traced run also
//! replays plan-cache deploys ([`crate::deploy`]) and brokered traffic
//! ([`crate::serve`]).

use std::path::PathBuf;

use rand::rngs::StdRng;
use rand::SeedableRng;
use yoloc_core::compiler::ExecArena;
use yoloc_core::CompiledNetwork;
use yoloc_models::{zoo, NetworkDesc};
use yoloc_tensor::Tensor;

use super::{compile, zoo_layers, Args, Bench, Step};
use crate::probe::{inference_digest, with_scalar_kernels};
use crate::trace::Tracer;
use crate::Values;
use crate::{deploy, serve};

/// Seeded inputs per network.
pub const INPUTS: usize = 16;

/// The two detection networks.
pub fn descs() -> Vec<NetworkDesc> {
    vec![
        zoo::scaled(&zoo::darknet19(8), 16, (64, 64)),
        zoo::scaled(&zoo::yolo_v2(4, 2), 32, (64, 64)),
    ]
}

/// The `(1, C, H, W)` inputs of network `net`, generated from `seed`.
pub fn inputs(desc: &NetworkDesc, net: usize, seed: u64) -> Vec<Tensor> {
    let (c, h, w) = desc.input;
    let mut rng = StdRng::seed_from_u64(seed ^ (0x1000 + net as u64));
    (0..INPUTS)
        .map(|_| Tensor::rand_uniform(&[1, c, h, w], 0.0, 1.0, &mut rng))
        .collect()
}

struct Net {
    desc: NetworkDesc,
    net: CompiledNetwork,
    arena: ExecArena,
    inputs: Vec<Tensor>,
    /// Scalar-tier digest per input.
    expect: Vec<u64>,
}

/// The `yolo` workload.
pub struct Yolo {
    seed: u64,
    smoke: bool,
    nets: Vec<Net>,
    rng: StdRng,
}

impl Bench for Yolo {
    fn setup(args: &Args) -> Self {
        let mut rng = StdRng::seed_from_u64(0);
        let nets = descs()
            .into_iter()
            .enumerate()
            .map(|(i, desc)| {
                let net = compile(&desc, args.seed);
                let inputs = inputs(&desc, i, args.seed);
                let mut arena = net.take_arena();
                for x in &inputs {
                    let _ = net.infer_in(x, &mut rng, &mut arena);
                }
                Net {
                    desc,
                    net,
                    arena,
                    inputs,
                    expect: Vec::new(),
                }
            })
            .collect();
        Yolo {
            seed: args.seed,
            smoke: args.smoke,
            nets,
            rng,
        }
    }

    fn oracle(&mut self) -> (u64, u64) {
        for n in &mut self.nets {
            let twin = with_scalar_kernels(|| compile(&n.desc, self.seed));
            n.expect = n
                .inputs
                .iter()
                .map(|x| {
                    let (y, r) = twin.infer(x, &mut StdRng::seed_from_u64(0));
                    inference_digest(y.data(), &r)
                })
                .collect();
        }
        (0, 0)
    }

    fn groups(&self) -> usize {
        self.nets.len()
    }

    fn step(&mut self, tr: &mut Tracer, i: u64) -> Step {
        let group = i as usize % self.nets.len();
        let k = (i as usize / self.nets.len()) % INPUTS;
        let n = &mut self.nets[group];
        let open = tr.begin("compiler.infer_in", i);
        let (y, r) = n.net.infer_in(&n.inputs[k], &mut self.rng, &mut n.arena);
        let ns = tr.end(open);
        let ok = inference_digest(y.data(), r) == n.expect[k];
        Step {
            group,
            ns,
            units: 1,
            attempted: 1,
            failed: u64::from(!ok),
        }
    }

    fn layers(&mut self, tr: &mut Tracer, reps: usize, unit_us: f64) -> (Values, (u64, u64)) {
        let nets: Vec<_> = self
            .nets
            .iter()
            .map(|n| (&n.desc, &n.net, &n.inputs[0]))
            .collect();
        let (mut v, mean) = zoo_layers(tr, &nets, self.seed, reps);
        v.insert("unattributed_share", 1.0 - mean.infer_in_us / unit_us);
        // A deploy cycle re-parses every plan and a serve pass takes over a
        // second: keep each replay near five of them.
        let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let (deploys, (a, f)) =
            deploy::layers(tr, self.seed, (reps / 10).max(1), reps.div_ceil(16), &root);
        let duration = if self.smoke {
            serve::SMOKE_DURATION_NS
        } else {
            serve::DURATION_NS
        };
        let (served, (b, g)) = serve::layers(tr, self.seed, duration, (reps / 10).max(1));
        v.extend(deploys);
        v.extend(served);
        (v, (a + b, f + g))
    }
}
