//! Remainder-lane kernel parity suite (tier-3 acceptance gate): every
//! kernel tier the host can execute, in **both** batch layouts, must be
//! bit-identical to the scalar row-major reference — in values *and*
//! `MvmStats` — at shapes that are deliberately not multiples of any
//! SIMD lane width (1, 2, 3, 9, 17, 31) across batch sizes 1..=33.
//!
//! These shapes pin every tail path: the AVX2 8-lane and AVX-512
//! 16-lane panel remainders, the `i16` madd half-register tail, the
//! popcount plane padding (4 vs 8 staged vectors), and the quad-column
//! remainder of the blocked matmuls. The overdriven-ADC variant forces
//! the pulse mask-stream path, and the noisy variant checks the
//! per-vector analog fallback consumes its RNG stream identically
//! through the transposed entry.
//!
//! Every case also pins the tile-structured stats fold of
//! `mvm_batch_tiled`: one call over `tiles` ranges (1, 2, 3 and 7,
//! including more tiles than vectors) must equal one single-tile call
//! per range merged in order — values, `MvmStats` and the RNG's next
//! draw — in both layouts, on every tier and on the software backend.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use yoloc::cim::backend::{
    program_backend, split_ranges, BackendKind, BatchActs, MvmBackend, MvmScratch,
};
use yoloc::cim::kernels::{available_kinds, transposed_pad, KernelKind};
use yoloc::cim::{MacroParams, MvmStats};

/// Dimensions that are not a multiple of any lane width in play
/// (4, 8, 16 and 32 all miss every value except via the 1/2-aliasing
/// the padding logic must absorb).
const ODD_DIMS: [usize; 6] = [1, 2, 3, 9, 17, 31];

fn seeded_matrix(outs: usize, ins: usize, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..outs * ins).map(|_| rng.gen_range(-128..=127)).collect()
}

fn seeded_acts(n: usize, ins: usize, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_AC75);
    (0..n * ins).map(|_| rng.gen_range(0..=255)).collect()
}

/// Stages `acts` (vector-major) as the lane-major transposed panel.
fn to_panel(acts: &[i32], n: usize, ins: usize) -> (Vec<i32>, usize) {
    let n_pad = transposed_pad(n);
    let mut acts_t = vec![0i32; ins * n_pad];
    for v in 0..n {
        for i in 0..ins {
            acts_t[i * n_pad + v] = acts[v * ins + i];
        }
    }
    (acts_t, n_pad)
}

/// The tile counts the fold checks sweep; 7 exceeds the smallest batches.
const TILES: [usize; 4] = [1, 2, 3, 7];

/// Runs `acts` (vector-major; `transposed` stages them as panels)
/// through `b` from `seed`, returning the accumulators, the stats and
/// the RNG's next draw: as one `mvm_batch_tiled` call over `tiles`
/// ranges, or (`per_range`) as one single-tile call per range, merged
/// in range order.
fn run_tiled(
    b: &dyn MvmBackend,
    acts: &[i32],
    n: usize,
    tiles: usize,
    transposed: bool,
    per_range: bool,
    seed: u64,
) -> (Vec<i64>, MvmStats, u64) {
    let (outs, ins) = b.dims();
    let mut out = vec![0i64; n * outs];
    let mut stats = MvmStats::default();
    let mut scratch = MvmScratch::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let ranges = if per_range {
        split_ranges(n, tiles)
    } else {
        vec![(0, n)]
    };
    for (lo, hi) in ranges {
        let block = &acts[lo * ins..hi * ins];
        let (acts_t, n_pad) = to_panel(block, hi - lo, ins);
        let staged = if transposed {
            BatchActs::Transposed {
                acts_t: &acts_t,
                n_pad,
            }
        } else {
            BatchActs::RowMajor(block)
        };
        let mut tile_stats = MvmStats::default();
        b.mvm_batch_tiled(
            staged,
            hi - lo,
            if per_range { 1 } else { tiles },
            &mut out[lo * outs..hi * outs],
            &mut tile_stats,
            &mut scratch,
            &mut rng,
        );
        stats.merge(&tile_stats);
    }
    (out, stats, rng.next_u64())
}

/// Asserts one tiled call equals its per-range calls merged in order,
/// for every tile count in [`TILES`] and both layouts.
fn assert_tiled_fold(b: &dyn MvmBackend, acts: &[i32], n: usize, seed: u64, what: &str) {
    let (outs, ins) = b.dims();
    for tiles in TILES {
        for transposed in [false, true] {
            let whole = run_tiled(b, acts, n, tiles, transposed, false, seed);
            let split = run_tiled(b, acts, n, tiles, transposed, true, seed);
            assert_eq!(
                whole, split,
                "{what} tiles={tiles} transposed={transposed} at {outs}x{ins} n={n}"
            );
        }
    }
}

/// Runs one backend at `(outs, ins, n)` under every available kernel
/// tier and both layouts, asserting each run reproduces the forced
/// scalar row-major golden result bit for bit from the same RNG seed.
fn assert_remainder_parity(params: MacroParams, outs: usize, ins: usize, n: usize, seed: u64) {
    let codes = seeded_matrix(outs, ins, seed);
    let acts = seeded_acts(n, ins, seed);
    let (acts_t, n_pad) = to_panel(&acts, n, ins);
    let mut b = program_backend(BackendKind::Popcount, params, &codes, outs, ins);
    let mut scratch = MvmScratch::new();

    b.set_kernel(KernelKind::Scalar);
    let mut golden = vec![0i64; n * outs];
    let mut golden_stats = MvmStats::default();
    let mut rng = StdRng::seed_from_u64(seed);
    b.mvm_batch(
        &acts,
        n,
        &mut golden,
        &mut golden_stats,
        &mut scratch,
        &mut rng,
    );

    for kind in available_kinds() {
        b.set_kernel(kind);
        let mut out = vec![0i64; n * outs];
        let mut stats = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch(&acts, n, &mut out, &mut stats, &mut scratch, &mut rng);
        assert_eq!(
            out,
            golden,
            "{} row-major diverges at {outs}x{ins} n={n}",
            kind.label()
        );
        assert_eq!(
            stats,
            golden_stats,
            "{} row-major stats diverge at {outs}x{ins} n={n}",
            kind.label()
        );

        let mut out_t = vec![0i64; n * outs];
        let mut stats_t = MvmStats::default();
        let mut rng = StdRng::seed_from_u64(seed);
        b.mvm_batch_transposed(
            &acts_t,
            n,
            n_pad,
            &mut out_t,
            &mut stats_t,
            &mut scratch,
            &mut rng,
        );
        assert_eq!(
            out_t,
            golden,
            "{} transposed diverges at {outs}x{ins} n={n}",
            kind.label()
        );
        assert_eq!(
            stats_t,
            golden_stats,
            "{} transposed stats diverge at {outs}x{ins} n={n}",
            kind.label()
        );
        assert_tiled_fold(b.as_ref(), &acts, n, seed, kind.label());
    }
}

#[test]
fn remainder_shapes_hold_parity_on_the_exact_path() {
    // Paper design point: identity ADC, so the exact matmul (madd /
    // mullo tails included) carries the batch. Full cross of the odd
    // dimensions; batch sizes sweep every panel-tail residue mod 16.
    let params = MacroParams::rom_paper();
    for &outs in &ODD_DIMS {
        for &ins in &ODD_DIMS {
            for n in 1..=33 {
                assert_remainder_parity(params, outs, ins, n, 0xD1 + n as u64);
            }
        }
    }
}

#[test]
fn remainder_shapes_hold_parity_under_adc_quantization() {
    // Overdriven rows (full scale >> 31 ADC levels): the batch goes
    // down the pulse mask-stream path, whose plane padding differs by
    // tier (4 vs 8 staged vectors). Subset of the cross — this path is
    // an order of magnitude slower per call.
    let mut params = MacroParams::rom_paper();
    params.rows_per_activation = 32;
    for &(outs, ins) in &[(1, 9), (3, 17), (17, 31), (2, 2)] {
        for n in [1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 32, 33] {
            assert_remainder_parity(params, outs, ins, n, 0xADC + n as u64);
        }
    }
}

#[test]
fn remainder_shapes_hold_parity_on_the_noisy_fallback() {
    // Noise disables the fast path entirely: both batch entries must
    // fall back to the per-vector analog walk and consume the RNG
    // stream in the same vector order.
    let mut params = MacroParams::rom_paper();
    params.noise_sigma = 0.25;
    for &(outs, ins) in &[(2, 9), (3, 31), (17, 1)] {
        for n in [1, 4, 16, 33] {
            assert_remainder_parity(params, outs, ins, n, 0x0157 + n as u64);
        }
    }
}

#[test]
fn software_backend_holds_the_tiled_fold() {
    // The digital reference reports no analog events, so every tiling
    // folds to zero stats; values and the untouched RNG must still match.
    for &(outs, ins) in &[(1, 9), (3, 17), (17, 31)] {
        for n in [1, 2, 5, 16, 33] {
            let seed = 0x50F7 + n as u64;
            let codes = seeded_matrix(outs, ins, seed);
            let b = program_backend(
                BackendKind::Software,
                MacroParams::rom_paper(),
                &codes,
                outs,
                ins,
            );
            assert_tiled_fold(b.as_ref(), &seeded_acts(n, ins, seed), n, seed, "software");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn prop_random_odd_shapes_hold_parity(seed in 0u64..100_000) {
        // Random draws over the odd-dimension grid with fresh random
        // codes and activations per case; rotates the ADC regime so the
        // sweep covers both the exact and the quantizing path.
        let mut rng = StdRng::seed_from_u64(seed);
        let outs = ODD_DIMS[rng.gen_range(0..ODD_DIMS.len())];
        let ins = ODD_DIMS[rng.gen_range(0..ODD_DIMS.len())];
        let n = rng.gen_range(1..=33usize);
        let mut params = MacroParams::rom_paper();
        if seed % 3 == 0 {
            params.rows_per_activation = 32;
        }
        assert_remainder_parity(params, outs, ins, n, seed);
    }
}
