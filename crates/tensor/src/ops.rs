//! Convolution lowering primitives: `im2col` / `col2im`, pooling kernels.
//!
//! Convolutions in the CiM datapath are executed as matrix-vector products
//! over unrolled patches (the same lowering the paper's mapping scheme uses
//! to place weights in 128x256 subarrays), so `im2col` is the shared
//! geometry for both the training substrate and the hardware mapper.

use crate::tensor::Tensor;

/// Geometry of a 2-D convolution / pooling window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dGeometry {
    /// Input channels.
    pub in_channels: usize,
    /// Kernel side length (square kernels).
    pub kernel: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero-padding in both dimensions.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Output spatial size for an input of `(h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if the window does not fit the padded input.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let eff_h = h + 2 * self.padding;
        let eff_w = w + 2 * self.padding;
        assert!(
            eff_h >= self.kernel && eff_w >= self.kernel,
            "kernel {} does not fit padded input {}x{}",
            self.kernel,
            eff_h,
            eff_w
        );
        (
            (eff_h - self.kernel) / self.stride + 1,
            (eff_w - self.kernel) / self.stride + 1,
        )
    }

    /// Rows of the im2col matrix: `C * k * k`.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }
}

/// Unrolls an `(N, C, H, W)` input into a `(C*k*k, N*OH*OW)` patch matrix.
///
/// Column `n*OH*OW + oh*OW + ow` holds the receptive field of output pixel
/// `(oh, ow)` of sample `n`; out-of-bounds taps read as zero.
///
/// # Panics
///
/// Panics if `x` is not rank-4 or its channel count mismatches `geom`.
pub fn im2col(x: &Tensor, geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(x.ndim(), 4, "im2col expects (N, C, H, W)");
    let (n, h, w) = (x.shape()[0], x.shape()[2], x.shape()[3]);
    assert_eq!(x.shape()[1], geom.in_channels, "channel mismatch");
    let (oh, ow) = geom.output_hw(h, w);
    let mut out = Vec::new();
    let (rows, cols) = im2col_into(x.data(), n, h, w, geom, 0.0, n * oh * ow, &mut out);
    Tensor::from_vec(out, &[rows, cols]).expect("im2col shape is consistent")
}

/// Allocation-reusing, element-generic form of [`im2col`]: lowers a raw
/// row-major `(N, C, H, W)` buffer into `out` (resized in place, so a
/// warmed buffer is never reallocated), reads out-of-bounds taps as
/// `pad`, and returns the `(rows, cols)` dimensions of the patch matrix.
///
/// Row `r` starts at `out[r * row_stride]`; the `row_stride - cols`
/// lanes past each row's end also hold `pad`. [`im2col`] is the
/// allocating `f32` wrapper with `pad = 0.0` and dense rows; the CiM
/// path lowers quantized activation codes with the zero point's code as
/// `pad`, at the padded lane stride its batch panel uses.
///
/// # Panics
///
/// Panics if `x.len() != n * in_channels * h * w` or
/// `row_stride < n * OH * OW`.
#[allow(clippy::too_many_arguments)] // raw-buffer entry: data + dims + layout
pub fn im2col_into<T: Copy>(
    x: &[T],
    n: usize,
    h: usize,
    w: usize,
    geom: &Conv2dGeometry,
    pad: T,
    row_stride: usize,
    out: &mut Vec<T>,
) -> (usize, usize) {
    let c = geom.in_channels;
    assert_eq!(x.len(), n * c * h * w, "input buffer length mismatch");
    let (oh, ow) = geom.output_hw(h, w);
    let (k, s, p) = (geom.kernel, geom.stride, geom.padding);
    let cols = n * oh * ow;
    assert!(row_stride >= cols, "row stride shorter than a row");
    let rows = geom.patch_len();
    // Padded taps are never written below; clear-then-resize fills every
    // element with `pad` while keeping the allocation.
    out.clear();
    out.resize(rows * row_stride, pad);
    for ni in 0..n {
        for ci in 0..c {
            let x_base = (ni * c + ci) * h * w;
            for kh in 0..k {
                let (oh_lo, oh_hi) = in_bounds(oh, h, s, kh, p);
                for kw in 0..k {
                    let (ow_lo, ow_hi) = in_bounds(ow, w, s, kw, p);
                    if ow_lo == ow_hi {
                        // No output column reads inside the input: the
                        // first tap below would index outside `x`.
                        continue;
                    }
                    let row = (ci * k + kh) * k + kw;
                    let out_base = row * row_stride + ni * oh * ow;
                    for ohi in oh_lo..oh_hi {
                        let x_row = x_base + (ohi * s + kh - p) * w;
                        let dst =
                            &mut out[out_base + ohi * ow + ow_lo..out_base + ohi * ow + ow_hi];
                        let src = &x[x_row + ow_lo * s + kw - p..];
                        for (d, &v) in dst.iter_mut().zip(src.iter().step_by(s)) {
                            *d = v;
                        }
                    }
                }
            }
        }
    }
    (rows, cols)
}

/// The output indices `lo..hi` (of `out_len`) whose input tap
/// `o * stride + tap - pad` falls inside `0..in_len`.
fn in_bounds(
    out_len: usize,
    in_len: usize,
    stride: usize,
    tap: usize,
    pad: usize,
) -> (usize, usize) {
    let lo = pad.saturating_sub(tap).div_ceil(stride);
    let hi = if in_len + pad > tap {
        ((in_len + pad - tap - 1) / stride + 1).min(out_len)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Adjoint of [`im2col`]: scatters a `(C*k*k, N*OH*OW)` patch-gradient matrix
/// back onto an `(N, C, H, W)` input gradient (overlaps accumulate).
///
/// # Panics
///
/// Panics if `cols` does not have the shape `im2col` would have produced for
/// an input of `input_shape` under `geom`.
pub fn col2im(cols: &Tensor, input_shape: &[usize], geom: &Conv2dGeometry) -> Tensor {
    assert_eq!(input_shape.len(), 4, "col2im expects (N, C, H, W)");
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    let (oh, ow) = geom.output_hw(h, w);
    let k = geom.kernel;
    assert_eq!(
        cols.shape(),
        &[geom.patch_len(), n * oh * ow],
        "col2im input shape mismatch"
    );
    let mut out = vec![0.0f32; n * c * h * w];
    let cd = cols.data();
    let ncols = n * oh * ow;
    for ni in 0..n {
        for ci in 0..c {
            let x_base = (ni * c + ci) * h * w;
            for kh in 0..k {
                for kw in 0..k {
                    let row = (ci * k + kh) * k + kw;
                    let col_base = row * ncols + ni * oh * ow;
                    for ohi in 0..oh {
                        let ih = (ohi * geom.stride + kh) as isize - geom.padding as isize;
                        if ih < 0 || ih >= h as isize {
                            continue;
                        }
                        let x_row = x_base + ih as usize * w;
                        let col_row = col_base + ohi * ow;
                        for owi in 0..ow {
                            let iw = (owi * geom.stride + kw) as isize - geom.padding as isize;
                            if iw < 0 || iw >= w as isize {
                                continue;
                            }
                            out[x_row + iw as usize] += cd[col_row + owi];
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, input_shape).expect("col2im shape is consistent")
}

/// Direct (non-lowered) reference convolution, used to cross-check the
/// im2col path in tests. `weight` is `(OC, C, k, k)`, `x` is `(N, C, H, W)`.
///
/// # Panics
///
/// Panics on rank or channel mismatches.
pub fn conv2d_reference(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    stride: usize,
    padding: usize,
) -> Tensor {
    assert_eq!(x.ndim(), 4);
    assert_eq!(weight.ndim(), 4);
    let (n, c, h, w) = (x.shape()[0], x.shape()[1], x.shape()[2], x.shape()[3]);
    let (oc, wc, k, k2) = (
        weight.shape()[0],
        weight.shape()[1],
        weight.shape()[2],
        weight.shape()[3],
    );
    assert_eq!(c, wc, "channel mismatch");
    assert_eq!(k, k2, "non-square kernel");
    let geom = Conv2dGeometry {
        in_channels: c,
        kernel: k,
        stride,
        padding,
    };
    let (oh, ow) = geom.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, oc, oh, ow]);
    for ni in 0..n {
        for oci in 0..oc {
            let b = bias.map_or(0.0, |bb| bb.data()[oci]);
            for ohi in 0..oh {
                for owi in 0..ow {
                    let mut acc = b;
                    for ci in 0..c {
                        for kh in 0..k {
                            for kw in 0..k {
                                let ih = (ohi * stride + kh) as isize - padding as isize;
                                let iw = (owi * stride + kw) as isize - padding as isize;
                                if ih < 0 || iw < 0 || ih >= h as isize || iw >= w as isize {
                                    continue;
                                }
                                acc += x.at(&[ni, ci, ih as usize, iw as usize])
                                    * weight.at(&[oci, ci, kh, kw]);
                            }
                        }
                    }
                    *out.at_mut(&[ni, oci, ohi, owi]) = acc;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn output_hw_formula() {
        let g = Conv2dGeometry {
            in_channels: 3,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        assert_eq!(g.output_hw(8, 8), (8, 8));
        let g2 = Conv2dGeometry {
            in_channels: 3,
            kernel: 2,
            stride: 2,
            padding: 0,
        };
        assert_eq!(g2.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1: im2col is a pure reshape/permute.
        let x = Tensor::from_vec((0..8).map(|v| v as f32).collect(), &[1, 2, 2, 2]).unwrap();
        let g = Conv2dGeometry {
            in_channels: 2,
            kernel: 1,
            stride: 1,
            padding: 0,
        };
        let cols = im2col(&x, &g);
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(cols.data(), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn im2col_matches_reference_conv() {
        let mut rng = StdRng::seed_from_u64(11);
        let x = Tensor::randn(&[2, 3, 7, 7], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[4, 3, 3, 3], 0.0, 1.0, &mut rng);
        let g = Conv2dGeometry {
            in_channels: 3,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        let (oh, ow) = g.output_hw(7, 7);
        let cols = im2col(&x, &g);
        let wm = w.reshape(&[4, g.patch_len()]).unwrap();
        let om = wm.matmul(&cols);
        // Rearrange (OC, N*OH*OW) into (N, OC, OH, OW).
        let mut lowered = Tensor::zeros(&[2, 4, oh, ow]);
        for n in 0..2 {
            for oc in 0..4 {
                for p in 0..oh * ow {
                    *lowered.at_mut(&[n, oc, p / ow, p % ow]) = om.at(&[oc, n * oh * ow + p]);
                }
            }
        }
        let reference = conv2d_reference(&x, &w, None, 2, 1);
        for (a, b) in lowered.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        // property of the adjoint, which is what backprop relies on.
        let mut rng = StdRng::seed_from_u64(5);
        let g = Conv2dGeometry {
            in_channels: 2,
            kernel: 3,
            stride: 1,
            padding: 1,
        };
        let x = Tensor::randn(&[1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let cols = im2col(&x, &g);
        let y = Tensor::randn(cols.shape(), 0.0, 1.0, &mut rng);
        let lhs: f32 = cols.mul(&y).sum();
        let back = col2im(&y, &[1, 2, 5, 5], &g);
        let rhs: f32 = x.mul(&back).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// Lowers a convolution through `im2col` + matmul and compares against
    /// `conv2d_reference` elementwise.
    fn assert_lowering_matches_direct(n: usize, c: usize, oc: usize, hw: usize, g: Conv2dGeometry) {
        let mut rng = StdRng::seed_from_u64((g.kernel * 100 + g.stride * 10 + g.padding) as u64);
        let x = Tensor::randn(&[n, c, hw, hw], 0.0, 1.0, &mut rng);
        let w = Tensor::randn(&[oc, c, g.kernel, g.kernel], 0.0, 1.0, &mut rng);
        let (oh, ow) = g.output_hw(hw, hw);
        let om = w
            .reshape(&[oc, g.patch_len()])
            .unwrap()
            .matmul(&im2col(&x, &g));
        let reference = conv2d_reference(&x, &w, None, g.stride, g.padding);
        for ni in 0..n {
            for oci in 0..oc {
                for p in 0..oh * ow {
                    let lowered = om.at(&[oci, ni * oh * ow + p]);
                    let direct = reference.at(&[ni, oci, p / ow, p % ow]);
                    assert!(
                        (lowered - direct).abs() < 1e-4,
                        "k={} s={} p={}: {lowered} vs {direct}",
                        g.kernel,
                        g.stride,
                        g.padding
                    );
                }
            }
        }
    }

    #[test]
    fn im2col_matches_reference_conv_shape_grid() {
        // The hardware mapper reuses the im2col matrix verbatim, so the
        // lowering must agree with direct convolution for every window
        // geometry the model zoo uses — not just the 3x3/s1/p1 hot case.
        let hw = 8;
        for kernel in [1, 2, 3, 5] {
            for stride in [1, 2, 3] {
                for padding in [0, 1, 2] {
                    if hw + 2 * padding < kernel {
                        continue;
                    }
                    let g = Conv2dGeometry {
                        in_channels: 2,
                        kernel,
                        stride,
                        padding,
                    };
                    assert_lowering_matches_direct(2, 2, 3, hw, g);
                }
            }
        }
    }

    #[test]
    fn im2col_matches_reference_conv_batched_channels() {
        // Larger channel counts and batch to exercise the row indexing of
        // the patch matrix (C*k*k rows) across channel boundaries.
        let g = Conv2dGeometry {
            in_channels: 5,
            kernel: 3,
            stride: 2,
            padding: 1,
        };
        assert_lowering_matches_direct(3, 5, 4, 9, g);
    }

    #[test]
    fn im2col_into_matches_a_bounds_checked_gather_with_any_pad() {
        // Every tap either copies its in-bounds input or reads `pad` —
        // including inputs narrower than the kernel's reach — at a dense
        // and at a padded row stride, whose tail lanes read `pad` too.
        for (k, stride, padding, hw) in [
            (1, 1, 0, 4),
            (3, 1, 1, 5),
            (3, 2, 2, 4),
            (5, 2, 2, 3),
            (3, 1, 2, 1),
            // Maps narrower than the padding: whole kernel rows and
            // columns fall outside the input.
            (5, 1, 2, 1),
            (5, 1, 2, 2),
            (7, 2, 3, 2),
            (7, 2, 3, 1),
            (5, 2, 4, 1),
        ] {
            let (n, c) = (2, 2);
            let g = Conv2dGeometry {
                in_channels: c,
                kernel: k,
                stride,
                padding,
            };
            let x: Vec<i32> = (0..(n * c * hw * hw) as i32).collect();
            let (oh, ow) = g.output_hw(hw, hw);
            for extra in [0, 5] {
                let row_stride = n * oh * ow + extra;
                let mut out = vec![7; 3];
                let (rows, cols) = im2col_into(&x, n, hw, hw, &g, -1, row_stride, &mut out);
                assert_eq!((rows, cols), (c * k * k, n * oh * ow));
                assert_eq!(out.len(), rows * row_stride);
                for r in 0..rows {
                    let (ci, kh, kw) = (r / (k * k), r / k % k, r % k);
                    for col in 0..row_stride {
                        let (ni, p) = (col / (oh * ow), col % (oh * ow));
                        let ih = (p / ow * stride + kh) as isize - padding as isize;
                        let iw = (p % ow * stride + kw) as isize - padding as isize;
                        let inside = col < cols
                            && (0..hw as isize).contains(&ih)
                            && (0..hw as isize).contains(&iw);
                        let want = if inside {
                            x[((ni * c + ci) * hw + ih as usize) * hw + iw as usize]
                        } else {
                            -1
                        };
                        assert_eq!(
                            out[r * row_stride + col],
                            want,
                            "k{k} s{stride} p{padding} +{extra} r{r} c{col}"
                        );
                    }
                }
            }
        }
    }
}
