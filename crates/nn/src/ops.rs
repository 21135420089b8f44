//! Differentiable operations: each forward caches what backward needs.

use crate::{Param, Tensor};
use rand::Rng;

/// 3×3 convolution with padding 1 (shape-preserving).
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_ch: usize,
    out_ch: usize,
    weight: Param, // [out][in][3][3]
    bias: Param,   // [out]
    cache_x: Option<Tensor>,
}

impl Conv2d {
    /// New randomly initialized convolution.
    #[must_use]
    pub fn new(in_ch: usize, out_ch: usize, rng: &mut impl Rng) -> Conv2d {
        Conv2d {
            in_ch,
            out_ch,
            weight: Param::kaiming(out_ch * in_ch * 9, in_ch * 9, rng),
            bias: Param::zeros(out_ch),
            cache_x: None,
        }
    }

    /// Input channel count.
    #[must_use]
    pub fn in_channels(&self) -> usize {
        self.in_ch
    }

    /// Output channel count.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.out_ch
    }

    /// Forward pass; caches the input for backward.
    ///
    /// # Panics
    ///
    /// Panics if the input channel count differs from construction.
    #[must_use]
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.channels(), self.in_ch, "conv input channels mismatch");
        let (h, w) = (x.height(), x.width());
        let mut out = Tensor::zeros(self.out_ch, h, w);
        let wt = self.weight.values();
        let bias = self.bias.values();
        let xs = x.as_slice();
        let os = out.as_mut_slice();
        for (oc, &oc_bias) in bias.iter().enumerate() {
            for y in 0..h {
                for xx in 0..w {
                    let mut acc = oc_bias;
                    for ic in 0..self.in_ch {
                        let wbase = ((oc * self.in_ch) + ic) * 9;
                        for ky in 0..3usize {
                            let sy = y as isize + ky as isize - 1;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let sx = xx as isize + kx as isize - 1;
                                if sx < 0 || sx >= w as isize {
                                    continue;
                                }
                                acc += wt[wbase + ky * 3 + kx]
                                    * xs[(ic * h + sy as usize) * w + sx as usize];
                            }
                        }
                    }
                    os[(oc * h + y) * w + xx] = acc;
                }
            }
        }
        self.cache_x = Some(x.clone());
        out
    }

    /// Backward pass: accumulates weight/bias grads, returns input grad.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&mut self, gout: &Tensor) -> Tensor {
        let x = self.cache_x.take().expect("backward before forward");
        let (h, w) = (x.height(), x.width());
        let mut gx = Tensor::zeros(self.in_ch, h, w);
        {
            let gw = self.weight.grads_mut();
            for oc in 0..self.out_ch {
                for y in 0..h {
                    for xx in 0..w {
                        let go = gout.get(oc, y, xx);
                        if go == 0.0 {
                            continue;
                        }
                        for ic in 0..self.in_ch {
                            let wbase = ((oc * self.in_ch) + ic) * 9;
                            for ky in 0..3usize {
                                let sy = y as isize + ky as isize - 1;
                                if sy < 0 || sy >= h as isize {
                                    continue;
                                }
                                for kx in 0..3usize {
                                    let sx = xx as isize + kx as isize - 1;
                                    if sx < 0 || sx >= w as isize {
                                        continue;
                                    }
                                    gw[wbase + ky * 3 + kx] +=
                                        go * x.get(ic, sy as usize, sx as usize);
                                }
                            }
                        }
                    }
                }
            }
        }
        {
            let gb = self.bias.grads_mut();
            for (oc, gb_oc) in gb.iter_mut().enumerate() {
                let mut acc = 0.0;
                for y in 0..h {
                    for xx in 0..w {
                        acc += gout.get(oc, y, xx);
                    }
                }
                *gb_oc += acc;
            }
        }
        let wt = self.weight.values();
        for oc in 0..self.out_ch {
            for y in 0..h {
                for xx in 0..w {
                    let go = gout.get(oc, y, xx);
                    if go == 0.0 {
                        continue;
                    }
                    for ic in 0..self.in_ch {
                        let wbase = ((oc * self.in_ch) + ic) * 9;
                        for ky in 0..3usize {
                            let sy = y as isize + ky as isize - 1;
                            if sy < 0 || sy >= h as isize {
                                continue;
                            }
                            for kx in 0..3usize {
                                let sx = xx as isize + kx as isize - 1;
                                if sx < 0 || sx >= w as isize {
                                    continue;
                                }
                                let prev = gx.get(ic, sy as usize, sx as usize);
                                gx.set(
                                    ic,
                                    sy as usize,
                                    sx as usize,
                                    prev + go * wt[wbase + ky * 3 + kx],
                                );
                            }
                        }
                    }
                }
            }
        }
        out_of_place_cache_restore(&mut self.cache_x, x);
        gx
    }

    /// Adam step on both parameter buffers.
    pub fn step(&mut self, lr: f32) {
        self.weight.step(lr);
        self.bias.step(lr);
    }

    /// Number of scalar parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }

    /// Reads one bias value (diagnostics / gradient checking).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn bias_value(&self, i: usize) -> f32 {
        self.bias.values()[i]
    }

    /// Overwrites one bias value (diagnostics / gradient checking).
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    pub fn set_bias_value(&mut self, i: usize, v: f32) {
        self.bias.values_mut()[i] = v;
    }

    /// Reads one accumulated bias gradient.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[must_use]
    pub fn bias_grad(&self, i: usize) -> f32 {
        self.bias.grads()[i]
    }
}

// Backward consumed the cache via take(); restore it so repeated
// backward-after-forward sequences (e.g. gradient checking) behave.
fn out_of_place_cache_restore(cache: &mut Option<Tensor>, x: Tensor) {
    *cache = Some(x);
}

/// Fully-connected layer over flat vectors.
#[derive(Debug, Clone)]
pub struct Linear {
    in_dim: usize,
    out_dim: usize,
    weight: Param, // [out][in]
    bias: Param,
    cache_x: Option<Vec<f32>>,
}

impl Linear {
    /// New randomly initialized layer.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Linear {
        Linear {
            in_dim,
            out_dim,
            weight: Param::kaiming(out_dim * in_dim, in_dim, rng),
            bias: Param::zeros(out_dim),
            cache_x: None,
        }
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward pass; caches the input.
    ///
    /// # Panics
    ///
    /// Panics on input dimension mismatch.
    #[must_use]
    pub fn forward(&mut self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.in_dim, "linear input dim mismatch");
        let wt = self.weight.values();
        let bias = self.bias.values();
        let out = (0..self.out_dim)
            .map(|o| {
                let row = &wt[o * self.in_dim..(o + 1) * self.in_dim];
                bias[o] + row.iter().zip(x).map(|(w, v)| w * v).sum::<f32>()
            })
            .collect();
        self.cache_x = Some(x.to_vec());
        out
    }

    /// Backward pass: accumulates grads, returns input grad.
    ///
    /// # Panics
    ///
    /// Panics if called before `forward`.
    #[must_use]
    pub fn backward(&mut self, gout: &[f32]) -> Vec<f32> {
        let x = self.cache_x.clone().expect("backward before forward");
        {
            let gw = self.weight.grads_mut();
            for o in 0..self.out_dim {
                for i in 0..self.in_dim {
                    gw[o * self.in_dim + i] += gout[o] * x[i];
                }
            }
        }
        {
            let gb = self.bias.grads_mut();
            for o in 0..self.out_dim {
                gb[o] += gout[o];
            }
        }
        let wt = self.weight.values();
        (0..self.in_dim)
            .map(|i| {
                (0..self.out_dim)
                    .map(|o| gout[o] * wt[o * self.in_dim + i])
                    .sum()
            })
            .collect()
    }

    /// Adam step on both parameter buffers.
    pub fn step(&mut self, lr: f32) {
        self.weight.step(lr);
        self.bias.step(lr);
    }

    /// Number of scalar parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.weight.len() + self.bias.len()
    }
}

/// SiLU activation `x·σ(x)`, returning output and a backward closure
/// input (the cached input values).
#[must_use]
pub fn silu(x: &Tensor) -> Tensor {
    let data = x.as_slice().iter().map(|&v| v * sigmoid(v)).collect();
    let (c, h, w) = x.shape();
    Tensor::from_data(c, h, w, data)
}

/// Gradient of SiLU given the *input* values and upstream gradient.
#[must_use]
pub fn silu_backward(x: &Tensor, gout: &Tensor) -> Tensor {
    let data = x
        .as_slice()
        .iter()
        .zip(gout.as_slice())
        .map(|(&v, &g)| {
            let s = sigmoid(v);
            g * (s + v * s * (1.0 - s))
        })
        .collect();
    let (c, h, w) = x.shape();
    Tensor::from_data(c, h, w, data)
}

/// SiLU over a flat vector (for embeddings).
#[must_use]
pub fn silu_vec(x: &[f32]) -> Vec<f32> {
    x.iter().map(|&v| v * sigmoid(v)).collect()
}

/// Gradient of [`silu_vec`].
#[must_use]
pub fn silu_vec_backward(x: &[f32], gout: &[f32]) -> Vec<f32> {
    x.iter()
        .zip(gout)
        .map(|(&v, &g)| {
            let s = sigmoid(v);
            g * (s + v * s * (1.0 - s))
        })
        .collect()
}

fn sigmoid(v: f32) -> f32 {
    1.0 / (1.0 + (-v).exp())
}

/// 2× average pooling (height/width must be even).
///
/// # Panics
///
/// Panics on odd spatial dimensions.
#[must_use]
pub fn avg_pool2(x: &Tensor) -> Tensor {
    let (c, h, w) = x.shape();
    assert!(h % 2 == 0 && w % 2 == 0, "avg_pool2 needs even dims");
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor::zeros(c, oh, ow);
    let (xs, os) = (x.as_slice(), out.as_mut_slice());
    for ch in 0..c {
        for y in 0..oh {
            for xx in 0..ow {
                let s = xs[(ch * h + 2 * y) * w + 2 * xx]
                    + xs[(ch * h + 2 * y) * w + 2 * xx + 1]
                    + xs[(ch * h + 2 * y + 1) * w + 2 * xx]
                    + xs[(ch * h + 2 * y + 1) * w + 2 * xx + 1];
                os[(ch * oh + y) * ow + xx] = s / 4.0;
            }
        }
    }
    out
}

/// Backward of [`avg_pool2`]: spreads gradients evenly over each window.
#[must_use]
pub fn avg_pool2_backward(gout: &Tensor) -> Tensor {
    let (c, h, w) = gout.shape();
    let mut gx = Tensor::zeros(c, h * 2, w * 2);
    for ch in 0..c {
        for y in 0..h {
            for xx in 0..w {
                let g = gout.get(ch, y, xx) / 4.0;
                gx.set(ch, 2 * y, 2 * xx, g);
                gx.set(ch, 2 * y, 2 * xx + 1, g);
                gx.set(ch, 2 * y + 1, 2 * xx, g);
                gx.set(ch, 2 * y + 1, 2 * xx + 1, g);
            }
        }
    }
    gx
}

/// 2× nearest-neighbour upsampling.
#[must_use]
pub fn upsample2(x: &Tensor) -> Tensor {
    let (c, h, w) = x.shape();
    let (oh, ow) = (h * 2, w * 2);
    let mut out = Tensor::zeros(c, oh, ow);
    let (xs, os) = (x.as_slice(), out.as_mut_slice());
    for ch in 0..c {
        for y in 0..oh {
            for xx in 0..ow {
                os[(ch * oh + y) * ow + xx] = xs[(ch * h + y / 2) * w + xx / 2];
            }
        }
    }
    out
}

/// Backward of [`upsample2`]: sums gradients of the four copies.
///
/// # Panics
///
/// Panics on odd spatial dimensions.
#[must_use]
pub fn upsample2_backward(gout: &Tensor) -> Tensor {
    let (c, h, w) = gout.shape();
    assert!(
        h % 2 == 0 && w % 2 == 0,
        "upsample2 backward needs even dims"
    );
    let mut gx = Tensor::zeros(c, h / 2, w / 2);
    for ch in 0..c {
        for y in 0..h {
            for xx in 0..w {
                let prev = gx.get(ch, y / 2, xx / 2);
                gx.set(ch, y / 2, xx / 2, prev + gout.get(ch, y, xx));
            }
        }
    }
    gx
}

/// Concatenates two tensors along the channel axis.
///
/// # Panics
///
/// Panics on spatial shape mismatch.
#[must_use]
pub fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(
        (a.height(), a.width()),
        (b.height(), b.width()),
        "concat spatial shape mismatch"
    );
    let mut data = Vec::with_capacity(a.len() + b.len());
    data.extend_from_slice(a.as_slice());
    data.extend_from_slice(b.as_slice());
    Tensor::from_data(a.channels() + b.channels(), a.height(), a.width(), data)
}

/// Splits a concat gradient back into the two inputs' gradients.
#[must_use]
pub fn concat_channels_backward(gout: &Tensor, a_channels: usize) -> (Tensor, Tensor) {
    let (c, h, w) = gout.shape();
    let split = a_channels * h * w;
    let ga = Tensor::from_data(a_channels, h, w, gout.as_slice()[..split].to_vec());
    let gb = Tensor::from_data(c - a_channels, h, w, gout.as_slice()[split..].to_vec());
    (ga, gb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(1)
    }

    #[test]
    fn conv_identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, &mut rng());
        // Hand-set a centre-tap identity kernel.
        conv.weight
            .values_mut()
            .copy_from_slice(&[0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0]);
        conv.bias.values_mut()[0] = 0.0;
        let x = Tensor::from_data(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn conv_gradient_check_single_weight() {
        // Numerical vs analytic gradient for one weight.
        let mut conv = Conv2d::new(1, 1, &mut rng());
        let x = Tensor::from_data(1, 3, 3, (0..9).map(|i| i as f32 * 0.1).collect());
        // Loss = sum(out); dL/dout = ones.
        let eps = 1e-3;
        let wi = 4; // centre weight
        let base = conv.weight.values()[wi];
        conv.weight.values_mut()[wi] = base + eps;
        let up: f32 = conv.forward(&x).as_slice().iter().sum();
        conv.weight.values_mut()[wi] = base - eps;
        let down: f32 = conv.forward(&x).as_slice().iter().sum();
        conv.weight.values_mut()[wi] = base;
        let numeric = (up - down) / (2.0 * eps);
        let _ = conv.forward(&x);
        let gout = Tensor::from_data(1, 3, 3, vec![1.0; 9]);
        let _ = conv.backward(&gout);
        let analytic = conv.weight.grads()[wi];
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn conv_input_gradient_check() {
        let mut conv = Conv2d::new(1, 2, &mut rng());
        let x = Tensor::from_data(1, 4, 4, (0..16).map(|i| (i as f32).sin()).collect());
        let eps = 1e-3;
        let idx = 5usize;
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let up: f32 = conv.forward(&xp).as_slice().iter().sum();
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let down: f32 = conv.forward(&xm).as_slice().iter().sum();
        let numeric = (up - down) / (2.0 * eps);
        let _ = conv.forward(&x);
        let gout = Tensor::from_data(2, 4, 4, vec![1.0; 32]);
        let gx = conv.backward(&gout);
        let analytic = gx.as_slice()[idx];
        assert!(
            (numeric - analytic).abs() < 1e-2,
            "numeric {numeric} vs analytic {analytic}"
        );
    }

    #[test]
    fn linear_gradient_check() {
        let mut lin = Linear::new(3, 2, &mut rng());
        let x = vec![0.3, -0.7, 0.2];
        let eps = 1e-3;
        let base = lin.weight.values()[1];
        lin.weight.values_mut()[1] = base + eps;
        let up: f32 = lin.forward(&x).iter().sum();
        lin.weight.values_mut()[1] = base - eps;
        let down: f32 = lin.forward(&x).iter().sum();
        lin.weight.values_mut()[1] = base;
        let numeric = (up - down) / (2.0 * eps);
        let _ = lin.forward(&x);
        let _ = lin.backward(&[1.0, 1.0]);
        let analytic = lin.weight.grads()[1];
        assert!((numeric - analytic).abs() < 1e-2);
    }

    #[test]
    fn silu_matches_reference_values() {
        let x = Tensor::from_data(1, 1, 3, vec![-1.0, 0.0, 1.0]);
        let y = silu(&x);
        assert!((y.as_slice()[0] + 0.26894).abs() < 1e-4);
        assert_eq!(y.as_slice()[1], 0.0);
        assert!((y.as_slice()[2] - 0.73106).abs() < 1e-4);
    }

    #[test]
    fn silu_gradient_check() {
        let x = Tensor::from_data(1, 1, 2, vec![0.37, -1.2]);
        let eps = 1e-3;
        for i in 0..2 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric: f32 = (silu(&xp).as_slice()[i] - silu(&xm).as_slice()[i]) / (2.0 * eps);
            let gout = Tensor::from_data(1, 1, 2, vec![1.0, 1.0]);
            let analytic = silu_backward(&x, &gout).as_slice()[i];
            assert!((numeric - analytic).abs() < 1e-3);
        }
    }

    #[test]
    fn pool_and_upsample_round_trip_shapes() {
        let x = Tensor::zeros(3, 8, 8);
        assert_eq!(avg_pool2(&x).shape(), (3, 4, 4));
        assert_eq!(upsample2(&avg_pool2(&x)).shape(), (3, 8, 8));
    }

    #[test]
    fn pool_backward_conserves_gradient_mass() {
        let gout = Tensor::from_data(1, 1, 1, vec![4.0]);
        let gx = avg_pool2_backward(&gout);
        assert_eq!(gx.as_slice(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn upsample_backward_sums_copies() {
        let gout = Tensor::from_data(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let gx = upsample2_backward(&gout);
        assert_eq!(gx.as_slice(), &[10.0]);
    }

    #[test]
    fn concat_and_split_round_trip() {
        let a = Tensor::from_data(1, 1, 2, vec![1.0, 2.0]);
        let b = Tensor::from_data(2, 1, 2, vec![3.0, 4.0, 5.0, 6.0]);
        let cat = concat_channels(&a, &b);
        assert_eq!(cat.shape(), (3, 1, 2));
        let (ga, gb) = concat_channels_backward(&cat, 1);
        assert_eq!(ga.as_slice(), a.as_slice());
        assert_eq!(gb.as_slice(), b.as_slice());
    }
}
