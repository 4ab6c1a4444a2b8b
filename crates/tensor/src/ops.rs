//! Element-wise kernels used by the training stack.
//!
//! The row-granulated optimizer applies updates to individual parameter
//! rows as their averaged gradients arrive, so the update rules here all
//! operate on plain `&mut [f32]` row slices.

/// Dot product with eight independent accumulators.
///
/// The strict left-to-right `sum()` fold is a serial dependency chain
/// the autovectorizer cannot break; eight parallel accumulators over
/// `chunks_exact` give it straight-line code it turns into SIMD.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut acc = [0.0f32; 8];
    let ca = a.chunks_exact(8);
    let cb = b.chunks_exact(8);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for i in 0..8 {
            acc[i] += xa[i] * xb[i];
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// Sum of absolute values with four independent accumulators.
pub fn sum_abs(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = xs.chunks_exact(4);
    let rest = chunks.remainder();
    for c in chunks {
        for i in 0..4 {
            acc[i] += c[i].abs();
        }
    }
    let mut tail = 0.0;
    for x in rest {
        tail += x.abs();
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Sum of squares with four independent accumulators.
pub fn sum_sq(xs: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = xs.chunks_exact(4);
    let rest = chunks.remainder();
    for c in chunks {
        for i in 0..4 {
            acc[i] += c[i] * c[i];
        }
    }
    let mut tail = 0.0;
    for x in rest {
        tail += x * x;
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

/// Plain SGD on one row: `w -= lr * g`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn sgd_row(w: &mut [f32], g: &[f32], lr: f32) {
    assert_eq!(w.len(), g.len(), "sgd_row length mismatch");
    for (wv, gv) in w.iter_mut().zip(g) {
        *wv -= lr * gv;
    }
}

/// ReLU applied in place. A select, not a conditional store: random
/// signs would mispredict every other branch (`-0.0` and NaN pass
/// through unchanged).
pub fn relu(xs: &mut [f32]) {
    for x in xs {
        *x = if *x < 0.0 { 0.0 } else { *x };
    }
}

/// Gradient mask of ReLU: `dx[i] = if pre[i] > 0 { dy[i] } else { 0 }`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn relu_backward(pre: &[f32], dy: &mut [f32]) {
    assert_eq!(pre.len(), dy.len(), "relu_backward length mismatch");
    for (p, d) in pre.iter().zip(dy.iter_mut()) {
        *d = if *p <= 0.0 { 0.0 } else { *d };
    }
}

/// Fused softmax + cross-entropy backward.
///
/// Turns raw logits into the output gradient *in place* — `d = softmax(x);
/// d[label] -= 1` — and returns the cross-entropy loss, with no separate
/// probability buffer.
///
/// # Panics
///
/// Panics if `label >= xs.len()`.
pub fn softmax_ce_grad(xs: &mut [f32], label: usize) -> f32 {
    assert!(label < xs.len(), "label out of range");
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    // max-shifting guarantees one term is exp(0) = 1, so sum >= 1.
    for x in xs.iter_mut() {
        *x /= sum;
    }
    let loss = -xs[label].max(1e-12).ln();
    xs[label] -= 1.0;
    loss
}

/// Mean of absolute values of a slice (0 for empty input).
pub fn mean_abs(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    sum_abs(xs) / xs.len() as f32
}

/// Squared L2 distance between two slices.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sq_dist(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "sq_dist length mismatch");
    let mut acc = [0.0f32; 4];
    let ca = a.chunks_exact(4);
    let cb = b.chunks_exact(4);
    let (ra, rb) = (ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        for i in 0..4 {
            let d = xa[i] - xb[i];
            acc[i] += d * d;
        }
    }
    let mut tail = 0.0;
    for (x, y) in ra.iter().zip(rb) {
        tail += (x - y) * (x - y);
    }
    (acc[0] + acc[2]) + (acc[1] + acc[3]) + tail
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_row_moves_against_gradient() {
        let mut w = vec![1.0, 1.0];
        sgd_row(&mut w, &[0.5, -0.5], 0.1);
        assert_eq!(w, vec![0.95, 1.05]);
    }

    #[test]
    fn relu_and_backward_agree_on_mask() {
        let pre = vec![-1.0, 0.0, 2.0];
        let mut act = pre.clone();
        relu(&mut act);
        assert_eq!(act, vec![0.0, 0.0, 2.0]);
        let mut dy = vec![1.0, 1.0, 1.0];
        relu_backward(&pre, &mut dy);
        assert_eq!(dy, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn mean_abs_empty_is_zero() {
        assert_eq!(mean_abs(&[]), 0.0);
        assert_eq!(mean_abs(&[-2.0, 2.0]), 2.0);
    }

    #[test]
    fn dot_matches_naive_for_odd_lengths() {
        for n in [0usize, 1, 3, 7, 8, 9, 16, 31] {
            let a: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let b: Vec<f32> = (0..n).map(|i| (i as f32 * 0.21).cos()).collect();
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
            assert!(
                (dot(&a, &b) - naive).abs() < 1e-4 * (1.0 + naive.abs()),
                "n={n}: {} vs {naive}",
                dot(&a, &b)
            );
        }
    }

    #[test]
    fn chunked_reductions_match_naive() {
        let xs: Vec<f32> = (0..27).map(|i| (i as f32 - 13.0) * 0.3).collect();
        let abs_naive: f32 = xs.iter().map(|v| v.abs()).sum();
        let sq_naive: f32 = xs.iter().map(|v| v * v).sum();
        assert!((sum_abs(&xs) - abs_naive).abs() < 1e-4);
        assert!((sum_sq(&xs) - sq_naive).abs() < 1e-4);
    }

    #[test]
    fn fused_softmax_ce_matches_split_path() {
        let logits = [0.5f32, -1.0, 2.0, 0.0, 1000.0];
        for n in [4, 5] {
            let logits = &logits[..n];
            let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let sum: f32 = logits.iter().map(|x| (x - max).exp()).sum();
            let probs: Vec<f32> = logits.iter().map(|x| (x - max).exp() / sum).collect();
            assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
            for label in 0..n {
                let mut fused = logits.to_vec();
                let loss = softmax_ce_grad(&mut fused, label);
                let want_loss = -probs[label].max(1e-12).ln();
                assert!(loss.is_finite() && (loss - want_loss).abs() < 1e-6);
                for (i, (got, p)) in fused.iter().zip(&probs).enumerate() {
                    let want = p - f32::from(i == label);
                    assert!((got - want).abs() < 1e-6);
                }
            }
        }
    }

    #[test]
    fn branch_free_relus_match_their_conditional_stores() {
        let xs = [
            -1.5f32,
            -0.0,
            0.0,
            2.0,
            1.0e-41,
            -1.0e-41,
            f32::NAN,
            -f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        let mut want = xs;
        for x in &mut want {
            if *x < 0.0 {
                *x = 0.0;
            }
        }
        let mut got = xs;
        relu(&mut got);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
        // Every value as the mask, against every value as the gradient.
        for &p in &xs {
            let mut want = xs;
            for d in &mut want {
                if p <= 0.0 {
                    *d = 0.0;
                }
            }
            let mut got = xs;
            relu_backward(&[p; 10], &mut got);
            assert_eq!(bits(&got), bits(&want), "mask {p}");
            // The post-ReLU activation masks exactly like `p` itself.
            let mut act = [p];
            relu(&mut act);
            assert_eq!(act[0] <= 0.0, p <= 0.0, "mask {p}");
        }
    }
}
