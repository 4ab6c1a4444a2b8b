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

/// Four simultaneous dot products of `a` against four rows.
///
/// Streams `a` through registers once for four outputs — the register
/// block of the transposed-B matmul kernel.
///
/// # Panics
///
/// Panics if any row's length differs from `a`'s.
pub fn dot4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
    let n = a.len();
    for row in b {
        assert_eq!(row.len(), n, "dot4 length mismatch");
    }
    let mut acc = [[0.0f32; 4]; 4];
    let mut t = 0;
    while t + 4 <= n {
        for u in 0..4 {
            let av = a[t + u];
            for l in 0..4 {
                acc[l][u] += av * b[l][t + u];
            }
        }
        t += 4;
    }
    let mut out = [0.0f32; 4];
    for l in 0..4 {
        let mut s = (acc[l][0] + acc[l][2]) + (acc[l][1] + acc[l][3]);
        for u in t..n {
            s += a[u] * b[l][u];
        }
        out[l] = s;
    }
    out
}

/// `y += s * x` (scaled accumulate); the inner loop of `matmul` and the
/// outer-product accumulate.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(y: &mut [f32], x: &[f32], s: f32) {
    assert_eq!(y.len(), x.len(), "axpy length mismatch");
    for (yv, xv) in y.iter_mut().zip(x) {
        *yv += s * xv;
    }
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

/// ReLU applied in place.
pub fn relu(xs: &mut [f32]) {
    for x in xs {
        if *x < 0.0 {
            *x = 0.0;
        }
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
        if *p <= 0.0 {
            *d = 0.0;
        }
    }
}

/// Numerically-stable in-place softmax.
pub fn softmax(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Fused softmax + cross-entropy backward.
///
/// Turns raw logits into the output gradient *in place* — `d = softmax(x);
/// d[label] -= 1` — and returns the cross-entropy loss, avoiding the
/// separate probability buffer and extra passes of calling [`softmax`]
/// then [`cross_entropy`].
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

/// Cross-entropy loss of a softmax distribution against a class label.
///
/// # Panics
///
/// Panics if `label >= probs.len()`.
pub fn cross_entropy(probs: &[f32], label: usize) -> f32 {
    assert!(label < probs.len(), "label out of range");
    -probs[label].max(1e-12).ln()
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
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![1.0, 2.0, 3.0];
        softmax(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let mut xs = vec![1000.0, 1001.0];
        softmax(&mut xs);
        assert!(xs.iter().all(|v| v.is_finite()));
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_of_confident_correct_is_small() {
        assert!(cross_entropy(&[0.01, 0.99], 1) < 0.02);
        assert!(cross_entropy(&[0.01, 0.99], 0) > 4.0);
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
    fn dot4_matches_four_dots() {
        let n = 13;
        let a: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 3.0).collect();
        let rows: Vec<Vec<f32>> = (0..4)
            .map(|r| (0..n).map(|i| ((r * n + i) as f32 * 0.11).sin()).collect())
            .collect();
        let got = dot4(&a, [&rows[0], &rows[1], &rows[2], &rows[3]]);
        for (l, row) in rows.iter().enumerate() {
            assert!(
                (got[l] - dot(&a, row)).abs() < 1e-4,
                "lane {l}: {} vs {}",
                got[l],
                dot(&a, row)
            );
        }
    }

    #[test]
    fn axpy_accumulates_scaled() {
        let mut y = vec![1.0, 2.0, 3.0];
        axpy(&mut y, &[1.0, 0.0, -1.0], 2.0);
        assert_eq!(y, vec![3.0, 2.0, 1.0]);
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
        let logits = vec![0.5f32, -1.0, 2.0, 0.0];
        for label in 0..logits.len() {
            let mut probs = logits.clone();
            softmax(&mut probs);
            let want_loss = cross_entropy(&probs, label);
            let mut want_grad = probs.clone();
            want_grad[label] -= 1.0;

            let mut fused = logits.clone();
            let loss = softmax_ce_grad(&mut fused, label);
            assert!((loss - want_loss).abs() < 1e-6);
            for (a, b) in fused.iter().zip(&want_grad) {
                assert!((a - b).abs() < 1e-6);
            }
        }
    }
}
