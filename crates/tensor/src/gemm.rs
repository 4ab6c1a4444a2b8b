//! The one `A · Wᵀ` kernel: `W` packed into output-major panels, one
//! SIMD lane per output, and inside each lane exactly the partial sums
//! of the scalar dot product the caller has to reproduce — so a result
//! is bit-identical to its scalar ancestor, not merely close.

use crate::ops;

/// Outputs per panel. Eight lanes are two SSE registers per partial
/// sum, so the four partial sums a pass keeps live fill eight of the
/// sixteen the baseline x86-64 target has and nothing spills.
const LANES: usize = 8;

/// The scalar summation order every output of the panel kernel
/// reproduces bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SumOrder {
    /// Four partial sums over `t mod 4`, combined `(s0 + s2) + (s1 +
    /// s3)`, then the `k mod 4` tail products added one by one; the
    /// `n mod 4` trailing outputs are plain [`ops::dot`]s. The order
    /// the batched training forward has always summed in.
    Four,
    /// [`ops::dot`]'s order — eight partial sums over `t mod 8`,
    /// `((s0 + s4) + (s1 + s5)) + ((s2 + s6) + (s3 + s7))`, plus a
    /// separately summed tail — which is what a per-sample
    /// [`Matrix::matvec`](crate::Matrix::matvec) computes.
    Eight,
}

/// `out = a · wᵀ` for row-major `a` (`batch x k`), `w` (`n x k`) and
/// `out` (`batch x n`); `panels` is scratch the call overwrites.
pub(crate) fn matmul_transb(
    a: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    order: SumOrder,
    panels: &mut Vec<f32>,
    out: &mut [f32],
) {
    if k == 0 || n == 0 {
        out.fill(0.0);
        return;
    }
    let paneled = match order {
        SumOrder::Four => n - n % 4,
        SumOrder::Eight => n,
    };
    pack(&w[..paneled * k], k, panels);
    match order {
        SumOrder::Four => run_panels::<4>(a, k, n, paneled, panels, out),
        SumOrder::Eight => run_panels::<8>(a, k, n, paneled, panels, out),
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let rest = w[paneled * k..].chunks_exact(k);
        for (o, wrow) in orow[paneled..].iter_mut().zip(rest) {
            *o = ops::dot(arow, wrow);
        }
    }
}

/// Packs the rows of `w` eight to a panel, `k`-major inside it:
/// `panel[t * LANES + lane] = w[first + lane][t]`, the lanes past the
/// last row zero.
fn pack(w: &[f32], k: usize, panels: &mut Vec<f32>) {
    panels.clear();
    panels.resize((w.len() / k).div_ceil(LANES) * k * LANES, 0.0);
    let blocks = w.chunks(k * LANES);
    for (rows, panel) in blocks.zip(panels.chunks_exact_mut(k * LANES)) {
        for (lane, row) in rows.chunks_exact(k).enumerate() {
            for (t, &v) in row.iter().enumerate() {
                panel[t * LANES + lane] = v;
            }
        }
    }
}

/// Panel outer, batch rows inner: a panel (`k * 32` bytes) stays in L1
/// while every row of `a` streams past it.
fn run_panels<const U: usize>(
    a: &[f32],
    k: usize,
    n: usize,
    paneled: usize,
    panels: &[f32],
    out: &mut [f32],
) {
    for (p, panel) in panels.chunks_exact(k * LANES).enumerate() {
        let first = p * LANES;
        let width = LANES.min(paneled - first);
        for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
            let sums = panel_dot::<U>(arow, panel);
            orow[first..first + width].copy_from_slice(&sums[..width]);
        }
    }
}

/// Eight dot products of `a` against one panel, each summed with `U`
/// partial sums over `t mod U` (4: [`SumOrder::Four`], 8:
/// [`SumOrder::Eight`]). Inlined into the row loop so the sums stay in
/// registers up to the store; as a call the 112 x 80 layer ran 1.7x
/// slower.
#[inline(always)]
fn panel_dot<const U: usize>(a: &[f32], panel: &[f32]) -> [f32; LANES] {
    let steps = a.chunks_exact(U);
    let slabs = panel.chunks_exact(U * LANES);
    let (a_tail, p_tail) = (steps.remainder(), slabs.remainder());
    let mut acc = [[0.0f32; LANES]; U];
    // Four partial sums per pass (see `LANES`), in a local of their own
    // or they live in memory (`Eight` ran 5x slower summing straight
    // into `acc`); with eight the second pass re-reads the L1-resident
    // panel, cheaper than spilling.
    for (g, group) in acc.chunks_exact_mut(4).enumerate() {
        let mut live = [[0.0f32; LANES]; 4];
        for (xa, xp) in steps.clone().zip(slabs.clone()) {
            for (u, sum) in live.iter_mut().enumerate() {
                let t = 4 * g + u;
                for (l, s) in sum.iter_mut().enumerate() {
                    *s += xa[t] * xp[t * LANES + l];
                }
            }
        }
        group.copy_from_slice(&live);
    }
    let mut sums = [0.0f32; LANES];
    for (l, s) in sums.iter_mut().enumerate() {
        let x = |i: usize| acc[i][l] + acc[i + U / 2][l];
        *s = if U == 4 {
            x(0) + x(1)
        } else {
            (x(0) + x(1)) + (x(2) + x(3))
        };
    }
    // Four adds the tail products onto the combined sum one by one;
    // Eight sums them from zero and adds that once.
    let mut tail = [0.0f32; LANES];
    let onto = if U == 4 { &mut sums } else { &mut tail };
    for (&av, lanes) in a_tail.iter().zip(p_tail.chunks_exact(LANES)) {
        for (s, &pv) in onto.iter_mut().zip(lanes) {
            *s += av * pv;
        }
    }
    if U == 8 {
        for (s, t) in sums.iter_mut().zip(tail) {
            *s += t;
        }
    }
    sums
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    /// The four-output block the training forward used before the
    /// panel kernel, kept as its oracle.
    fn dot4(a: &[f32], b: [&[f32]; 4]) -> [f32; 4] {
        let n = a.len();
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

    /// `Matrix::matmul_transb` as it was: `dot4` blocks, `ops::dot`
    /// for the `n mod 4` trailing outputs.
    fn transb_by_dot4(a: &Matrix, w: &Matrix) -> Vec<f32> {
        let n = w.rows();
        let mut out = vec![0.0; a.rows() * n];
        for (arow, orow) in a.iter_rows().zip(out.chunks_exact_mut(n.max(1))) {
            let mut j = 0;
            while j + 4 <= n {
                let d = dot4(arow, [w.row(j), w.row(j + 1), w.row(j + 2), w.row(j + 3)]);
                orow[j..j + 4].copy_from_slice(&d);
                j += 4;
            }
            for (o, r) in orow[j..].iter_mut().zip(j..n) {
                *o = ops::dot(arow, w.row(r));
            }
        }
        out
    }

    /// The per-sample forward: one `matvec` per batch row.
    fn transb_by_matvec(a: &Matrix, w: &Matrix) -> Vec<f32> {
        a.iter_rows().flat_map(|arow| w.matvec(arow)).collect()
    }

    /// Deterministic values with the IEEE corner cases mixed in.
    fn fill(rows: usize, cols: usize, salt: usize, specials: bool) -> Matrix {
        const ODD: [f32; 6] = [
            -0.0,
            1.0e-41,
            -3.0e-39,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        Matrix::from_fn(rows, cols, |r, c| {
            let i = r * cols + c + salt;
            if specials && i % 11 == 3 {
                ODD[(i / 11) % ODD.len()]
            } else {
                ((i * 37 % 101) as f32 - 50.0) * 0.173
            }
        })
    }

    /// Bit equality; a NaN's sign and payload depend on operand order,
    /// which the compiler may commute, so any NaN equals any NaN.
    fn same_bits(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()))
    }

    #[test]
    fn panel_kernel_is_bit_identical_to_its_scalar_ancestors() {
        let mut panels = Vec::new();
        let mut out = Matrix::default();
        for k in 0..=70 {
            for n in 0..=20 {
                for batch in [1, 2, 7, 24] {
                    for specials in [false, true] {
                        let a = fill(batch, k, n, specials);
                        let w = fill(n, k, 5 * batch, specials);
                        a.matmul_transb_into(&w, SumOrder::Four, &mut panels, &mut out);
                        assert_eq!(out.shape(), (batch, n));
                        let four = out.as_slice().to_vec();
                        assert!(
                            same_bits(&four, &transb_by_dot4(&a, &w)),
                            "Four: k={k} n={n} batch={batch} specials={specials}"
                        );
                        a.matmul_transb_into(&w, SumOrder::Eight, &mut panels, &mut out);
                        let want = if k == 0 {
                            vec![0.0; batch * n]
                        } else {
                            transb_by_matvec(&a, &w)
                        };
                        assert!(
                            same_bits(out.as_slice(), &want),
                            "Eight: k={k} n={n} batch={batch} specials={specials}"
                        );
                        // The two orders are the same sums up to rounding.
                        if !specials {
                            for (x, y) in four.iter().zip(out.as_slice()) {
                                assert!((x - y).abs() < 2e-2, "k={k} n={n}: {x} vs {y}");
                            }
                        }
                    }
                }
            }
        }
    }
}
