//! The two dense kernels, each bit-identical to its scalar ancestor, not
//! merely close. The forward `A · Wᵀ`: `W` packed into output-major
//! panels, one SIMD lane per output, and inside each lane exactly the
//! partial sums of the scalar dot product the caller has to reproduce.
//! The backward [`add_scaled_rows`]: per output row, the non-zero terms
//! compacted without a branch, then summed in order into register
//! blocks.
//!
//! Each kernel has one body, compiled twice: for the build target and,
//! on x86-64, inside an AVX2 wrapper that runs when the CPU has AVX2.
//! Both compile the same IEEE operations in the same order.

use crate::ops;

/// Outputs per panel. On the portable path (baseline x86-64: sixteen
/// 4-wide SSE registers) eight lanes are two registers per partial
/// sum, so the four partial sums a pass keeps live fill eight of the
/// sixteen and nothing spills; under AVX2 each is one 8-wide register.
const LANES: usize = 8;

/// `(scalar, row offset)` terms one compaction pass keeps on the stack.
const TERMS: usize = 64;

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

/// Whether the kernels run their AVX2 instantiation: the CPU has AVX2
/// (std caches the check) and, in tests, the portable bodies are not
/// forced.
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// [`panel_rows`], in its AVX2 instantiation where the CPU has AVX2.
fn run_panels<const U: usize>(
    a: &[f32],
    k: usize,
    n: usize,
    paneled: usize,
    panels: &[f32],
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` holds only where `is_x86_feature_detected!
        // ("avx2")` does, so the CPU runs every instruction it may use.
        #[allow(unsafe_code)]
        return unsafe { panel_rows_avx2::<U>(a, k, n, paneled, panels, out) };
    }
    panel_rows::<U>(a, k, n, paneled, panels, out);
}

/// [`panel_rows`] compiled with AVX2 and without FMA: the same IEEE
/// operations in the same order, in 8-wide registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn panel_rows_avx2<const U: usize>(
    a: &[f32],
    k: usize,
    n: usize,
    paneled: usize,
    panels: &[f32],
    out: &mut [f32],
) {
    panel_rows::<U>(a, k, n, paneled, panels, out);
}

/// Panel outer, batch rows inner: a panel (`k * 32` bytes) stays in L1
/// while every row of `a` streams past it.
#[inline(always)]
fn panel_rows<const U: usize>(
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

/// `out_o += scalar(o, t) · x_t` for every `w`-wide row `o` of `out`
/// and, in order, every `w`-wide row `t` of `x` whose scalar is not
/// zero — per element the IEEE operations of
/// `if s != 0.0 { y += s * x }` over `t`, which is how the dense
/// backward was written (`-0.0` is skipped, NaN kept).
///
/// That branch mispredicts on fresh ReLU masks, so each output row
/// first writes every term to a stack chunk and advances only past the
/// non-zero ones, then adds the kept terms into 32/16/8-wide column
/// blocks held in registers. Runs the AVX2 instantiation where the CPU
/// has AVX2.
pub(crate) fn add_scaled_rows(
    out: &mut [f32],
    x: &[f32],
    w: usize,
    scalar: impl Fn(usize, usize) -> f32,
) {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` holds only where `is_x86_feature_detected!
        // ("avx2")` does, so the CPU runs every instruction it may use.
        #[allow(unsafe_code)]
        return unsafe { scaled_rows_avx2(out, x, w, scalar) };
    }
    scaled_rows(out, x, w, scalar);
}

/// [`scaled_rows`] compiled with AVX2 and without FMA: the same IEEE
/// operations in the same order, in 8-wide registers.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scaled_rows_avx2(out: &mut [f32], x: &[f32], w: usize, scalar: impl Fn(usize, usize) -> f32) {
    scaled_rows(out, x, w, scalar);
}

#[inline(always)]
fn scaled_rows(out: &mut [f32], x: &[f32], w: usize, scalar: impl Fn(usize, usize) -> f32) {
    if w == 0 {
        return;
    }
    let n_terms = x.len() / w;
    let mut kept = [(0.0f32, 0usize); TERMS];
    for (o, orow) in out.chunks_exact_mut(w).enumerate() {
        for first in (0..n_terms).step_by(TERMS) {
            let mut n = 0;
            for t in first..n_terms.min(first + TERMS) {
                let s = scalar(o, t);
                kept[n] = (s, t * w);
                n += usize::from(s != 0.0);
            }
            let kept = &kept[..n];
            let mut c = 0;
            while c + 32 <= w {
                add_block::<32>(orow, c, kept, x);
                c += 32;
            }
            if c + 16 <= w {
                add_block::<16>(orow, c, kept, x);
                c += 16;
            }
            if c + 8 <= w {
                add_block::<8>(orow, c, kept, x);
                c += 8;
            }
            for c in c..w {
                add_block::<1>(orow, c, kept, x);
            }
        }
    }
}

/// Adds every kept term's columns `c..c + B` into `orow`, summing in a
/// local the optimiser keeps in registers up to the one store.
#[inline(always)]
fn add_block<const B: usize>(orow: &mut [f32], c: usize, kept: &[(f32, usize)], x: &[f32]) {
    let out = &mut orow[c..c + B];
    let mut acc = [0.0f32; B];
    acc.copy_from_slice(out);
    for &(s, off) in kept {
        for (a, &v) in acc.iter_mut().zip(&x[off + c..off + c + B]) {
            *a += s * v;
        }
    }
    out.copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::Matrix;
    use std::cell::Cell;

    thread_local! {
        /// Set to run the portable bodies on a CPU that has AVX2.
        pub(super) static PORTABLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `check` over the portable bodies, then over their AVX2
    /// instantiation if this CPU has AVX2.
    fn on_each_path(check: impl Fn(&str)) {
        PORTABLE.set(true);
        check("portable");
        PORTABLE.set(false);
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            return check("avx2");
        }
        eprintln!("no AVX2 on this CPU: its instantiation was not checked");
    }

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
        on_each_path(|path| {
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
                                "{path} Four: k={k} n={n} batch={batch} specials={specials}"
                            );
                            a.matmul_transb_into(&w, SumOrder::Eight, &mut panels, &mut out);
                            let want = if k == 0 {
                                vec![0.0; batch * n]
                            } else {
                                transb_by_matvec(&a, &w)
                            };
                            assert!(
                                same_bits(out.as_slice(), &want),
                                "{path} Eight: k={k} n={n} batch={batch} specials={specials}"
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
        });
    }

    /// `Matrix::add_outer` as it was: one branch per row of `gw`.
    fn add_outer_by_branch(gw: &mut Matrix, a: &[f32], b: &[f32], scale: f32) {
        for (r, &av) in a.iter().enumerate() {
            let s = av * scale;
            if s != 0.0 {
                for (w, &bv) in gw.row_mut(r).iter_mut().zip(b) {
                    *w += s * bv;
                }
            }
        }
    }

    /// `Matrix::matmul_into` as it was: the i-k-j loop, one `axpy` per
    /// non-zero scalar.
    fn matmul_by_axpy(a: &Matrix, w: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), w.cols());
        for i in 0..a.rows() {
            for (k, &av) in a.row(i).iter().enumerate() {
                if av != 0.0 {
                    for (o, &v) in out.row_mut(i).iter_mut().zip(w.row(k)) {
                        *o += av * v;
                    }
                }
            }
        }
        out
    }

    /// Entries non-zero with probability `density`; with `specials`,
    /// about one in eleven is an IEEE corner case instead: `-0.0`, a
    /// subnormal, a scalar whose product with `1e-20` underflows to
    /// zero, NaN or an infinity.
    fn sparse(rows: usize, cols: usize, density: f64, specials: bool, rng: &mut DetRng) -> Matrix {
        const ODD: [f32; 7] = [
            -0.0,
            1.0e-41,
            -3.0e-39,
            1.0e-30,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        Matrix::from_fn(rows, cols, |_, _| {
            if specials && rng.chance(1.0 / 11.0) {
                ODD[rng.index(ODD.len())]
            } else if rng.chance(density) {
                rng.normal() as f32
            } else {
                0.0
            }
        })
    }

    #[test]
    fn backward_kernel_is_bit_identical_to_its_branching_loops() {
        on_each_path(|path| {
            let mut rng = DetRng::new(28);
            let mut got = Matrix::default();
            // 150 terms fill two stack chunks and part of a third.
            for terms in [1, 2, 7, 24, 48, 49, 150] {
                for w in 0..=70 {
                    let n = 1 + (w + terms) % 5;
                    for density in [0.0, 0.28, 0.49, 1.0] {
                        for specials in [false, true] {
                            let case =
                                format!("{path} terms={terms} w={w} density={density} {specials}");
                            let x = sparse(terms, w, 1.0, specials, &mut rng);
                            // The weight gradient: `dz` (terms x n) against
                            // activations `x`, onto a non-zero start.
                            let dz = sparse(terms, n, density, specials, &mut rng);
                            let start = sparse(n, w, 0.5, specials, &mut rng);
                            for scale in [0.03125, 1.0e-20] {
                                let mut want = start.clone();
                                for r in 0..terms {
                                    add_outer_by_branch(&mut want, dz.row(r), x.row(r), scale);
                                }
                                let mut batch = start.clone();
                                batch.add_outer_batch(&dz, &x, scale);
                                assert!(same_bits(batch.as_slice(), want.as_slice()), "dW {case}");
                                let mut one = start.clone();
                                for r in 0..terms {
                                    one.add_outer(dz.row(r), x.row(r), scale);
                                }
                                assert!(same_bits(one.as_slice(), want.as_slice()), "outer {case}");
                            }
                            // `dz · W` with `x` as `W` (n x terms times
                            // terms x w), and its one-row form `matvec_t`.
                            let dz = sparse(n, terms, density, specials, &mut rng);
                            let want = matmul_by_axpy(&dz, &x);
                            got.as_mut_slice().fill(f32::NAN);
                            dz.matmul_into(&x, &mut got);
                            assert_eq!(got.shape(), (n, w));
                            assert!(same_bits(got.as_slice(), want.as_slice()), "dA {case}");
                            let y = x.matvec_t(dz.row(0));
                            assert!(same_bits(&y, want.row(0)), "matvec_t {case}");
                        }
                    }
                }
            }
        });
    }
}
