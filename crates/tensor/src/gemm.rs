//! The two dense kernels, each bit-identical to its scalar ancestor, not
//! merely close. The forward `A · Wᵀ`: `W` packed into output-major
//! panels, one SIMD lane per output, and inside each lane exactly the
//! partial sums of the scalar dot product the caller has to reproduce.
//! The backward [`add_scaled_rows`]: per output row, the non-zero terms
//! compacted without a branch, then summed in order into register
//! blocks.
//!
//! Each kernel has one body with an instantiation per
//! [`crate::simd::Isa`], differing only in const parameters — lanes per
//! panel, batch rows per pass, widest column block — which decide which
//! outputs share an instruction; every lane computes the same IEEE
//! operations in the same order.

use crate::ops;
#[cfg(target_arch = "x86_64")]
use crate::simd::{self, Isa};

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
    let w_paneled = &w[..paneled * k];
    match order {
        SumOrder::Four => run_panels::<4>(a, w_paneled, k, n, panels, out),
        SumOrder::Eight => run_panels::<8>(a, w_paneled, k, n, panels, out),
    }
    for (arow, orow) in a.chunks_exact(k).zip(out.chunks_exact_mut(n)) {
        let rest = w[paneled * k..].chunks_exact(k);
        for (o, wrow) in orow[paneled..].iter_mut().zip(rest) {
            *o = ops::dot(arow, wrow);
        }
    }
}

/// [`panel_rows`] in the instantiation for [`crate::simd::isa`].
fn run_panels<const U: usize>(
    a: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    panels: &mut Vec<f32>,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    if let wide @ (Isa::Avx2 | Isa::Avx512) = simd::isa() {
        // SAFETY: `simd::isa()` detected every feature each arm enables.
        #[allow(unsafe_code)]
        return unsafe {
            match wide {
                Isa::Avx512 => x86_64::panel_rows_avx512::<U>(a, w, k, n, panels, out),
                _ => x86_64::panel_rows_avx2::<U>(a, w, k, n, panels, out),
            }
        };
    }
    panel_rows::<8, 1, U>(a, w, k, n, panels, out);
}

/// Packs the rows of `w` into panels of `L`, `k`-major inside each:
/// `panel[t * L + lane] = w[first + lane][t]`, the lanes past the last
/// row zero.
#[inline(always)]
fn pack<const L: usize>(w: &[f32], k: usize, panels: &mut Vec<f32>) {
    panels.clear();
    panels.resize((w.len() / k).div_ceil(L) * k * L, 0.0);
    let blocks = w.chunks(k * L);
    for (rows, panel) in blocks.zip(panels.chunks_exact_mut(k * L)) {
        for (lane, row) in rows.chunks_exact(k).enumerate() {
            for (t, &v) in row.iter().enumerate() {
                panel[t * L + lane] = v;
            }
        }
    }
}

/// Packs `w` (the outputs [`matmul_transb`] panels) into `L`-lane
/// panels, then runs panel outer, batch rows inner, `R` rows per pass:
/// a panel (`k * 4 * L` bytes) stays in L1 while every row of `a`
/// streams past it. The rows left after the last full pass go one at a
/// time.
#[inline(always)]
fn panel_rows<const L: usize, const R: usize, const U: usize>(
    a: &[f32],
    w: &[f32],
    k: usize,
    n: usize,
    panels: &mut Vec<f32>,
    out: &mut [f32],
) {
    pack::<L>(w, k, panels);
    let paneled = w.len() / k;
    for (p, panel) in panels.chunks_exact(k * L).enumerate() {
        let first = p * L;
        let width = L.min(paneled - first);
        let mut passes = a.chunks_exact(R * k);
        let mut outs = out.chunks_exact_mut(R * n);
        for (rows, orows) in passes.by_ref().zip(outs.by_ref()) {
            let sums = panel_dot::<L, R, U>(rows, panel);
            for (s, orow) in sums.iter().zip(orows.chunks_exact_mut(n)) {
                orow[first..first + width].copy_from_slice(&s[..width]);
            }
        }
        let left = passes.remainder().chunks_exact(k);
        for (arow, orow) in left.zip(outs.into_remainder().chunks_exact_mut(n)) {
            let [s] = panel_dot::<L, 1, U>(arow, panel);
            orow[first..first + width].copy_from_slice(&s[..width]);
        }
    }
}

/// `L` dot products of each of the `R` rows in `rows` (`R * k`
/// values) against one panel, each summed with `U` partial sums over
/// `t mod U` (4: [`SumOrder::Four`], 8: [`SumOrder::Eight`]). Inlined
/// into the row loop so the sums stay in registers up to the store; as
/// a call the 112 x 80 layer ran 1.7x slower.
#[inline(always)]
fn panel_dot<const L: usize, const R: usize, const U: usize>(
    rows: &[f32],
    panel: &[f32],
) -> [[f32; L]; R] {
    let k = rows.len() / R;
    let rows: [&[f32]; R] = std::array::from_fn(|r| &rows[r * k..(r + 1) * k]);
    let steps = rows.map(|a| a.as_chunks::<U>().0);
    let slabs = panel.chunks_exact(U * L);
    let low = pass::<L, R, U>(steps, slabs.clone(), 0);
    let high = if U == 8 {
        pass::<L, R, U>(steps, slabs.clone(), 1)
    } else {
        low
    };
    let mut out = [[0.0f32; L]; R];
    for (r, sums) in out.iter_mut().enumerate() {
        // s_i + s_{i + U/2}, from one pass (Four) or across the two.
        let x = |i: usize| {
            let other = if U == 4 { low[r][i + 2] } else { high[r][i] };
            lanes_add(low[r][i], other)
        };
        *sums = if U == 4 {
            lanes_add(x(0), x(1))
        } else {
            lanes_add(lanes_add(x(0), x(1)), lanes_add(x(2), x(3)))
        };
        // Four adds the tail products onto the combined sum one by one;
        // Eight sums them from zero and adds that once.
        let a_tail = &rows[r][k - k % U..];
        let mut tail = [0.0f32; L];
        let onto = if U == 4 { &mut *sums } else { &mut tail };
        for (&av, lanes) in a_tail.iter().zip(slabs.remainder().chunks_exact(L)) {
            for (s, &pv) in onto.iter_mut().zip(lanes) {
                *s += av * pv;
            }
        }
        if U == 8 {
            *sums = lanes_add(*sums, tail);
        }
    }
    out
}

/// Partial sums `4g..4g + 4` of every row over one sweep of the panel,
/// in a local of their own (`Eight` ran 5x slower summing into one
/// array of all eight). They stay in registers only if LLVM unrolls
/// every loop inside the sweep: with the rows outermost, or zipped as
/// an array by value, it did not and the sums lived in memory (up to 5x
/// slower). `Eight` takes a second sweep of the L1-resident panel
/// rather than spill.
#[inline(always)]
fn pass<const L: usize, const R: usize, const U: usize>(
    steps: [&[[f32; U]]; R],
    slabs: std::slice::ChunksExact<'_, f32>,
    g: usize,
) -> [[[f32; L]; 4]; R] {
    let mut live = [[[0.0f32; L]; 4]; R];
    for (j, xp) in slabs.enumerate() {
        for u in 0..4 {
            let t = 4 * g + u;
            let p = &xp[t * L..t * L + L];
            for (r, sums) in live.iter_mut().enumerate() {
                let av = steps[r][j][t];
                for (s, &pv) in sums[u].iter_mut().zip(p) {
                    *s += av * pv;
                }
            }
        }
    }
    live
}

/// Lane-wise `a + b`.
#[inline(always)]
fn lanes_add<const L: usize>(a: [f32; L], b: [f32; L]) -> [f32; L] {
    std::array::from_fn(|l| a[l] + b[l])
}

/// `out_o += scalar(o, t) · x_t` for every `w`-wide row `o` of `out`
/// and, in order, every `w`-wide row `t` of `x` whose scalar is not
/// zero — per element the IEEE operations of
/// `if s != 0.0 { y += s * x }` over `t`, which is how the dense
/// backward was written (`-0.0` is skipped, NaN kept).
///
/// That branch mispredicts on fresh ReLU masks, so each output row
/// first writes every term to a stack chunk and advances only past the
/// non-zero ones, then adds the kept terms into column blocks held in
/// registers. Runs the instantiation for [`crate::simd::isa`].
pub(crate) fn add_scaled_rows(
    out: &mut [f32],
    x: &[f32],
    w: usize,
    scalar: impl Fn(usize, usize) -> f32,
) {
    #[cfg(target_arch = "x86_64")]
    if let wide @ (Isa::Avx2 | Isa::Avx512) = simd::isa() {
        // SAFETY: `simd::isa()` detected every feature each arm enables.
        #[allow(unsafe_code)]
        return unsafe {
            match wide {
                Isa::Avx512 => x86_64::scaled_rows_avx512(out, x, w, scalar),
                _ => x86_64::scaled_rows_avx2(out, x, w, scalar),
            }
        };
    }
    scaled_rows::<32>(out, x, w, scalar);
}

/// Covers each output row with as few column blocks as it can: `B`
/// wide while `B` columns remain, then one block of the rest's
/// multiple of eight (`B <= 64`), then single columns. A lone 8-wide
/// block is one latency-bound add chain, so 40 columns are one block,
/// not 32 + 8.
#[inline(always)]
fn scaled_rows<const B: usize>(
    out: &mut [f32],
    x: &[f32],
    w: usize,
    scalar: impl Fn(usize, usize) -> f32,
) {
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
            while c + B <= w {
                add_block::<B>(orow, c, kept, x);
                c += B;
            }
            // Fewer than `B` columns remain, so `eights < B / 8`: the
            // guards keep blocks wider than `B` out of narrower builds.
            let eights = (w - c) / 8;
            match eights {
                1 => add_block::<8>(orow, c, kept, x),
                2 => add_block::<16>(orow, c, kept, x),
                3 => add_block::<24>(orow, c, kept, x),
                4 if B > 32 => add_block::<32>(orow, c, kept, x),
                5 if B > 40 => add_block::<40>(orow, c, kept, x),
                6 if B > 48 => add_block::<48>(orow, c, kept, x),
                7 if B > 56 => add_block::<56>(orow, c, kept, x),
                _ => {}
            }
            for c in c + 8 * eights..w {
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

/// The AVX2 (8 lanes) and AVX-512 (16 lanes) instantiations, two rows
/// per pass and blocks up to 64 wide: the same IEEE operations in the
/// same order, in wider registers. `avx512f` implies LLVM's `fma`
/// feature, but Rust never contracts `a * b + c`.
#[cfg(target_arch = "x86_64")]
mod x86_64 {
    use super::{panel_rows, scaled_rows};

    #[target_feature(enable = "avx2")]
    pub(super) fn panel_rows_avx2<const U: usize>(
        a: &[f32],
        w: &[f32],
        k: usize,
        n: usize,
        panels: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        panel_rows::<8, 2, U>(a, w, k, n, panels, out);
    }

    #[target_feature(enable = "avx2,avx512f")]
    pub(super) fn panel_rows_avx512<const U: usize>(
        a: &[f32],
        w: &[f32],
        k: usize,
        n: usize,
        panels: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        panel_rows::<16, 2, U>(a, w, k, n, panels, out);
    }

    #[target_feature(enable = "avx2")]
    pub(super) fn scaled_rows_avx2(
        out: &mut [f32],
        x: &[f32],
        w: usize,
        scalar: impl Fn(usize, usize) -> f32,
    ) {
        scaled_rows::<64>(out, x, w, scalar);
    }

    #[target_feature(enable = "avx2,avx512f")]
    pub(super) fn scaled_rows_avx512(
        out: &mut [f32],
        x: &[f32],
        w: usize,
        scalar: impl Fn(usize, usize) -> f32,
    ) {
        scaled_rows::<64>(out, x, w, scalar);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::simd::{testhooks::on_each_isa, Isa};
    use crate::Matrix;

    const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

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
        on_each_isa("panel", &ALL, |isa| {
            let mut panels = Vec::new();
            let mut out = Matrix::default();
            // n up to 41: two 16-lane panels and a partial third; odd
            // batches leave one row after the two-row passes.
            for k in 0..=70 {
                for n in 0..=41 {
                    for batch in [1, 2, 3, 7, 24, 48] {
                        for specials in [false, true] {
                            let a = fill(batch, k, n, specials);
                            let w = fill(n, k, 5 * batch, specials);
                            a.matmul_transb_into(&w, SumOrder::Four, &mut panels, &mut out);
                            assert_eq!(out.shape(), (batch, n));
                            let four = out.as_slice().to_vec();
                            assert!(
                                same_bits(&four, &transb_by_dot4(&a, &w)),
                                "{isa:?} Four: k={k} n={n} batch={batch} specials={specials}"
                            );
                            a.matmul_transb_into(&w, SumOrder::Eight, &mut panels, &mut out);
                            let want = if k == 0 {
                                vec![0.0; batch * n]
                            } else {
                                transb_by_matvec(&a, &w)
                            };
                            assert!(
                                same_bits(out.as_slice(), &want),
                                "{isa:?} Eight: k={k} n={n} batch={batch} specials={specials}"
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
        on_each_isa("backward", &ALL, |isa| {
            let mut rng = DetRng::new(28);
            let mut got = Matrix::default();
            // 150 terms fill two stack chunks and part of a third; widths
            // up to 140 take every block split up to two 64-wide blocks
            // and a remainder (40 = 40, 80 = 64 + 16, 112 = 64 + 48).
            for terms in [1, 2, 7, 24, 48, 49, 150] {
                for w in 0..=140 {
                    let n = 1 + (w + terms) % 5;
                    for density in [0.0, 0.28, 0.49, 1.0] {
                        for specials in [false, true] {
                            let case =
                                format!("{isa:?} terms={terms} w={w} density={density} {specials}");
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
