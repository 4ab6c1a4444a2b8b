//! The one-bit kernel's class sums in eight `f64` lanes, where that
//! provably gives the serial chain's bits, and the whole one-bit
//! error-feedback step fused into two passes, in AVX2 instantiations.
//!
//! **The exactness gate.** An `f32` whose exponent field is `e`
//! (floored at 1, where the subnormals sit) is a whole multiple of
//! `2^(e - 150)` and below `2^(e - 126)`. With `lo` and `hi` the floored
//! fields of a row's smallest and largest nonzero `|v|`, every term is
//! a whole number of units `2^(lo - 150)`, below `2^(span + 24)` of them
//! (`span = hi - lo`), so any sum of at most `n < 2^bitlen(n)` terms is
//! below `2^(span + bitlen(n) + 24)` units. If `span + bitlen(n) <= 29`
//! that is at most `2^53`: every partial sum, in any grouping, is exact
//! in `f64`, and the lanes reach the serial chain's one exact total. A
//! row that fails the gate, or holds NaN or ±Inf, takes the serial
//! chain. On baseline x86-64 gate plus lanes cost more than the chain,
//! so only the AVX2 instantiation takes them; the two stay separate
//! `#[inline(never)]` functions, which measured faster than one body.
//!
//! **The fused step** ([`onebit_step`]) is what the commit paths run:
//! pass 1 folds the gradient into the residual and gathers, in the same
//! loop, the positive count, the gate's extremes and both class sums;
//! pass 2 writes the levels and the new residual. Each value sees the
//! spelled-out step's IEEE operations in its order (`r + g`, the class
//! select, `a - level`), and the sums are the gate's exact total or the
//! serial chain itself, so no bit moves.

#[cfg(target_arch = "x86_64")]
use crate::onebit::{class_scale, serial_sums};
#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// `Some((pos_sum, neg_sum))` — each sign class's `f64` magnitude sum,
/// bit for bit what the serial chain of [`crate::onebit`] computes —
/// where the row passes the exactness gate and the CPU runs the AVX2
/// lanes; `None` otherwise. Classes as everywhere in the kernel:
/// `v >= 0.0` is positive.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn exact_sums(row: &[f32]) -> Option<(f64, f64)> {
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` holds only where `is_x86_feature_detected!
        // ("avx2")` does, so the CPU runs every instruction either
        // function may use.
        #[allow(unsafe_code)]
        return unsafe { exact_avx2(row).then(|| lanes_avx2(row)) };
    }
    None
}

/// Whether the lanes run: the CPU has AVX2 (std caches the check) and,
/// in tests, the portable path is not forced.
#[cfg(target_arch = "x86_64")]
fn avx2() -> bool {
    #[cfg(test)]
    if tests::PORTABLE.get() {
        return false;
    }
    std::arch::is_x86_feature_detected!("avx2")
}

/// [`exact`] compiled with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn exact_avx2(row: &[f32]) -> bool {
    exact(row)
}

/// [`lanes`] compiled with AVX2 and without FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn lanes_avx2(row: &[f32]) -> (f64, f64) {
    lanes(row)
}

/// The exactness gate: no NaN or ±Inf, and `span + bitlen(n) <= 29`.
/// `|v|`'s bits order like its magnitude, so the extremes are an
/// unsigned max and an unsigned min (of `bits - 1`, which sends the
/// zeros to `u32::MAX`, past every nonzero magnitude).
#[inline(always)]
fn exact(row: &[f32]) -> bool {
    let (mut hi, mut lo) = (0u32, u32::MAX);
    for &v in row {
        let a = v.to_bits() & 0x7fff_ffff;
        hi = hi.max(a);
        lo = lo.min(a.wrapping_sub(1));
    }
    admits(hi, lo, row.len())
}

/// The gate's verdict on an `n`-value row whose largest `|v|` has the
/// bits `hi` and whose smallest nonzero one the bits `lo + 1` (`lo` is
/// `u32::MAX` for a row of zeros).
#[inline(always)]
fn admits(hi: u32, lo: u32, n: usize) -> bool {
    if hi >= f32::INFINITY.to_bits() {
        return false;
    }
    if hi == 0 {
        return true;
    }
    let field = |a: u32| (a >> 23).max(1);
    let span = field(hi) - field(lo + 1);
    span + (usize::BITS - n.leading_zeros()) <= 29
}

/// The two class sums over eight independent lanes (value `i` in lane
/// `i mod 8`), the lanes then added up. Exact only behind [`exact`].
/// As in the serial chain, each block's two terms per value are
/// selected before any add: selects feeding the adds directly compile
/// to a branch per value. The zeros padding the last block add
/// nothing: a lane starts at `+0.0` and `x + 0.0 == x`.
#[inline(always)]
fn lanes(row: &[f32]) -> (f64, f64) {
    let (mut pos, mut neg) = ([0.0f64; 8], [0.0f64; 8]);
    let mut add = |block: [f32; 8]| {
        let p = block.map(|v| if v >= 0.0 { v } else { 0.0 });
        let n = block.map(|v| if v >= 0.0 { 0.0 } else { -v });
        for l in 0..8 {
            pos[l] += f64::from(p[l]);
            neg[l] += f64::from(n[l]);
        }
    };
    let blocks = row.chunks_exact(8);
    let tail = blocks.remainder();
    for block in blocks {
        add(block.try_into().expect("eight values"));
    }
    if !tail.is_empty() {
        let mut last = [0.0f32; 8];
        last[..tail.len()].copy_from_slice(tail);
        add(last);
    }
    let total = |s: [f64; 8]| ((s[0] + s[4]) + (s[1] + s[5])) + ((s[2] + s[6]) + (s[3] + s[7]));
    (total(pos), total(neg))
}

/// One one-bit error-feedback step over a row, fused: `residual ←
/// residual + gradient`, `restored ←` each value's level, `residual ←
/// adjusted - restored`, bit for bit the spelled-out fold, copy,
/// `OneBitCodec::transcode` and subtract of three rows of one width.
/// `Some(whether the class sums ran in lanes)` where the CPU runs the
/// AVX2 kernel; `None`, with nothing touched, otherwise.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn onebit_step(
    residual: &mut [f32],
    gradient: &[f32],
    restored: &mut [f32],
) -> Option<bool> {
    debug_assert!(gradient.len() == residual.len() && restored.len() == residual.len());
    #[cfg(target_arch = "x86_64")]
    if avx2() {
        // SAFETY: `avx2()` holds only where `is_x86_feature_detected!
        // ("avx2")` does, so the CPU runs every instruction the kernel
        // may use.
        #[allow(unsafe_code)]
        return Some(unsafe { step_avx2(residual, gradient, restored) });
    }
    None
}

/// The fused step's two passes, with AVX2 and without FMA. Pass 1
/// stores `a = r + g` and gathers the count, the gate and the lane
/// sums; a row the gate refuses takes the serial chain over the folded
/// row. Pass 2 writes each level and `a - level`. The last, partial
/// block runs through zero-padded copies: a padding `+0.0` moves
/// neither extreme nor sum, and the count masks it out.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline(never)]
fn step_avx2(residual: &mut [f32], gradient: &[f32], restored: &mut [f32]) -> bool {
    let n = residual.len();
    let mut gather = Gather::new();
    let (blocks, tail) = residual.as_chunks_mut::<8>();
    let (g_blocks, g_tail) = gradient.as_chunks::<8>();
    for (r, g) in blocks.iter_mut().zip(g_blocks) {
        let a = _mm256_add_ps(load(r), load(g));
        store(r, a);
        gather.add(a, _mm256_set1_epi32(-1));
    }
    if !tail.is_empty() {
        let (mut r, mut g) = ([0.0f32; 8], [0.0f32; 8]);
        r[..tail.len()].copy_from_slice(tail);
        g[..tail.len()].copy_from_slice(g_tail);
        let a = _mm256_add_ps(load(&r), load(&g));
        store(&mut r, a);
        tail.copy_from_slice(&r[..tail.len()]);
        let first = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        gather.add(
            a,
            _mm256_cmpgt_epi32(_mm256_set1_epi32(tail.len() as i32), first),
        );
    }

    let (pos_n, lanes, sums) = gather.finish(n);
    let (pos_sum, neg_sum) = if lanes { sums } else { serial_sums(residual) };
    let pos = _mm256_set1_ps(class_scale(pos_sum, pos_n));
    let neg = _mm256_set1_ps(-class_scale(neg_sum, n as u32 - pos_n));

    let (blocks, tail) = residual.as_chunks_mut::<8>();
    let (out_blocks, out_tail) = restored.as_chunks_mut::<8>();
    for (r, out) in blocks.iter_mut().zip(out_blocks) {
        let (level, left) = emit(load(r), pos, neg);
        store(out, level);
        store(r, left);
    }
    if !tail.is_empty() {
        let (mut r, mut out) = ([0.0f32; 8], [0.0f32; 8]);
        r[..tail.len()].copy_from_slice(tail);
        let (level, left) = emit(load(&r), pos, neg);
        store(&mut out, level);
        store(&mut r, left);
        out_tail.copy_from_slice(&out[..tail.len()]);
        tail.copy_from_slice(&r[..tail.len()]);
    }
    lanes
}

/// Pass 2 on one block of folded values `a`: `(level, a - level)`,
/// the level `pos` where `a >= 0.0` and `neg` (already negated)
/// elsewhere, NaN included.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn emit(a: __m256, pos: __m256, neg: __m256) -> (__m256, __m256) {
    let level = _mm256_blendv_ps(
        neg,
        pos,
        _mm256_cmp_ps::<_CMP_GE_OQ>(a, _mm256_setzero_ps()),
    );
    (level, _mm256_sub_ps(a, level))
}

/// Pass 1's accumulators: the positive count, [`exact`]'s two extremes
/// and the class sums in `f64` lanes, value `i` in lane `i mod 8` as in
/// [`lanes`].
#[cfg(target_arch = "x86_64")]
struct Gather {
    count: __m256i,
    hi: __m256i,
    lo: __m256i,
    pos: [__m256d; 2],
    neg: [__m256d; 2],
}

#[cfg(target_arch = "x86_64")]
impl Gather {
    #[target_feature(enable = "avx2")]
    #[inline]
    fn new() -> Self {
        Self {
            count: _mm256_setzero_si256(),
            hi: _mm256_setzero_si256(),
            lo: _mm256_set1_epi32(-1),
            pos: [_mm256_setzero_pd(); 2],
            neg: [_mm256_setzero_pd(); 2],
        }
    }

    /// Takes in one block of folded values, counting only the `valid`
    /// lanes (all ones) as positive. The two terms per value are the
    /// serial chain's: `a` or `+0.0`, and `+0.0` or `-a`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn add(&mut self, a: __m256, valid: __m256i) {
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(a, _mm256_setzero_ps());
        // A positive lane of `ge` is -1: subtracting counts it.
        let counted = _mm256_and_si256(_mm256_castps_si256(ge), valid);
        self.count = _mm256_sub_epi32(self.count, counted);
        let mag = _mm256_and_si256(_mm256_castps_si256(a), _mm256_set1_epi32(0x7fff_ffff));
        self.hi = _mm256_max_epu32(self.hi, mag);
        self.lo = _mm256_min_epu32(self.lo, _mm256_sub_epi32(mag, _mm256_set1_epi32(1)));
        let p = _mm256_and_ps(ge, a);
        let m = _mm256_andnot_ps(ge, _mm256_xor_ps(a, _mm256_set1_ps(-0.0)));
        for (sum, terms) in [(&mut self.pos, p), (&mut self.neg, m)] {
            let low = _mm256_cvtps_pd(_mm256_castps256_ps128(terms));
            sum[0] = _mm256_add_pd(sum[0], low);
            sum[1] = _mm256_add_pd(sum[1], _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(terms)));
        }
    }

    /// `(positive count, gate verdict, (pos_sum, neg_sum))` of an
    /// `n`-value row. The sums are exact only where the gate admits.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn finish(&self, n: usize) -> (u32, bool, (f64, f64)) {
        macro_rules! across {
            ($op:ident, $v:expr) => {{
                let h = $op(
                    _mm256_castsi256_si128($v),
                    _mm256_extracti128_si256::<1>($v),
                );
                let h = $op(h, _mm_shuffle_epi32::<0b01_00_11_10>(h));
                _mm_cvtsi128_si32($op(h, _mm_shuffle_epi32::<0b10_11_00_01>(h))) as u32
            }};
        }
        let gate = admits(
            across!(_mm_max_epu32, self.hi),
            across!(_mm_min_epu32, self.lo),
            n,
        );
        (
            across!(_mm_add_epi32, self.count),
            gate,
            (total(self.pos), total(self.neg)),
        )
    }
}

/// Eight `f64` lanes, lanes 0–3 in `s[0]`, added up as [`lanes`] does.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn total(s: [__m256d; 2]) -> f64 {
    let t = _mm256_add_pd(s[0], s[1]);
    let (low, high) = (_mm256_castpd256_pd128(t), _mm256_extractf128_pd::<1>(t));
    let pairs = _mm_add_pd(_mm_unpacklo_pd(low, high), _mm_unpackhi_pd(low, high));
    _mm_cvtsd_f64(pairs) + _mm_cvtsd_f64(_mm_unpackhi_pd(pairs, pairs))
}

/// Eight values as one register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn load(v: &[f32; 8]) -> __m256 {
    // SAFETY: `v` is eight readable `f32`s, the unaligned load's whole
    // extent.
    #[allow(unsafe_code)]
    unsafe {
        _mm256_loadu_ps(v.as_ptr())
    }
}

/// One register into eight values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
fn store(v: &mut [f32; 8], x: __m256) {
    // SAFETY: `v` is eight writable `f32`s, the unaligned store's whole
    // extent.
    #[allow(unsafe_code)]
    unsafe {
        _mm256_storeu_ps(v.as_mut_ptr(), x)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Set to run the portable path on a CPU that has AVX2.
        pub(super) static PORTABLE: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `check` over the portable path, then over the AVX2 lanes if
    /// this CPU has AVX2.
    pub(crate) fn on_each_path(check: impl Fn(&str)) {
        PORTABLE.set(true);
        check("portable");
        PORTABLE.set(false);
        #[cfg(target_arch = "x86_64")]
        if avx2() {
            return check("avx2");
        }
        eprintln!("no AVX2 on this CPU: the exact lanes were not checked");
    }

    #[test]
    fn the_gate_admits_exactly_the_rows_it_proves() {
        let ok = exact;
        assert!(ok(&[]) && ok(&[0.0, -0.0]) && ok(&[f32::MAX]));
        assert!(!ok(&[1.0, f32::NAN]) && !ok(&[f32::INFINITY]) && !ok(&[-f32::INFINITY, 0.0]));
        // `2^s`, `n - 1` ones and a zero: the zero takes no part in
        // the span but counts in the row's length.
        let spread = |s: i32, n: usize| {
            let mut row = vec![1.0f32; n];
            row[0] = 2f32.powi(s);
            row.push(-0.0);
            row
        };
        // Lengths 2 and 3: bitlen 2 leaves a span of 27; 4: bitlen 3.
        assert!(ok(&spread(27, 1)) && ok(&spread(27, 2)) && !ok(&spread(28, 2)));
        assert!(ok(&spread(-27, 2)) && !ok(&spread(-28, 2)));
        assert!(ok(&spread(26, 3)) && !ok(&spread(27, 3)));
        // Length 200: bitlen 8.
        assert!(ok(&spread(21, 199)) && !ok(&spread(22, 199)) && !ok(&spread(-22, 199)));
        // Subnormals share the floored exponent field 1 with the
        // smallest normals.
        let tiny = f32::from_bits(1);
        assert!(ok(&[tiny, f32::MIN_POSITIVE, -f32::from_bits(0x7f_ffff)]));
        assert!(ok(&[tiny, 2f32.powi(-126 + 27)]) && !ok(&[tiny, -2f32.powi(-126 + 28)]));
    }

    #[test]
    fn a_row_the_serial_chain_rounds_is_refused() {
        // 1 + 2^-53 rounds back to 1 in `f64` (ties to even) every time
        // along the chain; in lanes the small terms first meet each
        // other, and the total comes out above 1.
        let mut row = vec![2f32.powi(-53); 16];
        row[0] = 1.0;
        assert!(!exact(&row));
        assert_eq!(crate::onebit::serial_sums(&row), (1.0, 0.0));
        assert!(lanes(&row).0 > 1.0);
    }
}
