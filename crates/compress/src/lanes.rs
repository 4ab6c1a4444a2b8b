//! The one-bit kernel's count, exactness gate and class sums in eight
//! `f64` lanes, in AVX2: over a bare row ([`exact_sums`]) and as pass 1
//! of the error-feedback step fused into two passes ([`onebit_step`]).
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
//! chain. On baseline x86-64 (SSE2 has no unsigned 32-bit min or max)
//! gate plus lanes cost more than the chain, so only AVX2 takes them.
//!
//! **One gather.** `Gather` is the one loop that takes eight values
//! into the count, the gate's extremes and the lane sums, `admits` the
//! one gate rule, `padded` the one way a last, partial block is fed.
//! The fused step's pass 1 folds the gradient into the residual and
//! gathers in the same loop; pass 2 writes levels and residual.
//! Each value sees the spelled-out step's IEEE operations in its order
//! (`r + g`, the class select, `a - level`), and the sums are the
//! gate's exact total or the serial chain itself: no bit moves.

use rog_tensor::simd::{isa, Isa};

/// `Some((pos_sum, neg_sum))` — each sign class's `f64` magnitude sum,
/// bit for bit what the serial chain of [`crate::onebit`] computes —
/// where the row passes the exactness gate and the CPU runs the AVX2
/// lanes; `None` otherwise. Classes as everywhere in the kernel:
/// `v >= 0.0` is positive.
#[cfg_attr(not(target_arch = "x86_64"), allow(unused_variables))]
pub(crate) fn exact_sums(row: &[f32]) -> Option<(f64, f64)> {
    if isa() >= Isa::Avx2 {
        // SAFETY: `isa()` detected `avx2`, all the kernel enables.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        return unsafe { x86_64::sums_avx2(row) };
    }
    None
}

/// One one-bit error-feedback step over a row, fused: `residual ←
/// residual + gradient`, `restored ←` each value's level, `residual ←
/// adjusted - restored`, bit for bit the spelled-out fold, copy,
/// `OneBitCodec::transcode` and subtract of three rows of one width.
/// `Some(whether the class sums ran in lanes)` where the CPU runs the
/// AVX2 kernel; `None`, with nothing touched, otherwise.
pub(crate) fn onebit_step(
    residual: &mut [f32],
    gradient: &[f32],
    restored: &mut [f32],
) -> Option<bool> {
    debug_assert!(gradient.len() == residual.len() && restored.len() == residual.len());
    if isa() >= Isa::Avx2 {
        // SAFETY: `isa()` detected `avx2`, all the kernel enables.
        #[cfg(target_arch = "x86_64")]
        #[allow(unsafe_code)]
        return Some(unsafe { x86_64::step_avx2(residual, gradient, restored) });
    }
    None
}

/// The AVX2 kernels and the one `Gather` they share, without FMA.
#[cfg(target_arch = "x86_64")]
mod x86_64 {
    use crate::onebit::{class_scale, serial_sums};
    use std::arch::x86_64::*;

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

    /// [`exact_sums`](super::exact_sums)' kernel: the fused step's pass 1
    /// without the fold.
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    pub(super) fn sums_avx2(row: &[f32]) -> Option<(f64, f64)> {
        let mut gather = Gather::new();
        let (blocks, tail) = row.as_chunks::<8>();
        for block in blocks {
            gather.add(load(block), 8);
        }
        if !tail.is_empty() {
            gather.add(load(&padded(tail)), tail.len());
        }
        let (_, lanes, sums) = gather.finish(row.len());
        lanes.then_some(sums)
    }

    /// The fused step's two passes, with AVX2 and without FMA. Pass 1
    /// stores `a = r + g` and gathers the count, the gate and the lane
    /// sums; a row the gate refuses takes the serial chain over the folded
    /// row. Pass 2 writes each level and `a - level`.
    #[target_feature(enable = "avx2")]
    #[inline(never)]
    pub(super) fn step_avx2(residual: &mut [f32], gradient: &[f32], restored: &mut [f32]) -> bool {
        let n = residual.len();
        let mut gather = Gather::new();
        let (blocks, tail) = residual.as_chunks_mut::<8>();
        let (g_blocks, g_tail) = gradient.as_chunks::<8>();
        for (r, g) in blocks.iter_mut().zip(g_blocks) {
            let a = _mm256_add_ps(load(r), load(g));
            store(r, a);
            gather.add(a, 8);
        }
        if !tail.is_empty() {
            let mut r = padded(tail);
            let a = _mm256_add_ps(load(&r), load(&padded(g_tail)));
            store(&mut r, a);
            tail.copy_from_slice(&r[..tail.len()]);
            gather.add(a, tail.len());
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
            let (mut r, mut out) = (padded(tail), [0.0f32; 8]);
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
    #[target_feature(enable = "avx2")]
    #[inline]
    fn emit(a: __m256, pos: __m256, neg: __m256) -> (__m256, __m256) {
        let ge = _mm256_cmp_ps::<_CMP_GE_OQ>(a, _mm256_setzero_ps());
        let level = _mm256_blendv_ps(neg, pos, ge);
        (level, _mm256_sub_ps(a, level))
    }

    /// Pass 1's accumulators: the positive count, the gate's extremes (max
    /// of `|v|`'s bits, which order like `|v|`; min of `bits - 1`, which
    /// sends zeros past every nonzero) and the class sums in `f64` lanes,
    /// value `i` in lane `i mod 8`.
    struct Gather {
        count: __m256i,
        hi: __m256i,
        lo: __m256i,
        pos: [__m256d; 2],
        neg: [__m256d; 2],
    }

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

        /// Takes in one block, whose first `values` (8 but in a row's last
        /// block) are the row's and the rest `+0.0` padding, which moves no
        /// extreme or sum and is not counted. The two terms per value are
        /// the serial chain's: `a` or `+0.0`, and `+0.0` or `-a`.
        #[target_feature(enable = "avx2")]
        #[inline]
        fn add(&mut self, a: __m256, values: usize) {
            let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
            let valid = _mm256_cmpgt_epi32(_mm256_set1_epi32(values as i32), lane);
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
            let (hi, lo) = (
                across!(_mm_max_epu32, self.hi),
                across!(_mm_min_epu32, self.lo),
            );
            let sums = (total(self.pos), total(self.neg));
            (across!(_mm_add_epi32, self.count), admits(hi, lo, n), sums)
        }
    }

    /// Eight `f64` lanes, 0–3 in `s[0]`, added as `((0+4)+(1+5))+((2+6)+(3+7))`.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn total(s: [__m256d; 2]) -> f64 {
        let t = _mm256_add_pd(s[0], s[1]);
        let (low, high) = (_mm256_castpd256_pd128(t), _mm256_extractf128_pd::<1>(t));
        let pairs = _mm_add_pd(_mm_unpacklo_pd(low, high), _mm_unpackhi_pd(low, high));
        _mm_cvtsd_f64(pairs) + _mm_cvtsd_f64(_mm_unpackhi_pd(pairs, pairs))
    }

    /// A row's last, partial block as a whole one, padded with `+0.0`.
    #[inline(always)]
    fn padded(tail: &[f32]) -> [f32; 8] {
        let mut block = [0.0f32; 8];
        block[..tail.len()].copy_from_slice(tail);
        block
    }

    /// Eight values as one register.
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
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The serial chain and the AVX2 lanes (which AVX-512 CPUs also run).
    pub(crate) const LANES: &[Isa] = &[Isa::Portable, Isa::Avx2];

    /// The exactness gate spelled out, the reference for every verdict
    /// of the kernel: every value finite, and the floored exponent fields
    /// of the smallest and largest nonzero `|v|` `<= 29 - bitlen(n)` apart.
    pub(crate) fn gate_admits(row: &[f32]) -> bool {
        let field = |v: &f32| (v.abs().to_bits() >> 23).max(1);
        let nonzero = || row.iter().filter(|v| **v != 0.0);
        let bitlen = usize::BITS - row.len().leading_zeros();
        row.iter().all(|v| v.is_finite())
            && match (nonzero().map(field).min(), nonzero().map(field).max()) {
                (Some(lo), Some(hi)) => hi - lo + bitlen <= 29,
                _ => true,
            }
    }

    #[test]
    fn the_gate_admits_exactly_the_rows_it_proves() {
        // The oracle's verdict on each row; on AVX2 the kernel's must match.
        let ok = |row: &[f32]| {
            let lanes = isa() >= Isa::Avx2 && gate_admits(row);
            assert_eq!(exact_sums(row).is_some(), lanes, "{row:?}");
            gate_admits(row)
        };
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
        // along the chain; in eight lanes (value `i` in lane `i mod 8`)
        // the small terms first meet each other, and the total comes
        // out above 1.
        let mut row = vec![2f32.powi(-53); 16];
        row[0] = 1.0;
        assert!(!gate_admits(&row) && exact_sums(&row).is_none());
        assert_eq!(crate::onebit::serial_sums(&row), (1.0, 0.0));
        let mut lanes = [0.0f64; 8];
        for (i, &v) in row.iter().enumerate() {
            lanes[i % 8] += f64::from(v);
        }
        assert!(lanes.iter().sum::<f64>() > 1.0);
    }
}
