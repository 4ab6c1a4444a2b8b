//! The one-bit kernel's class sums in eight `f64` lanes, where that
//! provably gives the serial chain's bits, in an AVX2 instantiation.
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
    if hi >= f32::INFINITY.to_bits() {
        return false;
    }
    if hi == 0 {
        return true;
    }
    let field = |a: u32| (a >> 23).max(1);
    let span = field(hi) - field(lo + 1);
    span + (usize::BITS - row.len().leading_zeros()) <= 29
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
