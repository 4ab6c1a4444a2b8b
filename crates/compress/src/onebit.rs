//! One-bit sign compression with per-row error feedback.

use crate::lanes::exact_sums;

/// A one-bit-compressed row: one sign bit per value plus two scales.
///
/// Values flagged positive decompress to `scale_pos`, the rest to
/// `-scale_neg`; the scales are the mean magnitudes of each sign class,
/// which minimizes the L2 reconstruction error among one-bit codes with
/// two levels.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressedRow {
    /// Reconstruction level of positive values (≥ 0).
    pub scale_pos: f32,
    /// Reconstruction magnitude of negative values (≥ 0).
    pub scale_neg: f32,
    /// Packed sign bits, LSB-first within each byte.
    pub bits: Vec<u8>,
    /// Number of values in the row.
    pub cols: usize,
}

/// Pass A of the one sign-and-scale kernel, the one place both
/// [`restore_in_place`] and [`CompressedRow::encode`] take their scales
/// from: `(scale_pos, scale_neg)` of `row`, `pos_n` of whose values are
/// in the positive class.
fn scales(row: &[f32], pos_n: u32) -> (f32, f32) {
    let (pos_sum, neg_sum) = exact_sums(row).unwrap_or_else(|| serial_sums(row));
    (
        class_scale(pos_sum, pos_n),
        class_scale(neg_sum, row.len() as u32 - pos_n),
    )
}

/// The sign word of `chunk` (at most 64 values): bit `b` set when value
/// `b` is in the positive class, `v >= 0.0`, so `-0.0` decodes to
/// `scale_pos` and NaN to `-scale_neg`.
#[inline(always)]
fn sign_word(chunk: &[f32]) -> u64 {
    let mut word = 0u64;
    for (b, &v) in chunk.iter().enumerate() {
        word |= u64::from(v >= 0.0) << b;
    }
    word
}

/// Each sign class's magnitude sum as one serial `f64` chain in row
/// order: what every row that fails [`exact_sums`]'s gate, and every
/// row on a CPU without AVX2, runs.
///
/// Each value adds its magnitude to its own class's sum and `+0.0` to
/// the other's, so the add chains carry no data-dependent branch. The
/// result is bit-identical to summing each class on its own: a sum that
/// starts at `+0.0` and only ever takes non-negative terms (or NaN) can
/// never be `-0.0`, and `x + 0.0 == x` exactly for every other `x`.
pub(crate) fn serial_sums(row: &[f32]) -> (f64, f64) {
    let (mut pos_sum, mut neg_sum) = (0.0f64, 0.0f64);
    for chunk in row.chunks(64) {
        // The two terms of every value are staged first: that loop has
        // no carried dependency, so it compiles to vector selects,
        // where the same selects inside the add chain compile to a
        // branch taken on about half of all gradient values.
        let (mut pos, mut neg) = ([0.0f32; 64], [0.0f32; 64]);
        for ((p, n), &v) in pos.iter_mut().zip(&mut neg).zip(chunk) {
            *p = if v >= 0.0 { v } else { 0.0 };
            *n = if v >= 0.0 { 0.0 } else { -v };
        }
        for (p, n) in pos.iter().zip(&neg).take(chunk.len()) {
            pos_sum += f64::from(*p);
            neg_sum += f64::from(*n);
        }
    }
    (pos_sum, neg_sum)
}

/// A sign class's reconstruction scale: the mean of its `n` magnitudes,
/// 0 for an empty class.
pub(crate) fn class_scale(sum: f64, n: u32) -> f32 {
    if n > 0 {
        (sum / f64::from(n)) as f32
    } else {
        0.0
    }
}

/// Pass B of the kernel: what a value of either sign class decodes to.
#[inline(always)]
pub(crate) fn level(positive: bool, scale_pos: f32, scale_neg: f32) -> f32 {
    if positive {
        scale_pos
    } else {
        -scale_neg
    }
}

/// Replaces `row`, in place, with what its one-bit code decodes to —
/// `CompressedRow::encode(row).decompress()` without the code: pass A
/// over the values, pass B writing the two levels back.
pub(crate) fn restore_in_place(row: &mut [f32]) {
    let pos_n = row.iter().filter(|&&v| v >= 0.0).count();
    let (scale_pos, scale_neg) = scales(row, pos_n as u32);
    for v in row {
        *v = level(*v >= 0.0, scale_pos, scale_neg);
    }
}

impl CompressedRow {
    /// Compresses a row without error feedback (pure function).
    ///
    /// Signs are packed a 64-value word at a time: each block of 64
    /// values builds one `u64` in a register, which is then spilled as 8
    /// little-endian bytes — bit `i` of the word lands in byte `i / 8`,
    /// bit `i % 8`, exactly the LSB-first layout the per-bit encoder
    /// produced, so the wire format is unchanged.
    pub fn encode(row: &[f32]) -> Self {
        let cols = row.len();
        let mut bits = vec![0u8; cols.div_ceil(8)];
        let mut pos_n = 0;
        for (chunk, out) in row.chunks(64).zip(bits.chunks_mut(8)) {
            let word = sign_word(chunk);
            pos_n += word.count_ones();
            out.copy_from_slice(&word.to_le_bytes()[..out.len()]);
        }
        let (scale_pos, scale_neg) = scales(row, pos_n);
        Self {
            scale_pos,
            scale_neg,
            bits,
            cols,
        }
    }

    /// Reconstructs the row values (word-at-a-time unpack).
    pub fn decompress(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for (chunk, bytes) in out.chunks_mut(64).zip(self.bits.chunks(8)) {
            let mut word = [0u8; 8];
            word[..bytes.len()].copy_from_slice(bytes);
            let word = u64::from_le_bytes(word);
            for (b, v) in chunk.iter_mut().enumerate() {
                *v = level(word >> b & 1 == 1, self.scale_pos, self.scale_neg);
            }
        }
        out
    }

    /// Bytes this row occupies on the wire (scales + packed bits).
    pub fn payload_bytes(&self) -> u64 {
        8 + self.cols.div_ceil(8) as u64
    }
}

/// The original bit-at-a-time, branch-per-value codec: the reference
/// the kernel above must match bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    use super::CompressedRow;

    pub(crate) fn encode_per_bit(row: &[f32]) -> CompressedRow {
        let cols = row.len();
        let mut bits = vec![0u8; cols.div_ceil(8)];
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u32, 0.0f64, 0u32);
        for (i, &v) in row.iter().enumerate() {
            if v >= 0.0 {
                bits[i / 8] |= 1 << (i % 8);
                pos_sum += f64::from(v);
                pos_n += 1;
            } else {
                neg_sum += f64::from(-v);
                neg_n += 1;
            }
        }
        CompressedRow {
            scale_pos: if pos_n > 0 {
                (pos_sum / f64::from(pos_n)) as f32
            } else {
                0.0
            },
            scale_neg: if neg_n > 0 {
                (neg_sum / f64::from(neg_n)) as f32
            } else {
                0.0
            },
            bits,
            cols,
        }
    }

    pub(crate) fn decompress_per_bit(c: &CompressedRow) -> Vec<f32> {
        (0..c.cols)
            .map(|i| {
                if c.bits[i / 8] >> (i % 8) & 1 == 1 {
                    c.scale_pos
                } else {
                    -c.scale_neg
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::reference::{decompress_per_bit, encode_per_bit};
    use super::*;
    use crate::lanes::tests::LANES;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    #[test]
    fn word_packed_codec_matches_reference_across_boundaries() {
        // Lengths straddling the byte and word boundaries, and the
        // restore kernel beside the code.
        rog_tensor::simd::testhooks::on_each_isa("one-bit codec", LANES, |isa| {
            let mut rng = DetRng::new(17);
            for cols in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200] {
                let row: Vec<f32> = (0..cols).map(|_| rng.normal() as f32).collect();
                let fast = CompressedRow::encode(&row);
                let reference = encode_per_bit(&row);
                assert_eq!(fast, reference, "{isa:?}: encode diverges at cols={cols}");
                let want = decompress_per_bit(&reference);
                assert_eq!(fast.decompress(), want, "{isa:?}: decode at cols={cols}");
                let mut restored = row.clone();
                restore_in_place(&mut restored);
                assert_eq!(restored, want, "{isa:?}: restore at cols={cols}");
            }
        });
    }

    #[test]
    fn encode_decode_preserves_signs() {
        let row = [1.0, -2.0, 3.0, -4.0];
        let d = CompressedRow::encode(&row).decompress();
        for (orig, dec) in row.iter().zip(&d) {
            assert_eq!(orig.signum(), dec.signum());
        }
    }

    #[test]
    fn scales_are_mean_magnitudes() {
        let c = CompressedRow::encode(&[1.0, 3.0, -2.0, -6.0]);
        assert!((c.scale_pos - 2.0).abs() < 1e-6);
        assert!((c.scale_neg - 4.0).abs() < 1e-6);
    }

    #[test]
    fn all_positive_row_has_zero_neg_scale() {
        let c = CompressedRow::encode(&[1.0, 2.0]);
        assert_eq!(c.scale_neg, 0.0);
        assert_eq!(c.decompress(), vec![1.5, 1.5]);
    }

    #[test]
    fn empty_row_round_trips() {
        let c = CompressedRow::encode(&[]);
        assert!(c.decompress().is_empty());
        assert_eq!(c.payload_bytes(), 8);
    }

    proptest! {
        #[test]
        fn prop_bits_length_matches_cols(cols in 0usize..200) {
            let row = vec![1.0f32; cols];
            let c = CompressedRow::encode(&row);
            prop_assert_eq!(c.bits.len(), cols.div_ceil(8));
            prop_assert_eq!(c.decompress().len(), cols);
        }

        #[test]
        fn prop_word_packed_round_trips_like_reference(
            row in proptest::collection::vec(-50.0f32..50.0, 0..200),
        ) {
            rog_tensor::simd::testhooks::on_each_isa("one-bit codec", LANES, |isa| {
                let fast = CompressedRow::encode(&row);
                let reference = encode_per_bit(&row);
                assert_eq!(&fast, &reference, "{isa:?}");
                assert_eq!(fast.decompress(), decompress_per_bit(&reference), "{isa:?}");
            });
        }
    }
}
