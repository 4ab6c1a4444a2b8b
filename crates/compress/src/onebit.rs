//! One-bit sign compression with per-row error feedback.

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
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u32, 0.0f64, 0u32);
        let mut pack = |chunk: &[f32]| -> u64 {
            let mut word = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                if v >= 0.0 {
                    word |= 1 << b;
                    pos_sum += f64::from(v);
                    pos_n += 1;
                } else {
                    neg_sum += f64::from(-v);
                    neg_n += 1;
                }
            }
            word
        };
        let mut chunks = row.chunks_exact(64);
        let mut byte = 0usize;
        for chunk in &mut chunks {
            let word = pack(chunk);
            bits[byte..byte + 8].copy_from_slice(&word.to_le_bytes());
            byte += 8;
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let word = pack(tail);
            let nb = tail.len().div_ceil(8);
            bits[byte..byte + nb].copy_from_slice(&word.to_le_bytes()[..nb]);
        }
        let scale_pos = if pos_n > 0 {
            (pos_sum / pos_n as f64) as f32
        } else {
            0.0
        };
        let scale_neg = if neg_n > 0 {
            (neg_sum / neg_n as f64) as f32
        } else {
            0.0
        };
        Self {
            scale_pos,
            scale_neg,
            bits,
            cols,
        }
    }

    /// Reconstructs the row values (word-at-a-time unpack).
    pub fn decompress(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.cols);
        let mut remaining = self.cols;
        let unpack = |word: u64, take: usize, out: &mut Vec<f32>| {
            for b in 0..take {
                out.push(if word >> b & 1 == 1 {
                    self.scale_pos
                } else {
                    -self.scale_neg
                });
            }
        };
        let mut chunks = self.bits.chunks_exact(8);
        for ch in &mut chunks {
            let word = u64::from_le_bytes(ch.try_into().expect("8-byte chunk"));
            let take = remaining.min(64);
            unpack(word, take, &mut out);
            remaining -= take;
        }
        let rem = chunks.remainder();
        if remaining > 0 {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            unpack(u64::from_le_bytes(buf), remaining, &mut out);
        }
        out
    }

    /// Bytes this row occupies on the wire (scales + packed bits).
    pub fn payload_bytes(&self) -> u64 {
        8 + self.cols.div_ceil(8) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rog_tensor::rng::DetRng;

    /// The original bit-at-a-time encoder, kept as the reference the
    /// u64 word-packed implementation must match exactly.
    fn encode_per_bit(row: &[f32]) -> CompressedRow {
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

    /// The original bit-at-a-time decoder (reference).
    fn decompress_per_bit(c: &CompressedRow) -> Vec<f32> {
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

    #[test]
    fn word_packed_codec_matches_reference_across_boundaries() {
        // Lengths straddling the byte and word boundaries.
        let mut rng = DetRng::new(17);
        for cols in [0usize, 1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 200] {
            let row: Vec<f32> = (0..cols).map(|_| rng.normal() as f32).collect();
            let fast = CompressedRow::encode(&row);
            let reference = encode_per_bit(&row);
            assert_eq!(fast, reference, "encode diverges at cols={cols}");
            assert_eq!(
                fast.decompress(),
                decompress_per_bit(&reference),
                "decode diverges at cols={cols}"
            );
        }
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
            let fast = CompressedRow::encode(&row);
            let reference = encode_per_bit(&row);
            prop_assert_eq!(&fast, &reference);
            prop_assert_eq!(fast.decompress(), decompress_per_bit(&reference));
        }
    }
}
