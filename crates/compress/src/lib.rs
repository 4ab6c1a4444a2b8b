//! Gradient compression for wireless distributed training.
//!
//! The paper (Sec. II-D, Sec. V) compresses all communicated gradients
//! with the one-bit algorithm of Sun et al. (LAQ / 1-bit SGD family):
//! each value is reduced to its sign plus two per-row scales, and the
//! quantization error is carried forward into the next round's gradient
//! (*error feedback*), which is what makes the scheme "lossless" in the
//! convergence sense. The resulting wire size is ≈1 bit per parameter —
//! the paper reports ≈3.2 % of the uncompressed volume, i.e. 2.1 MB for
//! the 65 MB ConvMLP model.
//!
//! Compression here is *per row*, because ROG transmits and error-
//! compensates rows independently: an untransmitted row keeps both its
//! accumulated gradient and its quantization residual on the sender.
//!
//! [`TopKCodec`] implements the magnitude-sparsification comparator the
//! paper cites as related work (deep gradient compression) for the
//! ablation benches.
//!
//! # Example
//!
//! ```
//! use rog_compress::{CodecState, OneBitCodec};
//!
//! let mut ef = CodecState::new(&[3], 0);
//! let g = [0.5, -0.25, 0.75];
//! let c = ef.compress(&OneBitCodec, 0, &g);
//! let restored = c.decompress();
//! // One round is lossy ...
//! assert_ne!(restored.as_slice(), g.as_slice());
//! // ... but the error is fully retained as the row's residual:
//! for i in 0..3 {
//!     assert!((restored[i] + ef.residual(0)[i] - g[i]).abs() < 1e-6);
//! }
//! ```
//!
//! The crate's only `unsafe` is in `lanes.rs`: the calls of the AVX2
//! one-bit kernels where [`rog_tensor::simd::isa`] names AVX2 or wider,
//! and one load and one store of eight values. The lanes sum only rows
//! no grouping can round, so they keep the serial chain's bits (the
//! proof is `lanes.rs`'s module doc). `fma` is not enabled.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod lanes;
mod onebit;

pub use codec::{
    Codec, CodecChoice, CodecState, OneBitCodec, QuantCodec, QuantizedRow, RowCode, RowCodec,
    SparseDeltaCodec, SparseDeltaRow, SparseRow, TopKCodec,
};
pub use onebit::CompressedRow;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_size_is_about_one_bit_per_value() {
        // 1024 f32 values = 4096 raw bytes; compressed = 8 + 128 = 136.
        let c = OneBitCodec.payload_bytes(1024);
        assert_eq!(c, 136);
        let rate = c as f64 / 4096.0;
        assert!(rate < 0.04, "compression rate {rate}");
    }

    #[test]
    fn model_size_sums_rows() {
        assert_eq!(
            OneBitCodec.model_payload_bytes(&[8, 16]),
            OneBitCodec.payload_bytes(8) + OneBitCodec.payload_bytes(16)
        );
    }

    #[test]
    fn paper_scale_compression_rate() {
        // ConvMLP-like: 16.95M params in 33307 rows (~509 cols/row mean).
        // The paper reports 65 MB -> 2.1 MB (3.2%). One-bit plus scales on
        // rows of ~509 columns gives ~3.3%.
        let widths = vec![509usize; 33_307];
        let raw: u64 = widths.iter().map(|&c| 4 * c as u64).sum();
        let comp = OneBitCodec.model_payload_bytes(&widths);
        let rate = comp as f64 / raw as f64;
        assert!((0.028..0.045).contains(&rate), "rate {rate}");
    }
}
