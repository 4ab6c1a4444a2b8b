//! The pluggable row-codec API.
//!
//! Every gradient row that crosses a link is framed by exactly one
//! [`RowCodec`]: the codec turns a (residual-adjusted) row into a
//! [`RowCode`] whose wire size it can predict exactly, and
//! [`CodecState`] carries the per-row error-feedback residuals plus the
//! deterministic RNG stream that stochastic codecs draw from. The
//! paper's one-bit scheme ([`crate::CompressedRow`] under error
//! feedback) is the [`OneBitCodec`] rung of this API; it never draws
//! from the RNG.
//!
//! Three codec families are provided:
//!
//! - **one-bit** ([`OneBitCodec`]): sign bit per value + two mean-
//!   magnitude scales, ≈1 bit/value. The paper's production codec.
//! - **sparse-delta** ([`SparseDeltaCodec`]): transmits only the values
//!   whose magnitude clears a multiple of the row's mean |value|, coded
//!   as varint index gaps with the sign class in the low bit, plus the
//!   same two mean-magnitude scales. Falls back to a dense one-bit row
//!   (at the *exact* one-bit wire size — the mode flag rides a spare
//!   bit of the row framing header) whenever the selection is dense
//!   enough that the gap stream would cost more than the bitmap, so a
//!   sparse-delta row never costs more than one-bit.
//! - **k-bit quantization ladder** ([`QuantCodec`]): QSGD-style
//!   unbiased stochastic rounding at k ∈ {2, 4, 8} bits/value (k = 1 is
//!   one-bit itself), run through error feedback like every other rung.
//!
//! [`TopKCodec`] — magnitude sparsification, the lossy comparator the
//! paper cites as related work (deep gradient compression, Sec. II-D) —
//! also implements [`RowCodec`] so the ablation runs through the same
//! engine path.

use rog_tensor::rng::DetRng;

use std::cell::RefCell;

use crate::lanes::{exact_sums, onebit_step};
use crate::onebit::{class_scale, level, restore_in_place, CompressedRow};

/// Length in bytes of `v` as an LEB128 varint.
const fn varint_len(v: u64) -> u64 {
    if v == 0 {
        1
    } else {
        ((64 - v.leading_zeros()) as u64).div_ceil(7)
    }
}

/// One-bit wire size of a row of `cols` values: two `f32` scales plus
/// one sign bit per value, byte-padded.
const fn onebit_payload(cols: usize) -> u64 {
    8 + cols.div_ceil(8) as u64
}

/// A codec selection, as named on the CLI and in journals.
///
/// This is the *policy-level* choice ([`Copy`]/[`Eq`], cheap to store in
/// configs and replay from journals); [`CodecChoice::build`] resolves it
/// to the concrete [`Codec`] the engines run. `Auto` starts on the
/// one-bit rung and lets the engine's per-link controller switch rungs
/// from the loss/goodput EWMAs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecChoice {
    /// One-bit sign compression (the paper's codec; the default).
    #[default]
    OneBit,
    /// Sparse-delta: varint-coded index gaps of the significant values,
    /// dense fallback past the break-even density.
    Sparse,
    /// k-bit stochastic quantization, `bits` ∈ {2, 4, 8}.
    Quant {
        /// Bits per value on the wire.
        bits: u8,
    },
    /// Top-k magnitude sparsification keeping `keep_milli`/1000 of each
    /// row (the lossy ablation comparator).
    TopK {
        /// Keep fraction in thousandths, in `(0, 1000]`.
        keep_milli: u16,
    },
    /// Per-link automatic selection between the one-bit and sparse
    /// rungs, driven by the transport's loss/goodput EWMAs.
    Auto,
}

impl CodecChoice {
    /// The canonical CLI/journal name of this choice.
    pub const fn name(self) -> &'static str {
        match self {
            Self::OneBit => "onebit",
            Self::Sparse => "sparse",
            Self::Quant { bits } => quant_name(bits),
            Self::TopK { .. } => "topk",
            Self::Auto => "auto",
        }
    }

    /// Whether this choice enables the per-link auto controller.
    pub const fn is_auto(self) -> bool {
        matches!(self, Self::Auto)
    }

    /// Resolves the choice to the concrete codec the engines run.
    /// `Auto` starts on the one-bit rung (the controller switches it
    /// per link as EWMA evidence accumulates).
    pub fn build(self) -> Codec {
        match self {
            Self::OneBit | Self::Auto => Codec::OneBit(OneBitCodec),
            Self::Sparse => Codec::Sparse(SparseDeltaCodec),
            Self::Quant { bits } => Codec::Quant(QuantCodec::new(bits)),
            Self::TopK { keep_milli } => {
                Codec::TopK(TopKCodec::new(f64::from(keep_milli) / 1000.0))
            }
        }
    }
}

impl std::fmt::Display for CodecChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Parses a CLI/journal codec name: `onebit`, `sparse`, `q2`, `q4`,
/// `q8`, `topk`, `auto`.
impl std::str::FromStr for CodecChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "onebit" => Ok(Self::OneBit),
            "sparse" => Ok(Self::Sparse),
            "q2" => Ok(Self::Quant { bits: 2 }),
            "q4" => Ok(Self::Quant { bits: 4 }),
            "q8" => Ok(Self::Quant { bits: 8 }),
            "topk" => Ok(Self::TopK { keep_milli: 100 }),
            "auto" => Ok(Self::Auto),
            _ => Err(format!("unknown codec {s:?}")),
        }
    }
}

const fn quant_name(bits: u8) -> &'static str {
    match bits {
        2 => "q2",
        3 => "q3",
        4 => "q4",
        5 => "q5",
        6 => "q6",
        7 => "q7",
        _ => "q8",
    }
}

/// A codec that frames gradient rows for the wire.
///
/// The contract every implementation upholds:
///
/// - [`RowCodec::encode`] followed by [`RowCode::decompress`] returns a
///   row of the input's width;
/// - [`RowCode::payload_bytes`] of the encoded row equals
///   [`RowCodec::sized_payload_bytes`] of the input, and never exceeds
///   the dense bound [`RowCodec::payload_bytes`];
/// - encoding is deterministic given the input and the RNG stream
///   (codecs that don't randomize must not touch the RNG).
///
/// Error feedback wraps the codec: [`CodecState::restore_into`] runs
/// [`RowCodec::restore_step`], which folds the stored residual into the
/// row before transcoding and keeps the new quantization error
/// afterwards, so `restored + residual == input` holds exactly for
/// every codec — the invariant that keeps each rung "lossless" in the
/// convergence sense.
pub trait RowCodec {
    /// The codec's wire-format name (stable; used in journals).
    fn name(&self) -> &'static str;

    /// Wire size of a row of `cols` values. Exact for fixed-size codecs;
    /// for content-sized codecs ([`RowCodec::is_content_sized`]) this is
    /// the dense upper bound that the fallback path guarantees.
    fn payload_bytes(&self, cols: usize) -> u64;

    /// Wire size of a whole model given its row widths.
    fn model_payload_bytes(&self, row_widths: &[usize]) -> u64 {
        row_widths.iter().map(|&w| self.payload_bytes(w)).sum()
    }

    /// Whether the wire size depends on the row *contents* (and not just
    /// its width). Content-sized codecs must override
    /// [`RowCodec::sized_payload_bytes`].
    fn is_content_sized(&self) -> bool {
        false
    }

    /// Exact wire size of encoding this (residual-adjusted) row.
    fn sized_payload_bytes(&self, adjusted: &[f32]) -> u64 {
        self.payload_bytes(adjusted.len())
    }

    /// Encodes one (residual-adjusted) row. Stochastic codecs draw from
    /// `rng`; deterministic codecs must leave it untouched.
    fn encode(&self, adjusted: &[f32], rng: &mut DetRng) -> RowCode;

    /// Replaces a (residual-adjusted) row, in place, with the values
    /// its receiver restores: `encode` + `decompress` without handing
    /// out the code, same values and same RNG draws.
    fn transcode(&self, row: &mut [f32], rng: &mut DetRng) {
        let restored = self.encode(row, rng).decompress();
        row.copy_from_slice(&restored);
    }

    /// One error-feedback step over a row's stored residual, three rows
    /// of one width: folds `gradient` into `residual`, writes into
    /// `restored` what the receiver reconstructs and keeps the new
    /// quantization error in `residual`. Spelled out as fold, copy,
    /// [`RowCodec::transcode`] and subtract; a codec with a fused kernel
    /// overrides it with the same bits.
    fn restore_step(
        &self,
        residual: &mut [f32],
        gradient: &[f32],
        restored: &mut [f32],
        rng: &mut DetRng,
    ) {
        spelled_out_step(self, residual, gradient, restored, rng);
    }
}

/// [`RowCodec::restore_step`] as fold, copy, transcode and subtract.
fn spelled_out_step<C: RowCodec + ?Sized>(
    codec: &C,
    residual: &mut [f32],
    gradient: &[f32],
    restored: &mut [f32],
    rng: &mut DetRng,
) {
    fold(residual, gradient);
    restored.copy_from_slice(residual);
    codec.transcode(restored, rng);
    for (r, d) in residual.iter_mut().zip(restored.iter()) {
        *r -= d;
    }
}

/// `r ← r + g`, value by value.
fn fold(residual: &mut [f32], gradient: &[f32]) {
    for (r, g) in residual.iter_mut().zip(gradient) {
        *r += g;
    }
}

/// One encoded row, as produced by some [`RowCodec`].
#[derive(Debug, Clone, PartialEq)]
pub enum RowCode {
    /// A dense one-bit row.
    Dense(CompressedRow),
    /// A sparse-delta row (or its dense fallback).
    SparseDelta(SparseDeltaRow),
    /// A k-bit stochastically quantized row.
    Quant(QuantizedRow),
    /// A top-k sparsified row.
    TopK(SparseRow),
}

impl RowCode {
    /// Reconstructs the row values.
    pub fn decompress(&self) -> Vec<f32> {
        match self {
            Self::Dense(c) => c.decompress(),
            Self::SparseDelta(c) => c.decompress(),
            Self::Quant(c) => c.decompress(),
            Self::TopK(c) => c.decompress(),
        }
    }

    /// Bytes this row occupies on the wire.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Self::Dense(c) => c.payload_bytes(),
            Self::SparseDelta(c) => c.payload_bytes(),
            Self::Quant(c) => c.payload_bytes(),
            Self::TopK(c) => c.payload_bytes(),
        }
    }
}

/// The one-bit rung of the ladder: delegates to
/// [`CompressedRow::encode`] unchanged, so runs that select it are
/// byte-identical to the pre-codec-API engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OneBitCodec;

impl RowCodec for OneBitCodec {
    fn name(&self) -> &'static str {
        "onebit"
    }

    fn payload_bytes(&self, cols: usize) -> u64 {
        onebit_payload(cols)
    }

    fn encode(&self, adjusted: &[f32], _rng: &mut DetRng) -> RowCode {
        RowCode::Dense(CompressedRow::encode(adjusted))
    }

    /// Allocation-free: the two passes of the one-bit kernel, no code.
    fn transcode(&self, row: &mut [f32], _rng: &mut DetRng) {
        restore_in_place(row);
    }

    /// The fused two-pass AVX2 kernel where the CPU has AVX2, else the
    /// spelled-out step.
    fn restore_step(
        &self,
        residual: &mut [f32],
        gradient: &[f32],
        restored: &mut [f32],
        rng: &mut DetRng,
    ) {
        if onebit_step(residual, gradient, restored).is_none() {
            spelled_out_step(self, residual, gradient, restored, rng);
        }
    }
}

/// A sparse-delta-encoded row, or its dense fallback.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseDeltaRow {
    /// Dense fallback at the exact one-bit wire size (the mode flag
    /// rides a spare bit of the row framing header, so falling back
    /// costs nothing over plain one-bit).
    Dense(CompressedRow),
    /// Sparse mode: only the selected indices are transmitted, coded as
    /// varint gaps with the sign class in the low bit.
    Sparse {
        /// Original row width.
        cols: usize,
        /// Reconstruction level of selected positive values (≥ 0).
        scale_pos: f32,
        /// Reconstruction magnitude of selected negative values (≥ 0).
        scale_neg: f32,
        /// Selected indices, ascending.
        indices: Vec<u32>,
        /// Sign class per selected index (`true` = positive).
        positive: Vec<bool>,
    },
}

impl SparseDeltaRow {
    /// Dense reconstruction: selected positives decode to `scale_pos`,
    /// selected negatives to `-scale_neg`, everything else to zero.
    pub fn decompress(&self) -> Vec<f32> {
        match self {
            Self::Dense(c) => c.decompress(),
            Self::Sparse {
                cols,
                scale_pos,
                scale_neg,
                indices,
                positive,
            } => {
                let mut out = vec![0.0; *cols];
                for (&i, &pos) in indices.iter().zip(positive) {
                    out[i as usize] = if pos { *scale_pos } else { -scale_neg };
                }
                out
            }
        }
    }

    /// Bytes this row occupies on the wire.
    pub fn payload_bytes(&self) -> u64 {
        match self {
            Self::Dense(c) => c.payload_bytes(),
            Self::Sparse { indices, .. } => sparse_entries_cost(indices),
        }
    }
}

/// What the sparse mode sends of a row, accumulated over its selection
/// in index order: the gap stream's size and the two class sums.
#[derive(Default)]
struct SparseScan {
    /// Selection threshold: `SPARSE_THRESHOLD_FACTOR ×` the mean |value|.
    tau: f64,
    /// One varint per entry carrying `(gap << 1) | sign`. The sign bit
    /// never changes the varint's length (`x` and `x | 1` have the same
    /// bit width for `x = gap << 1`), so this is a function of the
    /// indices alone.
    entry_bytes: u64,
    /// One past the last index seen.
    next: u64,
    pos_sum: f64,
    pos_n: u32,
    neg_sum: f64,
    neg_n: u32,
}

impl SparseScan {
    /// Two passes over `row`: the mean, then the selection.
    /// Deterministic: pure thresholding, no randomization. The mean's
    /// sum is the exact total of the two class sums where their gate
    /// holds, which is the element-order chain's own value.
    fn of(row: &[f32]) -> Self {
        let serial = || row.iter().map(|v| f64::from(v.abs())).sum::<f64>();
        let total = exact_sums(row).map_or_else(serial, |(pos, neg)| pos + neg);
        let mean = total / row.len() as f64;
        let mut scan = Self {
            tau: SPARSE_THRESHOLD_FACTOR * mean,
            ..Self::default()
        };
        for (w, chunk) in row.chunks(64).enumerate() {
            // The selection as a bit word first: a compare per value
            // and no branch; then only the selected are visited.
            let mut word = 0u64;
            for (b, &v) in chunk.iter().enumerate() {
                word |= u64::from(scan.selects(v)) << b;
            }
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                word &= word - 1;
                let v = chunk[b];
                scan.index((w * 64 + b) as u64);
                if v >= 0.0 {
                    scan.pos_sum += f64::from(v);
                    scan.pos_n += 1;
                } else {
                    scan.neg_sum += f64::from(-v);
                    scan.neg_n += 1;
                }
            }
        }
        scan
    }

    /// Whether `v` is transmitted. NaN never clears a threshold and
    /// nothing clears a NaN or infinite one.
    fn selects(&self, v: f32) -> bool {
        f64::from(v.abs()) > self.tau
    }

    fn index(&mut self, i: u64) {
        self.entry_bytes += varint_len(((i - self.next) << 1) | 1);
        self.next = i + 1;
    }

    /// Wire cost of the sparse mode: the two scales plus the entries.
    fn payload_bytes(&self) -> u64 {
        8 + self.entry_bytes
    }

    /// Whether a `cols`-wide row goes out as a dense one-bit row: the
    /// gap stream would cost at least as much as the bitmap.
    fn falls_back(&self, cols: usize) -> bool {
        self.payload_bytes() >= onebit_payload(cols)
    }

    /// `(scale_pos, scale_neg)`: each selected class's mean magnitude.
    fn scales(&self) -> (f32, f32) {
        (
            class_scale(self.pos_sum, self.pos_n),
            class_scale(self.neg_sum, self.neg_n),
        )
    }
}

/// Wire cost of the sparse mode for a given ascending index selection.
fn sparse_entries_cost(indices: &[u32]) -> u64 {
    let mut scan = SparseScan::default();
    indices.iter().for_each(|&i| scan.index(u64::from(i)));
    scan.payload_bytes()
}

/// Sparse-delta codec: transmit only the values whose magnitude clears
/// `SPARSE_THRESHOLD_FACTOR` (2) `×` the row's mean |value|, quantized to
/// the two mean-magnitude scales of the selection; fall back to a dense
/// one-bit row when the gap stream would cost at least as much as the
/// bitmap.
///
/// With error feedback around it the scheme is delay-only, exactly like
/// one-bit: unselected mass stays in the residual and rides the next
/// transmission of the row.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SparseDeltaCodec;

/// Selection threshold of [`SparseDeltaCodec`] as a multiple of the
/// row's mean |value|.
const SPARSE_THRESHOLD_FACTOR: f64 = 2.0;

impl RowCodec for SparseDeltaCodec {
    fn name(&self) -> &'static str {
        "sparse"
    }

    /// The dense fallback bound — the most a sparse-delta row can cost.
    fn payload_bytes(&self, cols: usize) -> u64 {
        onebit_payload(cols)
    }

    fn is_content_sized(&self) -> bool {
        true
    }

    fn sized_payload_bytes(&self, adjusted: &[f32]) -> u64 {
        let sparse = SparseScan::of(adjusted).payload_bytes();
        sparse.min(onebit_payload(adjusted.len()))
    }

    fn encode(&self, adjusted: &[f32], _rng: &mut DetRng) -> RowCode {
        let scan = SparseScan::of(adjusted);
        if scan.falls_back(adjusted.len()) {
            return RowCode::SparseDelta(SparseDeltaRow::Dense(CompressedRow::encode(adjusted)));
        }
        let (scale_pos, scale_neg) = scan.scales();
        let (indices, positive) = adjusted
            .iter()
            .enumerate()
            .filter(|(_, &v)| scan.selects(v))
            .map(|(i, &v)| (i as u32, v >= 0.0))
            .unzip();
        RowCode::SparseDelta(SparseDeltaRow::Sparse {
            cols: adjusted.len(),
            scale_pos,
            scale_neg,
            indices,
            positive,
        })
    }

    /// Allocation-free: the scan, then either the one-bit kernel (dense
    /// fallback) or the two levels and zero written back.
    fn transcode(&self, row: &mut [f32], _rng: &mut DetRng) {
        let scan = SparseScan::of(row);
        if scan.falls_back(row.len()) {
            return restore_in_place(row);
        }
        let (scale_pos, scale_neg) = scan.scales();
        for v in row {
            *v = if scan.selects(*v) {
                level(*v >= 0.0, scale_pos, scale_neg)
            } else {
                0.0
            };
        }
    }
}

/// A stochastically quantized row.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedRow {
    /// Scale (max magnitude of the row).
    pub norm: f32,
    /// Signed level per value, in `[-levels, +levels]`.
    pub levels_signed: Vec<i16>,
    /// Number of positive levels.
    pub levels: u16,
}

impl QuantizedRow {
    /// Reconstructs the row values.
    pub fn decompress(&self) -> Vec<f32> {
        let s = f32::from(self.levels.max(1));
        self.levels_signed
            .iter()
            .map(|&l| f32::from(l) / s * self.norm)
            .collect()
    }

    /// Bytes on the wire: the scale plus `ceil(log2(2s+1))` bits per
    /// value, byte-padded.
    pub fn payload_bytes(&self) -> u64 {
        let symbols = u32::from(self.levels) * 2 + 1;
        let bits_per_value = 32 - (symbols - 1).leading_zeros();
        4 + ((self.levels_signed.len() as u64 * u64::from(bits_per_value)).div_ceil(8))
    }
}

/// The k-bit quantization ladder: QSGD stochastic rounding at
/// `bits` ∈ {2..8} bits per value (k = 1 is [`OneBitCodec`]), with the
/// level count chosen so the symbol alphabet exactly fills `bits` bits.
///
/// Each value is randomly rounded to one of the levels of its row's max
/// magnitude, with probabilities chosen so the expectation equals the
/// input: where one-bit + error feedback delays information, this adds
/// zero-mean noise instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantCodec {
    /// Bits per value on the wire.
    pub bits: u8,
}

impl QuantCodec {
    /// Creates the `bits`-bit rung.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= bits <= 8`.
    pub fn new(bits: u8) -> Self {
        assert!((2..=8).contains(&bits), "bits must be in 2..=8");
        Self { bits }
    }

    /// Positive levels per sign: `2^(bits-1) - 1`, the most that fit the
    /// `2·levels + 1` symbol alphabet in `bits` bits.
    pub fn levels(&self) -> u16 {
        (1u16 << (self.bits - 1)) - 1
    }
}

impl RowCodec for QuantCodec {
    fn name(&self) -> &'static str {
        quant_name(self.bits)
    }

    fn payload_bytes(&self, cols: usize) -> u64 {
        4 + (cols as u64 * u64::from(self.bits)).div_ceil(8)
    }

    /// One RNG draw per value of a non-zero row, in index order.
    fn encode(&self, adjusted: &[f32], rng: &mut DetRng) -> RowCode {
        let levels = self.levels();
        let norm = adjusted.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let s = f32::from(levels);
        let levels_signed = adjusted
            .iter()
            .map(|&v| {
                if norm == 0.0 {
                    return 0i16;
                }
                let scaled = v.abs() / norm * s;
                let lower = scaled.floor();
                let p = f64::from(scaled - lower);
                let level = lower as i16 + i16::from(rng.chance(p));
                if v < 0.0 {
                    -level
                } else {
                    level
                }
            })
            .collect();
        RowCode::Quant(QuantizedRow {
            norm,
            levels_signed,
            levels,
        })
    }
}

/// A sparsified row: the `k` largest-magnitude entries with their indices.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseRow {
    /// Indices of retained values, ascending.
    pub indices: Vec<u32>,
    /// Retained values, aligned with `indices`.
    pub values: Vec<f32>,
    /// Original row width.
    pub cols: usize,
}

impl SparseRow {
    /// Dense reconstruction with zeros elsewhere.
    pub fn decompress(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Wire size: 4-byte index + 4-byte value per retained entry.
    pub fn payload_bytes(&self) -> u64 {
        8 * self.indices.len() as u64
    }
}

/// Top-k sparsifying codec.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKCodec {
    /// Fraction of entries to keep, in `(0, 1]`.
    pub keep_fraction: f64,
}

impl TopKCodec {
    /// Creates a codec keeping `keep_fraction` of each row.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < keep_fraction <= 1`.
    pub fn new(keep_fraction: f64) -> Self {
        assert!(
            keep_fraction > 0.0 && keep_fraction <= 1.0,
            "keep_fraction must be in (0, 1]"
        );
        Self { keep_fraction }
    }

    /// Entries kept of a `cols`-wide row: at least one for a non-empty row.
    fn keep(&self, cols: usize) -> usize {
        ((cols as f64 * self.keep_fraction).ceil() as usize).clamp(cols.min(1), cols)
    }

    /// Sparsifies one row, keeping at least one entry for non-empty rows.
    pub fn compress(&self, row: &[f32]) -> SparseRow {
        let cols = row.len();
        let mut order: Vec<usize> = (0..cols).collect();
        order.sort_by(|&a, &b| {
            row[b]
                .abs()
                .partial_cmp(&row[a].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.truncate(self.keep(cols));
        order.sort_unstable();
        SparseRow {
            indices: order.iter().map(|&i| i as u32).collect(),
            values: order.iter().map(|&i| row[i]).collect(),
            cols,
        }
    }
}

impl RowCodec for TopKCodec {
    fn name(&self) -> &'static str {
        "topk"
    }

    fn payload_bytes(&self, cols: usize) -> u64 {
        8 * self.keep(cols) as u64
    }

    fn encode(&self, adjusted: &[f32], _rng: &mut DetRng) -> RowCode {
        RowCode::TopK(self.compress(adjusted))
    }
}

/// A concrete, engine-ready codec (closed dispatch over the rungs, so
/// worker and server state stay `Copy`-configurable and cloneable).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Codec {
    /// One-bit sign compression.
    OneBit(OneBitCodec),
    /// Sparse-delta with dense fallback.
    Sparse(SparseDeltaCodec),
    /// k-bit stochastic quantization.
    Quant(QuantCodec),
    /// Top-k sparsification (ablation comparator).
    TopK(TopKCodec),
}

impl Default for Codec {
    fn default() -> Self {
        Self::OneBit(OneBitCodec)
    }
}

impl Codec {
    fn inner(&self) -> &dyn RowCodec {
        match self {
            Self::OneBit(c) => c,
            Self::Sparse(c) => c,
            Self::Quant(c) => c,
            Self::TopK(c) => c,
        }
    }
}

impl RowCodec for Codec {
    fn name(&self) -> &'static str {
        self.inner().name()
    }

    fn payload_bytes(&self, cols: usize) -> u64 {
        self.inner().payload_bytes(cols)
    }

    fn is_content_sized(&self) -> bool {
        self.inner().is_content_sized()
    }

    fn sized_payload_bytes(&self, adjusted: &[f32]) -> u64 {
        self.inner().sized_payload_bytes(adjusted)
    }

    fn encode(&self, adjusted: &[f32], rng: &mut DetRng) -> RowCode {
        self.inner().encode(adjusted, rng)
    }

    fn transcode(&self, row: &mut [f32], rng: &mut DetRng) {
        self.inner().transcode(row, rng);
    }

    fn restore_step(
        &self,
        residual: &mut [f32],
        gradient: &[f32],
        restored: &mut [f32],
        rng: &mut DetRng,
    ) {
        self.inner().restore_step(residual, gradient, restored, rng);
    }
}

thread_local! {
    /// The residual-adjusted row [`CodecState::planned_payload_bytes`]
    /// sizes, recycled from call to call.
    static ADJUSTED: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Per-row error-feedback state for a whole model, for any codec, plus
/// the deterministic RNG stream stochastic codecs draw from.
///
/// Each row keeps the quantization residual of its last transmission; the
/// residual is added to the next gradient before compressing, so no
/// information is ever dropped — it is only delayed. This is the error
/// compensation that lets the paper call one-bit compression "lossless".
/// With [`OneBitCodec`] the RNG is never touched.
#[derive(Debug, Clone)]
pub struct CodecState {
    /// Every row's residual, back to back.
    residuals: Vec<f32>,
    /// Row `i` occupies `offsets[i]..offsets[i + 1]` of `residuals`.
    offsets: Vec<usize>,
    rng: DetRng,
}

impl CodecState {
    /// Creates zeroed state for rows of the given widths, with the
    /// stochastic-rounding stream seeded by `seed`.
    pub fn new(row_widths: &[usize], seed: u64) -> Self {
        let mut offsets = Vec::with_capacity(row_widths.len() + 1);
        offsets.push(0);
        for w in row_widths {
            offsets.push(offsets[offsets.len() - 1] + w);
        }
        Self {
            residuals: vec![0.0; offsets[row_widths.len()]],
            offsets,
            rng: DetRng::new(seed),
        }
    }

    /// Number of rows tracked.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Current residual of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range.
    pub fn residual(&self, row: usize) -> &[f32] {
        &self.residuals[self.offsets[row]..self.offsets[row + 1]]
    }

    /// Zeroes every stored residual. Used when a worker cold-resyncs
    /// after a fault: the compensation was accumulated against a model
    /// lineage that no longer exists, so carrying it into the adopted
    /// model would inject stale error instead of correcting it. The RNG
    /// stream is left where it is — resets happen at deterministic
    /// points, so determinism is unaffected either way.
    pub fn reset(&mut self) {
        self.residuals.fill(0.0);
    }

    /// Zeroes every stored residual and restarts the stochastic stream
    /// from `seed`: the state [`CodecState::new`] would build, without
    /// rebuilding it.
    pub fn reseed(&mut self, seed: u64) {
        self.reset();
        self.rng = DetRng::new(seed);
    }

    /// Exact wire size that [`CodecState::compress`] would produce for
    /// this row right now (plan-time sizing; does not mutate state).
    /// Falls through to the width-only size for fixed-size codecs
    /// without touching the residual.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `gradient` has the wrong
    /// width.
    pub fn planned_payload_bytes(&self, codec: &dyn RowCodec, row: usize, gradient: &[f32]) -> u64 {
        if !codec.is_content_sized() {
            return codec.payload_bytes(gradient.len());
        }
        let residual = self.residual(row);
        assert_eq!(
            residual.len(),
            gradient.len(),
            "gradient width mismatch for row {row}"
        );
        ADJUSTED.with_borrow_mut(|adjusted| {
            adjusted.clear();
            adjusted.extend(gradient.iter().zip(residual).map(|(g, r)| g + r));
            codec.sized_payload_bytes(adjusted)
        })
    }

    /// The stored residual of row `row`, checked against the width of
    /// `gradient`, with the stream to encode it with.
    fn slot(&mut self, row: usize, gradient: &[f32]) -> (&mut [f32], &mut DetRng) {
        let residual = &mut self.residuals[self.offsets[row]..self.offsets[row + 1]];
        assert_eq!(
            residual.len(),
            gradient.len(),
            "gradient width mismatch for row {row}"
        );
        (residual, &mut self.rng)
    }

    /// One error-feedback step of row `row`, in place: folds the stored
    /// residual into `gradient`, writes into `restored` the values the
    /// receiver of the `codec`-framed row reconstructs, and keeps the
    /// new quantization error — `restored + residual == gradient +
    /// old_residual` exactly, for every codec. What every commit path
    /// runs ([`RowCodec::restore_step`]); with [`OneBitCodec`] it never
    /// touches the heap.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `gradient` or `restored` has
    /// the wrong width.
    pub fn restore_into(
        &mut self,
        codec: &dyn RowCodec,
        row: usize,
        gradient: &[f32],
        restored: &mut [f32],
    ) {
        let (residual, rng) = self.slot(row, gradient);
        assert_eq!(
            restored.len(),
            residual.len(),
            "restored width mismatch for row {row}"
        );
        codec.restore_step(residual, gradient, restored, rng);
    }

    /// [`CodecState::restore_into`] for a caller that wants the wire
    /// code: returns it instead of the restored values, with the same
    /// effect on the residual and the RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of range or `gradient` has the wrong
    /// width.
    pub fn compress(&mut self, codec: &dyn RowCodec, row: usize, gradient: &[f32]) -> RowCode {
        let (adjusted, rng) = self.slot(row, gradient);
        fold(adjusted, gradient);
        let code = codec.encode(adjusted, rng);
        for (r, d) in adjusted.iter_mut().zip(code.decompress()) {
            *r -= d;
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lanes::tests::on_each_path;
    use proptest::prelude::*;

    fn all_codecs() -> Vec<Codec> {
        vec![
            Codec::OneBit(OneBitCodec),
            Codec::Sparse(SparseDeltaCodec),
            Codec::Quant(QuantCodec::new(2)),
            Codec::Quant(QuantCodec::new(4)),
            Codec::Quant(QuantCodec::new(8)),
            Codec::TopK(TopKCodec::new(0.1)),
        ]
    }

    #[test]
    fn choice_names_round_trip_through_parse() {
        for name in ["onebit", "sparse", "q2", "q4", "q8", "topk", "auto"] {
            let c: CodecChoice = name.parse().expect(name);
            assert_eq!(c.name(), name);
        }
        assert!("q3".parse::<CodecChoice>().is_err());
        assert!("gzip".parse::<CodecChoice>().is_err());
        assert_eq!(CodecChoice::default(), CodecChoice::OneBit);
    }

    #[test]
    fn auto_builds_the_onebit_rung() {
        assert_eq!(CodecChoice::Auto.build(), Codec::OneBit(OneBitCodec));
        assert!(CodecChoice::Auto.is_auto());
        assert!(!CodecChoice::Sparse.is_auto());
    }

    /// Round `round` of the differential sequence: a normal row bent
    /// into the shapes the sign classes care about — `±0.0` entries,
    /// one class empty, subnormals — and, on round 17 only, `special`.
    /// Rounds 20–23 are the sparse rung's corners: all `0.0`, all
    /// `-0.0`, and `ceil(w / 8)` resp. one fewer leading spikes — the
    /// gap stream costing exactly the bitmap (dense fallback) and one
    /// byte less (sparse).
    fn shaped_row(w: usize, round: usize, special: Option<f32>, rng: &mut DetRng) -> Vec<f32> {
        let mut g: Vec<f32> = (0..w).map(|_| rng.normal() as f32).collect();
        match round {
            20 => g.fill(0.0),
            21 => g.fill(-0.0),
            22 | 23 => {
                g.fill(0.0);
                g[..w.div_ceil(8).saturating_sub(round - 22)].fill(3.0);
            }
            _ => match round % 5 {
                1 => g.iter_mut().step_by(3).for_each(|v| *v *= -0.0),
                2 => g.iter_mut().for_each(|v| *v = v.abs()),
                3 => g.iter_mut().for_each(|v| *v = -v.abs()),
                4 => g.iter_mut().for_each(|v| *v *= 1e-42),
                _ => {}
            },
        }
        if let (17, Some(x)) = (round, special) {
            g.iter_mut().step_by(5).for_each(|v| *v = x);
            g.iter_mut().skip(2).step_by(7).for_each(|v| *v = -x);
        }
        g
    }

    /// The sparse rung as first written — an index list, a flag list
    /// and a fresh vector per row: the reference the streaming scan
    /// must match bit for bit.
    fn select(adjusted: &[f32]) -> Vec<u32> {
        if adjusted.is_empty() {
            return Vec::new();
        }
        let mean: f64 =
            adjusted.iter().map(|v| f64::from(v.abs())).sum::<f64>() / adjusted.len() as f64;
        let tau = SPARSE_THRESHOLD_FACTOR * mean;
        let over = |(_, v): &(usize, &f32)| f64::from(v.abs()) > tau;
        let selected = adjusted.iter().enumerate().filter(over);
        selected.map(|(i, _)| i as u32).collect()
    }

    fn encode_with_lists(adjusted: &[f32]) -> RowCode {
        let indices = select(adjusted);
        if sparse_entries_cost(&indices) >= onebit_payload(adjusted.len()) {
            return RowCode::SparseDelta(SparseDeltaRow::Dense(CompressedRow::encode(adjusted)));
        }
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u32, 0.0f64, 0u32);
        let mut positive = Vec::new();
        for &i in &indices {
            let v = adjusted[i as usize];
            positive.push(v >= 0.0);
            if v >= 0.0 {
                pos_sum += f64::from(v);
                pos_n += 1;
            } else {
                neg_sum += f64::from(-v);
                neg_n += 1;
            }
        }
        RowCode::SparseDelta(SparseDeltaRow::Sparse {
            cols: adjusted.len(),
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
            indices,
            positive,
        })
    }

    /// Bit patterns, with every NaN folded to one: the sign and payload
    /// of a computed NaN are unspecified in Rust (debug and release
    /// builds of the per-bit reference itself disagree on the sign).
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter()
            .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
            .collect()
    }

    #[test]
    fn every_rung_steps_like_the_spelled_out_error_feedback() {
        // The byte-identity anchor. Reference: "encode gradient +
        // residual, keep what decoding misses", written out with its
        // own RNG — through the bit-at-a-time, branch-per-value one-bit
        // codec for the one-bit rung, the list-building sparse codec
        // for the sparse rung, `encode` + `decompress` for the others.
        // `restore_into` (what the engines run) and `compress` (what
        // hands out the code) must both reproduce its restored values,
        // residuals, code and RNG position bit for bit, on widths
        // crossing the 8- and 64-value boundaries, over 24 rounds so
        // residuals carry. Each raw row also goes through `transcode`
        // and the sizing on its own, so the shapes reach the codec
        // unblurred by a residual. NaN and ±Inf rows skip the
        // quantizers (they divide by the row maximum). All of it over
        // the portable path and the AVX2 class sums.
        on_each_path(every_rung_steps_on);
    }

    fn every_rung_steps_on(path: &str) {
        use crate::onebit::reference::{decompress_per_bit, encode_per_bit};
        for codec in all_codecs() {
            let onebit = codec == Codec::OneBit(OneBitCodec);
            let sparse = codec == Codec::Sparse(SparseDeltaCodec);
            let specials: &[Option<f32>] = if onebit || sparse {
                &[None, Some(f32::NAN), Some(f32::INFINITY)]
            } else {
                &[None]
            };
            for (&special, w) in specials.iter().flat_map(|s| (0..=200).map(move |w| (s, w))) {
                let what = format!("{path}: {} width {w} special {special:?}", codec.name());
                let mut residual = vec![0.0f32; w];
                let mut ref_rng = DetRng::new(42);
                let mut fused = CodecState::new(&[3, w], 42);
                let mut coded = fused.clone();
                let mut rows = DetRng::new(w as u64);
                for round in 0..24 {
                    let g = shaped_row(w, round, special, &mut rows);
                    let at = format!("{what} round {round}");
                    let mut alone = g.clone();
                    codec.transcode(&mut alone, &mut ref_rng.clone());
                    let code = codec.encode(&g, &mut ref_rng.clone());
                    assert_eq!(bits(&alone), bits(&code.decompress()), "{at}");
                    assert_eq!(codec.sized_payload_bytes(&g), code.payload_bytes(), "{at}");
                    if sparse {
                        let dense = onebit_payload(w);
                        let spelled = sparse_entries_cost(&select(&g)).min(dense);
                        assert_eq!(codec.sized_payload_bytes(&g), spelled, "{at}");
                        if w >= 9 && matches!(round, 22 | 23) {
                            let fell_back = code
                                == RowCode::SparseDelta(SparseDeltaRow::Dense(
                                    CompressedRow::encode(&g),
                                ));
                            assert_eq!(fell_back, round == 22, "{at}");
                        }
                    }
                    let adjusted: Vec<f32> = g.iter().zip(&residual).map(|(g, r)| g + r).collect();
                    let want = if onebit {
                        RowCode::Dense(encode_per_bit(&adjusted))
                    } else if sparse {
                        encode_with_lists(&adjusted)
                    } else {
                        codec.encode(&adjusted, &mut ref_rng)
                    };
                    let want_restored = match &want {
                        RowCode::Dense(c) => decompress_per_bit(c),
                        c => c.decompress(),
                    };
                    for ((r, a), d) in residual.iter_mut().zip(&adjusted).zip(&want_restored) {
                        *r = a - d;
                    }
                    assert_eq!(
                        fused.planned_payload_bytes(&codec, 1, &g),
                        want.payload_bytes(),
                        "{at}"
                    );
                    let mut restored = vec![7.0f32; w];
                    fused.restore_into(&codec, 1, &g, &mut restored);
                    let code = coded.compress(&codec, 1, &g);
                    assert_eq!(bits(&restored), bits(&want_restored), "{at}");
                    assert_eq!(bits(&code.decompress()), bits(&restored), "{at}");
                    if special.is_none() {
                        assert_eq!(code, want, "{at}");
                    }
                    for state in [&fused, &coded] {
                        assert_eq!(bits(state.residual(1)), bits(&residual), "{at}");
                        assert_eq!(
                            state.rng.clone().next_u64(),
                            ref_rng.clone().next_u64(),
                            "{at}: RNG position"
                        );
                        assert!(state.residual(0).iter().all(|&r| r == 0.0), "{at}");
                    }
                }
                // Only the quantization ladder draws.
                let drew = ref_rng.next_u64() != DetRng::new(42).next_u64();
                assert_eq!(drew, matches!(codec, Codec::Quant(_)) && w > 0, "{what}");
            }
        }
    }

    /// The exactness gate as `lanes.rs` proves it: every value finite,
    /// and the floored exponent fields of the smallest and largest
    /// nonzero magnitude at most `29 - bitlen(n)` apart.
    fn gate_admits(row: &[f32]) -> bool {
        let field = |v: &f32| (v.abs().to_bits() >> 23).max(1);
        let nonzero = || row.iter().filter(|v| **v != 0.0);
        let bitlen = usize::BITS - row.len().leading_zeros();
        row.iter().all(|v| v.is_finite())
            && match (nonzero().map(field).min(), nonzero().map(field).max()) {
                (Some(lo), Some(hi)) => hi - lo + bitlen <= 29,
                _ => true,
            }
    }

    /// Step `shape` of a fused-step sequence: `shaped_row`'s 24 rounds
    /// (round 17 with `special`), then values in `[1, 2)` with one
    /// spike `1.5 * 2^(29 - bitlen(w) + k)` — the gate's edge (`k = 0`),
    /// one past it (`k = 1`), far past it (`k` up to 12) — and values
    /// near `2^125` with NaN and ±Inf planted, whose span alone the gate
    /// would admit.
    fn fused_step_row(w: usize, shape: usize, special: Option<f32>, rng: &mut DetRng) -> Vec<f32> {
        let sign = |rng: &mut DetRng| if rng.chance(0.5) { -1.0f32 } else { 1.0 };
        match shape {
            0..24 => shaped_row(w, shape, special, rng),
            24..27 => {
                let mut g: Vec<f32> = (0..w)
                    .map(|_| sign(rng) * (1.0 + rng.uniform() as f32))
                    .collect();
                let k = if shape == 26 {
                    2 + rng.index(11)
                } else {
                    shape - 24
                };
                let bitlen = (usize::BITS - w.leading_zeros()) as usize;
                if w > 0 {
                    g[rng.index(w)] = sign(rng) * 1.5 * 2f32.powi((29 - bitlen + k) as i32);
                }
                g
            }
            _ => {
                let mut g: Vec<f32> = (0..w)
                    .map(|_| rng.normal() as f32 * 2f32.powi(125))
                    .collect();
                for x in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                    if w > 0 && rng.chance(0.5) {
                        g[rng.index(w)] = x;
                    }
                }
                g
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The one-bit step as the commit paths run it — the fused AVX2
        /// kernel where the CPU has it — against the spelled-out fold,
        /// copy, transcode and subtract, over a sequence of steps that
        /// carries the residual forward: `restored` and the residual
        /// bit for bit (NaNs folded) after every step, on widths 0–130
        /// (every partial last block of 1–7 values), and the kernel's
        /// gate verdict the proof's.
        #[test]
        fn prop_fused_onebit_step_keeps_the_spelled_out_bits(
            w in 0usize..=130,
            shapes in proptest::collection::vec(0usize..28, 1..7),
            special in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let special = [None, Some(f32::NAN), Some(f32::INFINITY)][special];
            on_each_path(|path| {
                let mut rows = DetRng::new(seed);
                let mut fused = CodecState::new(&[w], 0);
                let (mut residual, mut want) = (vec![0.0f32; w], vec![0.0f32; w]);
                for (step, &shape) in shapes.iter().enumerate() {
                    let g = fused_step_row(w, shape, special, &mut rows);
                    let at = format!("{path}: width {w} step {step} shape {shape}: {g:?}");
                    let adjusted: Vec<f32> = residual.iter().zip(&g).map(|(r, g)| r + g).collect();
                    let (mut copy, mut out) = (residual.clone(), vec![7.0f32; w]);
                    if let Some(lanes) = onebit_step(&mut copy, &g, &mut out) {
                        assert_eq!(lanes, gate_admits(&adjusted), "{at}: the gate's verdict");
                    }
                    spelled_out_step(&OneBitCodec, &mut residual, &g, &mut want, &mut DetRng::new(0));
                    let mut restored = vec![7.0f32; w];
                    fused.restore_into(&Codec::OneBit(OneBitCodec), 0, &g, &mut restored);
                    assert_eq!(bits(&restored), bits(&want), "{at}: restored");
                    assert_eq!(bits(fused.residual(0)), bits(&residual), "{at}: residual");
                }
            });
        }
    }

    #[test]
    fn onebit_residual_stays_bounded_for_stationary_gradients() {
        // Error feedback must not accumulate unboundedly when gradients
        // are bounded.
        let mut ef = CodecState::new(&[8], 0);
        let mut rng = DetRng::new(9);
        let mut max_res = 0.0f32;
        for _ in 0..500 {
            let g: Vec<f32> = (0..8).map(|_| rng.normal() as f32).collect();
            ef.compress(&OneBitCodec, 0, &g);
            let m = ef.residual(0).iter().fold(0.0f32, |a, &b| a.max(b.abs()));
            max_res = max_res.max(m);
        }
        assert!(max_res < 20.0, "residual exploded: {max_res}");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_width_panics() {
        let mut ef = CodecState::new(&[4], 0);
        ef.compress(&OneBitCodec, 0, &[1.0]);
    }

    #[test]
    fn reset_zeroes_all_residuals() {
        let mut ef = CodecState::new(&[4, 2], 0);
        ef.compress(&OneBitCodec, 0, &[0.3, -0.7, 0.1, 0.9]);
        ef.compress(&OneBitCodec, 1, &[1.5, -0.2]);
        assert!(ef.residual(0).iter().any(|&r| r != 0.0));
        ef.reset();
        for row in 0..ef.rows() {
            assert!(ef.residual(row).iter().all(|&r| r == 0.0));
        }
        // Post-reset compression behaves like a fresh instance.
        let fresh = CodecState::new(&[4, 2], 0).compress(&OneBitCodec, 0, &[0.3, -0.7, 0.1, 0.9]);
        assert_eq!(ef.compress(&OneBitCodec, 0, &[0.3, -0.7, 0.1, 0.9]), fresh);
    }

    #[test]
    fn quant_ladder_payload_matches_bits_per_value() {
        for (bits, want) in [(2u8, 4 + 64u64), (4, 4 + 128), (8, 4 + 256)] {
            let c = QuantCodec::new(bits);
            assert_eq!(c.payload_bytes(256), want, "q{bits}");
        }
        // And the encoded row agrees with the width-only prediction.
        let mut rng = DetRng::new(3);
        let row: Vec<f32> = (0..77).map(|i| (i as f32 * 0.3).cos()).collect();
        for bits in [2u8, 4, 8] {
            let c = QuantCodec::new(bits);
            let code = c.encode(&row, &mut rng);
            assert_eq!(code.payload_bytes(), c.payload_bytes(row.len()), "q{bits}");
        }
    }

    #[test]
    #[should_panic(expected = "bits must be in 2..=8")]
    fn one_bit_quant_rung_is_rejected() {
        let _ = QuantCodec::new(1);
    }

    /// The `bits`-bit rung's encoding of `row`, unwrapped.
    fn quantize(bits: u8, row: &[f32], rng: &mut DetRng) -> QuantizedRow {
        match QuantCodec::new(bits).encode(row, rng) {
            RowCode::Quant(q) => q,
            other => panic!("quant rung produced {other:?}"),
        }
    }

    #[test]
    fn quant_zero_row_stays_zero() {
        let q = quantize(4, &[0.0; 8], &mut DetRng::new(1));
        assert!(q.decompress().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn quant_zero_row_draws_nothing() {
        let mut rng = DetRng::new(1);
        let _ = quantize(4, &[0.0; 8], &mut rng);
        assert_eq!(rng.next_u64(), DetRng::new(1).next_u64());
    }

    #[test]
    fn quant_max_magnitude_is_exact() {
        let d = quantize(4, &[-3.0, 1.0, 3.0], &mut DetRng::new(2)).decompress();
        assert_eq!(d[0], -3.0);
        assert_eq!(d[2], 3.0);
    }

    #[test]
    fn quantization_is_unbiased() {
        // Average many independent quantizations of the same row.
        let row = [0.3f32, -0.7, 0.55, 1.0, -0.11];
        let mut rng = DetRng::new(3);
        let n = 4000;
        let mut acc = vec![0.0f64; row.len()];
        for _ in 0..n {
            for (a, v) in acc.iter_mut().zip(quantize(3, &row, &mut rng).decompress()) {
                *a += f64::from(v);
            }
        }
        for (a, &v) in acc.iter().zip(&row) {
            let mean = a / f64::from(n);
            assert!((mean - f64::from(v)).abs() < 0.03, "biased: {mean} vs {v}");
        }
    }

    #[test]
    fn quant_error_is_bounded_by_one_level() {
        let row: Vec<f32> = (0..64).map(|i| (i as f32 * 0.37).sin()).collect();
        let d = quantize(4, &row, &mut DetRng::new(4)).decompress();
        let norm = row.iter().fold(0.0f32, |a, v| a.max(v.abs()));
        let levels = f32::from(QuantCodec::new(4).levels());
        for (q, v) in d.iter().zip(&row) {
            assert!((q - v).abs() <= norm / levels + 1e-6, "{q} vs {v}");
        }
    }

    #[test]
    fn quantization_is_deterministic_per_seed() {
        let row = [0.5f32, -0.25, 0.8];
        assert_eq!(
            quantize(4, &row, &mut DetRng::new(9)),
            quantize(4, &row, &mut DetRng::new(9))
        );
    }

    #[test]
    fn topk_keeps_largest_magnitudes() {
        let s = TopKCodec::new(0.5).compress(&[0.1, -5.0, 0.2, 3.0]);
        assert_eq!(s.indices, vec![1, 3]);
        assert_eq!(s.values, vec![-5.0, 3.0]);
    }

    #[test]
    fn topk_decompress_zero_fills() {
        let s = TopKCodec::new(0.25).compress(&[1.0, 9.0, 2.0, 3.0]);
        assert_eq!(s.decompress(), vec![0.0, 9.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_keep_all_is_identity() {
        let row = [3.0, -1.0, 2.0];
        assert_eq!(
            TopKCodec::new(1.0).compress(&row).decompress(),
            row.to_vec()
        );
    }

    #[test]
    fn topk_empty_row_is_empty() {
        let s = TopKCodec::new(0.5).compress(&[]);
        assert!(s.decompress().is_empty());
        assert_eq!(s.payload_bytes(), 0);
    }

    #[test]
    #[should_panic(expected = "keep_fraction")]
    fn topk_zero_fraction_panics() {
        let _ = TopKCodec::new(0.0);
    }

    #[test]
    fn sparse_encodes_concentrated_rows_below_the_dense_size() {
        // 256 cols, 8 large spikes: dense = 8 + 32 = 40 bytes; sparse =
        // 8 + 8 one-byte varints = 16.
        let mut row = vec![0.0f32; 256];
        for i in 0..8 {
            row[i * 31] = if i % 2 == 0 { 5.0 } else { -5.0 };
        }
        let c = SparseDeltaCodec;
        let code = c.encode(&row, &mut DetRng::new(1));
        assert!(matches!(
            code,
            RowCode::SparseDelta(SparseDeltaRow::Sparse { .. })
        ));
        assert!(code.payload_bytes() < onebit_payload(256));
        assert_eq!(code.payload_bytes(), c.sized_payload_bytes(&row));
        // Reconstruction: spikes keep their sign class, the rest is 0.
        let d = code.decompress();
        assert_eq!(d.len(), 256);
        for (i, v) in d.iter().enumerate() {
            if row[i] > 0.0 {
                assert!(*v > 0.0, "index {i}");
            } else if row[i] < 0.0 {
                assert!(*v < 0.0, "index {i}");
            } else {
                assert_eq!(*v, 0.0, "index {i}");
            }
        }
    }

    #[test]
    fn sparse_falls_back_to_dense_past_the_break_even_density() {
        // 102 equal spikes out of 256 (just under the 50% selection
        // ceiling of a 2×-mean threshold): all 102 clear the threshold,
        // and 8 + 102 one-byte varints ≥ 40 dense bytes → fallback.
        let row: Vec<f32> = (0..256)
            .map(|i| if i < 102 { 10.0 } else { 0.001 })
            .collect();
        let c = SparseDeltaCodec;
        let code = c.encode(&row, &mut DetRng::new(1));
        assert!(matches!(
            code,
            RowCode::SparseDelta(SparseDeltaRow::Dense(_))
        ));
        assert_eq!(code.payload_bytes(), onebit_payload(256));
        assert_eq!(c.sized_payload_bytes(&row), onebit_payload(256));
        // The fallback decodes exactly like plain one-bit.
        assert_eq!(code.decompress(), CompressedRow::encode(&row).decompress());
    }

    #[test]
    fn sparse_break_even_boundary_is_exact() {
        // cols = 256 → dense = 40 bytes. d spikes at contiguous indices
        // cost 8 + d bytes (gap 0 → one-byte varints): d = 31 → 39 <
        // 40 stays sparse; d = 32 → 40 ≥ 40 falls back dense.
        for (d, sparse) in [(31usize, true), (32, false)] {
            let mut row = vec![0.0f32; 256];
            for slot in row.iter_mut().take(d) {
                *slot = 3.0;
            }
            let c = SparseDeltaCodec;
            let code = c.encode(&row, &mut DetRng::new(1));
            let got_sparse = matches!(code, RowCode::SparseDelta(SparseDeltaRow::Sparse { .. }));
            assert_eq!(got_sparse, sparse, "{d} spikes");
            assert!(code.payload_bytes() <= onebit_payload(256), "{d} spikes");
        }
    }

    #[test]
    fn sparse_zero_row_costs_the_bare_header() {
        let c = SparseDeltaCodec;
        let code = c.encode(&[0.0; 512], &mut DetRng::new(1));
        assert_eq!(code.payload_bytes(), 8);
        assert!(code.decompress().iter().all(|&v| v == 0.0));
        // Empty rows take the dense path (8 bytes either way).
        assert_eq!(c.encode(&[], &mut DetRng::new(1)).payload_bytes(), 8);
    }

    #[test]
    fn sparse_never_costs_more_than_onebit() {
        let mut rng = DetRng::new(11);
        let c = SparseDeltaCodec;
        for cols in [1usize, 7, 8, 64, 129, 500] {
            for _ in 0..8 {
                let row: Vec<f32> = (0..cols).map(|_| rng.normal() as f32).collect();
                let got = c.encode(&row, &mut DetRng::new(0)).payload_bytes();
                assert!(got <= onebit_payload(cols), "cols {cols}: {got}");
            }
        }
    }

    #[test]
    fn varint_gap_cost_handles_wide_gaps() {
        // One spike at the end of a wide row: gap 9999 → (gap<<1)|1
        // needs 15 bits → 3 varint bytes.
        let indices = [9999u32];
        assert_eq!(sparse_entries_cost(&indices), 8 + 3);
        assert_eq!(sparse_entries_cost(&[]), 8);
        assert_eq!(sparse_entries_cost(&[0, 1, 2]), 8 + 3);
    }

    #[test]
    fn topk_payload_matches_width_prediction() {
        let c = TopKCodec::new(0.1);
        let row: Vec<f32> = (0..200).map(|i| i as f32 - 100.0).collect();
        let code = c.encode(&row, &mut DetRng::new(1));
        assert_eq!(code.payload_bytes(), RowCodec::payload_bytes(&c, 200));
        assert_eq!(RowCodec::payload_bytes(&c, 0), 0);
        assert_eq!(RowCodec::name(&c), "topk");
    }

    #[test]
    fn model_payload_sums_rows_for_every_codec() {
        let widths = [8usize, 16, 129];
        for codec in all_codecs() {
            let want: u64 = widths.iter().map(|&w| codec.payload_bytes(w)).sum();
            assert_eq!(codec.model_payload_bytes(&widths), want, "{}", codec.name());
        }
    }

    #[test]
    fn planned_payload_accounts_for_the_residual() {
        // A sparse row whose residual pushes values over the selection
        // threshold must be sized from gradient + residual, not the
        // gradient alone.
        let codec = Codec::Sparse(SparseDeltaCodec);
        let mut state = CodecState::new(&[64], 1);
        let mut spiky = vec![0.0f32; 64];
        spiky[3] = 100.0;
        // Seed a residual by compressing (selection keeps index 3, the
        // rest — tiny values — stays resident).
        let mut g = vec![0.01f32; 64];
        g[3] = 100.0;
        let _ = state.compress(&codec, 0, &g);
        let planned = state.planned_payload_bytes(&codec, 0, &spiky);
        let code = state.compress(&codec, 0, &spiky);
        assert_eq!(planned, code.payload_bytes());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Magnitudes `2^x`, `x` uniform over a window of up to 64
        /// octaves between subnormal and 2^100 (every other one in the
        /// window's top octave when `top`, which drives the sums to the
        /// exactness gate's bound), with one NaN, +Inf or -Inf or a
        /// third of the values `±0.0` planted by `special`: rows on both
        /// sides of the gate. Where the lanes run they must give the
        /// serial chain's `f64` sums, and the one-bit and sparse rungs
        /// must match their spelled-out references on either path.
        #[test]
        fn prop_exact_lanes_keep_the_serial_bits(
            len in 1usize..200,
            window in (-152.0f64..36.0, 0.0f64..64.0),
            top in proptest::bool::ANY,
            special in 0u8..10,
            seed in 0u64..u64::MAX,
        ) {
            use crate::onebit::reference::{decompress_per_bit, encode_per_bit};
            use crate::onebit::serial_sums;
            let ((lo, spread), mut rng) = (window, DetRng::new(seed));
            let mut row: Vec<f32> = (0..len)
                .map(|i| {
                    let x = match top && i % 2 == 0 {
                        true => lo + spread - rng.uniform() * spread.min(1.0),
                        false => lo + spread * rng.uniform(),
                    };
                    2f64.powf(x) as f32 * if rng.chance(0.5) { -1.0 } else { 1.0 }
                })
                .collect();
            let at = rng.index(len);
            match special {
                0..=2 => row[at] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][special as usize],
                3 => row.iter_mut().step_by(3).for_each(|v| *v *= 0.0),
                _ => {}
            }
            on_each_path(|path| {
                let sums = |(p, n): (f64, f64)| (p.to_bits(), n.to_bits());
                if let Some(exact) = crate::lanes::exact_sums(&row) {
                    assert_eq!(sums(exact), sums(serial_sums(&row)), "{path}: {row:?}");
                }
                let want = encode_per_bit(&row);
                let code = CompressedRow::encode(&row);
                let scales = |c: &CompressedRow| bits(&[c.scale_pos, c.scale_neg]);
                assert_eq!(scales(&code), scales(&want), "{path}: {row:?}");
                assert_eq!(code.bits, want.bits, "{path}");
                let mut restored = row.clone();
                OneBitCodec.transcode(&mut restored, &mut DetRng::new(0));
                assert_eq!(bits(&restored), bits(&decompress_per_bit(&want)), "{path}");
                let lists = encode_with_lists(&row);
                let mut sparse = row.clone();
                SparseDeltaCodec.transcode(&mut sparse, &mut DetRng::new(0));
                assert_eq!(bits(&sparse), bits(&lists.decompress()), "{path}: {row:?}");
                let sized = SparseDeltaCodec.sized_payload_bytes(&row);
                assert_eq!(sized, lists.payload_bytes(), "{path}");
            });
        }
    }

    proptest! {
        #[test]
        fn prop_every_codec_round_trips_and_conserves_residual(
            g in proptest::collection::vec(-100.0f32..100.0, 0..200),
            warm in proptest::collection::vec(-10.0f32..10.0, 0..200),
            seed in 0u64..1000,
        ) {
            let n = g.len().min(warm.len());
            let g = &g[..n];
            for codec in all_codecs() {
                let mut state = CodecState::new(&[n], seed);
                // Warm the residual with one round first.
                let _ = state.compress(&codec, 0, &warm[..n]);
                let old_res: Vec<f32> = state.residual(0).to_vec();
                let code = state.compress(&codec, 0, g);
                let restored = code.decompress();
                prop_assert_eq!(restored.len(), n, "{}", codec.name());
                // restored + residual == gradient + old residual: the
                // conservation identity that makes every rung delay-only.
                for i in 0..n {
                    let lhs = restored[i] + state.residual(0)[i];
                    let rhs = g[i] + old_res[i];
                    // 1e-6 relative to the magnitudes actually summed
                    // (the residual is stored as an f32 difference, so
                    // the identity holds to within a few ulps of the
                    // larger of the adjusted and restored values).
                    let tol = 1e-6 * (1.0 + rhs.abs() + restored[i].abs());
                    prop_assert!(
                        (lhs - rhs).abs() <= tol,
                        "{} leaks at {i}: {lhs} vs {rhs}", codec.name()
                    );
                }
            }
        }

        #[test]
        fn prop_quant_reconstruction_within_range(
            row in proptest::collection::vec(-100.0f32..100.0, 0..64),
            bits in 2u8..=8,
            seed in 0u64..1000,
        ) {
            let d = quantize(bits, &row, &mut DetRng::new(seed)).decompress();
            prop_assert_eq!(d.len(), row.len());
            let norm = row.iter().fold(0.0f32, |a, v| a.max(v.abs()));
            for (qv, v) in d.iter().zip(&row) {
                prop_assert!(qv.abs() <= norm + 1e-4);
                if *qv != 0.0 && *v != 0.0 {
                    // Sign is preserved for nonzero reconstructions.
                    prop_assert!(qv.signum() * v.signum() > 0.0);
                }
            }
        }

        #[test]
        fn prop_topk_retained_dominate_dropped(
            row in proptest::collection::vec(-10.0f32..10.0, 1..64),
            frac in 0.05f64..1.0,
        ) {
            let s = TopKCodec::new(frac).compress(&row);
            prop_assert!(!s.indices.is_empty());
            let min_kept = s.values.iter().map(|v| v.abs()).fold(f32::INFINITY, f32::min);
            let kept: std::collections::HashSet<u32> = s.indices.iter().copied().collect();
            for (i, v) in row.iter().enumerate() {
                if !kept.contains(&(i as u32)) {
                    prop_assert!(v.abs() <= min_kept + 1e-6);
                }
            }
        }

        #[test]
        fn prop_encoded_size_matches_sized_prediction(
            row in proptest::collection::vec(-50.0f32..50.0, 0..300),
            seed in 0u64..1000,
        ) {
            for codec in all_codecs() {
                let mut rng = DetRng::new(seed);
                let code = codec.encode(&row, &mut rng);
                prop_assert_eq!(
                    code.payload_bytes(),
                    codec.sized_payload_bytes(&row),
                    "{}", codec.name()
                );
                if !codec.is_content_sized() {
                    prop_assert_eq!(
                        code.payload_bytes(),
                        codec.payload_bytes(row.len()),
                        "{}", codec.name()
                    );
                } else {
                    prop_assert!(
                        code.payload_bytes() <= codec.payload_bytes(row.len()),
                        "{} exceeds its dense bound", codec.name()
                    );
                }
            }
        }
    }
}
