//! Dependency-free gzip (RFC 1951/1952) for golden journals.
//!
//! The encoder emits a single DEFLATE block with the *fixed* Huffman
//! tables and a greedy LZ77 matcher (32 KiB window, hash chains) —
//! plenty for highly repetitive JSONL journals, and fully
//! deterministic: the same input always yields the same bytes (the
//! gzip MTIME field is pinned to zero). The decoder handles stored and
//! fixed-Huffman blocks, which covers everything the encoder produces.

/// One step of the IEEE CRC-32 per byte value, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
};

/// IEEE CRC-32 (reflected polynomial `0xEDB88320`), as used by gzip
/// and by the wire frames of `rog-net`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = CRC_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------- encode

const WINDOW: usize = 32 * 1024;
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 258;
const MAX_CHAIN: usize = 64;
const HASH_BITS: u32 = 15;
/// "No position" in the hash heads and chain links.
const NIL: u32 = u32::MAX;

/// Length-code bases for DEFLATE codes 257..=285.
const LEN_BASE: [u32; 29] = [
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131,
    163, 195, 227, 258,
];
const LEN_EXTRA: [u32; 29] = [
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
];

/// Distance-code bases for DEFLATE codes 0..=29.
const DIST_BASE: [u32; 30] = [
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537,
    2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577,
];
const DIST_EXTRA: [u32; 30] = [
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13,
    13,
];

/// Bits ready for the writer: the value, LSB first, and its width.
type Sym = (u32, u32);

/// Fixed-table code of a literal/length symbol, bit-reversed: Huffman
/// codes go out MSB first, everything else in DEFLATE LSB first.
const fn fixed_lit_sym(sym: u32) -> Sym {
    let (code, n) = match sym {
        0..=143 => (0x30 + sym, 8),
        144..=255 => (0x190 + (sym - 144), 9),
        256..=279 => (sym - 256, 7),
        _ => (0xC0 + (sym - 280), 8),
    };
    (code.reverse_bits() >> (32 - n), n)
}

/// Length code and extra bits of every match length, indexed by
/// `len - MIN_MATCH`.
const LEN_SYM: [Sym; MAX_MATCH - MIN_MATCH + 1] = {
    let mut t = [(0, 0); MAX_MATCH - MIN_MATCH + 1];
    let mut lc = 0;
    let mut i = 0;
    while i < t.len() {
        let len = (i + MIN_MATCH) as u32;
        while lc + 1 < LEN_BASE.len() && LEN_BASE[lc + 1] <= len {
            lc += 1;
        }
        let (code, n) = fixed_lit_sym(257 + lc as u32);
        t[i] = (code | (len - LEN_BASE[lc]) << n, n + LEN_EXTRA[lc]);
        i += 1;
    }
    t
};

/// Distance code (5 bits, bit-reversed) and extra bits of a distance.
/// Past the first two, each power of two of `dist - 1` spans two codes,
/// told apart by the bit below its top one.
fn dist_sym(dist: usize) -> Sym {
    let d = dist as u32 - 1;
    let dc = if d < 2 {
        d
    } else {
        let top = d.ilog2();
        2 * top + (d >> (top - 1) & 1)
    };
    let extra = dist as u32 - DIST_BASE[dc as usize];
    (
        dc.reverse_bits() >> 27 | extra << 5,
        5 + DIST_EXTRA[dc as usize],
    )
}

/// Appends bits, LSB first, to the tail of a byte vector.
struct BitWriter {
    out: Vec<u8>,
    bitbuf: u64,
    /// Bits pending in `bitbuf`; below 32 between calls.
    nbits: u32,
}

impl BitWriter {
    /// Writes the low `n <= 32` bits of `v`, which has no bit above them.
    fn bits(&mut self, (v, n): Sym) {
        self.bitbuf |= u64::from(v) << self.nbits;
        self.nbits += n;
        if self.nbits >= 32 {
            self.out
                .extend_from_slice(&(self.bitbuf as u32).to_le_bytes());
            self.bitbuf >>= 32;
            self.nbits -= 32;
        }
    }

    fn finish(mut self) -> Vec<u8> {
        let pending = self.nbits.div_ceil(8) as usize;
        self.out
            .extend_from_slice(&self.bitbuf.to_le_bytes()[..pending]);
        self.out
    }
}

fn hash3(b: &[u8]) -> usize {
    ((usize::from(b[0]) << 10) ^ (usize::from(b[1]) << 5) ^ usize::from(b[2]))
        & ((1 << HASH_BITS) - 1)
}

/// Length of the common prefix of two equally long slices, eight bytes
/// per comparison.
fn match_len(a: &[u8], b: &[u8]) -> usize {
    let mut l = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let x = u64::from_le_bytes(x.try_into().expect("chunk of 8"));
        let y = u64::from_le_bytes(y.try_into().expect("chunk of 8"));
        if x != y {
            return l + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        l += 8;
    }
    l + a[l..]
        .iter()
        .zip(&b[l..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Appends to `out` one final DEFLATE block over `data`: fixed Huffman
/// tables, greedy parse, the first longest match among the 64 most
/// recent positions with the same three-byte hash.
///
/// Positions are kept as `u32` (a journal past 4 GiB would alias; every
/// candidate is checked against the real bytes, so the stream stays
/// valid) and the chain links in a ring of `WINDOW` slots: a chain is
/// left at the first link more than `WINDOW` back, and slot
/// `p % WINDOW` is next written by position `p + WINDOW`, which enters
/// the chains only after the search at it — so every link the search
/// follows still holds what position `p` wrote.
fn deflate_fixed(data: &[u8], out: Vec<u8>) -> Vec<u8> {
    let mut w = BitWriter {
        out,
        bitbuf: 0,
        nbits: 0,
    };
    w.bits((1, 1)); // BFINAL
    w.bits((1, 2)); // BTYPE = 01: fixed Huffman

    let mut head = vec![NIL; 1 << HASH_BITS];
    let mut prev = vec![NIL; WINDOW];
    // Positions with three bytes to hash; the last two are never linked.
    let hashable = data.len().saturating_sub(MIN_MATCH - 1);

    let mut i = 0usize;
    while i < data.len() {
        // Greedy best match at i over the hash chain.
        let mut best_len = 0usize;
        let mut best_dist = 0usize;
        if i < hashable {
            let limit = (data.len() - i).min(MAX_MATCH);
            let mut cand = head[hash3(&data[i..])];
            let mut chain = 0usize;
            while cand != NIL && chain < MAX_CHAIN {
                let dist = (i as u32).wrapping_sub(cand) as usize;
                if dist.wrapping_sub(1) >= WINDOW {
                    break;
                }
                let at = i - dist;
                // Only a longer match can win, and it agrees at `best_len`.
                if data[at + best_len] == data[i + best_len] {
                    let l = match_len(&data[at..at + limit], &data[i..i + limit]);
                    if l > best_len {
                        best_len = l;
                        best_dist = dist;
                        if l == limit {
                            break;
                        }
                    }
                }
                cand = prev[cand as usize % WINDOW];
                chain += 1;
            }
        }
        let step = if best_len >= MIN_MATCH {
            let (len_bits, n) = LEN_SYM[best_len - MIN_MATCH];
            let (dist_bits, m) = dist_sym(best_dist);
            w.bits((len_bits | dist_bits << n, n + m));
            best_len
        } else {
            w.bits(fixed_lit_sym(u32::from(data[i])));
            1
        };
        for k in i..(i + step).min(hashable) {
            let h = hash3(&data[k..]);
            prev[k % WINDOW] = head[h];
            head[h] = k as u32;
        }
        i += step;
    }
    w.bits(fixed_lit_sym(256));
    w.finish()
}

/// Compresses `data` into a deterministic gzip member (MTIME = 0).
pub fn gzip_compress(data: &[u8]) -> Vec<u8> {
    // Journals shrink 2.7- to 5-fold; anything denser grows the vector.
    let mut out = Vec::with_capacity(data.len() / 2 + 32);
    out.extend_from_slice(&[
        0x1F, 0x8B, // magic
        0x08, // CM = deflate
        0x00, // FLG
        0x00, 0x00, 0x00, 0x00, // MTIME = 0 for determinism
        0x00, // XFL
        0xFF, // OS = unknown
    ]);
    let mut out = deflate_fixed(data, out);
    out.extend_from_slice(&crc32(data).to_le_bytes());
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    out
}

// ---------------------------------------------------------------- decode

struct BitReader<'a> {
    b: &'a [u8],
    i: usize,
    bitbuf: u32,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    fn new(b: &'a [u8]) -> Self {
        Self {
            b,
            i: 0,
            bitbuf: 0,
            nbits: 0,
        }
    }

    fn bits(&mut self, n: u32) -> Result<u32, String> {
        while self.nbits < n {
            let byte = *self.b.get(self.i).ok_or("unexpected end of deflate data")?;
            self.i += 1;
            self.bitbuf |= u32::from(byte) << self.nbits;
            self.nbits += 8;
        }
        let v = self.bitbuf & ((1u32 << n) - 1);
        self.bitbuf >>= n;
        self.nbits -= n;
        Ok(v)
    }

    /// Reads one bit and appends it MSB-first to a growing code.
    fn code_bit(&mut self, code: u32) -> Result<u32, String> {
        Ok((code << 1) | self.bits(1)?)
    }

    fn align_byte(&mut self) {
        self.bitbuf = 0;
        self.nbits = 0;
    }

    /// Decodes a fixed-table literal/length symbol.
    fn fixed_lit(&mut self) -> Result<u32, String> {
        let mut code = 0u32;
        for _ in 0..7 {
            code = self.code_bit(code)?;
        }
        if code <= 0x17 {
            return Ok(256 + code);
        }
        code = self.code_bit(code)?; // 8 bits
        if (0x30..=0xBF).contains(&code) {
            return Ok(code - 0x30);
        }
        if (0xC0..=0xC7).contains(&code) {
            return Ok(280 + (code - 0xC0));
        }
        code = self.code_bit(code)?; // 9 bits
        if (0x190..=0x1FF).contains(&code) {
            return Ok(144 + (code - 0x190));
        }
        Err(format!("invalid fixed literal code {code:#x}"))
    }
}

fn inflate(data: &[u8]) -> Result<Vec<u8>, String> {
    let mut r = BitReader::new(data);
    let mut out = Vec::new();
    loop {
        let bfinal = r.bits(1)?;
        let btype = r.bits(2)?;
        match btype {
            0 => {
                r.align_byte();
                if r.i + 4 > r.b.len() {
                    return Err("truncated stored block header".into());
                }
                let len = usize::from(r.b[r.i]) | (usize::from(r.b[r.i + 1]) << 8);
                let nlen = usize::from(r.b[r.i + 2]) | (usize::from(r.b[r.i + 3]) << 8);
                if len != !nlen & 0xFFFF {
                    return Err("stored block LEN/NLEN mismatch".into());
                }
                r.i += 4;
                if r.i + len > r.b.len() {
                    return Err("truncated stored block".into());
                }
                out.extend_from_slice(&r.b[r.i..r.i + len]);
                r.i += len;
            }
            1 => loop {
                let sym = r.fixed_lit()?;
                if sym == 256 {
                    break;
                }
                if sym < 256 {
                    out.push(sym as u8);
                    continue;
                }
                let lc = (sym - 257) as usize;
                if lc >= LEN_BASE.len() {
                    return Err(format!("invalid length code {sym}"));
                }
                let len = (LEN_BASE[lc] + r.bits(LEN_EXTRA[lc])?) as usize;
                let mut dcode = 0u32;
                for _ in 0..5 {
                    dcode = r.code_bit(dcode)?;
                }
                let dc = dcode as usize;
                if dc >= DIST_BASE.len() {
                    return Err(format!("invalid distance code {dc}"));
                }
                let dist = (DIST_BASE[dc] + r.bits(DIST_EXTRA[dc])?) as usize;
                if dist == 0 || dist > out.len() {
                    return Err("distance beyond output".into());
                }
                let start = out.len() - dist;
                for k in 0..len {
                    let byte = out[start + k];
                    out.push(byte);
                }
            },
            2 => return Err("dynamic Huffman blocks unsupported".into()),
            _ => return Err("reserved block type".into()),
        }
        if bfinal == 1 {
            return Ok(out);
        }
    }
}

/// Decompresses one gzip member produced by [`gzip_compress`] (or any
/// gzip whose deflate stream uses stored / fixed-Huffman blocks).
pub fn gzip_decompress(data: &[u8]) -> Result<Vec<u8>, String> {
    if data.len() < 18 {
        return Err("gzip data too short".into());
    }
    if data[0] != 0x1F || data[1] != 0x8B {
        return Err("bad gzip magic".into());
    }
    if data[2] != 0x08 {
        return Err(format!("unsupported compression method {}", data[2]));
    }
    let flg = data[3];
    let mut i = 10usize;
    if flg & 0x04 != 0 {
        // FEXTRA
        if i + 2 > data.len() {
            return Err("truncated FEXTRA".into());
        }
        let xlen = usize::from(data[i]) | (usize::from(data[i + 1]) << 8);
        i += 2 + xlen;
    }
    for flag in [0x08u8, 0x10] {
        // FNAME, FCOMMENT: zero-terminated strings.
        if flg & flag != 0 {
            while *data.get(i).ok_or("truncated header string")? != 0 {
                i += 1;
            }
            i += 1;
        }
    }
    if flg & 0x02 != 0 {
        i += 2; // FHCRC
    }
    if i + 8 > data.len() {
        return Err("gzip body too short".into());
    }
    let body = &data[i..data.len() - 8];
    let out = inflate(body)?;
    let tail = &data[data.len() - 8..];
    let want_crc = u32::from_le_bytes([tail[0], tail[1], tail[2], tail[3]]);
    let want_len = u32::from_le_bytes([tail[4], tail[5], tail[6], tail[7]]);
    if crc32(&out) != want_crc {
        return Err("gzip CRC mismatch".into());
    }
    if out.len() as u32 != want_len {
        return Err("gzip ISIZE mismatch".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"hello"), 0x3610_A686);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn every_length_and_distance_gets_the_code_of_its_base() {
        // The code is the last one whose base does not exceed the value.
        let code_for = |bases: &[u32], v: u32| bases.iter().rposition(|&b| b <= v).unwrap();
        for len in MIN_MATCH..=MAX_MATCH {
            let lc = code_for(&LEN_BASE, len as u32);
            let (code, n) = fixed_lit_sym(257 + lc as u32);
            let extra = (len as u32 - LEN_BASE[lc]) << n;
            assert_eq!(LEN_SYM[len - MIN_MATCH], (code | extra, n + LEN_EXTRA[lc]));
        }
        for dist in 1..=WINDOW {
            let dc = code_for(&DIST_BASE, dist as u32);
            let code = (dc as u32).reverse_bits() >> 27;
            let extra = (dist as u32 - DIST_BASE[dc]) << 5;
            assert_eq!(dist_sym(dist), (code | extra, 5 + DIST_EXTRA[dc]), "{dist}");
        }
    }

    #[test]
    fn roundtrip_empty_and_small() {
        for data in [&b""[..], b"a", b"abc", b"hello world"] {
            let gz = gzip_compress(data);
            assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }
    }

    #[test]
    fn repetitive_input_actually_compresses() {
        let line = "{\"t\":1.5,\"seq\":10,\"ev\":\"iter_begin\",\"w\":0,\"iter\":3}\n";
        let data: String = line.repeat(500);
        let gz = gzip_compress(data.as_bytes());
        assert!(
            gz.len() * 10 < data.len(),
            "expected >10x compression, got {} -> {}",
            data.len(),
            gz.len()
        );
        assert_eq!(gzip_decompress(&gz).unwrap(), data.as_bytes());
    }

    #[test]
    fn compression_is_deterministic() {
        let data = b"the quick brown fox jumps over the lazy dog".repeat(10);
        assert_eq!(gzip_compress(&data), gzip_compress(&data));
    }

    #[test]
    fn stored_block_decodes() {
        // Hand-built gzip with one stored block: "hi".
        let mut gz = vec![0x1F, 0x8B, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xFF];
        gz.push(0x01); // BFINAL=1, BTYPE=00
        gz.extend_from_slice(&[0x02, 0x00, 0xFD, 0xFF]); // LEN=2, NLEN
        gz.extend_from_slice(b"hi");
        gz.extend_from_slice(&crc32(b"hi").to_le_bytes());
        gz.extend_from_slice(&2u32.to_le_bytes());
        assert_eq!(gzip_decompress(&gz).unwrap(), b"hi");
    }

    #[test]
    fn corrupt_crc_is_rejected() {
        let mut gz = gzip_compress(b"payload payload payload");
        let n = gz.len();
        gz[n - 5] ^= 0xFF; // flip a CRC byte
        assert!(gzip_decompress(&gz).unwrap_err().contains("CRC"));
    }

    proptest! {
        #[test]
        fn prop_roundtrip(data in proptest::collection::vec(0u8..=255, 0..4096)) {
            let gz = gzip_compress(&data);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }

        /// The matcher's limits: a phrase of 0–3 or 258/259 bytes (too
        /// short to match; the longest match and one byte more) comes
        /// back exactly `WINDOW` or `WINDOW + 1` bytes later — the
        /// farthest reachable link of the ring and the first one past
        /// it — followed by more than 64 KiB of repetitive text, so
        /// every ring slot is overwritten at least twice.
        #[test]
        fn prop_roundtrip_at_the_matcher_limits(
            unit in proptest::collection::vec(0u8..=255, 1..8),
            run in 0usize..6,
            past_window in 0usize..2,
        ) {
            let run = [0, 1, 2, 3, MAX_MATCH, MAX_MATCH + 1][run];
            let phrase: Vec<u8> = unit.iter().copied().cycle().take(run).collect();
            let mut data = phrase.clone();
            // Pseudo-random filler: literals and the odd short match.
            data.extend((run..WINDOW + past_window).map(|i| ((i * 2_654_435_761) >> 13) as u8));
            data.extend(&phrase);
            data.extend(unit.iter().copied().cycle().take(2 * WINDOW + 1000));
            let gz = gzip_compress(&data);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }

        #[test]
        fn prop_roundtrip_repetitive(
            unit in proptest::collection::vec(0u8..=255, 1..32),
            reps in 1usize..200,
        ) {
            let data: Vec<u8> = unit.iter().copied().cycle().take(unit.len() * reps).collect();
            let gz = gzip_compress(&data);
            prop_assert_eq!(gzip_decompress(&gz).unwrap(), data);
        }
    }
}
