//! `gzip_compress` holds its output, two window-sized tables and
//! nothing else: no table proportional to the input (the chain links of
//! a 6.6 MB journal once took 52.7 MB). Likewise the live protocol's
//! decoder reserves no more rows than the datagram's bytes can encode,
//! whatever count its header announces. Asserted with a byte-tracking
//! allocator, hence a test binary of its own.

use rog::obs::{gzip_compress, gzip_decompress};
use rog::transport::proto::{Msg, ProtoError};

#[path = "common/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{peak_live_bytes, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn gzip_heap_is_the_output_plus_a_fixed_window() {
    // 4 MB of journal-like text: repetitive, but no line twice.
    let mut text = String::new();
    for i in 0u64.. {
        if text.len() >= 4 << 20 {
            break;
        }
        let t = i as f64 * 0.37;
        text.push_str(&format!(
            "{{\"t\":{t},\"seq\":{i},\"ev\":\"push_row\",\"w\":{},\"row\":{}}}\n",
            i % 4,
            i * 7 % 220
        ));
    }
    let (peak, gz) = peak_live_bytes(|| gzip_compress(text.as_bytes()));
    assert!(
        peak <= gz.capacity() + (1 << 20),
        "peak {peak} bytes for an output of capacity {}",
        gz.capacity()
    );
    assert!(gzip_decompress(&gz).expect("gunzips") == text.as_bytes());
}

#[test]
fn a_hostile_row_count_reserves_only_what_the_datagram_holds() {
    // A `PullRows` header announcing 2^20 rows (within the protocol
    // bound), followed by `present` empty rows of 8 bytes each.
    for present in [0u32, 3] {
        let mut hostile = vec![8u8];
        hostile.extend_from_slice(&(1u32 << 20).to_le_bytes());
        for id in 0..present {
            hostile.extend_from_slice(&id.to_le_bytes());
            hostile.extend_from_slice(&0u32.to_le_bytes());
        }
        let (peak, decoded) = peak_live_bytes(|| Msg::decode(&hostile));
        assert_eq!(decoded, Err(ProtoError::Truncated));
        // At most one in-memory row per 8 bytes of row data.
        let room = present as usize * std::mem::size_of::<rog::transport::proto::Row>();
        assert!(
            peak <= room,
            "{peak} bytes reserved for a {}-byte datagram",
            hostile.len()
        );
    }
}
