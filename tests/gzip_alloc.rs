//! `gzip_compress` holds its output, two window-sized tables and
//! nothing else: no table proportional to the input (the chain links of
//! a 6.6 MB journal once took 52.7 MB). Asserted with a byte-tracking
//! allocator, hence a test binary of its own.

use rog::obs::{gzip_compress, gzip_decompress};

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
