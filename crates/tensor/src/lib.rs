//! Minimal dense-matrix math substrate for the ROG reproduction.
//!
//! ROG (Guan et al., MICRO 2022) schedules gradient transmission at the
//! granularity of *rows* of each layer's parameter matrix. Everything above
//! this crate therefore needs a matrix type whose rows are first-class:
//! cheap to view, cheap to copy out, individually updatable, and stably
//! addressable across the whole model.
//!
//! This crate deliberately implements only what the rest of the workspace
//! needs — row-major [`Matrix`], a handful of BLAS-1/2 kernels, the
//! [`ops`] SGD update rule, and deterministic random
//! initialization ([`rng`]) — rather than binding to an external BLAS.
//! Determinism is a hard requirement: every simulated experiment must be
//! bit-reproducible from a seed, so all randomness flows through
//! [`rng::DetRng`] and no kernel is allowed to reorder floating-point
//! reductions nondeterministically.
//!
//! The crate's only `unsafe` is the call of each dense kernel's AVX2 or
//! AVX-512 instantiation where [`simd::isa`] names it (its doc is the
//! safety argument). It cannot move a bit: all three instantiations
//! compile one body, and Rust never contracts `a * b + c` (not even
//! under `avx512f`, which implies LLVM's `fma` feature).
//!
//! # Example
//!
//! ```
//! use rog_tensor::{Matrix, rng::DetRng};
//!
//! let mut rng = DetRng::new(42);
//! let w = Matrix::randn(4, 3, 0.1, &mut rng);
//! let x = vec![1.0, 2.0, 3.0];
//! let y = w.matvec(&x);
//! assert_eq!(y.len(), 4);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod gemm;
mod matrix;
pub mod ops;
pub mod rng;
pub mod simd;

pub use gemm::SumOrder;
pub use matrix::{Matrix, ShapeError};
