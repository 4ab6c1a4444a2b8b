//! Which instruction set the SIMD kernels run, decided once: the dense
//! kernels of [`Matrix`](crate::Matrix) and `rog-compress`'s one-bit
//! lanes match on [`isa`]. It names an [`Isa`] only where std detects
//! every feature the variant lists (each is its own CPUID bit), so a
//! `#[target_feature]` kernel enabling at most those features runs only
//! on a CPU that has them: the one safety argument of every such call.

/// An instruction set the kernels have code for, narrowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// As built, on any architecture (baseline x86-64: SSE2).
    Portable,
    /// x86-64 with `avx2`.
    Avx2,
    /// x86-64 with `avx2` and `avx512f`.
    Avx512,
}

/// The widest [`Isa`] this CPU runs (std caches the checks), no wider
/// than this thread's test cap, which production never sets.
#[inline]
pub fn isa() -> Isa {
    #[cfg(target_arch = "x86_64")]
    let best = widest(
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("avx512f"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let best = widest(false, false);
    best.min(testhooks::CAP.get())
}

/// The widest [`Isa`] all of whose features are detected.
#[inline]
fn widest(avx2: bool, avx512f: bool) -> Isa {
    match (avx2, avx512f) {
        (true, true) => Isa::Avx512,
        (true, false) => Isa::Avx2,
        (false, _) => Isa::Portable,
    }
}

/// The test cap, which can only narrow [`isa`], and the one harness
/// that runs a kernel's oracle per [`Isa`]. Not public API.
#[doc(hidden)]
pub mod testhooks {
    use super::{isa, Isa};
    use std::cell::Cell;

    thread_local!(pub(super) static CAP: Cell<Isa> = const { Cell::new(Isa::Avx512) });

    /// Runs `check` with [`isa`] capped at each of `isas` this CPU has,
    /// printing each it checked or not; panics if the cap cannot narrow
    /// [`isa`] to `Portable`, which every CPU runs.
    pub fn on_each_isa(kernel: &str, isas: &[Isa], mut check: impl FnMut(Isa)) {
        CAP.set(Isa::Portable);
        assert_eq!(isa(), Isa::Portable, "{kernel}: the cap must narrow isa()");
        for &cap in isas {
            CAP.set(cap);
            if isa() == cap {
                check(cap);
                eprintln!("{kernel} kernel, {cap:?}: checked");
            } else {
                eprintln!("{kernel} kernel, {cap:?}: not on this CPU, so not checked");
            }
        }
        CAP.set(Isa::Avx512);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isa_is_the_widest_detected_and_the_cap_only_narrows_it() {
        assert_eq!(widest(false, false), Isa::Portable);
        assert_eq!(widest(true, false), Isa::Avx2);
        assert_eq!(widest(false, true), Isa::Portable);
        assert_eq!(widest(true, true), Isa::Avx512);
        let (all, cpu, mut seen) = ([Isa::Portable, Isa::Avx2, Isa::Avx512], isa(), vec![]);
        testhooks::on_each_isa("cap", &all, |cap| seen.push((cap, isa())));
        let want: Vec<_> = all[..=cpu as usize].iter().map(|&i| (i, i)).collect();
        assert_eq!((seen, isa()), (want, cpu));
    }
}
