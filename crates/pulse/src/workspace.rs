//! The reusable GRAPE iteration workspace.
//!
//! GRAPE spends its entire budget evaluating [`GrapeWorkspace::fidelity_gradient`]:
//! hundreds of optimizer iterations, each diagonalizing every slice Hamiltonian and
//! sweeping the forward/backward partial products. The seed implementation
//! heap-allocated every one of those matrices on every iteration; this workspace
//! owns all of them — per-slice eigensystems, the eigenbasis partial products, and
//! the gradient scratch — allocated once per [`crate::grape::try_optimize_pulse`]
//! call and reused across all iterations. After construction (and one
//! `set_target`), `fidelity_gradient` performs **zero** heap allocations, which
//! `vqc-pulse`'s counting-allocator test asserts.
//!
//! The propagation pass and the Daleckii–Krein gradient pass are each written
//! once, in `Engine`, generic over the crate-private `RealStorage` trait, as
//! phases over slice ranges: a wide block's iteration runs them as two lanes,
//! the second on the [`crate::lanes`] helper thread, bit for bit. Each phase
//! is compiled three times from its one source (`lane_phase!`): for the
//! build's baseline target, for AVX2 and for AVX-512, and the engine picks
//! one once, at construction, by its dimension and what the CPU has
//! (`width`: AVX-512 at dim 16, AVX2 elsewhere). The baseline and the AVX2
//! twin give the same bits; the AVX-512 twin is compiled with `fma` and fuses
//! the multiply-adds of its products and its contraction, so it agrees with
//! them within rounding (the in-crate parity test holds it to 1e-12). The
//! calls into the two wide instantiations are this module's only `unsafe`.
//! Every matrix in a GRAPE run has a
//! dimension fixed by the device, so the workspace picks the storage from
//! `device.dim()` at construction and nothing else:
//! inline const-generic [`RealSmallMatrix`] for dims 2/4/8/16 — every width a
//! compiler with `max_block_width = 4` can plan on a qubit device — and heap
//! [`RealMatrix`] for every other dimension (qutrit devices at 3/9/27/81,
//! qubit lines wider than four). Both instances run the same body, so their
//! gradients agree to machine precision; the in-crate parity tests hold them
//! to 1e-12 at every stack dimension.
//!
//! **Real storage only.** Every Hamiltonian a [`DeviceModel`] produces is real
//! symmetric (Appendix A: charge `a + a†`, flux `a†a`, coupling
//! `(a + a†)(a + a†)`, zero drift), so slice Hamiltonians and their
//! eigenvectors are `f64` matrices, and every complex matrix of the engine is
//! `Planar`: a pair `(re, im)` of the same real storage. A product with an
//! eigenvector matrix is then two real products and the one complex·complex
//! product per slice four — every product of the engine is the same `f64`
//! loop nest, and nothing multiplies interleaved complex entries. The
//! engine's constructor asserts the premise, so there is no complex fallback.
//!
//! **Sweeps in the eigenbasis.** With `H_t = V_t Λ_t V_tᵀ` the slice propagator
//! is `U_t = V_t D_t V_tᵀ`, `D_t = e^{-iΔtΛ_t}`, and the engine never forms it.
//! What the sweeps keep per slice is the forward evolution `F_{t-1} = U_{t-1}
//! ⋯ U_0` and the co-state `K_t = target†·U_{T-1} ⋯ U_{t+1}` in the slice's
//! eigenbasis, `A_t = V_tᵀ·F_{t-1}` and `B_t = K_t·V_t`, whose product is the
//! matrix the Daleckii–Krein formula wants: `Vᵀ·F_{t-1}·K_t·V = A_t·B_t`. Each
//! slice forms the real change of basis into the next, `W_t = V_{t+1}ᵀ·V_t`,
//! once, and both sweeps go through it: forward `A_{t+1} = W_t·(D_t A_t)` from
//! `A_0 = V_0ᵀ`, backward `B_{t-1} = (B_t D_t)·W_{t-1}` from
//! `B_{T-1} = target†·V_{T-1}`, the diagonal `D_t` applied as a row or column
//! scaling. That is one real product per slice for `W_t` and two per sweep
//! step, where carrying `F_t` and `K_t` themselves took four per sweep step:
//! with the contraction's eight, 13 real products a slice instead of 16. The
//! total evolution `F_{T-1} = V_{T-1}·(D_{T-1} A_{T-1})`, for the overlap, and
//! `B_{T-1}` are the two ends' products, formed once each. Where two lanes
//! split the slices at `mid`, `W_{mid-1}` needs both lanes' eigensystems and
//! is formed between the phases, by the same product at the same width.
//! Either eigensolver — Jacobi warm-started from the slice's previous
//! eigenbasis below dim 8, cold Householder–QL from there up — is a chain of
//! dependent square roots and divisions; the slices of one iteration are
//! independent, so a lane solves its slices four at a time, in lockstep, one
//! slice per vector lane ([`vqc_linalg::real::eigh_symmetric`]), each slice
//! getting the bits it would get alone (a 2q slice 0.80 → 0.56 µs at AVX2
//! width when the Jacobi side went lockstep, PR 20).
//! What checks a pulse is [`crate::propagate::final_unitary`], which shares
//! none of this module's code.

use crate::lanes::{self, Claim};
use crate::profile::{self, Phase};
use crate::{ControlHamiltonian, DeviceModel, PulseSequence};
use std::fmt::Debug;
use std::ops::Range;
use vqc_linalg::real::{
    eigh_ql_interleaved, eigh_scratch_len, eigh_symmetric, ql_input, Fused, MulAdd, QlLane,
    Unfused, QL_MIN_DIM,
};
use vqc_linalg::{Matrix, RealMatrix, RealSmallMatrix, C64};

/// Which instantiation of the lane phases ([`lane_phase!`]) an engine runs,
/// and the proof that this CPU can run it, for that call's `unsafe`.
///
/// **The rule, per dimension.** The AVX-512 twin at dim 16 where the host has
/// FMA and AVX-512 F/VL/DQ, the AVX2 twin everywhere else where it has AVX2,
/// the baseline where it has neither. The AVX2 twin gives the baseline's bits,
/// and the AVX-512 twin, the one that fuses, agrees with them within rounding,
/// so the rule decides speed, and at dim 16 the last bits of a result.
/// Measured on an x86-64 host with AVX-512, before the AVX-512 twin fused
/// (2 vCPUs, one lane, 40 slices of a moving pulse, all four engines in one
/// process taking turns, the median over 40–60 turns of each one's time
/// against the baseline's in the same turn):
///
/// | dim | AVX2 / baseline | AVX-512 / baseline |
/// |---|---|---|
/// | 2 | 1.00 | 1.12 |
/// | 4 | 0.75 | 0.83 |
/// | 8 | 0.69 | 0.74 |
/// | 16 | 0.61–0.63 | **0.57–0.60** |
///
/// At dim 16 the wider vectors pay in the products: the sweeps go from 0.45–0.47
/// of the baseline's time to 0.39–0.41 and the contraction from 0.53–0.55 to
/// 0.45–0.48, while `diagonalize` reads 0.74–0.77 at either width (the QL
/// batch alone, outside the engine, is ~20 % slower at AVX-512 width; its
/// `[f64; 4]` lockstep loops do not get wider). The heap dimensions keep
/// AVX2; no workload of the benchmark runs them. Fusing the AVX-512 twin and
/// sweeping through `W_t` took a one-lane 4q slice-iteration at 40 slices from
/// 13.1–14.0 to 11.9–12.7 µs on that host; with the profiler armed (in a
/// slower stretch of the host, 18–20 µs a slice) the sweeps went from 3.5–3.6
/// to 2.3–2.5 µs and the contraction from 4.4–4.5 to 4.0–4.2, and the
/// eigensolve did not move.
mod width {
    /// Exists only where a detection below found its features: the field is
    /// private to this module, so nothing else can make one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Detected(());

    /// One variant per wide twin of a lane phase.
    #[derive(Debug, Clone, Copy)]
    pub(super) enum Width {
        /// `#[target_feature(enable = "avx2")]`: four `f64`s a vector.
        Avx2(Detected),
        /// `#[target_feature(enable = "avx2,fma,avx512f,avx512vl,avx512dq")]`:
        /// eight `f64`s a vector, and the one twin whose products fuse.
        Avx512(Detected),
    }

    impl Width {
        /// The AVX2 twin on an x86-64 CPU that reports AVX2, `None` elsewhere.
        pub(super) fn avx2() -> Option<Width> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(Width::Avx2(Detected(())));
            }
            None
        }

        /// The AVX-512 twin on an x86-64 CPU that reports AVX2, FMA and
        /// AVX-512 F, VL and DQ, `None` elsewhere.
        pub(super) fn avx512() -> Option<Width> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
                && std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vl")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                return Some(Width::Avx512(Detected(())));
            }
            None
        }

        /// The twin the rule (above) gives a `dim`-dimensional engine on
        /// this host.
        pub(super) fn for_dim(dim: usize) -> Option<Width> {
            match dim {
                16 => Width::avx512().or_else(Width::avx2),
                _ => Width::avx2(),
            }
        }
    }
}
use width::Width;

/// Defines one phase of an iteration over one lane's share of the buffers, as
/// `$name(width, …)`. The body is compiled three times from this one source:
/// for the build's baseline target (SSE2 on x86-64), and — everything beneath
/// a phase being `#[inline(always)]` — again inside an AVX2 and an AVX-512
/// `#[target_feature]` twin, which `width` selects ([`Width`]). The body's
/// `M` is the multiply-add its products and its contraction use
/// ([`MulAdd`]): `Unfused` in the baseline and the AVX2 twin, which run the
/// same IEEE operations in the same order and agree bit for bit (Rust never
/// contracts `a * b + c` on its own), and `Fused` in the AVX-512 twin, the one
/// compiled with `fma`, whose results agree with theirs within rounding. One
/// binary at one width gives the same bits at any lane count. Other
/// architectures have the baseline only.
macro_rules! lane_phase {
    (
        $(#[$attribute:meta])*
        fn $name:ident<S: RealStorage, M: MulAdd>(
            $($arg:ident: $ty:ty),* $(,)?
        ) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attribute])*
        fn $name<S: RealStorage>(width: Option<Width>, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn body<S: RealStorage, M: MulAdd>($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn avx2<S: RealStorage>($($arg: $ty),*) $(-> $ret)? {
                body::<S, Unfused>($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma,avx512f,avx512vl,avx512dq")]
            fn avx512<S: RealStorage>($($arg: $ty),*) $(-> $ret)? {
                body::<S, Fused>($($arg),*)
            }

            match width {
                // SAFETY: `avx2` needs AVX2, and a `Width::Avx2` exists only
                // where `is_x86_feature_detected!` said the CPU has it.
                #[cfg(target_arch = "x86_64")]
                Some(Width::Avx2(_)) => unsafe { avx2($($arg),*) },
                // SAFETY: likewise for AVX2, FMA and AVX-512 F/VL/DQ.
                #[cfg(target_arch = "x86_64")]
                Some(Width::Avx512(_)) => unsafe { avx512($($arg),*) },
                _ => body::<S, Unfused>($($arg),*),
            }
        }
    };
}

/// The square real matrix storage an [`Engine`] runs over: entry access and
/// the allocation-free kernels. Exactly two implementations exist — stack
/// [`RealSmallMatrix`] and heap [`RealMatrix`] — and every method forwards to
/// the `vqc-linalg` kernel for that type.
trait RealStorage: Clone + Debug + Send + Sync {
    fn zeros(dim: usize) -> Self;
    /// The matrix dimension (a compile-time constant on the stack).
    fn dim(&self) -> usize;
    /// Row-major entries.
    fn entries(&self) -> &[f64];
    fn entries_mut(&mut self) -> &mut [f64];
    /// Writes `self · rhs` into `out`.
    fn mul_into<M: MulAdd>(&self, rhs: &Self, out: &mut Self);
    /// Adds `sign · self · rhs` to `out`.
    fn mul_onto<M: MulAdd>(&self, sign: f64, rhs: &Self, out: &mut Self);
    /// Writes `selfᵀ` into `out`.
    fn transpose_into(&self, out: &mut Self);
}

// What a lane phase calls is `#[inline(always)]`, here and in `vqc-linalg`,
// so that each of the phase's three instantiations ([`lane_phase!`]) compiles
// it at its own vector width.
impl<const N: usize> RealStorage for RealSmallMatrix<N> {
    fn zeros(_dim: usize) -> Self {
        Self::ZERO
    }
    #[inline(always)]
    fn dim(&self) -> usize {
        N
    }
    #[inline(always)]
    fn entries(&self) -> &[f64] {
        self.as_slice()
    }
    #[inline(always)]
    fn entries_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    #[inline(always)]
    fn mul_into<M: MulAdd>(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into::<M>(rhs, out);
    }
    #[inline(always)]
    fn mul_onto<M: MulAdd>(&self, sign: f64, rhs: &Self, out: &mut Self) {
        self.matmul_onto::<M>(sign, rhs, out);
    }
    #[inline(always)]
    fn transpose_into(&self, out: &mut Self) {
        RealSmallMatrix::transpose_into(self, out);
    }
}

impl RealStorage for RealMatrix {
    fn zeros(dim: usize) -> Self {
        RealMatrix::zeros(dim)
    }
    #[inline(always)]
    fn dim(&self) -> usize {
        RealMatrix::dim(self)
    }
    #[inline(always)]
    fn entries(&self) -> &[f64] {
        self.as_slice()
    }
    #[inline(always)]
    fn entries_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    #[inline(always)]
    fn mul_into<M: MulAdd>(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into::<M>(rhs, out);
    }
    #[inline(always)]
    fn mul_onto<M: MulAdd>(&self, sign: f64, rhs: &Self, out: &mut Self) {
        self.matmul_onto::<M>(sign, rhs, out);
    }
    #[inline(always)]
    fn transpose_into(&self, out: &mut Self) {
        RealMatrix::transpose_into(self, out);
    }
}

/// A complex matrix as its real and imaginary parts, each on the engine's
/// real storage.
#[derive(Debug, Clone)]
struct Planar<S> {
    re: S,
    im: S,
}

impl<S: RealStorage> Planar<S> {
    fn zeros(dim: usize) -> Self {
        Planar {
            re: S::zeros(dim),
            im: S::zeros(dim),
        }
    }

    /// Splits a square dynamic matrix into its two planes.
    fn from_matrix(source: &Matrix) -> Self {
        let mut planar = Self::zeros(source.rows());
        for (k, value) in source.as_slice().iter().enumerate() {
            planar.re.entries_mut()[k] = value.re;
            planar.im.entries_mut()[k] = value.im;
        }
        planar
    }

    /// Writes `lhs · rhs`, for a real `lhs`.
    #[inline(always)]
    fn real_times<M: MulAdd>(lhs: &S, rhs: &Self, out: &mut Self) {
        lhs.mul_into::<M>(&rhs.re, &mut out.re);
        lhs.mul_into::<M>(&rhs.im, &mut out.im);
    }

    /// Writes `lhs · rhs`, for a real `rhs`.
    #[inline(always)]
    fn times_real<M: MulAdd>(lhs: &Self, rhs: &S, out: &mut Self) {
        lhs.re.mul_into::<M>(rhs, &mut out.re);
        lhs.im.mul_into::<M>(rhs, &mut out.im);
    }

    /// Writes the complex product `lhs · rhs`: four real products.
    #[inline(always)]
    fn times<M: MulAdd>(lhs: &Self, rhs: &Self, out: &mut Self) {
        lhs.re.mul_into::<M>(&rhs.re, &mut out.re);
        lhs.im.mul_onto::<M>(-1.0, &rhs.im, &mut out.re);
        lhs.re.mul_into::<M>(&rhs.im, &mut out.im);
        lhs.im.mul_onto::<M>(1.0, &rhs.re, &mut out.im);
    }
}

/// The entries of a device Hamiltonian term as reals.
///
/// # Panics
///
/// Panics, naming `label`, if any entry has an imaginary part: the engine's
/// kernels are real-symmetric throughout, so such an operator is a bug in the
/// device model rather than an input to degrade on.
fn real_entries<'a>(label: &'a str, operator: &'a Matrix) -> impl Iterator<Item = f64> + 'a {
    let cols = operator.cols();
    let entries = operator.as_slice().iter().enumerate();
    entries.map(move |(index, value)| {
        assert!(
            value.im == 0.0,
            "{label} has the complex entry {value} at ({}, {}); \
             the GRAPE engine runs on real-symmetric Hamiltonians only",
            index / cols,
            index % cols
        );
        value.re
    })
}

/// What every lane of an iteration reads and none writes: the device's
/// Hamiltonian terms and the target.
#[derive(Debug, Clone)]
struct Model<S> {
    qubit_dim: f64,
    drift: S,
    /// `(row-major index, entry)` nonzeros of each control operator, in
    /// row-major order.
    control_sparse: Vec<Vec<(usize, f64)>>,
    /// `(padded target)†`, set by [`GrapeWorkspace::set_target`].
    target_dagger: Option<Planar<S>>,
}

impl<S: RealStorage> Model<S> {
    /// `H_t = drift + Σ_k u_k(t) · H_k` over the packed nonzero lists, for
    /// the slices `t` of `group` side by side in a structure-of-arrays batch
    /// (slot `r * dim + c` holds entry `(r, c)` of each, the first in place
    /// 0), so each nonzero is one `L`-wide multiply-add. A control whose
    /// amplitude is zero adds nothing to that slice, as it would alone. The
    /// places past the group's end get the drift. A dense matrix is the batch
    /// of one ([`Model::assemble_dense`]).
    #[inline(always)]
    fn assemble<const L: usize>(
        &self,
        pulse: &PulseSequence,
        group: Range<usize>,
        batch: &mut [[f64; L]],
    ) {
        for (slot, &entry) in batch.iter_mut().zip(self.drift.entries()) {
            *slot = [entry; L];
        }
        for (k, entries) in self.control_sparse.iter().enumerate() {
            let mut amps = [0.0; L];
            for (amp, t) in amps.iter_mut().zip(group.clone()) {
                *amp = pulse.amplitude(k, t);
            }
            if amps.iter().all(|&amp| amp == 0.0) {
                continue;
            }
            for &(index, value) in entries {
                let slot = &mut batch[index];
                for (x, &amp) in slot.iter_mut().zip(&amps) {
                    let sum = *x + value * amp;
                    *x = if amp != 0.0 { sum } else { *x };
                }
            }
        }
    }

    /// [`Model::assemble`] of slice `t` into a dense matrix.
    #[inline(always)]
    fn assemble_dense(&self, pulse: &PulseSequence, t: usize, hamiltonian: &mut S) {
        let batch = hamiltonian.entries_mut().as_chunks_mut::<1>().0;
        self.assemble(pulse, t..t + 1, batch);
    }
}

/// One slice's eigensystem: what the diagonalization phase fills and the other
/// two read.
#[derive(Debug, Clone)]
struct Eigensystem<S> {
    /// Assembled each propagation, then consumed by the eigensolver; below
    /// `QL_MIN_DIM` only (from there up `H_t` is assembled straight into the
    /// solver's batch).
    h: S,
    v: S,
    /// `vᵀ`, refreshed after each eigensolve: handed back by the QL solver,
    /// transposed from `v` below `QL_MIN_DIM`.
    vt: S,
    /// `W_t = V_{t+1}ᵀ·V_t`, the change of basis from this slice's eigenbasis
    /// into the next one's ([`Eigensystem::link`]); unused on the last slice.
    w: S,
    /// The eigenvalues, ascending.
    lambdas: Vec<f64>,
    /// `cos(Δtλ)` and `−sin(Δtλ)`: the two planes of the diagonal `e^{-iΔtλ}`.
    cos: Vec<f64>,
    sin: Vec<f64>,
}

impl<S: RealStorage> Eigensystem<S> {
    /// Writes `m` with each entry `(r, c)` multiplied by entry `pick(r, c)` of
    /// the diagonal `D = e^{-iΔtλ}`: `D · m` picking the row, `m · D` the column.
    #[inline(always)]
    fn scale(&self, pick: impl Fn(usize, usize) -> usize, m: &Planar<S>, out: &mut Planar<S>) {
        let dim = self.cos.len();
        let rows =
            m.re.entries()
                .chunks_exact(dim)
                .zip(m.im.entries().chunks_exact(dim));
        let out_re = out.re.entries_mut().chunks_exact_mut(dim);
        let out_rows = out_re.zip(out.im.entries_mut().chunks_exact_mut(dim));
        for (r, ((re, im), (out_re, out_im))) in rows.zip(out_rows).enumerate() {
            let entries = re.iter().zip(im).zip(out_re.iter_mut().zip(out_im));
            for (c, ((x, y), (out_x, out_y))) in entries.enumerate() {
                let k = pick(r, c);
                let (cos, sin) = (self.cos[k], self.sin[k]);
                *out_x = cos * x - sin * y;
                *out_y = cos * y + sin * x;
            }
        }
    }

    /// Warm start, first half: rotates the assembled `h` into the slice's
    /// previous eigenbasis, `h ← Vᵀ·h·V`, through `product`. Between optimizer
    /// iterations the amplitudes move only slightly, so the result is nearly
    /// diagonal and the Jacobi sweep count collapses (to zero when the slice
    /// is re-evaluated unchanged).
    #[inline(always)]
    fn enter_eigenbasis<M: MulAdd>(&mut self, product: &mut S) {
        self.vt.mul_into::<M>(&self.h, product);
        product.mul_into::<M>(&self.v, &mut self.h);
    }

    /// Warm start, second half: `v ← v·V'`, with `V'` the eigenvectors of
    /// the rotated `h`, which the solve left in `vt`.
    #[inline(always)]
    fn leave_eigenbasis<M: MulAdd>(&mut self, product: &mut S) {
        self.v.mul_into::<M>(&self.vt, product);
        self.v.entries_mut().copy_from_slice(product.entries());
    }

    /// `w = V_{t+1}ᵀ·V_t`, with `next` slice `t + 1`: one real product per
    /// slice, which saves both sweeps a real·planar product a slice.
    #[inline(always)]
    fn link<M: MulAdd>(&mut self, next: &Self) {
        next.vt.mul_into::<M>(&self.v, &mut self.w);
    }

    /// This slice as one matrix of a batched eigensolve below `QL_MIN_DIM`:
    /// `h` in, eigenvalues and eigenvectors out — into `v` cold, into `vt`
    /// warm (the rotated problem's eigenvectors, for
    /// [`Eigensystem::leave_eigenbasis`]).
    #[inline(always)]
    fn eigh_lane(&mut self, warm: bool) -> QlLane<'_> {
        let vectors = if warm { &mut self.vt } else { &mut self.v };
        (
            self.h.entries_mut(),
            &mut self.lambdas,
            vectors.entries_mut(),
        )
    }

    /// This slice as one matrix of a QL batch whose input is already in
    /// place ([`eigh_ql_interleaved`]): `Vᵀ` into `vt`, the eigenvalues, `V`
    /// into `v`.
    #[inline(always)]
    fn ql_lane(&mut self) -> QlLane<'_> {
        (
            self.vt.entries_mut(),
            &mut self.lambdas,
            self.v.entries_mut(),
        )
    }
}

/// Slices the eigensolver takes side by side: one vector of four `f64`s at
/// AVX2 width, two of two at the baseline, half a vector at AVX-512 width (an
/// eight-slice batch was measured no faster than four there).
const EIGH_LANES: usize = 4;

/// One lane's scratch.
#[derive(Debug, Clone)]
struct Scratch<S> {
    planar: [Planar<S>; 2],
    /// The structure-of-arrays copy of a group of slices the eigensolver
    /// works in; empty at dim 2.
    eigh: Vec<f64>,
}

lane_phase! {
    /// Phase 1 of an iteration, for one lane's slices `first..`: Hamiltonians,
    /// then eigensystems, then `Vᵀ`, the phases `e^{-iΔtλ}` and each slice's
    /// `W_t` into the next but the lane's last ([`Eigensystem::link`];
    /// [`link_boundary`] forms that one once both lanes are done). Returns the
    /// lane's eigensolver iterations, each slice's own.
    ///
    /// The slices are solved [`EIGH_LANES`] at a time, in lockstep
    /// ([`eigh_symmetric`]: warm-started Jacobi below `QL_MIN_DIM`, cold
    /// Householder–QL from there up). Where the lane's range does not end on
    /// a group boundary the remainder is solved as it stands: three slices as
    /// a batch whose fourth place repeats the first, one or two through the
    /// solver's one-matrix instantiation — at 16×16 and AVX2 width a batch
    /// costs ~20 µs whatever it holds and a single solve ~10, so three are
    /// cheaper padded, two cost the same either way and one is cheaper alone
    /// (a 4×4 warm batch ~1.2 µs against ~0.5 µs alone). A slice's
    /// eigensystem is the same bits whichever group and place it lands in, so
    /// how an iteration was split into lanes does not show.
    ///
    /// Below `QL_MIN_DIM` the pass is pass-major — every Hamiltonian, then
    /// every solve — so an armed profiler pays one `mark` per pass. From there
    /// up each group's Hamiltonians are assembled straight into the solver's
    /// structure-of-arrays batch ([`eigh_ql_interleaved`]) and solved at once,
    /// and the solver hands back each slice's `Vᵀ` beside `V`: no dense copy to
    /// interleave and no transpose, at one pair of marks per group.
    fn diagonalize<S: RealStorage, M: MulAdd>(
        model: &Model<S>,
        pulse: &PulseSequence,
        warmed: bool,
        lane: (usize, &mut [Eigensystem<S>]),
        scratch: &mut Scratch<S>,
        lap: Option<&mut profile::Lap>,
    ) -> u64 {
        let ((first, slices), mut lap) = (lane, lap);
        let dim = model.drift.dim();
        let Scratch { planar, eigh } = scratch;
        let mut iterations = 0;
        // Householder–QL costs the same from any starting point, so only the
        // Jacobi side of the dimension rule warm-starts from the previous
        // eigenbasis. (So does the 2×2 closed form, but it keeps the rotation:
        // dropping it would change the bits of every 1q pulse.)
        if dim >= QL_MIN_DIM {
            for (index, group) in slices.chunks_mut(EIGH_LANES).enumerate() {
                let first = first + index * EIGH_LANES;
                if group.len() < EIGH_LANES - 1 {
                    for (t, slice) in (first..).zip(group.iter_mut()) {
                        model.assemble(pulse, t..t + 1, ql_input::<1>(dim, eigh));
                        mark(&mut lap, Phase::HamiltonianAssembly);
                        let lane = slice.ql_lane();
                        iterations += eigh_ql_interleaved::<1>(dim, &mut [lane], eigh)[0] as u64;
                        mark(&mut lap, Phase::Eigendecomposition);
                    }
                } else {
                    // One call site for whole and padded groups: the solver's
                    // body is inlined here, once.
                    let size = group.len();
                    model.assemble(pulse, first..first + size, ql_input::<EIGH_LANES>(dim, eigh));
                    mark(&mut lap, Phase::HamiltonianAssembly);
                    let mut lanes: [QlLane<'_>; EIGH_LANES] = Default::default();
                    for (lane, slice) in lanes.iter_mut().zip(group.iter_mut()) {
                        *lane = slice.ql_lane();
                    }
                    let counts = eigh_ql_interleaved::<EIGH_LANES>(dim, &mut lanes[..size], eigh);
                    iterations += counts.iter().sum::<usize>() as u64;
                    mark(&mut lap, Phase::Eigendecomposition);
                }
            }
        } else {
            for (t, slice) in (first..).zip(slices.iter_mut()) {
                model.assemble_dense(pulse, t, &mut slice.h);
            }
            mark(&mut lap, Phase::HamiltonianAssembly);
            let product = &mut planar[0].re;
            for group in slices.chunks_mut(EIGH_LANES) {
                if warmed {
                    for slice in group.iter_mut() {
                        slice.enter_eigenbasis::<M>(product);
                    }
                }
                if group.len() < EIGH_LANES - 1 {
                    for slice in group.iter_mut() {
                        let lane = slice.eigh_lane(warmed);
                        iterations += eigh_symmetric::<1>(dim, &mut [lane], eigh)[0] as u64;
                    }
                } else {
                    let size = group.len();
                    let mut lanes: [QlLane<'_>; EIGH_LANES] = Default::default();
                    for (lane, slice) in lanes.iter_mut().zip(group.iter_mut()) {
                        *lane = slice.eigh_lane(warmed);
                    }
                    let counts = eigh_symmetric::<EIGH_LANES>(dim, &mut lanes[..size], eigh);
                    iterations += counts.iter().sum::<usize>() as u64;
                }
                if warmed {
                    for slice in group.iter_mut() {
                        slice.leave_eigenbasis::<M>(product);
                    }
                }
            }
            mark(&mut lap, Phase::Eigendecomposition);
        }

        for slice in slices.iter_mut() {
            if dim < QL_MIN_DIM {
                slice.v.transpose_into(&mut slice.vt);
            }
            let phases = slice.cos.iter_mut().zip(&mut slice.sin);
            for ((cos, sin), &lambda) in phases.zip(&slice.lambdas) {
                let phase = C64::cis(-pulse.dt_ns() * lambda);
                (*cos, *sin) = (phase.re, phase.im);
            }
        }
        link_each::<S, M>(slices);
        iterations
    }
}

/// [`Eigensystem::link`] of every slice of `slices` into the next, the last
/// one's next being out of range.
#[inline(always)]
fn link_each<S: RealStorage, M: MulAdd>(slices: &mut [Eigensystem<S>]) {
    for t in 1..slices.len() {
        let (head, tail) = slices.split_at_mut(t);
        head[t - 1].link::<M>(&tail[0]);
    }
}

lane_phase! {
    /// Phase 1's one product no lane can form alone: where two lanes split
    /// the slices at `mid`, `boundary` is slices `mid − 1` and `mid`, and
    /// `W_{mid−1}` needs both lanes' eigensystems. It is the product every
    /// other `W_t` is, at the same width, so one lane and two give the same
    /// bits.
    fn link_boundary<S: RealStorage, M: MulAdd>(boundary: &mut [Eigensystem<S>]) {
        link_each::<S, M>(boundary);
    }
}

lane_phase! {
    /// Phase 2, one lane: `a[t] = V_tᵀ · F_{t-1}` for every slice, from
    /// `a[0] = V_0ᵀ` (`F_{-1}` is the identity) through
    /// `a[t+1] = W_t · (D_t a[t])`, and the total evolution
    /// `F_{T-1} = V_{T-1} · (D_{T-1} a[T-1])` into `total`, formed once, at
    /// the last slice.
    fn sweep_forward<S: RealStorage, M: MulAdd>(
        eigen: &[Eigensystem<S>],
        a: &mut [Planar<S>],
        total: &mut Planar<S>,
        scratch: &mut Scratch<S>,
    ) {
        let scaled = &mut scratch.planar[0];
        let last = eigen.len() - 1;
        a[0].re.entries_mut().copy_from_slice(eigen[0].vt.entries());
        a[0].im.entries_mut().fill(0.0);
        for t in 0..last {
            let (done, next) = a.split_at_mut(t + 1);
            eigen[t].scale(|row, _| row, &done[t], scaled);
            Planar::real_times::<M>(&eigen[t].w, scaled, &mut next[0]);
        }
        eigen[last].scale(|row, _| row, &a[last], scaled);
        Planar::real_times::<M>(&eigen[last].v, scaled, total);
    }
}

lane_phase! {
    /// Phase 2, the other lane: `b[t] = K_t · V_t` for every slice, `K_t` the
    /// gradient's co-state `target† · U_{T-1} ⋯ U_{t+1}`, from
    /// `b[T-1] = target† · V_{T-1}`, formed once, at the last slice, through
    /// `b[t-1] = (b[t] · D_t) · W_{t-1}`.
    fn sweep_backward<S: RealStorage, M: MulAdd>(
        eigen: &[Eigensystem<S>],
        target_dagger: &Planar<S>,
        b: &mut [Planar<S>],
        scratch: &mut Scratch<S>,
    ) {
        let scaled = &mut scratch.planar[0];
        let last = eigen.len() - 1;
        Planar::times_real::<M>(target_dagger, &eigen[last].v, &mut b[last]);
        for t in (1..=last).rev() {
            let (next, done) = b.split_at_mut(t);
            eigen[t].scale(|_, column| column, &done[0], scaled);
            Planar::times_real::<M>(scaled, &eigen[t - 1].w, &mut next[t - 1]);
        }
    }
}

lane_phase! {
    /// Phase 3, for one lane's slices `first..`: the exact gradient via the
    /// Daleckii–Krein formula, into the lane's slice-major share of the
    /// gradient.
    ///
    /// For slice t: U_total = (U_{T-1} ⋯ U_{t+1}) · U_t · F_{t-1}, and
    ///   ∂U_t/∂u_k = V (Γ ∘ (Vᵀ H_k V)) Vᵀ,
    /// where Γ_ij is the divided difference of f(λ) = e^{-iΔtλ} at (λ_i, λ_j).
    /// With P = Vᵀ · F_{t-1} · K_t · V — the product `a[t] · b[t]` of what the
    /// sweeps left (the target is already inside K_t) —
    ///   Tr(V_target† ∂U_total/∂u_k) = Σ_ab H_k[a,b] · G[a,b]
    /// with  G = V · (Pᵀ ∘ Γ) · Vᵀ,  which is independent of k.
    fn contract<S: RealStorage, M: MulAdd>(
        model: &Model<S>,
        eigen: &[Eigensystem<S>],
        sweeps: (&[Planar<S>], &[Planar<S>]),
        scalars: (f64, C64),
        lane: (usize, &mut [f64]),
        scratch: &mut Scratch<S>,
    ) {
        let ((a, b), (dt, conj_overlap), (first, gradient)) = (sweeps, scalars, lane);
        let dim = model.drift.dim();
        let num_controls = model.control_sparse.len();
        let [p, g] = &mut scratch.planar;
        for n in 0..gradient.len() / num_controls.max(1) {
            let t = first + n;
            Planar::times::<M>(&a[t], &b[t], p);

            let slice = &eigen[t];
            let (lambdas, cos, sin) = (&slice.lambdas, &slice.cos, &slice.sin);
            // Pᵀ ∘ Γ, written into g, Γ once per pair {i, j}: λ_i − λ_j and
            // cos_i − cos_j (or sin) both change sign exactly when i and j
            // swap, so their product does not. Only a zero's sign can differ,
            // and the products below start their sums at +0.0, which absorbs
            // it. Near degeneracy Γ_ij reads λ_i alone: one per ordered pair.
            let (p_re, p_im) = (p.re.entries(), p.im.entries());
            let (g_re, g_im) = (g.re.entries_mut(), g.im.entries_mut());
            for i in 0..dim {
                let own = (dt * sin[i], -dt * cos[i]);
                let ii = i * dim + i;
                (g_re[ii], g_im[ii]) = times_gamma::<M>(p_re[ii], p_im[ii], own);
                for j in i + 1..dim {
                    let gap = lambdas[i] - lambdas[j];
                    let (gamma_ij, gamma_ji) = if gap.abs() < 1e-10 {
                        // −iΔt · e^{-iΔtλ}, at each row's own λ
                        (own, (dt * sin[j], -dt * cos[j]))
                    } else {
                        let inverse = 1.0 / gap;
                        let gamma = ((cos[i] - cos[j]) * inverse, (sin[i] - sin[j]) * inverse);
                        (gamma, gamma)
                    };
                    let (ij, ji) = (i * dim + j, j * dim + i);
                    (g_re[ji], g_im[ji]) = times_gamma::<M>(p_re[ij], p_im[ij], gamma_ij);
                    (g_re[ij], g_im[ij]) = times_gamma::<M>(p_re[ji], p_im[ji], gamma_ji);
                }
            }
            // G = V · (Pᵀ ∘ Γ) · Vᵀ
            Planar::real_times::<M>(&slice.v, g, p);
            Planar::times_real::<M>(p, &slice.vt, g);
            let (g_re, g_im) = (g.re.entries(), g.im.entries());

            let slots = &mut gradient[n * num_controls..][..num_controls];
            for (slot, entries) in slots.iter_mut().zip(&model.control_sparse) {
                let mut contraction = C64::ZERO;
                for &(index, h_ab) in entries {
                    contraction.re = M::mul_add(g_re[index], h_ab, contraction.re);
                    contraction.im = M::mul_add(g_im[index], h_ab, contraction.im);
                }
                let dg = contraction / model.qubit_dim;
                let dfidelity = 2.0 * (conj_overlap * dg).re;
                *slot = -dfidelity;
            }
        }
    }
}

/// Charges the time since the last mark to `phase`, on an armed lap.
#[inline(always)]
fn mark(lap: &mut Option<&mut profile::Lap>, phase: Phase) {
    if let Some(lap) = lap {
        lap.mark(phase);
    }
}

/// `(re + i·im) · Γ`, for one entry of `Pᵀ ∘ Γ`, as two `M` multiply-adds.
#[inline(always)]
fn times_gamma<M: MulAdd>(re: f64, im: f64, gamma: (f64, f64)) -> (f64, f64) {
    let re_part = M::mul_add(re, gamma.0, -(im * gamma.1));
    (re_part, M::mul_add(re, gamma.1, im * gamma.0))
}

/// The GRAPE engine: the entire hot loop, written once over a [`RealStorage`].
///
/// An iteration is three phases, each a pair of lanes over disjoint halves of
/// the buffers ([`lanes::pair`]): [`diagonalize`] on slices `0..mid` beside
/// `mid..T`, [`sweep_forward`] beside [`sweep_backward`], [`contract`] on
/// `0..mid` beside `mid..T`. With a [`lanes::Claim`] the second lane of each
/// pair runs on the helper thread and `mid = T/2`; without one both run here
/// and `mid = T`, so the second lane's ranges are empty. Every product,
/// association order and warm-start state is per slice — the one `W_t` that
/// spans the split, [`link_boundary`], is the same product as the rest — and
/// each lane has its own [`Scratch`], so the two forms are bit-identical.
///
/// All per-slice buffers are packed `Vec`s — one contiguous allocation each
/// on the stack storage — so the passes stream through cache-resident data.
/// Control operators are kept as row-major nonzero lists, so Hamiltonian
/// assembly and the gradient contraction touch only the entries a drive
/// actually has.
#[derive(Debug, Clone)]
struct Engine<S> {
    num_slices: usize,
    model: Model<S>,
    eigen: Vec<Eigensystem<S>>,
    /// `a[t] = V_tᵀ · F_{t-1}`: the evolution before slice `t`, in its eigenbasis.
    a: Vec<Planar<S>>,
    /// `b[t] = K_t · V_t`: the gradient's co-state after slice `t`, in its
    /// eigenbasis.
    b: Vec<Planar<S>>,
    /// The total evolution `F_{T-1}`.
    total: Planar<S>,
    scratch: [Scratch<S>; 2],
    /// Which wide instantiation of the lane phases runs ([`lane_phase!`]),
    /// if any.
    width: Option<Width>,
    /// Whether every slice holds a converged eigenbasis from a prior
    /// propagation, for the Jacobi dimensions to warm-start from.
    warmed: bool,
    /// `gradient[t * num_controls + k] = ∂(infidelity)/∂u_k(t)` after a
    /// `fidelity_gradient` call: slice-major, so a lane's slices are one run.
    gradient: Vec<f64>,
}

impl<S: RealStorage> Engine<S> {
    /// An engine whose lane phases run the `width` twin, or the build's
    /// baseline for `None` (what a host without AVX2 gets either way). Same
    /// bits every way. `controls` are `device`'s.
    fn new(
        device: &DeviceModel,
        controls: &[ControlHamiltonian],
        num_slices: usize,
        width: Option<Width>,
    ) -> Self {
        let drift = device.drift();
        Self::from_hamiltonians(&drift, controls, device.qubit_dim(), num_slices, width)
    }

    /// [`Engine::new`] on explicit operators (so the realness assert can be
    /// shown operators no [`DeviceModel`] produces).
    ///
    /// # Panics
    ///
    /// Panics if the drift or a control operator has a complex entry.
    fn from_hamiltonians(
        drift_operator: &Matrix,
        controls: &[ControlHamiltonian],
        qubit_dim: usize,
        num_slices: usize,
        width: Option<Width>,
    ) -> Self {
        let dim = drift_operator.rows();
        let control_sparse = controls
            .iter()
            .map(|control| {
                let entries = real_entries(&control.label, &control.operator).enumerate();
                entries.filter(|&(_, value)| value != 0.0).collect()
            })
            .collect();
        let zero = S::zeros(dim);
        let mut drift = zero.clone();
        let drift_entries: Vec<f64> = real_entries("the drift", drift_operator).collect();
        drift.entries_mut().copy_from_slice(&drift_entries);
        let planar_zero = Planar::<S>::zeros(dim);
        let eigensystem = Eigensystem {
            h: zero.clone(),
            v: zero.clone(),
            vt: zero.clone(),
            w: zero,
            lambdas: vec![0.0; dim],
            cos: vec![0.0; dim],
            sin: vec![0.0; dim],
        };
        let scratch = Scratch {
            planar: [planar_zero.clone(), planar_zero.clone()],
            eigh: vec![0.0; EIGH_LANES * eigh_scratch_len(dim)],
        };
        Engine {
            num_slices,
            model: Model {
                qubit_dim: qubit_dim as f64,
                drift,
                control_sparse,
                target_dagger: None,
            },
            eigen: vec![eigensystem; num_slices],
            a: vec![planar_zero.clone(); num_slices],
            b: vec![planar_zero.clone(); num_slices],
            total: planar_zero,
            scratch: [scratch.clone(), scratch],
            width,
            warmed: false,
            gradient: vec![0.0; num_slices * controls.len()],
        }
    }

    /// Where the second lane's slices start: half way when `claim` lends it a
    /// thread, at the end (an empty lane) otherwise.
    fn lane_split(&self, two_lanes: bool) -> usize {
        if two_lanes {
            self.num_slices / 2
        } else {
            self.num_slices
        }
    }

    /// Phases 1 and 2: per-slice eigensystems, then the forward and backward
    /// sweeps through them; returns the overlap `Tr(target† F_{T-1}) / d`.
    /// `lap` is the calling thread's; the helper's share of a phase shows up
    /// in it as wall time only.
    ///
    /// # Panics
    ///
    /// Panics if no target was set or the pulse geometry is not the one this
    /// engine was allocated for.
    fn propagate(
        &mut self,
        pulse: &PulseSequence,
        mut claim: Option<&mut Claim>,
        lap: &mut profile::Lap,
    ) -> C64 {
        let Some(target_dagger) = &self.model.target_dagger else {
            panic!("set_target must be called before fidelity_gradient");
        };
        let num_controls = self.model.control_sparse.len();
        assert_eq!(
            pulse.num_controls(),
            num_controls,
            "pulse has {} waveforms but the device has {num_controls} controls",
            pulse.num_controls()
        );
        assert_eq!(
            pulse.num_slices(),
            self.num_slices,
            "workspace sized for {} slices, pulse has {}",
            self.num_slices,
            pulse.num_slices()
        );
        let mid = self.lane_split(claim.is_some());
        let (model, warmed, wide) = (&self.model, self.warmed, self.width);
        let (near, far) = self.eigen.split_at_mut(mid);
        let (near, far) = ((0, near), (mid, far));
        let [near_scratch, far_scratch] = &mut self.scratch;
        let (mut near_iterations, mut far_iterations) = (0, 0);
        lanes::pair(
            claim.as_deref_mut(),
            || {
                let lap = Some(&mut *lap);
                near_iterations = diagonalize(wide, model, pulse, warmed, near, near_scratch, lap);
            },
            || far_iterations = diagonalize(wide, model, pulse, warmed, far, far_scratch, None),
        );
        lap.add_sweeps(near_iterations + far_iterations);
        if (1..self.num_slices).contains(&mid) {
            link_boundary(wide, &mut self.eigen[mid - 1..=mid]);
        }

        let (eigen, a, b, total) = (&self.eigen[..], &mut self.a, &mut self.b, &mut self.total);
        lanes::pair(
            claim,
            || sweep_forward(wide, eigen, a, total, near_scratch),
            || sweep_backward(wide, eigen, target_dagger, b, far_scratch),
        );
        lap.mark(Phase::Propagation);

        // Every slice now holds a converged eigenbasis the next propagation can
        // warm-start from.
        self.warmed = true;

        // Tr(V_target† U_total) / d, as Σ_ik V_target†[i,k]·U[k,i] in O(dim²).
        let dim = model.drift.dim();
        let (target_re, target_im) = (target_dagger.re.entries(), target_dagger.im.entries());
        let (total_re, total_im) = (total.re.entries(), total.im.entries());
        let mut overlap = C64::ZERO;
        for i in 0..dim {
            for k in 0..dim {
                let (row_major, transposed) = (i * dim + k, k * dim + i);
                overlap += C64::new(target_re[row_major], target_im[row_major])
                    * C64::new(total_re[transposed], total_im[transposed]);
            }
        }
        overlap * (1.0 / model.qubit_dim)
    }

    /// Propagates `pulse`, then computes its trace infidelity against the
    /// target and writes the exact gradient into `self.gradient`, as two lanes
    /// when `claim` lends the helper thread.
    fn fidelity_gradient(&mut self, pulse: &PulseSequence, mut claim: Option<&mut Claim>) -> f64 {
        let mut lap = profile::Lap::start();
        let overlap = self.propagate(pulse, claim.as_deref_mut(), &mut lap);
        let infidelity = 1.0 - overlap.norm_sqr();
        let scalars = (pulse.dt_ns(), overlap.conj());

        let model = &self.model;
        let mid = self.lane_split(claim.is_some());
        let (eigen, sweeps, wide) = (&self.eigen[..], (&self.a[..], &self.b[..]), self.width);
        let (near, far) = self.gradient.split_at_mut(mid * model.control_sparse.len());
        let [near_scratch, far_scratch] = &mut self.scratch;
        lanes::pair(
            claim,
            || contract(wide, model, eigen, sweeps, scalars, (0, near), near_scratch),
            || contract(wide, model, eigen, sweeps, scalars, (mid, far), far_scratch),
        );
        // The overlap and the contraction are one contiguous stretch of this
        // thread's time: a single mark charges it all to GradientContraction.
        lap.mark(Phase::GradientContraction);

        infidelity
    }
}

/// The bound engine: one stack monomorphization per block width a qubit device
/// can have under `max_block_width = 4`, or the heap instance of the same body.
#[derive(Debug, Clone)]
enum Kernel {
    /// 1-qubit blocks (2×2).
    Dim2(Box<Engine<RealSmallMatrix<2>>>),
    /// 2-qubit blocks (4×4).
    Dim4(Box<Engine<RealSmallMatrix<4>>>),
    /// 3-qubit blocks (8×8).
    Dim8(Box<Engine<RealSmallMatrix<8>>>),
    /// 4-qubit blocks (16×16).
    Dim16(Box<Engine<RealSmallMatrix<16>>>),
    /// Every other dimension (qutrit devices, wider qubit lines).
    Heap(Box<Engine<RealMatrix>>),
}

/// Expands `$body` once per [`Engine`] instantiation, binding the boxed engine
/// as `$engine`. This is the single place the monomorphizations fan out.
macro_rules! with_engine {
    ($kernel:expr, $engine:ident => $body:expr) => {
        match $kernel {
            Kernel::Dim2($engine) => $body,
            Kernel::Dim4($engine) => $body,
            Kernel::Dim8($engine) => $body,
            Kernel::Dim16($engine) => $body,
            Kernel::Heap($engine) => $body,
        }
    };
}

/// All buffers one GRAPE run needs, allocated once and reused every iteration.
#[derive(Debug, Clone)]
pub struct GrapeWorkspace {
    kernel: Kernel,
}

impl GrapeWorkspace {
    /// Allocates every buffer needed to optimize `num_slices`-slice pulses on
    /// `device`, on stack storage when the device dimension is 2, 4, 8, or 16
    /// and on heap storage otherwise. The target is supplied separately via
    /// [`GrapeWorkspace::set_target`].
    ///
    /// # Panics
    ///
    /// Panics if `num_slices == 0`.
    pub fn new(device: &DeviceModel, num_slices: usize) -> Self {
        Self::with_controls(device, &device.control_hamiltonians(), num_slices)
    }

    /// [`GrapeWorkspace::new`] given `device.control_hamiltonians()`, for a
    /// caller that has built them already (they cost ~3 µs at 2q, a tenth of
    /// a short GRAPE run).
    pub(crate) fn with_controls(
        device: &DeviceModel,
        controls: &[ControlHamiltonian],
        num_slices: usize,
    ) -> Self {
        let width = Width::for_dim(device.dim());
        Self::at_width(device, controls, num_slices, width)
    }

    /// [`GrapeWorkspace::new`] pinned to the build's baseline vector width
    /// whatever the host offers: what the benches and the allocation gate,
    /// which live outside this crate, measure the host's width against. The
    /// results are the same bits as at AVX2 width, and within rounding of the
    /// fused AVX-512 twin's.
    #[doc(hidden)]
    pub fn new_at_baseline_width(device: &DeviceModel, num_slices: usize) -> Self {
        Self::at_width(device, &device.control_hamiltonians(), num_slices, None)
    }

    fn at_width(
        device: &DeviceModel,
        controls: &[ControlHamiltonian],
        num_slices: usize,
        width: Option<Width>,
    ) -> Self {
        assert!(num_slices > 0, "a pulse needs at least one time slice");
        let kernel = match device.dim() {
            2 => Kernel::Dim2(Box::new(Engine::new(device, controls, num_slices, width))),
            4 => Kernel::Dim4(Box::new(Engine::new(device, controls, num_slices, width))),
            8 => Kernel::Dim8(Box::new(Engine::new(device, controls, num_slices, width))),
            16 => Kernel::Dim16(Box::new(Engine::new(device, controls, num_slices, width))),
            _ => Kernel::Heap(Box::new(Engine::new(device, controls, num_slices, width))),
        };
        GrapeWorkspace { kernel }
    }

    /// Whether construction bound stack storage (device dimension 2, 4, 8, or
    /// 16) rather than the heap instance.
    pub fn uses_static_kernel(&self) -> bool {
        !matches!(self.kernel, Kernel::Heap(_))
    }

    /// Sets the optimization target: a `2^n x 2^n` unitary on the device's qubit
    /// subspace, zero-padded onto any leakage levels (so leaked population counts as
    /// infidelity) and stored daggered.
    ///
    /// # Panics
    ///
    /// Panics if the target is not a qubit-subspace unitary of the device this
    /// workspace was built for.
    pub fn set_target(&mut self, device: &DeviceModel, target: &Matrix) {
        let padded_dagger = device.pad_qubit_unitary(target).dagger();
        with_engine!(&mut self.kernel, engine => {
            assert_eq!(device.dim(), engine.model.drift.dim(), "workspace built for another device");
            engine.model.target_dagger = Some(Planar::from_matrix(&padded_dagger));
        });
    }

    /// The gradient filled by the last [`GrapeWorkspace::fidelity_gradient`]
    /// call, slice-major:
    /// `gradient()[t * num_controls + k] = ∂(infidelity)/∂u_k(t)`.
    pub fn gradient(&self) -> &[f64] {
        with_engine!(&self.kernel, engine => &engine.gradient)
    }

    /// Computes the trace infidelity of a pulse against the configured target and
    /// its exact gradient (via the Daleckii–Krein divided-difference formula),
    /// storing the gradient in [`GrapeWorkspace::gradient`] and returning the
    /// infidelity. Performs no heap allocation. A wide block's call borrows
    /// the [`crate::lanes`] helper thread when a CPU is free; the result does
    /// not depend on whether it did.
    ///
    /// # Panics
    ///
    /// Panics if no target was set or the pulse shape does not match the workspace.
    pub fn fidelity_gradient(&mut self, pulse: &PulseSequence) -> f64 {
        with_engine!(&mut self.kernel, engine => {
            let mut claim = lanes::claim(engine.model.drift.dim(), engine.num_slices);
            engine.fidelity_gradient(pulse, claim.as_mut())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vqc_sim::gates;

    #[test]
    fn storage_is_chosen_by_device_dimension() {
        for width in 1..=4 {
            let device = DeviceModel::qubits_line(width);
            assert!(
                GrapeWorkspace::new(&device, 4).uses_static_kernel(),
                "a {width}-qubit block (dim {}) must run on stack storage",
                device.dim()
            );
        }
        let qutrit = DeviceModel::qubits_line(1).with_qutrit_levels();
        assert!(
            !GrapeWorkspace::new(&qutrit, 4).uses_static_kernel(),
            "dim 3 runs on the heap instance"
        );
    }

    #[test]
    fn every_device_hamiltonian_is_real_with_zero_drift() {
        let devices = (1..=4)
            .map(DeviceModel::qubits_line)
            .chain([DeviceModel::qubits_grid(2, 2)])
            .chain((1..=2).map(|n| DeviceModel::qubits_line(n).with_qutrit_levels()));
        for device in devices {
            assert_eq!(
                device.drift().max_abs(),
                0.0,
                "the rotating frame has no drift"
            );
            for control in device.control_hamiltonians() {
                let entries = control.operator.as_slice();
                assert!(
                    entries.iter().all(|entry| entry.im == 0.0),
                    "{} on a dim-{} device is not real",
                    control.label,
                    device.dim()
                );
            }
            // The engine's own assert agrees.
            GrapeWorkspace::new(&device, 2);
        }
    }

    #[test]
    #[should_panic(expected = "charge[0] has the complex entry")]
    fn a_complex_control_is_rejected_by_name() {
        let device = DeviceModel::qubits_line(1);
        let mut controls = device.control_hamiltonians();
        controls[0].operator = gates::y();
        Engine::<RealSmallMatrix<2>>::from_hamiltonians(&device.drift(), &controls, 2, 4, None);
    }

    /// One engine over `S` with the target bound (zero-padded onto any
    /// leakage levels, as [`GrapeWorkspace::set_target`] does).
    fn engine_for<S: RealStorage>(
        device: &DeviceModel,
        target: &Matrix,
        slices: usize,
    ) -> Engine<S> {
        engine_at_width(device, target, slices, Width::for_dim(device.dim()))
    }

    /// [`engine_for`], running the `width` twin (the baseline for `None`)
    /// rather than the one the rule picks.
    fn engine_at_width<S: RealStorage>(
        device: &DeviceModel,
        target: &Matrix,
        slices: usize,
        width: Option<Width>,
    ) -> Engine<S> {
        let mut engine = Engine::<S>::new(device, &device.control_hamiltonians(), slices, width);
        let padded_dagger = device.pad_qubit_unitary(target).dagger();
        engine.model.target_dagger = Some(Planar::from_matrix(&padded_dagger));
        engine
    }

    /// A pulse on `device` whose amplitudes are a cyclic read of `amps` (which
    /// covers any control count the device exposes).
    fn pulse_from(device: &DeviceModel, slices: usize, dt_ns: f64, amps: &[f64]) -> PulseSequence {
        let mut pulse = PulseSequence::zeros(device.num_controls(), slices, dt_ns);
        for k in 0..device.num_controls() {
            for t in 0..slices {
                pulse.set_amplitude(k, t, amps[(k * slices + t) % amps.len()]);
            }
        }
        pulse
    }

    fn assert_agree<A: RealStorage, B: RealStorage>(
        stack: (&Engine<A>, f64),
        heap: (&Engine<B>, f64),
        what: &str,
    ) {
        assert!(
            (stack.1 - heap.1).abs() < 1e-12,
            "{what}: infidelity {} on the stack vs {} on the heap",
            stack.1,
            heap.1
        );
        for (index, (a, b)) in stack.0.gradient.iter().zip(&heap.0.gradient).enumerate() {
            assert!(
                (a - b).abs() < 1e-12,
                "{what}: gradient entry {index} differs by {:e}",
                (a - b).abs()
            );
        }
    }

    /// Instantiates the one engine body with both storages on a `width`-qubit
    /// line (`N = 2^width`) and holds their infidelities and gradients to
    /// 1e-12: on a cold first pulse, and on a second pulse that — on the
    /// Jacobi dimensions — warm-starts every slice's eigensolve from the first
    /// pulse's eigenbasis.
    fn stack_and_heap_agree<const N: usize>(
        width: usize,
        amps: &[f64],
        perturbed: &[f64],
        dt_ns: f64,
    ) {
        let device = DeviceModel::qubits_line(width);
        assert_eq!(device.dim(), N);
        let target = (1..width).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        let slices = 6;
        let pulses = [amps, perturbed].map(|amps| pulse_from(&device, slices, dt_ns, amps));

        let mut stack = engine_for::<RealSmallMatrix<N>>(&device, &target, slices);
        let mut heap = engine_for::<RealMatrix>(&device, &target, slices);
        for (pulse, what) in pulses.iter().zip(["cold", "warm-started"]) {
            let on_stack = stack.fidelity_gradient(pulse, None);
            let on_heap = heap.fidelity_gradient(pulse, None);
            assert_agree((&stack, on_stack), (&heap, on_heap), what);
        }
        assert!(stack.warmed && heap.warmed);
    }

    /// Two ways to run one iteration: they must not differ in a single bit,
    /// unless one of them fuses its multiply-adds and the other does not.
    #[derive(Clone, Copy)]
    enum Forms {
        /// One lane against two (the helper forced, whatever the block's
        /// width), both running the given instantiation.
        Lanes(Option<Width>),
        /// The build's baseline against the given wide twin, one lane each.
        Widths(Width),
    }

    /// Every wide twin this host can run.
    fn host_widths() -> impl Iterator<Item = Width> {
        [Width::avx2(), Width::avx512()].into_iter().flatten()
    }

    /// Runs the engine over `S` in both of `forms` and holds the infidelity
    /// and every gradient entry to the same bits, on a cold pulse and on a
    /// second one (warm-started, on the Jacobi dimensions). The fused
    /// AVX-512 twin against the unfused baseline rounds differently, so there
    /// the infidelities must agree within 1e-12 and every gradient entry
    /// within 1e-12 of the largest |entry|.
    fn both_forms_agree<S: RealStorage>(
        forms: Forms,
        device: &DeviceModel,
        slices: usize,
        (amps, perturbed): (&[f64], &[f64]),
        dt_ns: f64,
    ) {
        let (mut claim, plain_width, other_width) = match forms {
            Forms::Lanes(width) => match lanes::hold() {
                Some(claim) => (Some(claim), width, width),
                None => return, // a single-CPU host has one form only
            },
            Forms::Widths(width) => (None, None, Some(width)),
        };
        let qubits = device.num_qubits();
        let target = (1..qubits).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        let mut plain = engine_at_width::<S>(device, &target, slices, plain_width);
        let mut other = engine_at_width::<S>(device, &target, slices, other_width);
        let fused = matches!(forms, Forms::Widths(Width::Avx512(_)));
        for (amps, what) in [(amps, "cold"), (perturbed, "second")] {
            let pulse = pulse_from(device, slices, dt_ns, amps);
            let expected = plain.fidelity_gradient(&pulse, None);
            let got = other.fidelity_gradient(&pulse, claim.as_mut());
            let (dim, width) = (device.dim(), other.width);
            if fused {
                let gap = (expected - got).abs();
                assert!(
                    gap < 1e-12,
                    "dim {dim}, {slices} slices, {width:?}, {what}: infidelity {expected:e} vs \
                     {got:e}"
                );
                let largest = plain.gradient.iter().fold(0.0f64, |m, g| m.max(g.abs()));
                for (index, (a, b)) in plain.gradient.iter().zip(&other.gradient).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-12 * largest,
                        "dim {dim}, {slices} slices, {width:?}, {what}: gradient entry {index}, \
                         {a:e} vs {b:e}, largest |entry| {largest:e}"
                    );
                }
                continue;
            }
            assert_eq!(
                expected.to_bits(),
                got.to_bits(),
                "dim {dim}, {slices} slices, {width:?}, {what}: infidelity {expected:e} vs {got:e}"
            );
            for (index, (a, b)) in plain.gradient.iter().zip(&other.gradient).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dim {dim}, {slices} slices, {width:?}, {what}: gradient entry {index}, \
                     {a:e} vs {b:e}"
                );
            }
        }
    }

    /// Slice counts a lane split must survive: one slice (an empty first
    /// lane), two, odd counts, counts on either side of the engage threshold
    /// of [`lanes::claim`], and lane halves that end on, before and after a
    /// boundary of the eigensolver's groups of [`EIGH_LANES`] — remainders
    /// of one, two and three.
    const LANE_SLICE_COUNTS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 24, 40];

    proptest! {
        // A 4q case is ~64 2q cases per eigensolve; every slice count, two
        // engines, two pulses.
        #![proptest_config(ProptestConfig::with_cases(2))]

        #[test]
        fn one_and_two_lanes_agree_bit_for_bit(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            let qutrit = DeviceModel::qubits_line(1).with_qutrit_levels();
            let two_qutrits = DeviceModel::qubits_line(2).with_qutrit_levels();
            assert_eq!((qutrit.dim(), two_qutrits.dim()), (3, 9));
            let pulses = (&amps[..], &perturbed[..]);
            let lane_forms = |dim| Forms::Lanes(Width::for_dim(dim));
            // Dim 16 under the AVX-512 twin wherever the host has one.
            let lanes_16 = Forms::Lanes(Width::avx512().or(Width::for_dim(16)));
            for slices in LANE_SLICE_COUNTS {
                // The Jacobi dimensions, cold and then warm-started: stack 4
                // and heap 3.
                both_forms_agree::<RealSmallMatrix<4>>(
                    lane_forms(4), &DeviceModel::qubits_line(2), slices, pulses, dt,
                );
                both_forms_agree::<RealMatrix>(lane_forms(3), &qutrit, slices, pulses, dt);
                both_forms_agree::<RealSmallMatrix<8>>(
                    lane_forms(8), &DeviceModel::qubits_line(3), slices, pulses, dt,
                );
                both_forms_agree::<RealSmallMatrix<16>>(
                    lanes_16, &DeviceModel::qubits_line(4), slices, pulses, dt,
                );
                both_forms_agree::<RealMatrix>(lane_forms(9), &two_qutrits, slices, pulses, dt);
            }
        }

        #[test]
        fn avx2_twin_keeps_the_baseline_bits_and_the_fused_twin_its_bounds(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            let line = DeviceModel::qubits_line;
            let pulses = (&amps[..], &perturbed[..]);
            // Every twin the host has, not only the one the rule picks, at
            // every stack dimension and heap 3 and 9; whole groups, a padded
            // one and a one-matrix remainder. AVX2 to the bit, the fused
            // AVX-512 twin within bounds.
            for width in host_widths() {
                let forms = Forms::Widths(width);
                for slices in [3, 6, 11] {
                    both_forms_agree::<RealSmallMatrix<2>>(forms, &line(1), slices, pulses, dt);
                    both_forms_agree::<RealSmallMatrix<4>>(forms, &line(2), slices, pulses, dt);
                    both_forms_agree::<RealSmallMatrix<8>>(forms, &line(3), slices, pulses, dt);
                    both_forms_agree::<RealSmallMatrix<16>>(forms, &line(4), slices, pulses, dt);
                    for qutrits in [1, 2] {
                        let device = line(qutrits).with_qutrit_levels();
                        both_forms_agree::<RealMatrix>(forms, &device, slices, pulses, dt);
                    }
                }
            }
        }
    }

    /// Holds the armed profile of one cold iteration on a `qubits`-qubit
    /// line to the sum of every slice's own one-lane iteration count, as one
    /// lane and as two. Seven slices are a whole group and a padded one on
    /// one lane, a padded group beside a whole one on two; ten are two groups
    /// and a one-matrix remainder of two, or twice a group and a remainder of
    /// one. A padding lane must count nothing, and a slice that converges
    /// early must not be charged the rounds its group went on for.
    fn assert_profile_counts_each_slice<const N: usize>(qubits: usize) {
        let device = DeviceModel::qubits_line(qubits);
        let target = (1..qubits).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        for slices in [7, 10] {
            let pulse = PulseSequence::seeded_guess(&device, slices, 0.5, 7);
            let engine = engine_for::<RealSmallMatrix<N>>(&device, &target, slices);
            let counts: Vec<u64> = (0..slices)
                .map(|t| {
                    let (mut h, mut v) = (RealSmallMatrix::<N>::ZERO, RealSmallMatrix::ZERO);
                    engine.model.assemble_dense(&pulse, t, &mut h);
                    let mut scratch = vec![0.0; eigh_scratch_len(N)];
                    h.eigh_in_place(&mut [0.0; N], &mut v, &mut scratch) as u64
                })
                .collect();
            let (fewest, most) = (counts.iter().min(), counts.iter().max());
            assert!(
                fewest > Some(&0) && fewest < most,
                "dim {N}: every driven slice iterates, some longer than others: {counts:?}"
            );
            for mut claim in [None, lanes::hold()] {
                // Another test may disarm the process-wide flag in between;
                // it is left armed, which no test of this crate minds.
                while !profile::active() {
                    profile::set_armed(true);
                    profile::begin_block();
                }
                engine.clone().fidelity_gradient(&pulse, claim.as_mut());
                let block = profile::take_block().expect("the block was latched");
                assert_eq!(
                    block.jacobi_sweeps,
                    counts.iter().sum::<u64>(),
                    "dim {N}, {slices} slices, two lanes: {}",
                    claim.is_some()
                );
            }
        }
    }

    #[test]
    fn the_profile_counts_every_slices_own_ql_iterations() {
        assert_profile_counts_each_slice::<16>(4);
    }

    #[test]
    fn the_profile_counts_every_slices_own_jacobi_sweeps() {
        assert_profile_counts_each_slice::<4>(2);
    }

    /// A 4-qubit, 40-slice iteration whose pulse is ragged: every waveform but
    /// the first stops at `ragged_at`, so assembling any later slice panics —
    /// in the second lane only when `ragged_at` is past the split, in both
    /// lanes when it is before. Returns the panic the caller saw.
    fn ragged_two_lane_iteration(ragged_at: usize) -> Box<dyn std::any::Any + Send> {
        let device = DeviceModel::qubits_line(4);
        let target = (1..4).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        let mut pulse = PulseSequence::seeded_guess(&device, 40, 0.5, 3);
        for waveform in pulse.waveforms_mut().iter_mut().skip(1) {
            waveform.truncate(ragged_at);
        }
        lanes::within_deadline(move || {
            let mut claim = lanes::hold().expect("the host has a helper");
            let mut engine = engine_for::<RealSmallMatrix<16>>(&device, &target, 40);
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.fidelity_gradient(&pulse, Some(&mut claim));
            }))
            .expect_err("a ragged pulse must panic")
        })
    }

    #[test]
    fn a_lane_panic_reaches_the_caller_and_the_next_run_gets_two_lanes() {
        if !lanes::available() {
            return;
        }
        // Slices 20..40 are the helper's: 30 faults lane 1 alone, 5 both lanes.
        for ragged_at in [30, 5] {
            let payload = ragged_two_lane_iteration(ragged_at);
            let message = lanes::panic_message(payload.as_ref());
            assert!(
                message.contains("index out of bounds"),
                "ragged at {ragged_at}: unexpected panic {message:?}"
            );
            // The unwind released the helper and it still serves.
            lanes::within_deadline(|| {
                let amps: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin()).collect();
                let device = DeviceModel::qubits_line(4);
                let pulses = (&amps[..], &amps[..]);
                let forms = Forms::Lanes(Width::for_dim(16));
                both_forms_agree::<RealSmallMatrix<16>>(forms, &device, 40, pulses, 0.5);
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn stack_and_heap_agree_1q(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            stack_and_heap_agree::<2>(1, &amps, &perturbed, dt);
        }

        #[test]
        fn stack_and_heap_agree_2q(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            stack_and_heap_agree::<4>(2, &amps, &perturbed, dt);
        }
    }

    proptest! {
        // The two larger monomorphizations cost 8x and 64x a 2q case per
        // eigensolve, so they take fewer cases.
        #![proptest_config(ProptestConfig::with_cases(4))]

        #[test]
        fn stack_and_heap_agree_3q(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            stack_and_heap_agree::<8>(3, &amps, &perturbed, dt);
        }

        #[test]
        fn stack_and_heap_agree_4q(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            stack_and_heap_agree::<16>(4, &amps, &perturbed, dt);
        }
    }

    #[test]
    fn engine_agrees_with_the_independent_verifier() {
        // The gradient oracle's devices and targets: the closed form (stack
        // 2), warm-started Jacobi (stack 4, heap 3) and cold QL (stack 8 and
        // 16, heap 9), each checked by `final_unitary`, which shares none of
        // the engine's code. Two pulses through each workspace: the second
        // evaluation is the warm-started one wherever the dimension has a warm
        // start, and it carries an idle slice (the zero Hamiltonian). Dim 16
        // runs the fused AVX-512 twin wherever the host has it, whatever the
        // rule picks, and also 400 slices at the paper's sample period (a
        // 20 ns block): the `W_t` chain over a long product.
        let cases = [
            (DeviceModel::qubits_line(1), gates::h()),
            (DeviceModel::qubits_line(2), gates::cx()),
            (DeviceModel::qubits_line(3), gates::cx().kron(&gates::h())),
            (DeviceModel::qubits_line(4), gates::cx().kron(&gates::cx())),
            (DeviceModel::qubits_line(1).with_qutrit_levels(), gates::h()),
            (
                DeviceModel::qubits_line(2).with_qutrit_levels(),
                gates::cx(),
            ),
        ];
        let paper_dt = crate::grape::GrapeOptions::paper().dt_ns;
        for (device, target) in cases {
            let dim = device.dim();
            let (width, lengths) = match dim {
                16 => (
                    Width::avx512().or(Width::for_dim(16)),
                    &[8, 40, 80, 400][..],
                ),
                _ => (Width::for_dim(dim), &[8, 40, 80][..]),
            };
            for &slices in lengths {
                let controls = device.control_hamiltonians();
                let mut workspace = GrapeWorkspace::at_width(&device, &controls, slices, width);
                workspace.set_target(&device, &target);
                let dt = if slices == 400 { paper_dt } else { 0.5 };
                for seed in [3, 4] {
                    let mut pulse = PulseSequence::seeded_guess(&device, slices, dt, seed);
                    if seed == 4 {
                        for k in 0..device.num_controls() {
                            pulse.set_amplitude(k, 2, 0.0);
                        }
                    }
                    let engine = workspace.fidelity_gradient(&pulse);
                    let verifier = crate::grape::evaluate_pulse(&target, &device, &pulse);
                    assert!(
                        (engine - verifier).abs() < 1e-10,
                        "dim {dim}, {slices} slices, {width:?}, seed {seed}: engine {engine} \
                         vs verifier {verifier}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "set_target")]
    fn gradient_without_target_is_rejected() {
        let device = DeviceModel::qubits_line(1);
        let pulse = PulseSequence::seeded_guess(&device, 4, 0.5, 1);
        let mut workspace = GrapeWorkspace::new(&device, 4);
        workspace.fidelity_gradient(&pulse);
    }

    #[test]
    #[should_panic(expected = "slices")]
    fn mismatched_slice_count_is_rejected() {
        let device = DeviceModel::qubits_line(1);
        let pulse = PulseSequence::seeded_guess(&device, 4, 0.5, 1);
        let mut workspace = GrapeWorkspace::new(&device, 5);
        workspace.set_target(&device, &gates::h());
        workspace.fidelity_gradient(&pulse);
    }
}
