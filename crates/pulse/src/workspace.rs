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
//! once, in [`Engine`], generic over the crate-private [`RealStorage`] trait, as
//! phases over slice ranges: a wide block's iteration runs them as two lanes,
//! the second on the [`crate::lanes`] helper thread, bit for bit. Each phase
//! is compiled twice from its one source (`lane_phase!`): for the build's
//! baseline target, and for AVX2, which the engine picks once, at
//! construction, where the CPU has it — again bit for bit, since neither
//! fuses a multiply into an add; the call into that second instantiation is
//! this module's one `unsafe`. Every
//! matrix in a GRAPE run has a dimension fixed by the device, so the workspace
//! picks the storage from `device.dim()` at construction and nothing else:
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
//! [`Planar`]: a pair `(re, im)` of the same real storage. A product with an
//! eigenvector matrix is then two real products and the one complex·complex
//! product per slice four — every product of the engine is the same `f64`
//! loop nest, and nothing multiplies interleaved complex entries. The
//! engine's constructor asserts the premise, so there is no complex fallback.
//!
//! **Sweeps in the eigenbasis.** With `H_t = V_t Λ_t V_tᵀ` the slice propagator
//! is `U_t = V_t D_t V_tᵀ`, `D_t = e^{-iΔtΛ_t}`, and the engine never forms it.
//! The forward sweep carries `F_t = U_t ⋯ U_0` through each slice's eigenbasis,
//! `A_t = V_tᵀ·F_{t-1}`, `F_t = V_t·(D_t A_t)`, and the backward sweep carries
//! the co-state `K_t = target†·U_{T-1} ⋯ U_{t+1}` the same way,
//! `B_t = K_t·V_t`, `K_{t-1} = (B_t D_t)·V_tᵀ` — four real·planar products per
//! slice, the diagonal `D_t` applied as a row or column scaling. What the
//! sweeps keep per slice is `A_t` and `B_t`, and their product is the matrix
//! the Daleckii–Krein formula wants: `Vᵀ·F_{t-1}·K_t·V = A_t·B_t`.
//! Either eigensolver — Jacobi warm-started from the slice's previous
//! eigenbasis below dim 8, cold Householder–QL from there up — is a chain of
//! dependent square roots and divisions; the slices of one iteration are
//! independent, so a lane solves its slices four at a time, in lockstep, one
//! slice per vector lane ([`vqc_linalg::real::eigh_symmetric`]), each slice
//! getting the bits it would get alone (a 2q slice 0.80 → 0.56 µs at AVX2
//! width when the Jacobi side went lockstep, PR 20).
//! [`GrapeWorkspace::propagate`] multiplies `U_t` and `F_t` out of the same
//! buffers for export; [`crate::propagate`] drives that path (the Taylor
//! [`vqc_linalg::expm`] stays as an independent reference that a debug
//! assertion checks it against).

use crate::lanes::{self, Claim};
use crate::profile::{self, Phase};
use crate::propagate::Propagation;
use crate::{ControlHamiltonian, DeviceModel, PulseSequence};
use std::fmt::Debug;
use vqc_linalg::real::{eigh_scratch_len, eigh_symmetric, QlLane, QL_MIN_DIM};
use vqc_linalg::{Matrix, RealMatrix, RealSmallMatrix, C64};

/// Proof that this CPU has AVX2, for the one `unsafe` call of [`lane_phase!`].
mod width {
    /// Exists only where [`Avx2::detect`] found the feature: the field is
    /// private to this module, so nothing else can make one.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx2(());

    impl Avx2 {
        /// `Some` on an x86-64 CPU that reports AVX2, `None` everywhere else.
        pub(super) fn detect() -> Option<Avx2> {
            #[cfg(target_arch = "x86_64")]
            if std::arch::is_x86_feature_detected!("avx2") {
                return Some(Avx2(()));
            }
            None
        }
    }
}
use width::Avx2;

/// Defines one phase of an iteration over one lane's share of the buffers, as
/// `$name(wide, …)`. The body is compiled twice from this one source: for the
/// build's baseline target (SSE2 on x86-64), and — everything beneath a phase
/// being `#[inline(always)]` — again inside a `#[target_feature(enable =
/// "avx2")]` twin, which `wide` selects. Rust never contracts `a * b + c` and
/// the twin enables no `fma`, so both run the same IEEE operations in the same
/// order and agree bit for bit: the width decides how many of them one
/// instruction carries, and a report does not depend on the host. Other
/// architectures have the baseline only.
macro_rules! lane_phase {
    (
        $(#[$attribute:meta])*
        fn $name:ident<S: RealStorage>($($arg:ident: $ty:ty),* $(,)?) $(-> $ret:ty)? $body:block
    ) => {
        $(#[$attribute])*
        fn $name<S: RealStorage>(wide: Option<Avx2>, $($arg: $ty),*) $(-> $ret)? {
            #[inline(always)]
            fn baseline<S: RealStorage>($($arg: $ty),*) $(-> $ret)? $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2")]
            fn twin<S: RealStorage>($($arg: $ty),*) $(-> $ret)? {
                baseline($($arg),*)
            }

            #[cfg(target_arch = "x86_64")]
            if wide.is_some() {
                // SAFETY: `twin` needs AVX2, and an `Avx2` exists only where
                // `is_x86_feature_detected!("avx2")` said the CPU has it.
                return unsafe { twin($($arg),*) };
            }
            let _ = wide;
            baseline($($arg),*)
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
    fn mul_into(&self, rhs: &Self, out: &mut Self);
    /// Adds `sign · self · rhs` to `out`.
    fn mul_onto(&self, sign: f64, rhs: &Self, out: &mut Self);
    /// Writes `selfᵀ` into `out`.
    fn transpose_into(&self, out: &mut Self);
}

// What a lane phase calls is `#[inline(always)]`, here and in `vqc-linalg`,
// so that each of the phase's two instantiations ([`lane_phase!`]) compiles
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
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    #[inline(always)]
    fn mul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        self.matmul_onto(sign, rhs, out);
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
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    #[inline(always)]
    fn mul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        self.matmul_onto(sign, rhs, out);
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
    fn real_times(lhs: &S, rhs: &Self, out: &mut Self) {
        lhs.mul_into(&rhs.re, &mut out.re);
        lhs.mul_into(&rhs.im, &mut out.im);
    }

    /// Writes `lhs · rhs`, for a real `rhs`.
    #[inline(always)]
    fn times_real(lhs: &Self, rhs: &S, out: &mut Self) {
        lhs.re.mul_into(rhs, &mut out.re);
        lhs.im.mul_into(rhs, &mut out.im);
    }

    /// Writes the complex product `lhs · rhs`: four real products.
    #[inline(always)]
    fn times(lhs: &Self, rhs: &Self, out: &mut Self) {
        lhs.re.mul_into(&rhs.re, &mut out.re);
        lhs.im.mul_onto(-1.0, &rhs.im, &mut out.re);
        lhs.re.mul_into(&rhs.im, &mut out.im);
        lhs.im.mul_onto(1.0, &rhs.re, &mut out.im);
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
    /// `H_t = drift + Σ_k u_k(t) · H_k` over the packed nonzero lists.
    #[inline(always)]
    fn assemble(&self, pulse: &PulseSequence, t: usize, hamiltonian: &mut S) {
        let hamiltonian = hamiltonian.entries_mut();
        hamiltonian.copy_from_slice(self.drift.entries());
        for (k, entries) in self.control_sparse.iter().enumerate() {
            let amp = pulse.amplitude(k, t);
            if amp != 0.0 {
                for &(index, value) in entries {
                    hamiltonian[index] += value * amp;
                }
            }
        }
    }
}

/// One slice's eigensystem: what the diagonalization phase fills and the other
/// two read.
#[derive(Debug, Clone)]
struct Eigensystem<S> {
    /// Assembled each propagation, then consumed by the eigensolver.
    h: S,
    v: S,
    /// `vᵀ`, refreshed after each eigensolve.
    vt: S,
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
    fn enter_eigenbasis(&mut self, product: &mut S) {
        self.vt.mul_into(&self.h, product);
        product.mul_into(&self.v, &mut self.h);
    }

    /// Warm start, second half: `v ← v·V'`, with `V'` the eigenvectors of
    /// the rotated `h`, which the solve left in `vt`.
    #[inline(always)]
    fn leave_eigenbasis(&mut self, product: &mut S) {
        self.v.mul_into(&self.vt, product);
        self.v.entries_mut().copy_from_slice(product.entries());
    }

    /// This slice as one matrix of a batched eigensolve: `h` in, eigenvalues
    /// and eigenvectors out — into `v` cold, into `vt` warm (the rotated
    /// problem's eigenvectors, for [`Eigensystem::leave_eigenbasis`]).
    #[inline(always)]
    fn eigh_lane(&mut self, warm: bool) -> QlLane<'_> {
        let vectors = if warm { &mut self.vt } else { &mut self.v };
        (
            self.h.entries_mut(),
            &mut self.lambdas,
            vectors.entries_mut(),
        )
    }
}

/// Slices the eigensolver takes side by side: one vector of four `f64`s at
/// AVX2 width, two of two at the baseline.
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
    /// then eigensystems, then `Vᵀ` and the phases `e^{-iΔtλ}`. It is
    /// pass-major so an armed profiler pays one `mark` per pass rather than
    /// per slice. Returns the lane's eigensolver iterations, each slice's own.
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
    fn diagonalize<S: RealStorage>(
        model: &Model<S>,
        pulse: &PulseSequence,
        warmed: bool,
        lane: (usize, &mut [Eigensystem<S>]),
        scratch: &mut Scratch<S>,
        lap: Option<&mut profile::Lap>,
    ) -> u64 {
        let ((first, slices), mut lap) = (lane, lap);
        for (i, slice) in slices.iter_mut().enumerate() {
            model.assemble(pulse, first + i, &mut slice.h);
        }
        if let Some(lap) = &mut lap {
            lap.mark(Phase::HamiltonianAssembly);
        }
        let dim = model.drift.dim();
        // Only the Jacobi side of the dimension rule has a use for the
        // previous eigenbasis; Householder–QL costs the same from any
        // starting point. (So does the 2×2 closed form, but it keeps the
        // rotation: dropping it would change the bits of every 1q pulse.)
        let warm = warmed && dim < QL_MIN_DIM;
        let Scratch { planar, eigh } = scratch;
        let product = &mut planar[0].re;
        let mut iterations = 0;
        for group in slices.chunks_mut(EIGH_LANES) {
            if warm {
                for slice in group.iter_mut() {
                    slice.enter_eigenbasis(product);
                }
            }
            if group.len() < EIGH_LANES - 1 {
                for slice in group.iter_mut() {
                    let lane = slice.eigh_lane(warm);
                    iterations += eigh_symmetric::<1>(dim, &mut [lane], eigh)[0] as u64;
                }
            } else {
                // One call site for whole and padded groups: the solver's
                // body is inlined here, once.
                let size = group.len();
                let mut lanes: [QlLane<'_>; EIGH_LANES] = Default::default();
                for (lane, slice) in lanes.iter_mut().zip(group.iter_mut()) {
                    *lane = slice.eigh_lane(warm);
                }
                let counts = eigh_symmetric::<EIGH_LANES>(dim, &mut lanes[..size], eigh);
                iterations += counts.iter().sum::<usize>() as u64;
            }
            if warm {
                for slice in group.iter_mut() {
                    slice.leave_eigenbasis(product);
                }
            }
        }
        if let Some(lap) = lap {
            lap.mark(Phase::Eigendecomposition);
        }

        for slice in slices {
            slice.v.transpose_into(&mut slice.vt);
            let phases = slice.cos.iter_mut().zip(&mut slice.sin);
            for ((cos, sin), &lambda) in phases.zip(&slice.lambdas) {
                let phase = C64::cis(-pulse.dt_ns() * lambda);
                (*cos, *sin) = (phase.re, phase.im);
            }
        }
        iterations
    }
}

lane_phase! {
    /// Phase 2, one lane: `a[t] = V_tᵀ · F_{t-1}` for every slice, leaving the
    /// total evolution `F_{T-1}` in `total`.
    fn sweep_forward<S: RealStorage>(
        eigen: &[Eigensystem<S>],
        a: &mut [Planar<S>],
        total: &mut Planar<S>,
        scratch: &mut Scratch<S>,
    ) {
        let scaled = &mut scratch.planar[0];
        for (t, (slice, a)) in eigen.iter().zip(a).enumerate() {
            if t == 0 {
                // F_{-1} is the identity.
                a.re.entries_mut().copy_from_slice(slice.vt.entries());
                a.im.entries_mut().fill(0.0);
            } else {
                Planar::real_times(&slice.vt, total, a);
            }
            slice.scale(|row, _| row, a, scaled);
            Planar::real_times(&slice.v, scaled, total);
        }
    }
}

lane_phase! {
    /// Phase 2, the other lane: the gradient's co-state, seeded with the
    /// target, `K_{T-1} = target†`: `b[t] = K_t · V_t` for every slice, with
    /// `K_{t-1} = (b[t] · D_t) · V_tᵀ` carried in the lane's scratch.
    fn sweep_backward<S: RealStorage>(
        eigen: &[Eigensystem<S>],
        target_dagger: &Planar<S>,
        b: &mut [Planar<S>],
        scratch: &mut Scratch<S>,
    ) {
        let [costate, scaled] = &mut scratch.planar;
        let (re, im) = (target_dagger.re.entries(), target_dagger.im.entries());
        costate.re.entries_mut().copy_from_slice(re);
        costate.im.entries_mut().copy_from_slice(im);
        for (t, (slice, b)) in eigen.iter().zip(b).enumerate().rev() {
            Planar::times_real(costate, &slice.v, b);
            if t > 0 {
                slice.scale(|_, column| column, b, scaled);
                Planar::times_real(scaled, &slice.vt, costate);
            }
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
    fn contract<S: RealStorage>(
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
            Planar::times(&a[t], &b[t], p);

            let slice = &eigen[t];
            let (lambdas, cos, sin) = (&slice.lambdas, &slice.cos, &slice.sin);
            // Pᵀ ∘ Γ, written into g.
            let (p_re, p_im) = (p.re.entries(), p.im.entries());
            let (g_re, g_im) = (g.re.entries_mut(), g.im.entries_mut());
            for i in 0..dim {
                for j in 0..dim {
                    let gap = lambdas[i] - lambdas[j];
                    let gamma = if gap.abs() < 1e-10 {
                        // −iΔt · e^{-iΔtλ_i}
                        (dt * sin[i], -dt * cos[i])
                    } else {
                        let inverse = 1.0 / gap;
                        ((cos[i] - cos[j]) * inverse, (sin[i] - sin[j]) * inverse)
                    };
                    let (re, im) = (p_re[i * dim + j], p_im[i * dim + j]);
                    g_re[j * dim + i] = re * gamma.0 - im * gamma.1;
                    g_im[j * dim + i] = re * gamma.1 + im * gamma.0;
                }
            }
            // G = V · (Pᵀ ∘ Γ) · Vᵀ
            Planar::real_times(&slice.v, g, p);
            Planar::times_real(p, &slice.vt, g);
            let (g_re, g_im) = (g.re.entries(), g.im.entries());

            let slots = &mut gradient[n * num_controls..][..num_controls];
            for (slot, entries) in slots.iter_mut().zip(&model.control_sparse) {
                let mut contraction = C64::ZERO;
                for &(index, h_ab) in entries {
                    contraction.re += g_re[index] * h_ab;
                    contraction.im += g_im[index] * h_ab;
                }
                let dg = contraction / model.qubit_dim;
                let dfidelity = 2.0 * (conj_overlap * dg).re;
                *slot = -dfidelity;
            }
        }
    }
}

/// The GRAPE engine: the entire hot loop, written once over a [`RealStorage`].
///
/// An iteration is three phases, each a pair of lanes over disjoint halves of
/// the buffers ([`lanes::pair`]): [`diagonalize`] on slices `0..mid` beside
/// `mid..T`, [`sweep_forward`] beside [`sweep_backward`], [`contract`] on
/// `0..mid` beside `mid..T`. With a [`lanes::Claim`] the second lane of each
/// pair runs on the helper thread and `mid = T/2`; without one both run here
/// and `mid = T`, so the second lane's ranges are empty. Every product,
/// association order and warm-start state is per slice and each lane has its
/// own [`Scratch`], so the two forms are bit-identical.
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
    /// eigenbasis. Swept only once a target is set.
    b: Vec<Planar<S>>,
    /// The total evolution `F_{T-1}`.
    total: Planar<S>,
    scratch: [Scratch<S>; 2],
    /// Whether the lane phases run their AVX2 instantiation ([`lane_phase!`]).
    wide: Option<Avx2>,
    /// Whether every slice holds a converged eigenbasis from a prior
    /// propagation, for the Jacobi dimensions to warm-start from.
    warmed: bool,
    /// `gradient[t * num_controls + k] = ∂(infidelity)/∂u_k(t)` after a
    /// `fidelity_gradient` call: slice-major, so a lane's slices are one run.
    gradient: Vec<f64>,
}

impl<S: RealStorage> Engine<S> {
    /// An engine whose lane phases run at the host's vector width when
    /// `wide`, at the build's baseline otherwise (what a host without AVX2
    /// gets either way). Same bits both ways; only tests and benches pass
    /// `false`. `controls` are `device`'s.
    fn new(
        device: &DeviceModel,
        controls: &[ControlHamiltonian],
        num_slices: usize,
        wide: bool,
    ) -> Self {
        Self::from_hamiltonians(
            &device.drift(),
            controls,
            device.qubit_dim(),
            num_slices,
            if wide { Avx2::detect() } else { None },
        )
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
        wide: Option<Avx2>,
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
            vt: zero,
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
            wide,
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
    /// sweeps through them. `lap` is the calling thread's; the helper's share
    /// of a phase shows up in it as wall time only.
    ///
    /// # Panics
    ///
    /// Panics if the pulse geometry is not the one this engine was allocated for.
    fn propagate(
        &mut self,
        pulse: &PulseSequence,
        mut claim: Option<&mut Claim>,
        lap: &mut profile::Lap,
    ) {
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
        let (model, warmed, wide) = (&self.model, self.warmed, self.wide);
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

        let (eigen, a, b, total) = (&self.eigen[..], &mut self.a, &mut self.b, &mut self.total);
        lanes::pair(
            claim,
            || sweep_forward(wide, eigen, a, total, near_scratch),
            || {
                if let Some(target_dagger) = &model.target_dagger {
                    sweep_backward(wide, eigen, target_dagger, b, far_scratch);
                }
            },
        );
        lap.mark(Phase::Propagation);

        // Every slice now holds a converged eigenbasis the next propagation can
        // warm-start from.
        self.warmed = true;
    }

    /// Propagates `pulse`, then computes its trace infidelity against the
    /// target and writes the exact gradient into `self.gradient`, as two lanes
    /// when `claim` lends the helper thread.
    fn fidelity_gradient(&mut self, pulse: &PulseSequence, mut claim: Option<&mut Claim>) -> f64 {
        let mut lap = profile::Lap::start();
        self.propagate(pulse, claim.as_deref_mut(), &mut lap);
        let model = &self.model;
        let Some(target_dagger) = model.target_dagger.as_ref() else {
            panic!("set_target must be called before fidelity_gradient");
        };
        let dim = model.drift.dim();

        // overlap = Tr(V_target† U_total) / d, as Σ_ik V_target†[i,k]·U[k,i] in O(dim²).
        let (target_re, target_im) = (target_dagger.re.entries(), target_dagger.im.entries());
        let (total_re, total_im) = (self.total.re.entries(), self.total.im.entries());
        let mut overlap = C64::ZERO;
        for i in 0..dim {
            for k in 0..dim {
                let (row_major, transposed) = (i * dim + k, k * dim + i);
                overlap += C64::new(target_re[row_major], target_im[row_major])
                    * C64::new(total_re[transposed], total_im[transposed]);
            }
        }
        overlap = overlap * (1.0 / model.qubit_dim);
        let infidelity = 1.0 - overlap.norm_sqr();
        let scalars = (pulse.dt_ns(), overlap.conj());

        let mid = self.lane_split(claim.is_some());
        let (eigen, sweeps, wide) = (&self.eigen[..], (&self.a[..], &self.b[..]), self.wide);
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

    /// Multiplies the last propagation's products out as dynamic matrices —
    /// the only place `U_t` and `F_t` exist: `U_t = V_t·D_t·V_tᵀ` from the
    /// slice's eigensystem and `F_t = V_t·(D_t·a[t])` from the forward sweep.
    /// The engine's own co-state carries the target, so the public,
    /// identity-seeded backward family is multiplied out from the `U_t`.
    fn export(&self) -> Propagation {
        let dim = self.model.drift.dim();
        let dynamic = |re: &S, im: Option<&S>| {
            let im = |k: usize| im.map_or(0.0, |im| im.entries()[k]);
            Matrix::from_fn(dim, dim, |r, c| {
                C64::new(re.entries()[r * dim + c], im(r * dim + c))
            })
        };
        let (mut slice_unitaries, mut forward) = (Vec::new(), Vec::new());
        for (slice, a) in self.eigen.iter().zip(&self.a) {
            let phase = |r: usize, c: usize| {
                if r == c {
                    C64::new(slice.cos[r], slice.sin[r])
                } else {
                    C64::ZERO
                }
            };
            let vd = dynamic(&slice.v, None).matmul(&Matrix::from_fn(dim, dim, phase));
            slice_unitaries.push(vd.matmul(&dynamic(&slice.vt, None)));
            forward.push(vd.matmul(&dynamic(&a.re, Some(&a.im))));
        }
        let mut backward = vec![Matrix::identity(dim); self.num_slices];
        for t in (0..self.num_slices - 1).rev() {
            backward[t] = backward[t + 1].matmul(&slice_unitaries[t + 1]);
        }
        Propagation {
            slice_unitaries,
            forward,
            backward,
        }
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
    /// [`GrapeWorkspace::set_target`] (propagation-only users never need one).
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
        Self::at_width(device, controls, num_slices, true)
    }

    /// [`GrapeWorkspace::new`] pinned to the build's baseline vector width
    /// whatever the host offers: what the benches and the allocation gate,
    /// which live outside this crate, measure the host's width against. The
    /// results are the same bits.
    #[doc(hidden)]
    pub fn new_at_baseline_width(device: &DeviceModel, num_slices: usize) -> Self {
        Self::at_width(device, &device.control_hamiltonians(), num_slices, false)
    }

    fn at_width(
        device: &DeviceModel,
        controls: &[ControlHamiltonian],
        num_slices: usize,
        wide: bool,
    ) -> Self {
        assert!(num_slices > 0, "a pulse needs at least one time slice");
        let kernel = match device.dim() {
            2 => Kernel::Dim2(Box::new(Engine::new(device, controls, num_slices, wide))),
            4 => Kernel::Dim4(Box::new(Engine::new(device, controls, num_slices, wide))),
            8 => Kernel::Dim8(Box::new(Engine::new(device, controls, num_slices, wide))),
            16 => Kernel::Dim16(Box::new(Engine::new(device, controls, num_slices, wide))),
            _ => Kernel::Heap(Box::new(Engine::new(device, controls, num_slices, wide))),
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

    /// Propagates a pulse through the shared eigendecomposition path and
    /// exports the per-slice propagators and forward/backward partial products
    /// as dynamic matrices. The export allocates; the optimizer loop never
    /// calls this.
    ///
    /// # Panics
    ///
    /// Panics if the pulse shape does not match the workspace.
    pub fn propagate(&mut self, pulse: &PulseSequence) -> Propagation {
        with_engine!(&mut self.kernel, engine => {
            engine.propagate(pulse, None, &mut profile::Lap::start());
            engine.export()
        })
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
        engine_at_width(device, target, slices, true)
    }

    /// [`engine_for`], at the host's vector width or pinned to the baseline.
    fn engine_at_width<S: RealStorage>(
        device: &DeviceModel,
        target: &Matrix,
        slices: usize,
        wide: bool,
    ) -> Engine<S> {
        let mut engine = Engine::<S>::new(device, &device.control_hamiltonians(), slices, wide);
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

    /// Two ways to run one iteration that must not differ in a single bit.
    #[derive(Clone, Copy)]
    enum Forms {
        /// One lane against two (the helper forced, whatever the block's
        /// width).
        Lanes,
        /// The host's vector width against the build's baseline.
        Widths,
    }

    /// Runs the engine over `S` in both of `forms` and holds the infidelity
    /// and every gradient entry to the same bits, on a cold pulse and on a
    /// second one (warm-started, on the Jacobi dimensions).
    fn both_forms_agree<S: RealStorage>(
        forms: Forms,
        device: &DeviceModel,
        slices: usize,
        (amps, perturbed): (&[f64], &[f64]),
        dt_ns: f64,
    ) {
        let (mut claim, plain_is_wide) = match forms {
            Forms::Lanes => match lanes::hold() {
                Some(claim) => (Some(claim), true),
                None => return, // a single-CPU host has one form only
            },
            Forms::Widths if Avx2::detect().is_none() => return, // one width only
            Forms::Widths => (None, false),
        };
        let width = device.num_qubits();
        let target = (1..width).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        let mut plain = engine_at_width::<S>(device, &target, slices, plain_is_wide);
        let mut other = engine_for::<S>(device, &target, slices);
        for (amps, what) in [(amps, "cold"), (perturbed, "second")] {
            let pulse = pulse_from(device, slices, dt_ns, amps);
            let expected = plain.fidelity_gradient(&pulse, None);
            let got = other.fidelity_gradient(&pulse, claim.as_mut());
            let dim = device.dim();
            assert_eq!(
                expected.to_bits(),
                got.to_bits(),
                "dim {dim}, {slices} slices, {what}: infidelity {expected:e} vs {got:e}"
            );
            for (index, (a, b)) in plain.gradient.iter().zip(&other.gradient).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dim {dim}, {slices} slices, {what}: gradient entry {index}, {a:e} vs {b:e}"
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
            for slices in LANE_SLICE_COUNTS {
                // The Jacobi dimensions, cold and then warm-started: stack 4
                // and heap 3.
                both_forms_agree::<RealSmallMatrix<4>>(
                    Forms::Lanes, &DeviceModel::qubits_line(2), slices, pulses, dt,
                );
                both_forms_agree::<RealMatrix>(Forms::Lanes, &qutrit, slices, pulses, dt);
                both_forms_agree::<RealSmallMatrix<8>>(
                    Forms::Lanes, &DeviceModel::qubits_line(3), slices, pulses, dt,
                );
                both_forms_agree::<RealSmallMatrix<16>>(
                    Forms::Lanes, &DeviceModel::qubits_line(4), slices, pulses, dt,
                );
                both_forms_agree::<RealMatrix>(Forms::Lanes, &two_qutrits, slices, pulses, dt);
            }
        }

        #[test]
        fn wide_and_baseline_instantiations_agree_bit_for_bit(
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            let line = DeviceModel::qubits_line;
            let pulses = (&amps[..], &perturbed[..]);
            // Whole groups, a padded one and a one-matrix remainder.
            for slices in [3, 6, 11] {
                both_forms_agree::<RealSmallMatrix<2>>(Forms::Widths, &line(1), slices, pulses, dt);
                both_forms_agree::<RealSmallMatrix<4>>(Forms::Widths, &line(2), slices, pulses, dt);
                both_forms_agree::<RealSmallMatrix<8>>(Forms::Widths, &line(3), slices, pulses, dt);
                both_forms_agree::<RealSmallMatrix<16>>(Forms::Widths, &line(4), slices, pulses, dt);
                for qutrits in [1, 2] {
                    let device = line(qutrits).with_qutrit_levels();
                    both_forms_agree::<RealMatrix>(Forms::Widths, &device, slices, pulses, dt);
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
                    engine.model.assemble(&pulse, t, &mut h);
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
                both_forms_agree::<RealSmallMatrix<16>>(Forms::Lanes, &device, 40, pulses, 0.5);
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
    fn workspace_propagation_matches_taylor_expm() {
        use vqc_linalg::expm::expm;
        // One device per storage and per side of the eigensolver's dimension
        // rule: a qubit (closed form, stack), a qutrit (Jacobi, heap), three
        // qubits (QL, stack) and two qutrits (QL, heap). The debug assertion
        // in `propagate.rs` stops at dim 4.
        for device in [
            DeviceModel::qubits_line(1),
            DeviceModel::qubits_line(1).with_qutrit_levels(),
            DeviceModel::qubits_line(3),
            DeviceModel::qubits_line(2).with_qutrit_levels(),
        ] {
            let pulse = PulseSequence::seeded_guess(&device, 8, 0.5, 5);
            let propagation = GrapeWorkspace::new(&device, pulse.num_slices()).propagate(&pulse);
            let controls = device.control_hamiltonians();
            let drift = device.drift();
            for (t, slice_unitary) in propagation.slice_unitaries.iter().enumerate() {
                let h = crate::propagate::slice_hamiltonian(&drift, &controls, &pulse, t);
                let taylor = expm(&h.scale(C64::new(0.0, -pulse.dt_ns())));
                assert!(
                    slice_unitary.approx_eq(&taylor, 1e-12),
                    "dim {} slice {t} diverges from the Taylor reference",
                    device.dim()
                );
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
        workspace.propagate(&pulse);
    }
}
