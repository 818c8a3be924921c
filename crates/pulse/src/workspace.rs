//! The reusable GRAPE iteration workspace.
//!
//! GRAPE spends its entire budget evaluating [`GrapeWorkspace::fidelity_gradient`]:
//! hundreds of optimizer iterations, each diagonalizing every slice Hamiltonian and
//! multiplying out the forward/backward partial products. The seed implementation
//! heap-allocated every one of those matrices on every iteration; this workspace
//! owns all of them — per-slice eigensystems, propagators, partial products, and the
//! gradient scratch — allocated once per [`crate::grape::try_optimize_pulse`] call
//! and reused across all iterations. After construction (and one `set_target`),
//! `fidelity_gradient` performs **zero** heap allocations, which `vqc-pulse`'s
//! counting-allocator test asserts.
//!
//! The propagation pass and the Daleckii–Krein gradient pass are each written
//! once, in [`Engine`], generic over the crate-private [`Storage`] trait, as
//! phases over slice ranges: a wide block's iteration runs them as two lanes,
//! the second on the [`crate::lanes`] helper thread, bit for bit. Every
//! matrix in a GRAPE run has a dimension fixed by the device, so the workspace
//! picks the storage from `device.dim()` at construction and nothing else:
//! inline const-generic [`SmallMatrix`] for dims 2/4/8/16 — every width a
//! compiler with `max_block_width = 4` can plan on a qubit device — and heap
//! [`Matrix`] rows for every other dimension (qutrit devices at 3/9/27/81,
//! qubit lines wider than four). Both instances run the same body, so their
//! gradients agree to machine precision; the in-crate parity tests hold them
//! to 1e-12 at every stack dimension.
//!
//! The engine is real where the physics is real. Every Hamiltonian a
//! [`DeviceModel`] produces is real symmetric (Appendix A: charge `a + a†`,
//! flux `a†a`, coupling `(a + a†)(a + a†)`, zero drift), so slice
//! Hamiltonians, their eigenvectors, the warm-start rotation `VᵀHV` and the
//! Jacobi solver run in `f64` on the storage's real companion;
//! only the phases `e^{-iΔtλ}`, the propagators and their partial products are
//! complex, and the products between the two are mixed real·complex kernels.
//! The engine's constructor asserts the premise, so there is no complex
//! fallback.
//!
//! The workspace is also the single home of the eigendecomposition-based slice
//! propagator `U_t = V e^{-iΔtΛ} Vᵀ`; [`crate::propagate`] drives the same path (the
//! Taylor [`vqc_linalg::expm`] stays as an independent reference that a debug
//! assertion checks it against).

use crate::lanes::{self, Claim};
use crate::profile::{self, Phase};
use crate::propagate::Propagation;
use crate::{ControlHamiltonian, DeviceModel, PulseSequence};
use std::fmt::Debug;
use vqc_linalg::{Matrix, RealMatrix, RealSmallMatrix, SmallMatrix, C64};

/// The square real matrix storage of an [`Engine`]'s Hamiltonians and
/// eigenvectors: the three products they enter and the symmetric eigensolver.
/// Like [`Storage`], every method forwards to the `vqc-linalg` kernel for that
/// type.
trait RealStorage: Clone + Debug + Send + Sync {
    /// The complex storage of the same dimension.
    type Complex;

    fn zeros(dim: usize) -> Self;
    /// The matrix dimension (a compile-time constant on the stack).
    fn dim(&self) -> usize;
    /// Row-major entries.
    fn entries(&self) -> &[f64];
    fn entries_mut(&mut self) -> &mut [f64];
    /// Writes `self · rhs` into `out`.
    fn mul_into(&self, rhs: &Self, out: &mut Self);
    /// Writes `selfᵀ` into `out`.
    fn transpose_into(&self, out: &mut Self);
    /// Writes `self · rhs` into the complex `out`.
    fn mul_complex_into(&self, rhs: &Self::Complex, out: &mut Self::Complex);
    /// Diagonalizes symmetric `self` — consumed as the solver's working copy —
    /// into ascending `lambdas` and the matching `vectors` columns; returns the
    /// Jacobi sweep count.
    fn diagonalize(&mut self, lambdas: &mut [f64], vectors: &mut Self) -> usize;
}

/// The square complex matrix storage an [`Engine`] runs over: entry access and
/// the allocation-free `_into` products. Exactly two implementations exist —
/// stack [`SmallMatrix`] and heap [`Matrix`] — each paired with its real
/// companion.
trait Storage: Clone + Debug + Send + Sync {
    /// The real storage of the same dimension.
    type Real: RealStorage<Complex = Self>;

    /// Copies a square dynamic matrix into this storage.
    fn from_matrix(source: &Matrix) -> Self;
    /// The matrix dimension (a compile-time constant on the stack).
    fn dim(&self) -> usize;
    fn entries(&self) -> &[C64];
    fn entries_mut(&mut self) -> &mut [C64];
    /// Writes `self · rhs` into `out`.
    fn mul_into(&self, rhs: &Self, out: &mut Self);
    /// Writes `self · rhs` into `out`, for a real `rhs`.
    fn mul_real_into(&self, rhs: &Self::Real, out: &mut Self);

    fn at(&self, row: usize, col: usize) -> C64 {
        self.entries()[row * self.dim() + col]
    }
    fn put(&mut self, row: usize, col: usize, value: C64) {
        let dim = self.dim();
        self.entries_mut()[row * dim + col] = value;
    }
}

impl<const N: usize> RealStorage for RealSmallMatrix<N> {
    type Complex = SmallMatrix<N>;

    fn zeros(_dim: usize) -> Self {
        Self::ZERO
    }
    fn dim(&self) -> usize {
        N
    }
    fn entries(&self) -> &[f64] {
        self.as_slice()
    }
    fn entries_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    #[inline]
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    #[inline]
    fn transpose_into(&self, out: &mut Self) {
        RealSmallMatrix::transpose_into(self, out);
    }
    #[inline]
    fn mul_complex_into(&self, rhs: &SmallMatrix<N>, out: &mut SmallMatrix<N>) {
        RealSmallMatrix::mul_complex_into(self, rhs, out);
    }
    #[inline]
    fn diagonalize(&mut self, lambdas: &mut [f64], vectors: &mut Self) -> usize {
        self.eigh_in_place(lambdas, vectors)
    }
}

impl<const N: usize> Storage for SmallMatrix<N> {
    type Real = RealSmallMatrix<N>;

    fn from_matrix(source: &Matrix) -> Self {
        SmallMatrix::from_matrix(source)
    }
    fn dim(&self) -> usize {
        N
    }
    fn entries(&self) -> &[C64] {
        self.as_slice()
    }
    fn entries_mut(&mut self) -> &mut [C64] {
        self.as_mut_slice()
    }
    #[inline]
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    #[inline]
    fn mul_real_into(&self, rhs: &RealSmallMatrix<N>, out: &mut Self) {
        SmallMatrix::mul_real_into(self, rhs, out);
    }
}

impl RealStorage for RealMatrix {
    type Complex = Matrix;

    fn zeros(dim: usize) -> Self {
        RealMatrix::zeros(dim)
    }
    fn dim(&self) -> usize {
        RealMatrix::dim(self)
    }
    fn entries(&self) -> &[f64] {
        self.as_slice()
    }
    fn entries_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    fn transpose_into(&self, out: &mut Self) {
        RealMatrix::transpose_into(self, out);
    }
    fn mul_complex_into(&self, rhs: &Matrix, out: &mut Matrix) {
        RealMatrix::mul_complex_into(self, rhs, out);
    }
    fn diagonalize(&mut self, lambdas: &mut [f64], vectors: &mut Self) -> usize {
        self.eigh_in_place(lambdas, vectors)
    }
}

impl Storage for Matrix {
    type Real = RealMatrix;

    fn from_matrix(source: &Matrix) -> Self {
        source.clone()
    }
    fn dim(&self) -> usize {
        self.rows()
    }
    fn entries(&self) -> &[C64] {
        self.as_slice()
    }
    fn entries_mut(&mut self) -> &mut [C64] {
        self.as_mut_slice()
    }
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    fn mul_real_into(&self, rhs: &RealMatrix, out: &mut Self) {
        Matrix::mul_real_into(self, rhs, out);
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
struct Model<S: Storage> {
    qubit_dim: f64,
    drift: S::Real,
    /// `(row-major index, entry)` nonzeros of each control operator, in
    /// row-major order.
    control_sparse: Vec<Vec<(usize, f64)>>,
    /// `(padded target)†`, set by [`GrapeWorkspace::set_target`].
    target_dagger: Option<S>,
}

impl<S: Storage> Model<S> {
    /// `H_t = drift + Σ_k u_k(t) · H_k` over the packed nonzero lists.
    fn assemble(&self, pulse: &PulseSequence, t: usize, hamiltonian: &mut S::Real) {
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

/// The packed per-slice buffer families of an [`Engine`]: what the
/// diagonalization and the sweeps fill and the gradient contraction reads.
#[derive(Debug, Clone)]
struct Families<S: Storage> {
    /// Assembled each propagation, then consumed by the eigensolver.
    slice_h: Vec<S::Real>,
    slice_v: Vec<S::Real>,
    /// `slice_v[t]ᵀ`, refreshed by the propagator pass.
    slice_vt: Vec<S::Real>,
    /// `dim` ascending eigenvalues per slice, slice-major.
    lambdas: Vec<f64>,
    /// `e^{-iΔtλ}` for each entry of `lambdas`.
    phases: Vec<C64>,
    slice_u: Vec<S>,
    forward: Vec<S>,
    /// The gradient's co-state, `backward[t] = target† · U_{T-1} ⋯ U_{t+1}`:
    /// swept only once a target is set.
    backward: Vec<S>,
}

/// One lane's scratch matrices.
#[derive(Debug, Clone)]
struct Scratch<S: Storage> {
    real_a: S::Real,
    real_b: S::Real,
    a: S,
    b: S,
    c: S,
}

/// One lane's share of the per-slice families the diagonalization pass fills:
/// slices `first..first + u.len()` of each.
struct Slices<'a, S: Storage> {
    first: usize,
    h: &'a mut [S::Real],
    v: &'a mut [S::Real],
    vt: &'a mut [S::Real],
    lambdas: &'a mut [f64],
    phases: &'a mut [C64],
    u: &'a mut [S],
}

impl<S: Storage> Slices<'_, S> {
    /// The first `mid` slices and the rest, as two disjoint lanes.
    fn split_at(self, mid: usize, dim: usize) -> (Self, Self) {
        let (h, h_rest) = self.h.split_at_mut(mid);
        let (v, v_rest) = self.v.split_at_mut(mid);
        let (vt, vt_rest) = self.vt.split_at_mut(mid);
        let (lambdas, lambdas_rest) = self.lambdas.split_at_mut(mid * dim);
        let (phases, phases_rest) = self.phases.split_at_mut(mid * dim);
        let (u, u_rest) = self.u.split_at_mut(mid);
        let first = self.first;
        (
            Slices {
                first,
                h,
                v,
                vt,
                lambdas,
                phases,
                u,
            },
            Slices {
                first: first + mid,
                h: h_rest,
                v: v_rest,
                vt: vt_rest,
                lambdas: lambdas_rest,
                phases: phases_rest,
                u: u_rest,
            },
        )
    }
}

/// Diagonalizes symmetric `h` into ascending `lambdas` and the eigenvector
/// columns `v`, returning the Jacobi sweep count. With `warmed`, `v` and `vt`
/// hold the slice's eigenbasis from the previous propagation (`vt` is
/// refreshed only by the propagator pass, after this).
fn eigensolve<S: Storage>(
    h: &mut S::Real,
    vt: &S::Real,
    v: &mut S::Real,
    lambdas: &mut [f64],
    warmed: bool,
    scratch: &mut Scratch<S>,
) -> usize {
    if !warmed {
        return h.diagonalize(lambdas, v);
    }
    // Warm-started Jacobi: rotate H into this slice's previous eigenbasis,
    // H' = Vᵀ H V. Between optimizer iterations the amplitudes move only
    // slightly, so H' is nearly diagonal and the sweep count collapses (to
    // zero when the slice is re-evaluated unchanged). Compose
    // V ← V_prev · V' after.
    let (real_a, real_b) = (&mut scratch.real_a, &mut scratch.real_b);
    vt.mul_into(h, real_a);
    real_a.mul_into(v, real_b);
    let sweeps = real_b.diagonalize(lambdas, real_a);
    v.mul_into(real_a, real_b);
    v.entries_mut().copy_from_slice(real_b.entries());
    sweeps
}

/// Phase 1 of an iteration, for one lane's slices: Hamiltonians, then
/// eigensystems, then propagators, each streaming through its packed family.
/// It is pass-major so an armed profiler pays one `mark` per pass rather than
/// per slice. Returns the lane's Jacobi sweeps.
fn diagonalize<S: Storage>(
    model: &Model<S>,
    pulse: &PulseSequence,
    warmed: bool,
    slices: Slices<'_, S>,
    scratch: &mut Scratch<S>,
    mut mark: impl FnMut(Phase),
) -> u64 {
    let dim = model.drift.dim();
    let dt = pulse.dt_ns();
    for (i, h) in slices.h.iter_mut().enumerate() {
        model.assemble(pulse, slices.first + i, h);
    }
    mark(Phase::HamiltonianAssembly);
    let mut sweeps = 0u64;
    for (i, h) in slices.h.iter_mut().enumerate() {
        let lambdas = &mut slices.lambdas[i * dim..][..dim];
        sweeps += eigensolve(h, &slices.vt[i], &mut slices.v[i], lambdas, warmed, scratch) as u64;
    }
    mark(Phase::Eigendecomposition);

    // Propagator pass: U_t = V · (diag(phases) · Vᵀ) — scale the rows of Vᵀ,
    // then one real·complex product; Vᵀ is kept for the next warm start and
    // the gradient pass.
    for (i, u) in slices.u.iter_mut().enumerate() {
        let lambdas = &slices.lambdas[i * dim..][..dim];
        let phases = &mut slices.phases[i * dim..][..dim];
        for (phase, &lambda) in phases.iter_mut().zip(lambdas) {
            *phase = C64::cis(-dt * lambda);
        }
        let v = &slices.v[i];
        v.transpose_into(&mut slices.vt[i]);
        let scaled = scratch.a.entries_mut().chunks_exact_mut(dim);
        let rows = slices.vt[i].entries().chunks_exact(dim);
        for ((scaled_row, row), &phase) in scaled.zip(rows).zip(phases.iter()) {
            for (slot, &entry) in scaled_row.iter_mut().zip(row) {
                *slot = phase * entry;
            }
        }
        v.mul_complex_into(&scratch.a, u);
    }
    sweeps
}

/// Phase 2, one lane: `forward[t] = U_t · forward[t-1]`.
fn sweep_forward<S: Storage>(u: &[S], forward: &mut [S]) {
    forward[0].entries_mut().copy_from_slice(u[0].entries());
    for t in 1..u.len() {
        let (head, tail) = forward.split_at_mut(t);
        u[t].mul_into(&head[t - 1], &mut tail[0]);
    }
}

/// Phase 2, the other lane: the gradient's co-state, seeded with the target so
/// the contraction finds `target† · U_{T-1} ⋯ U_{t+1}` ready-made:
/// `backward[t] = backward[t+1] · U_{t+1}`.
fn sweep_backward<S: Storage>(u: &[S], target_dagger: &S, backward: &mut [S]) {
    let last = u.len() - 1;
    backward[last]
        .entries_mut()
        .copy_from_slice(target_dagger.entries());
    for t in (0..last).rev() {
        let (head, tail) = backward.split_at_mut(t + 1);
        tail[0].mul_into(&u[t + 1], &mut head[t]);
    }
}

/// Phase 3, for one lane's slices `first..`: the exact gradient via the
/// Daleckii–Krein formula, into the lane's slice-major share of the gradient.
///
/// For slice t: U_total = (U_{T-1} ⋯ U_{t+1}) · U_t · forward[t-1], and
///   ∂U_t/∂u_k = V (Γ ∘ (Vᵀ H_k V)) Vᵀ,
/// where Γ_ij is the divided difference of f(λ) = e^{-iΔtλ} at (λ_i, λ_j).
/// Writing M' = forward[t-1] · backward[t] (the target is already inside
/// backward[t]) and P = Vᵀ M' V,
///   Tr(V_target† ∂U_total/∂u_k) = Σ_ab H_k[a,b] · G[a,b]
/// with  G = V · (Pᵀ ∘ Γ) · Vᵀ,  which is independent of k. V is real, so
/// conj(G) = V · conj(Pᵀ ∘ Γ) · Vᵀ: the conjugation folds into building
/// T = conj(Pᵀ ∘ Γ) and into the final contraction, and all four products
/// around V are mixed real·complex kernels.
fn contract<S: Storage>(
    model: &Model<S>,
    families: &Families<S>,
    dt: f64,
    conj_overlap: C64,
    first: usize,
    gradient: &mut [f64],
    scratch: &mut Scratch<S>,
) {
    let dim = model.drift.dim();
    let num_controls = model.control_sparse.len();
    for n in 0..gradient.len() / num_controls.max(1) {
        let t = first + n;
        // m' = forward[t-1] · backward[t]   (forward[-1] = identity)
        let m_prime = if t == 0 {
            &families.backward[0]
        } else {
            families.forward[t - 1].mul_into(&families.backward[t], &mut scratch.b);
            &scratch.b
        };
        let v = &families.slice_v[t];
        let vt = &families.slice_vt[t];
        // p = Vᵀ · m' · V
        vt.mul_complex_into(m_prime, &mut scratch.a);
        scratch.a.mul_real_into(v, &mut scratch.c);

        let lambdas = &families.lambdas[t * dim..][..dim];
        let phases = &families.phases[t * dim..][..dim];
        // T = conj(Pᵀ ∘ Γ), written into scratch.b.
        for i in 0..dim {
            for j in 0..dim {
                let gamma = if (lambdas[i] - lambdas[j]).abs() < 1e-10 {
                    C64::new(0.0, -dt) * phases[i]
                } else {
                    (phases[i] - phases[j]) * (1.0 / (lambdas[i] - lambdas[j]))
                };
                scratch.b.put(j, i, (scratch.c.at(i, j) * gamma).conj());
            }
        }
        // conj(G) = V · T · Vᵀ
        v.mul_complex_into(&scratch.b, &mut scratch.a);
        scratch.a.mul_real_into(vt, &mut scratch.c);
        let g_conj = scratch.c.entries();

        let slots = &mut gradient[n * num_controls..][..num_controls];
        for (slot, entries) in slots.iter_mut().zip(&model.control_sparse) {
            let mut contraction = C64::ZERO;
            for &(index, h_ab) in entries {
                contraction += g_conj[index].conj() * h_ab;
            }
            let dg = contraction / model.qubit_dim;
            let dfidelity = 2.0 * (conj_overlap * dg).re;
            *slot = -dfidelity;
        }
    }
}

/// The GRAPE engine: the entire hot loop, written once over a [`Storage`].
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
/// All per-slice buffer families are packed `Vec`s — one contiguous allocation
/// each on the stack storage — so the passes stream through cache-resident
/// data. Control operators are kept as row-major nonzero lists, so Hamiltonian
/// assembly and the gradient contraction touch only the entries a drive
/// actually has.
#[derive(Debug, Clone)]
struct Engine<S: Storage> {
    num_slices: usize,
    model: Model<S>,
    families: Families<S>,
    scratch: [Scratch<S>; 2],
    /// Whether `slice_v`/`slice_vt` hold a converged eigenbasis from a prior
    /// propagation, enabling the warm-started Jacobi path.
    warmed: bool,
    /// `gradient[t * num_controls + k] = ∂(infidelity)/∂u_k(t)` after a
    /// `fidelity_gradient` call: slice-major, so a lane's slices are one run.
    gradient: Vec<f64>,
}

impl<S: Storage> Engine<S> {
    fn new(device: &DeviceModel, num_slices: usize) -> Self {
        Self::from_hamiltonians(
            &device.drift(),
            &device.control_hamiltonians(),
            device.qubit_dim(),
            num_slices,
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
    ) -> Self {
        let dim = drift_operator.rows();
        let control_sparse = controls
            .iter()
            .map(|control| {
                let entries = real_entries(&control.label, &control.operator).enumerate();
                entries.filter(|&(_, value)| value != 0.0).collect()
            })
            .collect();
        let real_zero = S::Real::zeros(dim);
        let mut drift = real_zero.clone();
        let drift_entries: Vec<f64> = real_entries("the drift", drift_operator).collect();
        drift.entries_mut().copy_from_slice(&drift_entries);
        let zero = S::from_matrix(&Matrix::zeros(dim, dim));
        let real_family = || vec![real_zero.clone(); num_slices];
        let family = || vec![zero.clone(); num_slices];
        let scratch = Scratch {
            real_a: real_zero.clone(),
            real_b: real_zero.clone(),
            a: zero.clone(),
            b: zero.clone(),
            c: zero.clone(),
        };
        Engine {
            num_slices,
            model: Model {
                qubit_dim: qubit_dim as f64,
                drift,
                control_sparse,
                target_dagger: None,
            },
            families: Families {
                slice_h: real_family(),
                slice_v: real_family(),
                slice_vt: real_family(),
                lambdas: vec![0.0; num_slices * dim],
                phases: vec![C64::ZERO; num_slices * dim],
                slice_u: family(),
                forward: family(),
                backward: family(),
            },
            scratch: [scratch.clone(), scratch],
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

    /// Phases 1 and 2: per-slice eigensystems and propagators, then the
    /// forward and backward partial-product sweeps. `lap` is the calling
    /// thread's; the helper's share of a phase shows up in it as wall time
    /// only.
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
        let (model, warmed, families) = (&self.model, self.warmed, &mut self.families);
        let all = Slices {
            first: 0,
            h: &mut families.slice_h,
            v: &mut families.slice_v,
            vt: &mut families.slice_vt,
            lambdas: &mut families.lambdas,
            phases: &mut families.phases,
            u: &mut families.slice_u,
        };
        let (near, far) = all.split_at(mid, model.drift.dim());
        let [near_scratch, far_scratch] = &mut self.scratch;
        let (mut near_sweeps, mut far_sweeps) = (0, 0);
        lanes::pair(
            claim.as_deref_mut(),
            || {
                let mark = |phase| lap.mark(phase);
                near_sweeps = diagonalize(model, pulse, warmed, near, near_scratch, mark);
            },
            || far_sweeps = diagonalize(model, pulse, warmed, far, far_scratch, |_| {}),
        );
        lap.add_sweeps(near_sweeps + far_sweeps);

        let (slice_u, backward) = (&families.slice_u, &mut families.backward);
        lanes::pair(
            claim,
            || sweep_forward(slice_u, &mut families.forward),
            || {
                if let Some(target_dagger) = &model.target_dagger {
                    sweep_backward(slice_u, target_dagger, backward);
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
        let total = &self.families.forward[self.num_slices - 1];
        let mut overlap = C64::ZERO;
        for i in 0..dim {
            for k in 0..dim {
                overlap += target_dagger.at(i, k) * total.at(k, i);
            }
        }
        overlap = overlap * (1.0 / model.qubit_dim);
        let infidelity = 1.0 - overlap.norm_sqr();
        let conj_overlap = overlap.conj();

        let mid = self.lane_split(claim.is_some());
        let families = &self.families;
        let dt = pulse.dt_ns();
        let (near, far) = self.gradient.split_at_mut(mid * model.control_sparse.len());
        let [near_scratch, far_scratch] = &mut self.scratch;
        lanes::pair(
            claim,
            || contract(model, families, dt, conj_overlap, 0, near, near_scratch),
            || contract(model, families, dt, conj_overlap, mid, far, far_scratch),
        );
        // The overlap and the contraction are one contiguous stretch of this
        // thread's time: a single mark charges it all to GradientContraction.
        lap.mark(Phase::GradientContraction);

        infidelity
    }

    /// Copies the last propagation's products out as dynamic matrices. The
    /// engine's own backward family carries the target, so the public,
    /// identity-seeded one is multiplied out here.
    fn export(&self) -> Propagation {
        let dim = self.model.drift.dim();
        let dynamic = |m: &S| Matrix::from_vec(dim, dim, m.entries().to_vec());
        let slice_unitaries: Vec<Matrix> = self.families.slice_u.iter().map(dynamic).collect();
        let mut backward = vec![Matrix::identity(dim); self.num_slices];
        for t in (0..self.num_slices - 1).rev() {
            backward[t] = backward[t + 1].matmul(&slice_unitaries[t + 1]);
        }
        Propagation {
            slice_unitaries,
            forward: self.families.forward.iter().map(dynamic).collect(),
            backward,
        }
    }
}

/// The bound engine: one stack monomorphization per block width a qubit device
/// can have under `max_block_width = 4`, or the heap instance of the same body.
#[derive(Debug, Clone)]
enum Kernel {
    /// 1-qubit blocks (2×2).
    Dim2(Box<Engine<SmallMatrix<2>>>),
    /// 2-qubit blocks (4×4).
    Dim4(Box<Engine<SmallMatrix<4>>>),
    /// 3-qubit blocks (8×8).
    Dim8(Box<Engine<SmallMatrix<8>>>),
    /// 4-qubit blocks (16×16).
    Dim16(Box<Engine<SmallMatrix<16>>>),
    /// Every other dimension (qutrit devices, wider qubit lines).
    Heap(Box<Engine<Matrix>>),
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
        assert!(num_slices > 0, "a pulse needs at least one time slice");
        let kernel = match device.dim() {
            2 => Kernel::Dim2(Box::new(Engine::new(device, num_slices))),
            4 => Kernel::Dim4(Box::new(Engine::new(device, num_slices))),
            8 => Kernel::Dim8(Box::new(Engine::new(device, num_slices))),
            16 => Kernel::Dim16(Box::new(Engine::new(device, num_slices))),
            _ => Kernel::Heap(Box::new(Engine::new(device, num_slices))),
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
            engine.model.target_dagger = Some(Storage::from_matrix(&padded_dagger));
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
        Engine::<SmallMatrix<2>>::from_hamiltonians(&device.drift(), &controls, 2, 4);
    }

    /// One engine over `S` with the target bound (zero-padded onto any
    /// leakage levels, as [`GrapeWorkspace::set_target`] does).
    fn engine_for<S: Storage>(device: &DeviceModel, target: &Matrix, slices: usize) -> Engine<S> {
        let mut engine = Engine::<S>::new(device, slices);
        let padded_dagger = device.pad_qubit_unitary(target).dagger();
        engine.model.target_dagger = Some(S::from_matrix(&padded_dagger));
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

    fn assert_agree<A: Storage, B: Storage>(
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
    /// 1e-12: on a cold first pulse, and on a second pulse that warm-starts
    /// every slice's Jacobi from the first pulse's eigenbasis.
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

        let mut stack = engine_for::<SmallMatrix<N>>(&device, &target, slices);
        let mut heap = engine_for::<Matrix>(&device, &target, slices);
        for (pulse, what) in pulses.iter().zip(["cold", "warm-started"]) {
            let on_stack = stack.fidelity_gradient(pulse, None);
            let on_heap = heap.fidelity_gradient(pulse, None);
            assert_agree((&stack, on_stack), (&heap, on_heap), what);
        }
        assert!(stack.warmed && heap.warmed);
    }

    /// Runs the engine over `S` as one lane and as two (the helper forced,
    /// whatever the block's width) and holds the infidelity and every gradient
    /// entry to the same bits, on a cold pulse and on a warm-started one.
    fn one_and_two_lanes_agree<S: Storage>(
        device: &DeviceModel,
        slices: usize,
        amps: &[f64],
        perturbed: &[f64],
        dt_ns: f64,
    ) {
        let Some(mut claim) = lanes::hold() else {
            return; // a single-CPU host has one form only
        };
        let width = device.num_qubits();
        let target = (1..width).fold(gates::h(), |acc, _| acc.kron(&gates::h()));
        let mut one = engine_for::<S>(device, &target, slices);
        let mut two = engine_for::<S>(device, &target, slices);
        for (amps, what) in [(amps, "cold"), (perturbed, "warm-started")] {
            let pulse = pulse_from(device, slices, dt_ns, amps);
            let alone = one.fidelity_gradient(&pulse, None);
            let paired = two.fidelity_gradient(&pulse, Some(&mut claim));
            let dim = device.dim();
            assert_eq!(
                alone.to_bits(),
                paired.to_bits(),
                "dim {dim}, {slices} slices, {what}: infidelity {alone:e} vs {paired:e}"
            );
            for (index, (a, b)) in one.gradient.iter().zip(&two.gradient).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "dim {dim}, {slices} slices, {what}: gradient entry {index}, {a:e} vs {b:e}"
                );
            }
        }
    }

    /// Slice counts a lane split must survive: one slice (an empty first
    /// lane), two, odd counts, and counts on either side of the engage
    /// threshold of [`lanes::claim`].
    const LANE_SLICE_COUNTS: [usize; 8] = [1, 2, 3, 5, 7, 8, 13, 24];

    proptest! {
        // A 4q case is ~64 2q cases per eigensolve; two engines, two pulses.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn one_and_two_lanes_agree_bit_for_bit(
            pick in 0..LANE_SLICE_COUNTS.len(),
            amps in prop::collection::vec(-1.0..1.0f64, 64),
            perturbed in prop::collection::vec(-1.0..1.0f64, 64),
            dt in 0.1..1.0f64,
        ) {
            let slices = LANE_SLICE_COUNTS[pick];
            let two_qutrits = DeviceModel::qubits_line(2).with_qutrit_levels();
            assert_eq!(two_qutrits.dim(), 9);
            one_and_two_lanes_agree::<SmallMatrix<8>>(
                &DeviceModel::qubits_line(3), slices, &amps, &perturbed, dt,
            );
            one_and_two_lanes_agree::<SmallMatrix<16>>(
                &DeviceModel::qubits_line(4), slices, &amps, &perturbed, dt,
            );
            one_and_two_lanes_agree::<Matrix>(&two_qutrits, slices, &amps, &perturbed, dt);
        }
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
            let mut engine = engine_for::<SmallMatrix<16>>(&device, &target, 40);
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
                one_and_two_lanes_agree::<SmallMatrix<16>>(&device, 40, &amps, &amps, 0.5);
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
        // One device per storage: a qubit on the stack, a qutrit on the heap.
        for device in [
            DeviceModel::qubits_line(1),
            DeviceModel::qubits_line(1).with_qutrit_levels(),
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
