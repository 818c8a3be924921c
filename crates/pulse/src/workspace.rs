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
//! once, in [`Engine`], generic over the crate-private [`Storage`] trait. Every
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
//! assertion checks it against). The engine can consult an [`EigenMemo`] so
//! a slice Hamiltonian seen before skips the diagonalization.

use crate::memo::EigenMemo;
use crate::profile::{self, Phase};
use crate::propagate::Propagation;
use crate::{ControlHamiltonian, DeviceModel, PulseSequence};
use std::fmt::Debug;
use vqc_linalg::{Matrix, RealMatrix, RealSmallMatrix, SmallMatrix, C64};

/// The square real matrix storage of an [`Engine`]'s Hamiltonians and
/// eigenvectors: the three products they enter and the symmetric eigensolver.
/// Like [`Storage`], every method forwards to the `vqc-linalg` kernel for that
/// type.
trait RealStorage: Clone + Debug {
    /// The complex storage of the same dimension.
    type Complex;

    fn zeros(dim: usize) -> Self;
    /// The matrix dimension (a compile-time constant on the stack).
    fn dim(&self) -> usize;
    /// Row-major entries — the layout [`EigenMemo`] files eigenvectors in.
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
trait Storage: Clone + Debug {
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

/// The GRAPE engine: the entire hot loop, written once over a [`Storage`].
///
/// All per-slice buffer families are packed `Vec`s — one contiguous allocation
/// each on the stack storage — so the blocked passes of [`Engine::propagate`]
/// (Hamiltonian pass, eigensystem pass, propagator pass, forward sweep,
/// backward sweep) stream through cache-resident data. Control operators are
/// kept as row-major nonzero lists, so Hamiltonian assembly and the gradient
/// contraction touch only the entries a drive actually has.
#[derive(Debug, Clone)]
struct Engine<S: Storage> {
    num_slices: usize,
    qubit_dim: f64,
    drift: S::Real,
    /// `(row-major index, entry)` nonzeros of each control operator, in
    /// row-major order.
    control_sparse: Vec<Vec<(usize, f64)>>,
    /// `(padded target)†`, set by [`GrapeWorkspace::set_target`].
    target_dagger: Option<S>,

    // --- packed per-slice buffer families ------------------------------------------
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

    // --- iteration scratch ----------------------------------------------------------
    real_a: S::Real,
    real_b: S::Real,
    scratch_a: S,
    scratch_b: S,
    scratch_c: S,
    /// Whether `slice_v`/`slice_vt` hold a converged eigenbasis from a prior
    /// propagation, enabling the warm-started Jacobi path.
    warmed: bool,
    /// `gradient[k][t] = ∂(infidelity)/∂u_k(t)` after a `fidelity_gradient` call.
    gradient: Vec<Vec<f64>>,
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
        Engine {
            num_slices,
            qubit_dim: qubit_dim as f64,
            drift,
            control_sparse,
            target_dagger: None,
            slice_h: real_family(),
            slice_v: real_family(),
            slice_vt: real_family(),
            lambdas: vec![0.0; num_slices * dim],
            phases: vec![C64::ZERO; num_slices * dim],
            slice_u: family(),
            forward: family(),
            backward: family(),
            real_a: real_zero.clone(),
            real_b: real_zero.clone(),
            scratch_a: zero.clone(),
            scratch_b: zero.clone(),
            scratch_c: zero.clone(),
            warmed: false,
            gradient: vec![vec![0.0; num_slices]; controls.len()],
        }
    }

    /// `H_t = drift + Σ_k u_k(t) · H_k` over the packed nonzero lists, into
    /// `slice_h[t]`.
    fn assemble(&mut self, pulse: &PulseSequence, t: usize) {
        let hamiltonian = self.slice_h[t].entries_mut();
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

    /// Diagonalizes `slice_h[t]` into slice `t`'s eigensystem, returning the
    /// Jacobi sweep count. (`slice_vt` still holds the previous propagation's
    /// bases here; the propagator pass refreshes it only after every
    /// eigensystem is done.)
    fn eigensolve(&mut self, t: usize) -> usize {
        let dim = self.drift.dim();
        let lambdas = &mut self.lambdas[t * dim..][..dim];
        let v = &mut self.slice_v[t];
        if !self.warmed {
            return self.slice_h[t].diagonalize(lambdas, v);
        }
        // Warm-started Jacobi: rotate H into this slice's previous eigenbasis,
        // H' = Vᵀ H V. Between optimizer iterations the amplitudes move only
        // slightly, so H' is nearly diagonal and the sweep count collapses (to
        // zero when the slice is re-evaluated unchanged). Compose
        // V ← V_prev · V' after.
        self.slice_vt[t].mul_into(&self.slice_h[t], &mut self.real_a);
        self.real_a.mul_into(v, &mut self.real_b);
        let sweeps = self.real_b.diagonalize(lambdas, &mut self.real_a);
        v.mul_into(&self.real_a, &mut self.real_b);
        v.entries_mut().copy_from_slice(self.real_b.entries());
        sweeps
    }

    /// The blocked propagation pass: per-slice eigensystems, then propagators,
    /// then the forward and backward partial-product sweeps, each streaming
    /// through one packed buffer family.
    ///
    /// The plain (no-memo) path — the warm GRAPE gradient loop the
    /// `profile_overhead` bench gates — is phase-major: Hamiltonians for every
    /// slice land in the packed `slice_h` buffer, then every slice
    /// eigendecomposes, so the armed profiler pays one [`profile::Lap`] mark
    /// per *pass* rather than per slice. The memo path stays slice-major
    /// because [`EigenMemo::store_probed`] files under the key of the last
    /// missed probe; its per-slice hashing dwarfs a tick read anyway.
    ///
    /// # Panics
    ///
    /// Panics if the pulse geometry is not the one this engine was allocated for.
    fn propagate(&mut self, pulse: &PulseSequence, memo: Option<&mut EigenMemo>) {
        let num_controls = self.control_sparse.len();
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
        let dim = self.drift.dim();
        let dt = pulse.dt_ns();
        let mut lap = profile::Lap::start();

        if let Some(m) = memo {
            for t in 0..self.num_slices {
                let lambdas = &mut self.lambdas[t * dim..][..dim];
                let v = &mut self.slice_v[t];
                let hit = m.probe_with(
                    dim,
                    dt,
                    (0..num_controls).map(|k| pulse.amplitude(k, t)),
                    |cached_lambdas, cached_vectors| {
                        lambdas.copy_from_slice(cached_lambdas);
                        v.entries_mut().copy_from_slice(cached_vectors);
                    },
                );
                lap.mark(Phase::MemoProbe);
                if hit {
                    continue;
                }
                self.assemble(pulse, t);
                lap.mark(Phase::HamiltonianAssembly);
                let sweeps = self.eigensolve(t);
                lap.add_sweeps(sweeps as u64);
                lap.mark(Phase::Eigendecomposition);
                m.store_probed(
                    &self.lambdas[t * dim..][..dim],
                    self.slice_v[t].entries().iter().copied(),
                );
                lap.mark(Phase::MemoProbe);
            }
        } else {
            for t in 0..self.num_slices {
                self.assemble(pulse, t);
            }
            lap.mark(Phase::HamiltonianAssembly);
            let mut total_sweeps = 0u64;
            for t in 0..self.num_slices {
                total_sweeps += self.eigensolve(t) as u64;
            }
            lap.add_sweeps(total_sweeps);
            lap.mark(Phase::Eigendecomposition);
        }

        // Propagator pass: U_t = V · (diag(phases) · Vᵀ) — scale the rows of Vᵀ,
        // then one real·complex product; Vᵀ is kept for the next warm start
        // and the gradient pass.
        for t in 0..self.num_slices {
            let lambdas = &self.lambdas[t * dim..][..dim];
            let phases = &mut self.phases[t * dim..][..dim];
            for (phase, &lambda) in phases.iter_mut().zip(lambdas) {
                *phase = C64::cis(-dt * lambda);
            }
            let v = &self.slice_v[t];
            v.transpose_into(&mut self.slice_vt[t]);
            let scaled = self.scratch_a.entries_mut().chunks_exact_mut(dim);
            let rows = self.slice_vt[t].entries().chunks_exact(dim);
            for ((scaled_row, row), &phase) in scaled.zip(rows).zip(phases.iter()) {
                for (slot, &entry) in scaled_row.iter_mut().zip(row) {
                    *slot = phase * entry;
                }
            }
            v.mul_complex_into(&self.scratch_a, &mut self.slice_u[t]);
        }

        // Forward sweep: forward[t] = U_t · forward[t-1].
        self.forward[0]
            .entries_mut()
            .copy_from_slice(self.slice_u[0].entries());
        for t in 1..self.num_slices {
            let (head, tail) = self.forward.split_at_mut(t);
            self.slice_u[t].mul_into(&head[t - 1], &mut tail[0]);
        }

        // Backward sweep, seeded with the target so the gradient pass finds
        // target† · U_{T-1} ⋯ U_{t+1} ready-made: backward[t] = backward[t+1] · U_{t+1}.
        if let Some(target_dagger) = &self.target_dagger {
            self.backward[self.num_slices - 1]
                .entries_mut()
                .copy_from_slice(target_dagger.entries());
            for t in (0..self.num_slices - 1).rev() {
                let (head, tail) = self.backward.split_at_mut(t + 1);
                tail[0].mul_into(&self.slice_u[t + 1], &mut head[t]);
            }
        }
        lap.mark(Phase::Propagation);

        // Every slice now holds a converged eigenbasis the next propagation can
        // warm-start from.
        self.warmed = true;
    }

    /// Propagates `pulse`, then computes its trace infidelity against the
    /// target and writes the exact gradient into `self.gradient[k][t]`.
    fn fidelity_gradient(&mut self, pulse: &PulseSequence, memo: Option<&mut EigenMemo>) -> f64 {
        self.propagate(pulse, memo);
        // The overlap and Daleckii–Krein contraction below are one contiguous
        // stretch: a single lap pair charges it all to GradientContraction.
        let mut lap = profile::Lap::start();
        let dim = self.drift.dim();
        let dim_f = self.qubit_dim;
        let dt = pulse.dt_ns();
        let Some(target_dagger) = self.target_dagger.as_ref() else {
            panic!("set_target must be called before fidelity_gradient");
        };

        // overlap = Tr(V_target† U_total) / d, as Σ_ik V_target†[i,k]·U[k,i] in O(dim²).
        let total = &self.forward[self.num_slices - 1];
        let mut overlap = C64::ZERO;
        for i in 0..dim {
            for k in 0..dim {
                overlap += target_dagger.at(i, k) * total.at(k, i);
            }
        }
        overlap = overlap * (1.0 / dim_f);
        let infidelity = 1.0 - overlap.norm_sqr();
        let conj_overlap = overlap.conj();

        // --- exact gradient via the Daleckii–Krein formula ---------------------------
        // For slice t: U_total = (U_{T-1} ⋯ U_{t+1}) · U_t · forward[t-1], and
        //   ∂U_t/∂u_k = V (Γ ∘ (Vᵀ H_k V)) Vᵀ,
        // where Γ_ij is the divided difference of f(λ) = e^{-iΔtλ} at (λ_i, λ_j).
        // Writing M' = forward[t-1] · backward[t] (the target is already inside
        // backward[t]) and P = Vᵀ M' V,
        //   Tr(V_target† ∂U_total/∂u_k) = Σ_ab H_k[a,b] · G[a,b]
        // with  G = V · (Pᵀ ∘ Γ) · Vᵀ,  which is independent of k. V is real, so
        // conj(G) = V · conj(Pᵀ ∘ Γ) · Vᵀ: the conjugation folds into building
        // T = conj(Pᵀ ∘ Γ) and into the final contraction, and all four
        // products around V are mixed real·complex kernels.
        for t in 0..self.num_slices {
            // m' = forward[t-1] · backward[t]   (forward[-1] = identity)
            let m_prime = if t == 0 {
                &self.backward[0]
            } else {
                self.forward[t - 1].mul_into(&self.backward[t], &mut self.scratch_b);
                &self.scratch_b
            };
            let v = &self.slice_v[t];
            let vt = &self.slice_vt[t];
            // p = Vᵀ · m' · V
            vt.mul_complex_into(m_prime, &mut self.scratch_a);
            self.scratch_a.mul_real_into(v, &mut self.scratch_c);

            let lambdas = &self.lambdas[t * dim..][..dim];
            let phases = &self.phases[t * dim..][..dim];
            // T = conj(Pᵀ ∘ Γ), written into scratch_b.
            for i in 0..dim {
                for j in 0..dim {
                    let gamma = if (lambdas[i] - lambdas[j]).abs() < 1e-10 {
                        C64::new(0.0, -dt) * phases[i]
                    } else {
                        (phases[i] - phases[j]) * (1.0 / (lambdas[i] - lambdas[j]))
                    };
                    self.scratch_b
                        .put(j, i, (self.scratch_c.at(i, j) * gamma).conj());
                }
            }
            // conj(G) = V · T · Vᵀ
            v.mul_complex_into(&self.scratch_b, &mut self.scratch_a);
            self.scratch_a.mul_real_into(vt, &mut self.scratch_c);
            let g_conj = self.scratch_c.entries();

            for (k, entries) in self.control_sparse.iter().enumerate() {
                let mut contraction = C64::ZERO;
                for &(index, h_ab) in entries {
                    contraction += g_conj[index].conj() * h_ab;
                }
                let dg = contraction / dim_f;
                let dfidelity = 2.0 * (conj_overlap * dg).re;
                self.gradient[k][t] = -dfidelity;
            }
        }
        lap.mark(Phase::GradientContraction);

        infidelity
    }

    /// Copies the last propagation's products out as dynamic matrices. The
    /// engine's own backward family carries the target, so the public,
    /// identity-seeded one is multiplied out here.
    fn export(&self) -> Propagation {
        let dim = self.drift.dim();
        let dynamic = |m: &S| Matrix::from_vec(dim, dim, m.entries().to_vec());
        let slice_unitaries: Vec<Matrix> = self.slice_u.iter().map(dynamic).collect();
        let mut backward = vec![Matrix::identity(dim); self.num_slices];
        for t in (0..self.num_slices - 1).rev() {
            backward[t] = backward[t + 1].matmul(&slice_unitaries[t + 1]);
        }
        Propagation {
            slice_unitaries,
            forward: self.forward.iter().map(dynamic).collect(),
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
            assert_eq!(device.dim(), engine.drift.dim(), "workspace built for another device");
            engine.target_dagger = Some(Storage::from_matrix(&padded_dagger));
        });
    }

    /// The gradient filled by the last [`GrapeWorkspace::fidelity_gradient`] call:
    /// `gradient()[k][t] = ∂(infidelity)/∂u_k(t)`.
    pub fn gradient(&self) -> &[Vec<f64>] {
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
            engine.propagate(pulse, None);
            engine.export()
        })
    }

    /// Computes the trace infidelity of a pulse against the configured target and
    /// its exact gradient (via the Daleckii–Krein divided-difference formula),
    /// storing the gradient in [`GrapeWorkspace::gradient`] and returning the
    /// infidelity. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if no target was set or the pulse shape does not match the workspace.
    pub fn fidelity_gradient(&mut self, pulse: &PulseSequence) -> f64 {
        with_engine!(&mut self.kernel, engine => engine.fidelity_gradient(pulse, None))
    }

    /// [`GrapeWorkspace::fidelity_gradient`] with an [`EigenMemo`]: slices whose
    /// `(Δt, amplitudes)` were seen before reuse the cached eigensystem instead
    /// of re-diagonalizing. Allocation-free on memo hits; a miss allocates only
    /// the inserted cache entry.
    ///
    /// # Panics
    ///
    /// Panics if no target was set or the pulse shape does not match the workspace.
    pub fn fidelity_gradient_with_memo(
        &mut self,
        pulse: &PulseSequence,
        memo: &mut EigenMemo,
    ) -> f64 {
        with_engine!(&mut self.kernel, engine => engine.fidelity_gradient(pulse, Some(memo)))
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

    /// One engine over `S` with the (qubit-device) target bound.
    fn engine_for<S: Storage>(device: &DeviceModel, target: &Matrix, slices: usize) -> Engine<S> {
        let mut engine = Engine::<S>::new(device, slices);
        engine.target_dagger = Some(S::from_matrix(&target.dagger()));
        engine
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
        for (k, (stack_row, heap_row)) in stack.0.gradient.iter().zip(&heap.0.gradient).enumerate()
        {
            for (t, (a, b)) in stack_row.iter().zip(heap_row).enumerate() {
                assert!(
                    (a - b).abs() < 1e-12,
                    "{what}: control {k} slice {t} differs by {:e}",
                    (a - b).abs()
                );
            }
        }
    }

    /// Instantiates the one engine body with both storages on a `width`-qubit
    /// line (`N = 2^width`) and holds their infidelities and gradients to
    /// 1e-12: on a cold first pulse, on a second pulse that warm-starts every
    /// slice's Jacobi from the first pulse's eigenbasis, and on a memoized
    /// pair of calls whose second replays every slice out of the [`EigenMemo`].
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
        // A cyclic read of `amps` covers any control count the device exposes.
        let pulse_from = |amps: &[f64]| {
            let mut pulse = PulseSequence::zeros(device.num_controls(), slices, dt_ns);
            for k in 0..device.num_controls() {
                for t in 0..slices {
                    pulse.set_amplitude(k, t, amps[(k * slices + t) % amps.len()]);
                }
            }
            pulse
        };
        let pulses = [pulse_from(amps), pulse_from(perturbed)];

        let mut stack = engine_for::<SmallMatrix<N>>(&device, &target, slices);
        let mut heap = engine_for::<Matrix>(&device, &target, slices);
        for (pulse, what) in pulses.iter().zip(["cold", "warm-started"]) {
            let on_stack = stack.fidelity_gradient(pulse, None);
            let on_heap = heap.fidelity_gradient(pulse, None);
            assert_agree((&stack, on_stack), (&heap, on_heap), what);
        }
        assert!(stack.warmed && heap.warmed);

        let mut memoized = engine_for::<SmallMatrix<N>>(&device, &target, slices);
        let mut memoized_heap = engine_for::<Matrix>(&device, &target, slices);
        let (mut memo, mut heap_memo) = (EigenMemo::new(), EigenMemo::new());
        let reference = heap.fidelity_gradient(&pulses[0], None);
        for what in ["memo arming", "memo replay"] {
            let on_stack = memoized.fidelity_gradient(&pulses[0], Some(&mut memo));
            let on_heap = memoized_heap.fidelity_gradient(&pulses[0], Some(&mut heap_memo));
            assert_agree((&memoized, on_stack), (&heap, reference), what);
            assert_agree((&memoized, on_stack), (&memoized_heap, on_heap), what);
        }
        assert_eq!(memo.hits(), slices as u64, "the replay must hit the memo");
        assert_eq!(heap_memo.hits(), slices as u64);
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
    fn memoized_gradient_matches_and_hits_on_replay() {
        let device = DeviceModel::qubits_line(2);
        let target = gates::cx();
        let pulse = PulseSequence::seeded_guess(&device, 6, 0.5, 3);

        let mut workspace = GrapeWorkspace::new(&device, pulse.num_slices());
        workspace.set_target(&device, &target);
        let plain = workspace.fidelity_gradient(&pulse);
        let reference: Vec<Vec<f64>> = workspace.gradient().to_vec();

        let mut memo = EigenMemo::new();
        let first = workspace.fidelity_gradient_with_memo(&pulse, &mut memo);
        assert_eq!(memo.misses(), pulse.num_slices() as u64);
        let second = workspace.fidelity_gradient_with_memo(&pulse, &mut memo);
        assert_eq!(memo.hits(), pulse.num_slices() as u64);

        assert!((first - plain).abs() < 1e-15);
        assert!((second - plain).abs() < 1e-15);
        for (k, reference_row) in reference.iter().enumerate() {
            for (t, &expected) in reference_row.iter().enumerate() {
                assert!(
                    (workspace.gradient()[k][t] - expected).abs() < 1e-15,
                    "memoized gradient must be identical"
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
