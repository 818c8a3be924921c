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
//! compiler with `max_block_width = 4` can plan on a qubit device (fully
//! unrolled matmuls, a closed-form 2×2 eigensolver, algebraic Jacobi) — and
//! heap [`Matrix`] rows for every other dimension (qutrit devices at
//! 3/9/27/81, qubit lines wider than four). Both instances run the same body,
//! so their gradients agree to machine precision; the in-crate parity tests
//! hold them to 1e-12 at every stack dimension.
//!
//! The workspace is also the single home of the eigendecomposition-based slice
//! propagator `U_t = V e^{-iΔtΛ} V†`; [`crate::propagate`] drives the same path (the
//! Taylor [`vqc_linalg::expm`] stays as an independent reference that a debug
//! assertion checks it against). The engine can consult an [`EigenMemo`] so
//! repeated slice Hamiltonians — ubiquitous across duration probes and
//! hyperparameter re-tuning — skip the diagonalization entirely.

use crate::memo::EigenMemo;
use crate::profile::{self, Phase};
use crate::propagate::Propagation;
use crate::{DeviceModel, PulseSequence};
use std::fmt::Debug;
use vqc_linalg::small::{self, SmallEighWorkspace, SmallMatrix};
use vqc_linalg::{eigh_into, EighWorkspace, Matrix, C64};

/// The square complex matrix storage an [`Engine`] runs over: entry access, the
/// two allocation-free `_into` products, and the matching Hermitian
/// eigensolver. Exactly two implementations exist — stack [`SmallMatrix`] and
/// heap [`Matrix`] — and every method forwards to the kernel `vqc-linalg`
/// already has for that type.
trait Storage: Clone + Debug {
    /// Reusable eigensolver scratch for this storage.
    type Eigh: Clone + Debug;

    /// Copies a square dynamic matrix into this storage.
    fn from_matrix(source: &Matrix) -> Self;
    /// Eigensolver scratch for `dim × dim` matrices.
    fn eigh_scratch(dim: usize) -> Self::Eigh;
    /// The matrix dimension (a compile-time constant on the stack).
    fn dim(&self) -> usize;
    /// Row-major entries — the layout [`EigenMemo`] files eigenvectors in.
    fn entries(&self) -> &[C64];
    fn entries_mut(&mut self) -> &mut [C64];
    /// Writes `self · rhs` into `out`.
    fn mul_into(&self, rhs: &Self, out: &mut Self);
    /// Writes `self†` into `out`.
    fn adjoint_into(&self, out: &mut Self);
    /// Diagonalizes Hermitian `self` into ascending `lambdas` and the matching
    /// `vectors` columns; returns the Jacobi sweep count.
    fn diagonalize(
        &self,
        scratch: &mut Self::Eigh,
        lambdas: &mut [f64],
        vectors: &mut Self,
    ) -> usize;

    fn at(&self, row: usize, col: usize) -> C64 {
        self.entries()[row * self.dim() + col]
    }
    fn put(&mut self, row: usize, col: usize, value: C64) {
        let dim = self.dim();
        self.entries_mut()[row * dim + col] = value;
    }
}

impl<const N: usize> Storage for SmallMatrix<N> {
    type Eigh = SmallEighWorkspace<N>;

    fn from_matrix(source: &Matrix) -> Self {
        SmallMatrix::from_matrix(source)
    }
    fn eigh_scratch(_dim: usize) -> Self::Eigh {
        SmallEighWorkspace::new()
    }
    fn dim(&self) -> usize {
        N
    }
    fn entries(&self) -> &[C64] {
        self.rows().as_flattened()
    }
    fn entries_mut(&mut self) -> &mut [C64] {
        self.rows_mut().as_flattened_mut()
    }
    #[inline]
    fn mul_into(&self, rhs: &Self, out: &mut Self) {
        self.matmul_into(rhs, out);
    }
    #[inline]
    fn adjoint_into(&self, out: &mut Self) {
        self.dagger_into(out);
    }
    #[inline]
    fn diagonalize(
        &self,
        scratch: &mut Self::Eigh,
        lambdas: &mut [f64],
        vectors: &mut Self,
    ) -> usize {
        // audit:allow(unwrap): the engine slices exactly `dim` eigenvalues per time slice
        let lambdas = lambdas.try_into().expect("one eigenvalue per dimension");
        small::eigh_into(self, scratch, lambdas, vectors)
    }
}

impl Storage for Matrix {
    /// [`eigh_into`] refills a `Vec`, so the scratch carries one beside the
    /// Jacobi buffers; its contents are copied out into the engine's slice.
    type Eigh = (EighWorkspace, Vec<f64>);

    fn from_matrix(source: &Matrix) -> Self {
        source.clone()
    }
    fn eigh_scratch(dim: usize) -> Self::Eigh {
        (EighWorkspace::new(dim), Vec::with_capacity(dim))
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
    fn adjoint_into(&self, out: &mut Self) {
        self.dagger_into(out);
    }
    fn diagonalize(
        &self,
        (scratch, sorted): &mut Self::Eigh,
        lambdas: &mut [f64],
        vectors: &mut Self,
    ) -> usize {
        let sweeps = eigh_into(self, scratch, sorted, vectors);
        lambdas.copy_from_slice(sorted);
        sweeps
    }
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
    drift: S,
    /// `(row-major index, entry)` nonzeros of each control operator, in
    /// row-major order.
    control_sparse: Vec<Vec<(usize, C64)>>,
    /// `(padded target)†`, set by [`GrapeWorkspace::set_target`].
    target_dagger: Option<S>,

    // --- packed per-slice buffer families ------------------------------------------
    slice_h: Vec<S>,
    slice_v: Vec<S>,
    slice_vdag: Vec<S>,
    /// `dim` ascending eigenvalues per slice, slice-major.
    lambdas: Vec<f64>,
    /// `e^{-iΔtλ}` for each entry of `lambdas`.
    phases: Vec<C64>,
    slice_u: Vec<S>,
    forward: Vec<S>,
    /// `backward[T-1]` is the identity: written at construction, never after.
    backward: Vec<S>,

    // --- iteration scratch ----------------------------------------------------------
    eigh: S::Eigh,
    scratch_a: S,
    scratch_b: S,
    scratch_c: S,
    /// Whether `slice_v`/`slice_vdag` hold a converged eigenbasis from a prior
    /// propagation, enabling the warm-started Jacobi path.
    warmed: bool,
    /// `gradient[k][t] = ∂(infidelity)/∂u_k(t)` after a `fidelity_gradient` call.
    gradient: Vec<Vec<f64>>,
}

impl<S: Storage> Engine<S> {
    fn new(device: &DeviceModel, num_slices: usize) -> Self {
        let dim = device.dim();
        let nonzero = |(_, value): &(usize, C64)| value.re != 0.0 || value.im != 0.0;
        let control_sparse = device
            .control_hamiltonians()
            .iter()
            .map(|control| {
                let entries = control.operator.as_slice().iter().copied().enumerate();
                entries.filter(nonzero).collect()
            })
            .collect();
        let zero = S::from_matrix(&Matrix::zeros(dim, dim));
        let family = || vec![zero.clone(); num_slices];
        let mut backward = family();
        backward[num_slices - 1] = S::from_matrix(&Matrix::identity(dim));
        Engine {
            num_slices,
            qubit_dim: device.qubit_dim() as f64,
            drift: S::from_matrix(&device.drift()),
            control_sparse,
            target_dagger: None,
            slice_h: family(),
            slice_v: family(),
            slice_vdag: family(),
            lambdas: vec![0.0; num_slices * dim],
            phases: vec![C64::ZERO; num_slices * dim],
            slice_u: family(),
            forward: family(),
            backward,
            eigh: S::eigh_scratch(dim),
            scratch_a: zero.clone(),
            scratch_b: zero.clone(),
            scratch_c: zero.clone(),
            warmed: false,
            gradient: vec![vec![0.0; num_slices]; device.num_controls()],
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
                let scale = C64::from_real(amp);
                for &(index, value) in entries {
                    hamiltonian[index] += value * scale;
                }
            }
        }
    }

    /// Diagonalizes `slice_h[t]` into slice `t`'s eigensystem, returning the
    /// Jacobi sweep count. (`slice_vdag` still holds the previous propagation's
    /// bases here; the propagator pass refreshes it only after every
    /// eigensystem is done.)
    fn eigensolve(&mut self, t: usize) -> usize {
        let dim = self.drift.dim();
        let lambdas = &mut self.lambdas[t * dim..][..dim];
        let v = &mut self.slice_v[t];
        if !self.warmed {
            return self.slice_h[t].diagonalize(&mut self.eigh, lambdas, v);
        }
        // Warm-started Jacobi: rotate H into this slice's previous eigenbasis,
        // H' = V† H V. Between optimizer iterations the amplitudes move only
        // slightly, so H' is nearly diagonal and the sweep count collapses (to
        // zero when the slice is re-evaluated unchanged). Compose
        // V ← V_prev · V' after.
        self.slice_vdag[t].mul_into(&self.slice_h[t], &mut self.scratch_b);
        self.scratch_b.mul_into(v, &mut self.scratch_c);
        let sweeps = self
            .scratch_c
            .diagonalize(&mut self.eigh, lambdas, &mut self.scratch_b);
        v.mul_into(&self.scratch_b, &mut self.scratch_a);
        v.entries_mut().copy_from_slice(self.scratch_a.entries());
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

        // Propagator pass: U_t = V · diag(phases) · V† (scale the columns of V,
        // then multiply); V† is cached for the gradient pass.
        for t in 0..self.num_slices {
            let lambdas = &self.lambdas[t * dim..][..dim];
            let phases = &mut self.phases[t * dim..][..dim];
            for (phase, &lambda) in phases.iter_mut().zip(lambdas) {
                *phase = C64::cis(-dt * lambda);
            }
            let v = &self.slice_v[t];
            v.adjoint_into(&mut self.slice_vdag[t]);
            for r in 0..dim {
                for (c, &phase) in phases.iter().enumerate() {
                    self.scratch_a.put(r, c, v.at(r, c) * phase);
                }
            }
            self.scratch_a
                .mul_into(&self.slice_vdag[t], &mut self.slice_u[t]);
        }

        // Forward sweep: forward[t] = U_t · forward[t-1].
        self.forward[0]
            .entries_mut()
            .copy_from_slice(self.slice_u[0].entries());
        for t in 1..self.num_slices {
            let (head, tail) = self.forward.split_at_mut(t);
            self.slice_u[t].mul_into(&head[t - 1], &mut tail[0]);
        }

        // Backward sweep: backward[t] = backward[t+1] · U_{t+1}, from the
        // identity `new` left in the last slot.
        for t in (0..self.num_slices - 1).rev() {
            let (head, tail) = self.backward.split_at_mut(t + 1);
            tail[0].mul_into(&self.slice_u[t + 1], &mut head[t]);
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

        // overlap = Tr(V† U_total) / d, computed as Σ_ik V†[i,k]·U[k,i] in O(dim²).
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
        // For slice t: U_total = backward[t] · U_t · forward[t-1], and
        //   ∂U_t/∂u_k = V (Γ ∘ (V† H_k V)) V†,
        // where Γ_ij is the divided difference of f(λ) = e^{-iΔtλ} at (λ_i, λ_j).
        // Writing M' = forward[t-1] · V_target† · backward[t] and P = V† M' V,
        //   Tr(V_target† ∂U_total/∂u_k) = Σ_ab H_k[a,b] · G[a,b]
        // with  G = conj(V) · (Pᵀ ∘ Γ) · Vᵀ,  which is independent of k. To stay in
        // plain matmul kernels, G is computed as conj(V · conj(Pᵀ ∘ Γ) · V†): the
        // conjugation folds into building T = conj(Pᵀ ∘ Γ) and into the final
        // contraction.
        for t in 0..self.num_slices {
            // m' = forward[t-1] · target† · backward[t]   (forward[-1] = identity)
            if t == 0 {
                target_dagger.mul_into(&self.backward[0], &mut self.scratch_b);
            } else {
                self.forward[t - 1].mul_into(target_dagger, &mut self.scratch_a);
                self.scratch_a
                    .mul_into(&self.backward[t], &mut self.scratch_b);
            }
            let v = &self.slice_v[t];
            let vdag = &self.slice_vdag[t];
            // p = V† · m' · V
            vdag.mul_into(&self.scratch_b, &mut self.scratch_a);
            self.scratch_a.mul_into(v, &mut self.scratch_c);

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
            // conj(G) = V · T · V†
            v.mul_into(&self.scratch_b, &mut self.scratch_a);
            self.scratch_a.mul_into(vdag, &mut self.scratch_c);
            let g_conj = self.scratch_c.entries();

            for (k, entries) in self.control_sparse.iter().enumerate() {
                let mut contraction = C64::ZERO;
                for &(index, h_ab) in entries {
                    contraction += h_ab * g_conj[index].conj();
                }
                let dg = contraction / dim_f;
                let dfidelity = 2.0 * (conj_overlap * dg).re;
                self.gradient[k][t] = -dfidelity;
            }
        }
        lap.mark(Phase::GradientContraction);

        infidelity
    }

    /// Copies the last propagation's products out as dynamic matrices.
    fn export(&self) -> Propagation {
        let dim = self.drift.dim();
        let dynamic = |m: &S| Matrix::from_vec(dim, dim, m.entries().to_vec());
        let export = |family: &[S]| family.iter().map(dynamic).collect();
        Propagation {
            slice_unitaries: export(&self.slice_u),
            forward: export(&self.forward),
            backward: export(&self.backward),
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
