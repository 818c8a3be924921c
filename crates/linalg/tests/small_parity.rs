//! Property-based parity between the const-generic [`SmallMatrix`] the
//! driver benchmark times and the dynamic [`Matrix`] reference, for the four
//! GRAPE monomorphizations N = 2, 4, 8, 16 — and between the real-symmetric
//! kernels of `vqc_linalg::real` (which the GRAPE engine runs on) and the
//! complex ones, at the same four dimensions on the stack and at 3, 9 and 27
//! on the heap.
//!
//! The dynamic path is the ground truth: `SmallMatrix::matmul_into` must give
//! `Matrix::matmul`'s bits, and `small::eigh_into` the heap `eigh_into`'s. The
//! one complex Hermitian solver, `eigh_into`, is checked phase-invariantly —
//! its eigenbasis is only defined up to a per-column phase (and a rotation
//! inside degenerate subspaces) — via spectral reconstruction,
//! orthonormality and workspace reuse. It is the oracle for both
//! real-symmetric bodies (Jacobi and Householder–QL, each run at every
//! dimension, whatever the dimension rule would pick), and
//! promote-then-complex-matmul is the oracle for the real and planar products
//! (under either multiply-add, `Unfused` and `Fused`). Both bodies solve
//! several matrices in lockstep; [`eispack`] and [`scalar_jacobi`] keep the
//! one-matrix routines they were derived from, branches and all, and every
//! batch — whatever shares it — must give each matrix that routine's bits.

use proptest::prelude::*;
use vqc_linalg::real::{
    eigh_jacobi, eigh_ql, eigh_ql_interleaved, eigh_scratch_len, jacobi_scratch_len, ql_input,
    ql_scratch_len, Fused, MulAdd, QlLane, Unfused, QL_MIN_DIM,
};
use vqc_linalg::small::{self, SmallEighWorkspace, SmallMatrix};
use vqc_linalg::{c64, eigh, eigh_into, EighWorkspace, Matrix, RealMatrix, RealSmallMatrix, C64};
use vqc_pulse::grape::GrapeOptions;
use vqc_pulse::propagate::slice_hamiltonian;
use vqc_pulse::{DeviceModel, GrapeWorkspace, PulseSequence};
use vqc_sim::gates;

/// Strategy producing a complex number with bounded components.
fn arb_c64(bound: f64) -> impl Strategy<Value = C64> {
    (-bound..bound, -bound..bound).prop_map(|(re, im)| c64(re, im))
}

/// Strategy producing the row-major entries of an `n x n` complex matrix.
fn arb_entries(n: usize, bound: f64) -> impl Strategy<Value = Vec<C64>> {
    prop::collection::vec(arb_c64(bound), n * n)
}

fn matrix_of(n: usize, data: &[C64]) -> Matrix {
    Matrix::from_vec(n, n, data.to_vec())
}

/// The Hermitian part of the matrix with row-major entries `data`.
fn hermitian_of(n: usize, data: &[C64]) -> Matrix {
    let a = matrix_of(n, data);
    (&a + &a.dagger()).scale_real(0.5)
}

/// A deliberately garbage-filled output, so parity also proves the `_into`
/// kernels overwrite (rather than accumulate into) their destination.
fn dirty(n: usize) -> Matrix {
    Matrix::from_fn(n, n, |r, c| c64(1.0 + r as f64, -2.0 - c as f64))
}

/// `SmallMatrix::matmul_into` against `Matrix::matmul`, bit for bit (`Debug`
/// prints each `f64` exactly, the sign of zero included).
fn check_matmul<const N: usize>(a_data: &[C64], b_data: &[C64]) {
    let (da, db) = (matrix_of(N, a_data), matrix_of(N, b_data));
    let mut out = SmallMatrix::<N>::from_matrix(&dirty(N));
    SmallMatrix::from_matrix(&da).matmul_into(&SmallMatrix::from_matrix(&db), &mut out);
    assert_eq!(
        format!("{out:?}"),
        format!("{:?}", SmallMatrix::<N>::from_matrix(&da.matmul(&db))),
        "matmul_into diverges from Matrix::matmul at N={N}"
    );
}

/// `small::eigh_into` gives the heap `eigh_into`'s eigenvalues and
/// eigenvectors bit for bit, over two calls through one workspace.
fn check_small_eigh<const N: usize>(a_data: &[C64]) {
    let hermitian = hermitian_of(N, a_data);
    let reference = eigh(&hermitian);
    let h = SmallMatrix::<N>::from_matrix(&hermitian);
    let mut workspace = SmallEighWorkspace::<N>::new();
    let mut lambdas = [f64::NAN; N];
    let mut vectors = SmallMatrix::<N>::from_matrix(&dirty(N));
    for call in 0..2 {
        small::eigh_into(&h, &mut workspace, &mut lambdas, &mut vectors);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&lambdas),
            bits(&reference.eigenvalues),
            "eigenvalues differ from eigh_into's at N={N}, call {call}"
        );
        assert_eq!(
            format!("{vectors:?}"),
            format!(
                "{:?}",
                SmallMatrix::<N>::from_matrix(&reference.eigenvectors)
            ),
            "eigenvectors differ from eigh_into's at N={N}, call {call}"
        );
    }
}

/// The heap `eigh_into`, phase-invariantly: the allocating `eigh`'s spectrum
/// after a second call through the same workspace, exact spectral
/// reconstruction, orthonormal basis.
fn check_eigh(n: usize, a_data: &[C64]) {
    let h = hermitian_of(n, a_data);
    let tol = 1e-11 * h.frobenius_norm().max(1.0);

    let reference = eigh(&h);
    let mut workspace = EighWorkspace::new(n);
    let mut lambdas = Vec::new();
    let mut vectors = dirty(n);
    // Run twice through the same workspace: the second call must not be
    // perturbed by the first call's leftovers.
    eigh_into(&h, &mut workspace, &mut lambdas, &mut vectors);
    eigh_into(&h, &mut workspace, &mut lambdas, &mut vectors);
    assert_eq!(
        lambdas, reference.eigenvalues,
        "workspace reuse perturbs the spectrum at n={n}"
    );
    assert!(
        lambdas.windows(2).all(|pair| pair[0] <= pair[1]),
        "eigenvalues are not ascending at n={n}: {lambdas:?}"
    );

    // V Λ V† reconstructs H.
    let scaled = Matrix::from_fn(n, n, |r, c| vectors[(r, c)] * lambdas[c]);
    assert!(
        scaled.matmul(&vectors.dagger()).approx_eq(&h, tol),
        "V diag(lambda) V^dagger fails to reconstruct H at n={n}"
    );
    // V† V = I.
    assert!(
        vectors
            .dagger()
            .matmul(&vectors)
            .approx_eq(&Matrix::identity(n), tol),
        "eigenbasis is not orthonormal at n={n}"
    );
}

/// Strategy producing the row-major entries of an `n x n` real matrix in
/// `(-1, 1)`.
fn arb_reals(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.0..1.0f64, n * n)
}

/// The real matrix `data` promoted to complex entries.
fn promoted(n: usize, data: &[f64]) -> Matrix {
    Matrix::from_fn(n, n, |r, c| c64(data[r * n + c], 0.0))
}

/// The real product, the transpose and a planar complex product — four real
/// products, two of them accumulating — of flat `n x n` results against
/// promote-then-complex-matmul; `b`'s two planes are the planar product's
/// right-hand side, `(a, aᵀ)` its left.
fn assert_real_kernels(
    n: usize,
    (a, b): (&[f64], &[C64]),
    (squared, transposed): (&[f64], &[f64]),
    planar: (&[f64], &[f64]),
) {
    let (pa, db) = (promoted(n, a), matrix_of(n, b));
    let lhs = Matrix::from_fn(n, n, |r, c| c64(a[r * n + c], a[c * n + r]));
    let product = Matrix::from_fn(n, n, |r, c| c64(planar.0[r * n + c], planar.1[r * n + c]));
    for (what, got, expected) in [
        ("real x real", promoted(n, squared), pa.matmul(&pa)),
        ("transpose", promoted(n, transposed), pa.dagger()),
        ("planar complex x complex", product, lhs.matmul(&db)),
    ] {
        assert!(
            got.approx_eq(&expected, 1e-12),
            "{what} diverges from the promoted complex kernel at n={n}"
        );
    }
}

fn check_real_kernels<const N: usize>(a_data: &[f64], b_data: &[C64]) {
    check_real_kernels_with::<N, Unfused>(a_data, b_data);
    check_real_kernels_with::<N, Fused>(a_data, b_data);
}

fn check_real_kernels_with<const N: usize, M: MulAdd>(a_data: &[f64], b_data: &[C64]) {
    let a = RealSmallMatrix::<N>::from_fn(|r, c| a_data[r * N + c]);
    let b_re = RealSmallMatrix::<N>::from_fn(|r, c| b_data[r * N + c].re);
    let b_im = RealSmallMatrix::<N>::from_fn(|r, c| b_data[r * N + c].im);
    // Garbage-filled outputs: the kernels overwrite, never accumulate.
    let mut squared = RealSmallMatrix::<N>::from_fn(|r, c| (r + 2 * c) as f64);
    let (mut transposed, mut re, mut im) = (squared, squared, squared);
    a.matmul_into::<M>(&a, &mut squared);
    a.transpose_into(&mut transposed);
    a.matmul_into::<M>(&b_re, &mut re);
    transposed.matmul_onto::<M>(-1.0, &b_im, &mut re);
    a.matmul_into::<M>(&b_im, &mut im);
    transposed.matmul_onto::<M>(1.0, &b_re, &mut im);
    assert_real_kernels(
        N,
        (a_data, b_data),
        (squared.as_slice(), transposed.as_slice()),
        (re.as_slice(), im.as_slice()),
    );
}

fn check_real_kernels_heap(n: usize, a_data: &[f64], b_data: &[C64]) {
    check_real_kernels_heap_with::<Unfused>(n, a_data, b_data);
    check_real_kernels_heap_with::<Fused>(n, a_data, b_data);
}

fn check_real_kernels_heap_with<M: MulAdd>(n: usize, a_data: &[f64], b_data: &[C64]) {
    let a = RealMatrix::from_fn(n, |r, c| a_data[r * n + c]);
    let b_re = RealMatrix::from_fn(n, |r, c| b_data[r * n + c].re);
    let b_im = RealMatrix::from_fn(n, |r, c| b_data[r * n + c].im);
    let mut squared = RealMatrix::from_fn(n, |r, c| (r + 2 * c) as f64);
    let (mut transposed, mut re, mut im) = (squared.clone(), squared.clone(), squared.clone());
    a.matmul_into::<M>(&a, &mut squared);
    a.transpose_into(&mut transposed);
    a.matmul_into::<M>(&b_re, &mut re);
    transposed.matmul_onto::<M>(-1.0, &b_im, &mut re);
    a.matmul_into::<M>(&b_im, &mut im);
    transposed.matmul_onto::<M>(1.0, &b_re, &mut im);
    assert_real_kernels(
        n,
        (a_data, b_data),
        (squared.as_slice(), transposed.as_slice()),
        (re.as_slice(), im.as_slice()),
    );
}

/// A flat real eigensystem of the symmetric part of `data` against the
/// complex solver's spectrum: identical sorted eigenvalues, `V Λ Vᵀ`
/// reconstruction and `Vᵀ V = I`, all at 1e-12.
fn assert_real_eigensystem(
    n: usize,
    data: &[f64],
    lambdas: &[f64],
    vectors: &[f64],
    oracle: &[f64],
) {
    let tol = 1e-12;
    assert!(
        lambdas.windows(2).all(|pair| pair[0] <= pair[1]),
        "eigenvalues are not ascending at n={n}: {lambdas:?}"
    );
    for (i, (&real, &complex)) in lambdas.iter().zip(oracle).enumerate() {
        assert!(
            (real - complex).abs() < tol,
            "eigenvalue {i} diverges from the complex solver at n={n}: {real} vs {complex}"
        );
    }
    let v = |r: usize, c: usize| vectors[r * n + c];
    for r in 0..n {
        for c in 0..n {
            let symmetric = 0.5 * (data[r * n + c] + data[c * n + r]);
            let rebuilt: f64 = (0..n).map(|k| v(r, k) * lambdas[k] * v(c, k)).sum();
            assert!(
                (rebuilt - symmetric).abs() < tol,
                "V diag(lambda) V^T fails to reconstruct H at n={n}, entry ({r}, {c})"
            );
            let gram: f64 = (0..n).map(|k| v(k, r) * v(k, c)).sum();
            let identity = if r == c { 1.0 } else { 0.0 };
            assert!(
                (gram - identity).abs() < tol,
                "real eigenbasis is not orthonormal at n={n}, entry ({r}, {c})"
            );
        }
    }
}

/// The one-matrix routine the lockstep QL body was derived from — EISPACK
/// `tred2` + `tql2` on the transposed transformation matrix, with the
/// `scale == 0` and `h == 0` skips as branches — kept as the reference for
/// the body's bits: the body has no branch to skip with, and must get the
/// skipped steps right, signed zeros included, by arithmetic.
mod eispack {
    pub fn tred2_tql2(
        n: usize,
        a: &mut [f64],
        eigenvalues: &mut [f64],
        vectors: &mut [f64],
    ) -> usize {
        let (w, d, e) = (a, eigenvalues, &mut vectors[..n]);
        // Fold the symmetric part into the upper triangle, the only one read.
        for r in 0..n {
            for c in (r + 1)..n {
                w[r * n + c] = 0.5 * (w[r * n + c] + w[c * n + r]);
            }
        }

        // tred2, reducing rows/columns n-1 down to 1. In the textbook's indices
        // w[r * n + c] is V[c][r]; a symmetric matrix starts out as its own
        // transpose.
        for j in 0..n {
            d[j] = w[j * n + n - 1];
        }
        for i in (1..n).rev() {
            let scale: f64 = d[..i].iter().map(|x| x.abs()).sum();
            let mut h = 0.0;
            if scale == 0.0 {
                e[i] = d[i - 1];
                for j in 0..i {
                    d[j] = w[j * n + i - 1];
                    w[j * n + i] = 0.0;
                    w[i * n + j] = 0.0;
                }
            } else {
                for x in &mut d[..i] {
                    *x /= scale;
                    h += *x * *x;
                }
                let f = d[i - 1];
                let g = if f > 0.0 { -h.sqrt() } else { h.sqrt() };
                e[i] = scale * g;
                h -= f * g;
                d[i - 1] = f - g;
                // Store the reflector in row i, then e ← (A·u)/h over the rows above.
                w[i * n..][..i].copy_from_slice(&d[..i]);
                e[..i].fill(0.0);
                for j in 0..i {
                    let f = d[j];
                    let row = &w[j * n..][..i];
                    let mut g = e[j] + row[j] * f;
                    for k in (j + 1)..i {
                        g += row[k] * d[k];
                        e[k] += row[k] * f;
                    }
                    e[j] = g;
                }
                let mut f = 0.0;
                for j in 0..i {
                    e[j] /= h;
                    f += e[j] * d[j];
                }
                let hh = f / (h + h);
                for j in 0..i {
                    e[j] -= hh * d[j];
                }
                // A ← A − u·qᵀ − q·uᵀ on the upper triangle of the leading block.
                for j in 0..i {
                    let (f, g) = (d[j], e[j]);
                    let row = &mut w[j * n..][..i];
                    for k in j..i {
                        row[k] -= f * e[k] + g * d[k];
                    }
                    d[j] = w[j * n + i - 1];
                    w[j * n + i] = 0.0;
                }
            }
            d[i] = h;
        }
        // Accumulate the reflectors into Vᵀ, leading block by leading block.
        for i in 0..n - 1 {
            w[i * n + n - 1] = w[i * n + i];
            w[i * n + i] = 1.0;
            let h = d[i + 1];
            let (above, below) = w.split_at_mut((i + 1) * n);
            let reflector = &mut below[..=i];
            if h != 0.0 {
                for (slot, &u) in d[..=i].iter_mut().zip(reflector.iter()) {
                    *slot = u / h;
                }
                for row in above.chunks_exact_mut(n) {
                    let row = &mut row[..=i];
                    let g: f64 = reflector.iter().zip(row.iter()).map(|(u, x)| u * x).sum();
                    for (x, &u) in row.iter_mut().zip(d[..=i].iter()) {
                        *x -= g * u;
                    }
                }
            }
            reflector.fill(0.0);
        }
        for j in 0..n {
            d[j] = w[j * n + n - 1];
            w[j * n + n - 1] = 0.0;
        }
        w[n * n - 1] = 1.0;

        // tql2 on the tridiagonal (d, e), rotating the rows of Vᵀ.
        e.copy_within(1.., 0);
        e[n - 1] = 0.0;
        let max_iterations = 60;
        let (mut shift, mut norm, mut iterations) = (0.0, 0.0f64, 0);
        for l in 0..n {
            // A sub-diagonal this far below the largest |d| + |e| seen is zero.
            // The floor at 1 matches the Jacobi body's absolute tolerance and
            // keeps p² + e² below from underflowing.
            norm = norm.max(d[l].abs() + e[l].abs());
            let negligible = f64::EPSILON * norm.max(1.0);
            let mut m = l;
            while m + 1 < n && e[m].abs() > negligible {
                m += 1;
            }
            if m > l {
                for _ in 0..max_iterations {
                    iterations += 1;
                    // The implicit (Wilkinson) shift.
                    let g = d[l];
                    let p = (d[l + 1] - g) / (2.0 * e[l]);
                    let r = if p < 0.0 {
                        -(p * p + 1.0).sqrt()
                    } else {
                        (p * p + 1.0).sqrt()
                    };
                    d[l] = e[l] / (p + r);
                    d[l + 1] = e[l] * (p + r);
                    let dl1 = d[l + 1];
                    let h = g - d[l];
                    for x in &mut d[l + 2..] {
                        *x -= h;
                    }
                    shift += h;
                    // One QL sweep from m down to l.
                    let mut p = d[m];
                    let el1 = e[l + 1];
                    let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
                    let (mut s, mut s2) = (0.0, 0.0);
                    for i in (l..m).rev() {
                        c3 = c2;
                        c2 = c;
                        s2 = s;
                        let g = c * e[i];
                        let h = c * p;
                        let r = (p * p + e[i] * e[i]).sqrt();
                        e[i + 1] = s * r;
                        s = e[i] / r;
                        c = p / r;
                        p = c * d[i] - s * g;
                        d[i + 1] = h + s * (c * g + s * d[i]);
                        for k in 0..n {
                            let (x, y) = (w[i * n + k], w[(i + 1) * n + k]);
                            w[i * n + k] = c * x + -s * y;
                            w[(i + 1) * n + k] = c * y - -s * x;
                        }
                    }
                    let p = -s * s2 * c3 * el1 * e[l] / dl1;
                    e[l] = s * p;
                    d[l] = c * p;
                    if e[l].abs() <= negligible {
                        break;
                    }
                }
            }
            d[l] += shift;
            e[l] = 0.0;
        }

        // Selection sort, ascending, carrying the rows of Vᵀ; then V = (Vᵀ)ᵀ.
        for i in 0..n {
            let mut least = i;
            for j in (i + 1)..n {
                if d[j] < d[least] {
                    least = j;
                }
            }
            d.swap(i, least);
            for k in 0..n {
                w.swap(i * n + k, least * n + k);
            }
        }
        for r in 0..n {
            for c in 0..n {
                vectors[c * n + r] = w[r * n + c];
            }
        }
        iterations
    }
}

/// The one-matrix routine the lockstep Jacobi body was derived from — cyclic
/// Jacobi with the `|apq| ≤ tol/n` skip, both sign branches and convergence
/// as branches — kept as the reference for the body's bits: the body holds a
/// lane with bit-selects where this routine branches.
mod scalar_jacobi {
    fn rotate_rows(m: &mut [f64], n: usize, p: usize, q: usize, c: f64, k: f64) {
        let (head, tail) = m.split_at_mut(q * n);
        let row_p = &mut head[p * n..][..n];
        let row_q = &mut tail[..n];
        for (x, y) in row_p.iter_mut().zip(row_q) {
            let (xp, yq) = (*x, *y);
            *x = c * xp + k * yq;
            *y = c * yq - k * xp;
        }
    }

    pub fn eigh_jacobi(
        n: usize,
        a: &mut [f64],
        eigenvalues: &mut [f64],
        vectors: &mut [f64],
    ) -> usize {
        for r in 0..n {
            for c in (r + 1)..n {
                let mean = 0.5 * (a[r * n + c] + a[c * n + r]);
                a[r * n + c] = mean;
                a[c * n + r] = mean;
            }
        }
        vectors.fill(0.0);
        for i in 0..n {
            vectors[i * n + i] = 1.0;
        }

        let frobenius_norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
        let tol = 1e-14 * frobenius_norm.max(1.0);
        let mut sweeps = 0;
        for _ in 0..60 {
            let mut off_norm = 0.0;
            for p in 0..n {
                for q in (p + 1)..n {
                    off_norm += a[p * n + q] * a[p * n + q];
                }
            }
            if off_norm.sqrt() <= tol {
                break;
            }
            sweeps += 1;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    let magnitude = apq.abs();
                    if magnitude <= tol / (n as f64) {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let tau = (app - aqq) / (2.0 * magnitude);
                    let t = if tau >= 0.0 {
                        1.0 / (tau + (1.0 + tau * tau).sqrt())
                    } else {
                        -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let k = if apq < 0.0 { -t * c } else { t * c };
                    rotate_rows(a, n, p, q, c, k);
                    let shift = t * magnitude;
                    a[p * n + p] = app + shift;
                    a[q * n + q] = aqq - shift;
                    a[p * n + q] = 0.0;
                    a[q * n + p] = 0.0;
                    for j in 0..n {
                        a[j * n + p] = a[p * n + j];
                        a[j * n + q] = a[q * n + j];
                    }
                    rotate_rows(vectors, n, p, q, c, k);
                }
            }
        }

        for (i, value) in eigenvalues.iter_mut().enumerate() {
            *value = a[i * n + i];
        }
        // Selection sort, ascending, carrying the rows of Vᵀ; then V = (Vᵀ)ᵀ.
        for i in 0..n {
            let mut least = i;
            for j in (i + 1)..n {
                if eigenvalues[j] < eigenvalues[least] {
                    least = j;
                }
            }
            eigenvalues.swap(i, least);
            for k in 0..n {
                vectors.swap(i * n + k, least * n + k);
            }
        }
        for r in 0..n {
            for c in (r + 1)..n {
                vectors.swap(r * n + c, c * n + r);
            }
        }
        sweeps
    }
}

/// One matrix through a solver: its input (consumed as the working copy),
/// eigenvalues and eigenvectors; returns the iteration count.
type Solver = fn(usize, &mut [f64], &mut [f64], &mut [f64]) -> usize;

/// One to four matrices through a lane body's four-lane instantiation.
type Batch = fn(usize, &mut [QlLane<'_>]) -> [usize; 4];

fn jacobi_batch(n: usize, lanes: &mut [QlLane<'_>]) -> [usize; 4] {
    eigh_jacobi::<4>(n, lanes, &mut vec![f64::NAN; 4 * jacobi_scratch_len(n)])
}

fn ql_batch(n: usize, lanes: &mut [QlLane<'_>]) -> [usize; 4] {
    eigh_ql::<4>(n, lanes, &mut vec![f64::NAN; 4 * ql_scratch_len(n)])
}

/// One matrix through the Jacobi body's one-lane instantiation.
fn jacobi_alone(n: usize, a: &mut [f64], lambdas: &mut [f64], vectors: &mut [f64]) -> usize {
    let mut scratch = vec![f64::NAN; jacobi_scratch_len(n)];
    eigh_jacobi::<1>(n, &mut [(a, lambdas, vectors)], &mut scratch)[0]
}

/// One matrix through the QL body's one-lane instantiation.
fn ql_alone(n: usize, a: &mut [f64], lambdas: &mut [f64], vectors: &mut [f64]) -> usize {
    let mut scratch = vec![f64::NAN; ql_scratch_len(n)];
    eigh_ql::<1>(n, &mut [(a, lambdas, vectors)], &mut scratch)[0]
}

/// One to `L` matrices through [`eigh_ql_interleaved`], written into its
/// batch entry by entry as the GRAPE engine assembles them there. Each
/// lane's input storage is then overwritten with NaN — it is output only,
/// where the `Vᵀ` must come back — and the places past the last matrix are
/// left NaN for the solver to fill.
fn ql_interleaved<const L: usize>(n: usize, lanes: &mut [QlLane<'_>]) -> [usize; L] {
    let mut scratch = vec![f64::NAN; L * ql_scratch_len(n)];
    let batch = ql_input::<L>(n, &mut scratch);
    for (place, (a, _, _)) in lanes.iter_mut().enumerate() {
        for (slot, &x) in batch.iter_mut().zip(a.iter()) {
            slot[place] = x;
        }
        a.fill(f64::NAN);
    }
    eigh_ql_interleaved::<L>(n, lanes, &mut scratch)
}

fn ql_interleaved_batch(n: usize, lanes: &mut [QlLane<'_>]) -> [usize; 4] {
    ql_interleaved::<4>(n, lanes)
}

fn ql_interleaved_alone(
    n: usize,
    a: &mut [f64],
    lambdas: &mut [f64],
    vectors: &mut [f64],
) -> usize {
    ql_interleaved::<1>(n, &mut [(a, lambdas, vectors)])[0]
}

/// One matrix through `batch`, as a group of three: it sits in the middle,
/// and the padding repeats another matrix.
fn middle_of_three(batch: Batch, n: usize, lane: QlLane<'_>) -> usize {
    let mut others = [(); 2].map(|_| {
        let neighbour: Vec<f64> = (0..n * n).map(|i| (i as f64).sin()).collect();
        (neighbour, vec![0.0; n], vec![0.0; n * n])
    });
    let [(a0, l0, v0), (a2, l2, v2)] = &mut others;
    let mut group = [
        (&mut a0[..], &mut l0[..], &mut v0[..]),
        lane,
        (&mut a2[..], &mut l2[..], &mut v2[..]),
    ];
    batch(n, &mut group)[1]
}

fn jacobi_in_a_batch(n: usize, a: &mut [f64], lambdas: &mut [f64], vectors: &mut [f64]) -> usize {
    middle_of_three(jacobi_batch, n, (a, lambdas, vectors))
}

fn ql_in_a_batch(n: usize, a: &mut [f64], lambdas: &mut [f64], vectors: &mut [f64]) -> usize {
    middle_of_three(ql_batch, n, (a, lambdas, vectors))
}

/// Both solver bodies on flat storage — whichever of them the dimension rule
/// would pick at `n`, each alone and in a batch — against `oracle`.
fn assert_both_bodies(n: usize, data: &[f64], oracle: &[f64]) {
    let bodies: [Solver; 4] = [jacobi_alone, jacobi_in_a_batch, ql_alone, ql_in_a_batch];
    for body in bodies {
        let mut h = data.to_vec();
        let mut lambdas = vec![f64::NAN; n];
        let mut vectors: Vec<f64> = (0..n * n).map(|i| i as f64).collect();
        body(n, &mut h, &mut lambdas, &mut vectors);
        assert_real_eigensystem(n, data, &lambdas, &vectors, oracle);
    }
}

/// The real-symmetric stack solver, and each of its bodies from 3×3 up,
/// against the complex `small::eigh_into`.
fn check_real_eigh<const N: usize>(data: &[f64]) {
    let symmetric = Matrix::from_fn(N, N, |r, c| {
        c64(0.5 * (data[r * N + c] + data[c * N + r]), 0.0)
    });
    let mut oracle = [0.0; N];
    small::eigh_into(
        &SmallMatrix::<N>::from_matrix(&symmetric),
        &mut SmallEighWorkspace::new(),
        &mut oracle,
        &mut SmallMatrix::zeros(),
    );

    let mut h = RealSmallMatrix::<N>::from_fn(|r, c| data[r * N + c]);
    let mut lambdas = [f64::NAN; N];
    let mut vectors = RealSmallMatrix::<N>::from_fn(|r, c| (r + 2 * c) as f64);
    let mut scratch = vec![f64::NAN; eigh_scratch_len(N)];
    let iterations = h.eigh_in_place(&mut lambdas, &mut vectors, &mut scratch);
    assert!(N != 2 || iterations == 0, "the 2x2 path is closed-form");
    assert_real_eigensystem(N, data, &lambdas, vectors.as_slice(), &oracle);
    if N > 2 {
        assert_both_bodies(N, data, &oracle);
    }
}

/// The heap instance of the same solver bodies against the dynamic complex
/// `eigh`.
fn check_real_eigh_heap(n: usize, data: &[f64]) {
    let symmetric = Matrix::from_fn(n, n, |r, c| {
        c64(0.5 * (data[r * n + c] + data[c * n + r]), 0.0)
    });
    let oracle = eigh(&symmetric).eigenvalues;

    let mut h = RealMatrix::from_fn(n, |r, c| data[r * n + c]);
    let mut lambdas = vec![f64::NAN; n];
    let mut vectors = RealMatrix::from_fn(n, |r, c| (r + 2 * c) as f64);
    let mut scratch = vec![f64::NAN; eigh_scratch_len(n)];
    h.eigh_in_place(&mut lambdas, &mut vectors, &mut scratch);
    assert_real_eigensystem(n, data, &lambdas, vectors.as_slice(), &oracle);
    assert_both_bodies(n, data, &oracle);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_matches_dynamic_2(a in arb_entries(2, 3.0), b in arb_entries(2, 3.0)) {
        check_matmul::<2>(&a, &b);
    }

    #[test]
    fn matmul_matches_dynamic_4(a in arb_entries(4, 3.0), b in arb_entries(4, 3.0)) {
        check_matmul::<4>(&a, &b);
    }

    #[test]
    fn matmul_matches_dynamic_8(a in arb_entries(8, 3.0), b in arb_entries(8, 3.0)) {
        check_matmul::<8>(&a, &b);
    }

    #[test]
    fn small_eigh_is_the_heap_eigh_2(a in arb_entries(2, 2.0)) {
        check_small_eigh::<2>(&a);
    }

    #[test]
    fn small_eigh_is_the_heap_eigh_4(a in arb_entries(4, 2.0)) {
        check_small_eigh::<4>(&a);
    }

    #[test]
    fn small_eigh_is_the_heap_eigh_8(a in arb_entries(8, 2.0)) {
        check_small_eigh::<8>(&a);
    }

    #[test]
    fn eigh_decomposes_2(a in arb_entries(2, 2.0)) {
        check_eigh(2, &a);
    }

    #[test]
    fn eigh_decomposes_4(a in arb_entries(4, 2.0)) {
        check_eigh(4, &a);
    }

    #[test]
    fn eigh_decomposes_8(a in arb_entries(8, 2.0)) {
        check_eigh(8, &a);
    }

    #[test]
    fn real_kernels_match_complex_2(a in arb_reals(2), b in arb_entries(2, 3.0)) {
        check_real_kernels::<2>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_4(a in arb_reals(4), b in arb_entries(4, 3.0)) {
        check_real_kernels::<4>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_8(a in arb_reals(8), b in arb_entries(8, 3.0)) {
        check_real_kernels::<8>(&a, &b);
    }

    #[test]
    fn real_kernels_match_complex_heap(a in arb_reals(9), b in arb_entries(9, 3.0)) {
        check_real_kernels_heap(3, &a[..9], &b[..9]);
        check_real_kernels_heap(9, &a, &b);
    }

    #[test]
    fn real_eigh_matches_complex_2(a in arb_reals(2)) {
        check_real_eigh::<2>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_4(a in arb_reals(4)) {
        check_real_eigh::<4>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_8(a in arb_reals(8)) {
        check_real_eigh::<8>(&a);
    }

    #[test]
    fn real_eigh_matches_complex_heap(a in arb_reals(9)) {
        check_real_eigh_heap(3, &a[..9]);
        check_real_eigh_heap(9, &a);
    }
}

proptest! {
    // Three qutrits: 11x the work of a dim-9 case per solve.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn real_eigh_matches_complex_heap_27(a in arb_reals(27)) {
        check_real_eigh_heap(27, &a);
    }
}

proptest! {
    // N = 16 cases are ~64x the work of N = 4; a smaller case count keeps the
    // suite fast at the widest block the GRAPE engine's stack storage holds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_matches_dynamic_16(a in arb_entries(16, 2.0), b in arb_entries(16, 2.0)) {
        check_matmul::<16>(&a, &b);
    }

    #[test]
    fn small_eigh_is_the_heap_eigh_16(a in arb_entries(16, 1.0)) {
        check_small_eigh::<16>(&a);
    }

    #[test]
    fn eigh_decomposes_16(a in arb_entries(16, 1.0)) {
        check_eigh(16, &a);
    }

    #[test]
    fn real_kernels_match_complex_16(a in arb_reals(16), b in arb_entries(16, 2.0)) {
        check_real_kernels::<16>(&a, &b);
    }

    #[test]
    fn real_eigh_matches_complex_16(a in arb_reals(16)) {
        check_real_eigh::<16>(&a);
    }
}

/// The spectra a device really hands the solvers: the zero matrix (every
/// amplitude 0), flux only (already diagonal, descending, with repeats — zero
/// Jacobi sweeps), one charge drive (`I ⊗ X`: ±1, each `n / 2`-fold
/// degenerate, off the diagonal), no charge drive (flux and one `X ⊗ X`
/// coupling), and a dense matrix whose eigenvalues pair up at gaps on either
/// side of the gradient contraction's 1e-10 degeneracy threshold.
const DEVICE_SPECTRA: [fn(usize) -> Vec<f64>; 5] = [
    zero,
    flux_only,
    one_charge_drive,
    charge_free,
    near_degenerate_pairs,
];

fn zero(n: usize) -> Vec<f64> {
    vec![0.0; n * n]
}

fn flux_only(n: usize) -> Vec<f64> {
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        data[i * n + i] = 2.0 - (i / 2) as f64;
    }
    data
}

fn one_charge_drive(n: usize) -> Vec<f64> {
    let mut data = vec![0.0; n * n];
    for i in 0..n - n % 2 {
        data[i * n + (i ^ 1)] = 1.0;
    }
    data
}

fn charge_free(n: usize) -> Vec<f64> {
    let mut data = flux_only(n);
    for i in 0..n {
        if i ^ 3 < n {
            data[i * n + (i ^ 3)] = 0.7;
        }
    }
    data
}

/// `Q · diag(λ) · Qᵀ` with `λ` in pairs `(k, k + gap)`, the gaps alternating
/// between 0.5e-10 and 2e-10, and `Q` a product of plane rotations over every
/// index pair.
fn near_degenerate_pairs(n: usize) -> Vec<f64> {
    let mut data = vec![0.0; n * n];
    for i in 0..n {
        let gap = if (i / 2) % 2 == 0 { 0.5e-10 } else { 2e-10 };
        data[i * n + i] = (i / 2) as f64 * 0.37 - 1.0 + (i % 2) as f64 * gap;
    }
    for p in 0..n {
        for q in (p + 1)..n {
            let (sin, cos) = (0.3 + (p * n + q) as f64).sin_cos();
            for k in 0..n {
                let (x, y) = (data[p * n + k], data[q * n + k]);
                data[p * n + k] = cos * x + sin * y;
                data[q * n + k] = cos * y - sin * x;
            }
            for k in 0..n {
                let (x, y) = (data[k * n + p], data[k * n + q]);
                data[k * n + p] = cos * x + sin * y;
                data[k * n + q] = cos * y - sin * x;
            }
        }
    }
    data
}

/// At every stack dimension and at heap dims 3, 9 and 27, through the
/// dimension rule and through both bodies.
#[test]
fn real_eigh_handles_the_spectra_a_device_produces() {
    // The stack dimensions below sit on both sides of the rule.
    const { assert!(4 < QL_MIN_DIM && QL_MIN_DIM <= 8) };
    // The pairs are for the iterative bodies. The 2x2 closed form builds its
    // two eigenvectors independently, which is exact enough only because a
    // device's 2x2 Hamiltonian has a zero corner: its eigenvalues cannot
    // nearly coincide away from zero.
    check_real_eigh::<2>(&[0.0, 3e-11, 3e-11, 0.5e-10]);
    for inputs in &DEVICE_SPECTRA[..3] {
        check_real_eigh::<2>(&inputs(2));
    }
    for inputs in DEVICE_SPECTRA {
        check_real_eigh::<4>(&inputs(4));
        check_real_eigh::<8>(&inputs(8));
        check_real_eigh::<16>(&inputs(16));
        check_real_eigh_heap(3, &inputs(3));
        check_real_eigh_heap(9, &inputs(9));
        check_real_eigh_heap(27, &inputs(27));
    }
}

/// One eigensystem as bits: eigenvalues, eigenvectors, iterations, and what
/// the input storage holds afterwards.
type Bits = (Vec<u64>, Vec<u64>, usize, Vec<u64>);

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// Solves `data` on its own by `solver`.
fn solve_alone(n: usize, data: &[f64], solver: Solver) -> Bits {
    let (mut a, mut lambdas, mut vectors) =
        (data.to_vec(), vec![f64::NAN; n], vec![f64::NAN; n * n]);
    let count = solver(n, &mut a, &mut lambdas, &mut vectors);
    (bits(&lambdas), bits(&vectors), count, bits(&a))
}

/// Solves `group` — one to four matrices — as one `batch`.
fn solve_batch(n: usize, group: &[&Vec<f64>], batch: Batch) -> Vec<Bits> {
    let mut storage: Vec<_> = group
        .iter()
        .map(|&data| (data.clone(), vec![f64::NAN; n], vec![f64::NAN; n * n]))
        .collect();
    let mut lanes: Vec<QlLane<'_>> = storage
        .iter_mut()
        .map(|(a, lambdas, vectors)| (&mut a[..], &mut lambdas[..], &mut vectors[..]))
        .collect();
    let counts = batch(n, &mut lanes);
    assert!(
        counts[group.len()..].iter().all(|&count| count == 0),
        "a padding lane reported iterations: {counts:?}"
    );
    let solved = storage.iter().zip(counts);
    solved
        .map(|((a, lambdas, vectors), count)| (bits(lambdas), bits(vectors), count, bits(a)))
        .collect()
}

/// A lockstep body: the one-matrix routine it was derived from, and its
/// one- and four-lane instantiations.
struct Body {
    oracle: Solver,
    alone: Solver,
    batch: Batch,
    /// Whether the body hands each matrix's `Vᵀ` back in its input storage,
    /// where the oracle leaves it too, so that is held to the oracle's bits
    /// as well.
    hands_back_vt: bool,
}

impl Body {
    /// Whether `solved` is `expected`, bit for bit.
    fn same(&self, solved: &Bits, expected: &Bits) -> bool {
        let (lambdas, vectors, count, input) = solved;
        (lambdas, vectors, count) == (&expected.0, &expected.1, &expected.2)
            && (!self.hands_back_vt || *input == expected.3)
    }
}

const QL: Body = Body {
    oracle: eispack::tred2_tql2,
    alone: ql_alone,
    batch: ql_batch,
    hands_back_vt: true,
};

/// The QL body on input written straight into its batch.
const QL_INTERLEAVED: Body = Body {
    oracle: eispack::tred2_tql2,
    alone: ql_interleaved_alone,
    batch: ql_interleaved_batch,
    hands_back_vt: true,
};

const JACOBI: Body = Body {
    oracle: scalar_jacobi::eigh_jacobi,
    alone: jacobi_alone,
    batch: jacobi_batch,
    hands_back_vt: false,
};

/// Every matrix of `pool`, alone and in every place of a batch of every
/// size, beside every run of its neighbours in the pool, must come out with
/// the bits — eigenvalues, eigenvectors and iteration count — that `body`'s
/// one-matrix routine gives it: a lane never sees its neighbours, a padding
/// lane never counts, and a lane that converges early is held, not disturbed.
fn assert_batches_match(body: &Body, n: usize, pool: &[Vec<f64>]) {
    let reference: Vec<Bits> = pool
        .iter()
        .map(|data| solve_alone(n, data, body.oracle))
        .collect();
    for (index, (data, expected)) in pool.iter().zip(&reference).enumerate() {
        assert!(
            body.same(&solve_alone(n, data, body.alone), expected),
            "n={n}: the one-lane body diverges from the one-matrix routine on matrix {index}"
        );
    }
    for size in 1..=4 {
        for first in 0..pool.len() {
            let members: Vec<usize> = (0..size).map(|k| (first + k) % pool.len()).collect();
            let group: Vec<&Vec<f64>> = members.iter().map(|&index| &pool[index]).collect();
            let solved = solve_batch(n, &group, body.batch);
            for (place, (solved, &index)) in solved.iter().zip(&members).enumerate() {
                assert!(
                    body.same(solved, &reference[index]),
                    "n={n}: matrix {index} in place {place} of a batch of {size} \
                     (matrices {members:?}) diverges from the one-matrix routine; \
                     {} iterations against {}",
                    solved.2,
                    reference[index].2
                );
            }
        }
    }
}

/// A dense matrix with no structure, entries in `(-1, 1)`.
fn dense(n: usize, seed: f64) -> Vec<f64> {
    (0..n * n).map(|i| (seed + 1.7 * i as f64).sin()).collect()
}

/// `data` with every positive zero turned negative. A solver that skips a
/// zero sub-row leaves those signs alone; one that subtracts a computed zero
/// from them does not, unless the zero it subtracts is positive.
fn with_negative_zeros(mut data: Vec<f64>) -> Vec<f64> {
    for x in &mut data {
        if *x == 0.0 {
            *x = -0.0;
        }
    }
    data
}

/// Matrices of different spectra to put side by side — the device's own,
/// with either sign of zero, and dense ones.
fn mixed_pool(n: usize) -> Vec<Vec<f64>> {
    let mut pool = vec![dense(n, 0.3)];
    for inputs in DEVICE_SPECTRA {
        pool.push(inputs(n));
    }
    pool.push(dense(n, 4.1));
    for inputs in &DEVICE_SPECTRA[..4] {
        pool.push(with_negative_zeros(inputs(n)));
    }
    // One charge drive among idle qubits, as an asymmetric input: only the
    // symmetric part counts (and QL skips its zero sub-rows).
    let mut lopsided = one_charge_drive(n);
    lopsided[1] = 3.0;
    lopsided[n] = -1.0;
    pool.push(lopsided);
    pool
}

/// At the stack QL dimensions and at heap dims 9 and 27, with the input
/// interleaved by the solver and written into its batch by the caller; the
/// `Vᵀ` each matrix's input storage hands back is held to the oracle's too.
#[test]
fn ql_batches_give_every_matrix_the_one_matrix_bits() {
    for n in [8, 16, 9, 27] {
        for body in [&QL, &QL_INTERLEAVED] {
            assert_batches_match(body, n, &mixed_pool(n));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ql_batches_match_eispack_on_random_matrices(
        a in arb_reals(16),
        b in arb_reals(16),
        c in arb_reals(16),
    ) {
        let pool = [a, zero(16), b, flux_only(16), c];
        let leading = |data: &Vec<f64>| data[..64].to_vec();
        for body in [&QL, &QL_INTERLEAVED] {
            assert_batches_match(body, 16, &pool);
            assert_batches_match(body, 8, &pool.each_ref().map(leading));
        }
    }

    #[test]
    fn jacobi_batches_match_the_scalar_routine_on_random_matrices(
        a in arb_reals(7),
        b in arb_reals(7),
        c in arb_reals(7),
    ) {
        for n in 3..QL_MIN_DIM {
            let pool = [&a, &zero(7), &b, &flux_only(7), &c].map(|data| data[..n * n].to_vec());
            assert_batches_match(&JACOBI, n, &pool);
        }
    }
}

/// The Jacobi dimension's solver on the stack storage, one matrix.
fn stack_in_place<const N: usize>(
    n: usize,
    a: &mut [f64],
    lambdas: &mut [f64],
    vectors: &mut [f64],
) -> usize {
    assert_eq!(n, N);
    let mut h = RealSmallMatrix::<N>::from_fn(|r, c| a[r * N + c]);
    let mut v = RealSmallMatrix::<N>::ZERO;
    let count = h.eigh_in_place(lambdas, &mut v, &mut vec![f64::NAN; eigh_scratch_len(N)]);
    vectors.copy_from_slice(v.as_slice());
    count
}

/// The same on the heap storage.
fn heap_in_place(n: usize, a: &mut [f64], lambdas: &mut [f64], vectors: &mut [f64]) -> usize {
    let mut h = RealMatrix::from_fn(n, |r, c| a[r * n + c]);
    let mut v = RealMatrix::zeros(n);
    let count = h.eigh_in_place(lambdas, &mut v, &mut vec![f64::NAN; eigh_scratch_len(n)]);
    vectors.copy_from_slice(v.as_slice());
    count
}

/// Every batch of `pool` against the scalar Jacobi routine, and
/// `eigh_in_place` on the stack and the heap — the one-lane instantiation —
/// too.
fn assert_jacobi_bits<const N: usize>(pool: &[Vec<f64>]) {
    assert_batches_match(&JACOBI, N, pool);
    for (index, data) in pool.iter().enumerate() {
        let expected = solve_alone(N, data, scalar_jacobi::eigh_jacobi);
        let (stack, heap) = (stack_in_place::<N>, heap_in_place);
        for (storage, solver) in [("stack", stack as Solver), ("heap", heap)] {
            assert!(
                JACOBI.same(&solve_alone(N, data, solver), &expected),
                "n={N}: eigh_in_place on the {storage} diverges from the scalar routine \
                 on matrix {index}"
            );
        }
    }
}

/// Every Jacobi dimension, 3 to 7.
#[test]
fn jacobi_batches_give_every_matrix_the_one_matrix_bits() {
    const { assert!(QL_MIN_DIM == 8) };
    assert_jacobi_bits::<3>(&mixed_pool(3));
    assert_jacobi_bits::<4>(&mixed_pool(4));
    assert_jacobi_bits::<5>(&mixed_pool(5));
    assert_jacobi_bits::<6>(&mixed_pool(6));
    assert_jacobi_bits::<7>(&mixed_pool(7));
}

/// Warm inputs as the GRAPE engine makes them: each slice Hamiltonian of a
/// `device` block at every step of an ADAM walk from the seeded guess (the
/// update `crates/bench/benches/grape.rs`'s `Trajectory::record` runs, at
/// `GrapeOptions::fast()`), rotated into that slice's eigenbasis from the
/// step before, `VᵀHV`, the basis carried forward as the engine carries it.
fn adam_warm_inputs(device: &DeviceModel, target: &Matrix, steps: i32) -> Vec<Vec<f64>> {
    let (slices, n) = (5, device.dim());
    let options = GrapeOptions::fast();
    let (beta1, beta2, eps) = (0.9_f64, 0.999_f64, 1e-8);
    let (drift, controls) = (device.drift(), device.control_hamiltonians());
    let limits: Vec<f64> = controls
        .iter()
        .map(|control| control.max_amplitude)
        .collect();
    let mut workspace = GrapeWorkspace::new(device, slices);
    workspace.set_target(device, target);
    let mut pulse = PulseSequence::seeded_guess(device, slices, options.dt_ns, options.seed);
    pulse.clamp_to_device(device);
    let mut moments = vec![(0.0, 0.0); slices * limits.len()];
    let mut learning_rate = options.learning_rate;
    let mut bases: Vec<Option<RealMatrix>> = vec![None; slices];
    let mut inputs = Vec::new();
    for step in 1..=steps {
        for (t, basis) in bases.iter_mut().enumerate() {
            let h = slice_hamiltonian(&drift, &controls, &pulse, t);
            let mut problem = RealMatrix::from_fn(n, |r, c| h[(r, c)].re);
            if let Some(v) = basis {
                let (mut vt, mut vt_h) = (RealMatrix::zeros(n), RealMatrix::zeros(n));
                v.transpose_into(&mut vt);
                vt.matmul_into::<Unfused>(&problem, &mut vt_h);
                vt_h.matmul_into::<Unfused>(v, &mut problem);
                inputs.push(problem.as_slice().to_vec());
            }
            let (mut lambdas, mut vectors) = (vec![0.0; n], RealMatrix::zeros(n));
            let solved = (problem.as_mut_slice(), &mut lambdas, vectors.as_mut_slice());
            scalar_jacobi::eigh_jacobi(n, solved.0, solved.1, solved.2);
            *basis = Some(match basis.take() {
                Some(v) => {
                    let mut composed = RealMatrix::zeros(n);
                    v.matmul_into::<Unfused>(&vectors, &mut composed);
                    composed
                }
                None => vectors,
            });
        }
        workspace.fidelity_gradient(&pulse);
        let slots = moments.iter_mut().zip(workspace.gradient());
        for (index, ((m, v), &grad)) in slots.enumerate() {
            let (t, k) = (index / limits.len(), index % limits.len());
            *m = beta1 * *m + (1.0 - beta1) * grad;
            *v = beta2 * *v + (1.0 - beta2) * grad * grad;
            let m_hat = *m / (1.0 - beta1.powi(step));
            let v_hat = *v / (1.0 - beta2.powi(step));
            let moved = pulse.amplitude(k, t) - learning_rate * m_hat / (v_hat.sqrt() + eps);
            pulse.set_amplitude(k, t, moved.clamp(-limits[k], limits[k]));
        }
        learning_rate *= options.decay_rate;
    }
    inputs
}

/// Nearly diagonal inputs, side by side at different sweep counts, at the
/// two Jacobi dimensions a device has: a 2-qubit block and a qutrit.
#[test]
fn jacobi_batches_give_warm_trajectory_inputs_the_one_matrix_bits() {
    let two_qubits = adam_warm_inputs(&DeviceModel::qubits_line(2), &gates::cx(), 24);
    let qutrit = DeviceModel::qubits_line(1).with_qutrit_levels();
    let qutrit = adam_warm_inputs(&qutrit, &gates::h(), 24);
    for (n, pool) in [(4, &two_qubits), (3, &qutrit)] {
        let sweeps: Vec<usize> = pool
            .iter()
            .map(|data| solve_alone(n, data, scalar_jacobi::eigh_jacobi).2)
            .collect();
        let (fewest, most) = (sweeps.iter().min(), sweeps.iter().max());
        assert!(
            fewest < most && most > Some(&1),
            "n={n}: the warm inputs should take different sweep counts: {sweeps:?}"
        );
    }
    assert_jacobi_bits::<4>(&two_qubits);
    assert_jacobi_bits::<3>(&qutrit);
}
