//! Real-symmetric kernels for the GRAPE hot loop.
//!
//! Every Hamiltonian the gmon device model produces — charge `a + a†`, flux
//! `a†a`, coupling `(a + a†)(a + a†)`, zero drift — is real symmetric, so its
//! eigenvectors are real too, and the GRAPE engine keeps every *complex*
//! matrix planar: a pair `(re, im)` of the real storages below. This module is
//! therefore all the linear algebra the engine runs on: inline
//! [`RealSmallMatrix<N>`] and flat heap [`RealMatrix`], each with the real
//! product (plain and accumulating, which is all a planar complex product
//! takes), the transpose and the symmetric eigensolver. Each kernel body
//! exists once, over flat row-major `f64` slices; on the inline storage the
//! dimension is a constant after inlining, so its loops unroll and vectorize.
//!
//! **One eigensolver per dimension**, chosen from `n` alone: the closed form
//! at 2, cyclic Jacobi ([`eigh_jacobi`]) below [`QL_MIN_DIM`], Householder
//! tridiagonalization + implicit-shift QL ([`eigh_ql`]) from there up. Jacobi
//! wins on small matrices *when the caller warm-starts it* by rotating into a
//! previous eigenbasis (a 4×4 device Hamiltonian: 0.49 µs against 0.71 µs);
//! QL costs the same whatever the input, and from 8×8 a cold QL beats rotate +
//! warm Jacobi + compose (16×16: 10.2 µs against 17.5 µs). The complex
//! [`small::eigh_into`](crate::small::eigh_into) and
//! [`eigh_into`](crate::eigh_into) stay as the general Hermitian solvers, and
//! as the oracle the parity suite holds this module to.

/// Column-block width of the heap product; the inline storage uses its row.
const HEAP_BLOCK: usize = 8;

/// Writes the row-major `n x n` product `lhs · rhs` into `out` — or, given
/// `onto: Some(sign)`, adds `sign · lhs · rhs` to what `out` holds —
/// accumulating over `k` in order. An output row is built in column blocks of
/// `W` entries that stay in registers for the whole `k` loop (one block on the
/// inline storage, where `W = n`), and whatever `n % W` columns are left over
/// in place. This is the one product loop nest of the GRAPE engine.
#[inline(always)]
fn matmul<const W: usize>(n: usize, lhs: &[f64], rhs: &[f64], onto: Option<f64>, out: &mut [f64]) {
    assert!(
        lhs.len() == n * n && rhs.len() == n * n && out.len() == n * n,
        "real-kernel product expects {n}x{n} operands"
    );
    let sign = onto.unwrap_or(1.0);
    for (out_row, lhs_row) in out.chunks_exact_mut(n).zip(lhs.chunks_exact(n)) {
        let (blocks, rest) = out_row.as_chunks_mut::<W>();
        for (index, block) in blocks.iter_mut().enumerate() {
            let mut sums = if onto.is_some() { *block } else { [0.0; W] };
            for (&a, rhs_row) in lhs_row.iter().zip(rhs.chunks_exact(n)) {
                let b = &rhs_row.as_chunks::<W>().0[index];
                for (sum, &b) in sums.iter_mut().zip(b) {
                    *sum += sign * a * b;
                }
            }
            *block = sums;
        }
        let done = n - rest.len();
        if onto.is_none() {
            rest.fill(0.0);
        }
        for (&a, rhs_row) in lhs_row.iter().zip(rhs.chunks_exact(n)) {
            for (sum, &b) in rest.iter_mut().zip(&rhs_row[done..]) {
                *sum += sign * a * b;
            }
        }
    }
}

/// Writes the transpose of the row-major `n x n` matrix `a` into `out`.
#[inline(always)]
fn transpose(n: usize, a: &[f64], out: &mut [f64]) {
    assert!(a.len() == n * n && out.len() == n * n);
    for (r, row) in a.chunks_exact(n).enumerate() {
        for (c, &value) in row.iter().enumerate() {
            out[c * n + r] = value;
        }
    }
}

/// Applies the plane rotation `(x, y) ← (c·x + k·y, c·y − k·x)` to rows `p < q`
/// of the row-major `n x n` matrix `m`. Both rows are contiguous, so the loop
/// vectorizes.
#[inline(always)]
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

/// Closed-form symmetric 2×2 eigendecomposition: the real case of the complex
/// solver's closed form (one square root, no sweep).
fn eigh_symmetric_2(a: &[f64], eigenvalues: &mut [f64], vectors: &mut [f64]) {
    let (a00, a11) = (a[0], a[3]);
    let b = 0.5 * (a[1] + a[2]);

    let mean = 0.5 * (a00 + a11);
    let half_diff = 0.5 * (a00 - a11);
    let radius = (half_diff * half_diff + b * b).sqrt();
    eigenvalues[0] = mean - radius;
    eigenvalues[1] = mean + radius;

    let scale = a00.abs().max(a11.abs()).max(b.abs()).max(1.0);
    if b.abs() <= f64::EPSILON * scale {
        // Effectively diagonal (this also covers degenerate eigenvalues, since
        // radius >= |b|): the eigenbasis is the computational basis, ordered by
        // the diagonal.
        let identity_order = a00 <= a11;
        vectors.copy_from_slice(&if identity_order {
            [1.0, 0.0, 0.0, 1.0]
        } else {
            [0.0, 1.0, 1.0, 0.0]
        });
        return;
    }
    for (col, &lambda) in [eigenvalues[0], eigenvalues[1]].iter().enumerate() {
        // Two analytically equivalent eigenvector forms; pick the better
        // conditioned one (larger norm) to avoid cancellation when λ is close
        // to a diagonal entry.
        let first = (b, lambda - a00);
        let second = (lambda - a11, b);
        let first_norm = first.0 * first.0 + first.1 * first.1;
        let second_norm = second.0 * second.0 + second.1 * second.1;
        let ((x, y), norm_sqr) = if first_norm >= second_norm {
            (first, first_norm)
        } else {
            (second, second_norm)
        };
        let inv = 1.0 / norm_sqr.sqrt();
        vectors[col] = x * inv;
        vectors[2 + col] = y * inv;
    }
}

/// Narrowest dimension solved by [`eigh_ql`]. Below it the solver is Jacobi,
/// which — unlike QL — gets cheaper the closer its input is to diagonal, so a
/// caller can warm-start it from a nearby matrix's eigenbasis (`VᵀHV`, solve,
/// compose); from here up that is a loss.
pub const QL_MIN_DIM: usize = 8;

/// Sorts `eigenvalues` ascending, carrying the matching eigenvector *rows* of
/// the row-major `rows` along (selection sort: at most `n` row swaps, no
/// scratch buffer).
#[inline(always)]
fn sort_eigenrows(n: usize, eigenvalues: &mut [f64], rows: &mut [f64]) {
    for i in 0..n {
        let mut least = i;
        for j in (i + 1)..n {
            if eigenvalues[j] < eigenvalues[least] {
                least = j;
            }
        }
        if least != i {
            eigenvalues.swap(i, least);
            let (head, tail) = rows.split_at_mut(least * n);
            head[i * n..][..n].swap_with_slice(&mut tail[..n]);
        }
    }
}

/// The symmetric eigensolver of both storages, under the contract of
/// [`RealSmallMatrix::eigh_in_place`]: exactly one body per dimension, and
/// that body's iteration count.
#[inline(always)]
fn eigh_symmetric(n: usize, a: &mut [f64], eigenvalues: &mut [f64], vectors: &mut [f64]) -> usize {
    match n {
        2 => {
            assert!(a.len() == 4 && vectors.len() == 4 && eigenvalues.len() == 2);
            eigh_symmetric_2(a, eigenvalues, vectors);
            0
        }
        _ if n < QL_MIN_DIM => eigh_jacobi(n, a, eigenvalues, vectors),
        _ => eigh_ql(n, a, eigenvalues, vectors),
    }
}

/// Cyclic Jacobi on the symmetric part of the row-major `n x n` matrix `a`
/// (the contract of [`RealSmallMatrix::eigh_in_place`]); returns the sweep
/// count, 0 for an input that is already diagonal to working precision.
///
/// The sweep schedule, convergence criteria and algebraic rotation (two square
/// roots, no trigonometry) are those of the complex
/// [`small::eigh_into`](crate::small::eigh_into). Symmetry halves the update:
/// a rotation recomputes rows `p` and `q` only and mirrors them into the two
/// columns, and the eigenvectors accumulate as *rows* (of `Vᵀ`), so every
/// arithmetic loop runs over contiguous memory.
///
/// Panics unless `a` and `vectors` hold `n * n` entries and `eigenvalues` `n`.
#[inline(always)]
pub fn eigh_jacobi(n: usize, a: &mut [f64], eigenvalues: &mut [f64], vectors: &mut [f64]) -> usize {
    assert!(
        a.len() == n * n && vectors.len() == n * n && eigenvalues.len() == n,
        "real-symmetric eigh expects {n}x{n} storage and {n} eigenvalues"
    );
    // Work on the symmetric part to be robust against tiny asymmetries.
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

    let max_sweeps = 60;
    let frobenius_norm = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let tol = 1e-14 * frobenius_norm.max(1.0);
    let mut sweeps = 0;
    for _ in 0..max_sweeps {
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
                // Algebraic rotation: the annihilation condition is
                // tan 2θ = 2|apq| / (app − aqq); the smaller-angle root comes
                // from t = tan θ via the stable quadratic form, and the complex
                // kernel's phase factor apq/|apq| is just the sign of apq here.
                let tau = (app - aqq) / (2.0 * magnitude);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let k = if apq < 0.0 { -t * c } else { t * c };

                // A ← Jᵀ A J: off the (p, q) block only the row update acts on
                // rows p and q; the block itself has the closed form below; the
                // two columns are the rows' mirror image.
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
                // V ← V · J, on the rows of Vᵀ.
                rotate_rows(vectors, n, p, q, c, k);
            }
        }
    }

    for (i, value) in eigenvalues.iter_mut().enumerate() {
        *value = a[i * n + i];
    }
    sort_eigenrows(n, eigenvalues, vectors);
    // Turn the eigenvector rows into columns.
    for r in 0..n {
        for c in (r + 1)..n {
            vectors.swap(r * n + c, c * n + r);
        }
    }
    sweeps
}

/// Householder tridiagonalization followed by implicit-shift QL (EISPACK
/// `tred2` + `tql2`) on the row-major symmetric `n x n` matrix `a`, under the
/// contract of [`RealSmallMatrix::eigh_in_place`]; returns the number of QL
/// iterations (about 1.7 per eigenvalue). The cost does not depend on how
/// close `a` is to diagonal, so there is nothing to warm-start.
///
/// Both stages run on the *transpose* of the textbook's transformation matrix
/// — `a` itself, which ends up holding `Vᵀ` — so every reflector dot product,
/// rank-two update and QL plane rotation walks contiguous rows; the one
/// transpose is the copy into `vectors` at the end. Until then the first `n`
/// entries of `vectors` serve as the off-diagonal, so the solver needs no
/// scratch of its own on either storage.
///
/// # Panics
///
/// Panics unless `n >= 2`, `a` and `vectors` hold `n * n` entries and
/// `eigenvalues` `n`.
#[inline(always)]
pub fn eigh_ql(n: usize, a: &mut [f64], eigenvalues: &mut [f64], vectors: &mut [f64]) -> usize {
    assert!(
        n >= 2 && a.len() == n * n && vectors.len() == n * n && eigenvalues.len() == n,
        "real-symmetric eigh expects {n}x{n} storage and {n} eigenvalues"
    );
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
                    rotate_rows(w, n, i, i + 1, c, -s);
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

    sort_eigenrows(n, d, w);
    transpose(n, w, vectors);
    iterations
}

/// A dense real matrix whose dimension is a compile-time constant: the real
/// companion of [`SmallMatrix<N>`](crate::SmallMatrix), stored inline and row-major as
/// `[[f64; N]; N]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealSmallMatrix<const N: usize> {
    rows: [[f64; N]; N],
}

impl<const N: usize> RealSmallMatrix<N> {
    /// The all-zero matrix.
    pub const ZERO: RealSmallMatrix<N> = RealSmallMatrix {
        rows: [[0.0; N]; N],
    };

    /// Builds a matrix entry-by-entry from `f(row, col)`.
    pub fn from_fn(mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Self::ZERO;
        for (r, row) in out.rows.iter_mut().enumerate() {
            for (c, slot) in row.iter_mut().enumerate() {
                *slot = f(r, c);
            }
        }
        out
    }

    /// The `N * N` entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        self.rows.as_flattened()
    }

    /// Mutable view of the `N * N` row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.rows.as_flattened_mut()
    }

    /// Writes the real product `self · rhs` into `out`.
    #[inline]
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul::<N>(N, self.as_slice(), rhs.as_slice(), None, out.as_mut_slice());
    }

    /// Adds `sign · self · rhs` to `out` (a planar complex product is four of these).
    #[inline]
    pub fn matmul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        let onto = Some(sign);
        matmul::<N>(N, self.as_slice(), rhs.as_slice(), onto, out.as_mut_slice());
    }

    /// Writes `selfᵀ` into `out`.
    #[inline]
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(N, self.as_slice(), out.as_mut_slice());
    }

    /// Diagonalizes symmetric `self` without heap allocation:
    /// `self = eigenvectors · diag(eigenvalues) · eigenvectorsᵀ`, eigenvalues
    /// ascending. `self` is consumed as the working copy (contents unspecified
    /// afterwards). Only the symmetric part of `self` influences the result.
    ///
    /// The solver is chosen by `N` alone — closed form at 2, [`eigh_jacobi`]
    /// below [`QL_MIN_DIM`], [`eigh_ql`] from there up — and its iteration
    /// count is returned: 0, Jacobi sweeps, or implicit-QL iterations.
    ///
    /// # Panics
    ///
    /// Panics if `eigenvalues.len() != N`.
    #[inline]
    pub fn eigh_in_place(&mut self, eigenvalues: &mut [f64], eigenvectors: &mut Self) -> usize {
        eigh_symmetric(
            N,
            self.as_mut_slice(),
            eigenvalues,
            eigenvectors.as_mut_slice(),
        )
    }
}

/// A dense square real matrix on the heap: the real companion of [`Matrix`](crate::Matrix) for
/// the dimensions [`RealSmallMatrix`] is not instantiated at. Row-major in one
/// flat `Vec<f64>`.
#[derive(Debug, Clone, PartialEq)]
pub struct RealMatrix {
    dim: usize,
    data: Vec<f64>,
}

impl RealMatrix {
    /// The `dim x dim` all-zero matrix.
    pub fn zeros(dim: usize) -> Self {
        RealMatrix {
            dim,
            data: vec![0.0; dim * dim],
        }
    }

    /// Builds a `dim x dim` matrix entry-by-entry from `f(row, col)`.
    pub fn from_fn(dim: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut out = Self::zeros(dim);
        for (index, slot) in out.data.iter_mut().enumerate() {
            *slot = f(index / dim, index % dim);
        }
        out
    }

    /// The matrix dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `dim * dim` entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the `dim * dim` row-major entries.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Writes the real product `self · rhs` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the three dimensions differ (as do all the kernels below).
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul::<HEAP_BLOCK>(self.dim, &self.data, &rhs.data, None, &mut out.data);
    }

    /// Adds `sign · self · rhs` to `out`.
    pub fn matmul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        matmul::<HEAP_BLOCK>(self.dim, &self.data, &rhs.data, Some(sign), &mut out.data);
    }

    /// Writes `selfᵀ` into `out`.
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(self.dim, &self.data, &mut out.data);
    }

    /// The heap instance of [`RealSmallMatrix::eigh_in_place`]: the same
    /// solver bodies under the same dimension rule, with the same contract.
    pub fn eigh_in_place(&mut self, eigenvalues: &mut [f64], eigenvectors: &mut Self) -> usize {
        eigh_symmetric(
            self.dim,
            &mut self.data,
            eigenvalues,
            &mut eigenvectors.data,
        )
    }
}
