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
//! **One eigensolver per dimension**, chosen from `n` alone
//! ([`eigh_symmetric`]): the closed form at 2, cyclic Jacobi ([`eigh_jacobi`])
//! below [`QL_MIN_DIM`], Householder tridiagonalization + implicit-shift QL
//! ([`eigh_ql`]) from there up. Jacobi wins on small matrices *when the caller
//! warm-starts it* by rotating into a previous eigenbasis (a 4×4 device
//! Hamiltonian along an ADAM trajectory, rotation and composition included:
//! 0.57 µs against 0.86 µs for QL, SSE2 width); QL costs the same whatever the
//! input, and from 8×8 a cold QL beats rotate + warm Jacobi + compose (16×16:
//! 12.3 µs against 20.7 µs). Both bodies are written over *lanes*: they solve
//! several matrices side by side, one vector lane each, because a single
//! solve is a chain of dependent square roots and divisions that leaves the
//! vector unit idle — four warm 4×4 Jacobi solves in lockstep take 0.36 µs
//! each, four 16×16 QL solves 7.4 µs each (5.0 µs at AVX2 width), every matrix
//! getting the bits it gets alone; one matrix is the one-lane instantiation.
//! (Four 4×4 QL solves in lockstep, also 0.36 µs each, tie the Jacobi batch;
//! the engine keeps Jacobi there, which keeps every bit of every report.) The complex
//! [`small::eigh_into`](crate::small::eigh_into) and
//! [`eigh_into`](crate::eigh_into) stay as the general Hermitian solvers, and
//! as the oracle the parity suite holds this module to.
//!
//! Nothing here names an instruction set, and nothing fuses a multiply into an
//! add (Rust never does unasked): every kernel is `#[inline(always)]`, so a
//! caller compiled for a wider vector unit (the GRAPE engine's
//! `#[target_feature]` phase twins) gets the same IEEE operations in the same
//! order, more of them per instruction.

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
#[inline(always)]
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

/// The symmetric eigensolver of both storages, on one to `L` matrices of
/// dimension `n` side by side: exactly one body per dimension — the closed
/// form at 2, one lane after another; [`eigh_jacobi`] below [`QL_MIN_DIM`];
/// [`eigh_ql`] from there up — each matrix under the contract of
/// [`RealSmallMatrix::eigh_in_place`], and each matrix's own iteration count
/// (0 for a lane past the end of `lanes`). `scratch` holds at least
/// `L * eigh_scratch_len(n)`.
#[inline(always)]
pub fn eigh_symmetric<const L: usize>(
    n: usize,
    lanes: &mut [QlLane<'_>],
    scratch: &mut [f64],
) -> [usize; L] {
    match n {
        2 => {
            for (a, eigenvalues, vectors) in lanes.iter_mut() {
                assert!(a.len() == 4 && vectors.len() == 4 && eigenvalues.len() == 2);
                eigh_symmetric_2(a, eigenvalues, vectors);
            }
            [0; L]
        }
        _ if n < QL_MIN_DIM => eigh_jacobi::<L>(n, lanes, scratch),
        _ => eigh_ql::<L>(n, lanes, scratch),
    }
}

/// The `f64`s of scratch [`eigh_symmetric`] needs *per lane* at dimension
/// `n`: none for the closed form, [`jacobi_scratch_len`] below
/// [`QL_MIN_DIM`], [`ql_scratch_len`] from there up.
pub const fn eigh_scratch_len(n: usize) -> usize {
    match n {
        2 => 0,
        _ if n < QL_MIN_DIM => jacobi_scratch_len(n),
        _ => ql_scratch_len(n),
    }
}

/// All ones where `condition` holds, zero elsewhere: one lane's half of a
/// [`select`].
#[inline(always)]
fn mask(condition: bool) -> u64 {
    (condition as u64).wrapping_neg()
}

/// `a` where `mask` is all ones, `b` where it is zero. A bit-select — unlike
/// an `if` over an array of `bool` — vectorizes across lanes, and it moves
/// bits, so a held value keeps its sign of zero and its NaN payload.
#[inline(always)]
fn select(mask: u64, a: f64, b: f64) -> f64 {
    f64::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// One matrix of an [`eigh_jacobi`] or [`eigh_ql`] batch: the symmetric
/// `n x n` input (consumed as the working copy), its `n` eigenvalues and its
/// `n x n` eigenvectors.
pub type QlLane<'a> = (&'a mut [f64], &'a mut [f64], &'a mut [f64]);

/// Interleaves the first `n * n` entries of each lane's input into `soa`
/// (entry `k` of all `L` matrices side by side), lanes past the end of
/// `lanes` repeating the first matrix; checks every lane's storage.
#[inline(always)]
fn interleave<const L: usize>(n: usize, lanes: &[QlLane<'_>], soa: &mut [[f64; L]]) {
    for lane in 0..L {
        let (a, eigenvalues, vectors) = &lanes[if lane < lanes.len() { lane } else { 0 }];
        assert!(
            a.len() == n * n && vectors.len() == n * n && eigenvalues.len() == n,
            "real-symmetric eigh expects {n}x{n} storage and {n} eigenvalues"
        );
        for (slot, &x) in soa.iter_mut().zip(a.iter()) {
            slot[lane] = x;
        }
    }
}

/// The `f64`s of scratch [`eigh_jacobi`] needs *per lane* at dimension `n`:
/// the working matrix and the rows of `Vᵀ`.
pub const fn jacobi_scratch_len(n: usize) -> usize {
    2 * n * n
}

/// The plane rotation `(x, y) ← (c·x + s·y, c·y − s·x)` of rows `p < q` of
/// the structure-of-arrays `n x n` matrix `m`, in the lanes `on` selects: the
/// others keep their bits.
#[inline(always)]
fn rotate_lanes<const L: usize>(
    m: &mut [[f64; L]],
    n: usize,
    (p, q): (usize, usize),
    (c, s): ([f64; L], [f64; L]),
    on: [u64; L],
) {
    let (head, tail) = m.split_at_mut(q * n);
    let row_p = &mut head[p * n..][..n];
    let row_q = &mut tail[..n];
    for (x, y) in row_p.iter_mut().zip(row_q) {
        for k in 0..L {
            let (xp, yq) = (x[k], y[k]);
            x[k] = select(on[k], c[k] * xp + s[k] * yq, xp);
            y[k] = select(on[k], c[k] * yq - s[k] * xp, yq);
        }
    }
}

/// Cyclic Jacobi on the symmetric parts of `L` row-major `n x n` matrices in
/// lockstep, each under the contract of [`RealSmallMatrix::eigh_in_place`];
/// returns each matrix's sweep count, 0 for an input that is already
/// diagonal to working precision. This is the one body: `L = 1` is the
/// solver of a single matrix.
///
/// `lanes` holds one to `L` matrices; the lanes past its end repeat the first
/// matrix, so they add no sweeps, and report 0. Every matrix gets, bit for
/// bit, the result the one-lane instantiation gives it alone.
///
/// The sweep schedule, convergence criteria and algebraic rotation (two square
/// roots, no trigonometry) are those of the complex
/// [`small::eigh_into`](crate::small::eigh_into). Symmetry halves the update:
/// a rotation recomputes rows `p` and `q` only and mirrors them into the two
/// columns, and the eigenvectors accumulate as *rows* (of `Vᵀ`).
///
/// **Why lanes.** Jacobi gets cheaper the closer its input is to diagonal,
/// so the engine warm-starts it, and a warm 4×4 solve is two or three sweeps
/// of six rotations, each a `tau → √ → ÷ → √ → ÷` chain that leaves the
/// vector unit idle. Every matrix works on a structure-of-arrays copy in
/// `scratch` (entry `k` of all `L` matrices side by side), so `L` chains cost
/// one chain's latency. All lanes visit the same `(p, q)` in the same order;
/// a lane that has converged, or whose `|apq|` is below the skip threshold,
/// is held by bit-selects, as are both sign branches of `t` and of the
/// rotation's sine, and a lane counts a sweep only while it is unconverged.
/// A held lane's columns are its rows' mirror image already, bit for bit, so
/// the mirror copy leaves it alone.
///
/// # Panics
///
/// Panics unless `lanes` holds one to `L` matrices, each with `n * n`, `n`
/// and `n * n` entries, and `scratch` holds at least
/// `L * jacobi_scratch_len(n)`.
#[inline(always)]
pub fn eigh_jacobi<const L: usize>(
    n: usize,
    lanes: &mut [QlLane<'_>],
    scratch: &mut [f64],
) -> [usize; L] {
    let count = lanes.len();
    assert!(
        (1..=L).contains(&count) && scratch.len() >= L * jacobi_scratch_len(n),
        "real-symmetric Jacobi expects 1..={L} matrices of dimension {n} and their scratch"
    );
    let (soa, _) = scratch.as_chunks_mut::<L>();
    let (a, soa) = soa.split_at_mut(n * n);
    let vt = &mut soa[..n * n];
    interleave(n, lanes, a);
    // Work on the symmetric part to be robust against tiny asymmetries.
    for r in 0..n {
        for c in (r + 1)..n {
            let (upper, lower) = (a[r * n + c], a[c * n + r]);
            let mut mean = [0.0; L];
            for (mean, (x, y)) in mean.iter_mut().zip(upper.iter().zip(&lower)) {
                *mean = 0.5 * (x + y);
            }
            (a[r * n + c], a[c * n + r]) = (mean, mean);
        }
    }
    for (index, slot) in vt.iter_mut().enumerate() {
        *slot = [if index % (n + 1) == 0 { 1.0 } else { 0.0 }; L];
    }

    let max_sweeps = 60;
    // `Iterator::sum` starts from -0.0, as the one-matrix loop did.
    let mut squares = [-0.0; L];
    for x in a.iter() {
        for k in 0..L {
            squares[k] += x[k] * x[k];
        }
    }
    let (mut tol, mut skip_below) = ([0.0; L], [0.0; L]);
    for k in 0..L {
        tol[k] = 1e-14 * squares[k].sqrt().max(1.0);
        skip_below[k] = tol[k] / (n as f64);
    }
    let (mut active, mut sweeps) = ([u64::MAX; L], [0usize; L]);
    for _ in 0..max_sweeps {
        let mut off_norm = [0.0; L];
        for p in 0..n {
            for q in (p + 1)..n {
                for k in 0..L {
                    off_norm[k] += a[p * n + q][k] * a[p * n + q][k];
                }
            }
        }
        let mut any = 0;
        for k in 0..L {
            active[k] &= !mask(off_norm[k].sqrt() <= tol[k]);
            sweeps[k] += (active[k] & 1) as usize;
            any |= active[k];
        }
        if any == 0 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let (apq, app, aqq) = (a[p * n + q], a[p * n + p], a[q * n + q]);
                let (mut on, mut any) = ([0u64; L], 0);
                for k in 0..L {
                    on[k] = active[k] & !mask(apq[k].abs() <= skip_below[k]);
                    any |= on[k];
                }
                if any == 0 {
                    continue;
                }
                let (mut c, mut s, mut shift) = ([0.0; L], [0.0; L], [0.0; L]);
                for k in 0..L {
                    // Algebraic rotation: the annihilation condition is
                    // tan 2θ = 2|apq| / (app − aqq); the smaller-angle root
                    // comes from t = tan θ via the stable quadratic form,
                    // 1 / (|τ| + √(1 + τ²)) with τ's sign, and the complex
                    // kernel's phase factor apq/|apq| is just the sign of apq
                    // here. (−1/x and −(1/x) are the same bits.)
                    let magnitude = apq[k].abs();
                    let tau = (app[k] - aqq[k]) / (2.0 * magnitude);
                    let root = (1.0 + tau * tau).sqrt();
                    let positive = mask(tau >= 0.0);
                    let inverse = 1.0 / (select(positive, tau, -tau) + root);
                    let t = select(positive, inverse, -inverse);
                    c[k] = 1.0 / (1.0 + t * t).sqrt();
                    let tc = t * c[k];
                    s[k] = select(mask(apq[k] < 0.0), -tc, tc);
                    shift[k] = t * magnitude;
                }

                // A ← Jᵀ A J: off the (p, q) block only the row update acts
                // on rows p and q; the block itself has the closed form
                // below; the two columns are the rows' mirror image.
                rotate_lanes(a, n, (p, q), (c, s), on);
                for k in 0..L {
                    a[p * n + p][k] = select(on[k], app[k] + shift[k], app[k]);
                    a[q * n + q][k] = select(on[k], aqq[k] - shift[k], aqq[k]);
                    a[p * n + q][k] = select(on[k], 0.0, apq[k]);
                    a[q * n + p][k] = select(on[k], 0.0, apq[k]);
                }
                for j in 0..n {
                    a[j * n + p] = a[p * n + j];
                    a[j * n + q] = a[q * n + j];
                }
                // V ← V · J, on the rows of Vᵀ.
                rotate_lanes(vt, n, (p, q), (c, s), on);
            }
        }
    }

    for (lane, (working, eigenvalues, vectors)) in lanes.iter_mut().enumerate() {
        for (i, value) in eigenvalues.iter_mut().enumerate() {
            *value = a[i * n + i][lane];
        }
        for (slot, x) in working.iter_mut().zip(vt.iter()) {
            *slot = x[lane];
        }
        sort_eigenrows(n, eigenvalues, working);
        // Turn the eigenvector rows into columns.
        transpose(n, working, vectors);
    }
    let mut counts = [0; L];
    counts[..count].copy_from_slice(&sweeps[..count]);
    counts
}

/// The `f64`s of scratch [`eigh_ql`] needs *per lane* at dimension `n`: the
/// working matrix, the two diagonals and a sweep's rotations.
pub const fn ql_scratch_len(n: usize) -> usize {
    n * (n + 4)
}

/// Steps of a QL sweep whose recurrence runs ahead of their rotations. The
/// recurrence is bound by latency and the rotations by throughput, so the two
/// overlap as long as a run of both fits the out-of-order window: per 16×16
/// solve in a batch of four at AVX2 width, 5.03 µs with 2 steps, 5.07 with 4,
/// 5.36 with the whole sweep (6.09 / 6.31 / 6.54 µs at SSE2 width). Rotating
/// inside the step itself (5.36 µs) keeps the compiler from vectorizing the
/// recurrence cleanly: the lanes' `(c, s)` are then scalars it must extract.
const SWEEP_CHUNK: usize = 2;

/// Householder tridiagonalization followed by implicit-shift QL (EISPACK
/// `tred2` + `tql2`) on `L` row-major symmetric `n x n` matrices in lockstep,
/// each under the contract of [`RealSmallMatrix::eigh_in_place`]; returns each
/// matrix's number of QL iterations (about 1.7 per eigenvalue). The cost does
/// not depend on how close a matrix is to diagonal, so there is nothing to
/// warm-start. This is the one body: `L = 1` is the solver of a single matrix.
///
/// `lanes` holds one to `L` matrices; the lanes past its end repeat the first
/// matrix, so they add no lockstep steps, and report 0 iterations. Every
/// matrix gets, bit for bit, the result the one-lane instantiation gives it
/// alone — a lane's arithmetic never sees its neighbours.
///
/// **What runs across lanes.** `tred2` and the reflector accumulation work on
/// a structure-of-arrays copy in `scratch` (entry `k` of all `L` matrices side
/// by side), so every scalar operation of the textbook is one `L`-wide vector
/// operation. Their control flow is the same for every input except EISPACK's
/// two skips — a sub-row that is already zero (`scale == 0`), and the
/// reflector it leaves (`h == 0`) — which here run the general branch on a
/// zero reflector with 1 for the zero denominator: every update then
/// subtracts `+0.0`, which changes no bit of any value. In `tql2` only the
/// recurrence on the tridiagonal `(d, e)` is in lockstep: a sweep's plane
/// rotation is a `sqrt → div → mul` dependency chain some 50 cycles long, and
/// it never reads the eigenvectors, so four chains side by side cost one
/// chain's latency. Each lane deflates on its own `e[l]` and has its own sweep
/// range `l..m`; lanes that are done with `l`, or whose range has not begun,
/// are held by bit-selects. The steps' `(c, s)` go to a small buffer, and
/// every `SWEEP_CHUNK` steps each lane that took them applies its rotations
/// to its own dense, row-major `Vᵀ`: unmasked work that the next steps' chain
/// does not wait for, so it fills the issue slots the chain leaves idle.
/// (Rotating four eigenvector matrices in lockstep as well was measured and
/// lost: 2 rows × `n` columns × `L` lanes per step, plus their selects, is
/// bound by throughput, not latency.)
///
/// Both stages run on the *transpose* of the textbook's transformation matrix
/// — which ends up holding `Vᵀ` — so every reflector dot product, rank-two
/// update and QL plane rotation walks contiguous rows; the one transpose is
/// the copy into a lane's eigenvector storage at the end.
///
/// # Panics
///
/// Panics unless `n >= 2`, `lanes` holds one to `L` matrices, each with
/// `n * n`, `n` and `n * n` entries, and `scratch` holds at least
/// `L * ql_scratch_len(n)`.
#[inline(always)]
pub fn eigh_ql<const L: usize>(
    n: usize,
    lanes: &mut [QlLane<'_>],
    scratch: &mut [f64],
) -> [usize; L] {
    use std::array::from_fn;
    let count = lanes.len();
    assert!(
        n >= 2 && (1..=L).contains(&count) && scratch.len() >= L * ql_scratch_len(n),
        "real-symmetric QL expects 1..={L} matrices of dimension {n} >= 2 and their scratch"
    );
    let (soa, _) = scratch.as_chunks_mut::<L>();
    let (w, soa) = soa.split_at_mut(n * n);
    let (d, soa) = soa.split_at_mut(n);
    let (e, soa) = soa.split_at_mut(n);
    let (cos, soa) = soa.split_at_mut(n);
    let sin = &mut soa[..n];

    // Interleave the matrices, then fold each one's symmetric part into the
    // upper triangle, the only one read.
    interleave(n, lanes, w);
    for r in 0..n {
        for c in (r + 1)..n {
            w[r * n + c] = from_fn(|k| 0.5 * (w[r * n + c][k] + w[c * n + r][k]));
        }
    }

    // tred2, reducing rows/columns n-1 down to 1. In the textbook's indices
    // w[r * n + c] is V[c][r]; a symmetric matrix starts out as its own
    // transpose.
    for j in 0..n {
        d[j] = w[j * n + n - 1];
    }
    for i in (1..n).rev() {
        let mut scale = [0.0; L];
        for x in &d[..i] {
            for k in 0..L {
                scale[k] += x[k].abs();
            }
        }
        // A lane whose sub-row is already zero has nothing to reduce: its
        // off-diagonal is the entry as it stands and its reflector is +0.0.
        let skip: [u64; L] = from_fn(|k| mask(scale[k] == 0.0));
        let (unreduced, mut h) = (d[i - 1], [0.0; L]);
        for x in &mut d[..i] {
            for k in 0..L {
                x[k] = select(skip[k], 0.0, x[k] / select(skip[k], 1.0, scale[k]));
                h[k] += x[k] * x[k];
            }
        }
        let f = d[i - 1];
        for k in 0..L {
            let root = h[k].sqrt();
            let g = select(mask(f[k] > 0.0), -root, root);
            e[i][k] = select(skip[k], unreduced[k], scale[k] * g);
            h[k] -= f[k] * g;
            d[i - 1][k] = f[k] - g;
        }
        // Store the reflector in row i, then e ← (A·u)/h over the rows above.
        w[i * n..][..i].copy_from_slice(&d[..i]);
        e[..i].fill([0.0; L]);
        for j in 0..i {
            let f = d[j];
            let row = &w[j * n..][..i];
            let mut g: [f64; L] = from_fn(|k| e[j][k] + row[j][k] * f[k]);
            for t in (j + 1)..i {
                for k in 0..L {
                    g[k] += row[t][k] * d[t][k];
                    e[t][k] += row[t][k] * f[k];
                }
            }
            e[j] = g;
        }
        let pivot: [f64; L] = from_fn(|k| select(skip[k], 1.0, h[k]));
        let mut f = [0.0; L];
        for j in 0..i {
            for k in 0..L {
                e[j][k] /= pivot[k];
                f[k] += e[j][k] * d[j][k];
            }
        }
        let hh: [f64; L] = from_fn(|k| f[k] / (pivot[k] + pivot[k]));
        for j in 0..i {
            for k in 0..L {
                e[j][k] -= hh[k] * d[j][k];
            }
        }
        // A ← A − u·qᵀ − q·uᵀ on the upper triangle of the leading block.
        for j in 0..i {
            let (f, g) = (d[j], e[j]);
            let row = &mut w[j * n..][..i];
            for t in j..i {
                for k in 0..L {
                    row[t][k] -= f[k] * e[t][k] + g[k] * d[t][k];
                }
            }
            d[j] = w[j * n + i - 1];
            w[j * n + i] = [0.0; L];
        }
        d[i] = h;
    }
    // Accumulate the reflectors into Vᵀ, leading block by leading block.
    for i in 0..n - 1 {
        w[i * n + n - 1] = w[i * n + i];
        w[i * n + i] = [1.0; L];
        let h = d[i + 1];
        let skip: [u64; L] = from_fn(|k| mask(h[k] == 0.0));
        let (above, below) = w.split_at_mut((i + 1) * n);
        let reflector = &mut below[..=i];
        for (slot, u) in d[..=i].iter_mut().zip(reflector.iter()) {
            *slot = from_fn(|k| u[k] / select(skip[k], 1.0, h[k]));
        }
        for row in above.chunks_exact_mut(n) {
            let row = &mut row[..=i];
            // `Iterator::sum` starts from -0.0, as the one-matrix loop did.
            let mut g = [-0.0; L];
            for (u, x) in reflector.iter().zip(row.iter()) {
                for k in 0..L {
                    g[k] += u[k] * x[k];
                }
            }
            let g: [f64; L] = from_fn(|k| select(skip[k], 0.0, g[k]));
            for (x, u) in row.iter_mut().zip(d[..=i].iter()) {
                for k in 0..L {
                    x[k] -= g[k] * u[k];
                }
            }
        }
        reflector.fill([0.0; L]);
    }
    for j in 0..n {
        d[j] = w[j * n + n - 1];
        w[j * n + n - 1] = [0.0; L];
    }
    w[n * n - 1] = [1.0; L];
    // Each matrix's Vᵀ goes back to its own dense storage: the rotations below
    // are per lane.
    for (lane, (a, _, _)) in lanes.iter_mut().enumerate() {
        for (slot, x) in a.iter_mut().zip(w.iter()) {
            *slot = x[lane];
        }
    }

    // tql2 on the tridiagonals (d, e), rotating the rows of each Vᵀ.
    e.copy_within(1.., 0);
    e[n - 1] = [0.0; L];
    let max_iterations = 60;
    let (mut shift, mut norm, mut iterations) = ([0.0; L], [0.0f64; L], [0usize; L]);
    for l in 0..n {
        // A sub-diagonal this far below the largest |d| + |e| seen is zero.
        // The floor at 1 matches the Jacobi body's absolute tolerance and
        // keeps p² + e² below from underflowing.
        norm = from_fn(|k| norm[k].max(d[l][k].abs() + e[l][k].abs()));
        let negligible: [f64; L] = from_fn(|k| f64::EPSILON * norm[k].max(1.0));
        let mut m = [l; L];
        for k in 0..L {
            while m[k] + 1 < n && e[m[k]][k].abs() > negligible[k] {
                m[k] += 1;
            }
        }
        // The lanes still iterating on this `l`.
        let mut active: [u64; L] = from_fn(|k| mask(m[k] > l));
        for _ in 0..max_iterations {
            let Some(top) = (0..L).filter(|&k| active[k] != 0).map(|k| m[k]).max() else {
                break;
            };
            // The implicit (Wilkinson) shift.
            let g = d[l];
            let mut h = [0.0; L];
            for k in 0..L {
                iterations[k] += (active[k] & 1) as usize;
                let p = (d[l + 1][k] - g[k]) / (2.0 * e[l][k]);
                let root = (p * p + 1.0).sqrt();
                let r = select(mask(p < 0.0), -root, root);
                d[l][k] = select(active[k], e[l][k] / (p + r), g[k]);
                d[l + 1][k] = select(active[k], e[l][k] * (p + r), d[l + 1][k]);
                h[k] = select(active[k], g[k] - d[l][k], 0.0);
                shift[k] = select(active[k], shift[k] + h[k], shift[k]);
            }
            let dl1 = d[l + 1];
            // Subtracting a held lane's +0.0 changes no bit.
            for x in &mut d[l + 2..] {
                for k in 0..L {
                    x[k] -= h[k];
                }
            }
            // One QL sweep, lane k's from m[k] down to l, a few steps at a
            // time: the recurrence in lockstep, recording each step's (c, s),
            // then those steps' rotations on the lanes that took them. A lane
            // above its range holds the opening (c, s) = (1, 0) and records
            // that.
            let mut p: [f64; L] = from_fn(|k| d[m[k]][k]);
            let el1 = e[l + 1];
            let (mut c, mut s) = ([1.0; L], [0.0; L]);
            let mut high = top;
            while high > l {
                let low = high.saturating_sub(SWEEP_CHUNK).max(l);
                for i in (low..high).rev() {
                    for k in 0..L {
                        let on = active[k] & mask(i < m[k]);
                        let g = c[k] * e[i][k];
                        let h = c[k] * p[k];
                        let r = (p[k] * p[k] + e[i][k] * e[i][k]).sqrt();
                        e[i + 1][k] = select(on, s[k] * r, e[i + 1][k]);
                        s[k] = select(on, e[i][k] / r, s[k]);
                        c[k] = select(on, p[k] / r, c[k]);
                        p[k] = select(on, c[k] * d[i][k] - s[k] * g, p[k]);
                        let below = h + s[k] * (c[k] * g + s[k] * d[i][k]);
                        d[i + 1][k] = select(on, below, d[i + 1][k]);
                    }
                    cos[i] = c;
                    sin[i] = s;
                }
                for (lane, (a, _, _)) in lanes.iter_mut().enumerate() {
                    if active[lane] != 0 {
                        for i in (low..high.min(m[lane])).rev() {
                            rotate_rows(a, n, i, i + 1, cos[i][lane], -sin[i][lane]);
                        }
                    }
                }
                high = low;
            }
            // The sine one step before the last and the cosine two before,
            // or the opening state where the sweep was too short to have one.
            let s2 = if l + 1 < top { sin[l + 1] } else { [0.0; L] };
            let c3 = if l + 2 < top { cos[l + 2] } else { [1.0; L] };
            for k in 0..L {
                let p = -s[k] * s2[k] * c3[k] * el1[k] * e[l][k] / dl1[k];
                e[l][k] = select(active[k], s[k] * p, e[l][k]);
                d[l][k] = select(active[k], c[k] * p, d[l][k]);
            }
            for k in 0..L {
                active[k] &= !mask(e[l][k].abs() <= negligible[k]);
            }
        }
        for k in 0..L {
            d[l][k] += shift[k];
        }
        e[l] = [0.0; L];
    }

    for (lane, (a, eigenvalues, vectors)) in lanes.iter_mut().enumerate() {
        for (value, x) in eigenvalues.iter_mut().zip(d.iter()) {
            *value = x[lane];
        }
        sort_eigenrows(n, eigenvalues, a);
        transpose(n, a, vectors);
    }
    from_fn(|k| if k < count { iterations[k] } else { 0 })
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
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        self.rows.as_flattened()
    }

    /// Mutable view of the `N * N` row-major entries.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        self.rows.as_flattened_mut()
    }

    /// Writes the real product `self · rhs` into `out`.
    #[inline(always)]
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul::<N>(N, self.as_slice(), rhs.as_slice(), None, out.as_mut_slice());
    }

    /// Adds `sign · self · rhs` to `out` (a planar complex product is four of these).
    #[inline(always)]
    pub fn matmul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        let onto = Some(sign);
        matmul::<N>(N, self.as_slice(), rhs.as_slice(), onto, out.as_mut_slice());
    }

    /// Writes `selfᵀ` into `out`.
    #[inline(always)]
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(N, self.as_slice(), out.as_mut_slice());
    }

    /// Diagonalizes symmetric `self` without heap allocation:
    /// `self = eigenvectors · diag(eigenvalues) · eigenvectorsᵀ`, eigenvalues
    /// ascending. `self` is consumed as the working copy (contents unspecified
    /// afterwards). Only the symmetric part of `self` influences the result.
    ///
    /// The solver is chosen by `N` alone — closed form at 2, one lane of
    /// [`eigh_jacobi`] below [`QL_MIN_DIM`], one lane of [`eigh_ql`] from
    /// there up ([`eigh_symmetric`]) — and its iteration count is returned:
    /// 0, Jacobi sweeps, or implicit-QL iterations.
    ///
    /// # Panics
    ///
    /// Panics if `eigenvalues.len() != N`, or if `scratch` is shorter than
    /// [`eigh_scratch_len`]`(N)`.
    #[inline(always)]
    pub fn eigh_in_place(
        &mut self,
        eigenvalues: &mut [f64],
        eigenvectors: &mut Self,
        scratch: &mut [f64],
    ) -> usize {
        let lane = (
            self.as_mut_slice(),
            eigenvalues,
            eigenvectors.as_mut_slice(),
        );
        eigh_symmetric::<1>(N, &mut [lane], scratch)[0]
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
    #[inline(always)]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `dim * dim` entries, row-major.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable view of the `dim * dim` row-major entries.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Writes the real product `self · rhs` into `out`.
    ///
    /// # Panics
    ///
    /// Panics if the three dimensions differ (as do all the kernels below).
    #[inline(always)]
    pub fn matmul_into(&self, rhs: &Self, out: &mut Self) {
        matmul::<HEAP_BLOCK>(self.dim, &self.data, &rhs.data, None, &mut out.data);
    }

    /// Adds `sign · self · rhs` to `out`.
    #[inline(always)]
    pub fn matmul_onto(&self, sign: f64, rhs: &Self, out: &mut Self) {
        matmul::<HEAP_BLOCK>(self.dim, &self.data, &rhs.data, Some(sign), &mut out.data);
    }

    /// Writes `selfᵀ` into `out`.
    #[inline(always)]
    pub fn transpose_into(&self, out: &mut Self) {
        transpose(self.dim, &self.data, &mut out.data);
    }

    /// The heap instance of [`RealSmallMatrix::eigh_in_place`]: the same
    /// solver bodies under the same dimension rule, with the same contract.
    #[inline(always)]
    pub fn eigh_in_place(
        &mut self,
        eigenvalues: &mut [f64],
        eigenvectors: &mut Self,
        scratch: &mut [f64],
    ) -> usize {
        let lane = (&mut self.data[..], eigenvalues, &mut eigenvectors.data[..]);
        eigh_symmetric::<1>(self.dim, &mut [lane], scratch)[0]
    }
}
