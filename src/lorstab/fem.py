"""Weak-form discretization of the curvature operators and the constrained
eigenvalue solver.

The order-r operator div(P_r grad f) is assembled as a pair of sparse
symmetric forms on piecewise-linear mesh functions:

    K[f, g] ~ integral of <P_r grad f, grad g>        (stiffness)
    M[f, g] ~ integral of f g                         (consistent mass)

so that the constrained first eigenvalue is the minimum of (f'Kf)/(f'Mf)
over mean-zero f, matching the Rayleigh quotient of the stability
criterion after one integration by parts.  Constants are annihilated by K
up to roundoff and deflated.  K is assembled in ambient coordinates (Dziuk
& Elliott, Acta Numerica 2013): P_r becomes a form on ambient vectors once
per vertex, hat gradients are ambient vectors, and each element matrix is a
quadratic form, computed elementwise on blocks of faces and summed onto the
mesh's one P1 sparsity pattern (``SphereMesh.pattern``), which M shares.

The spectrum is computed by ARPACK's shift-invert Lanczos (Lehoucq, Sorensen
& Yang, ARPACK Users' Guide, SIAM 1998) with a shift just below zero.  ARPACK
stops a Ritz pair when its residual is at most its relative tolerance times
the Ritz value, which leaves a weak residual of about that tolerance times
the Rayleigh quotient of the Lanczos residual direction.  That direction lies
at the bottom of the spectrum, not near the largest eigenvalue: over 648
measured solves the weak residual is at most 0.97 x tolerance x lambda1.  And
lambda1 is 3.9-5.4 x lam_scale / V, with lam_scale = max K_ii / min lumped
mass and V vertices.  So the tolerance is derived from lam_scale / V, and a
solve stops at a weak residual about 50x below what it accepts.

The pencil must be elliptic: K positive semidefinite with the constants as
its kernel, which holds where P_r is positive definite (``stability.analyze``
solves only there); a zero K raises ``SolverError``.  Each application of the
inverse is one sparse LU solve with K + shift M followed by the mass-orthogonal
projection onto mean-zero functions, so the constant mode is deflated
exactly.  The LU factor is computed on the matrix permuted by the mesh's
nested-dissection order, which ``assemble`` attaches to the operator pair,
with no further column permutation.  A single eigenvalue is sought in a
10-vector Lanczos basis rather than ARPACK's default 20: ARPACK fills the
basis before it first tests convergence, so a level-5 slice converges after
11 applications instead of 21.

Within a ``shared_factor`` scope (a ``lorstab sweep``) the solver keeps the
last LU factor of K + shift M and reuses it, its solves divided by alpha, for
a matrix A of the same structure and order that is a multiple of the held
A_ref: max|A - alpha A_ref| <= 1e-13 max|A|, alpha taken at the largest entry
of A_ref.  On the umbilical slices of one mesh P_r = p_r(s0) I, so K, M and
the shift scale together; at level 5 (s0 in {0.3, 1.0, 1.9}, r in {0, 1}) the
shifted matrices are multiples to 2.3e-15 of their largest entry (K alone to
2.4e-15, M to 4.0e-15).  Graphs, other levels and other orders are factored
afresh; every solve keeps its own ARPACK run and residual test on its own
(K, M), and outside a scope no factor outlives its solve.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, SuperLU, eigsh, splu

from .curvature import batched_eigvalsh2, batched_newton
from .lorentz import minkowski_metric
from .surfaces import GraphSurface, _hat_gradients, scatter_p1

__all__ = [
    "OperatorPair",
    "EigenResult",
    "SolverError",
    "assemble",
    "first_eigenvalue_meanzero",
    "shared_factor",
    "smallest_eigenvalues_meanzero",
    "weak_residual",
]


# Lanczos basis for k = 1: ARPACK tests convergence only once the basis is full
_NCV_K1 = 10

# ARPACK's k = 1 stop is the acceptance bound / (_STOP_BOTTOM * (lam_scale / V +
# shift)): lambda1 is 3.9-5.4 x lam_scale / V on the slices and graphs measured,
# so this asks for a weak residual near bound / 50; the worst of 648 solves (levels
# 3-5, r = 0 and 1, s0 in {0.5, 1, 2}, a slice and five graphs, seeds 0-5) was
# 1.69e-10 at tol = 1e-8
_STOP_BOTTOM = 250.0

# the shared-factor test (module docstring): slice pencils on one mesh are
# multiples to 2.3e-15 of their largest entry
_PROPORTIONAL_TOL = 1e-13

# faces per assembly block, which bounds the size of the block temporaries: a
# sweep assembles each slice while it holds the shared factor, so they add to its
# peak RSS (8192 faces add about 1.2 MB on the level-5 s0 sweep); K is the same
# bit for bit at any block size
_BLOCK = 2048
# the 10 entries i <= k of a symmetric 4x4 matrix, and the entry that holds (i, k)
_UPPER = np.triu_indices(4)
_SYM = np.empty((4, 4), dtype=np.intp)
_SYM[_UPPER] = _SYM[_UPPER[::-1]] = np.arange(10)

# ties of the eigenvector sign: 150x the largest relative entrywise disagreement
# (6.7e-9) between this solver and the oracle on the level 3-5 test graphs
_SIGN_TOL = 1e-6


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness/mass pair for one operator order on one surface."""

    stiffness: csr_matrix
    mass: csr_matrix
    nvertices: int
    min_newton_eig: float   # smallest vertex eigenvalue of P_r (ellipticity bookkeeping)
    order: np.ndarray       # fill-reducing vertex order for factorizations

    def lumped(self) -> np.ndarray:
        return np.asarray(self.mass.sum(axis=1)).ravel()


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


@dataclass
class _HeldFactor:
    """The one factor a ``shared_factor`` scope holds: the shifted matrix, the
    order it was permuted by and its LU factor (None before the first solve)."""

    shifted: csr_matrix | None = None
    order: np.ndarray | None = None
    lu: SuperLU | None = None


_held: ContextVar[_HeldFactor | None] = ContextVar("held_factor", default=None)


@contextmanager
def shared_factor():
    """Let the eigensolves in this scope share one LU factor between shifted
    matrices that are multiples of one another (see the module docstring); the
    factor is released when the scope exits."""
    token = _held.set(_HeldFactor())
    try:
        yield
    finally:
        _held.reset(token)


def _factor(shifted: csr_matrix, order: np.ndarray) -> tuple[SuperLU, float]:
    """The LU factor of ``shifted`` permuted by ``order``, and the alpha its
    solves are divided by: in a scope, the held factor when ``shifted`` is alpha
    times the held matrix (alpha is 1.0 exactly for an equal matrix), else a new
    factor, alpha = 1, which the scope then holds."""
    held = _held.get()
    if held is not None and held.lu is not None:
        ref = held.shifted
        if (np.array_equal(order, held.order) and np.array_equal(shifted.indptr, ref.indptr)
                and np.array_equal(shifted.indices, ref.indices)):
            pivot = np.argmax(np.abs(ref.data))
            alpha = shifted.data[pivot] / ref.data[pivot]
            defect = np.abs(shifted.data - alpha * ref.data).max()
            if defect <= _PROPORTIONAL_TOL * np.abs(shifted.data).max():
                return held.lu, float(alpha)
        held.shifted = held.order = held.lu = None      # freed before the new factor
    lu = splu(shifted[order][:, order].tocsc(), permc_spec="NATURAL")
    if held is not None:
        held.shifted, held.order, held.lu = shifted, order, lu
    return lu, 1.0


def newton_vertex_matrices(surface: GraphSurface, r: int) -> np.ndarray:
    """P_r at every vertex, in each vertex frame; memoized on the surface."""
    key = ("newton", r)
    if key not in surface._memo:
        cache = surface.cache
        surface._memo[key] = batched_newton(cache.shape, cache.sigma, r)
    return surface._memo[key]


def assemble(surface: GraphSurface, r: int) -> OperatorPair:
    """Assemble the order-r stiffness/mass pair on a built surface.

    Per face, P_r is the mean of the corner forms Q = (J E) P_r (J E)^T (E the
    vertex frame, J the metric; first-order transport), and stiffness entries
    integrate <P_r grad phi_a, grad phi_b> = grad_a . Q grad_b with the
    ambient hat gradients of each block of faces.  The pair carries the
    mesh's nested-dissection order, ``SphereMesh.order``.
    """
    if not 0 <= r <= surface.n - 1:
        raise ValueError(f"order r={r} out of range [0, {surface.n - 1}]")
    key = ("operator", r)
    if key in surface._memo:
        return surface._memo[key]
    cache = surface.cache
    faces = surface.mesh.faces
    if faces.size == 0:
        raise ValueError("surface mesh has no faces")

    mass = cache.mass       # before the stiffness temporaries, which keeps peak RSS down
    p_vertex = newton_vertex_matrices(surface, r)
    min_eig = float(batched_eigvalsh2(p_vertex).min())

    # Q = (J E) P_r (J E)^T = a pa^T + b pb^T per vertex, with [a, b] = J E and
    # [pa, pb] = (J E) P_r; per face, K_ab = area/3 grad_a . (sum of corner Q) grad_b
    j = np.diag(minkowski_metric(4))
    a, b = np.ascontiguousarray((cache.frame * j[None, :, None]).transpose(2, 1, 0))
    p00, p01, p11 = p_vertex[:, 0, 0], p_vertex[:, 0, 1], p_vertex[:, 1, 1]
    pa, pb = p00 * a + p01 * b, p01 * a + p11 * b
    q = np.stack([a[i] * pa[k] + b[i] * pb[k] for i, k in zip(*_UPPER)])    # (10, V)
    third = cache.face_area / 3.0
    nv, nf = cache.vertices.shape[0], faces.shape[0]
    k_local = np.empty((nf, 3, 3))
    for start in range(0, nf, _BLOCK):
        f = slice(start, start + _BLOCK)
        q_face = np.take(q, faces[f, 0], axis=1)
        q_face += np.take(q, faces[f, 1], axis=1)
        q_face += np.take(q, faces[f, 2], axis=1)
        g = _hat_gradients(cache.vertices, faces[f])
        k_sub = np.einsum("aib,cib->acb", g, np.einsum("ikb,ckb->cib", q_face[_SYM], g))
        k_sub[1, 0] = k_sub[0, 1]           # exactly symmetric, as scatter_p1 requires
        k_sub *= third[f]                   # (2, 2, B): the rows and columns of corners 1, 2
        block = k_local[f]
        block[:, 1:, 1:] = k_sub.transpose(2, 0, 1)
        block[:, 0, 1:] = block[:, 1:, 0] = -(k_sub[0] + k_sub[1]).T   # rows of K sum to zero
        block[:, 0, 0] = -(block[:, 0, 1] + block[:, 0, 2])
    k = scatter_p1(surface.mesh, k_local)
    pair = OperatorPair(
        stiffness=k, mass=mass, nvertices=nv, min_newton_eig=min_eig,
        order=surface.mesh.order,
    )
    surface._memo[key] = pair
    return pair


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Make each column's leading entry, the first within a relative ``_SIGN_TOL``
    of its largest magnitude, positive in place; v and -v give one result."""
    mag = np.abs(vectors)
    lead = np.argmax(mag >= (1.0 - _SIGN_TOL) * mag.max(axis=0), axis=0)
    vectors *= np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)
    return vectors


def _project_meanzero(x: np.ndarray, mass_column: np.ndarray, total: float) -> np.ndarray:
    return x - (mass_column @ x) / total


def weak_residual(op: OperatorPair, f: np.ndarray, mu: float) -> float:
    """Scaled eigen-defect |K f - mu M f| in the (diagonally approximated)
    inverse-mass norm, relative to the mass norm of f."""
    f = np.asarray(f, dtype=float)
    fnorm = float(np.sqrt(f @ (op.mass @ f)))
    if fnorm == 0.0:
        raise ValueError("zero function")
    rho = op.stiffness @ f - mu * (op.mass @ f)
    lump = op.lumped()
    return float(np.sqrt(np.sum(rho * rho / lump)) / fnorm)


def smallest_eigenvalues_meanzero(
    op: OperatorPair,
    k: int = 1,
    tol: float = 1e-8,
    maxiter: int = 500,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, int, np.ndarray]:
    """Bottom-k generalized eigenpairs on the mean-zero subspace.

    K must be positive semidefinite, so that the bottom of its mean-zero
    spectrum lies nearest a shift just below zero; a zero K raises
    ``SolverError``.  ARPACK shift-invert Lanczos (``eigsh`` with
    ``sigma = -shift``, the k eigenvalues nearest the shift) on the pencil
    (K, M).  The inverse operator is one LU solve with K + shift M, which
    has the P1 pattern that K and M share on a mesh, factorized in the
    operator's nested-dissection order with the NATURAL column order,
    followed by the mass-orthogonal projection onto mean-zero functions;
    the start vector is the projected standard normal vector of
    ``default_rng(seed)``, so runs are deterministic.  For k = 1 the
    Lanczos basis has ``ncv`` = 10 vectors instead of ARPACK's default 20,
    which ARPACK fills before its first convergence test: 11 applications
    instead of 21 on a level-5 slice.  Inside a ``shared_factor`` scope the
    previous factor is reused, its solves divided by alpha, when
    A = K + shift M is alpha times its matrix A_ref to
    max|A - alpha A_ref| <= 1e-13 max|A| (slices on one mesh: 2.3e-15).  Each
    vector is accepted only if its ``weak_residual`` is below
    tol * min(1, lam_scale), with lam_scale = max K_ii / min lumped mass, so
    the test is scale-free on a tiny spectrum.
    For k = 1, ARPACK stops at relative accuracy that bound divided by
    ``_STOP_BOTTOM`` * (lam_scale / V + shift), the bottom of the spectrum
    rather than its top (see the module docstring): 16 applications instead
    of 21 on the level-6 test graph, with the worst of 648 measured
    residuals 59x below tol.  For k > 1 it is 0, since an early stop can
    miss copies of a multiple eigenvalue.  Either runs within ``maxiter``
    restarts.

    Returns (values, vectors, iterations, residuals): values ascending,
    vectors mass-orthonormal, mean-zero and signed by ``_fix_signs``, and
    ``iterations`` the number of shift-invert applications.
    """
    kk = op.stiffness
    mm = op.mass
    nv = op.nvertices
    mass_column = np.asarray(mm.sum(axis=1)).ravel()
    total = float(mass_column.sum())
    rng = np.random.default_rng(seed)
    x0 = _project_meanzero(rng.standard_normal(nv), mass_column, total)

    lam_scale = float(np.abs(kk.diagonal()).max() / mass_column.min())
    if lam_scale == 0.0:
        raise SolverError("the stiffness matrix is zero (P_r vanishes): no first eigenvalue")
    accept = tol * min(1.0, lam_scale)
    shift = 1e-5 * lam_scale
    order = op.order
    lu, alpha = _factor(kk + shift * mm, order)
    iterations = 0

    def shift_invert(b: np.ndarray) -> np.ndarray:
        nonlocal iterations
        iterations += 1
        y = np.empty_like(b)
        y[order] = lu.solve(b[order]) / alpha
        return _project_meanzero(y, mass_column, total)

    try:
        values, vectors = eigsh(
            kk, k, M=mm, sigma=-shift, which="LM", v0=x0,
            OPinv=LinearOperator((nv, nv), matvec=shift_invert, dtype=float),
            ncv=min(nv, _NCV_K1) if k == 1 else None,
            tol=accept / (_STOP_BOTTOM * (lam_scale / nv + shift)) if k == 1 else 0.0,
            maxiter=maxiter,
        )
    except ArpackNoConvergence as err:
        found = err.eigenvectors.shape[1]
        residual = max(
            (weak_residual(op, err.eigenvectors[:, i], err.eigenvalues[i]) for i in range(found)),
            default=float("inf"),
        )
        raise SolverError(
            f"eigensolver did not converge in {maxiter} restarts "
            f"({found} of {k} eigenpairs found)",
            residual=residual,
        ) from None
    rank = np.argsort(values)
    values, vectors = values[rank], vectors[:, rank]
    residuals = np.array([weak_residual(op, vectors[:, i], values[i]) for i in range(k)])
    if residuals.max() >= accept:
        raise SolverError(
            f"eigensolver residual {residuals.max():.3e} is not below {accept:.3e} "
            f"after {iterations} shift-invert applications",
            residual=float(residuals.max()),
        )
    return values, _fix_signs(vectors), iterations, residuals


def first_eigenvalue_meanzero(
    op: OperatorPair,
    tol: float = 1e-8,
    maxiter: int = 500,
    seed: int = 0,
) -> EigenResult:
    """Constrained first eigenvalue: min of the Rayleigh quotient over
    mean-zero functions, with the constant kernel deflated."""
    values, vectors, iterations, residuals = smallest_eigenvalues_meanzero(
        op, k=1, tol=tol, maxiter=maxiter, seed=seed
    )
    return EigenResult(
        lambda1=float(values[0]),
        eigenfunction=vectors[:, 0],
        iterations=iterations,
        residual=float(residuals[0]),
    )
