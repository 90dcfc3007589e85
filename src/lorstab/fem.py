"""Weak-form discretization of the order-r Jacobi operator and the
constrained eigenvalue solver.

The Jacobi operator J_r f = div(P_r grad f) + (c tr P_r - tr A^2 P_r) f
(c = 1) is discretized once per surface and order as one record,
``OperatorPair``: a pair of sparse symmetric forms on piecewise-linear mesh
functions,

    K[f, g] ~ integral of <P_r grad f, grad g>        (stiffness)
    M[f, g] ~ integral of f g                         (consistent mass)

with the row sums of M (the lumped mass) and the potential
c tr P_r - tr A^2 P_r per vertex and its mean, the comparison constant.
The constrained first eigenvalue is the minimum of (f'Kf)/(f'Mf) over
mean-zero f, which matches the Rayleigh quotient of the stability
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
with no further column permutation: on the level-6 test graph at r = 1,
nnz(L+U) is 4,022,806.  A single eigenvalue is sought in a
10-vector Lanczos basis rather than ARPACK's default 20: ARPACK fills the
basis before it first tests convergence, so a level-5 slice converges after
11 applications instead of 21.

Within a ``shared_spectrum`` scope (a ``lorstab sweep``) the solver keeps the
last pencil that ARPACK solved and its eigenpair (lambda1_ref, f).  A pencil
(K, M) of the same structure that is (a K_ref, b M_ref) with a, b > 0 (each
ratio taken at the largest entry, each matrix a multiple to 1e-13 of its own
largest entry) has the same eigenvectors, so its eigenpair is carried over:
lambda1 = (a / b) lambda1_ref and f / sqrt(b), with no factor and no ARPACK
run.  On the umbilical slices of one mesh P_r = p_r(s0) I and the metric
scales with s0; at level 5 (s0 in {0.3, 1.0, 1.9}, r in {0, 1}) K is a
multiple to 2.4e-15 of its largest entry and M to 4.0e-15.  A carried pair
passes the same residual test on its own (K, M) as a solved one, or the
pencil is solved afresh; graphs, other levels and other orders are solved
afresh, and nothing outlives the scope.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from .curvature import batched_eigvalsh2, batched_newton
from .surfaces import SIGNATURE, GraphSurface, _hat_gradients, scatter_p1

__all__ = [
    "OperatorPair",
    "EigenResult",
    "SolverError",
    "assemble",
    "first_eigenvalue_meanzero",
    "shared_spectrum",
    "weak_residual",
]


# Lanczos basis: ARPACK tests convergence only once the basis is full
_NCV = 10

# ARPACK's stop is the acceptance bound / (_STOP_BOTTOM * (lam_scale / V +
# shift)): lambda1 is 3.9-5.4 x lam_scale / V on the slices and graphs measured,
# so this asks for a weak residual near bound / 50; the worst of 648 solves (levels
# 3-5, r = 0 and 1, s0 in {0.5, 1, 2}, a slice and five graphs, seeds 0-5) was
# 1.69e-10 at tol = 1e-8
_STOP_BOTTOM = 250.0

# the carry test (module docstring): slice matrices on one mesh are multiples
# to 4.0e-15 of their largest entry
_PROPORTIONAL_TOL = 1e-13

# faces per assembly block, which bounds the size of the block temporaries; K is
# the same bit for bit at any block size.  Smallest peak RSS of three 10 s
# perfbench runs (2-vCPU Xeon): graph-l6 164.6 MB at 2048 faces, 165.4 MB at
# 8192; sweep-s0-l5 87.8 MB and 87.9 MB
_BLOCK = 2048
# the 10 entries i <= k of a symmetric 4x4 matrix, and the entry that holds (i, k)
_UPPER = np.triu_indices(4)
_SYM = np.empty((4, 4), dtype=np.intp)
_SYM[_UPPER] = _SYM[_UPPER[::-1]] = np.arange(10)


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class OperatorPair:
    """The order-r Jacobi operator of one surface, discretized: K and M, the
    lumped mass, and the potential c tr P_r - tr A^2 P_r (c = 1) per vertex
    with its mean against the surface's area weights."""

    stiffness: csr_matrix
    mass: csr_matrix
    lam_field: np.ndarray   # c tr P_r - tr A^2 P_r per vertex
    lam_mean: float         # its mean against surface.weights: the comparison constant
    min_newton_eig: float   # smallest vertex eigenvalue of P_r (ellipticity bookkeeping)
    order: np.ndarray       # fill-reducing vertex order for factorizations

    @cached_property
    def lumped(self) -> np.ndarray:
        """The row sums of M."""
        return np.asarray(self.mass.sum(axis=1)).ravel()


@dataclass(frozen=True)
class EigenResult:
    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float


# in a ``shared_spectrum`` scope, [] or [(the last pencil ARPACK solved, its result)]
_held: ContextVar[list | None] = ContextVar("held_spectrum", default=None)


@contextmanager
def shared_spectrum():
    """Let the eigensolves in this scope carry the last eigenpair ARPACK found
    to a positive multiple of its pencil (see the module docstring); the pair
    is released when the scope exits."""
    token = _held.set([])
    try:
        yield
    finally:
        _held.reset(token)


def _carried(ref: OperatorPair, solved: EigenResult, op: OperatorPair,
             accept: float) -> EigenResult | None:
    """``solved`` carried from ``ref`` to ``op`` when (K, M) = (a K_ref, b M_ref),
    a, b > 0 (a = b = 1.0 exactly for equal matrices), and the carried pair's
    ``weak_residual`` on ``op`` is below ``accept``; else None."""
    ratios = []
    for new, old in ((op.stiffness, ref.stiffness), (op.mass, ref.mass)):
        if not (np.array_equal(new.indptr, old.indptr) and np.array_equal(new.indices, old.indices)):
            return None
        pivot = np.argmax(np.abs(old.data))
        ratio = new.data[pivot] / old.data[pivot]
        if not (ratio > 0.0 and np.abs(new.data - ratio * old.data).max()
                <= _PROPORTIONAL_TOL * np.abs(new.data).max()):
            return None
        ratios.append(float(ratio))
    a, b = ratios
    lambda1 = a / b * solved.lambda1
    f = solved.eigenfunction / np.sqrt(b)
    residual = weak_residual(op, f, lambda1)
    return EigenResult(lambda1, f, 0, residual) if residual < accept else None


def assemble(surface: GraphSurface, r: int) -> OperatorPair:
    """The order-r Jacobi operator of a built surface, discretized once and
    kept on the surface (``surface._memo[r]``): K, M, the lumped mass and the
    potential c tr P_r - tr A^2 P_r with its mean.

    P_r is formed per vertex, in the vertex frame, and not kept.  Per face,
    P_r is the mean of the corner forms Q = (J E) P_r (J E)^T (E the vertex
    frame, J the metric; first-order transport), and stiffness entries
    integrate <P_r grad phi_a, grad phi_b> = grad_a . Q grad_b with the
    ambient hat gradients of each block of faces.  The record carries the
    mesh's nested-dissection order, ``SphereMesh.order``.
    """
    if r not in (0, 1):
        raise ValueError(f"order r={r} out of range [0, 1]")
    if r in surface._memo:
        return surface._memo[r]
    faces = surface.mesh.faces
    if faces.size == 0:
        raise ValueError("surface mesh has no faces")

    mass = surface.mass     # before the stiffness temporaries, which keeps peak RSS down
    shape = surface.shape
    p_vertex = batched_newton(shape, surface.sigma, r)
    min_eig = float(batched_eigvalsh2(p_vertex).min())
    lam_field = np.trace(p_vertex, axis1=1, axis2=2) - np.einsum("vij,vji->v", shape @ shape, p_vertex)

    # Q = (J E) P_r (J E)^T = a pa^T + b pb^T per vertex, with [a, b] = J E and
    # [pa, pb] = (J E) P_r; per face, K_ab = area/3 grad_a . (sum of corner Q) grad_b
    a, b = np.ascontiguousarray((surface.frame * SIGNATURE[None, :, None]).transpose(2, 1, 0))
    p00, p01, p11 = p_vertex[:, 0, 0], p_vertex[:, 0, 1], p_vertex[:, 1, 1]
    pa, pb = p00 * a + p01 * b, p01 * a + p11 * b
    q = np.stack([a[i] * pa[k] + b[i] * pb[k] for i, k in zip(*_UPPER)])    # (10, V)
    third = surface.face_area / 3.0
    nf = faces.shape[0]
    k_local = np.empty((nf, 3, 3))
    for start in range(0, nf, _BLOCK):
        f = slice(start, start + _BLOCK)
        q_face = np.take(q, faces[f, 0], axis=1)
        q_face += np.take(q, faces[f, 1], axis=1)
        q_face += np.take(q, faces[f, 2], axis=1)
        g = _hat_gradients(surface.vertices, faces[f])
        k_sub = np.einsum("aib,cib->acb", g, np.einsum("ikb,ckb->cib", q_face[_SYM], g))
        k_sub[1, 0] = k_sub[0, 1]           # exactly symmetric, as scatter_p1 requires
        k_sub *= third[f]                   # (2, 2, B): the rows and columns of corners 1, 2
        block = k_local[f]
        block[:, 1:, 1:] = k_sub.transpose(2, 0, 1)
        block[:, 0, 1:] = block[:, 1:, 0] = -(k_sub[0] + k_sub[1]).T   # rows of K sum to zero
        block[:, 0, 0] = -(block[:, 0, 1] + block[:, 0, 2])
    k = scatter_p1(surface.mesh, k_local)
    pair = OperatorPair(
        stiffness=k, mass=mass, lam_field=lam_field,
        lam_mean=float(np.sum(lam_field * surface.weights) / np.sum(surface.weights)),
        min_newton_eig=min_eig, order=surface.mesh.order,
    )
    surface._memo[r] = pair
    return pair


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
    return float(np.sqrt(np.sum(rho * rho / op.lumped)) / fnorm)


def first_eigenvalue_meanzero(op: OperatorPair, *, tol: float, seed: int, maxiter: int = 500) -> EigenResult:
    """Constrained first eigenvalue: min of the Rayleigh quotient over
    mean-zero functions, with the constant kernel deflated.

    K must be positive semidefinite, so that the bottom of its mean-zero
    spectrum lies nearest a shift just below zero; a zero K raises
    ``SolverError``.  ARPACK shift-invert Lanczos (``eigsh`` with
    ``sigma = -shift``, the eigenvalue nearest the shift) on the pencil
    (K, M).  The inverse operator is one LU solve with K + shift M, which
    has the P1 pattern that K and M share on a mesh, factorized in the
    operator's nested-dissection order with the NATURAL column order,
    followed by the mass-orthogonal projection onto mean-zero functions;
    the start vector is the projected standard normal vector of
    ``default_rng(seed)``, so runs are deterministic.  The Lanczos basis
    has ``ncv`` = 10 vectors instead of ARPACK's default 20, which ARPACK
    fills before its first convergence test: 11 applications instead of 21
    on a level-5 slice.  The eigenpair is accepted only if its
    ``weak_residual`` is below tol * min(1, lam_scale), with
    lam_scale = max K_ii / min lumped mass, so the test is scale-free on a
    tiny spectrum.  ARPACK stops at relative accuracy that bound divided by
    ``_STOP_BOTTOM`` * (lam_scale / V + shift), the bottom of the spectrum
    rather than its top (see the module docstring): 16 applications instead
    of 21 on the level-6 test graph, with the worst of 648 measured
    residuals 59x below tol, within ``maxiter`` restarts.  Inside a
    ``shared_spectrum`` scope a pencil that is (a K_ref, b M_ref), a, b > 0,
    for the last pencil ARPACK solved takes its eigenpair scaled, with 0
    applications, if that pair passes the same residual test.

    The eigenfunction is mass-normalized and mean-zero, with ARPACK's sign;
    ``iterations`` is the number of shift-invert applications.
    """
    kk = op.stiffness
    mm = op.mass
    nv = kk.shape[0]
    mass_column = op.lumped
    total = float(mass_column.sum())
    lam_scale = float(np.abs(kk.diagonal()).max() / mass_column.min())
    if lam_scale == 0.0:
        raise SolverError("the stiffness matrix is zero (P_r vanishes): no first eigenvalue")
    accept = tol * min(1.0, lam_scale)
    held = _held.get()
    if held:
        carried = _carried(*held[0], op, accept)
        if carried is not None:
            return carried
        held.clear()                    # released before the new factor

    rng = np.random.default_rng(seed)
    x0 = _project_meanzero(rng.standard_normal(nv), mass_column, total)
    shift = 1e-5 * lam_scale
    order = op.order
    lu = splu((kk + shift * mm)[order][:, order].tocsc(), permc_spec="NATURAL")
    iterations = 0

    def shift_invert(b: np.ndarray) -> np.ndarray:
        nonlocal iterations
        iterations += 1
        y = np.empty_like(b)
        y[order] = lu.solve(b[order])
        return _project_meanzero(y, mass_column, total)

    try:
        values, vectors = eigsh(
            kk, 1, M=mm, sigma=-shift, which="LM", v0=x0,
            OPinv=LinearOperator((nv, nv), matvec=shift_invert, dtype=float),
            ncv=min(nv, _NCV), tol=accept / (_STOP_BOTTOM * (lam_scale / nv + shift)),
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
            f"({found} of 1 eigenpairs found)",
            residual=residual,
        ) from None
    residual = weak_residual(op, vectors[:, 0], values[0])
    if residual >= accept:
        raise SolverError(
            f"eigensolver residual {residual:.3e} is not below {accept:.3e} "
            f"after {iterations} shift-invert applications",
            residual=residual,
        )
    result = EigenResult(
        lambda1=float(values[0]),
        eigenfunction=vectors[:, 0],
        iterations=iterations,
        residual=residual,
    )
    if held is not None:
        held.append((op, result))
    return result
