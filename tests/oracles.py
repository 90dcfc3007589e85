"""Reference implementations kept as test oracles.

Each function here is an earlier, plainer form of a library routine that was
later rewritten for speed.  They compute the same quantity by the direct
method, so the tests can check the fast routine against them.
"""

import numpy as np
from scipy.sparse.linalg import splu

from lorstab.fem import SolverError, _project_meanzero, weak_residual
from lorstab.mesh import _icosahedron
from lorstab.surfaces import mdot
from lorstab.variation import _BARY, _ORIENTATION, FlowError


def volume_balance_reference(variation, t, n_time=16):
    """Signed swept volume by batched ``np.linalg.det``: the 4x4 orientation
    determinant and the 3x3 Lorentz Gram determinant at every quadrature point
    and Simpson node, on (M, 4) point-major arrays."""
    if t == 0.0:
        return 0.0
    if abs(t) > variation.t_max:
        raise FlowError(f"|t| = {abs(t):.3g} exceeds t_max = {variation.t_max:.3g}", t=t)
    cache = variation.base.cache
    faces = cache.faces
    f_vertex = variation.values()

    pos = cache.vertices[faces]        # (F, 3, 4)
    nrm = cache.normal[faces]
    amp = f_vertex[faces]              # (F, 3)

    # barycentric quadrature data, flattened over (face, point)
    p = np.einsum("bc,fci->fbi", _BARY, pos).reshape(-1, 4)
    nv = np.einsum("bc,fci->fbi", _BARY, nrm).reshape(-1, 4)
    fq = (_BARY @ amp.T).T.reshape(-1)
    dp1 = (pos[:, 1] - pos[:, 0])[:, None, :].repeat(3, axis=1).reshape(-1, 4)
    dp2 = (pos[:, 2] - pos[:, 0])[:, None, :].repeat(3, axis=1).reshape(-1, 4)
    dn1 = (nrm[:, 1] - nrm[:, 0])[:, None, :].repeat(3, axis=1).reshape(-1, 4)
    dn2 = (nrm[:, 2] - nrm[:, 0])[:, None, :].repeat(3, axis=1).reshape(-1, 4)
    df1 = (amp[:, 1] - amp[:, 0])[:, None].repeat(3, axis=1).reshape(-1)
    df2 = (amp[:, 2] - amp[:, 0])[:, None].repeat(3, axis=1).reshape(-1)

    if n_time % 2 == 1:
        n_time += 1
    h_t = t / n_time
    coeff = np.ones(n_time + 1)
    coeff[1:-1:2] = 4.0
    coeff[2:-1:2] = 2.0
    coeff *= h_t / 3.0

    total = 0.0
    for node, w_t in enumerate(coeff):
        tau = node * h_t
        ch = np.cosh(tau * fq)
        sh = np.sinh(tau * fq)
        ray = sh[:, None] * p + ch[:, None] * nv          # d(flow point)/d(t f)
        phi = ch[:, None] * p + sh[:, None] * nv
        d1 = ch[:, None] * dp1 + sh[:, None] * dn1 + tau * df1[:, None] * ray
        d2 = ch[:, None] * dp2 + sh[:, None] * dn2 + tau * df2[:, None] * ray
        dt = fq[:, None] * ray
        cols = np.stack([d1, d2, dt, phi], axis=2)        # (M, 4, 4)
        sign = _ORIENTATION * np.sign(np.linalg.det(cols))
        gram = np.empty((d1.shape[0], 3, 3))
        for a, va in enumerate((d1, d2, dt)):
            for b, vb in enumerate((d1, d2, dt)):
                if b < a:
                    gram[:, a, b] = gram[:, b, a]
                else:
                    gram[:, a, b] = mdot(va, vb)
        det3 = np.linalg.det(gram)
        elem = np.sqrt(np.abs(det3))
        total += w_t * float(np.sum(sign * elem)) / 6.0
    return total


def validate_closed_oriented_reference(faces, nvertices):
    """Set-based mesh validation: one pass over the directed edges of every
    face, then a lookup of each edge's reverse."""
    if faces.size and (faces.min() < 0 or faces.max() >= nvertices):
        raise ValueError("face index out of range")
    directed = set()
    for a, b, c in faces:
        for e in ((a, b), (b, c), (c, a)):
            e = (int(e[0]), int(e[1]))
            if e in directed:
                raise ValueError(f"duplicated directed edge {e}: inconsistent orientation")
            directed.add(e)
    for i, j in directed:
        if (j, i) not in directed:
            raise ValueError(f"boundary or non-manifold edge ({i}, {j}): mesh is not watertight")


def icosphere_reference(level):
    """Icosphere by one subdivision of one face at a time, with a dict of
    edge midpoints numbered as they are first met."""
    if level < 0:
        raise ValueError("subdivision level must be nonnegative")
    pts, faces = _icosahedron()
    points = [p for p in pts]
    for _ in range(level):
        midpoint = {}

        def mid(i, j):
            key = (i, j) if i < j else (j, i)
            idx = midpoint.get(key)
            if idx is None:
                m = points[i] + points[j]
                m /= np.linalg.norm(m)
                idx = len(points)
                points.append(m)
                midpoint[key] = idx
            return idx

        new_faces = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = np.array(new_faces, dtype=int)
    pts = np.array(points)
    p0, p1, p2 = pts[faces[:, 0]], pts[faces[:, 1]], pts[faces[:, 2]]
    flip = np.einsum("fi,fi->f", np.cross(p1 - p0, p2 - p0), p0) < 0
    faces[flip] = faces[flip][:, ::-1]
    return pts, faces


def smallest_eigenvalues_reference(op, k=1, tol=1e-8, maxiter=500, seed=0):
    """Bottom-k mean-zero eigenpairs by deflated shift-inverted subspace
    iteration on a block of k plus a buffer, with Rayleigh-Ritz each step
    and the COLAMD factorization of K + shift M."""
    kk = op.stiffness
    mm = op.mass
    nv = op.nvertices
    mass_column = np.asarray(mm.sum(axis=1)).ravel()
    total = float(mass_column.sum())

    lam_scale = float(np.abs(kk.diagonal()).max() / mass_column.min())
    shift = 1e-5 * lam_scale
    rng = np.random.default_rng(seed)
    nb = min(nv - 1, k + max(2, (k + 1) // 2))
    x = rng.standard_normal((nv, nb))

    for attempt in range(4):
        lu = splu((kk + shift * mm).tocsc())
        y = _project_meanzero(x, mass_column, total)
        iterations = 0
        values = np.zeros(nb)
        residuals = np.full(k, np.inf)
        for iterations in range(1, maxiter + 1):
            y = lu.solve(mm @ y)
            y = _project_meanzero(y, mass_column, total)
            c = y.T @ (mm @ y)
            w, vecs = np.linalg.eigh(c)
            w = np.maximum(w, 1e-300)
            y = y @ (vecs / np.sqrt(w)) @ vecs.T
            kp = y.T @ (kk @ y)
            values, rot = np.linalg.eigh((kp + kp.T) / 2.0)
            y = y @ rot
            residuals = np.array([weak_residual(op, y[:, i], values[i]) for i in range(k)])
            if residuals.max() < tol:
                break
        if values.min() > -0.5 * shift:
            break
        shift *= 100.0
    else:
        raise SolverError("could not bracket an indefinite spectrum", residual=float(residuals.max()))

    if residuals.max() >= tol:
        raise SolverError(
            f"eigensolver did not converge in {maxiter} iterations "
            f"(residual {residuals.max():.3e})",
            residual=float(residuals.max()),
        )
    vectors = y[:, :k]
    for i in range(k):
        lead = np.argmax(np.abs(vectors[:, i]))
        if vectors[lead, i] < 0:
            vectors[:, i] = -vectors[:, i]
    return values[:k], vectors, iterations, residuals
