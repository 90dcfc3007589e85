"""Reference implementations kept as test oracles.

Each function here is an earlier, plainer form of a library routine that was
later rewritten for speed.  They compute the same quantity by the direct
method, so the tests can check the fast routine against them.
"""

import numpy as np

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
