"""Reference implementations kept as test oracles.

Most functions here are an earlier, plainer form of a library routine that
was later rewritten for speed; they compute the same quantity by the direct
method, so the tests can check the fast routine against them.
``SphericalHarmonic``, ``harmonic_basis``, ``killing_field`` and
``support_function`` come first: the tests' names for one harmonic, for a
basis of them, for any Killing field of de Sitter space and for its normal
component (the library's Killing check reads only the boost u = e1, v = e4).  ``minkowski_inner`` and the
shape-operator algebra for any n and c (``elementary_reference`` to
``variation_constant_reference``) are the references of the closed forms
the library computes at n = 2, c = 1.  The last seven are independent
cross-checks of the pipeline's geometry, operators and curvature algebra,
built from the discrete mesh or a closed form rather than the analytic
path.
"""

from math import comb

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from lorstab.curvature import batched_newton
from lorstab.fem import SolverError, assemble, weak_residual
from lorstab.harmonics import HarmonicField, _harmonic_poly
from lorstab.mesh import _LEAF, _icosahedron
from lorstab.surfaces import SIGNATURE, mdot


class SphericalHarmonic(HarmonicField):
    """One orthonormal real harmonic Y_{l,m}: the one-term field."""

    def __init__(self, l: int, m: int):
        super().__init__(terms=((l, m, 1.0),))

    l = property(lambda self: self.terms[0][0])
    m = property(lambda self: self.terms[0][1])


def harmonic_basis(l_max, l_min=0):
    """All (l, m) with l_min <= l <= l_max, ordered by l then m."""
    return [SphericalHarmonic(l, m) for l in range(l_min, l_max + 1) for m in range(-l, l + 1)]


def killing_field(u, v, points):
    """The rotation or boost generator W(p) = <u,p> v - <v,p> u at one point,
    (4,), or at a stack of points, (V, 4); tangent to the hyperquadric."""
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    up, vp = np.asarray(mdot(points, u)), np.asarray(mdot(points, v))
    return up[..., None] * v - vp[..., None] * u


def support_function(surface, u, v):
    """Normal component <W, N> of the Killing field W = <u,p> v - <v,p> u
    along the surface, per vertex."""
    return mdot(killing_field(u, v, surface.vertices), surface.normal)


def _poly_values(poly, q):
    """One polynomial at every point, from a (V, T, 3) array of powers."""
    mono = np.prod(q[:, None, :] ** poly.exps[None, :, :], axis=2)
    return mono @ poly.coeffs


def harmonic_jets_reference(field, q):
    """Value, tangential gradient and intrinsic Hessian of a HarmonicField,
    summed term by term: each harmonic evaluates its own derivative
    polynomials and is projected onto the tangent plane on its own."""
    q = np.atleast_2d(q)
    v = q.shape[0]
    value = np.full(v, field.constant)
    grad = np.zeros((v, 3))
    hess = np.zeros((v, 3, 3))
    proj = np.eye(3)[None] - q[:, :, None] * q[:, None, :]
    for l, m, a in field.terms:
        poly = _harmonic_poly(l, m)
        y = _poly_values(poly, q)
        value += a * y
        g = np.stack([_poly_values(poly.diff(axis), q) for axis in range(3)], axis=1)
        grad += a * (g - l * y[:, None] * q)
        h = np.empty((v, 3, 3))
        for i in range(3):
            for j in range(i, 3):
                h[:, i, j] = h[:, j, i] = _poly_values(poly.diff(i).diff(j), q)
        h = np.einsum("vij,vjk,vkl->vil", proj, h, proj)
        hess += a * (h - l * y[:, None, None] * proj)
    return value, grad, hess


def face_frames_reference(surface):
    """Lorentz-orthonormal frames (F, 4, 2) of the flat faces, and the
    hat-function gradients (F, 2, 3) in them, from the 2D vertex coordinates
    (0, 0), (l1, 0), (g12 / l1, h) with h the height of e2 over e1."""
    faces = surface.mesh.faces
    p = surface.vertices[faces]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    g11, g12, g22 = mdot(e1, e1), mdot(e1, e2), mdot(e2, e2)
    l1 = np.sqrt(g11)
    height = np.sqrt(g22 - g12 * g12 / g11)
    t2 = e2 - (g12 / g11)[:, None] * e1
    frame = np.stack([e1 / l1[:, None], t2 / height[:, None]], axis=2)
    x2, det2 = g12 / l1, l1 * height
    grad = np.zeros((faces.shape[0], 2, 3))
    grad[:, 0, 1] = height / det2
    grad[:, 1, 1] = -x2 / det2
    grad[:, 1, 2] = l1 / det2
    grad[:, :, 0] = -grad[:, :, 1] - grad[:, :, 2]
    return frame, grad


def assemble_stiffness_reference(surface, r):
    """Order-r stiffness matrix by three einsum contractions on (F, 3, 2, 2)
    stacks: transport of each corner frame into the face frame, the corner
    mean of T^T P_r T, and area * G^T P G."""
    p_vertex = batched_newton(surface.shape, surface.sigma, r)
    frames = surface.frame * SIGNATURE[None, :, None]
    faces = surface.mesh.faces
    face_frame, face_grad = face_frames_reference(surface)
    transport = np.einsum("fcia,fib->fcab", frames[faces], face_frame)
    p_face = np.einsum("fcab,fcad,fcde->fcbe", transport, p_vertex[faces], transport).mean(axis=1)
    p_face = (p_face + np.transpose(p_face, (0, 2, 1))) / 2.0
    k_local = np.einsum("f,fam,fab,fbn->fmn", surface.face_area, face_grad, p_face, face_grad)
    return scatter_p1_reference(faces, k_local, surface.vertices.shape[0])


def scatter_p1_reference(faces, local, nv):
    """Sum per-face (F, 3, 3) element matrices through COO -> CSR, which adds
    duplicate entries, and symmetrize the result as (m + m^T) / 2."""
    f = faces.shape[0]
    rows = np.repeat(faces, 3, axis=1).reshape(f, 3, 3)
    cols = np.tile(faces, (1, 3)).reshape(f, 3, 3)
    m = coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())), shape=(nv, nv)).tocsr()
    return (m + m.T) / 2.0


def nested_dissection_reference(points, faces, halves=None):
    """Nested-dissection order with a lexsort of (coordinate, part) per tree
    level over every vertex still being split, each level's parts found by
    a stable argsort of the part numbers.  Each directed edge from a lower
    half to its upper half puts the end nearer the part's cut (the midpoint
    of the coordinates on either side of the median) into the separator, the
    lower end on a tie.  If ``halves`` is a list, each level's (lower, upper)
    masks of what is left of the halves without the separator are appended."""
    nv = points.shape[0]
    tails, heads = faces.ravel(), np.roll(faces, -1, axis=1).ravel()
    part = np.zeros(nv, dtype=np.int64)
    depth = np.zeros(nv, dtype=np.int64)
    active = np.ones(nv, dtype=bool)
    height = 0
    while True:
        big = np.bincount(part[active], minlength=1 << height) > _LEAF
        if not big.any():
            break
        split = np.flatnonzero(active & big[part])
        split = split[np.argsort(part[split], kind="stable")]
        starts = np.flatnonzero(np.diff(part[split], prepend=-1))
        sizes = np.diff(starts, append=split.size)
        extent = np.maximum.reduceat(points[split], starts) - np.minimum.reduceat(points[split], starts)
        seg = np.repeat(np.arange(starts.size), sizes)
        coord = points[split, np.argmax(extent, axis=1)[seg]]
        by_coord = np.lexsort((coord, seg))
        split, coord = split[by_coord], coord[by_coord]
        median = starts + sizes // 2
        cut = (coord[median - 1] + coord[median]) / 2
        upper = np.zeros(nv, dtype=bool)
        upper[split[np.arange(split.size) >= median[seg]]] = True
        lower = np.zeros(nv, dtype=bool)
        lower[split] = ~upper[split]
        value = np.zeros(nv)
        value[split] = coord
        cut_at = np.zeros(nv)
        cut_at[split] = cut[seg]
        crossing = lower[tails] & upper[heads]
        low, high = tails[crossing], heads[crossing]
        near_low = cut_at[low] - value[low] <= value[high] - cut_at[high]
        active[low[near_low]] = False
        active[high[~near_low]] = False
        if halves is not None:
            halves.append((lower & active, upper & active))
        depth[active] = height + 1
        part[active] = 2 * part[active] + upper[active]
        height += 1
    below = height - depth
    key = ((part << below) | ((1 << below) - 1)) * (height + 1) + below
    return np.argsort(key, kind="stable")


def pattern_reference(faces, nv):
    """P1 pattern by ``np.unique`` over the 9F corner-pair keys a * V + b:
    CSR indptr and indices, and the (F, 3, 3) slots of the corner pairs."""
    faces = faces.astype(np.int64)
    keys = (faces[:, :, None] * nv + faces[:, None, :]).ravel()
    entries, slots = np.unique(keys, return_inverse=True)
    indptr = np.zeros(nv + 1, dtype=np.int32)
    np.cumsum(np.bincount(entries // nv, minlength=nv), out=indptr[1:])
    return indptr, (entries % nv).astype(np.int32), slots.astype(np.int32).reshape(faces.shape + (3,))


# edge-midpoint quadrature rule: barycentric coordinates of the three points
_BARY = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
# orientation of the swept-volume element: the outward face frame, the future
# normal and the position vector count positively, so that a positive
# amplitude at t > 0 sweeps a positive volume
_ORIENTATION = -1.0


def volume_balance_reference(variation, t, n_time=16):
    """Signed swept volume of the normal flow over the mesh, by direct
    quadrature of the pulled-back ambient volume form over base x [0, t]:
    edge-midpoint rule on the faces, composite Simpson on ``n_time``
    intervals in time.  The element at each point is sign(det4) sqrt|det3|,
    with det4 the 4x4 orientation determinant of the two edge derivatives,
    the time derivative and the flowed point, and det3 the 3x3 Lorentz Gram
    determinant of the first three, both by batched ``np.linalg.det`` on
    (M, 4) point-major arrays.  Second order in the mesh size."""
    if t == 0.0:
        return 0.0
    base = variation.base
    faces = variation.base.mesh.faces
    f_vertex = variation.values()

    pos = base.vertices[faces]        # (F, 3, 4)
    nrm = base.normal[faces]
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


def tangential_gradient_reference(surface, values, grad_face=None):
    """Vertex-averaged P1 surface gradient with ``np.add.at`` accumulation,
    corner by corner.  ``grad_face`` is the (F, 4) ambient gradient of
    ``values`` on each face; by default it is formed from face-frame
    components."""
    faces = surface.mesh.faces
    if grad_face is None:
        face_frame, face_grad = face_frames_reference(surface)
        comp = np.einsum("fam,fm->fa", face_grad, values[faces])
        grad_face = np.einsum("fia,fa->fi", face_frame, comp)
    nv = values.shape[0]
    acc = np.zeros((nv, 4))
    wacc = np.zeros(nv)
    w = surface.face_area
    for corner in range(3):
        np.add.at(acc, faces[:, corner], grad_face * w[:, None])
        np.add.at(wacc, faces[:, corner], w)
    acc /= wacc[:, None]
    comps = np.einsum("vi,via->va", acc * SIGNATURE, surface.frame)
    return np.einsum("via,va->vi", surface.frame, comps)


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
    and the COLAMD factorization of K + shift M; K positive semidefinite."""
    kk = op.stiffness
    mm = op.mass
    nv = op.stiffness.shape[0]
    mass_column = np.asarray(mm.sum(axis=1)).ravel()
    total = float(mass_column.sum())

    def project_meanzero(x):
        return x - (mass_column @ x)[None, :] / total

    lam_scale = float(np.abs(kk.diagonal()).max() / mass_column.min())
    shift = 1e-5 * lam_scale
    rng = np.random.default_rng(seed)
    nb = min(nv - 1, k + max(2, (k + 1) // 2))
    lu = splu((kk + shift * mm).tocsc())
    y = project_meanzero(rng.standard_normal((nv, nb)))
    iterations = 0
    values = np.zeros(nb)
    residuals = np.full(k, np.inf)
    for iterations in range(1, maxiter + 1):
        y = project_meanzero(lu.solve(mm @ y))
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


def minkowski_inner(v, w) -> float:
    """Lorentz inner product of two vectors, timelike last coordinate."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"dimension mismatch: {v.shape} vs {w.shape}")
    return float(np.dot(v[:-1], w[:-1]) - v[-1] * w[-1])


# The shape-operator algebra for any dimension n and ambient curvature c, as
# the library computed it before n = 2 and c = 1 were fixed: the references
# of the closed forms in ``lorstab.curvature`` and ``lorstab.variation``.

def elementary_reference(eigs):
    """sigma_0..sigma_n per row of an (V, n) eigenvalue array -> (V, n+1), by
    the one-pass coefficient recurrence of prod_i (1 + v_i t)."""
    v, n = eigs.shape
    coeff = np.zeros((v, n + 1))
    coeff[:, 0] = 1.0
    for k in range(n):
        coeff[:, 1 : k + 2] = coeff[:, 1 : k + 2] + eigs[:, k, None] * coeff[:, 0 : k + 1]
    return coeff


def newton_reference(a, sigma, r):
    """P_r per point for an (V, n, n) operator stack and its sigma table, by
    the recurrence P_k = (-1)^k sigma_k I + A P_{k-1}, symmetrized."""
    v, n, _ = a.shape
    eye = np.broadcast_to(np.eye(n), (v, n, n))
    p = np.array(eye)
    for k in range(1, r + 1):
        p = (-1.0) ** k * sigma[:, k, None, None] * eye + a @ p
    return (p + np.transpose(p, (0, 2, 1))) / 2.0


def newton_traces_reference(a, p):
    """(tr P, tr A P, tr A^2 P) per point for an (V, n, n) operator stack and
    its Newton transformations P -> (V, 3)."""
    return np.stack([
        np.trace(p, axis1=1, axis2=2),
        np.einsum("vij,vji->v", a, p),
        np.einsum("vij,vji->v", a @ a, p),
    ], axis=1)


def area_integrand_reference(sigma, c, r):
    """Integrand F_r of the order-r area functional from sigma_0..sigma_n
    along the last axis: F_0 = 1, F_1 = -sigma_1 and
    F_r = (-1)^r sigma_r - c (n - r + 1) / (r - 1) * F_{r-2}."""
    sigma = np.asarray(sigma, dtype=float)
    n = sigma.shape[-1] - 1
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    f = [np.ones(sigma.shape[:-1]), -sigma[..., 1]]
    for k in range(2, r + 1):
        f.append((-1.0) ** k * sigma[..., k] - c * (n - k + 1) / (k - 1) * f[k - 2])
    return f[r]


def variation_constant_reference(n, c, r):
    """Additive constant in the first variation of the order-r area: zero for
    even r, and for odd r
    -[n (n-2) ... (n-r+1)] / [(r-1) (r-3) ... 2] * (-c)^((r+1)/2)."""
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    if r % 2 == 0:
        return 0.0
    num = 1.0
    k = n
    while k >= n - r + 1:
        num *= k
        k -= 2
    den = 1.0
    k = r - 1
    while k >= 2:
        den *= k
        k -= 2
    return -(num / den) * (-c) ** ((r + 1) // 2)


def _vertex_adjacency(faces, nv):
    neigh = [set() for _ in range(nv)]
    for a, b, c in faces:
        neigh[a].update((b, c))
        neigh[b].update((a, c))
        neigh[c].update((a, b))
    return [np.array(sorted(s), dtype=int) for s in neigh]


def shape_operator_mesh_estimate(surface):
    """Discrete second-fundamental-form fit per vertex, (V, 2, 2).

    Independent of the analytic path: fits II(t, t) = 2 <N, p_j - p_i> over
    the one-ring in the cached tangent frame.  Used to cross-check the
    analytic shape operators.
    """
    nv = surface.vertices.shape[0]
    adjacency = _vertex_adjacency(surface.mesh.faces, nv)
    out = np.empty((nv, 2, 2))
    for i in range(nv):
        delta = surface.vertices[adjacency[i]] - surface.vertices[i]
        t = (delta * SIGNATURE) @ surface.frame[i]          # (k, 2) tangential components
        rhs = 2.0 * mdot(delta, np.broadcast_to(surface.normal[i], delta.shape))
        design = np.stack([t[:, 0] ** 2, 2.0 * t[:, 0] * t[:, 1], t[:, 1] ** 2], axis=1)
        coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
        out[i] = [[coef[0], coef[1]], [coef[1], coef[2]]]
    return out


def strong_form_check(surface, r, test_field, battery=None):
    """Discrepancy between the analytic operator action on a slice and the
    assembled weak form, over a battery of test functions.

    ``test_field`` is a HarmonicField; only slices are supported, where the
    operator action reduces to a known multiple of the Laplace-Beltrami
    action on the fiber sphere.  Returns the max discrepancy relative to the
    largest pairing magnitude in the battery.
    """
    if not surface.is_slice:
        raise ValueError("analytic operator action is only closed-form on slices")
    pair = assemble(surface, r)
    factor = comb(1, r) * np.tanh(surface.s0) ** r
    radius2 = np.cosh(surface.s0) ** 2

    q = surface.mesh.q
    f_vals = test_field.value(q)
    lf = np.zeros_like(f_vals)
    for l, m, a in test_field.terms:
        lf += -a * l * (l + 1) * SphericalHarmonic(l, m).value(q)
    lf = factor * lf / radius2   # analytic action of the order-r operator

    if battery is None:
        battery = [HarmonicField(constant=1.0)] + [
            HarmonicField(terms=((l, m, 1.0),)) for l in range(1, 4) for m in range(-l, l + 1)
        ]
    lhs = []
    rhs = []
    for g in battery:
        g_vals = g.value(q)
        lhs.append(float(np.sum(surface.weights * g_vals * lf)))
        rhs.append(float(-(g_vals @ (pair.stiffness @ f_vals))))
    lhs = np.array(lhs)
    rhs = np.array(rhs)
    kinf = float(np.abs(pair.stiffness.data).max()) if pair.stiffness.nnz else 0.0
    floor = max(kinf * float(np.abs(f_vals).max()), 1e-30)
    scale = max(np.abs(lhs).max(), np.abs(rhs).max(), floor)
    return float(np.abs(lhs - rhs).max() / scale)


def flow_rule_positions(variation, t):
    """cosh(t f) p + sinh(t f) N from the base data; the flow must match it."""
    base = variation.base
    tf = t * variation.values()
    return np.cosh(tf)[:, None] * base.vertices + np.sinh(tf)[:, None] * base.normal


def mean_curvatures_reference(a):
    """Normalized mean curvatures H_0..H_n of a symmetric (n, n) shape operator,
    C(n,r) H_r = (-1)^r sigma_r, with sigma_r read off the characteristic
    polynomial: ``np.poly`` of the eigenvalues has coefficients (-1)^r sigma_r."""
    n = a.shape[0]
    return np.poly(np.linalg.eigvalsh(a)) / np.array([comb(n, r) for r in range(n + 1)])


def stability_constant_binomial(a, c, r):
    """Companion closed form of c*tr(P_r) - tr(A^2 P_r) in mean curvatures,
    for a symmetric (n, n) shape operator ``a``.

    c(n-r)C(n,r)H_r - n H_1 C(n,r+1) H_{r+1} + (r+2) C(n,r+2) H_{r+2},
    with H past index n read as zero.  Must agree with the trace form.
    """
    n = a.shape[0]
    if not 0 <= r <= n - 1:
        raise ValueError(f"order r={r} out of range [0, {n - 1}]")
    h = list(mean_curvatures_reference(a)) + [0.0, 0.0]
    out = c * (n - r) * comb(n, r) * h[r]
    out -= n * h[1] * comb(n, r + 1) * h[r + 1]
    if r + 2 <= n:
        out += (r + 2) * comb(n, r + 2) * h[r + 2]
    return float(out)


def batched_stability_constant(a, c, r):
    """c*tr(P_r) - tr(A^2 P_r) per point for an (V, n, n) operator stack, by
    the any-n references from LAPACK eigenvalues."""
    traces = newton_traces_reference(a, newton_reference(a, elementary_reference(np.linalg.eigvalsh(a)), r))
    return c * traces[:, 0] - traces[:, 2]


def slice_operator_eigenvalue(s0, r):
    """First nonzero eigenvalue of the order-r operator on the slice at height
    s0 (n = 2), in closed form: P_r = C(1,r) tanh(s0)^r I on a round sphere of
    radius cosh(s0), whose first Laplace eigenvalue is 2 / cosh(s0)^2."""
    return comb(1, r) * np.tanh(s0) ** r * (2 / np.cosh(s0) ** 2)
