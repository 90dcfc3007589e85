"""Fixed reference work that measures how fast the host runs right now.

    python3 perfbench/reference.py

It imports no part of lorstab, so no change to the program moves its time.
It mixes what the program's invocations spend their time on: interpreter
start and NumPy/SciPy import, sparse LU solves (the eigensolver), batched
small-matrix products (assembly) and a pure-Python loop (mesh building).
``run.py`` times it as a fresh process before each timed invocation and
divides the invocation's times by it.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

n = 120
lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
lu = splu((sp.kron(lap1, sp.eye(n)) + sp.kron(sp.eye(n), lap1) + 0.1 * sp.eye(n * n)).tocsc())
x = np.ones((n * n, 3))
for _ in range(30):
    x = lu.solve(x)
    x /= np.linalg.norm(x, axis=0)

b = np.linspace(0.0, 1.0, 60000 * 9).reshape(60000, 3, 3)
for _ in range(6):
    c = np.sqrt(np.abs(np.einsum("fij,fjk,fkl->fil", b, b, b))) + np.cosh(0.1 * b)

counts: dict[tuple[int, int], int] = {}
for i in range(120000):
    key = (i % 997, i % 991)
    counts[key] = counts.get(key, 0) + 1
