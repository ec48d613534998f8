"""The scalar Gauss-Jordan oracle for ``stabilizer.z_supports``.

One tableau at a time, on Python-int rows, in the column order the batched
kernel follows; it must give the same (x0, basis, pivots) to the int.
"""

import numpy as np


def z_support_gauss_jordan(xs, zs, phases):
    """(x0, basis, pivots) of one tableau's n stabilizer rows xs, zs (n, n)
    and phases (n,): Z-basis outcomes are x0 + span(basis), ``basis`` the
    X-parts in reduced row-echelon form with pivot columns ``pivots`` and x0
    0 on every pivot; bit vectors are ints, qubit 0 the most significant bit."""
    n = len(xs)
    packed = np.packbits(np.hstack([xs, zs]).astype(np.uint8), axis=1)
    rows = [int.from_bytes(r.tobytes(), "big") >> (-2 * n % 8) for r in packed]
    phases = (np.asarray(phases, dtype=np.int64) % 4).tolist()
    # Gauss-Jordan on the 2n-bit rows (x|z), multiplied as Paulis so phases
    # stay exact: X-parts end in RREF, and the pure-Z rows (which commute
    # with them) pivot on the other qubits, so x0 is 0 on the X pivots.
    pivots = []
    for col in range(2 * n):
        bit, r = 1 << (2 * n - 1 - col), len(pivots)
        p = next((i for i in range(r, n) if rows[i] & bit), None)
        if p is None or col - n in pivots:
            continue
        for m in (rows, phases):
            m[r], m[p] = m[p], m[r]
        for i in range(n):
            if i != r and rows[i] & bit:
                phases[i] += phases[r] + 2 * (rows[i] & rows[r] >> n).bit_count()
                rows[i] ^= rows[r]
        pivots.append(col)
    # a pure-Z row Z^a with sign (-1)^b asks a.x = b: x = b on its pivot
    x0 = sum((s >> 1 & 1) << (2 * n - 1 - c)
             for s, c in zip(phases, pivots) if c >= n)
    d = sum(c < n for c in pivots)
    return x0, [row >> n for row in rows[:d]], pivots[:d]
