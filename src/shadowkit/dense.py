"""The dense-size budget and the Pauli matrices behind ``PauliString.dense``.

Qubit 0 is the *leftmost* tensor factor, so a computational basis state
``|x_0 x_1 ... x_{n-1}>`` has the index whose most significant bit is x_0,
and operators are plain complex numpy arrays of shape ``(2**n, 2**n)``.
The dense paths call ``check_entries`` to refuse an array over the budget
before allocating it.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

# The one dense-size budget (256 MiB as complex128), checked by check_entries.
MAX_ENTRIES = 2 ** 24


def check_entries(entries, what):
    """Refuse, before allocating, a dense array of more than MAX_ENTRIES entries."""
    if entries > MAX_ENTRIES:
        raise ValueError(f"{what} needs {entries} dense entries, over the "
                         f"budget of 2^24 = {MAX_ENTRIES}")


def kron_all(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out
