"""The dense-size budget, shared by every dense path.

The dense paths (stabilizer and T-gate statevectors, the Haar unitary, the
unitary Gram matrix) call ``check_entries`` to refuse an array over the
budget before allocating it.  Dense operators other than a Haar circuit's
unitary are test oracles and live with the tests.
"""

# The one dense-size budget (256 MiB as complex128), checked by check_entries.
MAX_ENTRIES = 2 ** 24


def check_entries(entries, what):
    """Refuse, before allocating, a dense array of more than MAX_ENTRIES entries.
    A count too large to build is given as its formula, a string, and refused."""
    if isinstance(entries, str) or entries > MAX_ENTRIES:
        raise ValueError(f"{what} needs {entries} dense entries, over the "
                         f"budget of 2^24 = {MAX_ENTRIES}")

