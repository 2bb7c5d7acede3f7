"""Frozen reference values shared across the test suite.

High-precision constants were derived once with an independent
arbitrary-precision tool and frozen here as double literals; closed forms
(1/pi, 16/(3 pi^2), ...) are written out directly where a test needs them.
The ED oracle lives here too: the sector Hamiltonian built bond by bond as a
scipy sparse matrix, and its ARPACK ground state.  scipy is a test
dependency only, imported on the oracle's first call.
"""

import functools
import math

EULER_GAMMA = 0.5772156649015328606
ZETA_3 = 1.2020569031595942854
ZETA_3_HALVES = 2.6123753486854883343  # zeta(1.5)
ZETA_5_HALVES = 1.3414872572509171798  # zeta(2.5)

ZETA_PRIME_M1 = -0.16542114370045092921
GLAISHER_A = 1.2824271291006226369
LN_B = -0.43850116605469067852  # = (ln 2)/12 + 3 zeta'(-1)
B_CONST = 0.64500244850957708466  # = exp(LN_B) = 2^(1/12) e^(1/4) A^(-3)
LUKYANOV_I = -1.7540046642187627141  # = 4 LN_B
C0 = 0.52141397267384698311  # = sqrt(pi) B^2 / sqrt(2)
C0_OVER_SQRT_PI = 0.29417633209883890604
AMPLITUDE_HALF = 0.14708816604941945302  # = C0 / (2 sqrt(pi))
SUB_COEFF = -0.036772041512354863  # = -(1/8) C0/sqrt(pi)

# six-digit values quoted for the two headline constants
AMPLITUDE_HALF_PRINTED = 0.147088
GLAISHER_A_PRINTED = 1.282427


def rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def momentum_filling_energy(L: int, M: int | None = None) -> float:
    """Independent ground-energy oracle: fill the M lowest of 2 cos(2 pi n / L), M = L/2 by default.

    The Jordan-Wigner fermions are periodic for M odd and antiperiodic for
    M even, where n runs over the half-integers.
    """
    M = L // 2 if M is None else M
    shift = 0.5 if M % 2 == 0 else 0
    levels = sorted(2.0 * math.cos(2.0 * math.pi * (n + shift) / L) for n in range(L))
    return sum(levels[:M])


def sector_hamiltonian(L: int, M: int | None = None):
    """The ring Hamiltonian on the M-up-spin states as a scipy CSR matrix, M-even rings included.

    The default M = L/2 takes ``spin_sector(L).basis``; any other M lists its
    states by popcount, ascending.  Hop amplitude +1 for each flippable bond,
    periodic closure included: one bond at a time, with none of
    ``xxchain.ed``'s orbit and triplet code.
    """
    import numpy as np
    import scipy.sparse  # here, not at the top: importing it takes ~0.3 s

    from xxchain import spin_sector

    if M is None:
        basis = spin_sector(L).basis
    else:
        basis = np.array([s for s in range(1 << L) if bin(s).count("1") == M], dtype=np.int64)
    rows, cols = [], []
    for i in range(L):
        j = (i + 1) % L
        differ = ((basis >> i) & 1) != ((basis >> j) & 1)
        rows.append(np.searchsorted(basis, basis[differ] ^ ((1 << i) | (1 << j))))
        cols.append(np.nonzero(differ)[0])
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    dim = len(basis)
    return scipy.sparse.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim))


@functools.cache
def eigsh_pair(L: int):
    """``(e0, e1, psi)``: the two lowest sector eigenvalues and the normalized ground state, by ARPACK."""
    import numpy as np
    import scipy.sparse.linalg

    from xxchain.ed import _start_vector

    H = sector_hamiltonian(L)
    w, v = scipy.sparse.linalg.eigsh(H, k=2, which="SA", v0=_start_vector(H.shape[0]))
    lowest, second = np.argsort(w)
    psi = v[:, lowest] / np.linalg.norm(v[:, lowest])
    psi.setflags(write=False)
    return float(w[lowest]), float(w[second]), psi
