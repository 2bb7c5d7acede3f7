"""Independent reference values and output checks for the benchmark.

Nothing here imports xxchain.  Every reference number is computed from the
closed formulas with mpmath at 30 significant digits, or, for the sine
product at N ~ 1e5, with a compensated numpy.longdouble sum that is itself
spot-checked against mpmath.  Each table is also spot-checked against a
route that shares no formula with it (Barnes G on the infinite chain, the
Wick determinant in mpmath on rings), so a wrong reference stops the
benchmark instead of passing or failing the program.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DPS = 30

# Bounds the test suite already uses: exact values to 1e-10, the four ln B
# routes to 1e-7, the fitted subleading coefficient to 1%.  The asymptotic
# columns inherit C0, which comes from ln B, so they get the ln B bound.
EXACT_TOL = 1e-10
LN_B_TOL = 1e-7
SUB_COEFF_TOL = 1e-2
ASYM_TOL = LN_B_TOL
# printed relerr columns and derived cells must follow from the printed values
DERIVED_TOL = 1e-9

EXACT_ROUTES = ("det", "product", "ed")
CONSTANT_NAMES = (
    "ln_b_series",
    "ln_b_integral",
    "ln_b_gamma_product",
    "ln_b_fit",
    "glaisher_a",
    "zeta_prime_minus1",
    "c0",
    "amplitude_half",
    "lukyanov_integral",
    "sub_coeff_fitted",
    "pairwise_max_dev",
)

_LD_PI = np.longdouble("3.14159265358979323846264338327950288")


class CheckFailed(Exception):
    """The program's output is malformed or misses a bound.

    ``relerr`` is the relative error of the exact number that missed its
    bound, so that a failed run still reports how far off it was.
    """

    def __init__(self, message: str, relerr: float | None = None):
        super().__init__(message)
        self.relerr = relerr


class ReferenceFailed(Exception):
    """A reference table failed its own spot check."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ReferenceFailed(message)


# ---------------------------------------------------------------- log R_N

def _g0_mp(d: int, L: int | None):
    """Free-fermion kernel sin(pi d/2) / (L sin(pi d/L)), or its L -> oo limit."""
    n = abs(d)
    if n == 0:
        return mp.mpf(1) / 2
    if n % 2 == 0:
        return mp.mpf(0)
    sign = 1 if n % 4 == 1 else -1
    if L is None:
        return sign / (mp.pi * n)
    return sign / (L * mp.sin(mp.pi * n / L))


def _log_r_recurrence(L: int | None, n_max: int) -> list:
    """log R_N for N = 0..n_max from log R_{N+1} = log R_N + log R_1 + sum_{k<=N} b_k."""
    with mp.workdps(DPS + 10):
        log_r1 = mp.log(2 * _g0_mp(1, L))
        out = [mp.mpf(0)]
        acc = mp.mpf(0)
        for N in range(1, n_max + 1):
            out.append(out[-1] + log_r1 + acc)
            if L is None:
                acc += mp.log(mp.mpf(4 * N * N) / (4 * N * N - 1))
            else:
                acc += (2 * mp.log(mp.sin(2 * mp.pi * N / L))
                        - mp.log(mp.sin(mp.pi * (2 * N + 1) / L))
                        - mp.log(mp.sin(mp.pi * (2 * N - 1) / L)))
        return out


def _log_r_barnes(N: int):
    """log R_N on the infinite chain as G(N+1)^2 G(1/2) G(3/2) / (G(N+1/2) G(N+3/2))."""
    G = mp.barnesg
    return (2 * mp.log(G(N + 1)) + mp.log(G(mp.mpf(1) / 2)) + mp.log(G(mp.mpf(3) / 2))
            - mp.log(G(N + mp.mpf(1) / 2)) - mp.log(G(N + mp.mpf(3) / 2)))


def _log_r_det(N: int, L: int | None):
    """log R_N from the N-by-N determinant with entries (-1)^(i-j) 2 G0(2(i-j)-1)."""
    mat = mp.matrix(N, N)
    for i in range(N):
        for j in range(N):
            d = i - j
            mat[i, j] = (-1) ** (d % 2) * 2 * _g0_mp(2 * d - 1, L)
    return mp.log(mp.det(mat))


def _wick_det(x: int, L: int | None):
    """G(x) from the x-by-x Wick determinant, (-1)^x / 2 det[k(i-j-1)]."""
    mat = mp.matrix(x, x)
    for i in range(x):
        for j in range(x):
            d = i - j - 1
            mat[i, j] = 2 * _g0_mp(d, L) if d % 2 else 0
    return (-1) ** x * mp.det(mat) / 2


def _log_r_pair_longdouble(L: int, N: int) -> tuple[float, float]:
    """(log R_N, log R_{N+1}) on a ring of L sites, for N up to ~1e6.

    The per-k factors b_k = -log1p(-sin^2(pi/L) / sin^2(2 pi k/L)) are
    evaluated in numpy.longdouble; every weighted term is split into two
    doubles and summed with math.fsum, so the only rounding left is the
    longdouble evaluation of each factor.
    """
    k = np.arange(1, N + 1, dtype=np.longdouble)
    s1 = np.sin(_LD_PI / L)
    b = -np.log1p(-(s1 / np.sin(2 * _LD_PI * k / L)) ** 2)
    log_r1 = np.log(2 / (L * s1))

    def total(n: int) -> float:
        terms = np.append((n - k[: n - 1]) * b[: n - 1], n * log_r1)
        hi = terms.astype(np.float64)
        lo = (terms - hi).astype(np.float64)
        return math.fsum(np.concatenate([hi, lo]).tolist())

    return total(N), total(N + 1)


# ---------------------------------------------------------------- reference


class Reference:
    """Reference correlators and constants, built once per benchmark run."""

    def __init__(self):
        self._log_r: dict[int | None, list] = {}
        self._single: dict[tuple[int, int], object] = {}
        with mp.workdps(DPS + 10):
            glaisher = +mp.glaisher
            zeta_prime = mp.zeta(-1, derivative=1)
            ln_b = mp.log(2) / 12 + mp.mpf(1) / 4 - 3 * mp.log(glaisher)
            _require(abs(ln_b - (mp.log(2) / 12 + 3 * zeta_prime)) < mp.mpf(10) ** -DPS,
                     "ln B: Glaisher and zeta'(-1) forms disagree")
            integral = mp.quad(lambda t: (mp.exp(-4 * t) - mp.sech(t) ** 2) / t,
                               [0, 1, 10, mp.inf])
            _require(abs(integral - 4 * ln_b) < mp.mpf(10) ** -25,
                     "Lukyanov integral differs from 4 ln B")
            c0 = mp.sqrt(mp.pi) * mp.exp(2 * ln_b) / mp.sqrt(2)
            self.constants = {
                "ln_b": ln_b,
                "glaisher_a": glaisher,
                "zeta_prime_minus1": zeta_prime,
                "c0": c0,
                "amplitude_half": c0 / (2 * mp.sqrt(mp.pi)),
                "lukyanov_integral": integral,
                "sub_coeff": -c0 / (8 * mp.sqrt(mp.pi)),
            }

    def prepare_sweep(self, L: int | None, x_max: int) -> None:
        """Tabulate log R_N far enough for G(1..x_max), and spot-check the table."""
        n_max = x_max // 2 + 1
        if L is not None:
            n_max = min(n_max, (L - 1) // 2)
        if len(self._log_r.get(L, ())) > n_max:
            return
        table = _log_r_recurrence(L, n_max)
        with mp.workdps(DPS):
            for N in sorted({1, 2, 5, n_max // 2, n_max} & set(range(1, n_max + 1))):
                if L is None:
                    other = _log_r_barnes(N)
                elif N <= 12:
                    other = _log_r_det(N, L)
                else:
                    continue
                _require(abs(other - table[N]) < mp.mpf(10) ** -(DPS - 8),
                         f"log R_{N} (L={L}): recurrence and independent route disagree")
        self._log_r[L] = table
        xs = [x for x in (1, 2, 3, 6) if x <= x_max]
        if L is not None and L <= 30 and x_max == L - 1:
            xs.append(L - 1)
        with mp.workdps(DPS):
            for x in xs:
                _require(abs(_wick_det(x, L) / self.correlator(x, L) - 1) < mp.mpf(10) ** -20,
                         f"G({x}) (L={L}): sine product and Wick determinant disagree")

    def correlator(self, x: int, L: int | None):
        """G(x) as an mpf; call prepare_sweep or prepare_single first."""
        if L is not None and x == L - 1:
            # R_{L/2} is out of the sine product's reach; reflection G(L-x) = G(x)
            x = 1
        if (x, L) in self._single:
            return self._single[(x, L)]
        table = self._log_r[L]
        N = x // 2
        with mp.workdps(DPS):
            if x % 2 == 0:
                return mp.exp(2 * table[N]) / 2
            return -mp.exp(table[N] + table[N + 1]) / 2

    def prepare_single(self, x: int, L: int) -> None:
        """G(x) at one odd x on a large ring, through the longdouble sum."""
        if (x, L) in self._single:
            return
        if not self._single:
            self._spot_check_longdouble()
        N = (x - 1) // 2
        log_n, log_n1 = _log_r_pair_longdouble(L, N)
        with mp.workdps(DPS):
            self._single[(x, L)] = -mp.exp(mp.mpf(log_n) + mp.mpf(log_n1)) / 2

    @staticmethod
    def _spot_check_longdouble() -> None:
        L, N = 20002, 2000
        table = _log_r_recurrence(L, N + 1)
        got = _log_r_pair_longdouble(L, N)
        with mp.workdps(DPS):
            for value, exact in zip(got, table[N:N + 2]):
                err = float(abs(mp.mpf(value) - exact))
                _require(err < 1e-14, f"longdouble log R_{N} (L={L}) off by {err:.1e}")

    def asym(self, x: int, L: int | None):
        c0 = self.constants["c0"]
        sign = 1 if x % 2 == 0 else -1
        with mp.workdps(DPS):
            if L is None:
                return sign * c0 / mp.sqrt(mp.pi * x)
            return sign * c0 / mp.sqrt(L * mp.sin(mp.pi * x / L))


# ---------------------------------------------------------------- checks


def relerr(value: float, ref) -> float:
    with mp.workdps(DPS):
        return float(abs(mp.mpf(value) - ref) / abs(ref))


def _cell(text: str, where: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{where}: {text!r} is not a number") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: {text!r} is not finite")
    if format(value, ".17g") != text:
        raise CheckFailed(f"{where}: {text!r} is not written to 17 significant digits")
    return value


def _lines(text: str, header: list[str], where: str) -> list[list[str]]:
    if not text.endswith("\n") or "\r" in text:
        raise CheckFailed(f"{where}: output is not LF-terminated CSV")
    lines = text[:-1].split("\n")
    if lines[0].split(",") != header:
        raise CheckFailed(f"{where}: header {lines[0]!r}, expected {','.join(header)!r}")
    rows = [ln.split(",") for ln in lines[1:]]
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise CheckFailed(f"{where}: row {i + 1} has {len(row)} cells, expected {len(header)}")
    return rows


def _bounded(err: float, tol: float, where: str, exact: bool = True) -> float:
    if not err <= tol:
        raise CheckFailed(f"{where}: relative error {err:.3e} exceeds {tol:.0e}",
                          err if exact else None)
    return err


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def _consistent(printed: float, recomputed: float, where: str) -> None:
    if abs(printed - recomputed) > DERIVED_TOL * abs(recomputed) + 1e-300:
        raise CheckFailed(f"{where}: printed {printed!r}, the printed inputs give {recomputed!r}")


def check_correlator(text: str, ref: Reference, L: int | None, x_max: int,
                     routes: tuple[str, ...]) -> float:
    """Max relerr of the exact columns; raises CheckFailed on any defect."""
    pairs = [f"{a}-{b}" for i, a in enumerate(routes) for b in routes[i + 1:]]
    header = ["x"] + [f"route:{r}" for r in routes] + [f"relerr:{p}" for p in pairs]
    rows = _lines(text, header, "correlator")
    if [row[0] for row in rows] != [str(x) for x in range(1, x_max + 1)]:
        raise CheckFailed(f"correlator: x column is not 1..{x_max}")
    worst = 0.0
    for row in rows:
        x = int(row[0])
        values = {r: _cell(c, f"x={x} {r}") for r, c in zip(routes, row[1:])}
        for route, value in values.items():
            where = f"x={x} {route}"
            if route in EXACT_ROUTES:
                err = _bounded(relerr(value, ref.correlator(x, L)), EXACT_TOL, where)
                worst = max(worst, err)
            else:
                _bounded(relerr(value, ref.asym(x, L)), ASYM_TOL, where, exact=False)
        for pair, cell in zip(pairs, row[1 + len(routes):]):
            a, b = pair.split("-")
            _consistent(_cell(cell, f"x={x} {pair}"), _rel(values[a], values[b]), f"x={x} {pair}")
    return worst


def check_constants(text: str, ref: Reference) -> float:
    rows = _lines(text, ["name", "value"], "constants")
    if [row[0] for row in rows] != list(CONSTANT_NAMES):
        raise CheckFailed(f"constants: names {[row[0] for row in rows]}")
    values = {name: _cell(cell, name) for name, cell in rows}
    c = ref.constants
    worst = 0.0
    for name in CONSTANT_NAMES[:4]:
        worst = max(worst, _bounded(relerr(values[name], c["ln_b"]), LN_B_TOL, name))
    for name in CONSTANT_NAMES[4:9]:
        worst = max(worst, _bounded(relerr(values[name], c[name]), EXACT_TOL, name))
    _bounded(relerr(values["sub_coeff_fitted"], c["sub_coeff"]), SUB_COEFF_TOL, "sub_coeff_fitted",
             exact=False)
    ln_bs = [values[name] for name in CONSTANT_NAMES[:4]]
    spread = max(abs(a - b) for a in ln_bs for b in ln_bs)
    _consistent(values["pairwise_max_dev"], spread, "pairwise_max_dev")
    if not spread <= LN_B_TOL:
        raise CheckFailed(f"pairwise_max_dev {spread:.3e} exceeds {LN_B_TOL:.0e}")
    return worst


def finite_size_x(L: int, x_frac: float = 0.5) -> int:
    """The distance the finite-size command samples on a ring of L sites."""
    return min(max(int(round(x_frac * L)), 1), L - 1)


def check_finite_size(text: str, ref: Reference, lengths: list[int]) -> float:
    rows = _lines(text, ["L", "exact", "asym_finite", "deviation_times_L"], "finite-size")
    if [row[0] for row in rows] != [str(L) for L in lengths]:
        raise CheckFailed(f"finite-size: L column {[row[0] for row in rows]}, expected {lengths}")
    worst = 0.0
    for row in rows:
        L = int(row[0])
        x = finite_size_x(L)
        exact, asym, dev = (_cell(c, f"L={L} {n}") for c, n in
                            zip(row[1:], ("exact", "asym_finite", "deviation_times_L")))
        worst = max(worst, _bounded(relerr(exact, ref.correlator(x, L)), EXACT_TOL, f"L={L} exact"))
        _bounded(relerr(asym, ref.asym(x, L)), ASYM_TOL, f"L={L} asym_finite", exact=False)
        _consistent(dev, (exact / asym - 1.0) * L, f"L={L} deviation_times_L")
    return worst


def check_version(text: str) -> float:
    if not text.startswith("xxchain ") or not text.endswith("\n"):
        raise CheckFailed(f"--version printed {text!r}")
    return 0.0
