"""Accuracy, exact endpoint rows and CPU independence of the basis and Bernstein tables.

The subdivision pieces evaluated on their intervals are checked for CPU
independence as well.

The oracle evaluates ``b_i(u) = S_i * lam**(2n - i) * rho**i`` (see
:mod:`chbez.bbasis`) with mpmath at 50 digits, at the float parameters the
package sees.  Each table entry lies in [0, 1] and the powers come from at
most 2n multiplies, so an absolute error of ``2 (2n + 1)`` units of double
roundoff is a bound with room to spare for every space below.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import chbez
from chbez import BasisKind, BasisSpace, RangeError, basis_matrix
from chbez.bbasis import _bernstein_table

TRIG = BasisKind.TRIGONOMETRIC
HYP = BasisKind.HYPERBOLIC
EPS = np.finfo(float).eps
ORDERS = (8, 16, 32)
PARAMETERS = 41

# Trigonometric alpha up to pi - 1e-3; hyperbolic alpha up to 9, inside the
# guard n * alpha <= 300 at n = 32.
SPACES = [(TRIG, a) for a in (0.01, 1.5, 3.1, math.pi - 1e-3)] + [
    (HYP, a) for a in (0.01, 1.25, 1.5, 6.0, 9.0)
]


def oracle_basis(space: BasisSpace, us) -> np.ndarray:
    mp = pytest.importorskip("mpmath").mp
    n, d = space.n, space.degree
    with mp.workdps(50):
        s, c = (mp.sin, mp.cos) if space.kind is TRIG else (mp.sinh, mp.cosh)
        half = mp.mpf(space.alpha) / 2
        two_c = 2 * c(half)
        sums = [
            mp.fsum(
                math.comb(n, i - r) * math.comb(i - r, r) * two_c ** (i - 2 * r)
                for r in range(i // 2 + 1)
                if i - r <= n
            )
            for i in range(d + 1)
        ]
        rows = []
        for u in us:
            u = mp.mpf(float(u))
            lam = s((mp.mpf(space.alpha) - u) / 2) / s(half)
            rho = s(u / 2) / s(half)
            rows.append([float(sums[i] * lam ** (d - i) * rho**i) for i in range(d + 1)])
    return np.array(rows)


def oracle_bernstein(degree: int, vs) -> np.ndarray:
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        return np.array(
            [
                [float(math.comb(degree, i) * mp.mpf(v) ** i * (1 - mp.mpf(v)) ** (degree - i))
                 for i in range(degree + 1)]
                for v in vs
            ]
        )


@pytest.mark.parametrize("n", ORDERS)
@pytest.mark.parametrize("kind, alpha", SPACES, ids=[f"{k.value[:4]}-{a:g}" for k, a in SPACES])
def test_basis_table_against_mpmath(kind, alpha, n):
    space = BasisSpace(kind, n, alpha)
    us = np.linspace(0.0, alpha, PARAMETERS)
    error = np.max(np.abs(basis_matrix(space, us) - oracle_basis(space, us)))
    assert error <= 2 * (2 * n + 1) * EPS, error / EPS


@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_tiny_alpha_tables_without_normalizing_coefficients(kind):
    # At alpha 1e-5, order 32, the normalizing coefficients 1 / s(alpha/2)**64
    # overflow; the table divides only by s(alpha/2), a normal double down to
    # alpha 4.5e-308.  Below that the table is refused, as it would hold
    # all-zero rows (alpha 1e-323) or NaNs (alpha 5e-324).
    for alpha in (1e-5, 1e-307):
        space = BasisSpace(kind, 32, alpha)
        us = np.linspace(0.0, alpha, PARAMETERS)
        table = basis_matrix(space, us)
        assert np.max(np.abs(table - oracle_basis(space, us))) <= 2 * 65 * EPS
        assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 65 * EPS
    name = "sin" if kind is TRIG else "sinh"
    for alpha in (4e-308, 1e-320, 5e-324):
        with pytest.raises(RangeError) as err:
            basis_matrix(BasisSpace(kind, 32, alpha), [0.0])
        message = f"alpha = {alpha!r} too small: {name}(alpha/2) is not a normal double"
        assert str(err.value) == message


@pytest.mark.parametrize("n", ORDERS)
def test_bernstein_table_against_mpmath(n):
    vs = np.linspace(0.0, 1.0, PARAMETERS)
    error = np.max(np.abs(_bernstein_table(2 * n, vs) - oracle_bernstein(2 * n, vs)))
    assert error <= 2 * (2 * n + 1) * EPS, error / EPS


@pytest.mark.parametrize("kind", [TRIG, HYP], ids=lambda k: k.value)
def test_endpoint_rows_are_exact(kind):
    for n in range(1, 33):
        top = math.pi - 1e-3 if kind is TRIG else 299.0 / n
        for alpha in (1e-3, 0.3, 1.0, 2.0, 2.9, top):
            if kind is TRIG and alpha >= math.pi or n * alpha > 300.0:
                continue
            space = BasisSpace(kind, n, alpha)
            first, last = basis_matrix(space, [0.0, 0.37 * alpha, alpha])[[0, 2]]
            unit = np.zeros(space.dimension)
            unit[0] = 1.0
            assert first.tobytes() == unit.tobytes(), (n, alpha)
            assert last.tobytes() == unit[::-1].tobytes(), (n, alpha)


# The tables hashed in-process and in a child process that runs with numpy's
# AVX512 loops switched off.  Hyperbolic tables are left out: np.sinh itself
# rounds differently under that dispatch, before any table is built.
_TABLES = """
import hashlib
import numpy as np
from chbez import BasisKind, BasisSpace, basis_matrix
from chbez.bbasis import _bernstein_table

digest = hashlib.sha256()
rng = np.random.default_rng(20141)
for _ in range(60):
    space = BasisSpace(BasisKind.TRIGONOMETRIC, int(rng.integers(1, 33)), rng.uniform(0.05, 3.1))
    digest.update(basis_matrix(space, rng.uniform(0.0, space.alpha, 700)).tobytes())
vs = rng.uniform(0.0, 1.0, 700)
for degree in range(65):
    digest.update(_bernstein_table(degree, vs).tobytes())
DIGEST = digest.hexdigest()
"""

# Subdivision pieces of trigonometric curves, plain and rational, evaluated
# on their intervals: the piece's weights over its sub-interval's basis, that
# basis's table and the BLAS contraction of the rational combination.
_PIECES = """
import hashlib
import numpy as np
from chbez import BasisKind, BasisSpace, ControlCurve, subdivide

digest = hashlib.sha256()
rng = np.random.default_rng(1998)
for _ in range(40):
    space = BasisSpace(BasisKind.TRIGONOMETRIC, int(rng.integers(1, 33)), rng.uniform(0.05, 3.1))
    weights = 0.5 + rng.random(space.dimension) if rng.random() < 0.5 else None
    curve = ControlCurve(space, rng.standard_normal((space.dimension, 3)), weights)
    split = subdivide(curve, rng.uniform(0.1, 0.9) * space.alpha)
    for piece in (split.left, split.right):
        digest.update(piece.evaluate(rng.uniform(*piece.u_interval, 300)).tobytes())
DIGEST = digest.hexdigest()
"""

_NO_AVX512 = {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}


def _digests(script: str, env: dict) -> tuple[str, str]:
    """``DIGEST`` of ``script`` in process and in a child process run with ``env`` added.

    Skips, naming the reason, when the host has no AVX512 loops to switch
    off, when numpy refuses the variable or when it keeps its AVX512 loops.
    """
    from numpy._core._multiarray_umath import __cpu_features__

    if not __cpu_features__.get("AVX512F"):
        pytest.skip("the host has no AVX512 loops to switch off")
    scope = {}
    exec(script, scope)
    child = script + (
        "import json\n"
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        "print(json.dumps([DIGEST, f.get('X86_V4', False), f.get('AVX512_SKX', False)]))\n"
    )
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(chbez.__file__).parents[1]), *sys.path])
    run = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    if run.returncode != 0:
        reason = (run.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy refused NPY_DISABLE_CPU_FEATURES: {reason}")
    digest, *avx512 = json.loads(run.stdout)
    if any(avx512):
        pytest.skip("numpy kept its AVX512 loops under NPY_DISABLE_CPU_FEATURES")
    return scope["DIGEST"], digest


def test_tables_do_not_depend_on_the_simd_dispatch():
    in_process, child = _digests(_TABLES, {**_NO_AVX512, "OPENBLAS_CORETYPE": "Haswell"})
    assert child == in_process


def test_piece_values_do_not_depend_on_the_simd_dispatch():
    # OpenBLAS's core type still changes the bits of the piece product, so
    # only numpy's own dispatch is switched.
    in_process, child = _digests(_PIECES, _NO_AVX512)
    assert child == in_process
