import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import pytest

from schubert_kit import cli
from schubert_kit.gcm import derived_realization, rank_two, standard_realization, validate_gcm
from schubert_kit.schubert import peterson_coproduct

AFFINE_A2 = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
B2_INSIDE_RANK3 = [[2, -2, 0], [-1, 2, -1], [0, -1, 2]]
HYPERBOLIC_RANK3 = [[2, -2, -2], [-2, 2, -2], [-2, -2, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]
REALIZATIONS = {"standard": standard_realization, "derived": derived_realization}
SEED = 20260808
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture
def gcm_a11():
    return rank_two(1, 1)


@pytest.fixture
def gcm_a22():
    return rank_two(2, 2)


@pytest.fixture
def gcm_a23():
    return rank_two(2, 3)


@pytest.fixture
def gcm_affine_a2():
    return validate_gcm(AFFINE_A2)


def run_main(argv, capsys):
    """``cli.main(argv)`` as ``(exit code, stdout, stderr)``; the exit code of
    an argparse rejection is read from its SystemExit."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_python(*args, timeout=60, cwd=None):
    """``python *args`` in a new interpreter with ``src`` as PYTHONPATH; the
    finished process, with its output captured as text."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=timeout, cwd=cwd, env=env)


def loaded_modules(snippet):
    """The ``schubert_kit`` modules, and which of ``csv`` and ``json``, that
    ``snippet`` has loaded when it ends, run by ``python -S``."""
    probe = (f"{snippet}\nimport sys\nprint('loaded:', *sorted(m for m in sys.modules\n"
             "    if m.partition('.')[0] == 'schubert_kit' or m in ('csv', 'json')))\n")
    done = run_python("-S", "-c", probe)
    assert done.returncode == 0, done.stderr
    return set(done.stdout.rpartition("loaded:")[2].split())


def random_cartan_rows(rng, n, depth):
    """The rows of a random Cartan matrix of rank ``n``: each off-diagonal
    pair is linked with probability 0.6 and its two entries are drawn
    independently from -depth..-1, so most are not symmetrizable."""
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                rows[i][j], rows[j][i] = -rng.randint(1, depth), -rng.randint(1, depth)
    return rows


def coassociator(cop, side):
    """(Delta (x) 1) Delta w for side 0 and (1 (x) Delta) Delta w for side 1,
    from the coproduct ``cop`` of w, as a dict on triples."""
    out = {}
    for (u, v), c in cop.coeffs.items():
        for (x, y), e in peterson_coproduct((u, v)[side]).coeffs.items():
            key = (x, y, v) if side == 0 else (u, x, y)
            out[key] = out.get(key, 0) + c * e
    return out


def leibniz_det(m):
    """Determinant by expansion over permutations; shares no code with intmat."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += term
    return total


def stack_depth():
    """Frames on the current call stack, for tests that lower the recursion limit."""
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def oracle_rref(matrix, ncols, p):
    """Pivot columns and reduced rows over Q (p = 0) or F_p."""
    if p:
        rows = [[x % p for x in row] for row in matrix]

        def div(a, b):
            return a * pow(b, -1, p) % p

        def sub(a, b):
            return (a - b) % p
    else:
        rows = [[Fraction(x) for x in row] for row in matrix]

        def div(a, b):
            return a / b

        def sub(a, b):
            return a - b
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        lead = rows[r][c]
        rows[r] = [div(x, lead) for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [sub(x, f * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots, rows
