import random
from fractions import Fraction

import pytest

from nilcohom.catalog import Catalog
from nilcohom.liealg import StructureConstants
from nilcohom.scalars import QI


@pytest.fixture(scope="session")
def catalog():
    return Catalog()


def dense_rref(rows):
    """Naive dense Gauss-Jordan elimination over Q or Q(i); the independent
    oracle.  Returns the nonzero rows of the reduced row echelon form: monic,
    sorted by lead, each lead column zero in every other row."""
    m = [[x if isinstance(x, QI) else Fraction(x) for x in row] for row in rows]
    if not m:
        return []
    ncols = len(m[0])
    row = 0
    for col in range(ncols):
        piv = None
        for r in range(row, len(m)):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        m[row] = [x / inv for x in m[row]]
        for r in range(len(m)):
            if r != row and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[row])]
        row += 1
    return m[:row]


def dense_rank(rows):
    """Rank by the dense oracle."""
    return len(dense_rref(rows))


def random_structure(n, rng=None, density=0.5, lo=-3, hi=3):
    rng = rng or random.Random(0)
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            row = {}
            for k in range(n):
                if rng.random() < density:
                    v = rng.randint(lo, hi)
                    if v:
                        row[k] = Fraction(v)
            if row:
                brackets[(i, j)] = row
    return StructureConstants(n, brackets)
