"""Named hard inputs: the pairs that stress recognition, flags and the
eigendecomposition hardest, each built in one place for CI and the tests.

K(d) below is the Krawtchouk pair at p = 1/3.  ``HARD_INPUTS`` maps each
name to its builder, which returns the matrices (A, A*) unverified, so
that an input the library cannot yet recognize in bounded time can
still be written.  To write one as the JSON pair the commands read, run

    PYTHONPATH=src python tests/hard_inputs.py NAME PATH

The tests also take ``invertible`` and ``conjugated`` from here, so that
every random integer conjugation is drawn and applied one way.
"""

import random
import sys
from fractions import Fraction
from functools import partial

from leonard_kit import jsonio
from leonard_kit.leonard import verify_leonard
from leonard_kit.linalg import ExactMatrix, conjugate_all
from leonard_kit.sl2 import _krawtchouk_matrices

# the scale of the wide-denominator image: a 32-bit numerator over 2^31
SCALE = Fraction(2**31 + 12345, 2**31)


def invertible(rng, n):
    """The first n x n matrix of rows of ``rng.randint(-3, 3)`` that is
    invertible; singular draws are discarded."""
    while True:
        t = ExactMatrix([[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)])
        if t.det() != 0:
            return t


def conjugated(pair, t):
    """The verified pair (T A T^-1, T A* T^-1)."""
    return verify_leonard(*conjugate_all((pair.a, pair.a_star), t))


def krawtchouk(d):
    """The matrices (A, A*) of K(d)."""
    return _krawtchouk_matrices(d, Fraction(1, 3))


def random_t(d):
    """The (d + 1) x (d + 1) T of ``dense_random(d)``: the first invertible
    draw of ``random.Random(d)``."""
    return invertible(random.Random(d), d + 1)


def dense_easy():
    """K(24) conjugated by T_ij = (i + 2j) mod 5 - 2 + 3[i = j]."""
    t = ExactMatrix([[(i + 2 * j) % 5 - 2 + 3 * (i == j) for j in range(25)] for i in range(25)])
    return conjugate_all(krawtchouk(24), t)


def dense_random(d):
    """K(d) conjugated by ``random_t(d)``."""
    return conjugate_all(krawtchouk(d), random_t(d))


def wide_diagonal(n, repeat=False):
    """A = diag(10^20 + 7i + r_i), r_i in [1, 10^19] from ``random.Random(5)``, with
    the 0/1 path as A*.  ``repeat`` sets entry 5 equal to entry 7 after
    drawing, so the spectrum is not simple."""
    rng = random.Random(5)
    values = [10**20 + 7 * i + rng.randint(1, 10**19) for i in range(n)]
    if repeat:
        values[5] = values[7]
    path = ExactMatrix([[int(abs(i - j) == 1) for j in range(n)] for i in range(n)])
    return ExactMatrix.diagonal(values), path


def wide_scale(bits):
    """c = u / v, u and v draws of ``bits`` bits from ``random.Random(7)``
    with the top bit set."""
    rng = random.Random(7)
    top = 1 << bits - 1
    return Fraction(rng.getrandbits(bits) | top, rng.getrandbits(bits) | top)


def affine_image(d, c):
    """c A + c I and c A* + c I of K(d)."""
    eye = ExactMatrix.identity(d + 1)
    return tuple(c * m + c * eye for m in krawtchouk(d))


HARD_INPUTS = {
    "dense_easy24": dense_easy,
    **{f"dense_random{d}": partial(dense_random, d) for d in (24, 32, 48, 63)},
    "diag64": partial(wide_diagonal, 64),
    "diag64_repeat": partial(wide_diagonal, 64, repeat=True),
    "scaled63": partial(affine_image, 63, SCALE),
    "affine2000_63": lambda: affine_image(63, wide_scale(2000)),
    "affine500_8": lambda: affine_image(8, wide_scale(500)),
}


def main(argv):
    if len(argv) != 2 or argv[0] not in HARD_INPUTS:
        print(
            "usage: python tests/hard_inputs.py NAME PATH, NAME one of: " + ", ".join(HARD_INPUTS),
            file=sys.stderr,
        )
        return 2
    name, path = argv
    with open(path, "w") as out:
        out.write(jsonio.dumps(jsonio.pair_to_obj(*HARD_INPUTS[name]())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
