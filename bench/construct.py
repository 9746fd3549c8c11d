"""Closed-form Leonard pair constructions, written independently of the
library: Krawtchouk pairs, the sl2 lifts alpha*H + beta*E + gamma*F of
the README's E, F and H, and integer conjugations."""

from __future__ import annotations

from fractions import Fraction

from fmat import ZERO, add, diagonal, from_columns, identity, inverse, mul, scale


def krawtchouk(d, p):
    """A = diag(d, d-2, ..., -d); A* has diagonal (1-2p)(d-2i),
    superdiagonal 2p(d-i) and subdiagonal 2(1-p)i."""
    n = d + 1
    a_star = [[ZERO] * n for _ in range(n)]
    for i in range(n):
        a_star[i][i] = (1 - 2 * p) * (d - 2 * i)
        if i < d:
            a_star[i][i + 1] = 2 * p * (d - i)
        if i > 0:
            a_star[i][i - 1] = 2 * (1 - p) * i
    return diagonal([d - 2 * i for i in range(n)]), a_star


def generators(d):
    """E with superdiagonal d, ..., 1; F with subdiagonal 1, ..., d;
    H = diag(d, d-2, ..., -d)."""
    n = d + 1
    e = [[ZERO] * n for _ in range(n)]
    f = [[ZERO] * n for _ in range(n)]
    for i in range(d):
        e[i][i + 1] = Fraction(d - i)
        f[i + 1][i] = Fraction(i + 1)
    return e, f, diagonal([d - 2 * i for i in range(n)])


def plane_op(u_plus, u_minus):
    """The plane operator fixing u_plus and negating u_minus."""
    s = from_columns([u_plus, u_minus])
    return mul(mul(s, diagonal([1, -1])), inverse(s))


def lift(m, v0, v1, d):
    """Lift the traceless plane operator m to dimension d + 1.

    In the basis (v0, v1) the Chevalley basis e: v1 -> v0, f: v0 -> v1,
    h = diag(1, -1) becomes the standard one, so the coefficients of
    m = alpha*h + beta*e + gamma*f are read off [[alpha, beta],
    [gamma, -alpha]] = B^-1 m B.
    """
    b = from_columns([v0, v1])
    local = mul(mul(inverse(b), m), b)
    alpha, beta, gamma = local[0][0], local[0][1], local[1][0]
    e, f, h = generators(d)
    return add(add(scale(alpha, h), scale(beta, e)), scale(gamma, f))


def triple(d, v0, v1, w0, w1):
    """The three mutually adjacent pairs (a, a*), (b, b*), (c, c*) from
    four pairwise independent plane vectors."""
    v0, v1, w0, w1 = ([Fraction(x) for x in v] for v in (v0, v1, w0, w1))
    pattern = ((v0, v1), (w0, w1), (v0, w0), (w1, v1), (v0, w1), (w0, v1))
    ops = [lift(plane_op(u, w), v0, v1, d) for u, w in pattern]
    return [(ops[0], ops[1]), (ops[2], ops[3]), (ops[4], ops[5])]


def p_witnesses(p):
    """The witness vectors that `triple --p` and `companions` use."""
    return ((1, 0), (0, 1), (1, 1), (p, p - 1))


def random_invertible(rng, n, r):
    """A random n x n integer matrix with entries in [-r, r], and its inverse."""
    while True:
        t = [[Fraction(rng.randint(-r, r)) for _ in range(n)] for _ in range(n)]
        try:
            return t, inverse(t)
        except ZeroDivisionError:
            continue


def affine(m, alpha, beta):
    return add(scale(alpha, m), scale(beta, identity(len(m))))
