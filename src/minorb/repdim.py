"""Irreducible module dimensions and highest-weight duality.

Weights live in the fundamental-weight basis as integer coordinate
tuples.  Dimensions come from the Weyl product over positive roots,
evaluated entirely in integer arithmetic: both inner products with a
root beta = sum c_j alpha_j reduce to sums of c_j * d_j terms, where d
is the symmetrizer, so the quotient is a ratio of two exact integer
products.

The pairing with lambda + rho is additive, with value (w_i + 1) * d_i on
alpha_i, and rootsys counts its values over the positive roots.  On A-D
each root is a difference of two suffix sums of the simple roots, or the
sum of two less a third, so the count of each pairing is a coefficient of
a product of polynomials in x, sum x**suf[i] over the suffix sums of those
values: with every power packed as a fixed-width digit of one int, each
product is one integer multiplication, and no root is built or listed.
That holds up to a cutoff, the simple values summing to at most rank**2,
which keeps the ints within O(rank**2) digits; past it, and on E, F and G
(rank at most 8), the pairings are listed and counted.  One cached count
of the rho pairings (the denominator, independent of the weight, packed on
A-D) is subtracted on both routes.  Below the cutoff the product is one
power per prime power, with no division; past it the final division is
checked to be exact.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterable
from functools import lru_cache
from itertools import compress
from math import isqrt, prod

from .rootsys import SimpleType, _packed_counts, _value_counts, checked_weight, symmetrizers

Weight = tuple[int, ...]


def dim_irrep(typ: SimpleType, weight: Iterable[int]) -> int:
    """Dimension of the irreducible module with the given highest weight.

    On A-D below rootsys's cutoff, net[v - 1] counts v among the a =
    (lambda + rho, beta), beta > 0, less among the b = (rho, beta).  As
    nu_p(v) = #{k >= 1 : p**k | v}, prod v**net[v - 1] is prod p**S(q) over
    the prime powers q = p**k, S(q) = sum(net[q - 1 :: q]).  S(m) >= 0 for
    m >= 2: by Weyl's denominator identity prod [a]_t / [b]_t is the
    character of V(lambda) at e**mu -> t**(mu, rho), a Laurent polynomial,
    so prod (t**a - 1) / prod (t**b - 1) is a polynomial, in which Phi_m (a
    factor of t**a - 1 iff m | a) occurs S(m) times.  S < 0 raises, a check
    stronger than an exact division.  Elsewhere the division is checked.
    """
    w = checked_weight(typ, weight)
    simple = [(c + 1) * dj for c, dj in zip(w, symmetrizers(typ))]
    net = _packed_counts(typ, simple)
    if net is not None:  # the list reaches the weight's largest pairing, so rho's
        for v, e in _rho_counts(typ).items():
            net[v - 1] -= e
        qs, ps = _prime_powers(1 << len(net).bit_length())
        sums = [sum(net[q - 1 :: q]) for q in qs[: bisect_right(qs, len(net))]]
        if not sums or min(sums) >= 0:
            return prod(map(pow, ps, sums))
    else:
        powers = _value_counts(typ, simple)
        for v, e in _rho_counts(typ).items():
            powers[v] = powers.get(v, 0) - e
        num = prod(v**e for v, e in powers.items() if e > 0)
        q, r = divmod(num, prod(v**-e for v, e in powers.items() if e < 0))
        if not r:
            return q
    raise RuntimeError(f"Weyl product for {typ} {w} is not an integer")


@lru_cache(maxsize=None)
def _rho_counts(typ: SimpleType) -> dict[int, int]:
    """How often each value of (rho, beta) occurs among the positive roots:
    packed on A-D, whose simple values d_i sum to at most 2n - 1 <= n**2."""
    return _value_counts(typ, symmetrizers(typ))


@lru_cache(maxsize=None)
def _prime_powers(limit: int) -> tuple[list[int], list[int]]:
    """The prime powers q <= limit, ascending, and the prime of each."""
    sieve = bytearray(2) + bytearray([1]) * (limit - 1)  # 1 at the primes
    pairs = []
    for p in range(2, isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
            pairs += ((p**k, p) for k in range(2, limit.bit_length()) if p**k <= limit)
    pairs = sorted(pairs + [(p, p) for p in compress(range(limit + 1), sieve)])
    return [q for q, _ in pairs], [p for _, p in pairs]


def dim_irrep_product(parts: Iterable[tuple[SimpleType, Iterable[int]]]) -> int:
    """Dimension of an outer tensor product, one highest weight per factor.

    Torus factors are omitted: a character contributes a factor of one.
    """
    return prod(dim_irrep(typ, weight) for typ, weight in parts)


def dual_weight(typ: SimpleType, weight: Iterable[int]) -> Weight:
    """Highest weight of the dual module.

    The dual of the irreducible with highest weight w has highest weight
    -w0(w), which permutes fundamental-weight coordinates by the
    nontrivial diagram involution where one exists (A_n reversal, the
    spin swap of D_n for odd n, the flip of E6) and fixes them otherwise.
    """
    w = checked_weight(typ, weight)
    n = typ.rank
    if typ.family == "A":
        return w[::-1]
    if typ.family == "D" and n % 2 == 1:
        return w[: n - 2] + (w[n - 1], w[n - 2])
    if typ.family == "E" and n == 6:
        return (w[5], w[1], w[4], w[3], w[2], w[0])
    return w
