"""Exact Laurent polynomial arithmetic in t with half-integer exponents.

A polynomial is stored as a mapping from *doubled* exponents to integer
coefficients: the key ``d`` stands for the monomial ``t^(d/2)``.  Doubling
keeps every exponent an ``int``, so arithmetic stays exact and terms are
totally ordered without ever touching floats.  The constructor is the one
place that sums equal exponents and drops zero totals, so the zero
polynomial is the empty mapping and no zero coefficient is stored.

The canonical text form sorts terms by strictly decreasing exponent,
prints integer powers as ``t^3``/``t^-1`` (``t`` for exponent 1, bare
coefficient for exponent 0) and half-integer powers in braces, e.g.
``t^{1/2}`` and ``t^{-3/2}``.  A coefficient of magnitude 1 is dropped in
front of a power.

Every local weight of a Kauffman state is a monomial or a quantum
integer ``[w]``, so a state weight needs no general product:
``quantum_coefficients`` multiplies quantum integers on a dense
coefficient list, where ``[w]`` is a window of ``w`` ones and multiplying
by it is one prefix-sum pass, linear in the span.  It returns the lowest
doubled exponent and the list, so a caller summing many such products
(``kauffman.state_sum``) adds lists into one table and builds a single
polynomial; ``quantum_product`` wraps one list as a ``HalfLaurent``.
``HalfLaurent.__mul__`` stays the general O(|p|·|q|) product.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import Iterable, Mapping, Sequence, Union

TermSource = Union[Mapping[int, int], Iterable[tuple[int, int]], None]


class HalfLaurent:
    """An immutable Laurent polynomial in t^(1/2) with int coefficients;
    only the constructor sums equal exponents and drops zeros."""

    __slots__ = ("_terms",)

    def __init__(self, terms: TermSource = None):
        data: dict[int, int] = {}
        if terms is not None:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for d, c in items:
                if not isinstance(d, int) or isinstance(d, bool):
                    raise TypeError(f"doubled exponent must be int, got {d!r}")
                if not isinstance(c, int) or isinstance(c, bool):
                    raise TypeError(f"coefficient must be int, got {c!r}")
                total = data.get(d, 0) + c
                if total == 0:
                    data.pop(d, None)
                else:
                    data[d] = total
        self._terms = data

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def to_pairs(self) -> tuple[tuple[int, int], ...]:
        """Machine form: (doubled_exp, coeff) pairs, ascending exponent."""
        return tuple(sorted(self._terms.items()))

    def min_doubled_exp(self) -> int | None:
        return min(self._terms) if self._terms else None

    def eval_one(self) -> int:
        """Value at t = 1, i.e. the coefficient sum.  Exact."""
        return sum(self._terms.values())

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other: "HalfLaurent") -> "HalfLaurent":
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return HalfLaurent(chain(self._terms.items(), other._terms.items()))

    def __neg__(self) -> "HalfLaurent":
        return HalfLaurent({d: -c for d, c in self._terms.items()})

    def __mul__(self, other: "HalfLaurent") -> "HalfLaurent":
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return HalfLaurent(
            (d1 + d2, c1 * c2)
            for d1, c1 in self._terms.items()
            for d2, c2 in other._terms.items()
        )

    def shifted(self, doubled_shift: int) -> "HalfLaurent":
        """Multiply by t^(doubled_shift / 2)."""
        if not isinstance(doubled_shift, int) or isinstance(doubled_shift, bool):
            raise TypeError("shift must be an integer (doubled exponent)")
        return HalfLaurent({d + doubled_shift: c for d, c in self._terms.items()})

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalfLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- rendering -------------------------------------------------------

    @staticmethod
    def _power(d: int) -> str:
        if d == 2:
            return "t"
        if d % 2 == 0:
            return f"t^{d // 2}"
        return f"t^{{{d}/2}}"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for d in sorted(self._terms, reverse=True):
            c = self._terms[d]
            mag = abs(c)
            if d == 0:
                body = str(mag)
            elif mag == 1:
                body = self._power(d)
            else:
                body = f"{mag}*{self._power(d)}"
            if not parts:
                parts.append(body if c > 0 else "-" + body)
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"HalfLaurent({dict(sorted(self._terms.items()))!r})"


ZERO = HalfLaurent()
ONE = HalfLaurent({0: 1})


def monomial(coeff: int, doubled_exp: int) -> HalfLaurent:
    """coeff * t^(doubled_exp / 2)."""
    return HalfLaurent({doubled_exp: coeff})


def quantum_integer(i: int) -> HalfLaurent:
    """[i] = t^((i-1)/2) + t^((i-3)/2) + ... + t^((1-i)/2), for i >= 1.

    [i] has i terms, is palindromic, and evaluates to i at t = 1.
    """
    _check_quantum_index(i)
    return HalfLaurent({d: 1 for d in range(1 - i, i, 2)})


def _check_quantum_index(i: object) -> None:
    if not isinstance(i, int) or isinstance(i, bool) or i < 1:
        raise ValueError(f"quantum integer defined for integers i >= 1, got {i!r}")


def quantum_coefficients(
    weights: Iterable[int], doubled_shift: int = 0, start: Sequence[int] = (1,)
) -> tuple[int, list[int]]:
    """t^(doubled_shift / 2) * p * [w_1] * ... * [w_k], exactly, where
    p = start[0] + start[1] t + start[2] t^2 + ... (1 by default), as
    (lowest doubled exponent, coefficients): the list's k-th entry is the
    coefficient of doubled exponent low + 2k.

    Every factor has terms two doubled exponents apart, so the product
    lives on one grid of step 2 and is kept as a dense list of
    coefficients from its lowest exponent up, starting with ``start``.
    With x = t, one step of the grid, [w] is
    t^((1 - w) / 2) * (1 + x + ... + x^(w-1)), so after multiplying by
    it each coefficient is the sum of a window of w old ones: with
    prefix sums P of the n old coefficients,

        new[k] = P[min(k + 1, n)] - P[max(k - w + 1, 0)],

    one pass of O(n + w) steps instead of the O(n * w) of a general
    product.  Raises ValueError on a weight that is not an int >= 1.
    """
    coeffs = list(start)
    low = doubled_shift
    for w in weights:
        _check_quantum_index(w)
        if w == 1:  # [1] = 1; skipping it keeps unit-weight states cheap
            continue
        prefix = list(accumulate(coeffs, initial=0))
        pad = w - 1
        # P[min(k + 1, n)] and P[max(k - w + 1, 0)] for k = 0 .. n + w - 2
        upper = prefix[1:] + [prefix[-1]] * pad
        lower = [0] * pad + prefix[:-1]
        coeffs = [a - b for a, b in zip(upper, lower)]
        low -= pad
    return low, coeffs


def quantum_product(
    weights: Iterable[int], doubled_shift: int = 0, start: Sequence[int] = (1,)
) -> HalfLaurent:
    """``quantum_coefficients`` as a polynomial.  No weights and no start
    give the monomial t^(doubled_shift / 2)."""
    low, coeffs = quantum_coefficients(weights, doubled_shift, start)
    return HalfLaurent(zip(range(low, low + 2 * len(coeffs), 2), coeffs))


def equal_up_to_shift(p: HalfLaurent, q: HalfLaurent) -> bool:
    """True when q = p * t^(d/2) for some integer d.

    This is equality up to a half-integer power of t; it is stricter than
    equality up to an integer power, and both readings coincide whenever
    the exponent supports of p and q have the same parity.  Two zero
    polynomials compare equal; zero never matches a nonzero polynomial.
    """
    if not p or not q:
        return not p and not q
    d = q.min_doubled_exp() - p.min_doubled_exp()
    return q == p.shifted(d)


def is_symmetric(p: HalfLaurent) -> bool:
    """True when p(1/t) = ±t^(d/2)·p(t) for some integer d: the
    exponents sit symmetrically about their centre and the coefficients
    read the same from both ends, up to one global sign."""
    mirror = HalfLaurent({-d: c for d, c in p._terms.items()})
    return equal_up_to_shift(p, mirror) or equal_up_to_shift(-p, mirror)
