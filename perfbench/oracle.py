"""The benchmark's own cohomology, regularity and bundle model.

Used only by the correctness checks, outside every timed section.  None of it
calls the program's closed forms: line cohomology is the binomial count,
cotangent powers go through the program's Euler-sequence chase
(``oracle_euler_sequence``, which uses nothing but line cohomology), and a box
summand is the Kunneth convolution of its factors.

A bundle here is a tuple of summands, a summand a tuple of atoms, one per
factor, and an atom is ``("O", a)`` for O(a) or ``("W", p, t)`` for the p-th
cotangent power twisted by t, with 1 <= p <= n - 1.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache
from math import comb


def line_h(n: int, a: int, i: int) -> int:
    """dim H^i(P^n, O(a)): sections for a >= 0, top cohomology by Serre duality."""
    if i == 0 and a >= 0:
        return comb(a + n, n)
    if i == n and a <= -n - 1:
        return comb(-a - 1, n)
    return 0


@lru_cache(maxsize=None)
def atom_vector(n: int, atom: tuple) -> tuple[int, ...]:
    if atom[0] == "O":
        return tuple(line_h(n, atom[1], i) for i in range(n + 1))
    from mpreg import oracle_euler_sequence

    _, p, t = atom
    return tuple(oracle_euler_sequence(n, p, t, i) for i in range(n + 1))


def shift(atom: tuple, t: int) -> tuple:
    return ("O", atom[1] + t) if atom[0] == "O" else ("W", atom[1], atom[2] + t)


def summand_vector(dims, summand, tvec) -> list[int]:
    """(h^0, ..., h^d) of one summand twisted by tvec, by Kunneth."""
    vec = [1]
    for n, atom, t in zip(dims, summand, tvec):
        fac = atom_vector(n, shift(atom, t))
        out = [0] * (len(vec) + n)
        for i, x in enumerate(vec):
            if x:
                for j, y in enumerate(fac):
                    if y:
                        out[i + j] += x * y
        vec = out
    return vec


def h(dims, bundle, tvec, i: int) -> int:
    if i < 0 or i > sum(dims):
        return 0
    return sum(summand_vector(dims, s, tvec)[i] for s in bundle)


def rank(dims, bundle) -> int:
    total = 0
    for s in bundle:
        r = 1
        for n, atom in zip(dims, s):
            if atom[0] == "W":
                r *= comb(n, atom[1])
        total += r
    return total


def twist(bundle, t: int):
    return tuple(tuple(shift(a, t) for a in s) for s in bundle)


def magnitude(bundle) -> int:
    return max(abs(a[-1]) for s in bundle for a in s)


# ---------------------------------------------------------------------------
# regularity, written from the two definitions


def paper_offsets(dims, i: int):
    for k in itertools.product(*[range(-n, 1) for n in dims]):
        if sum(k) == -i:
            yield k


def hw_offsets(dims, i: int):
    for j in range(-i, 0):
        yield (j, -i - 1 - j)


def regular_at(dims, bundle, p: int, definition: str = "paper") -> bool:
    offsets = paper_offsets if definition == "paper" else hw_offsets
    for i in range(1, sum(dims) + 1):
        for k in offsets(dims, i):
            if h(dims, bundle, tuple(p + kj for kj in k), i):
                return False
    return True


def scan_reg(dims, bundle, definition: str = "paper") -> int:
    """Least p from which the bundle is regular at every balanced twist,
    found by scanning a window wide enough to contain every nonvanishing.
    Meant for small degrees only: it costs one test per twist in the window."""
    reach = magnitude(bundle) + 2 * sum(dims) + 4
    lo, hi = -reach, reach
    if not regular_at(dims, bundle, hi, definition):
        raise ValueError("scan window too narrow at the top")
    p = hi
    while p > lo and regular_at(dims, bundle, p - 1, definition):
        p -= 1
    if p == lo:
        raise ValueError("scan window too narrow at the bottom")
    return p


def reg_answer_holds(dims, bundle, r: int, definition: str) -> bool:
    """The defining property of Reg = r: regular at r and r + 1, not at r - 1."""
    return (
        regular_at(dims, bundle, r, definition)
        and regular_at(dims, bundle, r + 1, definition)
        and not regular_at(dims, bundle, r - 1, definition)
    )


# ---------------------------------------------------------------------------
# text form, as the program reads and prints it


def fmt_summand(summand) -> str:
    if len(summand) > 1 and all(a[0] == "O" for a in summand):
        return "O(" + ",".join(str(a[1]) for a in summand) + ")"
    return "*".join(f"O({a[1]})" if a[0] == "O" else f"W{a[1]}({a[2]})" for a in summand)


def fmt_bundle(bundle) -> str:
    return " + ".join(fmt_summand(s) for s in bundle)


def fmt_space(dims) -> str:
    return "x".join(f"P{n}" for n in dims)


_ATOM = re.compile(r"^(?:O\((-?\d+(?:,-?\d+)*)\)|W(\d+)\((-?\d+)\))$")


def parse_bundle(dims, text: str):
    """Read back a bundle as the program formats it (canonical atoms only)."""
    out = []
    for part in text.split(" + "):
        atoms = []
        for tok in part.split("*"):
            m = _ATOM.match(tok.strip())
            if m is None:
                raise ValueError(f"unreadable atom {tok!r}")
            if m.group(1) is not None:
                atoms.extend(("O", int(v)) for v in m.group(1).split(","))
            else:
                atoms.append(("W", int(m.group(2)), int(m.group(3))))
        if len(atoms) != len(dims):
            raise ValueError(f"summand {part!r} does not fit {fmt_space(dims)}")
        out.append(tuple(atoms))
    return tuple(out)


def parse_space(text: str) -> tuple[int, ...]:
    return tuple(int(f[1:]) for f in text.split("x"))
