"""Reference values for the tests, written from the definitions.

The engine does not ship these: each restates a classical identity or a
closed form with public engine names (h_bundle, make_summand, twist, ...),
so that a test can hold the engine's answers against an independent route.
None of them calls an engine helper it is used to check.
"""

from itertools import combinations, product
from math import comb, factorial, prod

from mpreg.bundles import Cotangent, Line, Space, make_bundle, make_summand, normalize_atom, twist
from mpreg.cohomology import h_bundle


def h_vector(bundle, tvec):
    """(h^0, ..., h^dim X) of the bundle twisted by O(tvec), one h_bundle
    probe per degree."""
    tvec = tuple(tvec)
    return tuple(h_bundle(bundle, tvec, i) for i in range(bundle.space.total_dim + 1))


# ---------------------------------------------------------------------------
# Bott's formula as ranges of the twist


def atom_support(n, atom):
    """Each (level, lo, hi) such that H^level of the atom twisted by O(t) on
    P^n is nonzero exactly for lo <= t <= hi, None unbounded, from the top
    down.  Bott's formula, with the atom in normal form: O(c) has H^0 for
    c + t >= 0 and H^n for c + t <= -n - 1; W^p(c), 0 < p < n, has H^0 for
    c + t > p, H^p at c + t = 0 and H^n for c + t < p - n."""
    atom = normalize_atom(n, atom)
    if isinstance(atom, Line):
        c = atom.degree
        return ((0, -c, None), (n, None, -c - n - 1))
    p, c = atom.p, atom.twist
    return ((0, p + 1 - c, None), (p, -c, -c), (n, None, p - n - 1 - c))


def summand_supports(space, summand):
    """atom_support of each atom of the summand."""
    return tuple(atom_support(n, a) for n, a in zip(space.dims, summand.atoms))


# ---------------------------------------------------------------------------
# Euler characteristic, by the Euler-sequence recursion


def extended_binomial(x, k):
    """C(x, k) = x (x - 1) ... (x - k + 1) / k! for any integer x; 0 for k < 0."""
    if k < 0:
        return 0
    return prod(range(x - k + 1, x + 1)) // factorial(k)


def chi_atom(n, atom):
    """chi of the atom on P^n: C(d + n, n) for O(d), as a polynomial in d;
    for W^p(t), additivity over the twisted Euler sequence
    0 -> W^p(t) -> O(t - p)^C(n+1, p) -> W^(p-1)(t) -> 0, down to
    W^0(t) = O(t)."""
    if isinstance(atom, Line):
        return extended_binomial(atom.degree + n, n)
    p, t = atom.p, atom.twist
    if p == 0:
        return chi_atom(n, Line(t))
    return comb(n + 1, p) * chi_atom(n, Line(t - p)) - chi_atom(n, Cotangent(p - 1, t))


def euler_characteristic(bundle, tvec=None):
    """chi of the bundle twisted by O(tvec): by Kunneth, the product of the
    atoms' chi, summed over the summands."""
    if tvec is not None:
        bundle = twist(bundle, tvec)
    return sum(prod(chi_atom(n, a) for n, a in zip(bundle.space.dims, s.atoms))
               for s in bundle.summands)


# ---------------------------------------------------------------------------
# duality, hyperplane restriction, the canonical twist


def dual_atom(n, atom):
    """O(d)^dual = O(-d), and W^p(t)^dual = W^(n-p)(n + 1 - t) on P^n."""
    if isinstance(atom, Line):
        return Line(-atom.degree)
    return Cotangent(n - atom.p, n + 1 - atom.twist)


def dualize(bundle):
    space = bundle.space
    return make_bundle(space, [make_summand(space, [dual_atom(n, a) for n, a in
                                                    zip(space.dims, s.atoms)])
                               for s in bundle.summands])


def restrict_to_hyperplane(bundle, factor):
    """The restriction to a hyperplane P^(n-1) of the factor with this
    (0-based) index, whose atoms must be lines: O(d) restricts to O(d)."""
    dims = list(bundle.space.dims)
    dims[factor] -= 1
    space = Space(tuple(dims))
    return make_bundle(space, [make_summand(space, s.atoms) for s in bundle.summands])


def canonical_twist(space):
    """The canonical sheaf O(-n_1 - 1, ..., -n_s - 1), as its twist."""
    return tuple(-n - 1 for n in space.dims)


# ---------------------------------------------------------------------------
# splitting closed forms


def acm_closed_form_line(space, degrees):
    """O(a_1, ..., a_s) fails to be ACM exactly when some nonempty proper
    subset S of the factors has a_k - a_j > n_j for every j in S and k
    outside S."""
    a, idx = tuple(degrees), range(space.num_factors)
    for size in range(1, space.num_factors):
        for inside in map(set, combinations(idx, size)):
            if all(a[k] - a[j] > space.dims[j] for j in inside for k in idx if k not in inside):
                return False
    return True


def extremal_menu(space):
    """The summand of each top corner, a vector 0 <= h_j <= n_j with
    h_j = n_j on some factor: O where h_j = n_j, O(1) where h_j = 0 and
    W^h_j(h_j + 1) in between."""
    corners = (h for h in product(*(range(n + 1) for n in space.dims))
               if any(hj == n for hj, n in zip(h, space.dims)))
    return [make_summand(space, [Line(0) if hj == n else Line(1) if hj == 0
                                 else Cotangent(hj, hj + 1) for hj, n in zip(h, space.dims)])
            for h in corners]
