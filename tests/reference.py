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


def summand_window(space, summand, k, i):
    """(lo, hi) of the balanced twists t where H^i of the summand twisted by
    (t + k_1, ..., t + k_s) is nonzero, None for an unbounded end, or None
    when there is no such t.  By Kunneth, over every choice of one Bott
    range per atom whose levels add up to i: the ranges shifted by -k_j and
    intersected.  At most one choice is nonempty."""
    found = []
    for ranges in product(*summand_supports(space, summand)):
        if sum(level for level, _, _ in ranges) != i:
            continue
        los = [lo - kj for (_, lo, _), kj in zip(ranges, k) if lo is not None]
        his = [hi - kj for (_, _, hi), kj in zip(ranges, k) if hi is not None]
        lo, hi = max(los, default=None), min(his, default=None)
        if lo is None or hi is None or lo <= hi:
            found.append((lo, hi))
    assert len(found) <= 1, found
    return found[0] if found else None


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


def _box(dims):
    """The vectors k with -n_j <= k_j <= 0, in lexicographic order."""
    if not dims:
        return [()]
    return [(a,) + rest for a in range(-dims[0], 1) for rest in _box(dims[1:])]


def offset_family(space, name, r):
    """The offset family (i, k, required) named name, at rank r, with i
    ascending and then k lexicographic in the box -n_j <= k_j <= 0:
    * paper: sum(k) = -i for 1 <= i <= dim X;
    * exact: sum(k) = -i for 0 < i < dim X;
    * step: sum(k) >= -i for 0 < i < dim X, leaving out each nonzero k
      with every k_j in {0, -n_j};
    * interior: sum(k) >= -i and every k_j > -n_j, for 0 < i < min(r, dim X);
    * boundary (two factors): interior, then each exact (i, k) with
      k_1 = -n_1 or k_2 = -n_2, required unless i is n_1 or n_2."""
    dims, d = space.dims, space.total_dim
    if name == "boundary":
        n, m = dims
        return offset_family(space, "interior", r) + [
            (i, k, i not in (n, m)) for i, k, _ in offset_family(space, "exact", r)
            if k[0] == -n or k[1] == -m]
    keep = {
        "paper": lambda i, k: sum(k) == -i,
        "exact": lambda i, k: sum(k) == -i,
        "step": lambda i, k: sum(k) >= -i and (
            not any(k) or any(kj not in (0, -n) for kj, n in zip(k, dims))),
        "interior": lambda i, k: sum(k) >= -i and all(kj > -n for kj, n in zip(k, dims)),
    }[name]
    top = {"paper": d + 1, "interior": min(r, d)}.get(name, d)
    return [(i, k, True) for i in range(1, top) for k in _box(dims) if keep(i, k)]


def regularity_groups(space, definition):
    """The (i, k) of each group that must vanish for regularity at a base
    twist p, H^i(E(p + k)), in family order: "paper" is offset_family's
    paper family; "hw" (two factors) has k = (j, -i - 1 - j) for
    j = -i, ..., -1, for 1 <= i <= dim X."""
    if definition == "paper":
        return [(i, k) for i, k, _ in offset_family(space, "paper", 0)]
    return [(i, (j, -i - 1 - j)) for i in range(1, space.total_dim + 1) for j in range(-i, 0)]


def regularity_probe(bundle, p, definition="paper"):
    """(i, k, dim) of each required group nonzero at base twist p, an int
    for (p, ..., p) or a multidegree: one h_bundle probe at every group of
    regularity_groups, in family order."""
    pv = (p,) * bundle.space.num_factors if isinstance(p, int) else tuple(p)
    probes = ((i, k, h_bundle(bundle, tuple(a + b for a, b in zip(pv, k)), i))
              for i, k in regularity_groups(bundle.space, definition))
    return [group for group in probes if group[2]]


def class_windows(space, factors, groups):
    """(index, lo, hi) of each group (i, k) of groups, in order, where the
    summand with factors (n_j, p_j, t_j), W^p_j(t_j) or O(t_j) for p_j = 0,
    has a nonempty window: one summand_window per entry, walked group by
    group with no sharing between offsets."""
    summand = make_summand(space, [Cotangent(p, t) if p else Line(t) for _, p, t in factors])
    windows = ((index, summand_window(space, summand, k, i))
               for index, (i, k) in enumerate(groups))
    return tuple((index, *window) for index, window in windows if window is not None)


def extremal_menu(space):
    """The summand of each top corner, a vector 0 <= h_j <= n_j with
    h_j = n_j on some factor: O where h_j = n_j, O(1) where h_j = 0 and
    W^h_j(h_j + 1) in between."""
    corners = (h for h in product(*(range(n + 1) for n in space.dims))
               if any(hj == n for hj, n in zip(h, space.dims)))
    return [make_summand(space, [Line(0) if hj == n else Line(1) if hj == 0
                                 else Cotangent(hj, hj + 1) for hj, n in zip(h, space.dims)])
            for h in corners]
