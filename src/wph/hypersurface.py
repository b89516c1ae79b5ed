"""The weighted hypersurface model: adjunction bookkeeping, volume, and
quasi-smoothness of the general member.

Everything here is about the *general* member of the degree-d linear system;
no equation is ever materialised.  Statements are certified by combinatorial
witnesses: a coordinate point lies on the general member iff its weight does
not divide d (no pure power of that variable has degree d), and
quasi-smoothness is decided by the monomial-existence criterion below.

Quasi-smoothness criterion (general hypersurface, degree d, weights a_i):
X_d is quasi-smooth iff d equals some a_i (linear cone), or for every
nonempty index subset I either

  (a) some monomial supported in I has degree d, or
  (b) there are |I| monomials of degree d of the form (monomial in I) * z_e
      with pairwise distinct indices e.

Both conditions depend only on the *set of weight values* occurring in I:
if d - a_e is realisable over I's values for some e whose value lies in I,
then (a) already holds, so when (a) fails the usable e's all carry values
outside I and their count does not depend on which indices of each value I
contains.  The subset loop therefore runs over distinct value sets, with the
largest index set of each value set as the binding case.  It walks them depth
first in ascending order: a set's reachability table (`hilbert.with_value`)
is its parent's with one value added, and a set where (a) holds is not
expanded, since (a) then holds on every superset.  A table has as many cells
as its set's least value, whatever d is.  The multiplicity
of each value comes from the runs of `Weights` (`Weights.multiplicities`),
and member types drop coordinates from the runs, so neither cost grows with
the number of coordinates carrying one value.

Sing P is the union of the sub-spaces P(a_i : h | a_i), one per order h > 1
(Iano-Fletcher 2000, §8-10), and `core.order_residues` gives the germ of
each order.  `member_canonical` (walk: `singularity.member_walk`) takes
a residue-d direction from that germ, never walking index subsets; it answers
for any member, but speaks of the germs only of a quasi-smooth one, so its
callers also require `quasi_smooth`.
`singularity_report` keeps one ambient class per order (`classes`, from
`singularity.order_classes`); its member verdict is None unless quasi-smooth.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple

from . import config
from .core import CyclicQuotientSingularity, StratumRecord, Weights, _Value, singular_strata
from .hilbert import reaches, with_value
from .singularity import (
    SingularityClass,
    classify_quotient,
    member_walk,
    order_classes,
    require_well_formed,
)


class WeightedHypersurface(_Value):
    """General hypersurface of degree `degree` in the space with `weights`; the
    two are the whole object, and every local type is derived from them."""

    weights: Weights
    degree: int

    def __init__(self, weights: Weights | Iterable[int], degree: int) -> None:
        self.__dict__.update(weights=Weights.coerce(weights), degree=degree)
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.weights) < 3:
            raise ValueError("member dimension must be >= 1")

    @property
    def amplitude(self) -> int:
        """degree minus the weight sum; the canonical class is O(amplitude)."""
        return self.degree - self.weights.total()

    @property
    def dimension(self) -> int:
        return len(self.weights) - 2

    def __str__(self) -> str:
        return f"X_{self.degree} in P({self.weights})"

    def volume(self) -> Fraction:
        """Canonical volume amplitude^dim * degree / (product of weights).

        Only asserted in the general-type regime; amplitude < 1 is refused.
        """
        alpha = self.amplitude
        if alpha < 1:
            raise ValueError(f"amplitude {alpha} < 1: volume formula not applicable")
        return Fraction(alpha**self.dimension * self.degree, self.weights.product())

    def contains_coordinate_point(self, i: int) -> bool:
        """General member passes through coordinate point i iff a_i does not divide d."""
        return self.degree % self.weights[i] != 0

    def quasi_smooth(self) -> bool:
        """Monomial-existence criterion for the general member; see module docstring."""
        d = self.degree
        counts = self.weights.multiplicities()
        if d in counts:
            return True  # linear cone
        values = sorted(counts)
        config.require("WPH_SUBSET_CAP", len(values), f"{len(values)} distinct weights")
        if values[-1] > d:
            return False  # the set {values[-1]} meets neither clause: nothing has degree d - u
        # a set's table has as many cells as its least value
        config.require("WPH_TABLE_CAP", values[-1], f"a reachability table of {values[-1]} cells")
        gaps = [(d - u, counts[u]) for u in values]
        # (first index to add, table, binding count) of each set still to expand
        stack = [(0, [], 0)]
        while stack:
            start, parent, binding = stack.pop()
            for i in range(start, len(values)):
                table = with_value(parent, values[i])
                if reaches(table, d):
                    continue  # clause (a), here and on every superset
                size = binding + counts[values[i]]
                # a value of the set reaching d - u would give clause (a)
                if sum(c for gap, c in gaps if reaches(table, gap)) < size:
                    return False  # clause (b) fails for the full index set
                stack.append((i + 1, table, size))
        return True

    def member_type_at(self, point: int) -> CyclicQuotientSingularity | None:
        """Member's local quotient type at a contained coordinate point.

        The member's tangent space there is the ambient chart minus one
        direction of residue d mod a_point (the degree character of the
        defining equation), so the type is the ambient point type with one
        such variable removed: the smallest index e != point with
        a_e = d mod a_point and a_e <= d, so that a monomial z_point^c * z_e
        has degree d.  Returns None when no direction matches (the member is
        then not quasi-smooth at the point), and raises `NotWellFormedError` for
        a type that is not faithful.  The cost is O(runs), never O(n).
        """
        a, d = self.weights[point], self.degree
        # the first index of a matching run, or its second if the first is the point
        removed = next(
            (
                e
                for start, w, count in self.weights.spans()
                if w % a == d % a and w <= d
                for e in range(start, start + min(count, 2))
                if e != point
            ),
            None,
        )
        if removed is None:
            return None
        try:
            return CyclicQuotientSingularity(a, runs=self.weights.runs_without(point, removed))
        except ValueError:  # not faithful, which a well-formed space rules out
            require_well_formed(self.weights)
            raise

    def member_canonical(self) -> bool:
        """True when every singularity induced on the general member is canonical.

        One germ per stratum order h (`core.strata_orders`), not per index
        subset: `core.order_residues` gives the type of every stratum of order
        h.  If h does not divide d, the member contains them and loses a
        direction of residue d mod h (False when none exists); if h divides d,
        only the larger strata are met, unchanged (none exist when a single
        weight is divisible by h).  Any member gets a bool, but a verdict on
        its germs only if it is quasi-smooth (clause (b) then makes every
        stratum of order h lose the same residue), so every caller also
        requires `quasi_smooth`.  The walk, `singularity.member_walk`, takes
        the multiplicities as its head; the search shares each head.
        `WPH_ORDER_CAP` is read once per call here, once per `search_records`
        call, and checked before every read of the one germ cache.
        """
        return member_walk(self.weights.multiplicities())(self.degree, config._cap("WPH_ORDER_CAP"))


class PointRecord(NamedTuple):
    """One coordinate point with weight > 1: ambient type and member incidence."""

    index: int
    ambient_type: CyclicQuotientSingularity
    meets_member: bool
    member_type: CyclicQuotientSingularity | None
    member_class: SingularityClass | None


class SingularityReport(NamedTuple):
    points: tuple[PointRecord, ...]
    strata: tuple[StratumRecord, ...]  # the singular strata on two or more coordinates
    classes: dict[int, SingularityClass]  # stratum order -> ambient class of its germ
    ambient_canonical: bool
    quasi_smooth: bool
    member_canonical: bool | None  # a verdict only when quasi-smooth


def singularity_report(x: WeightedHypersurface) -> SingularityReport:
    """Classify ambient singularities and how the general member meets them.

    Points (coordinate points of weight > 1) and larger strata are listed
    from `singular_strata`; `classes` maps each stratum order to its ambient
    class (`singularity.order_classes`), and every order has a stratum, so
    they also give `ambient_canonical`.  Inputs are checked, and caps speak,
    in this order: well-formedness, quasi-smoothness, the strata listing,
    the Reid-Tai scans.  `member_canonical` is None unless quasi-smooth.
    """
    w = x.weights
    require_well_formed(w)
    qs = x.quasi_smooth()
    strata = singular_strata(w)
    classes = order_classes(w)

    points = []
    for stratum in strata:
        if len(stratum.indices) > 1:
            break  # listed by size: the points come first
        k = stratum.indices[0]
        ambient = CyclicQuotientSingularity(stratum.order, runs=w.runs_without(k))
        met = x.contains_coordinate_point(k)
        germ = x.member_type_at(k) if met else None
        member_class = classify_quotient(germ) if germ is not None else None
        points.append(PointRecord(k, ambient, met, germ, member_class))

    return SingularityReport(
        points=tuple(points),
        strata=tuple(strata[len(points):]),
        classes=classes,
        ambient_canonical=all(c.is_canonical for c in classes.values()),
        quasi_smooth=qs,
        member_canonical=x.member_canonical() if qs else None,
    )
