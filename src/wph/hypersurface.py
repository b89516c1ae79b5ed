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
largest index set of each value set as the binding case.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from . import config, hilbert
from .core import (
    CyclicQuotientSingularity,
    Weights,
    coordinate_point_types,
    singular_strata,
    stratum_quotient_type,
    well_formed,
)
from .errors import BudgetError, NotWellFormedError
from .singularity import SingularityClass, classify_quotient


def _reachable(values: tuple[int, ...], limit: int) -> int:
    """Bitset of degrees in [0, limit] realisable as nonnegative combinations."""
    mask = (1 << (limit + 1)) - 1
    bits = 1
    for v in values:
        if v > limit:
            continue
        shift = v
        while shift <= limit:
            bits |= (bits << shift) & mask
            shift <<= 1
    return bits


@dataclass(frozen=True)
class WeightedHypersurface:
    """General hypersurface of degree `degree` in the space with `weights`.

    `point_witnesses` is optional family knowledge: for a coordinate point
    (by index) lying on the member, the index of the variable whose partial
    derivative is nonvanishing there.  Removing that variable's weight from
    the ambient quotient type gives the member's local type; without a
    witness `member_type_at` removes the first variable whose weight matches
    the degree residue.
    """

    weights: Weights
    degree: int
    point_witnesses: tuple[tuple[int, int], ...] = field(default=())
    note: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", Weights.coerce(self.weights))
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        if len(self.weights) < 3:
            raise ValueError("member dimension must be >= 1")
        for point, witness in self.point_witnesses:
            if not (0 <= point < len(self.weights) and 0 <= witness < len(self.weights)):
                raise ValueError("witness indices out of range")
            if point == witness:
                raise ValueError("witness variable must differ from the point index")

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
        entries = self.weights.entries
        if d in entries:
            return True  # linear cone
        value_counts = Counter(entries)
        values = sorted(value_counts)
        cap = config.subset_cap()
        if len(values) > cap:
            raise BudgetError(
                f"{len(values)} distinct weights; value-subset enumeration capped at {cap}"
            )
        for size in range(1, len(values) + 1):
            for value_set in combinations(values, size):
                bits = _reachable(value_set, d)
                if (bits >> d) & 1:
                    continue  # clause (a)
                binding = sum(value_counts[v] for v in value_set)
                usable = sum(
                    value_counts[u]
                    for u in values
                    if u not in value_set and u <= d and (bits >> (d - u)) & 1
                )
                if usable < binding:
                    return False  # clause (b) fails for the full index set
        return True

    def member_type_at(self, point: int) -> CyclicQuotientSingularity | None:
        """Member's local quotient type at a contained coordinate point.

        The member's tangent space there is the ambient chart minus one
        direction of residue d mod a_point (the degree character of the
        defining equation), so the type is the ambient point type with one
        such variable removed.  A family-supplied witness names the removed
        variable; otherwise the smallest index carrying an actual monomial
        z_point^c * z_e of degree d is used.  Returns None when no direction
        matches (the member is then not quasi-smooth at the point).
        """
        a = self.weights[point]
        d = self.degree
        witness = dict(self.point_witnesses).get(point)
        if witness is None:
            target = d % a
            witness = next(
                (
                    e
                    for e, w in enumerate(self.weights)
                    if e != point and w % a == target and d - w >= 0
                ),
                None,
            )
            if witness is None:
                return None
        keep = [w for i, w in enumerate(self.weights) if i not in (point, witness)]
        return CyclicQuotientSingularity(a, tuple(keep))

    def induced_singularities(
        self,
    ) -> list[tuple[tuple[int, ...], CyclicQuotientSingularity]]:
        """Quotient type of the general member along each met singular stratum.

        Coordinate points are met iff their weight fails to divide d; larger
        strata are positive-dimensional and always met by the ample member.
        Along a stratum the member either cuts a divisor (some monomial
        supported in the stratum has degree d: transverse type unchanged) or
        contains it (the lost transverse direction has residue d mod h).
        Only meaningful for quasi-smooth members; the residue-matched
        direction exists exactly when quasi-smoothness holds there.
        """
        d = self.degree
        out: list[tuple[tuple[int, ...], CyclicQuotientSingularity]] = []
        for stratum in singular_strata(self.weights):
            indices, h = stratum.indices, stratum.order
            if len(indices) == 1:
                point = indices[0]
                if not self.contains_coordinate_point(point):
                    continue
                member = self.member_type_at(point)
                if member is None:
                    raise ValueError(
                        f"no transverse direction matches degree {d} mod {h} at "
                        f"coordinate point {point}; member is not quasi-smooth there"
                    )
                out.append((indices, member))
                continue
            inside = set(indices)
            transverse = [w for i, w in enumerate(self.weights) if i not in inside]
            values = tuple(sorted({self.weights[i] for i in inside}))
            divisor_cut = bool((_reachable(values, d) >> d) & 1)
            if not divisor_cut:
                # member contains the stratum; drop one residue-d direction
                target = d % h
                pick = next(
                    (j for j, w in enumerate(transverse) if w % h == target), None
                )
                if pick is None:
                    raise ValueError(
                        f"no transverse direction matches degree {d} mod {h} along "
                        f"stratum {list(indices)}; member is not quasi-smooth there"
                    )
                transverse = transverse[:pick] + transverse[pick + 1 :]
            germ = (0,) * (len(indices) - 1) + tuple(transverse)
            out.append((indices, CyclicQuotientSingularity(h, germ)))
        return out

    def member_canonical(self) -> bool:
        """True when every singularity induced on the general member is canonical.

        Callers should establish quasi-smoothness first; the induced types are
        only the member's actual germs under that hypothesis.
        """
        return all(
            classify_quotient(q).is_canonical for _, q in self.induced_singularities()
        )

    def singularity_report(self) -> "SingularityReport":
        return singularity_report(self)

    def plurigenus(self, m: int) -> int:
        return hilbert.plurigenus(self, m)

    def plurigenera(self, up_to: int) -> tuple[int, ...]:
        return hilbert.plurigenera_table(self, up_to)


@dataclass(frozen=True)
class PointRecord:
    """One coordinate point with weight > 1: ambient type and member incidence."""

    index: int
    ambient_type: CyclicQuotientSingularity
    ambient_class: SingularityClass
    meets_member: bool
    member_type: CyclicQuotientSingularity | None
    member_class: SingularityClass | None


@dataclass(frozen=True)
class StratumEntry:
    """A singular stratum on two or more coordinates; met by any ample member."""

    indices: tuple[int, ...]
    order: int
    ambient_class: SingularityClass
    meets_member: bool


@dataclass(frozen=True)
class SingularityReport:
    points: tuple[PointRecord, ...]
    strata: tuple[StratumEntry, ...]
    ambient_canonical: bool
    quasi_smooth: bool
    member_asserted: bool  # member verdicts are only claims when quasi-smooth

    @property
    def met_points(self) -> tuple[PointRecord, ...]:
        return tuple(p for p in self.points if p.meets_member)

    @property
    def member_classes(self) -> tuple[SingularityClass, ...]:
        return tuple(
            p.member_class for p in self.met_points if p.member_class is not None
        )


def singularity_report(x: WeightedHypersurface) -> SingularityReport:
    """Classify ambient singularities and how the general member meets them.

    Coordinate points are met iff their weight fails to divide the degree;
    positive-dimensional singular strata are always met (the member is ample).
    Member types at met points come from `member_type_at`: a supplied witness
    where there is one, otherwise the first variable whose weight matches the
    degree residue.
    """
    w = x.weights
    if not well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")

    points = []
    for index, ambient in coordinate_point_types(w):
        ambient_class = classify_quotient(ambient)
        meets = x.contains_coordinate_point(index)
        member_type = x.member_type_at(index) if meets else None
        member_class = classify_quotient(member_type) if member_type is not None else None
        points.append(
            PointRecord(index, ambient, ambient_class, meets, member_type, member_class)
        )

    strata = []
    for stratum in singular_strata(w):
        if len(stratum.indices) < 2:
            continue  # singletons are the coordinate points above
        q = stratum_quotient_type(w, stratum.indices, min(stratum.indices))
        strata.append(
            StratumEntry(stratum.indices, stratum.order, classify_quotient(q), True)
        )

    qs = x.quasi_smooth()
    return SingularityReport(
        points=tuple(points),
        strata=tuple(strata),
        ambient_canonical=all(p.ambient_class.is_canonical for p in points),
        quasi_smooth=qs,
        member_asserted=qs,
    )
