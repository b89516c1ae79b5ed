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
largest index set of each value set as the binding case.  The multiplicity
of each value comes from the runs of `Weights` (`Weights.multiplicities`),
and member types drop coordinates from the runs, so neither cost grows with
the number of coordinates carrying one value.

The member's germs along the singular strata (Iano-Fletcher 2000, §8-10)
come from one walk, `WeightedHypersurface._strata_germs`, which both
`induced_singularities` (hence the search's `member_canonical`) and
`singularity_report` read; the report's verdict is None unless quasi-smooth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from . import config, hilbert
from .core import (
    CyclicQuotientSingularity,
    StratumRecord,
    Weights,
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
        counts = self.weights.multiplicities()
        if d in counts:
            return True  # linear cone
        values = sorted(counts)
        cap = config.subset_cap()
        if len(values) > cap:
            raise BudgetError(
                f"{len(values)} distinct weights; value-subset enumeration capped at "
                f"{cap} (set WPH_SUBSET_CAP to at least {len(values)} to allow it)"
            )
        for size in range(1, len(values) + 1):
            for value_set in combinations(values, size):
                bits = _reachable(value_set, d)
                if (bits >> d) & 1:
                    continue  # clause (a)
                binding = sum(counts[v] for v in value_set)
                usable = sum(
                    counts[u]
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
        matches (the member is then not quasi-smooth at the point).  Both
        coordinates are removed from the runs, so the cost is O(runs).
        """
        a = self.weights[point]
        d = self.degree
        witness = dict(self.point_witnesses).get(point)
        if witness is None:
            target = d % a
            # the first index of a matching run, or its second if the first is the point
            witness = next(
                (
                    e
                    for start, w, count in self.weights.spans()
                    if w % a == target and d - w >= 0
                    for e in range(start, start + min(count, 2))
                    if e != point
                ),
                None,
            )
            if witness is None:
                return None
        return CyclicQuotientSingularity(a, runs=self.weights.runs_without(point, witness))

    def _strata_germs(
        self,
    ) -> Iterator[tuple[StratumRecord, bool, CyclicQuotientSingularity | None]]:
        """(stratum, met, member germ or None) per singular stratum, in the order
        of `singular_strata`: the one place the member's germs are derived.

        A coordinate point is met iff its weight fails to divide d; its germ is
        `member_type_at`.  A larger stratum is always met (the member is ample):
        the member cuts a divisor in it (a monomial supported there has degree
        d; transverse type unchanged) or contains it (one transverse direction
        of residue d mod h is lost; no germ if none has that residue).
        """
        d = self.degree
        for stratum in singular_strata(self.weights):
            indices, h = stratum.indices, stratum.order
            if len(indices) == 1:
                met = self.contains_coordinate_point(indices[0])
                yield stratum, met, self.member_type_at(indices[0]) if met else None
                continue
            transverse = self.weights.runs_without(*indices)
            values = tuple(sorted({self.weights[i] for i in indices}))
            if not (_reachable(values, d) >> d) & 1:
                # member contains the stratum; drop one residue-d direction
                pick = next((k for k, (w, _) in enumerate(transverse) if w % h == d % h), None)
                if pick is None:
                    yield stratum, True, None
                    continue
                w, count = transverse[pick]
                transverse[pick : pick + 1] = [(w, count - 1)] if count > 1 else []
            germ = [(0, len(indices) - 1), *transverse]
            yield stratum, True, CyclicQuotientSingularity(h, runs=germ)

    def induced_singularities(
        self,
    ) -> list[tuple[tuple[int, ...], CyclicQuotientSingularity]]:
        """Quotient type of the general member along each met singular stratum.

        Only meaningful for quasi-smooth members; a met stratum without a
        residue-matched direction is a ValueError.
        """
        out = []
        for stratum, met, germ in self._strata_germs():
            indices = stratum.indices
            if met and germ is None:
                where = f"along stratum {list(indices)}"
                if len(indices) == 1:
                    where = f"at coordinate point {indices[0]}"
                raise ValueError(
                    f"no transverse direction matches degree {self.degree} mod "
                    f"{stratum.order} {where}; member is not quasi-smooth there"
                )
            if met:
                out.append((indices, germ))
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


@dataclass(frozen=True)
class SingularityReport:
    points: tuple[PointRecord, ...]
    strata: tuple[StratumEntry, ...]
    ambient_canonical: bool
    quasi_smooth: bool
    member_canonical: bool | None  # a verdict only when quasi-smooth


def singularity_report(x: WeightedHypersurface) -> SingularityReport:
    """Classify ambient singularities and how the general member meets them.

    One walk over `_strata_germs` gives the points (coordinate points of
    weight > 1) and the larger strata; every ambient type comes from
    `stratum_quotient_type`.  `member_canonical` is None unless the member is
    quasi-smooth, and only then are the strata's member germs classified.
    Quasi-smoothness is decided before the walk, so its cap speaks first.
    """
    w = x.weights
    if not well_formed(w):
        raise NotWellFormedError(f"weights {w} are not well-formed")
    qs = x.quasi_smooth()

    points, strata, canonical = [], [], True
    for stratum, met, germ in x._strata_germs():
        indices = stratum.indices
        ambient = stratum_quotient_type(w, indices, indices[0])
        ambient_class = classify_quotient(ambient)
        # a point shows its member germ; a stratum's germ only feeds the verdict
        wanted = germ is not None and (qs or len(indices) == 1)
        member_class = classify_quotient(germ) if wanted else None
        if len(indices) == 1:
            points.append(PointRecord(indices[0], ambient, ambient_class, met, germ, member_class))
        else:
            strata.append(StratumEntry(indices, stratum.order, ambient_class))
        if met:
            canonical = canonical and member_class is not None and member_class.is_canonical

    return SingularityReport(
        points=tuple(points),
        strata=tuple(strata),
        ambient_canonical=all(p.ambient_class.is_canonical for p in points),
        quasi_smooth=qs,
        member_canonical=canonical if qs else None,
    )
