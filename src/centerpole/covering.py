"""Covering facet-confined cube subsets by shifts of a sandwich.

A constructive 17-case shift table keyed on the set's declared
parameters prescribes a shift and checks it with ``sandwich_contains``.
The harness checks each shift once more, on all maximal inputs, against
the point set ``build_sandwich`` materializes, and reports discrepancies
as data.  The two checks are independent: each subtracts the shift from
every point on its own, on coordinate tuples, so neither trusts a
difference the other computed.  A failure names the table's case.  A
brute-force oracle lists every working shift in the unit box.  The
maximal sets depend on k alone, so a sweep over every s of one k builds
them once and checks each of them point by point for every s.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from operator import sub

from .cube import (
    SigmaZeroSet,
    enumerate_maximal_sigma0_sets,
    sandwich_contains,
    build_sandwich,
)


class CaseAnalysisError(RuntimeError):
    """No branch of the constructive table applies.  The table is meant
    to be total on valid inputs, so this signals an implementation bug."""


@dataclass(frozen=True, slots=True)
class CoverCertificate:
    """A verified claim that every point of tau lies in shift + sandwich."""

    tau: SigmaZeroSet
    s: int
    shift: tuple[int, ...]
    case_label: str

    def verify(self) -> bool:
        """Re-check membership point by point, trusting nothing."""
        k = self.tau.k
        shift = self.shift
        if len(shift) != k + 1:
            return False
        for p in self.tau.points:
            if not sandwich_contains(k, self.s, tuple(map(sub, p, shift))):
                return False
        return True


def _shift(dim: int, axis: int, head: int, along: int) -> tuple[int, ...]:
    """head * e_0 + along * e_axis in Z^dim."""
    shift = [0] * dim
    shift[0] = head
    shift[axis] += along
    return tuple(shift)


def constructive_cover_shift(tau: SigmaZeroSet, s: int) -> CoverCertificate:
    """Shift prescribed by the case analysis, as a verified certificate.

    Case 0 handles sets confined to an axis-0 facet (directly, or after
    the facet swap available when the set misses one of the two
    axis-0 levels).  Case I splits on the L-shape and the facet level,
    with sub-branches comparing the anchor against s.  Each branch names
    the shift head * e_0 + along * e_gamma by its two coefficients.  The
    returned shift always verifies; a failed verification raises.
    """
    k = tau.k
    if s > k - 2:
        raise ValueError(f"covering is only claimed for s <= k-2, got s={s} k={k}")
    gamma = tau.facet_axis
    level = tau.facet_level
    a = tau.anchor

    heads = {p[0] for p in tau.points}

    if not heads:
        head, along, label = 0, 0, "empty"
    elif gamma == 0 or not {0, 1} <= heads:
        # an axis-0 facet confines tau: either declared, or chosen via
        # the swap to whichever level actually holds all points
        eff_level = level if gamma == 0 else (1 if 1 in heads else 0)
        if eff_level == 0:
            if a < k - 1:
                head, along, label = 0, 0, "0.1"
            else:
                head, along, label = -1, 0, "0.2"
        else:
            if a < k - 1:
                head, along, label = 1, 0, "0.3"
            else:
                head, along, label = 0, 0, "0.4"
    elif tau.shape == "lowerL":
        if level == 0:
            if a > s:
                head, along, label = 0, 0, "I.1.0/a>s"
            elif a == s:
                head, along, label = 0, -1, "I.1.0/a=s"
            else:
                head, along, label = 1, 0, "I.1.0/a<s"
        else:
            if a > s:
                head, along, label = 0, 0, "I.1.1/a>s"
            elif a < s:
                head, along, label = 1, 0, "I.1.1/a<s"
            else:
                head, along, label = 1, 1, "I.1.1/a=s"
    else:
        if level == 0:
            if a >= s:
                head, along, label = 0, 0, "I.2.0/a>=s"
            elif a == s - 1:
                head, along, label = 0, -1, "I.2.0/a=s-1"
            else:
                head, along, label = 1, 0, "I.2.0/a<s-1"
        else:
            if a == k - 1:
                head, along, label = 0, 1, "I.2.1/a=k-1"
            elif s <= a < k - 1:
                head, along, label = 0, 0, "I.2.1/s<=a<k-1"
            elif a == s - 1:
                head, along, label = 1, 1, "I.2.1/a=s-1"
            elif a < s - 1:
                head, along, label = 1, 0, "I.2.1/a<s-1"
            else:
                raise CaseAnalysisError(
                    f"case I.2.1: no branch for gamma={gamma} level={level} "
                    f"a={a} s={s}"
                )

    shift = _shift(k + 1, gamma, head, along)
    cert = CoverCertificate(tau=tau, s=s, shift=shift, case_label=label)
    if not cert.verify():
        raise CaseAnalysisError(
            f"case {label}: constructive failure: prescribed shift {shift} "
            f"fails membership for gamma={gamma} level={level} a={a} "
            f"shape={tau.shape} s={s}"
        )
    return cert


def brute_force_cover_shifts(
    tau: frozenset[tuple[int, ...]] | set[tuple[int, ...]], k: int, s: int
) -> list[tuple[int, ...]]:
    """All shifts x in {-1,0,1}^(1+k) with tau inside x + sandwich, in
    lexicographic order.

    For nonempty tau every valid shift must place the lexicographically
    least point p0 inside x + sandwich, so x ranges over p0 minus the
    sandwich; that candidate set is then checked point by point against
    the built sandwich, which is exactly equivalent to scanning the whole
    unit box.  A point of another dimension than 1 + k raises ValueError.
    """
    dim = k + 1
    for q in tau:
        if len(q) != dim:
            raise ValueError(f"points have dimension {len(q)}, expected {dim}")
    if not tau:
        return list(product((-1, 0, 1), repeat=dim))
    p0 = min(tau)
    sandwich = build_sandwich(k, s)
    hits: list[tuple[int, ...]] = []
    for member in sandwich:
        shift = tuple(map(sub, p0, member))
        if any(abs(c) > 1 for c in shift):
            continue
        if all(tuple(map(sub, q, shift)) in sandwich for q in tau):
            hits.append(shift)
    hits.sort()
    return hits


@lru_cache(maxsize=1)
def _maximal_sets(k: int) -> tuple[SigmaZeroSet, ...]:
    """The maximal sets of k, kept for the next s of the same k: callers
    loop over s inside k, so one entry takes every hit.  The inputs are
    kept, never a verdict; every set is still checked for every s."""
    return tuple(enumerate_maximal_sigma0_sets(k))


def verify_covering_lemma(k: int, s: int) -> dict:
    """Check the constructive table on every maximal input for this (k, s).

    Each constructive shift (verified inside ``constructive_cover_shift``)
    must stay in {-1,0,1}^(1+k) with support inside {0, facet axis} and
    move every point into the sandwich built by ``build_sandwich``.
    Discrepancies land in the report's ``failures`` list, each reason
    led by the table's case label and naming the least point that fails;
    nothing raises.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if s > k - 2:
        raise ValueError(f"the covering claim needs s <= k-2; got s={s} k={k}")
    failures: list[dict] = []
    sets = _maximal_sets(k)
    sandwich = build_sandwich(k, s)
    for tau in sets:
        where = {
            "facet": [tau.facet_axis, tau.facet_level],
            "anchor": tau.anchor,
            "shape": tau.shape,
        }
        try:
            cert = constructive_cover_shift(tau, s)
        except CaseAnalysisError as err:  # its text leads with the case
            failures.append({**where, "reason": str(err)})
            continue
        shift = cert.shift
        if any(abs(c) > 1 for c in shift):
            reason = f"shift {shift} leaves the unit box"
        elif not {i for i, c in enumerate(shift) if c} <= {0, tau.facet_axis}:
            reason = f"shift {shift} supported off axes {{0, {tau.facet_axis}}}"
        else:
            # its own subtraction, not the certificate's: the checks stay independent
            missed = [
                p for p in tau.points if tuple(map(sub, p, shift)) not in sandwich
            ]
            if not missed:
                continue
            reason = (
                f"point {min(missed)} minus shift {shift} is not in the built sandwich"
            )
        failures.append({**where, "reason": f"case {cert.case_label}: {reason}"})
    return {"k": k, "s": s, "total": len(sets), "failures": failures}
