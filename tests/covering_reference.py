"""The two covering checks written out on their own: a tuple subtraction
and a layer/tail-sum membership test that share no code with
``covering`` or ``cube.sandwich_contains``.  The differential tests hold
``verify_covering_lemma`` to these reports."""

from centerpole import covering
from centerpole.covering import CaseAnalysisError
from centerpole.cube import build_sandwich, enumerate_maximal_sigma0_sets


def minus(p, q):
    """The coordinatewise difference p - q of two tuples of one length."""
    assert len(p) == len(q), (p, q)
    return tuple(a - b for a, b in zip(p, q))


def sandwich_contains(k, s, point):
    """Membership of a coordinate tuple by its layer and tail sum."""
    if len(point) != k + 1:
        return False
    layer = point[0]
    tail = point[1:]
    if any(b not in (0, 1) for b in tail):
        return False
    total = sum(tail)
    if layer == -1:
        return total < s
    if layer == 0:
        return total < k
    if layer == 1:
        return total > s
    return False


def certificate_holds(cert, contains=sandwich_contains):
    """The certificate check: every point minus the shift passes
    ``contains``."""
    k = cert.tau.k
    if len(cert.shift) != k + 1:
        return False
    return all(contains(k, cert.s, minus(p, cert.shift)) for p in cert.tau.points)


def covering_report(k, s):
    """The report of ``verify_covering_lemma``: the table's shift for each
    maximal set (through ``covering.constructive_cover_shift``, so a
    patched table or certificate check applies here too), then the check
    against the built sandwich."""
    failures = []
    sets = enumerate_maximal_sigma0_sets(k)
    sandwich = build_sandwich(k, s)
    for tau in sets:
        where = {
            "facet": [tau.facet_axis, tau.facet_level],
            "anchor": tau.anchor,
            "shape": tau.shape,
        }
        try:
            cert = covering.constructive_cover_shift(tau, s)
        except CaseAnalysisError as err:
            failures.append({**where, "reason": str(err)})
            continue
        case = f"case {cert.case_label}: "
        if any(abs(c) > 1 for c in cert.shift):
            failures.append(
                {**where, "reason": case + f"shift {cert.shift} leaves the unit box"}
            )
            continue
        support = {i for i, c in enumerate(cert.shift) if c != 0}
        if not support <= {0, tau.facet_axis}:
            failures.append(
                {
                    **where,
                    "reason": case + f"shift {cert.shift} supported off "
                    f"axes {{0, {tau.facet_axis}}}",
                }
            )
            continue
        missed = [p for p in tau.points if minus(p, cert.shift) not in sandwich]
        if missed:
            failures.append(
                {
                    **where,
                    "reason": case + f"point {min(missed)} minus shift "
                    f"{cert.shift} is not in the built sandwich",
                }
            )
    return {"k": k, "s": s, "total": len(sets), "failures": failures}
