"""Identity checkers for the duality structure of the six vertex system.

Everything here compares exact rationals; a pass is exact equality, never a
tolerance.  The checkers mirror how the duality identity decomposes:

* ``check_duality``: forward expectation vs reversed expectation.
* ``check_truncation_invariance``: particles right of the top dual point
  change neither side.
* ``check_lemma_factorization``: conditioning on the leftmost particle
  holding peels it off as a scalar factor.
* ``check_case_identities``: the linear-combination identities that reduce
  an (ℓ, k) instance to strictly smaller ones, keyed by where the lowest
  dual point y_k sits relative to x_1 and x_2.
* ``iter_sweep``: exhaustive duality checks over a finite enumeration
  domain, yielded as they are made; ``run_sweep`` collects them.  It reads
  every answer from expectation tables: per parameter set, both sides'
  tables in one call, per side one chain per lump boundary, its rows
  scanned once per state, and the backward equation V_t = P V_{t-1}
  advancing H, G and D for every fixed configuration at once, packed into
  one integer per state, with one Fraction per distinct reduced value
  shared by both sides (:func:`~sixv.duality.expectation_table`).  Its
  reports are exactly those :func:`check_duality` gives, in the canonical
  order; a pass is decided by identity, since equal sides are one object.

Every checker returns :class:`CheckReport` records, immutable tuples whose
verdict is derived from their values, and :meth:`CheckReport.to_json_line`
is the one encoder of a report line.

Case labels over ℓ ≥ 2 (mutually exclusive and total):

    separated           y_k not occupied and y_k < x_2 (it sits below or
                        between the first two particles)
    at_first            y_k = x_1
    at_second           y_k = x_2
    above_second        y_k not occupied and y_k > x_2
    at_third_or_later   y_k = x_j for some j ≥ 3; checked by the
                        above_second split, which holds for every y_k > x_2
"""

from __future__ import annotations

import json
import time
from collections import Counter, namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterator, Sequence

from sixv.dynamics import Mutation
from sixv.duality import (
    KINDS,
    expect_forward,
    expect_one_step_held,
    expect_reversed,
    expectation_table,
)
from sixv.model import (
    Params,
    _reject_unread,
    format_rational,
    validate_instance,
    validate_location,
    validate_reversed,
)

CASE_LABELS = (
    "separated",
    "at_first",
    "at_second",
    "above_second",
    "at_third_or_later",
)


class CheckReport(
    namedtuple("_ReportFields", "identity x y params t kind lhs rhs verdict case detail")
):
    """Outcome of one identity check; verdict is exact-equality, never fuzzy.

    An immutable record, equal by value, that costs about what a tuple of
    its fields costs to build.  The verdict is not an argument; it is
    worked out from the values when the report is made: "skip" exactly
    when lhs and rhs are both None, else "pass" exactly when lhs = rhs and
    "fail" otherwise.  A report with only one side None is an error.  The
    sweep's tables share one Fraction per value between both sides, so a
    passing sweep report's sides are one object: identity is tried first,
    as a shortcut to equality, and only sides that are two objects are
    compared as rationals.

    Every way to make a report goes through that rule: ``_make`` rejects
    fields whose verdict disagrees with their values, and ``_replace`` (and
    ``copy.replace``) takes no verdict and works it out again.
    """

    __slots__ = ()

    def __new__(
        cls,
        identity: str,
        x: tuple[int, ...],
        y: tuple[int, ...],
        params: Params,
        t: int,
        kind: str | None,
        lhs: Fraction | None,
        rhs: Fraction | None,
        case: str | None = None,
        detail: str = "",
    ) -> CheckReport:
        if lhs is rhs:
            verdict = "skip" if lhs is None else "pass"
        elif lhs is None or rhs is None:
            raise ValueError("a report needs both sides or neither")
        else:
            verdict = "pass" if lhs == rhs else "fail"
        return tuple.__new__(
            cls, (identity, x, y, params, t, kind, lhs, rhs, verdict, case, detail)
        )

    def __getnewargs__(self) -> tuple:
        """The constructor's arguments, every field but the verdict (for copy and pickle)."""
        return self[:8] + self[9:]

    @classmethod
    def _make(cls, iterable) -> CheckReport:
        """A report from all its fields in order, the derived verdict among them."""
        fields = tuple(iterable)
        report = cls(*fields[:8], *fields[9:])
        if report != fields:
            raise ValueError(
                f"{fields!r} are not a report's fields; its verdict is {report.verdict!r}"
            )
        return report

    def _replace(self, /, **changes) -> CheckReport:
        """A copy with some fields changed, but never the verdict, which is worked out again."""
        arguments = self._asdict()
        del arguments["verdict"]
        arguments.update(changes)
        return CheckReport(**arguments)

    __replace__ = _replace

    def to_json_line(self) -> str:
        """The report as one JSON object, exactly as ``json.dumps`` prints :meth:`to_json_obj`.

        It is assembled from pieces, with no ``json.dumps`` per line: the
        parameters' text is formatted once per :class:`Params`, each
        position tuple's text once (:func:`_json_positions`), kinds, case
        labels and verdicts are literals, other strings are escaped as
        ``json.dumps`` escapes them, and a passing report formats its value
        once for both sides.
        """
        identity, x, y, params, t, kind, lhs, rhs, verdict, case, detail = self
        literal = _LITERALS.get  # every literal is nonempty text, so ``or`` falls back on a miss
        lhs_text = _json_rational(lhs)
        rhs_text = lhs_text if verdict == "pass" else _json_rational(rhs)
        return (
            f'{{"identity": {literal(identity) or encode_basestring_ascii(identity)}, '
            f'"x": {_json_positions(x)}, "y": {_json_positions(y)}, '
            f'"params": {params.json_text}, "t": {t}, '
            f'"kind": {literal(kind) or encode_basestring_ascii(kind)}, '
            f'"lhs": {lhs_text}, "rhs": {rhs_text}, "verdict": {_LITERALS[verdict]}, '
            f'"case": {literal(case) or encode_basestring_ascii(case)}, '
            f'"detail": {literal(detail) or encode_basestring_ascii(detail)}}}'
        )

    def to_json_obj(self) -> dict:
        """:meth:`to_json_line`, parsed: one encoder serves both forms."""
        return json.loads(self.to_json_line())


# JSON text of the strings most reports carry, and of None
_LITERALS = {
    None: "null",
    **{
        text: encode_basestring_ascii(text)
        for text in ("duality", "", "pass", "fail", "skip", *KINDS, *CASE_LABELS)
    },
}


@lru_cache(maxsize=4096)
def _json_positions(positions: tuple[int, ...]) -> str:
    """``json.dumps`` of a position tuple, which prints it as a list."""
    return str(list(positions))


def _json_rational(value: Fraction | None) -> str:
    # num/den holds only digits, "-" and "/", which JSON strings take as is
    return "null" if value is None else f'"{format_rational(value)}"'


def classify_case(x: tuple[int, ...], y: tuple[int, ...]) -> str:
    """Which decomposition applies, by where y_k sits relative to x_1, x_2.

    Defined for ℓ ≥ 2 and k ≥ 1 (the trichotomy compares the lowest dual
    point against the two lowest particles).
    """
    x = validate_location(x)
    y = validate_reversed(y)
    if len(x) < 2:
        raise ValueError("classification needs at least two forward particles")
    if not y:
        raise ValueError("classification needs at least one dual particle")
    return _classify(x, y)


def _classify(x: tuple[int, ...], y: tuple[int, ...]) -> str:
    yk = y[-1]
    if yk == x[0]:
        return "at_first"
    if yk == x[1]:
        return "at_second"
    if yk in x:
        return "at_third_or_later"
    return "separated" if yk < x[1] else "above_second"


def _case_label(x: tuple[int, ...], y: tuple[int, ...]) -> str | None:
    """:func:`classify_case` of already validated configurations, None if undefined."""
    return _classify(x, y) if len(x) >= 2 and y else None


def check_duality(
    x: Sequence[int],
    y: Sequence[int],
    kind: str,
    t: int,
    params: Params,
    mutation: Mutation | None = None,
) -> CheckReport:
    """Forward vs reversed expectation of the same functional, exactly."""
    x = validate_location(x)
    y = validate_reversed(y)
    lhs = expect_forward(x, y, kind, t, params, mutation=mutation)
    rhs = expect_reversed(x, y, kind, t, params, mutation=mutation)
    return CheckReport("duality", x, y, params, t, kind, lhs, rhs, _case_label(x, y))


def check_truncation_invariance(
    x: Sequence[int],
    y: Sequence[int],
    extra_right_particles: Sequence[int],
    kind: str,
    params: Params,
) -> tuple[CheckReport, CheckReport]:
    """Extra particles strictly right of y_1 must change neither expectation.

    One report per side, "truncation_invariance_forward" and
    "truncation_invariance_reversed": x is the augmented configuration, lhs
    the expectation from it and rhs the one from the original x.
    """
    x, y = validate_instance(x, y)
    extras = validate_location(sorted(extra_right_particles))
    top = y[0]
    for p in extras:
        if p <= top:
            raise ValueError(f"extra particle at {p} is not strictly right of {top}")
    if set(extras) & set(x):
        raise ValueError("extra particles collide with existing ones")
    augmented = tuple(sorted(x + extras))
    return tuple(
        CheckReport(
            f"truncation_invariance_{side}", augmented, y, params, 1, kind,
            engine(augmented, y, kind, 1, params), engine(x, y, kind, 1, params),
        )
        for side, engine in (("forward", expect_forward), ("reversed", expect_reversed))
    )


def check_lemma_factorization(
    x: Sequence[int], y: Sequence[int], params: Params
) -> tuple[CheckReport, CheckReport]:
    """The hold-event factorizations, one report per variant.

    Variant "hold_factorization" (x_1 strictly below y_k):
        E^x[H(x(1), y); x_1 holds] = q^(-k) * b1(x_1) * E^(x minus x_1)[H(., y)]
    Variant "hold_factorization_pinned" (x_1 = y_k): the same with y_k
    dropped from the dual configuration on the right side.

    Exactly one variant applies; the other is reported as a skip.  If x_1
    lies strictly above y_k, neither makes sense and that is an error.
    """
    x, y = validate_instance(x, y)
    if not x:
        raise ValueError("x must contain at least one particle")
    x1, yk, k = x[0], y[-1], len(y)
    if x1 > yk:
        raise ValueError(
            f"x_1 = {x1} lies above y_k = {yk}; no factorization variant applies"
        )
    held = expect_one_step_held(x, y, "H", params)
    coeff = params.q ** (-k) * params.b1_at(x1)
    label = _case_label(x, y)
    pinned = x1 == yk
    rhs = coeff * expect_forward(x[1:], y[:-1] if pinned else y, "H", 1, params)
    variants = (
        ("hold_factorization", not pinned, "needs x_1 < y_k"),
        ("hold_factorization_pinned", pinned, "needs x_1 = y_k"),
    )
    return tuple(
        CheckReport(identity, x, y, params, 1, "H", held, rhs, label)
        if applies
        else CheckReport(identity, x, y, params, 1, "H", None, None, label, reason)
        for identity, applies, reason in variants
    )


# One side's one-step H expectation, E(x, y), as the case identities use it.
Engine = Callable[[tuple[int, ...], tuple[int, ...]], Fraction]


def check_case_identities(
    x: Sequence[int], y: Sequence[int], params: Params
) -> list[CheckReport]:
    """The decomposition identities for the applicable case, checked exactly.

    Every sub-expectation is evaluated by the exact engine on the smaller
    configurations; the linear combination on the right must match the full
    expectation on the left, as rationals.  ℓ ≤ 1 instances have no
    decomposition (they are the recursion's floor) and are skipped with a
    reason.  The at_second combination and the above_second one, which also
    serves at_third_or_later, carry coefficients that only factor out for
    site-independent parameters, so those checks skip on inhomogeneous input.
    """
    x, y = validate_instance(x, y)
    if len(x) < 2:
        return [
            CheckReport(
                "case_identities", x, y, params, 1, "H", None, None, None,
                "fewer_than_two_particles: no decomposition below two particles",
            )
        ]
    case = _classify(x, y)
    k = len(y)
    q = params.q
    yk = y[-1]

    def fwd(xs: tuple[int, ...], ys: tuple[int, ...]) -> Fraction:
        return expect_forward(xs, ys, "H", 1, params)

    def rev(xs: tuple[int, ...], ys: tuple[int, ...]) -> Fraction:
        return expect_reversed(xs, ys, "H", 1, params)

    def split(name: str, rhs: Callable[[Engine], Fraction]) -> list[CheckReport]:
        """``name`` on each side: E(x, y) against the combination rhs(E).

        One combination serves both engines, so the forward and reversed
        right-hand sides always carry the same coefficients.
        """
        return [
            CheckReport(
                f"{name}_{side}", x, y, params, 1, "H", engine(x, y), rhs(engine), case
            )
            for side, engine in (("forward", fwd), ("reversed", rev))
        ]

    if case == "separated":
        s = sum(1 for p in x if p < yk)  # 0 or 1 here, since y_k < x_2
        xp, xpp = x[:s], x[s:]
        coeff = q ** (-s * (k - 1))
        return split(
            "separated_split", lambda e: coeff * e(xp, (yk,)) * e(xpp, y[:-1])
        )

    if case == "at_first":
        coeff = q ** (-k) * params.b1_at(x[0])
        return split("first_site_peel", lambda e: coeff * e(x[1:], y[:-1]))

    # The remaining decompositions mix b1, b2 across different sites; their
    # closed-form coefficients exist only when the parameters are uniform.
    if not params.is_homogeneous():
        return [
            CheckReport(
                "case_identities", x, y, params, 1, "H", None, None, case,
                f"{case}: coefficients do not factor for site-dependent parameters",
            )
        ]
    b1, b2 = params.b1, params.b2

    if case == "at_second":
        xp, xpp, yp = x[1:], x[2:], y[:-1]
        gap = b2 ** (x[1] - x[0] - 1)
        cross = b1 * b2 - b1 - b2
        reports = split(
            "second_site_split",
            lambda e: q ** (-k) * e(xp, y)
            + gap * (q ** (-k) * e(xp, yp) + q ** (-(2 * k - 1)) * cross * e(xpp, yp)),
        )
        link = CheckReport(
            "second_site_link", x, y, params, 1, "H",
            fwd(xp, y), b1 * q ** (-k) * fwd(xpp, yp), case,
            "first sub-expectation ties to the two-particle-deep one",
        )
        return reports + [link]

    # above_second or at_third_or_later: y_k > x_2, occupied or not
    xp, xpp = x[1:], x[2:]
    gap = b2 ** (x[1] - x[0])
    return split(
        "above_second_split",
        lambda e: q ** (-k) * e(xp, y)
        + q ** (-(k - 1)) * gap * (e(xp, y) - q ** (-k) * e(xpp, y)),
    )


# --- sweeps ---------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """Finite enumeration domain for the duality sweep."""

    max_ell: int
    max_k: int
    window: tuple[int, int]
    t_range: tuple[int, ...] = (1,)
    params_list: tuple[Params, ...] = ()
    kinds: tuple[str, ...] = ("H",)

    def __post_init__(self) -> None:
        # type() rather than isinstance(): bools are not counts or sites
        if len(self.window) != 2 or any(type(v) is not int for v in self.window):
            raise ValueError(f"window must be two ints, got {self.window!r}")
        if type(self.max_ell) is not int or type(self.max_k) is not int:
            raise ValueError("max_ell and max_k must be ints")
        lo, hi = self.window
        if hi < lo:
            raise ValueError(f"empty window [{lo}, {hi}]")
        if self.max_k < 1:
            raise ValueError("max_k must be at least 1 (dual configs are nonempty)")
        if self.max_ell < 0:
            raise ValueError("max_ell must be >= 0")
        # the largest ℓ and k the window admits: a pair needs ℓ + k >= 2
        sites = hi - lo + 1
        if min(self.max_ell, sites) + min(self.max_k, sites) < 2:
            raise ValueError(
                f"the domain holds no (x, y) pair (max_ell {self.max_ell}, "
                f"max_k {self.max_k}, window [{lo}, {hi}]); nothing to check"
            )
        if not self.params_list:
            raise ValueError("at least one Params required")
        if not self.t_range or any(type(t) is not int or t < 0 for t in self.t_range):
            raise ValueError("t_range must be nonempty ints, all t >= 0")
        if not self.kinds:
            raise ValueError("kinds must be nonempty; nothing to check")
        for kind in self.kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}")

    def to_json_obj(self) -> dict:
        return {
            "max_ell": self.max_ell,
            "max_k": self.max_k,
            "window": list(self.window),
            "t_range": list(self.t_range),
            "kinds": list(self.kinds),
            "params": [p.to_json_obj() for p in self.params_list],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SweepSpec":
        if not isinstance(obj, dict):
            raise ValueError("a sweep spec must be a JSON object")
        for key in ("max_ell", "max_k", "window", "params"):
            if key not in obj:
                raise ValueError(f"missing the {key!r} field")
        _reject_unread(
            obj, ("max_ell", "max_k", "window", "t_range", "kinds", "params"), "the sweep spec"
        )
        for key in ("window", "t_range", "kinds", "params"):
            if not isinstance(obj.get(key, []), list):
                raise ValueError(f"{key} must be a JSON list, got {obj[key]!r}")
        return cls(
            max_ell=obj["max_ell"],
            max_k=obj["max_k"],
            window=tuple(obj["window"]),
            t_range=tuple(obj.get("t_range", [1])),
            params_list=tuple(Params.from_json_obj(p) for p in obj["params"]),
            kinds=tuple(obj.get("kinds", ["H"])),
        )


def iter_config_pairs(
    spec: SweepSpec,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All (x, y) in the window with ℓ ≤ max_ell, 1 ≤ k ≤ max_k, ℓ + k ≥ 2."""
    lo, hi = spec.window
    sites = range(lo, hi + 1)
    for ell in range(0, spec.max_ell + 1):
        for xs in combinations(sites, ell):
            for k in range(1, spec.max_k + 1):
                if ell + k < 2:
                    continue
                for ys in combinations(sites, k):
                    yield xs, tuple(reversed(ys))


def sweep_summary(verdicts: Counter[str], elapsed_ms: int) -> dict:
    """A sweep's summary line from the count of its reports by verdict."""
    return {
        "total": sum(verdicts.values()),
        "passed": verdicts["pass"],
        "failed": verdicts["fail"],
        "elapsed_ms": elapsed_ms,
    }


@dataclass
class SweepResult:
    reports: list[CheckReport]
    elapsed_ms: int

    @property
    def failures(self) -> list[CheckReport]:
        return [r for r in self.reports if r.verdict == "fail"]

    def summary(self) -> dict:
        return sweep_summary(Counter(r.verdict for r in self.reports), self.elapsed_ms)


def iter_sweep(spec: SweepSpec, mutation: Mutation | None = None) -> Iterator[CheckReport]:
    """Duality checks over every instance of the spec, canonically ordered.

    Instances are enumerated params-major, then kind, t, and configuration
    (:func:`iter_config_pairs`), so the report order is fixed by the spec.
    The answers come from tables: per parameter set, one
    :func:`~sixv.duality.expectation_table` call holds both sides, every
    kind at every distinct t.  On each side it groups the pairs by lump
    boundary into chains, scans each chain state's row once, and runs the
    backward equation with every fixed configuration's H, G and D packed
    into one integer per state, in slots wide enough that no sum carries
    over, building one Fraction per distinct reduced value for both sides
    together, so a report whose sides are equal holds one object twice
    and passes without a comparison.  Each report is exactly what
    :func:`check_duality` gives for its instance.  Reports are yielded as
    they are made: a parameter set's tables are built only when its first
    report is asked for.  ``mutation`` is the negative-control hook: it injects a deliberate
    defect so the sweep can demonstrate it would catch a wrong
    implementation.
    """
    pairs = list(iter_config_pairs(spec))
    cases = [_case_label(x, y) for x, y in pairs]
    for params in spec.params_list:
        lhs_table, rhs_table = expectation_table(pairs, spec.t_range, params, mutation)
        for kind in spec.kinds:
            i = KINDS.index(kind)
            for t in spec.t_range:
                for (x, y), case, lhs, rhs in zip(pairs, cases, lhs_table[t], rhs_table[t]):
                    yield CheckReport("duality", x, y, params, t, kind, lhs[i], rhs[i], case)


def run_sweep(spec: SweepSpec, mutation: Mutation | None = None) -> SweepResult:
    """Every report of :func:`iter_sweep`, collected, with the time they took."""
    start = time.monotonic()
    reports = list(iter_sweep(spec, mutation))
    return SweepResult(reports, int((time.monotonic() - start) * 1000))
