"""Core types for the stochastic six vertex particle system.

Conventions used throughout the package:

* Lattice sites are plain Python ints.
* A *location configuration* is a strictly increasing tuple of occupied
  sites, listed left to right.  The forward process updates these from the
  leftmost particle onward and particles only ever jump right.
* A *reversed configuration* is strictly decreasing (rightmost first); the
  reversed process updates from the rightmost particle and jumps left.
* These position tuples are the only configuration type: occupations and
  heights are read off them where a functional needs them
  (:mod:`sixv.duality`).
* Every probability on the exact code path is exact: parameters are
  ``fractions.Fraction``, and every law, from the first particle of a
  one-step enumeration on, is integer numerators over a shared integer
  denominator.  Floats appear only in the Monte Carlo estimator.  Its
  sampler compares each ``random()`` draw with an exact float threshold
  (:func:`float_threshold`): the same test as against the Fraction, with
  no rational arithmetic per draw.

Parameters are the per-site jump probabilities ``b1`` (probability that an
unconstrained particle holds still) and ``b2`` (probability of passing
through one more empty site), tied together by the asymmetry ratio
``q = b1 / b2`` which is shared by all sites.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Mapping

# A strictly increasing tuple of occupied sites (forward process order).
LocationConfig = tuple[int, ...]
# A strictly decreasing tuple of occupied sites (reversed process order).
ReversedConfig = tuple[int, ...]

# random.random() draws from the multiples of 1/_DRAW_GRID in [0, 1).
_DRAW_GRID = 2**53


def parse_rational(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a bare integer string) into a Fraction.

    Floats and float-looking strings are rejected: the exact code path
    never goes through binary floating point.
    """
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"rational must be a 'num/den' string, got {text!r}")
    s = text.strip()
    if "." in s or "e" in s.lower():
        raise ValueError(f"rational {text!r} looks like a float; use num/den")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse rational {text!r}: {exc}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``num/den`` with the denominator always spelled out.

    Values past the interpreter's int-to-str digit limit are still printed
    in full; the limit itself stays in force for parsing input.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _decimal(n: int, width: int = 0) -> str:
    """str(n) zero-padded to ``width``, built from pieces short enough for str().

    Splitting at a power of ten near half the digits keeps every piece under
    640 digits, the lowest limit the interpreter can be set to.
    """
    if n < 0:
        return "-" + _decimal(-n, width)
    if n.bit_length() < 1700:  # at most 512 digits
        return str(n).zfill(width)
    half = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10**half)
    return _decimal(high, width - half) + _decimal(low, half)


def float_threshold(p: Fraction) -> float:
    """The float T with ``r < T`` exactly when ``r < p``, for every ``random()`` draw r.

    ``random.random()`` returns k/2^53 for an integer k in [0, 2^53), and
    k < p·2^53 holds exactly when k < ceil(p·2^53).  For p in [0, 1] that
    ceiling is an integer at most 2^53, so T = ceil(p·2^53)/2^53 is a float
    with no rounding.  ``float(p)`` would not do: it may round down onto
    the grid point just below p (p = 2/3 does) and so drop one k.
    """
    return -(-p.numerator * _DRAW_GRID // p.denominator) / _DRAW_GRID


def _check_prob_open(name: str, value: Fraction) -> None:
    if not isinstance(value, Fraction):
        raise ValueError(f"{name} must be a Fraction, got {type(value).__name__}")
    if not (0 < value < 1):
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")


@dataclass(frozen=True)
class Params:
    """Jump parameters, possibly varying by site.

    ``q`` is the ratio b1/b2 common to every site.  ``b2`` is the default
    pass-through probability and ``b2_sites`` lists ``(site, value)``
    overrides; ``b1`` at a site is always derived as ``q * b2_at(site)``,
    so the coupling b1 = q*b2 holds by construction.  Use
    :meth:`from_b1_b2` to build homogeneous parameters from explicit b1
    and b2.

    ``hold_thresholds`` and ``stop_thresholds`` are derived, not fields (so
    they stay out of equality and hashing): ``(by_site, default)`` pairs of
    :func:`float_threshold` of b1 and of 1 - b2, which the sampler compares
    its draws with.  ``json_text`` is derived the same way: ``json.dumps``
    of :meth:`to_json_obj`, formatted once for every report line that
    carries these parameters.
    """

    q: Fraction
    b2: Fraction
    b2_sites: tuple[tuple[int, Fraction], ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.q, Fraction) or self.q <= 0:
            raise ValueError(f"q must be a positive Fraction, got {self.q!r}")
        _check_prob_open("b2", self.b2)
        _check_prob_open("b1 = q*b2", self.q * self.b2)
        seen: set[int] = set()
        for site, value in self.b2_sites:
            if not isinstance(site, int) or isinstance(site, bool):
                raise ValueError(f"b2_sites keys must be ints, got {site!r}")
            if site in seen:
                raise ValueError(f"duplicate b2 override for site {site}")
            seen.add(site)
            _check_prob_open(f"b2 at site {site}", value)
            _check_prob_open(f"b1 = q*b2 at site {site}", self.q * value)
        # Canonical order so equal parameter sets hash equally.
        object.__setattr__(self, "b2_sites", tuple(sorted(self.b2_sites)))
        # Params key every exact-engine cache, so the Fractions are hashed
        # once here; b2_at, called per site visited, reads a dict.
        object.__setattr__(self, "_hash", hash((self.q, self.b2, self.b2_sites)))
        object.__setattr__(self, "_b2_by_site", dict(self.b2_sites))
        hold = {site: float_threshold(self.q * value) for site, value in self.b2_sites}
        stop = {site: float_threshold(1 - value) for site, value in self.b2_sites}
        object.__setattr__(self, "hold_thresholds", (hold, float_threshold(self.b1)))
        object.__setattr__(self, "stop_thresholds", (stop, float_threshold(1 - self.b2)))
        object.__setattr__(self, "json_text", json.dumps(self.to_json_obj()))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def homogeneous(cls, q: Fraction | str, b2: Fraction | str) -> "Params":
        return cls(q=parse_rational(q), b2=parse_rational(b2))

    @classmethod
    def from_b1_b2(cls, b1: Fraction | str, b2: Fraction | str) -> "Params":
        """Homogeneous parameters from explicit b1 and b2, with q = b1/b2."""
        b1 = parse_rational(b1)
        b2 = parse_rational(b2)
        _check_prob_open("b1", b1)
        _check_prob_open("b2", b2)
        return cls(q=b1 / b2, b2=b2)

    @property
    def b1(self) -> Fraction:
        """Default hold probability, q * b2."""
        return self.q * self.b2

    def b2_at(self, site: int) -> Fraction:
        return self._b2_by_site.get(site, self.b2)

    def b1_at(self, site: int) -> Fraction:
        return self.q * self.b2_at(site)

    def is_homogeneous(self) -> bool:
        return all(value == self.b2 for _, value in self.b2_sites)

    def to_json_obj(self) -> dict:
        q, b2 = format_rational(self.q), format_rational(self.b2)
        if self.b2_sites:
            sites = {str(site): format_rational(value) for site, value in self.b2_sites}
            return {"q": q, "b2_default": b2, "b2_sites": sites}
        return {"q": q, "b2": b2}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Params":
        """Parse what :meth:`to_json_obj` writes; any other field is an error."""
        q = _rational_field(obj, "q")
        if "b2_sites" in obj:
            if not isinstance(obj["b2_sites"], Mapping):
                raise ValueError(f"b2_sites must be a JSON object, got {obj['b2_sites']!r}")
            default = _rational_field(obj, "b2_default")
            _reject_unread(obj, ("q", "b2_default", "b2_sites"), "parameters with b2_sites")
            sites = tuple(
                sorted((_site_key(k), parse_rational(v)) for k, v in obj["b2_sites"].items())
            )
            return cls(q=q, b2=default, b2_sites=sites)
        b2 = _rational_field(obj, "b2")
        _reject_unread(obj, ("q", "b2"), "parameters")
        return cls(q=q, b2=b2)


def _reject_unread(obj: Mapping, fields: Iterable[str], what: str) -> None:
    """Reject a JSON object with any key outside ``fields``, naming each one."""
    unread = sorted(repr(key) for key in obj if key not in fields)
    if unread:
        plural = "s" if len(unread) > 1 else ""
        raise ValueError(f"unknown field{plural} {', '.join(unread)} in {what}")


def _rational_field(obj: Mapping, name: str) -> Fraction:
    """The rational under ``name`` in a parameters object, which must have it."""
    if name not in obj:
        raise ValueError(f"parameters are missing the {name!r} field")
    return parse_rational(obj[name])


def _site_key(key: str) -> int:
    """A ``b2_sites`` key, accepted only as :meth:`Params.to_json_obj` writes it."""
    try:
        if str(int(key)) == key:
            return int(key)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"b2_sites key {key!r} must be a plain integer such as '-3' or '10'")


# The homogeneous parameter pairs every standard sweep runs over: two
# asymmetry regimes q = 2, 1/2 and a repeat of q = 2 at a different scale.
STANDARD_PARAMS: tuple[Params, ...] = (
    Params.from_b1_b2("1/2", "1/4"),
    Params.from_b1_b2("1/4", "1/2"),
    Params.from_b1_b2("1/3", "1/6"),
)

INHOM_PALETTE: tuple[Fraction, ...] = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2))


def cycled_inhom_params(lo: int, hi: int, q: Fraction = Fraction(1, 2)) -> Params:
    """Deterministic site-varying parameters: the palette cycled over [lo, hi]."""
    sites = tuple(
        (site, INHOM_PALETTE[(site - lo) % len(INHOM_PALETTE)])
        for site in range(lo, hi + 1)
    )
    return Params(q=q, b2=INHOM_PALETTE[0], b2_sites=sites)


def validate_location(positions: Iterable[int]) -> LocationConfig:
    """Normalize to a strictly increasing tuple; reject disorder or repeats."""
    return _validate_ordered(positions, operator.lt, "location configuration", "increasing")


def validate_reversed(positions: Iterable[int]) -> ReversedConfig:
    """Normalize to a strictly decreasing tuple (reversed process order)."""
    return _validate_ordered(positions, operator.gt, "reversed configuration", "decreasing")


def _validate_ordered(
    positions: Iterable[int], in_order: Callable[[int, int], bool], what: str, order: str
) -> tuple[int, ...]:
    """Int positions as a tuple, each neighbour pair ``in_order``; else a ValueError."""
    pos = tuple(positions)
    for p in pos:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"positions must be ints, got {p!r}")
    if not all(map(in_order, pos, pos[1:])):
        raise ValueError(f"{what} must be strictly {order}: {pos}")
    return pos


def validate_instance(
    x: Iterable[int], y: Iterable[int]
) -> tuple[LocationConfig, ReversedConfig]:
    """Validate a duality instance: x increasing, y decreasing and nonempty."""
    x = validate_location(x)
    y = validate_reversed(y)
    if not y:
        raise ValueError("y must contain at least one dual particle")
    return x, y


class VertexType(Enum):
    """The six local arrow configurations, numbered in the conventional order."""

    I = 1
    II = 2
    III = 3
    IV = 4
    V = 5
    VI = 6


@lru_cache(maxsize=None)
def vertex_weight(vtype: VertexType, params: Params, site: int = 0) -> Fraction:
    """Stochastic weight of a vertex type at ``site``.

    Types I and II are frozen (weight 1); III/IV carry the pass-through
    probability and V/VI the hold probability.  Complementary pairs sum
    to 1, which is what makes the row-to-row update a Markov kernel.  The
    exact engine reads every factor of its move lists from here, site by
    site along each walk, so the weights are cached rather than rebuilt as
    new Fractions on every read.
    """
    if vtype in (VertexType.I, VertexType.II):
        return Fraction(1)
    if vtype in (VertexType.III, VertexType.IV):
        weight = params.b2_at(site)
    else:
        weight = params.b1_at(site)
    return weight if vtype in (VertexType.III, VertexType.V) else 1 - weight
