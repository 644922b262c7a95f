"""Manifold specifications: the built-in catalog and config-file ingestion.

A :class:`ManifoldSpec` is a single 4-dimensional chart: metric entries as
expressions over the chart coordinates, an optional almost complex structure
J given the same way, a sampling domain, and ground-truth tags that the
conditions module re-verifies numerically.

There is one way to define one: a config file read by
:func:`load_manifold_config`, which validates it.  The built-in entries are
such files, shipped in ``manifolds/``.  Their Kahler entries are written in
real coordinates (u, v, p, q) = (Re z1, Im z1, Re z2, Im z2); the metric
components were derived offline from the potentials and entered as explicit
expressions, so the engine never differentiates potentials symbolically.
Correctness is caught downstream by the nabla-J = 0 invariant.
"""

from __future__ import annotations

import configparser
import functools
import io
import unicodedata
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import Weyl4Error, exprjet
from .exprjet import AXES, Expr, Tape, compile_tape, expr_to_string, parse_expression
from .pointgeom import MetricError, MetricPoint, PointError, check_acs

KNOWN_TAGS = ("flat", "einstein", "kahler", "almost-kahler", "constant-s", "conformally-flat")


class CatalogError(Weyl4Error):
    """Config parsing or manifold validation failure."""


class EntryError(CatalogError):
    """An entry of manifold ``manifold`` that fails to evaluate; ``line``
    names the entry and the first point at which it fails."""

    def __init__(self, manifold: str, line: str):
        self.line = line
        super().__init__(f"manifold '{manifold}': {line}")


def normalize_tag(tag: str) -> str:
    decomposed = unicodedata.normalize("NFD", tag.strip().lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


@dataclass(frozen=True)
class ManifoldSpec:
    """One chart: the metric grid as given (g_ji omitted is g_ij), J, domain and tags.  ``metric_point``
    and ``j_jets`` run each grid's tape under the one guard, at load and at run time alike: an entry
    that fails names the manifold, the entry and the first failing point.  Symmetry of g is the metric
    check of ``MetricPoint.from_jets``."""

    id: str
    coords: tuple[str, str, str, str]
    metric_exprs: tuple  # 4x4 nested tuple of Expr
    j_exprs: Optional[tuple]  # 4x4 nested tuple of Expr, or None
    domain: tuple  # 4 pairs (lo, hi)
    compact: bool
    tags: frozenset
    notes: str = ""
    # compiled once per spec from the grids as given, with the coordinates they read
    metric_tape: Tape = field(init=False, repr=False, compare=False)
    j_tape: Optional[Tape] = field(init=False, repr=False, compare=False)
    _read_axes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "metric_tape", compile_tape(self.metric_exprs))
        object.__setattr__(self, "j_tape", None if self.j_exprs is None else compile_tape(self.j_exprs))
        tapes = filter(None, (self.metric_tape, self.j_tape))
        axes = {param for tape in tapes for kind, _, param in tape.ops if kind == "coord"}
        object.__setattr__(self, "_read_axes", tuple(sorted(axes)))

    @property
    def has_j(self) -> bool:
        return self.j_exprs is not None

    def metric_point(self, point: Sequence[float], order: int, axes: tuple = AXES) -> MetricPoint:
        """The checked metric with its jets in the variables ``axes`` (all four by default;
        they must include ``read_axes()``) at a point or a stack of points."""
        jets = self._guarded(self.metric_tape, self.metric_exprs, "g_{}{}", point, order, axes)
        return MetricPoint.from_jets(point, jets, order, axes)

    def j_jets(self, point: Sequence[float], order: int, axes: tuple = AXES) -> np.ndarray:
        """Jets of J (the spec must have one) in the variables ``axes`` at a point or a stack of points."""
        return self._guarded(self.j_tape, self.j_exprs, "J_{}_{}", point, order, axes)

    def _guarded(self, tape: Tape, grid: tuple, entry: str, point, order: int, axes: tuple) -> np.ndarray:
        """``eval_jet`` of ``tape`` under the one guard: where an expression
        fails, an :class:`EntryError` naming the first point at which an
        entry of ``grid`` (``entry`` formats its indices) fails on its own,
        or, if none does, the first entry failing over the whole stack.
        The point is found by bisecting the stack, since a stack fails where
        one of its points fails alone; a candidate that passes alone (a
        failure no single point shows) falls back to the whole stack."""
        try:
            return exprjet.eval_jet(tape, point, order, axes)
        except exprjet.ExpressionError as exc:
            failure = exc
        point = np.asarray(point, dtype=float)
        rows = point.reshape(-1, 4)
        lo, hi = 0, len(rows)  # rows[lo:hi] fails
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                exprjet.eval_jet(tape, rows[lo:mid], order, axes)
                lo = mid
            except exprjet.ExpressionError:
                hi = mid
        for where in (rows[lo], point):
            for i, j in np.ndindex(4, 4):
                try:
                    exprjet.eval_jet(grid[i][j], where, order, axes)
                except exprjet.ExpressionError as exc:
                    at = f" at {where.tolist()}" if where.ndim == 1 else ""
                    raise EntryError(self.id, f"{entry.format(i + 1, j + 1)} evaluation failed{at}: {exc}")
        raise EntryError(self.id, f"evaluation failed: {failure}")

    def read_axes(self) -> tuple[int, ...]:
        """The coordinates the metric or J tape reads.  Along any other axis
        every quantity built from the spec is exactly constant, and every jet
        coefficient with a power of it is exactly zero."""
        return self._read_axes

    def volume_density(self, points: np.ndarray) -> np.ndarray:
        """sqrt(det g) at each point of an (n, 4) stack, from the checked metric; a
        :class:`MetricError` where it over- or underflows, though g is finite."""
        g = self.metric_point(points, 0).g
        with np.errstate(over="ignore", under="ignore"):  # reported below, by point
            density = np.sqrt(np.linalg.det(g))
        bad = np.flatnonzero(~(np.isfinite(density) & (density > 0.0)))
        if bad.size:
            k = bad[0]
            raise MetricError(f"volume density {float(density[k])!r} outside the float range", points[k], "metric")
        return density

    def sample_points(self, n: int, rng: np.random.Generator, margin: float = 0.1) -> np.ndarray:
        los = np.array([lo + margin * (hi - lo) for lo, hi in self.domain])
        his = np.array([hi - margin * (hi - lo) for lo, hi in self.domain])
        return rng.uniform(los, his, size=(n, 4))


MANIFOLDS = Path(__file__).with_name("manifolds")


def builtin_manifolds() -> list[ManifoldSpec]:
    """The catalog: flat baselines, Kahler potentials, and the strictly
    almost Kahler nilmanifold, plus conformal and perturbed-J foils.

    Each entry is a config file in ``manifolds/``, loaded and validated once
    per process; each call returns a fresh list."""
    return list(_parsed_catalog())


@functools.lru_cache(maxsize=None)
def _parsed_catalog() -> tuple[ManifoldSpec, ...]:
    return tuple(load_manifold_config(str(p)) for p in sorted(MANIFOLDS.glob("*.cfg")))


def get_manifold(name: str) -> ManifoldSpec:
    specs = builtin_manifolds()
    for spec in specs:
        if spec.id == name:
            return spec
    raise CatalogError(f"unknown manifold '{name}' (known: {', '.join(s.id for s in specs)})")


def conformally_rescaled(spec: ManifoldSpec, f_text: str, new_id: Optional[str] = None) -> ManifoldSpec:
    """Spec for gbar = exp(f) g with f given as an expression string."""
    f = parse_expression(f_text, spec.coords)
    factor = exprjet.Call("exp", f)
    new_metric = tuple(
        tuple(exprjet.BinOp("*", factor, e) for e in row) for row in spec.metric_exprs
    )
    return replace(
        spec,
        id=new_id or f"{spec.id}_conformal",
        metric_exprs=new_metric,
        tags=frozenset(),
        notes=f"conformal rescaling of {spec.id} by exp({f_text})",
    )


# ---------------------------------------------------------------------------
# Config files
# ---------------------------------------------------------------------------


def load_manifold_config(path: str) -> ManifoldSpec:
    """Load and eagerly validate a manifold config file.

    A malformed file raises :class:`CatalogError` at its first problem.  A
    well-formed one becomes a spec whose metric grid holds each entry as
    given (g_ji only where omitted is g_ij), and ``validate_spec`` runs the
    run-time checks on it: an entry that fails to evaluate, a pair g_ij,
    g_ji that differs, a metric that is not positive definite or a J that
    is not compatible is named with its rule or entry and the first failing
    sample, in one line under the manifold's name.
    """
    # no interpolation: a '%' is text in a note and a syntax error in an expression
    parser = configparser.ConfigParser(delimiters=("=",), inline_comment_prefixes=("#", ";"), interpolation=None)
    parser.optionxform = str  # keys are case sensitive (coordinate names)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise CatalogError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise CatalogError(f"config parse error in {path}: {exc}")

    if "manifold" not in parser:
        raise CatalogError("config missing [manifold] section")
    man = parser["manifold"]
    mid = man.get("id", "").strip()
    if not mid:
        raise CatalogError("[manifold] must set 'id'")
    coords = tuple(c.strip() for c in man.get("coords", "").split(",") if c.strip())
    if len(coords) != 4:
        raise CatalogError(f"exactly 4 coordinates required, got {len(coords)} ({coords})")
    compact = man.get("compact", "false").strip().lower() in ("true", "yes", "1")

    domain_text = man.get("domain", "")
    intervals = [part.strip() for part in domain_text.split(",") if part.strip()]
    if len(intervals) != 4:
        raise CatalogError(f"'domain' must give 4 intervals 'lo..hi', got {domain_text!r}")
    domain = []
    for part in intervals:
        try:
            lo_s, hi_s = part.split("..")
            lo, hi = float(lo_s), float(hi_s)
        except ValueError:
            raise CatalogError(f"bad domain interval {part!r} (expected 'lo..hi')")
        if not np.isfinite(hi - lo):  # an infinite end, NaN, or a width past the float range
            raise CatalogError(f"domain interval {part!r} is not finite")
        if not lo < hi:
            raise CatalogError(f"empty domain interval {part!r}")
        domain.append((lo, hi))

    if "metric" not in parser:
        raise CatalogError("config missing [metric] section")

    def entries(section: str, prefixes: tuple, expected: str) -> dict[tuple[int, int], Expr]:
        """The parsed entries of ``section`` by index pair, each set by one key."""
        keys: dict[tuple[int, int], str] = {}
        exprs: dict[tuple[int, int], Expr] = {}
        for key, text in parser[section].items():
            idx = _index_key(key, prefixes)
            if idx is None:
                raise CatalogError(f"[{section}] unrecognized key '{key}' (expected {expected})")
            if idx in keys:
                raise CatalogError(f"[{section}] keys '{keys[idx]}' and '{key}' set the same entry")
            keys[idx] = key
            try:
                exprs[idx] = parse_expression(text, coords)
            except exprjet.ExpressionError as exc:
                raise CatalogError(f"[{section}] {key}: {exc}")
        return exprs

    metric_entries = entries("metric", ("g_",), "g_11 .. g_44")
    for i in range(4):
        if (i, i) not in metric_entries:
            raise CatalogError(f"[metric] missing diagonal entry g_{i+1}{i+1}")

    zero = exprjet.Num(0.0)
    metric_grid = tuple(
        tuple(metric_entries.get((i, j), metric_entries.get((j, i), zero)) for j in range(4)) for i in range(4)
    )

    j_grid = None
    if "structure" in parser and list(parser["structure"].keys()):
        j_entries = entries("structure", ("J_", "j_"), "J_1_1 .. J_4_4")
        j_grid = tuple(tuple(j_entries.get((i, j), zero) for j in range(4)) for i in range(4))

    tags: frozenset = frozenset()
    if "tags" in parser and parser["tags"].get("tags", "").strip():
        tags = frozenset(normalize_tag(t) for t in parser["tags"]["tags"].split(",") if t.strip())
        unknown = tags - set(KNOWN_TAGS)
        if unknown:
            raise CatalogError(f"[tags] unknown tags {sorted(unknown)}; known: {KNOWN_TAGS}")

    spec = ManifoldSpec(
        id=mid,
        coords=coords,
        metric_exprs=metric_grid,
        j_exprs=j_grid,
        domain=tuple(domain),
        compact=compact,
        tags=tags,
        notes=man.get("notes", "").strip() or f"loaded from {path}",
    )

    violations = validate_spec(spec)
    if violations:
        raise CatalogError(
            f"manifold '{mid}' failed validation:\n  - " + "\n  - ".join(violations)
        )
    return spec


def _index_key(key: str, prefixes: tuple):
    """(i, j) of a matrix entry key such as ``g_12``, ``g_1_2`` or ``J_3_4``; None if malformed."""
    key = key.strip()
    prefix = next((p for p in prefixes if key.startswith(p)), None)
    if prefix is not None:
        digits = key[len(prefix):].replace("_", "")
        if len(digits) == 2 and digits.isdigit():
            i, j = int(digits[0]) - 1, int(digits[1]) - 1
            if 0 <= i < 4 and 0 <= j < 4:
                return (i, j)
    return None


def validate_spec(spec: ManifoldSpec) -> list[str]:
    """The run-time checks on a stack of 20 domain samples (seed 0):
    ``spec.metric_point``, then, with J, ``spec.j_jets`` and ``check_acs``.
    Returns the violation, worded as at run time and naming the first failing
    sample (without the manifold, which the loader names), or an empty list."""
    pts = spec.sample_points(20, np.random.default_rng(0))
    try:
        mp = spec.metric_point(pts, 0)
        if spec.has_j:
            check_acs(spec.j_jets(pts, 0)[..., 0], mp)
    except EntryError as exc:
        return [exc.line]
    except PointError as exc:
        return [str(exc)]
    return []


def spec_to_config(spec: ManifoldSpec) -> str:
    """Render a spec in the config-file format (round-trip convenience)."""
    buf = io.StringIO()
    buf.write("[manifold]\n")
    buf.write(f"id = {spec.id}\n")
    buf.write(f"coords = {', '.join(spec.coords)}\n")
    buf.write(f"compact = {str(spec.compact).lower()}\n")
    buf.write("domain = " + ", ".join(f"{lo}..{hi}" for lo, hi in spec.domain) + "\n")
    buf.write(f"notes = {spec.notes}\n\n")
    buf.write("[metric]\n")
    for i, j in np.ndindex(4, 4):  # a lower entry only where it differs from its upper one
        text = expr_to_string(spec.metric_exprs[i][j])
        if i == j or (i < j and text != "0.0") or (i > j and text != expr_to_string(spec.metric_exprs[j][i])):
            buf.write(f"g_{i+1}{j+1} = {text}\n")
    if spec.has_j:
        buf.write("\n[structure]\n")
        for i in range(4):
            for j in range(4):
                text = expr_to_string(spec.j_exprs[i][j])
                if text != "0.0":
                    buf.write(f"J_{i+1}_{j+1} = {text}\n")
    if spec.tags:
        buf.write("\n[tags]\n")
        buf.write("tags = " + ", ".join(sorted(spec.tags)) + "\n")
    return buf.getvalue()
