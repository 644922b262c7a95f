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
from .exprjet import Expr, Tape, compile_tape, eval_values, expr_to_string, parse_expression
from .pointgeom import MetricPoint, PointError, check_acs

KNOWN_TAGS = ("flat", "einstein", "kahler", "almost-kahler", "constant-s", "conformally-flat")


class CatalogError(Weyl4Error):
    """Config parsing or manifold validation failure."""


def normalize_tag(tag: str) -> str:
    decomposed = unicodedata.normalize("NFD", tag.strip().lower())
    return "".join(c for c in decomposed if not unicodedata.combining(c))


@dataclass(frozen=True)
class ManifoldSpec:
    id: str
    coords: tuple[str, str, str, str]
    metric_exprs: tuple  # 4x4 nested tuple of Expr
    j_exprs: Optional[tuple]  # 4x4 nested tuple of Expr, or None
    domain: tuple  # 4 pairs (lo, hi)
    compact: bool
    tags: frozenset
    notes: str = ""
    # compiled once per spec: the metric from its upper triangle, and J
    metric_tape: Tape = field(init=False, repr=False, compare=False)
    j_tape: Optional[Tape] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        upper = [[self.metric_exprs[min(i, j)][max(i, j)] for j in range(4)] for i in range(4)]
        object.__setattr__(self, "metric_tape", compile_tape(upper))
        object.__setattr__(self, "j_tape", None if self.j_exprs is None else compile_tape(self.j_exprs))

    @property
    def has_j(self) -> bool:
        return self.j_exprs is not None

    def metric_point(self, point: Sequence[float], order: int) -> MetricPoint:
        return MetricPoint.from_jets(point, exprjet.eval_jet(self.metric_tape, point, order), order)

    def j_jets(self, point: Sequence[float], order: int = 2) -> np.ndarray:
        """Jets of J (the spec must have one) at a point or a stack of points."""
        return exprjet.eval_jet(self.j_tape, point, order)

    def metric_values(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        """Vectorized metric matrices; trailing axes are (4, 4)."""
        return np.moveaxis(eval_values(self.metric_tape, coords), (0, 1), (-2, -1))

    def volume_density(self, coords: Sequence[np.ndarray]) -> np.ndarray:
        g = self.metric_values(coords)
        return np.sqrt(np.linalg.det(g))

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
    well-formed one is then checked as a whole: each pair g_ij, g_ji given
    as different expressions must agree at the samples of ``validate_spec``,
    which then runs the run-time metric and structure checks on them.  The
    error lists one line per failing pair and the ``validate_spec`` line,
    each naming its entry or rule and the first failing sample.
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
        if not lo < hi:
            raise CatalogError(f"empty domain interval {part!r}")
        domain.append((lo, hi))

    if "metric" not in parser:
        raise CatalogError("config missing [metric] section")

    def parse_entry(section: str, key: str, text: str) -> Expr:
        try:
            return parse_expression(text, coords)
        except exprjet.ExpressionError as exc:
            raise CatalogError(f"[{section}] {key}: {exc}")

    metric_entries: dict[tuple[int, int], Expr] = {}
    for key, text in parser["metric"].items():
        idx = _index_key(key, ("g_",))
        if idx is None:
            raise CatalogError(f"[metric] unrecognized key '{key}' (expected g_11 .. g_44)")
        metric_entries[idx] = parse_entry("metric", key, text)
    for i in range(4):
        if (i, i) not in metric_entries:
            raise CatalogError(f"[metric] missing diagonal entry g_{i+1}{i+1}")

    zero = exprjet.Num(0.0)
    metric_grid = []
    sym_conflicts = []
    for i in range(4):
        row = []
        for j in range(4):
            a = metric_entries.get((i, j))
            b = metric_entries.get((j, i))
            if a is not None and b is not None and i < j and a != b:
                sym_conflicts.append((i, j, a, b))
            row.append(a if a is not None else (b if b is not None else zero))
        metric_grid.append(tuple(row))
    metric_grid = tuple(metric_grid)

    j_grid = None
    if "structure" in parser and list(parser["structure"].keys()):
        j_entries: dict[tuple[int, int], Expr] = {}
        for key, text in parser["structure"].items():
            idx = _index_key(key, ("J_", "j_"))
            if idx is None:
                raise CatalogError(f"[structure] unrecognized key '{key}' (expected J_1_1 .. J_4_4)")
            j_entries[idx] = parse_entry("structure", key, text)
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

    violations = []
    for i, j, a, b in sym_conflicts:
        pair = {f"g_{i+1}{j+1}": a, f"g_{j+1}{i+1}": b}
        try:
            if not _numerically_equal(pair, _validation_points(spec)):
                violations.append(f"metric entries {' and '.join(pair)} differ textually "
                                  f"({expr_to_string(a)!r} vs {expr_to_string(b)!r})")
        except CatalogError as exc:
            violations.append(str(exc))
    violations += validate_spec(spec)
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


def _validation_points(spec: ManifoldSpec) -> np.ndarray:
    return spec.sample_points(20, np.random.default_rng(0))


def _guarded(run, pts: np.ndarray, entries: dict):
    """``run()``; where an expression fails in it, a CatalogError naming the
    first sample at which one of ``entries`` (name -> Expr) fails on its own,
    or, if none does, the first entry failing over the whole stack."""
    try:
        return run()
    except exprjet.ExpressionError as exc:
        failure = exc
    for where in (*pts, pts):
        for name, e in entries.items():
            try:
                exprjet.eval_jet(e, where, 0)
            except exprjet.ExpressionError as exc:
                at = f" at {where.tolist()}" if where.ndim == 1 else ""
                raise CatalogError(f"{name} evaluation failed{at}: {exc}")
    raise CatalogError(f"evaluation failed: {failure}")


def _numerically_equal(entries: dict, pts: np.ndarray) -> bool:
    """Whether the two expressions of ``entries`` agree to 1e-10 of their largest value at ``pts``."""
    va, vb = _guarded(lambda: eval_values(compile_tape(list(entries.values())), list(pts.T)), pts, entries)
    scale = max(np.abs(va).max(), np.abs(vb).max(), 1.0)
    return bool(np.abs(va - vb).max() <= 1e-10 * scale)


def validate_spec(spec: ManifoldSpec) -> list[str]:
    """The run-time checks on a stack of 20 domain samples (seed 0): the
    metric check of ``MetricPoint.from_jets``, then, with J, ``check_acs``.
    Returns the violation, worded as at run time and naming the first failing
    sample, or an empty list."""
    pts = _validation_points(spec)
    metric = {f"g_{i+1}{j+1}": spec.metric_exprs[i][j] for i in range(4) for j in range(i, 4)}
    try:
        mp = _guarded(lambda: spec.metric_point(pts, 0), pts, metric)
        if spec.has_j:
            structure = {f"J_{i+1}_{j+1}": spec.j_exprs[i][j] for i in range(4) for j in range(4)}
            _guarded(lambda: check_acs(spec.j_jets(pts, 0)[..., 0], mp), pts, structure)
    except (CatalogError, PointError) as exc:
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
    for i in range(4):
        for j in range(i, 4):
            text = expr_to_string(spec.metric_exprs[i][j])
            if text != "0.0" or i == j:
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
