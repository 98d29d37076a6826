"""Scenario runner: orchestrates the interior quasiconvexity checks, the
boundary sublinearity checks, the sequence cross-validation and report
emission.

The overall verdict is

  * not-wlsc        -- some check reported a violation (with a witness, and,
                       when sequences are enabled and the violation sits at
                       the boundary, an executable necessity certificate);
  * wlsc-plausible  -- every sampled check passed at full confidence, and the
                       evidence is complete: some qc check ran, every
                       requested boundary point (polygon corners included)
                       has a qslb report, and the liminf table, when run,
                       shows no empirical lsc violation;
  * inconclusive    -- no check reported a violation, but some check errored
                       (its message is in `errors`), some solve hit its
                       iteration cap with a large stationarity residual, or
                       the evidence is incomplete as above.

Interior almost-everywhere quasiconvexity is sampled at finitely many points,
so a passing run is evidence, not proof; violations are certificates up to
quadrature.  report.json is deterministic for a fixed config and seed: it
carries no wall-clock data (timings go to a separate file).
"""

import copy
import csv
import io
import itertools
import json
import math
import re
import time
from pathlib import Path

import numpy as np

from .boundary import equivalence_harness, halfball_deficits, qslb_deficits
from .decompose import CoverSpec, local_decompose, require_1d, verify_properties
from .integrands import CATALOG, MU_SAMPLES, catalog_get, mu_estimate, freeze_x
from . import minimize
from .meshing import Domain, MeshBudgetError, build_mesh
from .minimize import SolverBudgetError, SolverOptions
from .quasiconvex import closed_form_split, default_qc_mesh, qc_deficits
from .regions import CompactSet
from .sequences import (
    PROFILES,
    SEQUENCE_KINDS,
    NecessityTransferError,
    SequenceSpec,
    empirical_liminf,
    generate,
    necessity_witness,
)

__all__ = ["Scenario", "Verdict", "ConfigError", "analyze", "run_scenario"]

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    def __init__(self, messages):
        super().__init__("; ".join(m for m, _ in messages))
        self.messages = messages


def _finite_number(x):
    """A JSON number (not a bool) with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _count(x):
    """A JSON integer (not a bool) >= 0."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= 0


class _Accepts:
    """The values a config key accepts: a test, and the phrase naming them in
    error messages and in FORMATS.md."""

    def __init__(self, what, test, form="'{key}' must be {what}, got {value!r}"):
        self.what, self.test, self.form = what, test, form

    def message(self, key, value):
        return self.form.format(key=key, what=self.what, value=value)


def _one_of(noun, choices):
    return _Accepts("one of " + "|".join(choices), lambda v: v in choices,
                    f"unknown {noun} {{value!r}} ({'|'.join(choices)})")


_BOOL = _Accepts("true or false", lambda v: isinstance(v, bool))
_COUNT = _Accepts("a non-negative integer", _count)
_POSITIVE_INT = _Accepts("a positive integer", lambda v: _count(v) and v > 0)
# Sequence members cost most on a polygon, where fixed_trace_oscillation
# member n takes a 2n x n grid: 128 members take about 4 s there (1D: 0.1 s)
# on a 2-CPU Xeon; at 256 the liminf table runs 21 s before its mesh overruns
# the cell budget.
_MEMBERS = _Accepts("a positive integer at most 128",
                    lambda v: _POSITIVE_INT.test(v) and v <= 128)
_POSITIVE = _Accepts("a positive number", lambda v: _finite_number(v) and v > 0)
_FINITE = _Accepts("a finite number", _finite_number)
_NON_NEGATIVE = _Accepts("a non-negative finite number",
                         lambda v: _finite_number(v) and v >= 0)
_OBJECT = _Accepts("an object", lambda v: isinstance(v, dict))
_PER_FORM = None  # checked by the per-form code in _checked, which needs the domain
_REQUIRED = object()

# one row per dotted key: (accepted values, default); a key with a dot is a
# member of its section, which must be an object
_SCHEMA = {
    "schema_version": (_Accepts("1", lambda v: _count(v) and v == SCHEMA_VERSION),
                       SCHEMA_VERSION),
    "name": (_Accepts("a string", lambda v: isinstance(v, str)), "scenario"),
    "seed": (_COUNT, 0),
    "domain": (_PER_FORM, _REQUIRED),
    "integrand.tag": (_one_of("integrand tag", tuple(CATALOG)), _REQUIRED),
    "integrand.params": (_OBJECT, {}),
    "mesh.h": (_POSITIVE, 0.125),
    "checks.qc": (_BOOL, True),
    "checks.qslb": (_BOOL, True),
    "checks.sequences": (_BOOL, False),
    "checks.decomposition": (_BOOL, False),
    "checks.equivalence": (_BOOL, False),
    "checks.mu": (_BOOL, False),
    "checks.refinement": (_BOOL, False),
    "interior_points.count": (_COUNT, 1),  # or a list of points in place of the object
    "boundary_points": (_PER_FORM, "all"),
    "xi_samples.include_zero": (_BOOL, True),
    "xi_samples.rank_one": (_BOOL, True),
    "xi_samples.random": (_COUNT, 2),
    "xi_samples.radius": (_POSITIVE, 1.0),
    "qc.L_grid": (_Accepts("a non-empty list of caps; caps must be positive finite "
                           "numbers", lambda v: isinstance(v, list) and v != []
                           and all(_POSITIVE.test(L) for L in v)), [1.0, 4.0, 16.0]),
    "qc.h": (_POSITIVE, 0.125),
    "qslb.h": (_POSITIVE, 0.1),
    "qslb.tol": (_NON_NEGATIVE, 1e-3),
    "solver.restarts": (_POSITIVE_INT, 8),
    "solver.max_iter": (_POSITIVE_INT, 400),
    "solver.step0": (_NON_NEGATIVE, 0.0),
    "solver.smoothing": (_Accepts("a list of non-negative finite numbers",
                                  lambda v: isinstance(v, list) and all(
                                      _finite_number(d) and d >= 0 for d in v)),
                         [0.1, 0.01, 0.001]),
    "solver.patience": (_POSITIVE_INT, 60),
    "sequence.kind": (_one_of("sequence kind", SEQUENCE_KINDS + ("none",)),
                      "jump_migration"),
    "sequence.n_max": (_MEMBERS, 64),
    "sequence.params": (_OBJECT, {}),
    "decomposition.n_max": (_POSITIVE_INT, 16),
    "decomposition.prefix": (_MEMBERS, 80),
    "decomposition.cover": (_PER_FORM, [{"point": [0.0]},
                                        {"segment": [[0.125], [1.0]]}]),
    "liminf_tol": (_NON_NEGATIVE, 1e-6),
}
# the sequence.params members each sequence kind reads, checked per kind
_SEQUENCE_PARAMS = {
    "jump_migration": {"h": _POSITIVE},
    "boundary_rescale": {"h": _POSITIVE, "x0": _FINITE,
                         "profile": _Accepts("one of " + "|".join(PROFILES),
                                             lambda v: v in tuple(PROFILES)),
                         "resolution": _POSITIVE_INT},
    "fixed_trace_oscillation": {"amplitude": _FINITE},
    "pure_boundary_concentration": {"amplitude": _FINITE, "resolution": _POSITIVE_INT},
    "none": {},
}
_SECTIONS = {}  # section ("" for the top level) -> {member: row}
for _key, _row in _SCHEMA.items():
    _section, _, _member = _key.rpartition(".")
    _SECTIONS.setdefault(_section, {})[_member] = _row


def _line_of(text, key):
    """1-based line of a dotted key: its first part as a key of the top-level
    object, each later part searched from the line of the part before it;
    None when the first part is not a top-level key of the text."""
    lines, at, depth = text.splitlines(), None, 0
    first, *rest = key.split(".")
    # strings (a key when a colon follows) and brackets, in text order
    for m in re.finditer(r'("(?:[^"\\]|\\.)*")(\s*:)?|[{}\[\]]', text):
        token = m.group()
        if token in ("{", "["):
            depth += 1
        elif token in ("}", "]"):
            depth -= 1
        elif depth == 1 and m.group(2) and m.group(1) == f'"{first}"':
            at = text.count("\n", 0, m.start())
            break
    for part in rest if at is not None else ():
        hits = [i for i in range(at, len(lines)) if f'"{part}"' in lines[i]]
        if not hits:
            break
        at = hits[0]
    return None if at is None else at + 1


def _filled(given, section, err):
    """One section checked against its rows, with every default filled in.
    Members that are sections of their own are left to the caller."""
    rows = _SECTIONS[section]
    known = list(rows) + [s for s in _SECTIONS if s and not section]
    for name in sorted(set(given) - set(known)):
        noun = "check" if section == "checks" else "key"
        err(f"unknown {noun} {name!r}{f' in {section!r}' if section else ''} "
            f"(known: {', '.join(known)})", f"{section}.{name}".lstrip("."))
    out = {}
    for name, (accepts, default) in rows.items():
        key = f"{section}.{name}".lstrip(".")
        if name in given:
            out[name] = given[name]
            if accepts is not _PER_FORM and not accepts.test(given[name]):
                err(accepts.message(key, given[name]), key)
        elif default is _REQUIRED:
            err(f"missing required key '{key}'", section or name)
        else:
            out[name] = copy.deepcopy(default)
    return out


def _is_point(p, dim):
    return (isinstance(p, list) and len(p) in ((dim,) if dim else (1, 2))
            and all(map(_finite_number, p)))


def _domain_dim(dom, err):
    """The domain's dimension by its kind, or None for an unknown kind.  Its
    numbers must be finite; Domain checks their order and the polygon loop."""
    if not isinstance(dom, dict):
        err("'domain' must be an object", "domain")
        return None
    kind, members = dom.get("kind"), {"interval": ("a", "b"), "polygon": ("vertices",)}
    if not isinstance(kind, str) or kind not in members:
        err(f"unknown domain kind {kind!r} (interval|polygon)", "domain")
        return None
    for name in sorted(set(dom) - {"kind", *members[kind]}):
        err(f"unknown key {name!r} in {kind} 'domain'", "domain")
    a, b, verts = dom.get("a"), dom.get("b"), dom.get("vertices")
    if kind == "interval" and not (_finite_number(a) and _finite_number(b)):
        err(f"interval domain needs finite numbers 'a' and 'b', got {a!r}, {b!r}",
            "domain")
    if kind == "polygon" and not (isinstance(verts, list)
                                  and all(_is_point(v, 2) for v in verts)):
        err("polygon domain needs 'vertices', a list of [x, y] pairs of finite "
            "numbers", "domain")
    return 1 if kind == "interval" else 2


def _checked(cfg, raw_text=""):
    """cfg checked against _SCHEMA and the per-form checks, with every default
    filled in; raises ConfigError listing every violation."""
    errors = []

    def err(msg, key):
        errors.append((msg, _line_of(raw_text, key)))

    if not isinstance(cfg, dict):
        raise ConfigError([("config must be a JSON object", None)])
    out = _filled(cfg, "", err)
    for section in filter(None, _SECTIONS):
        given = cfg.get(section, {})
        if isinstance(given, dict):
            out[section] = _filled(given, section, err)
        elif section == "interior_points":  # the list-of-points form
            out[section] = given
        else:
            err(f"'{section}' must be an object", section)

    # the per-form parts: domain kinds, point lists, the cover as given, the
    # sequence params of the kind and the integrand's dimensions
    dim = _domain_dim(cfg["domain"], err) if "domain" in cfg else None

    def points(key, spec):
        if not (isinstance(spec, list) and all(_is_point(p, dim) for p in spec)):
            err(f"'{key}' must be a list of points, each a list of {dim or 'd'} "
                f"finite numbers, got {spec!r}", key)

    if not isinstance(out.get("interior_points", {}), dict):
        points("interior_points", out["interior_points"])
    if out["boundary_points"] != "all":
        points("boundary_points", out["boundary_points"])
    dec = cfg.get("decomposition")
    cover = dec.get("cover") if isinstance(dec, dict) else None
    try:
        if cover is not None and dim:
            CompactSet.from_config(dim, cover)
    except (KeyError, TypeError, ValueError) as e:
        err(f"'decomposition.cover' must be a list of compact-set pieces in {dim}D, "
            f"got {cover!r}: {e}", "decomposition.cover")
    seq = out.get("sequence", {})
    kind, params = seq.get("kind"), seq.get("params")
    rows = _SEQUENCE_PARAMS.get(kind) if isinstance(kind, str) else None
    if rows is not None and isinstance(params, dict):
        for name in sorted(params):
            key = f"sequence.params.{name}"
            if name not in rows:
                err(f"unknown key {name!r} in 'sequence.params' of kind {kind!r} "
                    f"(known: {', '.join(rows) or 'none'})", key)
            elif not rows[name].test(params[name]):
                err(rows[name].message(key, params[name]), key)
    params = out.get("integrand", {}).get("params")
    for key in ("M", "N") if isinstance(params, dict) else ():
        if key in params and not _POSITIVE_INT.test(params[key]):
            err(_POSITIVE_INT.message(f"integrand.params.{key}", params[key]),
                f"integrand.params.{key}")
    composite = isinstance(params, dict) and out["integrand"].get("tag") == "composite"
    terms = params.get("terms") if composite else None
    for i, term in enumerate(terms if isinstance(terms, list) else ()):
        if not (isinstance(term, list) and len(term) == 2 and _finite_number(term[0])
                and isinstance(term[1], dict)):
            err(f"'integrand.params.terms[{i}]' must be [weight, {{\"tag\": ..., "
                f"\"params\": ...}}], got {term!r}", "integrand.params.terms")
    if errors:
        raise ConfigError(errors)
    return out


class Scenario:
    """Validated scenario config with all defaults filled in."""

    def __init__(self, cfg, raw_text=""):
        self.cfg = _checked(cfg, raw_text)
        self.name = self.cfg["name"]
        self.seed = self.cfg["seed"]
        dom = self.cfg["domain"]
        try:
            if dom["kind"] == "interval":
                self.domain = Domain.interval(dom["a"], dom["b"])
            else:
                self.domain = Domain.polygon(dom["vertices"])
        except ValueError as e:  # e.g. a polygon loop that is not simple
            raise ConfigError([(str(e), _line_of(raw_text, "domain"))]) from e
        try:
            self.integrand = catalog_get(self.cfg["integrand"]["tag"],
                                         self.cfg["integrand"]["params"])
        except (KeyError, TypeError, ValueError) as e:  # e.g. an unknown tag
            raise ConfigError([(f"integrand: {e}", _line_of(raw_text, "integrand"))]) from e
        if self.integrand.N != self.domain.dim:
            raise ConfigError(
                [(f"integrand expects N={self.integrand.N} but the domain is "
                  f"{self.domain.dim}D", None)]
            )
        self.recession = self.integrand.recession

    @classmethod
    def from_file(cls, path):
        text = Path(path).read_text()
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError([(f"invalid JSON: {e.msg}", e.lineno)]) from e
        return cls(cfg, text)

    @classmethod
    def load(cls, path):
        """from_file(path), or None after printing each config error."""
        try:
            return cls.from_file(path)
        except ConfigError as e:
            for msg, line in e.messages:
                print(f"config error{f' (line {line})' if line else ''}: {msg}")

    def solver_options(self, seed_offset=0):
        s = self.cfg["solver"]  # its keys are SolverOptions fields
        return SolverOptions(**{**s, "smoothing": tuple(s["smoothing"])},
                             seed=self.seed + seed_offset)

    def check_qc_work(self, cells, frozen):
        """The list of the iterable `frozen` (the integrand frozen at each
        interior point), once the qc family on a mesh of `cells` cells is
        found to fit MAX_WORK; SolverBudgetError otherwise, before any job
        is built.  A job is priced at cells x caps, one pass over the cells
        per cap, and a job that solves on the mesh (closed_form_split None)
        at cells x starts x iterations x caps, since it starts from its
        restarts and the previous cap's witness.  Every job is priced at
        cells x caps before the first point is taken, and each point's
        solving jobs as the point comes, so a family over the budget fails
        at the first point that puts it over.  The xi samples the jobs keep,
        M x N entries each, are priced against the same budget first."""
        spec, xi = self.cfg["interior_points"], self.cfg["xi_samples"]
        solver, caps = self.cfg["solver"], len(self.cfg["qc"]["L_grid"])
        entries = self.integrand.M * self.integrand.N
        per_point = xi["include_zero"] + xi["random"] + xi["rank_one"] * entries
        jobs = per_point * (len(spec) if isinstance(spec, list) else spec["count"])
        if jobs * entries > minimize.MAX_WORK:
            raise SolverBudgetError(
                f"qc family needs {jobs} xi samples x {entries} entries, "
                f"over the budget {minimize.MAX_WORK:.3g}")
        starts, iterations = minimize.start_count(solver["restarts"], 1), solver["max_iter"]
        out, solving = [], 0

        def check():
            if cells * caps * (jobs + solving * (starts * iterations - 1)) > minimize.MAX_WORK:
                raise SolverBudgetError(
                    f"qc family needs {jobs} jobs x {cells} cells x {caps} caps, "
                    f"{solving} of them solving with {starts} restarts x {iterations} "
                    f"iterations, over the budget {minimize.MAX_WORK:.3g}")

        check()
        for g in frozen:
            out.append(g)
            if closed_form_split(g) is None:
                solving += per_point
                check()
        return out

    def _contains(self, p):
        if self.domain.kind == "interval":
            a, b = self.domain.params["a"], self.domain.params["b"]
            return a - 1e-12 <= p[0] <= b + 1e-12
        from .regions import polygon_region

        return bool(polygon_region(self.domain.params["vertices"]).contains(
            p[None, :], tol=1e-9
        )[0])

    def interior_points(self):
        """Iterator over the interior sample points: the listed points, each
        checked to lie in the domain before any is given (ConfigError
        otherwise), or `count` lattice points, each built when it is taken."""
        spec = self.cfg["interior_points"]
        if not isinstance(spec, list):
            return self._lattice(spec["count"])
        pts = [np.asarray(p, dtype=float) for p in spec]
        for p in pts:
            if not self._contains(p):
                raise ConfigError(
                    [(f"interior point {p.tolist()} lies outside the domain", None)]
                )
        return iter(pts)

    def _lattice(self, count):
        # quasi-random (golden-ratio lattice) interior samples, domain-scaled
        if self.domain.kind == "interval":
            a, b = self.domain.params["a"], self.domain.params["b"]
            for i in range(count):
                t = (0.5 + i * 0.6180339887498949) % 1.0
                yield np.array([a + (0.25 + 0.5 * t) * (b - a)])
            return
        verts = self.domain.params["vertices"]
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        c = 0.5 * (lo + hi)
        i = built = 0
        while built < count and i < 100 * count:
            t1 = (0.5 + i * 0.6180339887498949) % 1.0
            t2 = (0.5 + i * 0.7548776662466927) % 1.0
            p = c + (np.array([t1, t2]) - 0.5) * 0.5 * (hi - lo)
            if self.domain.boundary_distance(p[None, :])[0] > 0.05 * np.max(hi - lo):
                built += 1
                yield p
            i += 1

    def boundary_points(self):
        spec = self.cfg["boundary_points"]
        out, corners = [], []
        if isinstance(spec, list):
            # a polygon vertex has no single normal and is noted as a corner;
            # any other point off the boundary is a config error
            for p in spec:
                try:
                    out.append(self.domain.boundary_point(p))
                except ValueError as e:
                    if not (self.domain.kind == "polygon" and np.min(np.linalg.norm(
                            self.domain.params["vertices"] - p, axis=1)) <= 1e-9):
                        raise ConfigError([(f"boundary_points: {e}", None)]) from None
                    corners.append(np.asarray(p, dtype=float))
            return out, corners
        if self.domain.kind == "interval":
            a, b = self.domain.params["a"], self.domain.params["b"]
            return [self.domain.boundary_point([a]),
                    self.domain.boundary_point([b])], []
        verts = self.domain.params["vertices"]
        n = len(verts)
        for i in range(n):
            mid = 0.5 * (verts[i] + verts[(i + 1) % n])
            out.append(self.domain.boundary_point(mid))
        return out, []

    def xi_samples(self):
        cfg = self.cfg["xi_samples"]
        M, N = self.integrand.M, self.integrand.N
        out = []
        if cfg["include_zero"]:
            out.append(np.zeros((M, N)))
        if cfg["rank_one"]:
            for i in range(M):
                for j in range(N):
                    e = np.zeros((M, N))
                    e[i, j] = 1.0
                    out.append(e)
        rng = np.random.default_rng(self.seed)
        for _ in range(cfg["random"]):
            xi = rng.normal(size=(M, N))
            xi *= cfg["radius"] / max(np.linalg.norm(xi), 1e-12)
            out.append(xi)
        return out


class Verdict:
    def __init__(self, overall, qc_reports, qslb_reports, extras, errors, timing):
        self.overall = overall
        self.qc_reports = qc_reports
        self.qslb_reports = qslb_reports
        self.extras = extras
        self.errors = errors
        self.timing = timing  # not serialized into report.json

    def to_json(self):
        return {
            "overall": self.overall,
            "qc": [
                {"x0": np.asarray(x).tolist(), **rep.to_json()}
                for x, rep in self.qc_reports
            ],
            "qslb": [rep.to_json() for rep in self.qslb_reports],
            "extras": self.extras,
            "errors": self.errors,
        }


def analyze(scenario):
    """Run the configured checks and assemble the verdict."""
    t_start = time.perf_counter()
    checks = scenario.cfg["checks"]
    errors = []
    qc_reports = []
    qslb_reports = []
    extras = {}
    f = scenario.integrand
    finf = scenario.recession
    # a listed point off the domain or its boundary is a config error, raised
    # before any check runs
    interior = scenario.interior_points()
    boundary_pts, corner_pts = scenario.boundary_points()

    qc_cfg, qslb_cfg = scenario.cfg["qc"], scenario.cfg["qslb"]
    if checks["qc"]:
        try:
            qc_mesh = default_qc_mesh(f.N, qc_cfg["h"])
            frozen = scenario.check_qc_work(qc_mesh.n_cells,
                                            (freeze_x(f, x0) for x0 in interior))
        except (MeshBudgetError, SolverBudgetError) as e:
            errors.append({"job": "qc", "error": str(e)})
            frozen = []
        jobs, job_points = [], []
        for pi, g in enumerate(frozen):
            for si, xi in enumerate(scenario.xi_samples()):
                jobs.append((g, xi, scenario.solver_options(17 * pi + si)))
                job_points.append(g.frozen[1])
        reps = _entries(jobs, lambda js: qc_deficits(js, mesh=qc_mesh,
                                                     L_grid=qc_cfg["L_grid"]))
        for x0, rep in zip(job_points, reps):
            if isinstance(rep, Exception):
                errors.append({"job": "qc", "error": str(rep)})
            else:
                qc_reports.append((x0, rep))
    n_requested = len(boundary_pts) + len(corner_pts)
    if not checks["qslb"]:
        boundary_pts, corner_pts = [], []
    jobs = [(bp, scenario.solver_options(1000 + bi)) for bi, bp in enumerate(boundary_pts)]
    for rep in _entries(jobs, lambda js: qslb_deficits(finf, js, h=qslb_cfg["h"],
                                                       tol=qslb_cfg["tol"])):
        if isinstance(rep, Exception):
            errors.append({"job": "qslb", "error": str(rep)})
        else:
            qslb_reports.append(rep)
    for corner in corner_pts:
        extras.setdefault("corner_notes", []).append(
            {"x0": corner.tolist(),
             "note": "polygon corner has no single normal; use the eps-delta "
                     "probe (decompose/equivalence configs) instead"}
        )

    violated = [(x, r) for x, r in qc_reports if r.verdict == "violated"]
    qslb_violated = [r for r in qslb_reports if r.verdict == "violated"]
    low_conf = any(r.low_confidence for _, r in qc_reports if r.verdict != "violated")
    low_conf |= any(r.low_confidence for r in qslb_reports if r.verdict != "violated")

    if checks["sequences"]:
        seq_cfg = scenario.cfg["sequence"]
        if seq_cfg["kind"] != "none":
            try:
                spec = SequenceSpec(seq_cfg["kind"], scenario.domain, seq_cfg["n_max"],
                                    dict(seq_cfg["params"]))
                extras["liminf"] = empirical_liminf(
                    f, finf, spec, tol=scenario.cfg["liminf_tol"]
                )
                extras["liminf"]["sequence"] = spec.to_json()
            except Exception as e:
                errors.append({"job": "liminf", "error": str(e)})
        if qslb_violated:
            worst = min(qslb_violated, key=lambda r: r.deficit)
            try:
                from .meshing import BoundaryPoint

                bp = BoundaryPoint(worst.x0, worst.nu)
                extras["necessity_certificate"] = necessity_witness(
                    f, finf, bp, worst.witness, eps=-worst.deficit
                )
            except NecessityTransferError as e:
                errors.append({"job": "necessity_witness", "error": str(e)})

    if checks["decomposition"]:
        extras["decomposition"] = _run_decomposition(scenario, f, finf, errors)

    if checks["equivalence"]:
        pts = list(itertools.islice(scenario.interior_points(), 1))
        try:
            harness = [
                equivalence_harness(f, finf, p, build_mesh(
                    scenario.domain, scenario.cfg["mesh"]["h"]),
                    options=scenario.solver_options(5000))
                for p in pts
            ]
            extras["equivalence"] = harness
        except Exception as e:
            errors.append({"job": "equivalence", "error": str(e)})

    if checks["mu"]:
        tgrid = [1.0, 10.0, 100.0, 1e4, 1e6]
        try:
            check_mu_work(f, tgrid)
            extras["mu_table"] = [mu_estimate(f, finf, t, seed=scenario.seed)
                                  for t in tgrid]
        except Exception as e:  # collect and continue
            errors.append({"job": "mu", "error": str(e)})

    if checks["refinement"]:
        # one family per h; rows and errors in (point, h) order
        hs, opts = (qslb_cfg["h"], qslb_cfg["h"] / 2), scenario.solver_options(9000)
        per_h = [_entries([(bp, opts) for bp in boundary_pts],
                          lambda js, hh=hh: halfball_deficits(finf, js, h=hh,
                                                              tol=qslb_cfg["tol"]))
                 for hh in hs]
        rows = []
        for bi, bp in enumerate(boundary_pts):
            for hh, reps in zip(hs, per_h):
                if isinstance(reps[bi], Exception):
                    errors.append({"job": "refinement", "error": str(reps[bi])})
                else:
                    rows.append({"x0": bp.x0.tolist(), "h": hh,
                                 "deficit": reps[bi].deficit})
        extras["refinement"] = rows

    # evidence a passing verdict needs: a qc report, a qslb report for every
    # requested boundary point (corners included), and no empirical lsc
    # violation in the liminf table
    missing = not qc_reports or len(qslb_reports) < n_requested
    missing |= extras.get("liminf", {}).get("verdict") == "lsc violated empirically"
    if violated or qslb_violated:
        overall = "not-wlsc"
    elif low_conf or errors or missing:
        overall = "inconclusive"
    else:
        overall = "wlsc-plausible"
    timing = {"total_s": time.perf_counter() - t_start}
    return Verdict(overall, qc_reports, qslb_reports, extras, errors, timing)


def _entries(jobs, family):
    """family(jobs), one report or error per job.  A family already ends
    each failed job with its own error; if it raises as a whole, every job
    gets that exception."""
    if not jobs:
        return []
    try:
        return family(jobs)
    except Exception as e:  # collect and continue
        return [e] * len(jobs)


def _run_decomposition(scenario, f, finf, errors):
    from .functional import additivity_residual

    dcfg = scenario.cfg["decomposition"]
    seq_cfg = scenario.cfg["sequence"]
    try:
        spec = SequenceSpec(seq_cfg["kind"], scenario.domain, dcfg["prefix"],
                            dict(seq_cfg["params"]))
        require_1d(scenario.domain.dim)
        members = [generate(spec, n) for n in range(1, dcfg["prefix"] + 1)]
        cover = CoverSpec([
            CompactSet.from_config(scenario.domain.dim, [item])
            for item in dcfg["cover"]
        ])
        res = local_decompose(members, cover, n_max=dcfg["n_max"])
        report = verify_properties(res)
        add = additivity_residual(
            f, finf, None,
            [res.subsequence[n] for n in res.n_values],
            [res.components[n] for n in res.n_values],
        )
        return {"result": res.to_json(), "properties": _strip_tables(report),
                "additivity": add}
    except Exception as e:
        errors.append({"job": "decomposition", "error": str(e)})
        return None


def _strip_tables(report):
    out = dict(report)
    out.pop("flags", None)
    out["n_flags"] = len(report.get("flags", []))
    return out


# -- report emission -----------------------------------------------------------


def run_scenario(config_path, out_dir=None, seed=None, h=None, only=None):
    """Execute a scenario config; write report.json, CSV tables and witnesses.
    `only` names the checks to run, every other one off (default: the
    config's checks).

    Returns (exit_code, verdict_or_None).  Exit 0 on completion regardless of
    the mathematical verdict, 2 on config errors (schema violations, a sample
    point off the domain or its boundary, a non-positive `h` override), 1 on
    execution errors; only exit 0 writes a report.
    """
    if h is not None and not h > 0:
        print(f"config error: --h must be positive, got {h}")
        return 2, None
    scenario = Scenario.load(config_path)
    if scenario is None:
        return 2, None
    if only is not None:
        scenario.cfg["checks"] = {c: c in only for c in scenario.cfg["checks"]}
    if seed is not None:
        scenario.cfg["seed"] = int(seed)
        scenario.seed = int(seed)
    if h is not None:
        scenario.cfg["mesh"]["h"] = float(h)
        scenario.cfg["qslb"]["h"] = float(h)
        scenario.cfg["qc"]["h"] = float(h)
    try:
        verdict = analyze(scenario)
    except ConfigError as e:
        print(f"config error: {e}")
        return 2, None
    except Exception as e:
        print(f"execution error: {e}")
        return 1, None

    out = Path(out_dir) if out_dir else Path.cwd() / f"out_{scenario.name}"
    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.cfg,
        "verdict": verdict.to_json(),
    }
    write_new(out, OUTPUT_SET, {
        "report.json": json.dumps(report, sort_keys=True) + "\n",
        "timings.txt": f"total_s={verdict.timing['total_s']:.3f}\n",
        **_tables(report["verdict"]),
        **_witnesses(verdict),
    })
    print(f"{scenario.name}: {verdict.overall} -> {out / 'report.json'}")
    return 0, verdict


def check_mu_work(f, tgrid):
    """SolverBudgetError unless the mu table of f at the t values tgrid fits
    MAX_WORK, priced before any draw: each t draws MU_SAMPLES x M x N
    normals."""
    if len(tgrid) * MU_SAMPLES * f.M * f.N > minimize.MAX_WORK:
        raise SolverBudgetError(
            f"mu table needs {len(tgrid)} x {MU_SAMPLES} samples x "
            f"{f.M * f.N} entries, over the budget {minimize.MAX_WORK:.3g}")


# tables/<name>.csv and its header
TABLES = {
    "qc_deficits": ("x0", "xi", "L", "deficit", "verdict"),
    "qslb": ("x0", "nu", "deficit", "verdict"),
    "liminf": ("n", "F"),
    "refinement": ("x0", "h", "deficit"),
}
# every file run_scenario may write, as glob patterns under its output directory
OUTPUT_SET = ("report.json", "timings.txt", *(f"tables/{name}.csv" for name in TABLES),
              "witness_qc_*.json", "witness_qslb_*.json")


def write_new(out, output_set, files):
    """Write files ({path under the directory out: text}) into out, each to a
    new file.  First every file under out that matches a glob pattern of
    output_set is removed, so no output of an earlier run outlives this one
    and no file is opened for truncation: truncating a file to rewrite it
    makes ext4 (auto_da_alloc) write its data back on close, which can
    stall the open for milliseconds on a busy disk.  Other files in out are
    kept."""
    out.mkdir(parents=True, exist_ok=True)
    for pattern in output_set:
        for path in out.glob(pattern):
            path.unlink()
    for name, text in files.items():
        path = out / name
        path.parent.mkdir(exist_ok=True)
        with open(path, "x", newline="") as fh:
            fh.write(text)


def _tables(verdict):
    """tables/*.csv from report.json's verdict part, one row per qc cap, qslb
    report, liminf member and refinement entry; the liminf and refinement
    tables only where their check ran."""
    extras = verdict["extras"]
    liminf = extras.get("liminf")
    rows = {
        "qc_deficits": [{**rep, "L": L, "deficit": v}
                        for rep in verdict["qc"] for L, v in rep["per_cap"]],
        "qslb": verdict["qslb"],
        "liminf": liminf and [{"n": n, "F": v} for n, v in liminf["table"]],
        "refinement": extras.get("refinement"),
    }
    out = {}
    for name, header in TABLES.items():
        if rows[name] is not None:
            text = io.StringIO()
            w = csv.writer(text)
            w.writerow(header)
            w.writerows([row[k] for k in header] for row in rows[name])
            out[f"tables/{name}.csv"] = text.getvalue()
    return out


def _witnesses(verdict):
    """witness_<check>_<i>.json for each qc and qslb report with a witness."""
    out = {}
    qslb = [(rep.x0, rep) for rep in verdict.qslb_reports]
    for check, reports in (("qc", verdict.qc_reports), ("qslb", qslb)):
        found = [(x0, rep.witness) for x0, rep in reports if rep.witness is not None]
        for idx, (x0, witness) in enumerate(found):
            # to_json gives JSON builtins under str keys only
            data = {**witness.to_json(), "check": check, "x0": np.asarray(x0).tolist()}
            out[f"witness_{check}_{idx}.json"] = json.dumps(data, sort_keys=True)
    return out
