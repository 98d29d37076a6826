"""Scenario runner: orchestrates the interior quasiconvexity checks, the
boundary sublinearity checks, the sequence cross-validation and report
emission.

The overall verdict is

  * not-wlsc        -- some check reported a violation (with a witness, and,
                       when sequences are enabled and the violation sits at
                       the boundary, an executable necessity certificate);
  * wlsc-plausible  -- every sampled check passed at full confidence;
  * inconclusive    -- no check reported a violation, but some check errored
                       (its message is in `errors`) or some solve hit its
                       iteration cap with a large stationarity residual.

Interior almost-everywhere quasiconvexity is sampled at finitely many points,
so a passing run is evidence, not proof; violations are certificates up to
quadrature.  report.json is deterministic for a fixed config and seed: it
carries no wall-clock data (timings go to a separate file).
"""

import csv
import json
import math
import time
from pathlib import Path

import numpy as np

from .boundary import equivalence_harness, halfball_deficit
from .decompose import CoverSpec, local_decompose, verify_properties
from .integrands import catalog_get, estimated_recession, mu_estimate, freeze_x
from .meshing import Domain, MeshBudgetError, build_mesh
from .minimize import SolverOptions
from .quasiconvex import default_qc_mesh, qc_deficit
from .regions import CompactSet
from .sequences import (
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


_DEFAULTS = {
    "seed": 0,
    "mesh": {"h": 0.125},
    "checks": {"qc": True, "qslb": True, "sequences": False,
               "decomposition": False, "equivalence": False, "mu": False,
               "refinement": False},
    "interior_points": {"count": 1},
    "boundary_points": "all",
    "xi_samples": {"include_zero": True, "rank_one": True, "random": 2,
                   "radius": 1.0},
    "solver": {},
    "qc": {"L_grid": [1.0, 4.0, 16.0], "h": 0.125},
    "qslb": {"h": 0.1, "tol": 1e-3},
    "sequence": {"kind": "jump_migration", "n_max": 64, "params": {}},
    "decomposition": {"n_max": 16, "prefix": 80,
                      "cover": [{"point": [0.0]}, {"segment": [[0.125], [1.0]]}]},
    "liminf_tol": 1e-6,
}


def _line_of(text, key):
    for i, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return i
    return None


def _finite_number(x):
    """A JSON number (not a bool) with a finite float value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _positive_number(x):
    return _finite_number(x) and x > 0


def _positive_int(x):
    return isinstance(x, int) and not isinstance(x, bool) and x > 0


def _validate_solver(solver, err):
    if not isinstance(solver, dict):
        err("'solver' must be an object", "solver")
        return
    for key in ("restarts", "max_iter", "patience"):
        if key in solver and not _positive_int(solver[key]):
            err(f"'solver.{key}' must be a positive integer, got {solver[key]!r}", key)
    if "step0" in solver and not (_finite_number(solver["step0"])
                                  and solver["step0"] >= 0):
        err(f"'solver.step0' must be a non-negative finite number, got "
            f"{solver['step0']!r}", "step0")
    smoothing = solver.get("smoothing", [])
    if not (isinstance(smoothing, list)
            and all(_finite_number(d) and d >= 0 for d in smoothing)):
        err(f"'solver.smoothing' must be a list of non-negative finite numbers, "
            f"got {smoothing!r}", "smoothing")


def _validate_sequence(seq, err):
    if not isinstance(seq, dict):
        err("'sequence' must be an object", "sequence")
        return
    kinds = SEQUENCE_KINDS + ("none",)
    if seq.get("kind", "none") not in kinds:
        err(f"unknown sequence kind {seq['kind']!r} ({'|'.join(kinds)})", "sequence")
    if "n_max" in seq and not _positive_int(seq["n_max"]):
        err(f"'sequence.n_max' must be a positive integer, got {seq['n_max']!r}",
            "n_max")
    if not isinstance(seq.get("params", {}), dict):
        err("'sequence.params' must be an object", "params")


def _validate_domain(dom, err):
    if not isinstance(dom, dict):
        err("'domain' must be an object", "domain")
        return
    kind = dom.get("kind")
    if kind == "interval":
        a, b = dom.get("a"), dom.get("b")
        if not (_finite_number(a) and _finite_number(b)):
            err(f"interval domain needs finite numbers 'a' and 'b', got {a!r}, {b!r}",
                "domain")
        elif not float(a) < float(b):
            err("interval domain needs a < b", "domain")
    elif kind == "polygon":
        verts = dom.get("vertices")
        if not (isinstance(verts, list) and len(verts) >= 3 and all(
                isinstance(v, list) and len(v) == 2 and all(map(_finite_number, v))
                for v in verts)):
            err("polygon domain needs 'vertices', a list of at least 3 [x, y] "
                "pairs of finite numbers", "domain")
    else:
        err(f"unknown domain kind {kind!r} (interval|polygon)", "domain")


def _validate(cfg, raw_text=""):
    errors = []

    def err(msg, key):
        errors.append((msg, _line_of(raw_text, key)))

    if not isinstance(cfg, dict):
        raise ConfigError([("config must be a JSON object", None)])
    if "integrand" not in cfg:
        err("missing required key 'integrand'", "integrand")
    elif not isinstance(cfg["integrand"], dict) or "tag" not in cfg["integrand"]:
        err("'integrand' needs a 'tag'", "integrand")
    if "domain" not in cfg:
        err("missing required key 'domain'", "domain")
    else:
        _validate_domain(cfg["domain"], err)
    _validate_solver(cfg.get("solver", {}), err)
    _validate_sequence(cfg.get("sequence", {}), err)
    if "schema_version" in cfg and cfg["schema_version"] != SCHEMA_VERSION:
        err(f"unsupported schema_version {cfg['schema_version']}", "schema_version")
    for key, val in cfg.items():
        if key in ("seed",) and not isinstance(val, int):
            err("'seed' must be an integer", "seed")
    for section in ("mesh", "qc", "qslb"):
        sub = cfg.get(section)
        h = sub.get("h", 1.0) if isinstance(sub, dict) else 1.0
        if not _positive_number(h):
            err(f"'{section}.h' must be a positive number, got {h!r}", section)
    qc = cfg.get("qc")
    caps = qc.get("L_grid", [1.0]) if isinstance(qc, dict) else [1.0]
    if not isinstance(caps, list) or not caps:
        err(f"'qc.L_grid' must be a non-empty list of caps, got {caps!r}", "L_grid")
    else:
        for L in caps:
            if not _positive_number(L):
                err(f"'qc.L_grid' caps must be positive finite numbers, got {L!r}",
                    "L_grid")
    checks = cfg.get("checks", {})
    if not isinstance(checks, dict):
        err("'checks' must be an object", "checks")
    else:
        for key in sorted(set(checks) - set(_DEFAULTS["checks"])):
            err(f"unknown check {key!r} (known: "
                f"{', '.join(_DEFAULTS['checks'])})", "checks")
    if errors:
        raise ConfigError(errors)


def _merged(cfg):
    out = json.loads(json.dumps(_DEFAULTS))
    for k, v in cfg.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k].update(v)
        else:
            out[k] = v
    out["schema_version"] = SCHEMA_VERSION
    return out


class Scenario:
    """Validated scenario config with all defaults filled in."""

    def __init__(self, cfg, raw_text=""):
        _validate(cfg, raw_text)
        self.cfg = _merged(cfg)
        self.name = self.cfg.get("name", "scenario")
        self.seed = int(self.cfg["seed"])
        dom = self.cfg["domain"]
        try:
            if dom["kind"] == "interval":
                self.domain = Domain.interval(dom["a"], dom["b"])
            else:
                self.domain = Domain.polygon(dom["vertices"])
        except ValueError as e:  # e.g. a polygon loop that is not simple
            raise ConfigError([(str(e), _line_of(raw_text, "domain"))]) from e
        self.integrand = catalog_get(
            self.cfg["integrand"]["tag"], self.cfg["integrand"].get("params")
        )
        if self.integrand.N != self.domain.dim:
            raise ConfigError(
                [(f"integrand expects N={self.integrand.N} but the domain is "
                  f"{self.domain.dim}D", None)]
            )
        self.recession = self.integrand.recession or estimated_recession(
            self.integrand
        )

    @classmethod
    def from_file(cls, path):
        text = Path(path).read_text()
        try:
            cfg = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError([(f"invalid JSON: {e.msg}", e.lineno)]) from e
        return cls(cfg, text)

    def solver_options(self, seed_offset=0):
        s = self.cfg["solver"]
        return SolverOptions(
            restarts=int(s.get("restarts", 8)),
            max_iter=int(s.get("max_iter", 400)),
            seed=self.seed + seed_offset,
            step0=float(s.get("step0", 0.0)),
            smoothing=tuple(s.get("smoothing", (1e-1, 1e-2, 1e-3))),
            patience=int(s.get("patience", 60)),
        )

    def _contains(self, p):
        if self.domain.kind == "interval":
            a, b = self.domain.params["a"], self.domain.params["b"]
            return a - 1e-12 <= p[0] <= b + 1e-12
        from .regions import polygon_region

        return bool(polygon_region(self.domain.params["vertices"]).contains(
            p[None, :], tol=1e-9
        )[0])

    def interior_points(self):
        spec = self.cfg["interior_points"]
        if isinstance(spec, list):
            pts = [np.asarray(p, dtype=float) for p in spec]
            for p in pts:
                if not self._contains(p):
                    raise ConfigError(
                        [(f"interior point {p.tolist()} lies outside the domain",
                          None)]
                    )
            return pts
        count = int(spec.get("count", 1))
        # quasi-random (golden-ratio lattice) interior samples, domain-scaled
        pts = []
        if self.domain.kind == "interval":
            a, b = self.domain.params["a"], self.domain.params["b"]
            for i in range(count):
                t = (0.5 + i * 0.6180339887498949) % 1.0
                pts.append(np.array([a + (0.25 + 0.5 * t) * (b - a)]))
        else:
            verts = self.domain.params["vertices"]
            lo, hi = verts.min(axis=0), verts.max(axis=0)
            c = 0.5 * (lo + hi)
            i = 0
            while len(pts) < count and i < 100 * count:
                t1 = (0.5 + i * 0.6180339887498949) % 1.0
                t2 = (0.5 + i * 0.7548776662466927) % 1.0
                p = c + (np.array([t1, t2]) - 0.5) * 0.5 * (hi - lo)
                if self.domain.boundary_distance(p[None, :])[0] > 0.05 * np.max(hi - lo):
                    pts.append(p)
                i += 1
        return pts

    def boundary_points(self):
        spec = self.cfg["boundary_points"]
        out, corners = [], []
        if isinstance(spec, list):
            for p in spec:
                try:
                    out.append(self.domain.boundary_point(p))
                except ValueError:
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
        if cfg.get("include_zero", True):
            out.append(np.zeros((M, N)))
        if cfg.get("rank_one", True):
            for i in range(M):
                for j in range(N):
                    e = np.zeros((M, N))
                    e[i, j] = 1.0
                    out.append(e)
        rng = np.random.default_rng(self.seed)
        for _ in range(int(cfg.get("random", 0))):
            xi = rng.normal(size=(M, N))
            xi *= cfg.get("radius", 1.0) / max(np.linalg.norm(xi), 1e-12)
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

    qc_cfg, qslb_cfg = scenario.cfg["qc"], scenario.cfg["qslb"]
    if checks.get("qc", True):
        points = scenario.interior_points()
        try:
            qc_mesh = default_qc_mesh(f.N, qc_cfg["h"])
        except MeshBudgetError as e:
            errors.append({"job": "qc", "error": str(e)})
            points = []
        for pi, x0 in enumerate(points):
            g = freeze_x(f, x0)
            for si, xi in enumerate(scenario.xi_samples()):
                try:
                    rep = qc_deficit(g, xi, mesh=qc_mesh, L_grid=qc_cfg["L_grid"],
                                     options=scenario.solver_options(17 * pi + si))
                except Exception as e:  # collect and continue
                    errors.append({"job": "qc", "error": str(e)})
                    continue
                qc_reports.append((x0, rep))
    boundary_pts, corner_pts = ([], [])
    if checks.get("qslb", True):
        boundary_pts, corner_pts = scenario.boundary_points()
        for bi, bp in enumerate(boundary_pts):
            try:
                rep = halfball_deficit(finf, bp, h=qslb_cfg["h"], tol=qslb_cfg["tol"],
                                       options=scenario.solver_options(1000 + bi))
            except Exception as e:  # collect and continue
                errors.append({"job": "qslb", "error": str(e)})
                continue
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

    if checks.get("sequences", False):
        seq_cfg = scenario.cfg["sequence"]
        if seq_cfg.get("kind", "none") != "none":
            try:
                dom = scenario.domain
                spec = SequenceSpec(seq_cfg["kind"], dom, int(seq_cfg["n_max"]),
                                    dict(seq_cfg.get("params", {})))
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

    if checks.get("decomposition", False):
        extras["decomposition"] = _run_decomposition(scenario, f, finf, errors)

    if checks.get("equivalence", False):
        try:
            pts = scenario.interior_points()[:1]
            harness = [
                equivalence_harness(f, finf, p, build_mesh(
                    scenario.domain, scenario.cfg["mesh"]["h"]),
                    options=scenario.solver_options(5000))
                for p in pts
            ]
            extras["equivalence"] = harness
        except Exception as e:
            errors.append({"job": "equivalence", "error": str(e)})

    if checks.get("mu", False):
        tgrid = [1.0, 10.0, 100.0, 1e4, 1e6]
        try:
            extras["mu_table"] = [mu_estimate(f, finf, t, seed=scenario.seed)
                                  for t in tgrid]
        except Exception as e:  # collect and continue
            errors.append({"job": "mu", "error": str(e)})

    if checks.get("refinement", False):
        rows = []
        for bp in boundary_pts:
            for hh in (scenario.cfg["qslb"]["h"], scenario.cfg["qslb"]["h"] / 2):
                try:
                    rep = halfball_deficit(finf, bp, h=hh,
                                           tol=scenario.cfg["qslb"]["tol"],
                                           options=scenario.solver_options(9000))
                except Exception as e:  # collect and continue
                    errors.append({"job": "refinement", "error": str(e)})
                    continue
                rows.append({"x0": bp.x0.tolist(), "h": hh,
                             "deficit": rep.deficit})
        extras["refinement"] = rows

    if violated or qslb_violated:
        overall = "not-wlsc"
    elif low_conf or errors:
        overall = "inconclusive"
    else:
        overall = "wlsc-plausible"
    timing = {"total_s": time.perf_counter() - t_start}
    return Verdict(overall, qc_reports, qslb_reports, extras, errors, timing)


def _run_decomposition(scenario, f, finf, errors):
    from .functional import additivity_residual

    dcfg = scenario.cfg["decomposition"]
    seq_cfg = scenario.cfg["sequence"]
    try:
        spec = SequenceSpec(seq_cfg["kind"], scenario.domain,
                            int(dcfg.get("prefix", 80)) + 1,
                            dict(seq_cfg.get("params", {})))
        members = [generate(spec, n) for n in range(1, int(dcfg.get("prefix", 80)))]
        cover = CoverSpec([
            CompactSet.from_config(scenario.domain.dim, [item])
            for item in dcfg["cover"]
        ])
        res = local_decompose(members, cover, n_max=int(dcfg.get("n_max", 16)))
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


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, tuple):
        return list(o)
    raise TypeError(f"not JSON serializable: {type(o)}")


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def run_scenario(config_path, out_dir=None, seed=None, h=None,
                 checks_override=None):
    """Execute a scenario config; write report.json, CSV tables and witnesses.

    Returns (exit_code, verdict_or_None).  Exit 0 on completion regardless of
    the mathematical verdict, 2 on config schema violations (and on a
    non-positive `h` override), 1 on execution errors.
    """
    if h is not None and not h > 0:
        print(f"config error: --h must be positive, got {h}")
        return 2, None
    try:
        scenario = Scenario.from_file(config_path)
    except ConfigError as e:
        for msg, line in e.messages:
            where = f" (line {line})" if line else ""
            print(f"config error{where}: {msg}")
        return 2, None
    if checks_override is not None:
        scenario.cfg["checks"] = dict(checks_override)
    if seed is not None:
        scenario.cfg["seed"] = int(seed)
        scenario.seed = int(seed)
    if h is not None:
        scenario.cfg["mesh"]["h"] = float(h)
        scenario.cfg["qslb"]["h"] = float(h)
        scenario.cfg["qc"]["h"] = float(h)
    out = Path(out_dir) if out_dir else Path.cwd() / f"out_{scenario.name}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        verdict = analyze(scenario)
    except Exception as e:
        print(f"execution error: {e}")
        return 1, None

    report = {
        "schema_version": SCHEMA_VERSION,
        "scenario": scenario.cfg,
        "verdict": verdict.to_json(),
    }
    (out / "report.json").write_text(
        json.dumps(_sanitize(report), sort_keys=True, indent=1,
                   default=_json_default) + "\n"
    )
    (out / "timings.txt").write_text(f"total_s={verdict.timing['total_s']:.3f}\n")
    _write_tables(out, verdict)
    _write_witnesses(out, verdict)
    print(f"{scenario.name}: {verdict.overall} -> {out / 'report.json'}")
    return 0, verdict


def _write_tables(out, verdict):
    tables = out / "tables"
    tables.mkdir(exist_ok=True)
    with open(tables / "qc_deficits.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "xi", "L", "deficit", "verdict"])
        for x0, rep in verdict.qc_reports:
            for L, v in rep.per_cap:
                w.writerow([np.asarray(x0).tolist(), np.asarray(rep.xi).tolist(),
                            L, repr(v), rep.verdict])
    with open(tables / "qslb.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x0", "nu", "deficit", "verdict"])
        for rep in verdict.qslb_reports:
            w.writerow([np.asarray(rep.x0).tolist(), np.asarray(rep.nu).tolist(),
                        repr(rep.deficit), rep.verdict])
    if "liminf" in verdict.extras:
        with open(tables / "liminf.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "F"])
            for n, v in verdict.extras["liminf"]["table"]:
                w.writerow([n, repr(v)])
    if "refinement" in verdict.extras:
        with open(tables / "refinement.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x0", "h", "deficit"])
            for row in verdict.extras["refinement"]:
                w.writerow([row["x0"], row["h"], repr(row["deficit"])])


def _write_witnesses(out, verdict):
    idx = 0
    for x0, rep in verdict.qc_reports:
        if rep.witness is not None:
            data = rep.witness.to_json()
            data["check"] = "qc"
            data["x0"] = np.asarray(x0).tolist()
            (out / f"witness_qc_{idx}.json").write_text(
                json.dumps(_sanitize(data), sort_keys=True)
            )
            idx += 1
    idx = 0
    for rep in verdict.qslb_reports:
        if rep.witness is not None:
            data = rep.witness.to_json()
            data["check"] = "qslb"
            data["x0"] = np.asarray(rep.x0).tolist()
            (out / f"witness_qslb_{idx}.json").write_text(
                json.dumps(_sanitize(data), sort_keys=True)
            )
            idx += 1
