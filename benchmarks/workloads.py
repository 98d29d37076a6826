"""The three benchmark workloads: seeded inputs, operations and their checks.

Each workload builds its inputs from the workload seed alone and hands the
package only those inputs.  A pass is a fixed mix of operations in a fresh
seeded order, and a run stops only between passes, so the operation mix of
a run does not depend on where the clock stops.  Package functions are
looked up through their module at call time, so a traced run sees the
calls.
"""

import contextlib
import io
import json
import warnings
from pathlib import Path

import numpy as np

import bvlsc.boundary
import bvlsc.decompose
import bvlsc.functional
import bvlsc.verdict
from bvlsc import regions
from bvlsc.bv import BVFunction
from bvlsc.cli import bundled_scenarios
from bvlsc.integrands import catalog_get
from bvlsc.meshing import BoundaryPoint, Domain, interval_mesh_with
from bvlsc.sequences import SequenceSpec, generate

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


class Op:
    def __init__(self, label, run, expect):
        self.label = label
        self.run = run  # () -> output
        self.expect = expect


class Workload:
    name = ""
    why = ""

    def __init__(self, seed, negative_control=False):
        self.seed = seed
        self.negative_control = negative_control
        self.rng = np.random.default_rng(seed)

    def pass_ops(self, k):
        """The operations of pass k, in a fresh seeded order."""
        ops = list(self.ops)
        self.rng.shuffle(ops)
        return ops

    def smoke_ops(self, k=0):
        """One cheap operation, for the benchmark's own tests."""
        raise NotImplementedError

    def check(self, op, out):
        raise NotImplementedError

    def counters(self, op, out):
        return {}


class AnalyzeBundled(Workload):
    name = "analyze_bundled"
    why = ("the user-facing analyze path on the five bundled scenarios; "
           "tiny meshes, so per-call solver overhead dominates")
    # distinct scenario seeds a run cycles through, one per pass
    SCENARIO_SEEDS = 64

    def __init__(self, seed, out_root, negative_control=False):
        super().__init__(seed, negative_control)
        self.scenarios = bundled_scenarios()
        self.out_root = Path(out_root)
        # pass 0 runs with the workload seed itself; later passes with seeds
        # drawn from it, because the solver work depends on the scenario seed
        self.scenario_seeds = [seed] + [
            int(s) for s in self.rng.integers(1, 2**31, self.SCENARIO_SEEDS - 1)]
        self.expect = {}
        for name in sorted(self.scenarios):
            golden = json.loads((GOLDEN / f"{name}.report.json").read_text())["verdict"]
            expect = {
                "overall": golden["overall"],
                "qc": [q["verdict"] for q in golden["qc"]],
                "qslb": [q["verdict"] for q in golden["qslb"]],
            }
            if negative_control:
                expect["overall"] = ("wlsc-plausible" if expect["overall"] != "wlsc-plausible"
                                     else "not-wlsc")
            self.expect[name] = expect

    def _ops_for(self, names, scenario_seed):
        return [Op(f"{name}@{scenario_seed}",
                   _scenario_runner(self.scenarios[name], self.out_root / name, scenario_seed),
                   self.expect[name])
                for name in names]

    def pass_ops(self, k):
        ops = self._ops_for(sorted(self.scenarios),
                            self.scenario_seeds[k % len(self.scenario_seeds)])
        self.rng.shuffle(ops)
        return ops

    def smoke_ops(self, k=0):
        return self._ops_for(["nulllag_square"], self.seed)

    def check(self, op, out):
        code, verdict, _ = out
        if code != 0 or verdict is None:
            raise CheckFailed(f"run_scenario exited {code}")
        got = {
            "overall": verdict.overall,
            "qc": [r.verdict for _, r in verdict.qc_reports],
            "qslb": [r.verdict for r in verdict.qslb_reports],
        }
        if got != op.expect:
            raise CheckFailed(f"verdicts {got} differ from golden {op.expect}")
        if verdict.errors:
            raise CheckFailed(f"job errors {verdict.errors}")

    def counters(self, op, out):
        return {"verdict.report_bytes": out[2]}


def _scenario_runner(path, out_dir, seed):
    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code, verdict = bvlsc.verdict.run_scenario(path, out_dir=out_dir, seed=seed)
        written = sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())
        return code, verdict, written

    return run


class Halfball2D(Workload):
    name = "halfball_2d"
    why = ("the half-ball Rayleigh-quotient solve on a fresh 1,275-cell mesh "
           "per call: the solver on a 4-40x larger mesh in normalize mode")
    H = 0.05
    # per pass: one full-budget linear solve and three patience-stopped
    # norm_sin solves, so the median is a norm_sin solve and the tail a
    # linear one
    MIX = ("linear", "norm_sin", "norm_sin", "norm_sin")

    def __init__(self, seed, negative_control=False):
        super().__init__(seed, negative_control)
        self.ops = [self._make_op(kind) for kind in self.MIX]

    def _make_op(self, kind):
        theta = self.rng.uniform(0.0, 2.0 * np.pi)
        nu = np.array([np.cos(theta), np.sin(theta)])
        if kind == "linear":
            while True:
                A = self.rng.normal(size=(1, 2))
                if abs(float(A[0] @ nu)) >= 0.1:
                    break
            f = catalog_get("linear", {"matrix": A.tolist()})
            normA, normal_part = float(np.linalg.norm(A)), abs(float(A[0] @ nu))
            expect = {"verdict": "violated",
                      "range": (-normA * (1 + 1e-3), -0.9 * normal_part)}
        else:
            f = catalog_get("norm_sin", {"M": 1, "N": 2})
            expect = {"verdict": "qslb-plausible", "range": (1 - 1e-3, 1 + 1e-3)}
        if self.negative_control:
            expect = dict(expect, verdict="qslb-plausible" if kind == "linear" else "violated")
        bp = BoundaryPoint([0.0, 0.0], nu)
        finf = f.recession

        def run():
            return bvlsc.boundary.halfball_deficit(finf, bp, h=self.H)

        return Op(f"{kind}@{theta:.3f}", run, expect)

    def smoke_ops(self, k=0):
        return [op for op in self.ops if op.label.startswith("norm_sin")][:1]

    def check(self, op, rep):
        lo, hi = op.expect["range"]
        if rep.verdict != op.expect["verdict"]:
            raise CheckFailed(f"verdict {rep.verdict}, expected {op.expect['verdict']}")
        if not lo <= rep.deficit <= hi:
            raise CheckFailed(f"deficit {rep.deficit} outside [{lo}, {hi}]")


CATALOG_1D = [
    ("linear", {"matrix": [[1.0]]}),
    ("norm", {"M": 1, "N": 1}),
    ("negnorm", {"M": 1, "N": 1}),
    ("area", {"M": 1, "N": 1}),
    ("boundary_null_lagrangian", {"a": [1.0], "t": [1.0]}),
    ("norm_sin", {"M": 1, "N": 1}),
]


class Decompose1D(Workload):
    name = "decompose_1d"
    why = ("the 1D decomposition families: refinement geometry in "
           "tv_on_neighborhood dominates and the solver is never called")
    N_VALUES = (8, 16, 32, 64)
    MEMBERS = range(1, 140)

    def __init__(self, seed, negative_control=False):
        super().__init__(seed, negative_control)
        omega = Domain.interval(0.0, 1.0)
        families = []
        spec = SequenceSpec("jump_migration", omega, n_max=200)
        families.append(("jump_to_boundary", [generate(spec, n) for n in self.MEMBERS],
                         [regions.point([0.0]), regions.box([0.125], [1.0])]))
        # a jump migrating to the interior point c; criterion 6 verifies the
        # properties for c = 0.5 (at c = 0.5037 the norm_sin additivity
        # residual at n=64 is 1.5e-2, over the 1e-2 check)
        c = 0.5
        members = []
        for n in self.MEMBERS:
            mesh = interval_mesh_with(0.0, 1.0, 1.0 / 16, [c - c / n, c], domain=omega)
            members.append(BVFunction.indicator_1d(mesh, c - c / n, c))
        sides = regions.CompactSet(1).add_segment([0.0], [c - 0.04]).add_segment(
            [c + 0.04], [1.0])
        families.append(("jump_to_interior", members, [regions.point([c]), sides]))
        spec3 = SequenceSpec("pure_boundary_concentration", omega, n_max=300)
        ends = regions.CompactSet(1).add_point([0.0]).add_point([1.0])
        families.append(("boundary_bumps", [generate(spec3, n) for n in self.MEMBERS],
                         [ends, regions.box([0.08], [0.92])]))
        self.ops = []
        for label, members, sets in families:
            tag, params = CATALOG_1D[int(self.rng.integers(len(CATALOG_1D)))]
            f = catalog_get(tag, params)
            expect = {"table_verdict": "charges K" if negative_control else "tight"}
            self.ops.append(Op(f"{label}/{tag}",
                               self._runner(members, bvlsc.decompose.CoverSpec(sets), f),
                               expect))

    def _runner(self, members, cover, f):
        n_values = self.N_VALUES

        def run():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # cover-gap note
                res = bvlsc.decompose.local_decompose(members, cover, n_max=max(n_values))
            rep = bvlsc.decompose.verify_properties(res, deltas=(0.1, 0.02, 0.005),
                                                     charge_threshold=1e-3)
            add = bvlsc.functional.additivity_residual(
                f, f.recession, None,
                [res.subsequence[n] for n in n_values],
                [res.components[n] for n in n_values])
            return rep, add

        return run

    def smoke_ops(self, k=0):
        return [op for op in self.ops if op.label.startswith("boundary_bumps")]

    def check(self, op, out):
        rep, add = out
        if not rep["reassembly_dev"] <= 1e-14:
            raise CheckFailed(f"reassembly deviation {rep['reassembly_dev']}")
        if not (rep["mass_bound_ok"] and rep["cutoff_gradient_ok"]):
            raise CheckFailed("mass or cutoff-gradient bound violated")
        for key, table in rep["charge_tables"].items():
            if table["verdict"] != op.expect["table_verdict"]:
                raise CheckFailed(f"charge table {key}: {table['verdict']}")
            if not table["table"][-1][1] < 1e-3:
                raise CheckFailed(f"charge table {key} ends at {table['table'][-1][1]}")
        if not abs(add["residuals"][-1]) < 1e-2:
            raise CheckFailed(f"additivity residual at n=64: {add['residuals'][-1]}")


def make(name, seed, out_root, negative_control=False):
    if name == AnalyzeBundled.name:
        return AnalyzeBundled(seed, out_root, negative_control)
    if name == Halfball2D.name:
        return Halfball2D(seed, negative_control)
    if name == Decompose1D.name:
        return Decompose1D(seed, negative_control)
    raise ValueError(f"unknown workload {name!r}")

