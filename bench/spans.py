"""Outside-in span recorder for the traced benchmark run.

Each listed public function of a qp2d layer is replaced by a wrapper at every
module attribute that refers to it, so a call is recorded whichever import
path its caller resolved it through (``qp2d.perturb.eigvals_oracle`` and
``qp2d.fiber.eigvals_oracle`` are one function).  Methods are wrapped on
their class.  Spans stay in memory as [name, start, end, parent, status,
size, item] and are written out when the run ends.  Nothing under ``src/``
is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (module, attribute or Class.method) of every traced public function
TARGETS = (
    ("fiber", "assemble"),
    ("fiber", "eigvals_oracle"),
    ("resonance", "build_omega1"),
    ("resonance", "classify"),
    ("resonance", "strength"),
    ("resonance", "block_poles"),
    ("resonance", "assemble_projector"),
    ("resonance", "appendix4_count"),
    ("perturb", "level2_geometry"),
    ("perturb", "LevelEvaluator.__init__"),
    ("perturb", "LevelEvaluator.eigenvalue"),
    ("perturb", "generic_step"),
    ("perturb", "eigenvalue_level"),
    ("perturb", "projector_level"),
    ("isoenergetic", "trace_curve"),
    ("multiscale", "local_pole_discs"),
    ("multiscale", "build_m2set"),
    ("multiscale", "region_map"),
    ("wavefunction", "synthesize"),
    ("wavefunction", "residual"),
    ("wavefunction", "sample"),
)

# span name -> size recorded from (args, result) on success
SIZES = {
    "fiber.assemble": lambda args, out: out.dim,
    "fiber.eigvals_oracle": lambda args, out: args[0].dim,
    "isoenergetic.trace_curve": lambda args, out: len(out.admissible_samples),
}

NAME, START, END, PARENT, STATUS, SIZE, ITEM = range(7)


class Recorder:
    def __init__(self, rejections: tuple):
        self.rejections = rejections
        self.spans: list[list] = []
        self.item = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack, rejections = self.spans, self._stack, self.rejections
        size = SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, "error", 0, self.item]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                span[STATUS] = "ok"
                if size is not None:
                    span[SIZE] = size(args, out)
                return out
            except rejections:
                span[STATUS] = "reject"
                raise
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        for mod_name, attr in TARGETS:
            module = importlib.import_module(f"qp2d.{mod_name}")
            name = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(module, attr)
            wrapped = self.wrap(name, orig)
            for mod in list(sys.modules.values()):
                space = getattr(mod, "__dict__", None)
                if not isinstance(space, dict):
                    continue
                for key, val in list(space.items()):
                    if val is orig:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, new) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, new)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def dump(self, path: str, t0: float) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": s[NAME],
                            "start": s[START] - t0,
                            "end": s[END] - t0,
                            "parent": s[PARENT],
                            "status": s[STATUS],
                            "size": s[SIZE],
                            "item": s[ITEM],
                        }
                    )
                    + "\n"
                )


def span_cost(rejections: tuple, calls: int = 20000) -> float:
    """Seconds one wrapper adds to a call, measured on a no-op."""

    def noop():
        return None

    rec = Recorder(rejections)
    traced = rec.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


def layer_metrics(rec: Recorder, wall: float, per_span: float) -> dict[str, float]:
    """Per-layer calls, self time and ratios from the recorded spans."""
    spans = rec.spans
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
            root[i] = root[s[PARENT]]
        else:
            root[i] = i
    out: dict[str, float] = {}
    names = [f"{m}.{a}" for m, a in TARGETS]
    for name in names:
        out[f"{name}.calls"] = 0
        out[f"{name}.self_s"] = 0.0
    by_name: dict[str, list[int]] = {name: [] for name in names}
    covered = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        out[f"{s[NAME]}.calls"] += 1
        out[f"{s[NAME]}.self_s"] += dur - child[i]
        by_name[s[NAME]].append(i)
        if s[PARENT] < 0:
            covered += dur

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    asm = by_name["fiber.assemble"]
    out["fiber.assemble.dim_mean"] = ratio(sum(spans[i][SIZE] for i in asm), len(asm))
    out["fiber.eigvals_oracle.dim_max"] = max(
        (spans[i][SIZE] for i in by_name["fiber.eigvals_oracle"]), default=0
    )
    geo = by_name["perturb.level2_geometry"]
    out["perturb.level2_geometry.reject_ratio"] = ratio(
        sum(spans[i][STATUS] == "reject" for i in geo), len(geo)
    )
    step = by_name["perturb.generic_step"]
    out["perturb.generic_step.ok_ratio"] = ratio(
        sum(spans[i][STATUS] == "ok" for i in step), len(step)
    )
    curves = by_name["isoenergetic.trace_curve"]
    evals = sum(
        spans[root[i]][NAME] == "isoenergetic.trace_curve"
        for i in by_name["perturb.LevelEvaluator.eigenvalue"]
    )
    out["isoenergetic.evals_per_sample"] = ratio(
        evals, sum(spans[i][SIZE] for i in curves)
    )
    out["trace.coverage"] = covered / wall if wall > 0 else 0.0
    out["trace.overhead_s"] = per_span * len(spans)
    return out


# name -> (unit, better) of every per-layer metric, in report order
def per_layer_names() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for m, a in TARGETS:
        out[f"{m}.{a}.calls"] = ("count", "lower")
        out[f"{m}.{a}.self_s"] = ("s", "lower")
    out["fiber.assemble.dim_mean"] = ("rows", "lower")
    out["fiber.eigvals_oracle.dim_max"] = ("rows", "lower")
    out["perturb.level2_geometry.reject_ratio"] = ("ratio", "lower")
    out["perturb.generic_step.ok_ratio"] = ("ratio", "higher")
    out["isoenergetic.evals_per_sample"] = ("count", "lower")
    out["trace.coverage"] = ("ratio", "higher")
    out["trace.overhead_s"] = ("s", "lower")
    return out
