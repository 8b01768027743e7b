"""Experiment driver: solve, eigenvalue, variance/cost studies, checks.

Every run writes a plain-text manifest of the parameters its command reads
(re-runnable via --config), plus CSV outputs.  All output files are fully
determined by (config, seed); wall-clock timing goes to a separate
timing.txt so the deterministic artifacts stay byte-identical across reruns.
"""

from __future__ import annotations

import argparse
import ast
import os
import re
import sys
import time
from dataclasses import dataclass, field, fields as dfields

import numpy as np

from . import __version__, assumptions, eigen, mlmc
from .geometry import Ball, ConvexPolygon, Domain, box, unit_ball
from .mesh import MeshHierarchy, MeshLevel, base_mesh_for, build_hierarchy
from .problems import BY_NAME, Problem, by_name

_EPS_SCHEDULE = [2.0 ** -12, 2.0 ** -14, 2.0 ** -16, 2.0 ** -18]

_ALL = ("solve", "eig", "variance-study", "cost-study", "check-assumptions")
_MESH = ("solve", "eig", "variance-study", "cost-study")
_PROBLEM = ("solve", "variance-study", "cost-study")  # these build a Problem
_CHECK = ("check-assumptions",)


def _opt(default, commands, help, **extras):
    return field(default=default, metadata={"commands": commands, "help": help,
                                            "extras": extras})


@dataclass
class RunConfig:
    """Parameters of one CLI run.

    Each option is declared once, here, with the commands that read it and
    the help text and extra `add_argument` keywords of its flag.  A command
    takes its own options from flags and --config and records them in
    manifest.txt; the options it does not read keep their defaults.  The
    library function that reads a value checks it, by name, before any walk;
    `validate` holds only the rules that exist in the CLI alone.
    """

    command: str
    alpha: float = _opt(1.0, _ALL, "fractional order in (0, 2)")
    problem: str = _opt("example1", _PROBLEM, "named problem, or custom",
                        choices=[*BY_NAME, "custom"])
    f_expr: str | None = _opt(None, _PROBLEM, "source expression in x, y, r2 "
                                              "(custom problem)")
    g_expr: str | None = _opt(None, _PROBLEM,
                              "exterior-data expression in x, y, r2 (custom "
                              "problem); |g| must grow slower than "
                              "|x|^(alpha/2), so an unbounded r2 never fits")
    domain: str | None = _opt(None, _ALL, "ball(cx,cy,r) | box(x0,y0,x1,y1) | "
                                          "polygon((x,y),...)")
    l0: int = _opt(4, _MESH, "coarsest mesh level; solve, eig and cost-study "
                             "need triangles inside the domain there")
    L: int = _opt(6, _MESH, "finest mesh level")
    eps: float = _opt(1e-2, ("solve",), "field-solve L2 tolerance")
    tol: float = _opt(1e-2, ("eig",), "eigenvalue-residual tolerance")
    B: float = _opt(3.0, ("eig",), "eigenvalue confidence factor (> 1)")
    m: int = _opt(5, ("eig",), "Arnoldi iteration count")
    seed: int = _opt(0, _ALL, "master seed (falls back to $FRACWOS_SEED)")
    out: str = _opt(".", _ALL, "output directory")
    pilot: int = _opt(32, ("solve", "cost-study"),
                      "pilot samples per level")
    samples: int = _opt(256, ("variance-study",), "samples per level")
    eps_list: str = _opt("", ("cost-study",),
                         "comma-separated decreasing tolerances")
    which: str = _opt("I2", _CHECK, "assumption functional to check",
                      choices=["I1", "I2"])
    mu: float = _opt(1.0, _CHECK, "contraction exponent")
    t: float = _opt(1.0, _CHECK, "boundary-functional exponent")
    A: float = _opt(1e4, _CHECK, "boundary-functional cap")
    M: int = _opt(10 ** 6, _CHECK, "samples per start point")
    J: int = _opt(20, _CHECK, "number of start points")
    max_cost: float = _opt(0.0, ("solve", "cost-study"),
                           "walk-step budget: solve's cap (0: 2^40), "
                           "cost-study's execute budget; inf means no cap")
    fixed_accuracy: bool = _opt(False, ("eig",),
                                "disable the variable solve-tolerance rule",
                                action="store_const", const=True)

    def validate(self):
        if self.problem == "custom" and not (self.f_expr and self.g_expr):
            raise ValueError("custom problem needs f-expr and g-expr")
        if self.domain and self.problem != "custom" and self.command in _PROBLEM:
            raise ValueError(f"--domain needs --problem custom; --problem "
                             f"{self.problem} fixes its own domain")
        if self.which not in ("I1", "I2"):
            raise ValueError("which must be I1 or I2")
        return self


_NUM = r"[-+]?\d*\.?\d+(?:[eE][-+]?\d+)?"


def parse_domain(spec: str) -> Domain:
    """Parse `ball(cx, cy, r)`, `box(x0, y0, x1, y1)`, `polygon((x, y), ...)`."""
    s = spec.strip().replace(" ", "")
    m = re.fullmatch(rf"ball\(({_NUM}),({_NUM}),({_NUM})\)", s)
    if m:
        cx, cy, r = map(float, m.groups())
        return Ball((cx, cy), r)
    m = re.fullmatch(rf"box\(({_NUM}),({_NUM}),({_NUM}),({_NUM})\)", s)
    if m:
        return box(*map(float, m.groups()))
    m = re.fullmatch(r"polygon\((.*)\)", s)
    if m:
        pts = re.findall(rf"\(({_NUM}),({_NUM})\)", m.group(1))
        if len(pts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices: {spec!r}")
        return ConvexPolygon(np.array(pts, dtype=float))
    raise ValueError(f"cannot parse domain spec {spec!r}")


class ExprField:
    """Scalar field compiled from an expression in x, y, r2 (numpy namespace)."""

    _ALLOWED = {"sin", "cos", "exp", "log", "sqrt", "abs", "tanh", "pi",
                "maximum", "minimum", "where"}

    def __init__(self, expr: str):
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id not in self._ALLOWED | {"x", "y", "r2"}:
                raise ValueError(f"name {node.id!r} not allowed in field expression")
            if isinstance(node, ast.Attribute):
                raise ValueError("attribute access not allowed in field expression")
        self._code = compile(tree, "<field>", "eval")

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=np.float64)
        x, y = pts[..., 0], pts[..., 1]
        ns = {name: getattr(np, name) for name in self._ALLOWED}
        ns.update(x=x, y=y, r2=x * x + y * y)
        return np.asarray(eval(self._code, {"__builtins__": {}}, ns), dtype=np.float64)


def build_problem(cfg: RunConfig) -> Problem:
    if cfg.problem != "custom":
        return by_name(cfg.problem, cfg.alpha)
    domain = parse_domain(cfg.domain) if cfg.domain else unit_ball()
    return Problem(alpha=cfg.alpha, domain=domain, f=ExprField(cfg.f_expr),
                   g=ExprField(cfg.g_expr), name="custom")


def build_mesh(cfg: RunConfig, domain: Domain) -> MeshHierarchy:
    return build_hierarchy(base_mesh_for(domain), cfg.L, domain=domain)


def fit_slope(pairs) -> float:
    """Least-squares slope of log2 V against log2 h over (h, V) pairs."""
    pairs = list(pairs)
    if len(pairs) < 3:
        raise ValueError("need at least 3 (h, V) pairs")
    h = np.array([p[0] for p in pairs], dtype=float)
    v = np.array([p[1] for p in pairs], dtype=float)
    if np.any(h <= 0) or np.any(v <= 0):
        raise ValueError("slope fit needs positive h and V")
    x, y = np.log2(h), np.log2(v)
    xc = x - x.mean()
    return float((xc @ (y - y.mean())) / (xc @ xc))


# ---------------------------------------------------------------------------
# manifest / config plumbing

_PARSE = {"int": int, "float": float,
          "bool": lambda v: v.lower() in ("1", "true", "yes")}


def _options(command: str) -> list:
    """The RunConfig fields that `command` reads, in field order."""
    return [f for f in dfields(RunConfig)
            if command in f.metadata.get("commands", ())]


def read_config(path: str) -> dict:
    """Parse `key = value` lines; '#' starts a comment."""
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {raw.rstrip()}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
    return out


def write_manifest(path: str, cfg: RunConfig, info: dict) -> None:
    with open(path, "w") as fh:
        fh.write(f"command = {cfg.command}\n")
        for f in _options(cfg.command):
            val = getattr(cfg, f.name)
            if f.name != "out" and val is not None and val != "":
                fh.write(f"{f.name} = {val}\n")
        fh.write(f"# fracwos {__version__}, numpy {np.__version__}\n")
        for key, val in info.items():
            fh.write(f"# {key} = {val}\n")


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(path: str, header: list[str], rows, first: str = "",
               last: str = "") -> None:
    """Column names and rows, between optional `first` and `last` lines."""
    with open(path, "w") as fh:
        if first:
            fh.write(first + "\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")
        if last:
            fh.write(last + "\n")


def write_field_csv(path, level: MeshLevel, values, alpha: float,
                    seed: int) -> None:
    """Vertex values on one mesh level as solution.csv: a `# level=...`
    line, then vertex_index,x,y,value."""
    x, y = level.vertices.T.tolist()
    values = np.asarray(values, dtype=np.float64).tolist()
    _write_csv(path, ["vertex_index", "x", "y", "value"],
               zip(range(len(x)), x, y, values),
               first=f"# level={level.level} alpha={float(alpha)!r} seed={seed}")


# ---------------------------------------------------------------------------
# commands

def cmd_solve(cfg: RunConfig) -> dict:
    problem = build_problem(cfg)
    hier = build_mesh(cfg, problem.domain)
    res = mlmc.run(hier, problem, cfg.eps, cfg.l0, cfg.seed,
                   pilot_M=cfg.pilot, max_cost=cfg.max_cost or mlmc.MAX_COST)
    level = hier.level(res.solution.level)
    write_field_csv(os.path.join(cfg.out, "solution.csv"), level,
                    res.solution.values, cfg.alpha, cfg.seed)
    info = {"levels": f"{res.plan.coarsest}..{res.plan.finest}",
            "V_per_level": [float(v) for v in res.plan.V],
            "C_per_level": [float(c) for c in res.plan.C],
            "M_per_level": [int(m) for m in res.plan.M],
            "samples": [int(x) for x in res.samples_used],
            "total_cost": res.total_cost,
            "stat_error_est": res.stat_error_est, "c1_hat": res.plan.c1_hat}
    if problem.exact is not None:
        abs_err, rel_err = mlmc.error_vs_exact(res, problem.exact, hier)
        info["abs_error"] = abs_err
        info["rel_error"] = rel_err
    return info


def cmd_eig(cfg: RunConfig) -> dict:
    domain = parse_domain(cfg.domain) if cfg.domain else unit_ball()
    hier = build_mesh(cfg, domain)
    res = eigen.smallest_eigenvalue(
        cfg.alpha, hier, cfg.tol, cfg.B, cfg.m, cfg.seed, l0=cfg.l0,
        variable_accuracy=not cfg.fixed_accuracy)
    rows = [(r["k"], r["theta"], r["lambda"], r["residual"],
             r["gap"], r["wos_tol"], r["cost"]) for r in res.history]
    _write_csv(os.path.join(cfg.out, "iters.csv"),
               ["k", "theta", "lambda", "residual", "gap", "wos_tol", "cost"],
               rows)
    return {"lambda": res.lam, "theta": res.theta, "residual": res.residual,
            "iterations": res.iterations, "total_cost": res.total_cost}


def cmd_variance_study(cfg: RunConfig) -> dict:
    problem = build_problem(cfg)
    hier = build_mesh(cfg, problem.domain)
    stats = mlmc.pilot(hier, problem, cfg.samples, cfg.seed, l0=cfg.l0,
                       l_max=cfg.L)
    rows = []
    for ell in range(cfg.l0, cfg.L):
        mom = stats.trans[ell]
        rows.append((ell, hier.level(ell).mesh_width, mom.variance,
                     mom.mean_cost, mom.count))
    slope = fit_slope([(r[1], r[2]) for r in rows]) if len(rows) >= 3 else None
    _write_csv(os.path.join(cfg.out, "study.csv"),
               ["level", "h", "V", "C", "M"], rows, last=f"# slope = {slope}")
    return {"slope": slope, "levels": [r[0] for r in rows],
            "V": [r[2] for r in rows]}


def cmd_cost_study(cfg: RunConfig) -> dict:
    problem = build_problem(cfg)
    hier = build_mesh(cfg, problem.domain)
    eps_list = ([float(s) for s in cfg.eps_list.split(",") if s]
                if cfg.eps_list else _EPS_SCHEDULE)
    rows = mlmc.cost_comparison(hier, problem, eps_list, cfg.l0, cfg.seed,
                                pilot_M=cfg.pilot, max_cost=cfg.max_cost)
    _write_csv(os.path.join(cfg.out, "study.csv"),
               ["eps", "L", "mlmc_cost", "vanilla_cost", "executed_cost"],
               [(r["eps"], r["L"], r["mlmc_cost"], r["vanilla_cost"],
                 r["executed_cost"]) for r in rows])
    return {"rows": [(r["eps"], r["mlmc_cost"], r["vanilla_cost"]) for r in rows]}


def cmd_check_assumptions(cfg: RunConfig) -> dict:
    domain = parse_domain(cfg.domain) if cfg.domain else box(0.0, 0.0, 1.0, 1.0)
    acfg = assumptions.AssumptionConfig(
        alpha=cfg.alpha, mu=cfg.mu, t=cfg.t, A=cfg.A, samples_M=cfg.M,
        start_points_J=cfg.J, domain=domain, seed=cfg.seed)
    if cfg.which == "I2":
        res, mu_or_t, A = assumptions.check_I2(acfg), cfg.mu, ""
    else:
        res, mu_or_t, A = assumptions.check_I1(acfg), cfg.t, cfg.A
    stderr = max(se for _, se in res.per_start)
    _write_csv(os.path.join(cfg.out, "study.csv"),
               ["alpha", "mu_or_t", "A", "max_I", "stderr"],
               [(cfg.alpha, mu_or_t, A, res.max_over_starts, stderr)])
    return {"max_I": res.max_over_starts, "stderr": stderr}


_COMMANDS = {
    "solve": (cmd_solve, "multilevel field solve; writes solution.csv"),
    "eig": (cmd_eig, "smallest eigenvalue by inexact Arnoldi; writes iters.csv"),
    "variance-study": (cmd_variance_study,
                       "coupling-variance decay per level; writes study.csv"),
    "cost-study": (cmd_cost_study, "multilevel vs single-level planned costs; "
                                   "writes study.csv"),
    "check-assumptions": (cmd_check_assumptions,
                          "one-step contraction/boundary functionals"),
}


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="fracwos",
                                 description="Walk-outside-spheres field and "
                                             "eigenvalue solver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, description) in _COMMANDS.items():
        # no prefix matching: `solve --m` must not mean --max-cost
        p = sub.add_parser(name, description=description, allow_abbrev=False)
        p.add_argument("--config", help="key = value file overriding defaults")
        for f in _options(name):
            extras = f.metadata["extras"]
            if "action" not in extras:
                extras = {"type": _PARSE.get(f.type, str), **extras}
            p.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                           help=f.metadata["help"], **extras)
    return ap


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    own = {f.name: f for f in _options(args.command)}
    file_cfg = read_config(args.config) if args.config else {}
    ignored = []  # keys of other commands, as in manifests of older versions
    for key, val in file_cfg.items():
        if key == "command":
            if val != args.command:
                raise ValueError(f"config is for command {val!r}, "
                                 f"not {args.command!r}")
        elif key in own:
            setattr(cfg, key, _PARSE.get(own[key].type, str)(val))
        elif key in RunConfig.__dataclass_fields__:
            ignored.append(key)
        else:
            raise ValueError(f"unknown config key {key!r}")
    if ignored:
        print(f"fracwos: {args.command} ignores config keys read by other "
              f"commands: {', '.join(ignored)}", file=sys.stderr)
    for key in own:
        val = getattr(args, key)
        if val is not None:
            setattr(cfg, key, val)
    if args.seed is None and "seed" not in file_cfg:
        env = os.environ.get("FRACWOS_SEED")
        if env is not None:
            cfg.seed = int(env)
    return cfg.validate()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    made = []  # the directories this run creates for --out, deepest first
    try:
        cfg = build_config(args)
        path = os.path.abspath(cfg.out)
        while not os.path.isdir(path):
            made.append(path)
            path = os.path.dirname(path)
        os.makedirs(cfg.out, exist_ok=True)
        t0 = time.time()
        info = _COMMANDS[cfg.command][0](cfg)
        wall = time.time() - t0
        write_manifest(os.path.join(cfg.out, "manifest.txt"), cfg, info)
        with open(os.path.join(cfg.out, "timing.txt"), "w") as fh:
            fh.write(f"wall_seconds = {wall:.3f}\n")
        for key, val in info.items():
            print(f"{key}: {val}")
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        for path in made:  # a failed run leaves no --out of its own
            if os.path.isdir(path) and not os.listdir(path):
                os.rmdir(path)
        print(f"fracwos: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
