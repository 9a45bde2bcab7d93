"""Independent reference checks of every operation's output.

Nothing here imports distp. Transport costs are checked against the
HiGHS linear program in ``scipy.optimize.linprog``, bottleneck (W-inf)
distances against a threshold search with ``networkx`` maximum flow, and
divergences and audit values against stacked numpy code. ``obfuscate``
output is checked against a vectorised inverse-CDF sampler that reads the
same Philox stream and the kernel rows of the mechanism file actually used
(tied optimal couplings may legitimately differ between solvers, so a
stored digest would be the wrong oracle).

``check`` returns ``{op: message}`` for every operation that disagrees.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import networkx as nx
import numpy as np
from scipy import sparse
from scipy.optimize import linprog

TAU_ZERO = 1e-12   # support threshold, as the library documents it
RTOL = 1e-7
ATOL = 1e-9
MARGINAL_TOL = 1e-9


class Mismatch(Exception):
    pass


def _close(got, want, what: str, rtol: float = RTOL, atol: float = ATOL) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise Mismatch(f"{what}: shape {got.shape} != {want.shape}")
    same_inf = np.isinf(got) & np.isinf(want) & (np.sign(got) == np.sign(want))
    finite = ~same_inf
    if np.any(np.isinf(got[finite]) | np.isinf(want[finite])) or not np.allclose(
            got[finite], want[finite], rtol=rtol, atol=atol):
        diff = np.abs(np.where(finite, got - want, 0.0))
        k = int(np.argmax(diff))
        raise Mismatch(f"{what}: {got.ravel()[k]!r} != {want.ravel()[k]!r}")


def _transport_lp(a, b, cost, allowed=None):
    """Optimal value of the transport LP, or None when infeasible."""
    m, n = cost.shape
    rows = sparse.kron(sparse.eye(m), np.ones((1, n)))
    cols = sparse.kron(np.ones((1, m)), sparse.eye(n))
    bounds = [(0, None)] * (m * n)
    if allowed is not None:
        bounds = [(0, None) if ok else (0, 0) for ok in allowed.ravel()]
    res = linprog(cost.ravel(), A_eq=sparse.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([a, b]), bounds=bounds, method="highs")
    if res.status == 2:
        return None
    if res.status != 0:
        raise Mismatch(f"reference LP failed: {res.message}")
    return float(res.fun)


def _flow_feasible(a, b, allowed) -> bool:
    graph = nx.DiGraph()
    for i, mass in enumerate(a):
        graph.add_edge("s", ("r", i), capacity=float(mass))
    for j, mass in enumerate(b):
        graph.add_edge(("c", j), "t", capacity=float(mass))
    for i, j in zip(*np.nonzero(allowed)):
        graph.add_edge(("r", int(i)), ("c", int(j)))  # no capacity: unbounded
    return nx.maximum_flow_value(graph, "s", "t") >= 1.0 - MARGINAL_TOL


def w_inf(a, b, cost) -> float:
    """Smallest threshold whose arcs carry a full unit of flow."""
    values = np.unique(cost)
    lo, hi = 0, values.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _flow_feasible(a, b, cost <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(values[lo])


def _check_coupling(mass, a, b, what: str) -> np.ndarray:
    mass = np.asarray(mass, dtype=float)
    if mass.shape != (len(a), len(b)) or np.any(mass < 0.0):
        raise Mismatch(f"{what}: not a nonnegative {len(a)}x{len(b)} plan")
    _close(mass.sum(1), a, f"{what} row marginal", rtol=0, atol=MARGINAL_TOL)
    _close(mass.sum(0), b, f"{what} column marginal", rtol=0, atol=MARGINAL_TOL)
    return mass


def _check_optimal(mass, a, b, cost, what: str) -> None:
    mass = _check_coupling(mass, a, b, what)
    _close(float(np.sum(cost * mass)), _transport_lp(a, b, cost), f"{what} cost")


def _check_staircase(mass, a, b, what: str) -> None:
    mass = _check_coupling(mass, a, b, what)
    cells = np.argwhere(mass > 0.0)
    if np.any(np.diff(cells[:, 0]) < 0) or np.any(np.diff(cells[:, 1]) < 0):
        raise Mismatch(f"{what}: support is not a north-west staircase")


# -- divergences over stacked rows: p and q are (k, |Y|) arrays ----------

def max_div(p, q):
    on = p > TAU_ZERO
    ratio = np.where(on, np.log(np.where(on, p, 1.0) / np.where(q > TAU_ZERO, q, 1.0)), -np.inf)
    out = ratio.max(axis=-1)
    return np.where(np.any(on & (q <= TAU_ZERO), axis=-1), np.inf, out)


def f_div(gen, p, q):
    on = q > TAU_ZERO
    t = np.where(on, p / np.where(on, q, 1.0), 1.0)
    vals = np.where(on, q * gen(t), 0.0)
    out = vals.sum(axis=-1)
    return np.where(np.any(~on & (p > TAU_ZERO), axis=-1), np.inf, out)


def _xlogx(t):
    return np.where(t > 0, t * np.log(np.where(t > 0, t, 1.0)), 0.0)


def _neglog(t):
    return np.where(t > 0, -np.log(np.where(t > 0, t, 1.0)), np.inf)


GENERATORS = {
    "kl": _xlogx,
    "rkl": _neglog,
    "tv": lambda t: 0.5 * np.abs(t - 1.0),
    "chi2": lambda t: (t - 1.0) ** 2,
    "hellinger": lambda t: 0.5 * (np.sqrt(t) - 1.0) ** 2,
}


def prefix_max_div(p, q, delta):
    """Slack max divergence by the ratio-sorted prefix rule (full supports)."""
    ratio = p / q
    order = np.argsort(-ratio, axis=-1, kind="stable")
    cp = np.cumsum(np.take_along_axis(p, order, -1), axis=-1)
    cq = np.cumsum(np.take_along_axis(q, order, -1), axis=-1)
    ok = (cp >= delta) & (cp - delta > 0.0)
    vals = np.where(ok, np.log(np.where(ok, cp - delta, 1.0) / cq), -np.inf)
    return vals.max(axis=-1)


def _scaled(values, dist):
    dist = np.broadcast_to(dist, values.shape)
    return np.where(dist <= TAU_ZERO, np.where(values <= 1e-9, 0.0, np.inf),
                    values / np.where(dist <= TAU_ZERO, 1.0, dist))


def _check_report(report, forward, backward, what: str, rtol: float = 1e-6) -> None:
    _close(report["forward"], forward, f"{what} forward", rtol=rtol)
    _close(report["backward"], backward, f"{what} backward", rtol=rtol)
    _close(report["observed"], max(np.max(forward), np.max(backward)),
           f"{what} observed_eps", rtol=rtol)


def _kernel_rows(mass, approx, target):
    approx = np.asarray(approx)
    on = approx > TAU_ZERO
    rows = np.asarray(mass) / np.where(on, approx, 1.0)[:, None]
    return np.where(on[:, None], rows, np.asarray(target)[None, :])


# -- per workload ---------------------------------------------------------

def _xdistp_euclid(data, outputs, workdir, failures):
    for g, d in enumerate(data["datasets"]):
        cost = np.array(d["cost"])
        target = np.array(d["target"])
        approx = {s: np.array(v) for s, v in d["approx"].items()}
        pairs = [(np.array(a), np.array(b)) for a, b in d["pairs"]]

        def build(g=g, cost=cost, target=target, approx=approx):
            spec = outputs[f"{g}.build"]
            for s, lam in approx.items():
                _check_optimal(spec[s], lam, target, cost, f"coupling {s}")

        _run(failures, f"{g}.build", build)
        allowed = cost <= d["radius"]
        for k, (a, b) in enumerate(pairs):
            def member(k=k, a=a, b=b, cost=cost, allowed=allowed, g=g):
                restricted = _transport_lp(a, b, cost, allowed)
                got = outputs[f"{g}.member.{k}"]
                if restricted is None:
                    if got:
                        raise Mismatch("member of an infeasible relation lift")
                    return
                gap = restricted - _transport_lp(a, b, cost)
                if (gap <= 1e-10 and not got) or (gap > 1e-8 and got):
                    raise Mismatch(f"membership {got} with optimum gap {gap:g}")

            _run(failures, f"{g}.member.{k}", member)
        if f"{g}.build" in failures:
            continue
        rows = {s: _kernel_rows(outputs[f"{g}.build"][s], lam, target)
                for s, lam in approx.items()}
        for op, dist, div in (("audit_w1", _transport_lp, GENERATORS["kl"]),
                              ("audit_winf", w_inf, None)):
            def check(op=op, dist=dist, div=div, g=g, cost=cost, pairs=pairs, rows=rows):
                fwd, bwd = [], []
                for a, b in pairs:
                    w = dist(a, b, cost)
                    for r in rows.values():
                        out0, out1 = a @ r, b @ r
                        pair = np.stack([out0, out1])
                        swap = np.stack([out1, out0])
                        vals = f_div(div, pair, swap) if div else max_div(pair, swap)
                        fwd.append(_scaled(vals[0], w))
                        bwd.append(_scaled(vals[1], w))
                _check_report(outputs[f"{g}.{op}"], fwd, bwd, op)

            _run(failures, f"{g}.{op}", check)


def _dp_geometric(data, outputs, workdir, failures):
    cost = np.array(data["cost"])
    n = cost.shape[0]
    eps = data["epsilon"]
    weights = np.exp(-eps * cost)
    kernel = weights / weights.sum(1, keepdims=True)
    off = ~np.eye(n, dtype=bool)
    a_idx, b_idx = np.nonzero(off)  # relation order: a-major, b != a
    p, q = kernel[a_idx], kernel[b_idx]
    max_ab = max_div(p, q)
    max_ba = max_div(q, p)

    def geometric():
        got = outputs["geometric"]
        _close(got["matrix"], kernel, "geometric kernel", rtol=1e-12, atol=1e-15)
        _close(got["effective_epsilon"], np.max(max_ab / cost[a_idx, b_idx]),
               "effective epsilon")

    def symmetric():
        if outputs["symmetric"] is not bool(np.all(np.abs(cost - cost.T) <= 1e-9)):
            raise Mismatch("symmetry verdict")

    def triangle():
        ok = all(np.all(cost <= cost[:, [j]] + cost[[j], :] + 1e-9) for j in range(n))
        if outputs["triangle"] is not ok:
            raise Mismatch("triangle verdict")

    _run(failures, "geometric", geometric)
    _run(failures, "symmetric", symmetric)
    _run(failures, "triangle", triangle)
    d = cost[a_idx, b_idx]
    kl_gen = GENERATORS["kl"]
    _run(failures, "dp_max", lambda: _check_report(
        outputs["dp_max"], max_ab, max_ba, "dp max"))
    _run(failures, "dp_max_delta", lambda: _check_report(
        outputs["dp_max_delta"], prefix_max_div(p, q, data["delta"]),
        prefix_max_div(q, p, data["delta"]), "dp max-delta"))
    _run(failures, "dp_kl", lambda: _check_report(
        outputs["dp_kl"], f_div(kl_gen, p, q), f_div(kl_gen, q, p), "dp kl"))
    _run(failures, "xdp_max", lambda: _check_report(
        outputs["xdp_max"], _scaled(max_ab, d), _scaled(max_ba, d), "xdp max"))
    scale = math.exp(data["claimed"])
    slack = np.maximum(np.maximum(0.0, p - scale * q).sum(1),
                       np.maximum(0.0, q - scale * p).sum(1))
    _run(failures, "delta_required", lambda: _close(
        outputs["delta_required"], slack.max(), "delta_required"))
    _run(failures, "cp_theorem", lambda: _cp_theorem(data, outputs["cp_theorem"]))


def _cp_theorem(data, got):
    target = np.array(data["cp_target"])
    aux = list(data["cp_approx"])
    approx = np.array([data["cp_approx"][s] for s in aux])
    actual = np.array([data["cp_actual"][s] for s in aux])
    for s, lam in zip(aux, approx):
        _check_staircase(data["cp_couplings"][s], lam, target, f"north-west {s}")
    eps = float(max(max_div(approx, actual).max(), max_div(actual, approx).max()))
    _close(got["epsilon"], eps, "estimation level")
    outs = np.stack([actual[k] @ _kernel_rows(data["cp_couplings"][s], approx[k], target)
                     for k, s in enumerate(aux)])
    i0, i1 = np.triu_indices(len(aux))
    p, q = outs[i0], outs[i1]
    growth = math.exp(eps)
    checks = {"max": (2.0 * eps, max_div),
              "kl": (2.0 * eps * growth, lambda p, q: f_div(_xlogx, p, q))}
    for name, gen in GENERATORS.items():
        checks[f"f:{name}"] = (growth * float(gen(np.array(math.exp(2.0 * eps)))),
                               lambda p, q, gen=gen: f_div(gen, p, q))
    if set(checks) != set(got["checks"]):
        raise Mismatch(f"bound names {sorted(got['checks'])}")
    for name, (bound, div) in checks.items():
        fwd, bwd = div(p, q), div(q, p)
        _close(got["checks"][name]["bound"], bound, f"{name} bound")
        _check_report(got["checks"][name], fwd, bwd, f"cp {name}")


def _read_json(workdir: Path, name: str):
    return json.loads((workdir / name).read_text(encoding="utf-8"))


def _stdout(got: dict) -> str:
    if got["code"] != 0:
        raise Mismatch(f"exit code {got['code']}")
    return got["stdout"]


def _sample(rows, labels_in, ground_in, ground_out, seed) -> list[str]:
    index = {x: i for i, x in enumerate(ground_in)}
    x = np.array([index[label] for label in labels_in])
    u = np.random.Generator(np.random.Philox(key=seed)).random(x.size)
    cum = np.cumsum(rows, axis=1)
    picked = np.empty(x.size, dtype=int)
    for i in np.unique(x):  # one searchsorted per distinct input row
        at = x == i
        picked[at] = np.searchsorted(cum[i], u[at], side="right")
    picked = np.minimum(picked, len(ground_out) - 1)
    return [ground_out[k] for k in picked]


def _check_obfuscation(text, mech, aux, data_path: Path, seed) -> None:
    labels = data_path.read_text(encoding="utf-8").split("\n")[1:-1]
    if "rows" in mech:
        rows, ground_in, ground_out = np.array(mech["rows"]), mech["inputs"], mech["outputs"]
    else:
        entry = next(e for e in mech["aux"] if e["s"] == aux)
        target = mech["target"]
        rows = _kernel_rows(entry["coupling"]["mass"], entry["approx_input"]["probs"],
                            target["probs"])
        ground_in, ground_out = entry["approx_input"]["ground"], target["ground"]
    want = _sample(rows, labels, ground_in, ground_out, seed)
    got = text.split("\n")
    if got[0] != "y" or got[1:-1] != want:
        bad = next((k for k, (g, w) in enumerate(zip(got[1:], want)) if g != w), None)
        raise Mismatch(f"obfuscated output differs from the reference sampler "
                       f"(first differing record {bad})")


def _check_version(text: str, root: Path) -> None:
    init = (root / "src" / "distp" / "__init__.py").read_text(encoding="utf-8")
    want = re.search(r'__version__ = "([^"]+)"', init).group(1)
    if text.strip() != want:
        raise Mismatch(f"version {text.strip()!r} != {want!r}")


def _release(release, workdir, failures, root):
    inputs = release["inputs"]
    mech = _read_json(workdir, inputs["mech"])
    for op, got in release["outputs"].items():
        if op.startswith("release.version."):
            _run(failures, op, lambda got=got: _check_version(_stdout(got), root))
        else:
            _run(failures, op, lambda got=got: _check_obfuscation(
                _stdout(got), mech, inputs["aux"],
                workdir / inputs["data"], inputs["seed"]))


def _run(failures: dict, op: str, fn) -> None:
    try:
        fn()
    except Mismatch as exc:
        failures[op] = str(exc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        failures[op] = f"unreadable output: {type(exc).__name__}: {exc}"


def check(root: Path, workdir: Path) -> dict:
    """Failures ``{op: message}`` of the run whose files are in ``workdir``."""
    data = _read_json(workdir, "check.json")
    failures: dict = {}
    name = data["workload"]
    if name == "xdistp_euclid":
        _xdistp_euclid(data["inputs"], data["outputs"], workdir, failures)
    else:
        _dp_geometric(data["inputs"], data["outputs"], workdir, failures)
    _release(data["release"], workdir, failures, root)
    return failures
