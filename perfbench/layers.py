"""Per-layer attribution of a cProfile run over cmgate.

`collect` runs inside the profiled process and reduces the profile to a
flat dict of sums, so that the sums of many processes can be added.
`derive` turns such a sum into the per-layer metrics the benchmark reports.

Self time goes to the module that defines each function.  Time inside a
built-in (dict lookups, pow, isqrt, ...) goes to the module of its caller,
split by the per-caller times the profiler records.
"""

from __future__ import annotations

import os

TRACE_MARK = "PERFBENCH-TRACE "  # prefixes the raw sums on a traced child's stderr

MODULES = ("ffield", "polyring", "ecurve", "endoring", "classpoly",
           "gates", "ordertools", "cli", "numutil")

# (module, function name) -> counter name; several functions may share one
CALL_COUNTERS = {
    ("ffield", "__mul__"): "ffield.mul",
    ("ffield", "inverse"): "ffield.inv",
    ("ffield", "__truediv__"): "ffield.inv",
    ("ffield", "frobenius"): "ffield.frobenius",
    ("ffield", "embed"): "ffield.embed",
    ("ffield", "descend"): "ffield.embed",
    ("polyring", "factor_univariate"): "polyring.factor",
    ("polyring", "roots_in"): "polyring.roots_in",
    ("polyring", "pow_mod"): "polyring.pow_mod",
    ("ecurve", "count_points"): "ecurve.counts",
    ("ecurve", "trace_of_j"): "ecurve.trace_lookups",
    ("endoring", "endo_discriminant"): "endoring.endo_disc",
    ("endoring", "provider_a_disc"): "endoring.provider_a",
    ("endoring", "volcano_level"): "endoring.volcano",
    ("endoring", "ordinary_disc_map"): "endoring.disc_maps",
    ("classpoly", "hilbert_mod_p"): "classpoly.hilbert",
    ("classpoly", "hilbert_eval"): "classpoly.hilbert_eval",
}

# raw sums behind the hit and yield ratios
RATIO_PARTS = ("trace_misses", "provider_a_misses", "sampled_candidates", "sampled_roots")


def _module(filename: str) -> str:
    parent, base = os.path.split(filename)
    if os.path.basename(parent) == "cmgate" and base.endswith(".py"):
        name = base[:-3].lstrip("_")
        if name in MODULES:
            return name
    return "other"


def empty() -> dict:
    raw = {f"{m}.self_s": 0.0 for m in MODULES + ("other",)}
    raw.update({name: 0 for name in CALL_COUNTERS.values()})
    raw.update({name: 0 for name in RATIO_PARTS})
    return raw


def collect(stats: dict, sampled_roots: int = 0) -> dict:
    """Reduce `pstats.Stats(profile).stats` to the flat raw dict."""
    raw = empty()
    raw["sampled_roots"] = sampled_roots
    for (filename, _, func), (_, ncalls, tottime, _, callers) in stats.items():
        if filename == "~":  # a built-in: charge its callers
            for (cfile, _, _), caller_stat in callers.items():
                raw[f"{_module(cfile)}.self_s"] += caller_stat[2]
            continue
        module = _module(filename)
        raw[f"{module}.self_s"] += tottime
        counter = CALL_COUNTERS.get((module, func))
        if counter:
            raw[counter] += ncalls
        if (module, func) == ("ecurve", "frobenius_data"):
            raw["trace_misses"] += sum(
                s[0] for (_, _, cf), s in callers.items() if cf == "trace_of_j")
        elif (module, func) == ("endoring", "_provider_a_uncached"):
            raw["provider_a_misses"] += ncalls
        elif (module, func) == ("ecurve", "trace_of_j"):
            raw["sampled_candidates"] += sum(
                s[0] for (_, _, cf), s in callers.items() if cf == "_collect_roots_sampled")
    return raw


def add(total: dict, raw: dict) -> None:
    for key, value in raw.items():
        total[key] = total.get(key, 0) + value


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def derive(raw: dict) -> dict:
    """Per-layer metrics (name -> (value, unit)) from summed raw counts.

    A ratio whose base is zero (the layer did no such work) reads 0.
    """
    out = {}
    for key, value in raw.items():
        if key.endswith(".self_s"):
            out[key] = (value, "s")
        elif key not in RATIO_PARTS:
            out[key] = (value, "count")
    lookups = raw["ecurve.trace_lookups"]
    out["ecurve.trace_hit_ratio"] = (_share(lookups - raw["trace_misses"], lookups), "ratio")
    calls = raw["endoring.provider_a"]
    out["endoring.disc_hit_ratio"] = (_share(calls - raw["provider_a_misses"], calls), "ratio")
    out["classpoly.sample_yield"] = (
        _share(raw["sampled_roots"], raw["sampled_candidates"]), "ratio")
    return out
