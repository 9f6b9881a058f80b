"""Deterministic single-entry perturbations of fixture files.

Sites are enumerated in a fixed block order; entries of quotient-valued
matrices (coproducts, coactions, outer coactions) are only used when the
perturbed ambient vector changes the quotient class, so every chosen
perturbation is guaranteed to change the structure it encodes.
"""

from fractions import Fraction
from copy import deepcopy

from conftest import _proj
from coringlab.exactla import AxiomError
from coringlab.workspace import load_workspace


def _bump(entry, delta):
    return str(Fraction(entry) + delta)


def _quotient_effective_rows(ws):
    """For each quotient-valued block: ambient rows whose class is nonzero."""
    out = {}
    for name in sorted(ws.corings):
        c = ws.corings[name]
        proj = _proj(c.cc)
        out[("corings", name, "coproduct")] = [
            i for i in range(proj.cols) if any(proj.col(i))]
    for name in sorted(ws.comodules):
        m = ws.comodules[name]
        proj = _proj(m.mc)
        out[("comodules", name, "coaction")] = [
            i for i in range(proj.cols) if any(proj.col(i))]
    for name in sorted(ws.extensions):
        e = ws.extensions[name]
        proj = _proj(e.cld)
        out[("extensions", name, "tau")] = [
            i for i in range(proj.cols) if any(proj.col(i))]
    return out


def perturbation_sites(data, ws):
    """Yield (path, index) pairs in deterministic order; path addresses a
    scalar inside the JSON document."""
    effective = _quotient_effective_rows(ws)
    for name in sorted(data.get("algebras", {})):
        blk = data["algebras"][name]
        dim = blk["dim"]
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    yield ("algebras", name, "mul", i, j, k)
        for k in range(dim):
            yield ("algebras", name, "unit", k)
    for name in sorted(data.get("modules", {})):
        blk = data["modules"][name]
        for side in ("left_act", "right_act"):
            for mi, mat in enumerate(blk[side]):
                for k in range(len(mat["entries"])):
                    yield ("modules", name, side, mi, k)
    for name in sorted(data.get("corings", {})):
        blk = data["corings"][name]
        for k in range(len(blk["counit"]["entries"])):
            yield ("corings", name, "counit", k)
        cols = blk["coproduct"]["cols"]
        good = set(effective[("corings", name, "coproduct")])
        for k in range(len(blk["coproduct"]["entries"])):
            if k // cols in good:
                yield ("corings", name, "coproduct", k)
    for name in sorted(data.get("grouplikes", {})):
        blk = data["grouplikes"][name]
        for k in range(len(blk["vector"])):
            yield ("grouplikes", name, "vector", k)
    for name in sorted(data.get("comodules", {})):
        blk = data["comodules"][name]
        cols = blk["coaction"]["cols"]
        good = set(effective[("comodules", name, "coaction")])
        for k in range(len(blk["coaction"]["entries"])):
            if k // cols in good:
                yield ("comodules", name, "coaction", k)
    for name in sorted(data.get("extensions", {})):
        blk = data["extensions"][name]
        for mi, mat in enumerate(blk["right_l_action"]):
            for k in range(len(mat["entries"])):
                yield ("extensions", name, "right_l_action", mi, k)
        cols = blk["tau"]["cols"]
        good = set(effective[("extensions", name, "tau")])
        for k in range(len(blk["tau"]["entries"])):
            if k // cols in good:
                yield ("extensions", name, "tau", k)


def apply_perturbation(data, site, delta=1):
    data = deepcopy(data)
    block = data[site[0]][site[1]]
    if site[2] in ("mul",):
        _, _, _, i, j, k = site
        block["mul"][i][j][k] = _bump(block["mul"][i][j][k], delta)
    elif site[2] == "unit":
        block["unit"][site[3]] = _bump(block["unit"][site[3]], delta)
    elif site[2] in ("left_act", "right_act", "right_l_action"):
        mat = block[site[2]][site[3]]
        mat["entries"][site[4]] = _bump(mat["entries"][site[4]], delta)
    elif site[2] == "vector":
        block["vector"][site[3]] = _bump(block["vector"][site[3]], delta)
    else:
        mat = block[site[2]]
        mat["entries"][site[3]] = _bump(mat["entries"][site[3]], delta)
    return data


def validate_everything(ws):
    for name in sorted(ws.algebras):
        ws.algebras[name].validate()
    for name in sorted(ws.modules):
        ws.modules[name].validate()
    for name in sorted(ws.corings):
        ws.corings[name].validate()
    for name in sorted(ws.comodules):
        ws.comodules[name].validate()
    for name in sorted(ws.grouplikes):
        ws.grouplikes[name].validate()
    for name in sorted(ws.extensions):
        ws.extensions[name].validate()


def chosen_perturbations(data, ws, count=20):
    """`count` (site, delta) pairs spread evenly over the sites, in order;
    when there are fewer sites, the sites again with larger deltas."""
    sites = list(perturbation_sites(data, ws))
    if not sites:
        raise AssertionError("no perturbation sites found")
    chosen = []
    idx = 0
    delta = 1
    while len(chosen) < count:
        if idx >= len(sites):
            idx = 0
            delta += 1
        chosen.append((sites[idx], delta))
        idx += max(1, len(sites) // count) if delta == 1 else 1
    return chosen


def run_perturbations(data, ws, count=20):
    """Perturb the chosen sites; return the list of failures raised.

    Each perturbed file must fail at least one structural validator.
    """
    import json
    outcomes = []
    for site, d in chosen_perturbations(data, ws, count):
        perturbed = apply_perturbation(data, site, delta=d)
        try:
            ws2 = load_workspace(json.dumps(perturbed))
            validate_everything(ws2)
        except AxiomError as exc:
            outcomes.append((site, d, str(exc)))
            continue
        raise AssertionError("perturbation at %r (delta %d) was not rejected"
                             % (site, d))
    return outcomes
