import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from coringlab.exactla import from_sparse_cols
from coringlab.workspace import load_workspace_file
from coringlab.zoo import FIXTURES

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "coringlab",
                           "fixtures", "v1")


def fixture_path(name):
    return os.path.join(FIXTURE_DIR, name + ".json")


def _sect(tens):
    """The dense section of a balanced tensor, the reference for
    ``BalancedTensor.lift``: column q the ambient unit vector at the
    coordinate q picks."""
    return from_sparse_cols(tens.field, tens.ambient_dim,
                            [[(p, tens.field.one)] for p in tens._picks])


def _proj(tens):
    """The dense projection of a balanced tensor, the reference for its
    sparse steps: column a the quotient coordinates of the ambient unit
    vector e_a."""
    return from_sparse_cols(tens.field, tens.dim, tens._proj_cols())


@pytest.fixture(scope="session")
def workspaces():
    """All bundled fixtures, loaded once."""
    return {name: load_workspace_file(fixture_path(name)) for name in FIXTURES}


@pytest.fixture(scope="session")
def e2(workspaces):
    return workspaces["E2"]


@pytest.fixture(scope="session")
def e3(workspaces):
    return workspaces["E3"]


@pytest.fixture(scope="session")
def e4(workspaces):
    return workspaces["E4"]


@pytest.fixture(scope="session")
def e5(workspaces):
    return workspaces["E5"]


class ContextBundle:
    """Comodule context + extension context for one fixture, built once."""

    def __init__(self, ws, sigma_name="Sigma", ext_name="ext"):
        from coringlab.extension import ExtContext, purity_check
        from coringlab.morita import context_M
        self.ws = ws
        self.sigma = ws.comodules[sigma_name]
        self.ext = ws.extensions[ext_name]
        comods = [self.sigma]
        for name in sorted(ws.comodules):
            com = ws.comodules[name]
            if com is not self.sigma and com.coring is self.sigma.coring and com.dim:
                comods.append(com)
        purity_check(self.ext, comods)
        self.samples = comods
        self.cm = context_M(self.sigma)
        self.ec = ExtContext(self.ext, self.cm)


@pytest.fixture(scope="session")
def bundles(workspaces):
    return {name: ContextBundle(workspaces[name])
            for name in ("E1", "E2", "E3", "E4", "E5", "G1")}


@pytest.fixture(scope="session")
def workspaces_f7():
    """All bundled fixtures reduced mod 7, loaded once."""
    from coringlab.exactla import FieldFp
    return {name: load_workspace_file(fixture_path(name), field_override=FieldFp(7))
            for name in FIXTURES}


@pytest.fixture(scope="session")
def hopf_c3_f7():
    """(extension, Sigma) of the Hopf entwining of the group algebra of C3
    over F7, Sigma being the base algebra through the grouplike 1 (x) 1."""
    from coringlab.coring import Grouplike, grouplike_comodule
    from coringlab.exactla import FieldFp
    from coringlab.zoo import entwining_coring, group_hopf_algebra, hopf_entwining
    bial = group_hopf_algebra(FieldFp(7), [[0, 1, 2], [1, 2, 0], [2, 0, 1]], name="H")
    ent = hopf_entwining(bial, bial.algebra, bial.delta)
    c, ext = entwining_coring(ent)
    unit = list(bial.algebra.unit)
    return ext, grouplike_comodule(Grouplike(c, ent.ad.pure_tensor([unit, unit])))


def matrix_unit_sweedler_corings(field):
    """{name: (coring, grouplike)} of the Sweedler corings A (x)_B A of
    M2 ⊇ diagonal and T2 ⊇ diagonal (T2 the upper triangular 2 x 2
    matrices) over field: noncommutative bases, where C (x)_A C is a proper
    quotient of C x C."""
    from coringlab.algmod import FiniteAlgebra
    from coringlab.zoo import subalgebra_from_span, sweedler_coring
    out = {}
    # the matrix units E_ij kept, in basis order: all of M2, or the upper
    # triangle; the diagonal ones span B
    for name, units in (("M2", [(0, 0), (0, 1), (1, 0), (1, 1)]),
                        ("T2", [(0, 0), (0, 1), (1, 1)])):
        n = len(units)

        def unit(i, j):
            return [field.one if u == (i, j) else field.zero for u in units]
        mul = [[unit(i, l) if j == k else [field.zero] * n for (k, l) in units]
               for (i, j) in units]
        a = FiniteAlgebra(field, n, mul, list(map(field.add, unit(0, 0), unit(1, 1))),
                          name=name)
        a.validate()
        b, inc = subalgebra_from_span(a, [unit(0, 0), unit(1, 1)], name="diag")
        c, g, _ = sweedler_coring(a, b, inc, name="C(%s)" % name)
        out[name] = c, g
    return out
