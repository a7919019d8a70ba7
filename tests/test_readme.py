"""The README's library tour, run in order, gives what its comments promise."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(scope="module")
def tour():
    """Value of every bare expression in the README's ``python`` blocks, by source.

    The blocks share one namespace, as in a session that types them in order.
    """
    namespace, values = {}, {}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(), re.S):
        for node in ast.parse(block).body:
            source = ast.get_source_segment(block, node)
            if isinstance(node, ast.Expr):
                code = compile(ast.Expression(node.value), "README.md", "eval")
                values[source] = eval(code, namespace)
            else:
                exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return values


def value(tour, prefix):
    matches = [v for source, v in tour.items() if source.startswith(prefix)]
    assert len(matches) == 1, f"expected one tour line starting {prefix!r}"
    return matches[0]


def test_reductions_and_the_schmidt_pairing(tour):
    assert_allclose(value(tour, 'partial_trace(psi, "P1").matrix'), np.diag([0.36, 0.64]), atol=1e-12)
    assert_allclose(value(tour, 'schmidt_decompose(psi, "P1").coefficients'), [0.8, 0.6], atol=1e-12)
    assert_allclose(value(tour, 'state_of("P1"'), np.diag([0.36, 0.64]), atol=1e-12)
    assert_allclose(value(tour, "dist.table"), np.diag([0.64, 0.36]), atol=1e-12)
    assert value(tour, "verdict.route") == "complement-reduction"


def test_pointer_measurement(tour):
    assert_allclose(value(tour, "ens.eigenvalues"), [0.64, 0.36, 0.0], atol=1e-12)
    draws = value(tour, "sample_outcome_indices(ens, 10, seed=1)")
    assert draws.shape == (10,)


def test_correlated_pair(tour):
    assert value(tour, "res.E_quantum") == pytest.approx(-math.cos(math.pi / 4), abs=1e-10)
    assert value(tour, "res.E_hidden") == pytest.approx(0.0, abs=1e-10)
    assert value(tour, "res.quasi.min_real") < 0.0
    assert abs(value(tour, "chsh(")) == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-9)
