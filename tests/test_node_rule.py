"""The node rule, op by op: an output needs a gradient when any input
does, and only then is it recorded on the active tape, as one node.

Each op takes each of its tensor inputs in turn as the only leaf. The
tape must then hold exactly one node, only that leaf may get a gradient,
and the gradient must equal the one it gets when every input is a leaf.
"""

import ast
import inspect

import numpy as np
import pytest

from catkg import kg
from catkg import manifolds as M
from catkg import tensor as T
from catkg.tensor import Tape, Tensor


def _values(seed, *shapes):
    """Arrays in (0.1, 0.9): inside the domain of log, sqrt, arctanh and
    arccos alike."""
    rng = np.random.default_rng(seed)
    return [rng.uniform(0.1, 0.9, size=shape) for shape in shapes]


# name -> (op over tensors, its input arrays). Every op records one node;
# compositions such as ``mean`` and a 1-D ``matmul`` are left out.
OPS = {
    "add": (T.add, _values(0, (3, 4), (4,))),
    "sub": (T.sub, _values(1, (3, 4), (3, 1))),
    "mul": (T.mul, _values(2, (3, 4), (4,))),
    "div": (T.div, _values(3, (3, 4), (3, 4))),
    "neg": (T.neg, _values(4, (3, 4))),
    "matmul": (T.matmul, _values(5, (2, 3, 4), (4, 5))),
    "matmul_batched": (T.matmul, _values(6, (2, 3, 4), (2, 4, 5))),
    "reshape": (lambda a: T.reshape(a, (4, 3)), _values(7, (3, 4))),
    "swapaxes": (lambda a: T.swapaxes(a, 0, 1), _values(8, (3, 4))),
    "narrow": (lambda a: T.narrow(a, 1, 1, 2), _values(9, (3, 4))),
    "concat": (lambda a, b: T.concat(a, b, axis=-1),
               _values(10, (3, 4), (3, 2))),
    "reduce_sum": (lambda a: T.reduce_sum(a, axis=1), _values(11, (3, 4))),
    "exp": (T.exp, _values(12, (3, 4))),
    "log": (T.log, _values(13, (3, 4))),
    "sqrt": (T.sqrt, _values(14, (3, 4))),
    "tanh": (T.tanh, _values(15, (3, 4))),
    "arctanh": (T.arctanh, _values(16, (3, 4))),
    "sin": (T.sin, _values(17, (3, 4))),
    "cos": (T.cos, _values(18, (3, 4))),
    "arccos": (T.arccos, _values(19, (3, 4))),
    "clip": (lambda a: T.clip(a, lo=0.3, hi=0.7), _values(20, (3, 4))),
    "softmax": (T.softmax, _values(21, (3, 4))),
    "dropout": (lambda a: T.dropout(a, 0.5, rng=np.random.default_rng(0)),
                _values(22, (3, 4))),
    "embedding": (lambda table: T.embedding(table, [0, 2, 2]),
                  _values(23, (4, 3))),
    "affine": (T.affine, _values(24, (2, 3, 4), (4, 5), (5,))),
    "inner": (T.inner, _values(25, (3, 4), (6, 4))),
    "layer_norm": (T.layer_norm, _values(26, (3, 4), (4,), (4,))),
    "gelu": (T.gelu, _values(27, (3, 4))),
    "safe_norm": (M.safe_norm, _values(28, (3, 4))),
    # Rows of norm 0.32, 0.68, 1.06 and 1.44 against a radius of 1: the
    # last two are clipped.
    "radial_clip": (lambda x: M.radial_clip(x, 1.0),
                    [np.linspace(0.1, 0.9, 12).reshape(4, 3)]),
    "sphere_fold": (M.sphere_fold, _values(29, (3, 4))),
    "smoothed_ce_loss": (lambda x: kg.smoothed_ce_loss(x, [0, 3, 5]),
                         _values(30, (3, 6))),
}

# Functions that build their output with T.node but are checked through
# the public ops above.
HELPERS = {"_elementwise"}


def _run(name, leaves):
    """Inputs, output and tape of ``name`` with ``leaves`` needing a
    gradient; the output is reduced against fixed weights and
    backpropagated when any input is a leaf."""
    fn, arrays = OPS[name]
    inputs = [Tensor(a.copy(), requires_grad=i in leaves)
              for i, a in enumerate(arrays)]
    with Tape() as tape:
        out = fn(*inputs)
        nodes = len(tape)
        weights = np.random.default_rng(99).normal(size=out.shape)
        loss = T.reduce_sum(out * weights)
    if leaves:
        tape.backward(loss)
    return inputs, out, nodes


CASES = [(name, leaf) for name in OPS for leaf in range(len(OPS[name][1]))]


@pytest.mark.parametrize("name, leaf", CASES)
def test_one_leaf_gives_one_node_and_only_its_gradient(name, leaf):
    every = set(range(len(OPS[name][1])))
    full, _, _ = _run(name, every)
    inputs, out, nodes = _run(name, {leaf})
    assert out.requires_grad
    assert nodes == 1
    for i, t in enumerate(inputs):
        if i == leaf:
            assert t.grad is not None and t.grad.shape == t.shape
            assert np.array_equal(t.grad, full[i].grad)
        else:
            assert t.grad is None


@pytest.mark.parametrize("name", list(OPS))
def test_no_leaf_records_nothing(name):
    _, out, nodes = _run(name, set())
    assert not out.requires_grad
    assert nodes == 0


def _node_builders(module):
    """Names of the functions in ``module`` that call ``node`` directly."""
    tree = ast.parse(inspect.getsource(module))
    names = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call):
                f = call.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(
                    f, "id", None)
                if name == "node":
                    names.add(fn.name)
    return names


@pytest.mark.parametrize("module", [T, M, kg], ids=lambda m: m.__name__)
def test_every_node_builder_is_covered(module):
    missing = _node_builders(module) - set(OPS) - HELPERS
    assert not missing, f"add {sorted(missing)} to OPS"
