"""
Watching the router pick geometries
===================================

A CatBlock runs all three attention branches and mixes them with
per-token softmax weights. Forcing the router one-hot recovers each
fixed branch exactly -- the mixture is a strict generalization.
"""

import numpy as np

from catkg.attention import CatBlock
from catkg.kg import routing_entropy, LN3
from catkg.tensor import Tensor

rng = np.random.default_rng(3)
block = CatBlock(d=8, heads=2, ff_multiplier=2, curvature=1.0, seed=42)

x = Tensor(rng.normal(size=(1, 5, 8)) * 0.5)
out, alpha = block.forward(x)
print("output shape:", out.shape)
print("routing weights per token (euclidean, hyperbolic, spherical):")
print(np.round(alpha.data[0], 3))
print("rows sum to:", alpha.data.sum(-1).round(12))

# entropy measures how undecided the router is: ln 3 when uniform,
# zero when a single geometry takes the whole token
print("\nrouting entropy:", float(routing_entropy(alpha).data))
print("maximum (ln 3) :", LN3)

# one-hot routing reproduces the corresponding branch bit for bit
for i, name in enumerate(CatBlock.branch_names):
    block.router.force_one_hot(i)
    mixed, _ = block.forward(x)
    direct = getattr(block, name)(x)
    print(f"forced {name:10s}: max |mixture - branch| =",
          np.abs(mixed.data - direct.data).max())
