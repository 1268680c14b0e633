"""The penultimate representation as an exact sum of block contributions.

Because every residual block adds its output onto a running sum, the
representation in front of the head decomposes, addend by addend, into the
projected input plus one term per block, and the decomposition is exact in
floating point (same summation order), not just up to rounding.
"""

import numpy as np

from finedrop.models import block_contributions, forward, new_residual_model

rng = np.random.default_rng(1)
model = new_residual_model(input_dim=6, width=10, depth=3, num_classes=4, seed=7)
for blk in model.blocks:  # fresh blocks start as the zero function; give them life
    blk.w2.data[...] = rng.normal(size=blk.w2.shape) * 0.5

x = rng.normal(size=(2, 6))
logits, phi = forward(model, x)
terms = block_contributions(model, x)

print(f"depth {model.depth} model: {len(terms)} contributions (projection + one per block)")
for i, term in enumerate(terms):
    label = "projection" if i == 0 else f"block {i}"
    print(f"  |phi_{i}| = {np.linalg.norm(term.data):8.4f}   ({label})")

running = terms[0].data
for term in terms[1:]:
    running = running + term.data
print("sum(contributions) == phi exactly:", np.array_equal(running, phi.data))

# zeroing a block's second layer removes exactly its addend
model.blocks[1].w2.data[...] = 0.0
model.blocks[1].b2.data[...] = 0.0
terms_after = block_contributions(model, x)
print("block 1 contribution after zeroing its weights:",
      float(np.abs(terms_after[2].data).max()))
