"""Parameter trees: dataclasses whose named arrays are views of one buffer.

Every parameter dataclass (and every gradient, which reuses the classes)
is a ParamTree. Its arrays are reshaped views into `tree.flat`, one
contiguous float64 vector laid out in `iter_arrays` order, and each nested
node's `flat` is its own slice of the root's. Whole-model operations act
on `flat` alone; only name lookups (checkpoint keys, gradcheck reports,
the name of a non-finite tensor) walk the fields. Non-array fields
(hyperparameters, temperatures, the model config) ride along untouched.

`add_products` forms the feed-forward weight gradients, the largest
per-item stacks, in one reused buffer, so a step does not page them in
afresh; attention keeps views of its products, so it uses `add_items`.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np


class ParamTree:
    """Base of the parameter dataclasses: construction moves the tree's
    separately built arrays into one new buffer, `flat`, rebuilding nested
    nodes on it. Reassigning an array field afterwards detaches it."""

    flat: np.ndarray

    def __post_init__(self):
        flat = np.concatenate([a.ravel() for _, a in iter_arrays(self)], dtype=np.float64)
        vars(self).update(vars(_bind(self, flat)[0]))


def iter_arrays(tree, prefix: str = ""):
    """Yield (path, array) leaves in layout order."""
    if isinstance(tree, ParamTree):
        for f in dataclasses.fields(tree):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from iter_arrays(getattr(tree, f.name), name)
    elif isinstance(tree, list):
        for i, item in enumerate(tree):
            yield from iter_arrays(item, f"{prefix}.{i}")
    elif isinstance(tree, np.ndarray):
        yield prefix, tree


def _bind(node, flat: np.ndarray, offset: int = 0):
    """(node rebuilt with its arrays as consecutive views of flat from
    offset, the offset after it). No constructor runs and nothing is
    copied; non-array fields are shared. Leading axes of flat, (..., size),
    lead every array too: one tree per index, in its row of flat."""
    if isinstance(node, np.ndarray):
        view = flat[..., offset:offset + node.size].reshape(flat.shape[:-1] + node.shape)
        return view, offset + node.size
    if isinstance(node, list):
        items = []
        for item in node:
            item, offset = _bind(item, flat, offset)
            items.append(item)
        return items, offset
    if not isinstance(node, ParamTree):
        return node, offset
    out, start = object.__new__(type(node)), offset
    for f in dataclasses.fields(node):
        value, offset = _bind(getattr(node, f.name), flat, offset)
        setattr(out, f.name, value)
    out.flat = flat[..., start:offset]
    return out, offset


def copy_tree(tree):
    return _bind(tree, tree.flat.copy())[0]


def zeros_like(tree):
    return _bind(tree, np.zeros_like(tree.flat))[0]


def zeros_stack(tree, lead: tuple):
    """Zeroed trees like tree, one per index of lead, as one of flat lead + (size,)."""
    return _bind(tree, np.zeros(tuple(lead) + tree.flat.shape))[0]


def add_scaled(target, source, scale: float = 1.0) -> None:
    """target += scale * source, over the whole buffer in place."""
    if target.flat.shape != source.flat.shape:
        raise ValueError(f"tree sizes differ: {target.flat.size} vs {source.flat.size}")
    target.flat += scale * source.flat


def add_items(acc: np.ndarray, items: np.ndarray) -> None:
    """acc += items[0]; acc += items[1]; ... in item order, for a stack of
    per-item terms shaped (..., *acc.shape), or one term shaped like acc.
    Gradients of a batch's items reach their buffer this way, so the sums
    are the same however the batch is cut into chunks."""
    for item in items.reshape((-1,) + acc.shape):
        acc += item


_products = np.empty(0)


def add_products(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """add_items(acc, a @ b) for a and b with the same leading axes, formed in
    the module buffer, which grows to the largest product (not thread-safe)."""
    global _products
    shape = a.shape[:-1] + b.shape[-1:]
    size = math.prod(shape)
    if _products.size < size:
        _products = np.empty(size)
    add_items(acc, np.matmul(a, b, out=_products[:size].reshape(shape)))


def flatten(tree) -> np.ndarray:
    return tree.flat.copy()


def set_flat(tree, vec: np.ndarray) -> None:
    """Write a flat vector back into the tree's arrays, in place."""
    if np.size(vec) != tree.flat.size:
        raise ValueError(f"vector length {np.size(vec)} != tree size {tree.flat.size}")
    tree.flat[...] = vec


def trees_equal(a, b) -> bool:
    """Bitwise equality of all array leaves."""
    return type(a) is type(b) and np.array_equal(a.flat, b.flat)


def first_nonfinite(tree) -> str | None:
    if np.isfinite(tree.flat).all():
        return None
    return next(name for name, arr in iter_arrays(tree) if not np.isfinite(arr).all())
