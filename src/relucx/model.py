"""Fully-connected ReLU networks and their node maps.

A network is a chain of affine layers with ReLU between them and a single
affine output map at the end.  The node maps are the pre-activations of
every hidden unit plus the final output, numbered layer-major with units
ascending; with architecture (n_0, n_1, ..., n_m, 1) there are
N = n_1 + ... + n_m + 1 of them and the output map is number N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "AffineLayer",
    "ReluNetwork",
    "ModelFormatError",
    "node_map_value_matrix",
    "stacked_region_affine_maps",
    "random_init",
    "read_model",
    "write_model",
]


class ModelFormatError(ValueError):
    """Raised when a model dict/file is malformed; message names the field."""


def _check_architecture(architecture: Sequence[int]) -> tuple[int, ...]:
    arch = tuple(architecture)
    if len(arch) < 3:
        raise ModelFormatError(
            f"architecture must list input, hidden and output widths, got {list(arch)}"
        )
    for i, w in enumerate(arch):
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise ModelFormatError(f"architecture[{i}] must be a positive integer, got {w!r}")
    if arch[-1] != 1:
        raise ModelFormatError(f"architecture[-1] must be 1 (scalar output), got {arch[-1]}")
    return arch


@dataclass(frozen=True, eq=False)
class AffineLayer:
    """One affine map x -> weights @ x + bias; weights has shape (out, in)."""

    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    architecture: tuple[int, ...]
    layers: tuple[AffineLayer, ...]

    def __post_init__(self):
        arch = _check_architecture(self.architecture)
        object.__setattr__(self, "architecture", arch)
        if len(self.layers) != len(arch) - 1:
            raise ModelFormatError(
                f"layers has {len(self.layers)} entries, architecture needs {len(arch) - 1}"
            )
        for t, layer in enumerate(self.layers):
            want = (arch[t + 1], arch[t])
            if layer.weights.shape != want:
                raise ModelFormatError(
                    f"layers[{t}].weights has shape {layer.weights.shape}, expected {want}"
                )
            if layer.bias.shape != (arch[t + 1],):
                raise ModelFormatError(
                    f"layers[{t}].bias has shape {layer.bias.shape}, expected ({arch[t + 1]},)"
                )

    @property
    def n0(self) -> int:
        return self.architecture[0]

    @property
    def depth(self) -> int:
        """Number of hidden layers (the output map is not counted)."""
        return len(self.architecture) - 2

    @property
    def num_node_maps(self) -> int:
        return sum(self.architecture[1:])

    def layer_offset(self, layer: int) -> int:
        """Flat index of the first node map of `layer` (1-based layer number)."""
        return sum(self.architecture[1:layer])


def node_map_value_matrix(net: ReluNetwork, points: np.ndarray) -> np.ndarray:
    """Node map values, rows points and columns node maps; overflow gives inf or nan quietly.

    Evaluated node-map-major: each layer's `weights @ h` fills its rows of one
    (N, P) block, returned transposed.  BLAS picks its kernel by shape, so a
    value's last bits (near the float maximum, whether it overflows) can depend
    on how many points one call gets: compare chunkings on one call's values.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != net.n0:
        raise ValueError(f"points have dimension {pts.shape[1]}, expected {net.n0}")
    block = np.empty((net.num_node_maps, len(pts)))
    h, start = pts.T, 0
    with np.errstate(over="ignore", invalid="ignore"):
        for layer in net.layers:
            rows = block[start : start + len(layer.bias)]
            start += len(rows)
            np.matmul(layer.weights, h, out=rows)
            del h  # hold one layer's activations at a time
            rows += layer.bias[:, None]
            h = np.maximum(rows, 0.0)
    return block.T


def region_affine_maps(
    net: ReluNetwork, region_signs: Sequence[int], upto_layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """Affine maps of all node maps of layers 1..upto_layer on one region.

    `region_signs` fixes the activation pattern: one entry -1 or +1 for each
    node map of the layers strictly below `upto_layer`.  On the closed region
    selected by those signs, every node map of layers <= upto_layer
    restricts to an affine function x -> normal @ x + offset of the input.
    Returns `(normals, offsets)` of shapes (m, n_0) and (m,), rows in flat node
    order, where m = n_1 + ... + n_upto_layer.
    """
    if not 1 <= upto_layer <= net.depth + 1:
        raise ValueError(f"upto_layer must be in 1..{net.depth + 1}, got {upto_layer}")
    prefix_len = net.layer_offset(upto_layer)
    signs = np.asarray(region_signs)
    if signs.shape != (prefix_len,):
        raise ValueError(f"region signs cover {signs.size} node maps, expected {prefix_len}")
    if not np.isin(signs, (-1, 1)).all():
        raise ValueError("region signs must be -1 or +1")
    normals, offsets = stacked_region_affine_maps(net, signs[None] > 0, upto_layer)
    return normals[0], offsets[0]


def stacked_region_affine_maps(
    net: ReluNetwork, active: np.ndarray, upto_layer: int
) -> tuple[np.ndarray, np.ndarray]:
    """`region_affine_maps` of R regions at once, unchecked: shapes (R, m, n_0), (R, m).

    Row r of the boolean `active` is region r's signs, true for +1.  Each
    layer is one stacked `matmul`, bit-equal to composing each region alone;
    an entry beyond the float range comes out inf or nan, without a warning.
    """
    mat = net.layers[0].weights.astype(float)
    off = net.layers[0].bias.astype(float)
    normals = [np.broadcast_to(mat, (len(active), *mat.shape))]
    offsets = [np.broadcast_to(off, (len(active), *off.shape))]
    pos = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for layer_no in range(1, upto_layer):
            width = net.architecture[layer_no]
            mask = active[:, pos : pos + width].astype(float)
            pos += width
            nxt = net.layers[layer_no]
            mat = nxt.weights @ (mask[:, :, None] * mat)
            off = (nxt.weights @ (mask * off)[:, :, None])[..., 0] + nxt.bias
            normals.append(mat)
            offsets.append(off)
    return np.concatenate(normals, axis=1), np.concatenate(offsets, axis=1)


def random_init(architecture: Sequence[int], seed: int) -> ReluNetwork:
    """Network with iid standard normal weights and biases; seed-deterministic."""
    arch = _check_architecture(architecture)
    rng = np.random.default_rng(seed)
    layers = []
    for t in range(len(arch) - 1):
        w = rng.standard_normal((arch[t + 1], arch[t]))
        b = rng.standard_normal(arch[t + 1])
        layers.append(AffineLayer(w, b))
    return ReluNetwork(arch, tuple(layers))


def network_to_dict(net: ReluNetwork) -> dict:
    return {
        "architecture": list(net.architecture),
        "layers": [
            {"weights": layer.weights.tolist(), "bias": layer.bias.tolist()}
            for layer in net.layers
        ],
    }


def _check_numbers(values, name: str) -> None:
    """Every value must be a JSON number: an int or a float, not a bool."""
    for x in values:
        if type(x) not in (int, float):
            raise ModelFormatError(f"{name} must hold only numbers, got {x!r:.40}")


def network_from_dict(data: dict) -> ReluNetwork:
    if not isinstance(data, dict):
        raise ModelFormatError(f"model must be a JSON object, got {type(data).__name__}")
    if "architecture" not in data:
        raise ModelFormatError("missing field 'architecture'")
    if "layers" not in data:
        raise ModelFormatError("missing field 'layers'")
    arch = data["architecture"]
    if not isinstance(arch, list):
        raise ModelFormatError("'architecture' must be a list of integers")
    arch = _check_architecture(arch)
    raw_layers = data["layers"]
    if not isinstance(raw_layers, list) or len(raw_layers) != len(arch) - 1:
        raise ModelFormatError(
            f"'layers' must be a list of {len(arch) - 1} objects for this architecture"
        )
    layers = []
    for t, entry in enumerate(raw_layers):
        if not isinstance(entry, dict) or "weights" not in entry or "bias" not in entry:
            raise ModelFormatError(f"layers[{t}] must have 'weights' and 'bias'")
        rows = entry["weights"]
        if not isinstance(rows, list) or len(rows) != arch[t + 1]:
            raise ModelFormatError(f"layers[{t}].weights must have {arch[t + 1]} rows")
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != arch[t]:
                raise ModelFormatError(
                    f"layers[{t}].weights row {r} must have length {arch[t]}"
                )
        bias = entry["bias"]
        if not isinstance(bias, list) or len(bias) != arch[t + 1]:
            raise ModelFormatError(f"layers[{t}].bias must have length {arch[t + 1]}")
        _check_numbers((x for row in rows for x in row), f"layers[{t}].weights")
        _check_numbers(bias, f"layers[{t}].bias")
        try:
            w = np.array(rows, dtype=float)
            b = np.array(bias, dtype=float)
        except OverflowError:  # an integer beyond the float range
            w = b = np.array([np.inf])
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ModelFormatError(f"layers[{t}] contains a non-finite value")
        layers.append(AffineLayer(w, b))
    return ReluNetwork(arch, tuple(layers))


def read_model(path: str) -> ReluNetwork:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    except RecursionError:
        raise ModelFormatError(f"invalid JSON in {path}: nested too deeply") from None
    return network_from_dict(data)


def write_model(net: ReluNetwork, path: str) -> None:
    # json round-trips finite doubles exactly (repr-based float encoding)
    with open(path, "w") as fh:
        json.dump(network_to_dict(net), fh)
        fh.write("\n")
