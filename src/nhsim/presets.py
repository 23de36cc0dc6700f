"""Layer tables for the benchmark networks used in tests and what-if runs.

Shapes only; weight paths stay empty so these descriptors suit synthetic
activation runs out of the box.  Every layer applies ReLU, encodes its
output and keeps 8 fractional bits throughout (the descriptor defaults).
Pad values are forced by the dimension chaining between consecutive layers.
"""

from __future__ import annotations

from .netmodel import LayerDescriptor, NetworkDescriptor

# (n_in, n_out, k, h, w, pad, pool)
_ROSHAMBO = [
    (1, 16, 5, 64, 64, 0, True),
    (16, 32, 3, 30, 30, 0, True),
    (32, 64, 3, 14, 14, 0, True),
    (64, 128, 3, 6, 6, 0, True),
    (128, 128, 1, 2, 2, 0, True),
]

_FACE_DETECTOR = [
    (1, 16, 5, 36, 36, 0, True),
    (16, 16, 3, 16, 16, 0, True),
]

_GIGA1NET = [
    (3, 16, 1, 224, 224, 0, True),
    (16, 16, 7, 112, 112, 1, True),
    (16, 32, 7, 54, 54, 0, True),
    (32, 64, 5, 24, 24, 1, False),
    (64, 64, 5, 22, 22, 1, False),
    (64, 64, 5, 20, 20, 1, False),
    (64, 128, 3, 18, 18, 1, False),
    (128, 128, 3, 18, 18, 1, False),
    (128, 128, 3, 18, 18, 1, False),
    (128, 128, 3, 18, 18, 1, False),
    (128, 128, 3, 18, 18, 1, True),
]


def _vgg(depths: list[int], first_in: int) -> list[tuple]:
    """VGG-style stack: 3x3 same convolutions, pooling closing each block."""
    widths = [64, 128, 256, 512, 512]
    layers = []
    h = 224
    n_in = first_in
    for width, depth in zip(widths, depths):
        for i in range(depth):
            last = i == depth - 1
            layers.append((n_in, width, 3, h, h, 1, last))
            n_in = width
        h //= 2
    return layers


# 4 input channels for the 19-layer variant, 3 for the 16-layer one; these
# reproduce the dense workloads of the reference runs (39.07 / 30.69 GOp).
_VGG19 = _vgg([2, 2, 4, 4, 4], first_in=4)
_VGG16 = _vgg([2, 2, 3, 3, 3], first_in=3)

_TABLES = {
    "roshambo": _ROSHAMBO,
    "face_detector": _FACE_DETECTOR,
    "giga1net": _GIGA1NET,
    "vgg16": _VGG16,
    "vgg19": _VGG19,
}


def network(name: str) -> NetworkDescriptor:
    """Build a named preset network descriptor (no weight files attached)."""
    try:
        table = _TABLES[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; have {sorted(_TABLES)}") from None
    layers = [
        LayerDescriptor(
            n_in=n_in, n_out=n_out, k=k, h=h, w=w, pad=pad, pool=pool, name=f"conv{i + 1}"
        )
        for i, (n_in, n_out, k, h, w, pad, pool) in enumerate(table)
    ]
    return NetworkDescriptor(layers, name=name)


def preset_names() -> list[str]:
    return sorted(_TABLES)
