"""Shared test helpers."""

import struct

import numpy as np
import pytest

from tnmpcqep.pipeline import IDX_IMAGE_MAGIC, IDX_LABEL_MAGIC, IMAGE_SIDE, LabeledBatch


def _write_idx(batch: LabeledBatch, images_path, labels_path) -> None:
    """Inverse of pipeline.load_idx; pixels quantize to the u8 grid."""
    m = len(batch)
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGE_MAGIC, m, IMAGE_SIDE, IMAGE_SIDE))
        fh.write(np.rint(batch.images * 255.0).astype(np.uint8).tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABEL_MAGIC, m))
        fh.write(batch.labels.astype(np.uint8).tobytes())


@pytest.fixture
def write_idx():
    """Writes an IDX image/label file pair, the fixtures load_idx reads."""
    return _write_idx
