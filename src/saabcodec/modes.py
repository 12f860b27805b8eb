"""Intra-mode identifiers and the mode -> kernel grouping tables.

35 modes: 0 = Planar, 1 = DC, 2..34 angular (10 = Horizontal, 26 =
Vertical).  The learned transform bank has 24 kernels; `apply_map` says
which kernel transforms residuals of each mode, `train_groups` says which
modes' residuals train each kernel.  Near-horizontal and near-vertical
modes (8-12, 24-28) get one kernel per mode; the rest share a kernel per
mode pair.
"""

from dataclasses import dataclass

N_MODES = 35
N_KERNELS = 24

# Modes where the substitution / partial-RDO strategies keep plain DCT.
DCT_ONLY_MODES = frozenset(range(8, 13)) | frozenset(range(24, 29))


@dataclass(frozen=True)
class ModeGroupTable:
    """apply_map: mode id -> kernel index; train_groups: kernel index -> mode set."""

    apply_map: tuple
    train_groups: tuple

    def kernel_for_mode(self, mode):
        return self.apply_map[mode]


_APPLY_MAP = {
    0: 0, 1: 1,
    2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 4,
    8: 5, 9: 6, 10: 7, 11: 8, 12: 9,
    13: 10, 14: 10, 15: 11, 16: 11, 17: 12, 18: 12,
    19: 13, 20: 13, 21: 14, 22: 14, 23: 15,
    24: 16, 25: 17, 26: 18, 27: 19, 28: 20,
    29: 21, 30: 21, 31: 22, 32: 22, 33: 23, 34: 23,
}

_TRAIN_GROUPS = {
    0: {0}, 1: {1},
    2: {2, 3}, 3: {4, 5}, 4: {6, 7},
    5: {7, 8}, 6: {8, 9}, 7: {9, 10}, 8: {10, 11}, 9: {11, 12},
    10: {13, 14}, 11: {15, 16}, 12: {17, 18}, 13: {19, 20}, 14: {21, 22},
    15: {22, 23},
    16: {23, 24}, 17: {24, 25}, 18: {25, 26}, 19: {26, 27}, 20: {27, 28},
    21: {29, 30}, 22: {31, 32}, 23: {33, 34},
}


def canonical_mode_group_table():
    """The fixed 24-kernel grouping used everywhere in this package."""
    apply_map = tuple(_APPLY_MAP[m] for m in range(N_MODES))
    train_groups = tuple(frozenset(_TRAIN_GROUPS[k]) for k in range(N_KERNELS))
    return ModeGroupTable(apply_map=apply_map, train_groups=train_groups)
