"""Intra-mode identifiers and the codec's fixed mode -> kernel table.

35 modes: 0 = Planar, 1 = DC, 2..34 angular (10 = Horizontal, 26 =
Vertical).  The learned transform bank has 24 kernels; `APPLY_MAP` says
which kernel transforms residuals of each mode, `TRAIN_GROUPS` says which
modes' residuals train each kernel.  Near-horizontal and near-vertical
modes (8-12, 24-28) get one kernel per mode; the rest share a kernel per
mode pair.
"""

N_MODES = 35
N_KERNELS = 24

# Modes where the substitution / partial-RDO strategies keep plain DCT.
DCT_ONLY_MODES = frozenset(range(8, 13)) | frozenset(range(24, 29))

# APPLY_MAP[mode] is the index of the kernel that transforms the mode's residuals.
APPLY_MAP = (
    0, 1,
    2, 2, 3, 3, 4, 4,
    5, 6, 7, 8, 9,
    10, 10, 11, 11, 12, 12,
    13, 13, 14, 14, 15,
    16, 17, 18, 19, 20,
    21, 21, 22, 22, 23, 23,
)

# TRAIN_GROUPS[k] lists, ascending, the modes whose residuals train kernel k.
TRAIN_GROUPS = (
    (0,), (1,),
    (2, 3), (4, 5), (6, 7),
    (7, 8), (8, 9), (9, 10), (10, 11), (11, 12),
    (13, 14), (15, 16), (17, 18), (19, 20), (21, 22),
    (22, 23),
    (23, 24), (24, 25), (25, 26), (26, 27), (27, 28),
    (29, 30), (31, 32), (33, 34),
)
