"""Calibration op: a fixed amount of work that does not depend on propb.

    python3 bench/calibrate.py

The benchmark runs this in a fresh interpreter next to every pass to read
how fast the host is running at that moment.  Its work has the same kinds
of cost a propb op has: interpreter start-up and the numpy import, numpy
bit arithmetic streaming over 2 MB arrays (as in the n = 2 labeled-graph
scan), and a pure-Python bit loop (as in the BFS fallback, the decider and
the separation enumeration).  It prints two checksums, which the
benchmark compares with CHECKSUM to be sure the whole kernel ran.
"""

CHECKSUM = "8519680 5700301"

CHUNK = 1 << 18


def numpy_part() -> int:
    import numpy as np  # here, so that importing CHECKSUM stays cheap

    pc = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.int8)
    acc = 0
    for lo in range(0, 1 << 21, CHUNK):
        g = np.arange(lo, lo + CHUNK, dtype=np.int64)
        for m in (0x1F, 0x3E0, 0x7C00, 0xF8000, 0x1F0000):
            d = (pc[g & m & 0xFFFF] + pc[(g & m) >> 16 & 0xFFFF]).astype(np.int64)
            acc += int((d > 1).sum())
    return acc


def python_part() -> int:
    s = 0
    for x in range(60000):
        nb = x * 2654435761 & 0xFFFFF
        while nb:
            s += (nb & -nb).bit_length() - 1
            nb &= nb - 1
    return s


if __name__ == "__main__":
    print(numpy_part(), python_part())
