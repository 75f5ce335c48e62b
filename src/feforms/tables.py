"""Reference dimension tables for the box families and their reproduction.

The expected values ship as an embedded fixture; `table1_certificates`
recomputes every entry (closed formula for the tensor-product family, a
count for the serendipity-type family) and records any mismatch, including
a tensor-product formula that disagrees with the size of its basis
enumeration.  No entry builds a basis (see `spaces.count`).
"""

from __future__ import annotations

from feforms import spaces
from feforms.complexes import Certificate

R_RANGE = range(1, 7)

# dim Qminus_r Lambda^k on the n-box, rows indexed (n, k), columns r = 1..6
QMINUS_TABLE = {
    (1, 0): [2, 3, 4, 5, 6, 7],
    (1, 1): [1, 2, 3, 4, 5, 6],
    (2, 0): [4, 9, 16, 25, 36, 49],
    (2, 1): [4, 12, 24, 40, 60, 84],
    (2, 2): [1, 4, 9, 16, 25, 36],
    (3, 0): [8, 27, 64, 125, 216, 343],
    (3, 1): [12, 54, 144, 300, 540, 882],
    (3, 2): [6, 36, 108, 240, 450, 756],
    (3, 3): [1, 8, 27, 64, 125, 216],
    (4, 0): [16, 81, 256, 625, 1296, 2401],
    (4, 1): [32, 216, 768, 2000, 4320, 8232],
    (4, 2): [24, 216, 864, 2400, 5400, 10584],
    (4, 3): [8, 96, 432, 1280, 3000, 6048],
    (4, 4): [1, 16, 81, 256, 625, 1296],
}

# dim S_r Lambda^k on the n-box, same layout
S_TABLE = {
    (1, 0): [2, 3, 4, 5, 6, 7],
    (1, 1): [2, 3, 4, 5, 6, 7],
    (2, 0): [4, 8, 12, 17, 23, 30],
    (2, 1): [8, 14, 22, 32, 44, 58],
    (2, 2): [3, 6, 10, 15, 21, 28],
    (3, 0): [8, 20, 32, 50, 74, 105],
    (3, 1): [24, 48, 84, 135, 204, 294],
    (3, 2): [18, 39, 72, 120, 186, 273],
    (3, 3): [4, 10, 20, 35, 56, 84],
    (4, 0): [16, 48, 80, 136, 216, 328],
    (4, 1): [64, 144, 272, 472, 768, 1188],
    (4, 2): [72, 168, 336, 606, 1014, 1602],
    (4, 3): [32, 84, 180, 340, 588, 952],
    (4, 4): [5, 15, 35, 70, 126, 210],
}


def table1_certificates() -> list[Certificate]:
    certs = []
    for family, table in (("Qminus", QMINUS_TABLE), ("S", S_TABLE)):
        mismatches = []
        checked = 0
        for (n, k), row in sorted(table.items()):
            for r, expected in zip(R_RANGE, row):
                got = spaces.dimension(spaces.SpaceSpec(family, n, r, k))
                # the Qminus formula is checked against the size of its basis
                # enumeration; the S entry is already a count
                rank = spaces.qminus_count(r, k, n) if family == "Qminus" else got
                checked += 1
                if got != expected or got != rank:
                    mismatches.append({"n": n, "k": k, "r": r, "expected": expected,
                                       "computed": got,
                                       **({"rank": rank} if got != rank else {})})
        certs.append(Certificate(
            f"table1:{family}", {"n_max": 4, "r_max": 6},
            "pass" if not mismatches else "fail",
            {"entries_checked": checked, "mismatches": mismatches}))
    return certs


def render_tables(certs) -> str:
    """Both tables as text, one block per dimension, as the certificates
    computed them: an entry differs from the fixture only at a mismatch."""
    lines = []
    header = "k | " + "  ".join(f"r={r}" for r in R_RANGE)
    for cert, (family, table) in zip(certs, (("Qminus", QMINUS_TABLE), ("S", S_TABLE))):
        computed = {(m["n"], m["k"], m["r"]): m["computed"]
                    for m in cert.witness["mismatches"]}
        lines.append(f"dim {family} forms on the n-box")
        for n in range(1, 5):
            lines.append(f"  n={n}")
            lines.append("  " + header)
            for k in range(n + 1):
                row = [computed.get((n, k, r), v) for r, v in zip(R_RANGE, table[n, k])]
                lines.append(f"  {k} | " + "  ".join(f"{v}" for v in row))
        lines.append("")
    return "\n".join(lines)
