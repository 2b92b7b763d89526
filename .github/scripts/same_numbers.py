"""Check that two output trees hold the same CSV and errors.json numbers.

    python same_numbers.py HEAD_DIR BASE_DIR TOL

Both trees must hold the same *.csv and errors.json files.  In each pair the
headers, row counts, labels and JSON layout must match exactly, and each
number must lie within TOL * max(1, |column max|) of the base's, a column
being a CSV column or a JSON key.  Any other file is left to diff.
"""

import json
import sys
from pathlib import Path

import numpy as np


def compared_files(root):
    return sorted(
        p.relative_to(root) for p in root.rglob("*")
        if p.suffix == ".csv" or p.name == "errors.json"
    )


def csv_columns(path):
    header, *rows = path.read_text().splitlines()
    return header, [row.split(",") for row in rows]


def json_leaves(node, path=()):
    """(path, value) of every leaf; a leaf's column is its last key."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from json_leaves(value, path + (i,))
    else:
        yield path, node


def check_columns(name, columns, tol):
    """columns: {column: (head values, base values)} of numbers."""
    for col, (h, b) in columns.items():
        h, b = np.array(h, dtype=float), np.array(b, dtype=float)
        bound = tol * max(1.0, np.abs(b).max(initial=0.0))
        worst = np.abs(h - b).max(initial=0.0)
        assert worst <= bound, f"{name}: column {col} moved by {worst:.3g} > {bound:.3g}"


def check_csv(name, head, base, tol):
    (hh, h), (bh, b) = csv_columns(head), csv_columns(base)
    assert hh == bh and len(h) == len(b), f"{name}: header or row count differs"
    columns = {}
    for j, col in enumerate(bh.split(",")):
        hc, bc = [r[j] for r in h], [r[j] for r in b]
        try:
            [float(v) for v in bc]
        except ValueError:  # a label column
            assert hc == bc, f"{name}: column {col} differs"
            continue
        columns[col] = (hc, bc)
    check_columns(name, columns, tol)


def check_json(name, head, base, tol):
    h, b = (list(json_leaves(json.loads(p.read_text()))) for p in (head, base))
    assert [p for p, _ in h] == [p for p, _ in b], f"{name}: layout differs"
    columns = {}
    for (path, hv), (_, bv) in zip(h, b):
        if isinstance(bv, (int, float)):
            hs, bs = columns.setdefault(path[-1], ([], []))
            hs.append(hv)
            bs.append(bv)
        else:
            assert hv == bv, f"{name}: {path} differs"
    check_columns(name, columns, tol)


def main(head, base, tol):
    names = compared_files(head)
    assert names == compared_files(base), "the CSV and errors.json files differ"
    for name in names:
        check = check_json if name.suffix == ".json" else check_csv
        check(name, head / name, base / name, tol)
    print(f"{len(names)} files within {tol:g} of each column's max")


if __name__ == "__main__":
    main(Path(sys.argv[1]), Path(sys.argv[2]), float(sys.argv[3]))
