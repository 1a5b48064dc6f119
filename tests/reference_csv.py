"""The CSV loader as a loop over csv.reader rows that builds the law from
(value, weight) tuples, kept as a test oracle for the one-pass loader."""

import csv

from wassrisk import Empirical


def reference_empirical_from_csv(path: str) -> Empirical:
    values: list[float] = []
    weights: list[float] = []
    with open(path, newline="") as handle:
        rows = [row for row in csv.reader(handle) if row and any(c.strip() for c in row)]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    start = 0
    try:
        float(rows[0][0])
    except ValueError:
        start = 1
    for lineno, row in enumerate(rows[start:], start=start + 1):
        try:
            values.append(float(row[0]))
        except ValueError as exc:
            raise ValueError(f"{path}: row {lineno}: bad value {row[0]!r}") from exc
        if len(row) > 1 and row[1].strip():
            try:
                weights.append(float(row[1]))
            except ValueError as exc:
                raise ValueError(f"{path}: row {lineno}: bad weight {row[1]!r}") from exc
    if weights and len(weights) != len(values):
        raise ValueError(f"{path}: weight column must be present on every row or absent")
    if not weights:
        w = 1.0 / len(values) if values else 0.0
        return Empirical(tuple((v, w) for v in values))
    total = sum(weights)
    if total <= 0:
        raise ValueError(f"{path}: weights must sum to a positive number")
    return Empirical(tuple((v, w / total) for v, w in zip(values, weights)))
