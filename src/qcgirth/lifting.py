"""Shift matrices and their expansion to quasi-cyclic parity-check matrices.

A shift matrix P is a J x L array of residues mod N.  Lifting replaces
entry P[j][l] by the N x N circulant permutation block with ones at
(r, (r + P[j][l]) mod N), producing a JN x LN parity-check matrix whose
Tanner-graph girth is the object of study.  The orientation row r ->
column (r + shift) mod N is fixed project-wide so exports are
bit-reproducible.
"""

from __future__ import annotations

from operator import lt
from typing import Optional

from .mappings import Permutation, _Record


class AlistParseError(ValueError):
    """Malformed alist text; line is 1-based."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ShiftMatrix(_Record):
    """J x L matrix of shift values mod N, stored row-major as plain ints.

    Entries are normalized into [0, N) at construction.
    """

    entries: tuple[tuple[int, ...], ...]
    lifting_factor: int

    def __post_init__(self) -> None:
        n = self.lifting_factor
        if n < 1:
            raise ValueError(f"lifting factor must be >= 1, got {n}")
        rows = tuple(tuple(int(v) % n for v in row) for row in self.entries)
        if not rows or not rows[0]:
            raise ValueError("shift matrix needs at least one row and column")
        if len({len(r) for r in rows}) != 1:
            raise ValueError("ragged shift matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def is_canonical(self) -> bool:
        """True when the first row and first column are all zero."""
        return all(v == 0 for v in self.entries[0]) and all(
            row[0] == 0 for row in self.entries
        )


class ParityCheckMatrix(_Record):
    """Sparse binary matrix with n_cols columns, stored as its rows.

    rows[r] is the tuple of the columns of row r's ones in strictly
    ascending order.  export_alist's bytes and girth_bfs's canonical
    witness depend on this order, as on that of col_neighbors.
    """

    n_cols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.n_cols
        for r, row in enumerate(self.rows):
            if row and not (0 <= row[0] and row[-1] < n and all(map(lt, row, row[1:]))):
                raise ValueError(f"row {r} is not strictly ascending inside [0, {n})")

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def adjacency(self) -> frozenset[tuple[int, int]]:
        """The one-positions (row, column)."""
        return frozenset((r, c) for r, row in enumerate(self.rows) for c in row)

    def col_neighbors(self) -> list[list[int]]:
        """Per column, the rows of its ones in ascending order: the rows
        are read in order, so no list needs a sort."""
        out: list[list[int]] = [[] for _ in range(self.n_cols)]
        for r, row in enumerate(self.rows):
            for c in row:
                out[c].append(r)
        return out


def canonical_from_mapping(p: Permutation) -> ShiftMatrix:
    """The 3 x N shift matrix (zeros; 0..N-1; p(0)..p(N-1)) for p(0) = 0."""
    if p.images[0] != 0:
        raise ValueError(f"mapping must fix 0, got p(0) = {p.images[0]}")
    n = p.modulus
    return ShiftMatrix(
        entries=(tuple([0] * n), tuple(range(n)), p.images),
        lifting_factor=n,
    )


def normalize(p: ShiftMatrix) -> ShiftMatrix:
    """Equivalent matrix with zero first row and column.

    Subtracts the first-row entry from each column, then the first-column
    entry from each row; both steps are Tanner-graph isomorphisms, so the
    girth is unchanged.  Idempotent.
    """
    n = p.lifting_factor
    cols_shifted = [
        [p.entries[j][l] - p.entries[0][l] for l in range(p.cols)]
        for j in range(p.rows)
    ]
    rows = tuple(
        tuple((v - row[0]) % n for v in row) for row in cols_shifted
    )
    return ShiftMatrix(entries=rows, lifting_factor=n)


def lift(p: ShiftMatrix) -> ParityCheckMatrix:
    """Expand each shift entry into its circulant permutation block.

    Row r of block row j has its block-l one at l*N + (r + P[j][l]) mod N,
    so each row's columns come out ascending with l.
    """
    n = p.lifting_factor
    rows: list[tuple[int, ...]] = []
    for shifts in p.entries:
        # block l's ones for r = 0..N-1: block l's columns rotated by its shift
        rows += zip(*[[*range(l * n + s, l * n + n), *range(l * n, l * n + s)]
                      for l, s in enumerate(shifts)])
    return ParityCheckMatrix(p.cols * n, tuple(rows))


def export_alist(h: ParityCheckMatrix) -> str:
    """Standard alist text: 1-based indices, zero-padded to the max degree."""
    by_col = h.col_neighbors()
    by_row = h.rows
    max_col = max((len(x) for x in by_col), default=0)
    max_row = max((len(x) for x in by_row), default=0)
    lines = [
        f"{h.n_cols} {h.n_rows}",
        f"{max_col} {max_row}",
        " ".join(str(len(x)) for x in by_col),
        " ".join(str(len(x)) for x in by_row),
    ]
    for col in by_col:
        padded = [r + 1 for r in col] + [0] * (max_col - len(col))
        lines.append(" ".join(str(v) for v in padded))
    for row in by_row:
        padded = [c + 1 for c in row] + [0] * (max_row - len(row))
        lines.append(" ".join(str(v) for v in padded))
    return "\n".join(lines) + "\n"


def _ints(line: str, lineno: int, expect: Optional[int] = None) -> list[int]:
    try:
        vals = [int(tok) for tok in line.split()]
    except ValueError as exc:
        raise AlistParseError(lineno, f"non-integer token: {exc}") from None
    if expect is not None and len(vals) != expect:
        raise AlistParseError(lineno, f"expected {expect} integers, got {len(vals)}")
    return vals


def import_alist(text: str) -> ParityCheckMatrix:
    """Parse alist text back into a ParityCheckMatrix."""
    lines = text.splitlines()

    def need(i: int) -> str:
        if i >= len(lines):
            raise AlistParseError(i + 1, "unexpected end of file")
        return lines[i]

    n_cols, n_rows = _ints(need(0), 1, 2)
    if n_cols < 1 or n_rows < 1:
        raise AlistParseError(1, f"bad dimensions {n_cols} x {n_rows}")
    max_col, max_row = _ints(need(1), 2, 2)
    col_deg = _ints(need(2), 3, n_cols)
    row_deg = _ints(need(3), 4, n_rows)
    ones = set()
    for c in range(n_cols):
        lineno = 5 + c
        vals = _ints(need(lineno - 1), lineno)
        entries = [v for v in vals if v != 0]
        if len(entries) != col_deg[c]:
            raise AlistParseError(
                lineno, f"column {c} lists {len(entries)} rows, degree says {col_deg[c]}"
            )
        for v in entries:
            if not 1 <= v <= n_rows:
                raise AlistParseError(lineno, f"row index {v} out of range")
            ones.add((v - 1, c))
    rows = []
    for r in range(n_rows):
        lineno = 5 + n_cols + r
        vals = _ints(need(lineno - 1), lineno)
        entries = [v for v in vals if v != 0]
        if len(entries) != row_deg[r]:
            raise AlistParseError(
                lineno, f"row {r} lists {len(entries)} columns, degree says {row_deg[r]}"
            )
        for v in entries:
            if not 1 <= v <= n_cols:
                raise AlistParseError(lineno, f"column index {v} out of range")
            if (r, v - 1) not in ones:
                raise AlistParseError(
                    lineno, f"one at ({r}, {v - 1}) missing from column section"
                )
        if len(set(entries)) != len(entries):
            raise AlistParseError(lineno, f"row {r} lists a column twice")
        rows.append(tuple(sorted(v - 1 for v in entries)))
    for i in range(4 + n_cols + n_rows, len(lines)):
        if lines[i].strip():
            raise AlistParseError(i + 1, "text after the row section")
    # the row section lists sum(row_deg) distinct ones of the column
    # section, so all of them when that is len(ones); the column section
    # repeats none when len(ones) is sum(col_deg)
    if not len(ones) == sum(col_deg) == sum(row_deg):
        raise AlistParseError(len(lines), "column and row sections disagree")
    if (max_col, max_row) != (max(col_deg), max(row_deg)):
        raise AlistParseError(2, "max degrees differ from the degree lists")
    return ParityCheckMatrix(n_cols, tuple(rows))


def export_shift_matrix(p: ShiftMatrix) -> str:
    """Structured text with J, L, N and row-major entries."""
    lines = [
        "shift-matrix 1",
        f"J {p.rows}",
        f"L {p.cols}",
        f"N {p.lifting_factor}",
    ]
    lines.extend("row " + " ".join(str(v) for v in row) for row in p.entries)
    return "\n".join(lines) + "\n"


def import_shift_matrix(text: str) -> ShiftMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != ["shift-matrix", "1"]:
        raise ValueError("missing shift-matrix header")
    header: dict[str, int] = {}
    for ln in lines[1:4]:
        key, _, val = ln.partition(" ")
        header[key] = int(val)
    for key in ("J", "L", "N"):
        if key not in header:
            raise ValueError(f"missing {key} field")
    rows = []
    for ln in lines[4:]:
        if not ln.startswith("row "):
            raise ValueError(f"expected row line, got {ln!r}")
        rows.append(tuple(int(v) for v in ln.split()[1:]))
    if len(rows) != header["J"] or any(len(r) != header["L"] for r in rows):
        raise ValueError("row data does not match declared J x L")
    return ShiftMatrix(entries=tuple(rows), lifting_factor=header["N"])
