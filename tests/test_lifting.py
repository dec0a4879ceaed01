import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcgirth.girth import GirthReport
from qcgirth.lifting import (
    AlistParseError,
    ParityCheckMatrix,
    ShiftMatrix,
    canonical_from_mapping,
    export_alist,
    export_shift_matrix,
    import_alist,
    import_shift_matrix,
    lift,
    normalize,
)
from qcgirth.mappings import Permutation, product_mapping


def random_shift_matrix(draw_rows, draw_cols, draw_n, rng):
    entries = tuple(
        tuple(rng.randrange(draw_n) for _ in range(draw_cols))
        for _ in range(draw_rows)
    )
    return ShiftMatrix(entries=entries, lifting_factor=draw_n)


shift_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda j: st.integers(min_value=1, max_value=5).flatmap(
        lambda l: st.integers(min_value=1, max_value=9).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(min_value=0, max_value=n - 1), min_size=l, max_size=l),
                min_size=j,
                max_size=j,
            ).map(
                lambda rows: ShiftMatrix(
                    entries=tuple(tuple(r) for r in rows), lifting_factor=n
                )
            )
        )
    )
)


def test_shift_matrix_normalizes_entries():
    p = ShiftMatrix(entries=((-1, 7),), lifting_factor=5)
    assert p.entries == ((4, 2),)


def test_shift_matrix_validation():
    with pytest.raises(ValueError, match="ragged"):
        ShiftMatrix(entries=((0, 1), (0,)), lifting_factor=3)
    with pytest.raises(ValueError):
        ShiftMatrix(entries=(), lifting_factor=3)
    with pytest.raises(ValueError):
        ShiftMatrix(entries=((0,),), lifting_factor=0)


def test_is_canonical():
    assert ShiftMatrix(entries=((0, 0), (0, 1)), lifting_factor=3).is_canonical()
    assert not ShiftMatrix(entries=((0, 1), (0, 1)), lifting_factor=3).is_canonical()
    assert not ShiftMatrix(entries=((0, 0), (1, 1)), lifting_factor=3).is_canonical()


def test_canonical_from_mapping():
    p = canonical_from_mapping(product_mapping(2, 5))
    assert p.entries == (
        (0, 0, 0, 0, 0),
        (0, 1, 2, 3, 4),
        (0, 2, 4, 1, 3),
    )
    assert p.is_canonical()


def test_canonical_from_mapping_requires_fixed_zero():
    with pytest.raises(ValueError, match="fix 0"):
        canonical_from_mapping(Permutation((1, 0, 2)))


def test_normalize():
    p = ShiftMatrix(entries=((1, 2, 3), (4, 5, 6)), lifting_factor=7)
    q = normalize(p)
    assert q.is_canonical()
    # entry algebra: normalized entry = p[j][l] - p[0][l] - (p[j][0] - p[0][0])
    assert q.entries == ((0, 0, 0), (0, 0, 0))
    r = normalize(ShiftMatrix(entries=((1, 2, 3), (4, 6, 8)), lifting_factor=7))
    assert r.entries == ((0, 0, 0), (0, 1, 2))


@given(shift_matrices)
def test_normalize_is_idempotent(p):
    q = normalize(p)
    assert q.is_canonical()
    assert normalize(q) == q


def test_lift_small_example():
    p = ShiftMatrix(entries=((0, 1), (1, 0)), lifting_factor=2)
    h = lift(p)
    assert h.n_rows == 4 and h.n_cols == 4
    assert h.rows == ((0, 3), (1, 2), (1, 2), (0, 3))
    assert h.adjacency == frozenset(
        {(0, 0), (1, 1), (0, 3), (1, 2), (2, 1), (3, 0), (2, 2), (3, 3)}
    )


@given(shift_matrices)
def test_lift_degrees(p):
    h = lift(p)
    assert all(len(col) == p.rows for col in h.col_neighbors())
    assert all(len(row) == p.cols for row in h.rows)
    assert len(h.adjacency) == p.rows * p.cols * p.lifting_factor


def test_parity_check_matrix_bounds():
    for rows in (((2,),), ((-1, 0),), ((0, 1), (1, 0)), ((1, 1),)):
        with pytest.raises(ValueError, match="strictly ascending"):
            ParityCheckMatrix(n_cols=2, rows=rows)
    assert ParityCheckMatrix(n_cols=2, rows=((), (0, 1))).n_rows == 2


def test_parity_check_equality_ignores_block_metadata():
    h = lift(ShiftMatrix(entries=((0, 1), (1, 0)), lifting_factor=2))
    bare = ParityCheckMatrix(n_cols=4, rows=((0, 3), (1, 2), (1, 2), (0, 3)))
    assert h == bare
    assert hash(h) == hash(bare)


def test_export_alist_golden():
    h = lift(ShiftMatrix(entries=((1,),), lifting_factor=2))
    assert export_alist(h) == "2 2\n1 1\n1 1\n1 1\n2\n1\n2\n1\n"


def test_alist_roundtrip():
    for p in (
        canonical_from_mapping(product_mapping(2, 5)),
        ShiftMatrix(entries=((0, 1), (1, 0)), lifting_factor=2),
        ShiftMatrix(entries=((0, 1, 2), (2, 0, 1), (1, 2, 0)), lifting_factor=4),
    ):
        h = lift(p)
        assert import_alist(export_alist(h)) == h


def test_alist_roundtrip_uneven_degrees():
    h = ParityCheckMatrix(n_cols=3, rows=((0, 1), (1, 2)))
    assert import_alist(export_alist(h)) == h


def test_import_alist_rejects_malformed_text():
    good = export_alist(lift(ShiftMatrix(entries=((1,),), lifting_factor=2)))
    lines = good.splitlines()

    with pytest.raises(AlistParseError, match="end of file"):
        import_alist("\n".join(lines[:3]))
    with pytest.raises(AlistParseError, match="non-integer"):
        import_alist(good.replace("2 2", "2 x"))

    bad_degree = lines[:]
    bad_degree[2] = "2 1"  # column 0 claims degree 2 but lists one row
    with pytest.raises(AlistParseError) as info:
        import_alist("\n".join(bad_degree))
    assert info.value.line == 5

    out_of_range = lines[:]
    out_of_range[4] = "9"
    with pytest.raises(AlistParseError, match="out of range"):
        import_alist("\n".join(out_of_range))

    mismatched = lines[:]
    mismatched[6], mismatched[7] = mismatched[7], mismatched[6]  # swap row lists
    with pytest.raises(AlistParseError, match="missing from column section"):
        import_alist("\n".join(mismatched))

    # the row section lists (0, 0) but not (1, 1), which the column section has
    with pytest.raises(AlistParseError, match="sections disagree"):
        import_alist("2 2\n1 1\n1 1\n1 0\n1\n2\n1\n\n")
    # row 0 lists column 0 twice, matching its degree 2
    with pytest.raises(AlistParseError, match="twice") as info:
        import_alist("1 1\n1 2\n1\n2\n1\n1 1\n")
    assert info.value.line == 6

    # the file ends with its last row line, apart from blank lines
    end = len(lines)
    for tail, line in (("1 2\n", end + 1), ("junk\n", end + 1),
                       ("\n\n1\n", end + 3), ("  \n0", end + 2)):
        with pytest.raises(AlistParseError, match="after the row section") as info:
            import_alist(good + tail)
        assert info.value.line == line
    for tail in ("\n", "\n\n", " \n\t\n"):
        assert import_alist(good + tail) == import_alist(good)


@pytest.mark.parametrize("text, line, message", [
    ("2 1 7\n1 2\n1 1\n2\n1\n1\n1 2\n", 1, "expected 2 integers, got 3"),
    ("0 1\n1 2\n\n2\n1 2\n", 1, "bad dimensions 0 x 1"),
    ("2 1\n1 2\n1 1\n2\n1\n1\n1\n", 7, "row 0 lists 1 columns, degree says 2"),
    ("2 1\n1 2\n1 1\n2\n1\n1\n1 3\n", 7, "column index 3 out of range"),
], ids=["dimension-count", "dimension-zero", "row-degree", "column-index"])
def test_import_alist_names_the_line_it_rejects(text, line, message):
    with pytest.raises(AlistParseError) as info:
        import_alist(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_import_alist_sorts_lists_in_any_order():
    # the import sorts each row, so shuffled lists (zero padding included)
    # give the same matrix and the canonical export
    rng = random.Random(31)
    for h in (
        lift(ShiftMatrix(entries=((0, 1, 2), (2, 0, 1), (1, 2, 0)), lifting_factor=4)),
        ParityCheckMatrix(n_cols=3, rows=((0, 1), (1, 2))),
    ):
        canonical = export_alist(h)
        lines = canonical.splitlines()
        for i in range(4, len(lines)):
            vals = lines[i].split()
            rng.shuffle(vals)
            lines[i] = " ".join(vals)
        assert lines != canonical.splitlines()
        back = import_alist("\n".join(lines) + "\n")
        assert all(list(row) == sorted(row) for row in back.rows)
        assert back == h and export_alist(back) == canonical


def test_import_alist_checks_declared_max_degrees():
    good = export_alist(lift(ShiftMatrix(entries=((1,),), lifting_factor=2)))
    lines = good.splitlines()
    for maxima in ("2 1", "1 2", "1 0"):
        lines[1] = maxima  # the lists below still hold one entry each
        with pytest.raises(AlistParseError, match="max degrees") as info:
            import_alist("\n".join(lines))
        assert info.value.line == 2


def test_shift_matrix_export_golden():
    p = ShiftMatrix(entries=((0, 0), (0, 1)), lifting_factor=3)
    assert export_shift_matrix(p) == (
        "shift-matrix 1\nJ 2\nL 2\nN 3\nrow 0 0\nrow 0 1\n"
    )


@given(shift_matrices)
def test_shift_matrix_roundtrip(p):
    assert import_shift_matrix(export_shift_matrix(p)) == p


def test_import_shift_matrix_errors():
    with pytest.raises(ValueError, match="header"):
        import_shift_matrix("J 2\nL 2\nN 3\nrow 0 0\nrow 0 1\n")
    with pytest.raises(ValueError, match="missing N"):
        import_shift_matrix("shift-matrix 1\nJ 1\nL 1\nrow 0\n")
    with pytest.raises(ValueError, match="row line"):
        import_shift_matrix("shift-matrix 1\nJ 1\nL 1\nN 2\ncolumn 0\n")
    with pytest.raises(ValueError, match="declared"):
        import_shift_matrix("shift-matrix 1\nJ 2\nL 1\nN 2\nrow 0\n")


def test_girth_report_witness_validation():
    GirthReport(girth=4, shortest_cycle_count=1, cap=12, method="bfs",
                witness=("v0", "c0", "v1", "c1"))
    with pytest.raises(ValueError, match="length"):
        GirthReport(girth=6, shortest_cycle_count=1, cap=12, method="bfs",
                    witness=("v0", "c0"))
    with pytest.raises(ValueError, match="alternate"):
        GirthReport(girth=4, shortest_cycle_count=1, cap=12, method="bfs",
                    witness=("c0", "v0", "c1", "v1"))
    GirthReport(girth=None, shortest_cycle_count=0, cap=12, method="shifts")
    with pytest.raises(ValueError, match="no girth"):
        GirthReport(girth=None, shortest_cycle_count=5, cap=12, method="shifts",
                    witness=("v0", "c0", "v1", "c1"))
    with pytest.raises(ValueError, match="no girth"):
        GirthReport(girth=None, shortest_cycle_count=0, cap=12, method="shifts",
                    witness=("v0", "c0", "v1", "c1"))
    with pytest.raises(ValueError, match="no girth"):
        GirthReport(girth=None, shortest_cycle_count=3, cap=12, method="bfs")
