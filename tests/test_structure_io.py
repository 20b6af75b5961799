import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from comogphog.structure_io import (
    BadSccsError,
    CaTrace,
    MalformedRecordError,
    NoCaAtomsError,
    ScopLabel,
    parse_scop_label,
    parse_structure,
    read_label_table,
)
from oracles import family_match, superfamily_match


def atom_line(serial, x, y, z, name=" CA ", altloc=" ", chain="A", resseq=1, icode=" ", record="ATOM  "):
    """Build one fixed-column PDB atom record (test-local, independent of the package)."""
    return (
        f"{record}{serial:5d} {name}{altloc}GLY {chain}{resseq:4d}{icode}   "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
    )


def test_two_ca_records():
    text = "\n".join([atom_line(1, 0, 0, 0, resseq=1), atom_line(2, 3, 4, 0, resseq=2)])
    trace = parse_structure(text, structure_id="t")
    assert len(trace) == 2
    assert np.array_equal(trace.coords, [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])


def test_altloc_first_wins():
    text = "\n".join(
        [
            atom_line(1, 0, 0, 0, resseq=9),
            atom_line(2, 1, 1, 1, resseq=10, altloc="A"),
            atom_line(3, 9, 9, 9, resseq=10, altloc="B"),
        ]
    )
    trace = parse_structure(text)
    assert len(trace) == 2
    assert np.array_equal(trace.coords[1], [1.0, 1.0, 1.0])


def test_hetatm_only_is_no_ca():
    text = "\n".join(
        [
            atom_line(1, 0, 0, 0, record="HETATM"),
            atom_line(2, 3, 4, 0, resseq=2, record="HETATM"),
        ]
    )
    with pytest.raises(NoCaAtomsError):
        parse_structure(text)


def test_single_ca_is_no_ca():
    with pytest.raises(NoCaAtomsError):
        parse_structure(atom_line(1, 0, 0, 0))


def test_non_ca_atoms_ignored():
    text = "\n".join(
        [
            atom_line(1, 5, 5, 5, name=" N  ", resseq=1),
            atom_line(2, 0, 0, 0, resseq=1),
            atom_line(3, 6, 6, 6, name=" CB ", resseq=1),
            atom_line(4, 3, 4, 0, resseq=2),
        ]
    )
    trace = parse_structure(text)
    assert np.array_equal(trace.coords, [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])


def test_short_atom_line_is_malformed():
    with pytest.raises(MalformedRecordError):
        parse_structure("ATOM      1  CA  GLY A   1\n" + atom_line(2, 3, 4, 0, resseq=2))


def test_bad_coordinate_field_is_malformed():
    good = atom_line(1, 0, 0, 0)
    bad = good[:30] + "   xx.yyy" + good[39:]
    with pytest.raises(MalformedRecordError):
        parse_structure("\n".join([bad, atom_line(2, 3, 4, 0, resseq=2)]))


def test_only_first_model_is_read():
    text = "\n".join(
        [
            "MODEL        1",
            atom_line(1, 0, 0, 0, resseq=1),
            atom_line(2, 3, 4, 0, resseq=2),
            "ENDMDL",
            "MODEL        2",
            atom_line(3, 7, 7, 7, resseq=1),
            atom_line(4, 8, 8, 8, resseq=2),
            "ENDMDL",
        ]
    )
    trace = parse_structure(text)
    assert len(trace) == 2
    assert np.array_equal(trace.coords, [[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])


def test_chains_concatenate_in_file_order():
    text = "\n".join(
        [
            atom_line(1, 0, 0, 0, chain="B", resseq=1),
            atom_line(2, 1, 0, 0, chain="A", resseq=1),
            atom_line(3, 2, 0, 0, chain="A", resseq=2),
        ]
    )
    trace = parse_structure(text)
    assert np.array_equal(trace.coords[:, 0], [0.0, 1.0, 2.0])


def test_reparsing_is_deterministic():
    text = "\n".join(atom_line(i, i * 1.25, -i, i % 7, resseq=i) for i in range(1, 20))
    a = parse_structure(text, structure_id="x")
    b = parse_structure(text, structure_id="x")
    assert a.id == b.id
    assert np.array_equal(a.coords, b.coords)


def test_trace_validation():
    with pytest.raises(ValueError):
        CaTrace(id="bad", coords=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        CaTrace(id="short", coords=np.zeros((1, 3)))
    with pytest.raises(ValueError):
        CaTrace(id="nan", coords=[[0, 0, 0], [np.nan, 0, 0]])


# --- labels ---


def test_parse_scop_label_basic():
    lab = parse_scop_label("d1n4ja_", "a.1.1.1")
    assert lab == ScopLabel(sid="d1n4ja_", sccs_class="a", fold=1, superfamily=1, family=1)
    lab2 = parse_scop_label("d2efva1", "b.12.3.4")
    assert (lab2.sccs_class, lab2.fold, lab2.superfamily, lab2.family) == ("b", 12, 3, 4)


@pytest.mark.parametrize("sccs", ["a.1.1", "a.1.1.1.2", "1.1.1.1", "a.0.1.1", "a.1.1.x", ""])
def test_parse_scop_label_rejects(sccs):
    with pytest.raises(BadSccsError):
        parse_scop_label("x", sccs)


def test_match_levels():
    a = parse_scop_label("a", "a.1.1.1")
    b = parse_scop_label("b", "a.1.1.1")
    c = parse_scop_label("c", "a.1.1.2")
    d = parse_scop_label("d", "b.1.1.1")
    assert family_match(a, b) and superfamily_match(a, b)
    assert not family_match(a, c) and superfamily_match(a, c)
    assert not family_match(a, d) and not superfamily_match(a, d)


label_strategy = st.builds(
    ScopLabel,
    sid=st.text(min_size=1, max_size=8),
    sccs_class=st.sampled_from("abcd"),
    fold=st.integers(1, 3),
    superfamily=st.integers(1, 3),
    family=st.integers(1, 3),
)


@given(label_strategy, label_strategy, label_strategy)
def test_family_match_is_equivalence(a, b, c):
    assert family_match(a, a)
    assert family_match(a, b) == family_match(b, a)
    if family_match(a, b) and family_match(b, c):
        assert family_match(a, c)


def test_read_label_table_formats():
    text = "\n".join(
        [
            "sid,sccs",
            "# a comment",
            "d1n4ja_,a.1.1.1",
            "",
            "d2efva1\tb.12.3.4",
            "d3x_,c.2.3.4,extra-column-ignored",
        ]
    )
    labels = read_label_table(text)
    assert set(labels) == {"d1n4ja_", "d2efva1", "d3x_"}
    assert labels["d2efva1"].fold == 12


def test_read_label_table_headerless():
    labels = read_label_table("d1,a.1.1.1\nd2,a.1.1.2\n")
    assert len(labels) == 2


def test_read_label_table_bad_row_after_data():
    with pytest.raises(BadSccsError):
        read_label_table("d1,a.1.1.1\nd2,broken\n")


@pytest.mark.parametrize("first", ["d0,a.1.1.0", "d0,a.x.1.1", "d0,.", "d0,a.1.1"])
def test_read_label_table_bad_first_row_with_dots_is_data(first):
    # a header's second field is a column name; one with a dot is a
    # classification, and a bad one is named rather than skipped
    with pytest.raises(BadSccsError, match=repr(first.split(",")[1])):
        read_label_table(first + "\nd1,a.1.1.1\n")
