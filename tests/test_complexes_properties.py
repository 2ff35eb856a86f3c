"""Property tests for the strong-collapse reduction on random complexes.

Each complex is drawn as up to 8 random facets over at most 10 vertices.
The reference is the path ``betti`` took before it reduced to the
strong-collapse core: elementary collapses and exact ranks on every face
of the input; under a small face budget the homology comes from the
nerve of the core's facets, which must give the same numbers.  The
strong core's facets must come out maximal, distinct and sorted on the
core's own vertices, its size and f-vector must match the core found one
vertex at a time (``complex_reference``), also on draws with twin
vertices, cones and simplex boundaries, the nerve of its facets must be
its own core, and the collapse probe through the core must leave a
complex with the input's Euler characteristic, two faces fewer per step.
The collapse kernel is checked face for face against the dict-driven
heap collapse it replaced (``collapse_reference``), also with vertices
spread over masks wider than 8 bytes, and the integer rank against the
rank over Fraction (``rank_reference``).  The Betti numbers, from
coreduction and the exact ranks of what it leaves, are checked against
those from the ranks over Fraction on every face, also on RP² and on
disconnected complexes.  The maximal faces that
``from_facets`` and ``nerve`` keep are checked against the point loop and
pairwise filter of ``complex_reference`` on random masks, wide ones too.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from collapse_reference import (greedy_collapse, reference_collapse,  # noqa: E402
                                reference_greedy_collapse)
from complex_reference import (reference_maximal, reference_nerve,  # noqa: E402
                               reference_strong_core)
from groupdom.complexes import (SimplicialComplex, _collapse,  # noqa: E402
                                _collapse_probe, _f_vector,
                                _reduced_betti, betti, nerve)
from groupdom.errors import BudgetExceeded  # noqa: E402
from groupdom.groups import mask_to_indices  # noqa: E402
from rank_reference import (RP2_FACETS, exact_rank, reference_betti,  # noqa: E402
                            reference_rank)


@st.composite
def facet_sets(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=8))
    return SimplicialComplex.from_facets(tuple(f"v{i}" for i in range(n)), masks)


@st.composite
def tied_facet_sets(draw):
    """``facet_sets`` over at most 6 vertices, then up to two steps that
    make domination ties and cores of more than one facet: a new vertex
    with a drawn vertex's facet column (a twin), a cone over everything
    drawn so far, or the boundary of a simplex on 3 or 4 vertices, some
    of them old ones, beside the facets drawn."""
    n = draw(st.integers(min_value=1, max_value=6))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=8))
    for step in draw(st.lists(st.sampled_from(["twin", "cone", "boundary"]), max_size=2)):
        if step == "twin":
            v = draw(st.integers(min_value=0, max_value=n - 1))
            masks = [m | (m >> v & 1) << n for m in masks]
            n += 1
        elif step == "cone":
            masks = [m | 1 << n for m in masks]
            n += 1
        else:
            k = draw(st.integers(min_value=3, max_value=4))
            shift = draw(st.integers(min_value=0, max_value=n))
            masks += [((1 << k) - 1 ^ 1 << i) << shift for i in range(k)]
            n = max(n, shift + k)
    return SimplicialComplex.from_facets(tuple(f"v{i}" for i in range(n)), masks)


def _lifted(core: SimplicialComplex, cx: SimplicialComplex, f: int) -> int:
    """The core facet ``f`` as a mask over ``cx``'s vertices, through the
    labels the core kept."""
    index = {label: i for i, label in enumerate(cx.vertex_labels)}
    return sum(1 << index[core.vertex_labels[v]] for v in mask_to_indices(f))


@st.composite
def wide_facet_sets(draw):
    """Up to 8 random facets over at most 10 vertices at positions up to
    140, so that a face's mask can take more than 8 bytes."""
    positions = draw(st.lists(st.integers(min_value=0, max_value=140),
                              min_size=1, max_size=10, unique=True))
    masks = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        chosen = draw(st.lists(st.sampled_from(positions), min_size=1, unique=True))
        masks.append(sum(1 << p for p in chosen))
    return SimplicialComplex.from_facets(
        tuple(f"v{i}" for i in range(max(positions) + 1)), masks)


@st.composite
def wide_masks(draw):
    """Up to 8 masks over at most 10 positions up to 140, as
    ``wide_facet_sets`` draws them, but zero masks and repeats allowed,
    and the list may be empty."""
    positions = draw(st.lists(st.integers(min_value=0, max_value=140),
                              min_size=1, max_size=10, unique=True))
    mask = st.lists(st.sampled_from(positions), unique=True).map(
        lambda chosen: sum(1 << p for p in chosen))
    masks = draw(st.lists(mask, max_size=8))
    if masks and draw(st.booleans()):
        masks.append(draw(st.sampled_from(masks)))
    return masks


@st.composite
def integer_columns(draw):
    """Sparse integer columns over at most 10 rows; some are integer
    combinations of earlier ones, so that ranks fall short."""
    rows = draw(st.integers(min_value=1, max_value=10))
    entry = st.integers(min_value=-6, max_value=6)
    columns = []
    for _ in range(draw(st.integers(min_value=0, max_value=12))):
        if columns and draw(st.booleans()):
            col = {}
            for c in draw(st.lists(st.sampled_from(columns), min_size=1, max_size=3)):
                k = draw(entry)
                for r, v in c.items():
                    col[r] = col.get(r, 0) + k * v
        else:
            col = draw(st.dictionaries(st.integers(min_value=0, max_value=rows - 1),
                                       entry, max_size=rows))
        columns.append(col)
    return columns


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_strong_core_matches_whole_face_set(cx):
    p = betti(cx)
    assert p.betti == _reduced_betti(_collapse(cx.faces()), cx.dim()), cx.facets
    assert p.euler == sum((-1) ** k * c for k, c in enumerate(cx.f_vector()))
    assert p.dim == cx.dim()
    core = cx.strong_core()
    assert all(any(_lifted(core, cx, f) & ~g == 0 for g in cx.facets) for f in core.facets)
    union = 0
    for f in core.facets:
        union |= f
    assert union == (1 << core.n_vertices) - 1, (cx.facets, core)  # every vertex used
    for v in mask_to_indices(union):  # no vertex of the core is dominated
        common = -1
        for f in core.facets:
            if f >> v & 1:
                common &= f
        assert common == 1 << v, (cx.facets, core.facets, v)


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_strong_core_facets_are_maximal_distinct_and_sorted(cx):
    core = cx.strong_core()
    assert core == SimplicialComplex.from_facets(core.vertex_labels, core.facets), cx.facets


@settings(max_examples=300, deadline=None)
@given(st.one_of(facet_sets(), tied_facet_sets()))
def test_strong_core_matches_one_vertex_at_a_time(cx):
    """Strong cores are unique up to isomorphism (Barmak-Minian 2012):
    the core by rounds has as many used vertices and facets, and the same
    f-vector, as the core by the lowest-first scan.  Its labels are the
    input's, and each of its facets lies in an input facet."""
    core, reference = cx.strong_core(), reference_strong_core(cx)
    used = 0
    for f in reference.facets:
        used |= f
    assert (core.n_vertices, len(core.facets)) == (used.bit_count(), len(reference.facets))
    assert core.f_vector() == reference.f_vector(), cx.facets
    assert set(core.vertex_labels) <= set(cx.vertex_labels)
    assert all(any(_lifted(core, cx, f) & ~g == 0 for g in cx.facets) for f in core.facets)


@settings(max_examples=300, deadline=None)
@given(st.one_of(facet_sets(), tied_facet_sets()))
def test_nerve_of_core_facets_is_its_own_core(cx):
    """The nerve of a strong core's facets has no dominated vertex and
    uses every vertex, so ``betti`` ranks its faces without a second core."""
    facet_nerve = nerve(list(cx.strong_core().facets))
    assert facet_nerve.strong_core() == facet_nerve, cx.facets


def _euler(faces) -> int:
    return sum((-1) ** k * c for k, c in enumerate(_f_vector(faces)))


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_core_collapse_probe_certificate(cx):
    """K collapses to its strong core and the probe collapses the core on:
    the faces left form a complex with K's Euler characteristic, and every
    collapse removed two of K's faces."""
    faces = cx.faces()
    core = cx.strong_core()
    core_faces = core.faces()
    rest = _collapse(core_faces)
    probe = _collapse_probe(len(faces), rest)
    assert len(faces) - probe["remaining_faces"] == 2 * probe["steps"], cx.facets
    assert probe["remaining_faces"] == len(rest) <= len(core_faces), cx.facets
    left = set(rest)
    assert left <= core_faces
    assert all(f ^ (1 << v) in left for f in left if f.bit_count() > 1
               for v in mask_to_indices(f)), cx.facets
    assert _euler(left) == _euler(faces), cx.facets
    if core.n_vertices == 1:
        assert probe["collapsed_to_point"], cx.facets


@settings(max_examples=300, deadline=None)
@given(facet_sets(), st.integers(min_value=1, max_value=300))
def test_profile_f_vector_is_face_count(cx, budget):
    try:
        p = betti(cx, face_budget=budget)
    except BudgetExceeded:
        # the faces the homology needs are a subset of the complex's
        with pytest.raises(BudgetExceeded):
            cx.f_vector(budget)
        return
    try:
        expected = cx.f_vector(budget)
    except BudgetExceeded:
        expected = None
    assert p.f_vector == expected, (cx.facets, budget)
    assert p.betti == _reduced_betti(_collapse(cx.faces()), cx.dim()), (cx.facets, budget)


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_facet_nerve_has_the_homology_of_the_complex(cx):
    """The nerve lemma that ``betti`` falls back on: any set of facets
    meets in a simplex, so the nerve of the facets is homotopy equivalent
    to the complex."""
    assert betti(nerve(list(cx.facets))).reduced() == betti(cx).reduced(), cx.facets


@settings(max_examples=300, deadline=None)
@given(wide_masks())
@example([])
@example([0, 0])
@example([1 << 100, 0, (1 << 100) | 1, 1 << 100, 1])
def test_maximal_faces_match_reference(masks):
    labels = tuple(f"v{i}" for i in range(141))
    assert SimplicialComplex.from_facets(labels, masks) == SimplicialComplex(
        labels, reference_maximal(masks)), masks
    assert nerve(masks) == reference_nerve(masks), masks


@settings(max_examples=300, deadline=None)
@given(facet_sets())
def test_collapse_kernel_matches_reference(cx):
    faces = cx.faces()
    assert set(_collapse(faces)) == reference_collapse(faces), cx.facets
    assert greedy_collapse(cx) == reference_greedy_collapse(faces), cx.facets


@settings(max_examples=300, deadline=None)
@given(wide_facet_sets())
def test_collapse_kernel_matches_reference_on_wide_masks(cx):
    faces = cx.faces()
    assert set(_collapse(faces)) == reference_collapse(faces), cx.facets
    assert greedy_collapse(cx) == reference_greedy_collapse(faces), cx.facets


@settings(max_examples=300, deadline=None)
@given(integer_columns())
def test_integer_rank_matches_fraction_rank(columns):
    assert exact_rank(columns) == reference_rank(columns), columns


# RP^2, whose F2 and rational Betti numbers differ, alone and beside a
# hollow triangle on three more vertices; and two complexes of several
# components, where coreduction restarts at a vertex and adds one to b_0:
# four points, b = (3,), and two disjoint hollow triangles, b = (1, 2)
RP2 = SimplicialComplex.from_facets(tuple(f"v{i}" for i in range(6)), RP2_FACETS)
RP2_AND_CIRCLE = SimplicialComplex.from_facets(
    tuple(f"v{i}" for i in range(9)), RP2_FACETS + (0b011 << 6, 0b110 << 6, 0b101 << 6))
FOUR_POINTS = SimplicialComplex.from_facets(tuple("abcd"), (0b0001, 0b0010, 0b0100, 0b1000))
TWO_CIRCLES = SimplicialComplex.from_facets(
    tuple("abcdef"), (0b011, 0b110, 0b101, 0b011 << 3, 0b110 << 3, 0b101 << 3))


@settings(max_examples=300, deadline=None)
@given(facet_sets())
@example(RP2)
@example(RP2_AND_CIRCLE)
@example(FOUR_POINTS)
@example(TWO_CIRCLES)
def test_reduced_betti_matches_fraction_betti(cx):
    """Coreduction, then exact ranks of what it leaves: the same numbers
    as the ranks over Fraction of every boundary column, on every face
    and on the faces the collapse kernel leaves."""
    faces = cx.faces()
    expected = reference_betti(faces, cx.dim())
    assert _reduced_betti(sorted(faces), cx.dim()) == expected, cx.facets
    assert _reduced_betti(_collapse(faces), cx.dim()) == expected, cx.facets
