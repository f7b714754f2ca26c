"""The coincidence checks: counts, odd rows, even-row scaling, sweeps, deep scan."""

import sys
from fractions import Fraction

import pytest

from friezes import (
    Dissection,
    FirstViolation,
    Frieze,
    FriezeError,
    InternalAssertionError,
    QuadNum,
    Triangulation,
    associated_triangulation,
    associated_triangulation_p4,
    cc_frieze,
    check_even_scaling,
    check_lemma,
    check_odd_rows,
    deep_uniqueness,
    enumerate_p_angulations,
    even_rows_scaled,
    lambda_frieze,
    odd_rows_coincide,
    rotate,
    sweep,
    verify_dissection,
)
from oracle import brute_force_p_angulations


def test_lemma_counts(quad10, hex18):
    assert check_lemma(quad10, 4).ok
    assert check_lemma(Dissection(4), 4).ok
    assert check_lemma(hex18, 6).ok


def test_odd_rows_coincide(quad10):
    result = check_odd_rows(quad10, 4)
    assert result.ok and result.witness is None
    radical = lambda_frieze(quad10, 4)
    integral = cc_frieze(associated_triangulation_p4(quad10))
    assert [e.as_integer() for e in radical.row(3)] == [
        e.as_integer() for e in integral.row(3)
    ] == [3, 3, 1, 5, 11, 3, 1, 3, 7, 3]


def test_odd_rows_fail_on_corrupted_triangulation(quad10):
    # swap the tree chord (1,3) for (2,4): still a valid triangulation,
    # but its integer frieze no longer shares the odd rows
    corrupted = Triangulation(
        10, [(1, 4), (4, 9), (5, 8), (2, 4), (1, 9), (5, 9), (5, 7)]
    )
    radical = lambda_frieze(quad10, 4)
    result = odd_rows_coincide(radical, cc_frieze(corrupted))
    assert not result.ok
    assert result.witness.claim == "odd_rows"
    assert result.witness.row % 2 == 1


def test_odd_rows_compare_values_not_representations():
    def width_one(m, row1, row3):
        """A hand-built width-1 grid over √m; only its odd rows 1 and 3 vary."""
        zero = (QuadNum(m, 0),) * 4
        return Frieze(m, 1, (zero, tuple(row1), (QuadNum(m, 1),) * 4, tuple(row3), zero))

    def over(m, *values):
        return [QuadNum(m, v) for v in values]

    ints = width_one(1, over(1, 1, 2, 3, 4), over(1, 5, 6, 7, 8))
    # rational entries over √2 equal the same integers over m = 1
    assert odd_rows_coincide(width_one(2, over(2, 1, 2, 3, 4), over(2, 5, 6, 7, 8)), ints).ok
    # equal but non-integral entries do not count as agreeing
    halves = width_one(1, over(1, 1, 2, 3, Fraction(1, 2)), over(1, 5, 6, 7, 8))
    result = odd_rows_coincide(halves, halves)
    assert not result.ok and result.witness == FirstViolation("odd_rows", 1, 3)
    # 3√2 against 3 differs in value; the first miss is reported in row-major order
    radical = width_one(2, over(2, 1, 2, 3, 4), over(2, 5, 6) + [QuadNum(2, 0, 3)] * 2)
    three = width_one(1, over(1, 1, 2, 3, 4), over(1, 5, 6, 3, 3))
    for a, b in [(radical, three), (three, radical)]:
        result = odd_rows_coincide(a, b)
        assert not result.ok and result.witness == FirstViolation("odd_rows", 3, 2)


def test_even_scaling(quad10):
    result = check_even_scaling(quad10, 4)
    assert result.ok and result.witness is None
    assert result.epsilons == (0, 0, 0, 0)
    assert result.alternates is False


def test_even_scaling_single_quad():
    result = check_even_scaling(Dissection(4), 4)
    assert result.ok and result.epsilons == (0,)


def test_even_scaling_accepts_the_other_offset():
    # the square's other triangulation scales the even rows with the factor
    # at even columns instead of odd ones; the per-row offset absorbs that
    radical = lambda_frieze(Dissection(4), 4)
    flipped = cc_frieze(Dissection(4, [(0, 2)]))
    result = even_rows_scaled(radical, flipped, 4)
    assert result.ok and result.epsilons == (1,)


def test_even_scaling_rejects_wrong_grid(quad10):
    radical = lambda_frieze(quad10, 4)
    result = even_rows_scaled(radical, radical, 4)
    assert not result.ok
    assert result.witness.claim == "even_scaling"


def test_even_scaling_reads_only_well_shaped_grids(quad10):
    # a given grid is refused unless it has width + 4 rows of width + 3
    # entries for an int width >= 0, so no comparison meets a ragged grid
    # (cut to its first 5 rows, the 10-gon's grid raised IndexError in
    # odd_rows_coincide; cut to 3 columns, it passed both comparisons)
    rows = lambda_frieze(quad10, 4).rows
    zero, one = (QuadNum(2, 0),) * 2, (QuadNum(2, 1),) * 2
    not_ints = "malformed frieze object: width and m must be integers"
    malformed = [
        (2, 7, rows[:5], "expected 11 rows for width 7, got 5"),  # too few rows
        # the shape is checked before the radicands
        (3, 7, rows[:5], "expected 11 rows for width 7, got 5"),
        (2, 7, rows[:4] + (rows[4][:-1],) + rows[5:], "every row must have 10 entries, got 9"),
        (2, 7, rows[:4] + ((),) + rows[5:], "every row must have 10 entries, got 0"),
        (2, 7, [row[:3] for row in rows], "every row must have 10 entries, got 3"),
        # width + 4 rows of width + 3, but width -1
        (2, -1, (zero, one, zero), "width must be nonnegative, got -1"),
        (2, 7.0, rows, not_ints),
        (2, True, [row[:4] for row in rows[:5]], not_ints),  # True + 3 entries in True + 4 rows
    ]
    for m, width, grid, message in malformed:
        with pytest.raises(FriezeError) as raised:
            Frieze(m, width, grid)
        assert str(raised.value) == message

    def width_one(m, row2):
        """A hand-built width-1 grid over √m; only its even row 2 varies."""
        zero, one = (QuadNum(m, 0),) * 4, (QuadNum(m, 1),) * 4
        return Frieze(m, 1, (zero, one, tuple(row2), one, zero))

    # a failing row is witnessed at the smaller of the two offsets' first
    # misses: ε = 0 misses column 1, ε = 1 already column 0
    radical = width_one(2, [QuadNum(2, 0, c) for c in (1, 3, 1, 3)])
    integral = width_one(1, [QuadNum(1, v) for v in (1, 5, 1, 6)])
    result = even_rows_scaled(radical, integral, 4)
    assert not result.ok and result.witness == FirstViolation("even_scaling", 2, 0)


def test_even_scaling_refuses_a_face_size_outside_4_and_6(quad10):
    # p = 5 halved to 2 passed a 4-angulation, and p = 8 scaled by 4: p is
    # refused by the one face-size check, before the widths are compared
    radical = lambda_frieze(quad10, 4)
    integral = cc_frieze(associated_triangulation(quad10, 4))
    narrow = lambda_frieze(Dissection(4), 4)
    for p in (2, 3, 5, 8):
        for other in (integral, narrow):
            with pytest.raises(ValueError) as raised:
                even_rows_scaled(radical, other, p)
            assert str(raised.value) == f"face size p must be 4 or 6, got {p}"
    with pytest.raises(ValueError, match="^friezes must share a width$"):
        even_rows_scaled(radical, narrow, 4)


def test_even_scaling_refuses_a_zero_radical_entry():
    # 0·√2 is no positive multiple of √2, even against an integral 0; nor
    # is −√2, nor 1, which is no multiple of √2 at all
    zero, one = (QuadNum(2, 0),) * 4, (QuadNum(2, 1),) * 4
    integral = Frieze(1, 1, tuple(
        tuple(QuadNum(1, v) for v in row)
        for row in ((0,) * 4, (1,) * 4, (1, 0, 1, 2), (1,) * 4, (0,) * 4)
    ))
    for bad in (QuadNum(2, 0, 0), QuadNum(2, 0, -1), QuadNum(2, 1)):
        row2 = (QuadNum(2, 0, 1), bad, QuadNum(2, 0, 1), QuadNum(2, 0, 1))
        radical = Frieze(2, 1, (zero, one, row2, one, zero))
        result = even_rows_scaled(radical, integral, 4)
        assert not result.ok and result.witness == FirstViolation("even_scaling", 2, 1)
    # an integral entry that is no integer matches nothing: ε = 0 would pass
    # but for it, and ε = 1 misses column 0
    radical = Frieze(2, 1, (zero, one, (QuadNum(2, 0, 1),) * 4, one, zero))
    halved = [list(row) for row in integral.rows]
    halved[2] = [QuadNum(1, v) for v in (1, Fraction(1, 2), 1, 2)]
    result = even_rows_scaled(radical, Frieze(1, 1, tuple(map(tuple, halved))), 4)
    assert not result.ok and result.witness == FirstViolation("even_scaling", 2, 0)


def test_one_even_row_does_not_alternate():
    # the square's frieze has one even row: one offset alternates with nothing
    blob = verify_dissection(Dissection(4), 4).to_json()
    assert blob["epsilons"] == [0] and blob["epsilon_alternates"] is False


def test_checks_read_built_and_parsed_grids_alike(quad10, hex18):
    # built grids keep the kernel's int rows and parsed ones their coefficient
    # pairs: the public checks give the same results on either copy
    for p, d in ((4, quad10), (6, hex18), (4, Dissection(4)), (4, Dissection(6, [(0, 3)]))):
        built = (lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p)))
        parsed = tuple(Frieze.from_json(f.to_json()) for f in built)
        for pair in ((0, 1), (1, 0), (0, 0), (1, 1)):
            results = set()
            for copies in ((built, built), (built, parsed), (parsed, built), (parsed, parsed)):
                a, b = (c[i] for c, i in zip(copies, pair))
                results.add((odd_rows_coincide(a, b), even_rows_scaled(a, b, p)))
            assert len(results) == 1
        radical, integral = built
        assert odd_rows_coincide(radical, integral).ok and even_rows_scaled(radical, integral, p).ok


def test_comparisons_cache_no_pair_grid(quad10, hex18):
    # the public checks read a built grid's rows as they come: neither grid
    # derives and keeps the coefficient pairs that equality and hashing use
    for p, d in ((4, quad10), (6, hex18)):
        radical, integral = lambda_frieze(d, p), cc_frieze(associated_triangulation(d, p))
        assert odd_rows_coincide(radical, integral).ok and even_rows_scaled(radical, integral, p).ok
        assert not even_rows_scaled(integral, radical, p).ok
        assert radical._cells is None and integral._cells is None


def test_comparisons_reject_width_mismatch():
    wide = lambda_frieze(Dissection(6, [(1, 4)]), 4)  # width 3
    narrow = cc_frieze(Dissection(4, [(1, 3)]))  # width 1
    for a, b in [(wide, narrow), (narrow, wide)]:
        with pytest.raises(ValueError, match="friezes must share a width"):
            odd_rows_coincide(a, b)
        with pytest.raises(ValueError, match="friezes must share a width"):
            even_rows_scaled(a, b, 4)


def test_verify_dissection_report(quad10):
    report = verify_dissection(quad10, 4)
    assert report.ok
    assert report.lemma_ok and report.odd_rows_ok and report.even_scaling_ok
    assert report.p == 4 and report.s == 4
    assert report.epsilons == (0, 0, 0, 0)
    assert report.epsilon_alternates is False
    assert report.first_violation is None
    blob = report.to_json()
    assert blob["dissection"] == {"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]}
    assert set(blob["timings_ms"]) == {"build", "checks"}


def test_first_violation_is_taken_in_check_order(monkeypatch, quad10):
    # the lemma's witness comes first, then the odd rows', then the even rows'
    import friezes.verify
    from friezes import quiddity_counts

    # a triangulation of the 10-gon other than the associated one (see
    # test_odd_rows_fail_on_corrupted_triangulation): every check fails on it
    corrupted = Triangulation(10, [(1, 4), (4, 9), (5, 8), (2, 4), (1, 9), (5, 9), (5, 7)])
    q, tc = friezes.verify._counts(quad10, 4)
    radical = friezes.verify._rows(q, 2, True)
    wrong_tc = quiddity_counts(corrupted)
    wrong_rows = friezes.verify._rows(wrong_tc, 1, False)
    # the rows walked are the radical frieze's and the corrupted
    # triangulation's, whichever triangle counts were read
    monkeypatch.setattr(
        friezes.verify, "_rows", lambda counts, m, is_radical: radical if is_radical else wrong_rows
    )
    for counts, claim in ((wrong_tc, "lemma"), (tc, "odd_rows")):
        corrupt_triangle_counts(monkeypatch, {(quad10.n, quad10.diagonals_sorted): counts})
        report = verify_dissection(quad10, 4)
        assert not report.odd_rows_ok and not report.even_scaling_ok
        assert report.lemma_ok is (claim != "lemma")
        assert report.first_violation.claim == claim


def count_calls(monkeypatch, *names):
    """Count calls of polygon functions at every friezes module that binds them."""
    import friezes.polygon

    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(friezes.polygon, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "friezes" and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls


def test_each_dissection_is_checked_and_counted_once(monkeypatch, quad10):
    # one p-angulation test of D and none of the refinement, which is built
    # once, unchecked, from one face pass over D; one quiddity_counts of D
    # and one of the refinement
    names = ("is_p_angulation", "quiddity_counts", "faces")
    calls = count_calls(monkeypatch, *names)
    assert verify_dissection(quad10, 4).ok
    assert calls == dict(zip(names, (1, 2, 1)))
    # the enumerated candidates are triangulations by construction: no
    # candidate is re-checked (was 1,435 checks per query); only D's
    # refinement is built, in one face pass, and the twins are named by
    # their counts (was 2 of each while the mirror was refined too)
    calls.update(dict.fromkeys(names, 0))
    assert deep_uniqueness(quad10, 4).triangulations == 1430
    assert calls["is_p_angulation"] == calls["faces"] == 1
    # both sweeps glue their p-angulations (p = 4, s ≤ 5 has 344
    # dissections, p = 6, s ≤ 3 has 41), so they test none and walk no face
    # (the orbit sweep tested and face-passed each leaf it checked while it
    # read them off the walk); the ears' counts are the lone p-gon's, read
    # once, at import
    for p, s_max, checked in ((4, 5, 344), (6, 3, 41)):
        for orbits in (False, True):
            calls.update(dict.fromkeys(names, 0))
            summary = sweep(p, s_max, orbits=orbits)
            assert summary.checked == checked
            assert calls == dict.fromkeys(names, 0)
    # a failing dissection (the mirror's triangle counts: the lemma fails)
    # grows its rows from the counts already read: still one of each
    mirror = mirror_counts(quad10, 4)
    corrupt_triangle_counts(monkeypatch, {(quad10.n, quad10.diagonals_sorted): mirror})
    calls.update(dict.fromkeys(names, 0))
    report = verify_dissection(quad10, 4)
    assert not report.ok and report.first_violation.claim == "lemma"
    assert calls == dict(zip(names, (1, 2, 1)))


def test_verify_dissection_p6(hex18):
    report = verify_dissection(hex18, 6)
    assert report.ok
    assert report.epsilons == (0,) * 8


def test_verify_dissection_matches_the_public_comparisons():
    # verify_dissection compares the kernel's int rows; the public Frieze
    # comparisons read the wrapped grids back: both give the same report,
    # on the associated triangulation's counts (a pass) and, in a second
    # pass, on the mirror's (every even row at ε = 1, the lemma failing),
    # p = 4 and p = 6 under one patch
    cases = [(d, p, s) for p, s_max in ((4, 5), (6, 3)) for s in range(1, s_max + 1)
             for d in enumerate_p_angulations(s, p)]
    for mirrored in (False, True):
        with pytest.MonkeyPatch.context() as patch:
            if mirrored:
                mirrors = {(d.n, d.diagonals_sorted): mirror_counts(d, p) for d, p, _ in cases}
                corrupt_triangle_counts(patch, mirrors)
            for d, p, s in cases:
                twin = rotate(associated_triangulation(rotate(d, 1), p), d.n - 1)
                radical = lambda_frieze(d, p)
                integral = cc_frieze(twin if mirrored else associated_triangulation(d, p))
                lemma = check_lemma(d, p)
                odd = odd_rows_coincide(radical, integral)
                even = even_rows_scaled(radical, integral, p)
                witnesses = (lemma.witness, odd.witness, even.witness)
                first = next((w for w in witnesses if w is not None), None)
                expected = {
                    "p": p,
                    "s": s,
                    "dissection": d.to_json(),
                    "lemma_ok": lemma.ok,
                    "odd_rows_ok": odd.ok,
                    "even_scaling_ok": even.ok,
                    "epsilons": list(even.epsilons),
                    "epsilon_alternates": even.alternates,
                    "first_violation": None if first is None else first.to_json(),
                }
                blob = verify_dissection(d, p).to_json()
                del blob["timings_ms"]
                assert blob == expected
                assert set(blob["epsilons"]) == {int(mirrored)}
                if mirrored:
                    assert blob["first_violation"]["claim"] == "lemma"


def test_sweep_p4():
    summary = sweep(4, 3)
    assert summary.checked == 16
    assert summary.per_s == {1: 1, 2: 3, 3: 12}
    assert summary.all_ok and not summary.counterexamples
    assert not summary.deep_checked and not summary.deep_failures
    blob = summary.to_json()
    assert blob["per_s"] == {"1": 1, "2": 3, "3": 12}
    assert blob["all_ok"] is True


def test_sweep_p6():
    summary = sweep(6, 2)
    assert summary.checked == 6
    assert summary.per_s == {1: 1, 2: 5}
    assert summary.all_ok


def test_sweep_rejects_bad_bound(monkeypatch):
    with pytest.raises(ValueError):
        sweep(4, 0)
    for s_max in (2.0, True):  # 2.0 == 2 and True == 1, but neither is a count
        with pytest.raises(ValueError) as raised:
            sweep(4, s_max)
        assert str(raised.value) == f"face count bound must be an integer, got {s_max}"
    # the ear tree holds a node per depth: a polygon whose friezes the kernel
    # refuses is refused before anything is glued (the walk would have run
    # for ever on the levels below it)
    from friezes.ears import _ear_batches

    for p, s_max in ((4, 500), (6, 250)):
        for run in (lambda: next(_ear_batches(p, s_max)), lambda: sweep(p, s_max)):
            with pytest.raises(ValueError, match="^the 1002-gon is too large for a frieze grid$"):
                run()
    # the orbit sweep passes the same door, before its ear tree starts
    import friezes.ears

    def no_tree(p, s_max):
        raise AssertionError("the orbit sweep started its ear tree")

    monkeypatch.setattr(friezes.ears, "_ear_batches", no_tree)
    for p, s_max in ((4, 500), (6, 250)):
        with pytest.raises(ValueError, match="^the 1002-gon is too large for a frieze grid$"):
            sweep(p, s_max, orbits=True)


def corrupt_triangle_counts(monkeypatch, wrong):
    """Patch `verify._counts` to give the triangle counts wrong[n, diagonals]
    for the n-gon's dissection with those sorted diagonals, and the true
    counts otherwise; and corrupt those dissections for both sweeps, which
    read no triangle counts of a whole dissection, by `corrupt_ears`."""
    import friezes.verify
    from friezes import quiddity_counts

    counts = friezes.verify._counts

    def corrupted(d, p):
        q, tc = counts(d, p)
        return q, tuple(wrong.get((d.n, d.diagonals_sorted), tc))

    monkeypatch.setattr(friezes.verify, "_counts", corrupted)
    leaves = {quiddity_counts(Dissection(n, diagonals)) for n, diagonals in wrong}
    corrupt_ears(monkeypatch, leaves, lambda run, a: bump(run, 1, a))


def ear_children(p, counts, first, last):
    """(a, face counts) of the children a = first..last of the ear tree's node
    with these counts."""
    from friezes.polygon import _glued

    return [(a, tuple(_glued(counts[0], a, [1] * p))) for a in range(first, last + 1)]


def ear_run(p, batch):
    """The arguments of `_ears_pass` that compute and check a whole batch of
    `_ear_batches`: (p, 0, last, counts, rows)."""
    s, last, counts, rows, _ = batch
    return p, 0, last, counts, tuple(rows)


def corrupt_ears(monkeypatch, leaves, corrupt):
    """Patch the sweeps' ear checks, `ears._ears_pass`, which the ear tree
    calls for the batches it glues from and its level tally,
    `ears._ear_levels`, for the rest: a run of children (p, first, last,
    counts, rows) with a child a whose face counts are in leaves is computed
    and checked as corrupt(run, a), a changed copy, for each such child, so
    the fault is in the entries that call computes and checks.  The news
    returned, from which the tree glues the children, are the true run's."""
    import friezes.ears

    ears_pass = friezes.ears._ears_pass

    def corrupted(p, first, last, counts, rows):
        news, _ = ears_pass(p, first, last, counts, rows)
        run = p, first, last, counts, rows
        for a, q in ear_children(p, counts, first, last):
            if q in leaves:
                run = corrupt(run, a)
        return news, ears_pass(*run)[1]

    monkeypatch.setattr(friezes.ears, "_ears_pass", corrupted)


def bump(run, family, a, by=1):
    """A copy of a run of ear checks, `_ears_pass`'s arguments (p, first,
    last, counts, rows), with the node's side (a, a + 1), entry 1 in both
    families, moved by `by` in the given family (0 radical, 1 integral).
    Each entry child a computes between a new corner and b, the old a + 1,
    is ℓ_{p−1−t} times that side, so it moves in that family alone; in a
    run that holds child a − 1, so does its entry between a new corner and
    vertex a + 1."""
    p, first, last, counts, rows = run
    rows = [list(flat) for flat in rows]
    rows[family][a * len(counts[0]) + a + 1] += by
    return p, first, last, counts, tuple(rows)


def zeroed(run, a):
    """A copy of a run of ear checks with the node's side (a, a + 1) 0 in both
    families: child a's entries between its new corners and b are 0 in
    both, still equal, but not positive.  In a run of child a alone no
    other entry moves, so only the positivity test can see it."""
    return bump(bump(run, 0, a, -1), 1, a, -1)


def mirror_counts(d, p):
    """The triangle counts of D's white-corner refinement, its mirror twin."""
    from friezes import quiddity_counts

    return quiddity_counts(rotate(associated_triangulation(rotate(d, 1), p), d.n - 1))


def test_sweep_re_runs_only_failing_levels(monkeypatch):
    # two of the 273 dissections of s = 5, the top level, the second an
    # orbit representative, give the mirror's triangle counts alone (the
    # lemma fails, every row passes, the even rows at ε = 1), and one wrong
    # new entry each in the sweeps' ear checks: the exhaustive sweep's
    # batches of their parents, the orbit sweep's check of the
    # representative alone; each sweep re-runs level 5 once, whole and in
    # enumeration order, and no other level, and reports each as
    # verify_dissection does under the same patch
    import friezes.verify

    called = []
    original = friezes.verify.verify_dissection

    def counted(d, p):
        called.append(d)
        return original(d, p)

    monkeypatch.setattr(friezes.verify, "verify_dissection", counted)
    for orbits in (False, True):
        assert sweep(4, 5, orbits=orbits).all_ok
    assert called == []  # a passing sweep re-runs no dissection alone
    level = list(enumerate_p_angulations(5, 4))
    chosen = [level[100], level[270]]
    mirrors = {(d.n, d.diagonals_sorted): mirror_counts(d, 4) for d in chosen}
    corrupt_triangle_counts(monkeypatch, mirrors)
    expected = []
    for d in chosen:
        blob = original(d, 4).to_json()
        del blob["timings_ms"]
        assert blob["first_violation"]["claim"] == "lemma" and set(blob["epsilons"]) == {1}
        expected.append(blob)
    for orbits in (False, True):
        called.clear()
        summary = sweep(4, 5, orbits=orbits)
        assert called == level
        got = [report.to_json() for report in summary.counterexamples]
        for blob in got:
            del blob["timings_ms"]
        assert got == expected
        assert summary.checked == 344 and not summary.all_ok


def test_every_level_above_a_failing_one_is_re_run(monkeypatch):
    # the descendants of a failing child hold the entries that failed, and
    # their own batches do not check them again: every level above a failing
    # one is re-run, though its own batches pass.  A leaf of level 5 whose
    # counts are wrong only for verify_dissection stands for such a
    # descendant: reported when level 4 fails, not otherwise
    import friezes.verify

    child = list(enumerate_p_angulations(4, 4))[30]
    descendant = list(enumerate_p_angulations(5, 4))[100]
    counts = friezes.verify._counts

    def wrong_alone(d, p):
        q, tc = counts(d, p)
        return q, tuple(mirror_counts(descendant, p)) if (d.n, d.diagonals_sorted) == (
            descendant.n, descendant.diagonals_sorted) else tc

    monkeypatch.setattr(friezes.verify, "_counts", wrong_alone)
    assert sweep(4, 5).all_ok
    corrupt_triangle_counts(monkeypatch, {(child.n, child.diagonals_sorted): mirror_counts(child, 4)})
    summary = sweep(4, 5)
    assert [r.dissection for r in summary.counterexamples] == [child, descendant]
    assert [r.first_violation.claim for r in summary.counterexamples] == ["lemma", "lemma"]


def test_a_marked_level_whose_dissections_pass_alone_is_an_internal_fault(monkeypatch, capsys):
    # a check that fails while each of its dissections passes alone is a
    # fault of the ear checks, `_ears_pass`: the sweep raises, in both modes,
    # and the CLI exits 3.  Every run but the lone p-gon's fails level 2 in
    # both sweeps; every check of one representative alone fails only the
    # orbit sweep's top level
    import friezes.ears
    from friezes.cli import main

    ears_pass = friezes.ears._ears_pass

    def fails_runs(p, first, last, counts, rows):  # the lone p-gon is the 2-gon's only child
        news, passed = ears_pass(p, first, last, counts, rows)
        return news, last == 0 and passed

    def fails_representatives(p, first, last, counts, rows):
        news, passed = ears_pass(p, first, last, counts, rows)
        return news, not 0 < first == last and passed

    monkeypatch.setattr(friezes.ears, "_ears_pass", fails_runs)
    for orbits in (False, True):
        with pytest.raises(InternalAssertionError, match="with 2 faces failed, but each passes"):
            sweep(4, 5, orbits=orbits)
    assert main(["verify", "--p", "4", "--max-s", "5"]) == 3
    assert "a batch of 4-angulations with 2 faces failed" in capsys.readouterr().err
    monkeypatch.setattr(friezes.ears, "_ears_pass", fails_representatives)
    assert sweep(4, 5).all_ok
    with pytest.raises(InternalAssertionError, match="with 5 faces failed, but each passes alone"):
        sweep(4, 5, orbits=True)


def test_sweep_builds_each_level_at_most_once(monkeypatch):
    # a level's Dissections are built in one enumeration pass, and only when
    # the level is marked or deep: the re-run and the deep scan share it
    import friezes.verify

    built = []
    enumerate_of = friezes.verify.enumerate_p_angulations

    def recorded(s, p):
        built.append(s)
        return enumerate_of(s, p)

    monkeypatch.setattr(friezes.verify, "enumerate_p_angulations", recorded)
    for orbits in (False, True):
        assert sweep(4, 5, orbits=orbits).all_ok
        assert sweep(6, 3, orbits=orbits).all_ok
        assert built == []
        summary = sweep(4, 3, deep=True, orbits=orbits)
        assert built == [1, 2, 3] and len(summary.deep_failures) == 16
        built.clear()
    # a level that is both marked and deep: still one pass, which reports
    # the counterexample and flags every dissection
    d = list(enumerate_p_angulations(3, 4))[5]
    corrupt_triangle_counts(monkeypatch, {(d.n, d.diagonals_sorted): mirror_counts(d, 4)})
    summary = sweep(4, 3, deep=True)
    assert built == [1, 2, 3]
    assert [r.dissection for r in summary.counterexamples] == [d]
    assert summary.deep_failures == tuple(e for s in (1, 2, 3) for e in enumerate_of(s, 4))
    built.clear()
    assert not sweep(4, 3).all_ok and built == [3]  # marked, not deep: only that level


def test_sweep_raises_what_a_failing_kernel_raises_alone(monkeypatch):
    # triangle counts that are no quiddity make the kernel raise for the
    # dissection alone (the sweep sees a wrong entry of it); the level is
    # re-run one dissection at a time, and the sweep raises the
    # InternalAssertionError that dissection raises alone
    from friezes.verify import _counts

    d = list(enumerate_p_angulations(4, 4))[30]
    tc = _counts(d, 4)[1]
    corrupt_triangle_counts(monkeypatch, {(d.n, d.diagonals_sorted): (tc[0] + 1,) + tc[1:]})
    with pytest.raises(InternalAssertionError) as alone:
        verify_dissection(d, 4)
    assert "frieze construction failed" in str(alone.value)
    with pytest.raises(InternalAssertionError) as swept:
        sweep(4, 4)
    assert str(swept.value) == str(alone.value)


@pytest.mark.parametrize("short_s", [1, 3, 5])
def test_sweep_checks_the_count_of_each_level(monkeypatch, capsys, short_s):
    # an enumeration one dissection short is an internal fault, whichever
    # batch the missing one would have fallen in: the ear batches of either
    # sweep one child short (at s = 1 the 2-gon's one child, the lone
    # p-gon, is dropped; the top level of an orbit sweep counts the children
    # it does not check): exit 3 from the CLI
    import friezes.ears
    from friezes.cli import main

    batches_of = friezes.ears._ear_batches

    def one_child_short(p, s_max):
        short = False
        for s, last, *rest in batches_of(p, s_max):
            if s == short_s and not short:
                short, last = True, last - 1
            yield (s, last, *rest)

    monkeypatch.setattr(friezes.ears, "_ear_batches", one_child_short)
    expected = {1: 1, 3: 12, 5: 273}[short_s]
    message = f"enumerated {expected - 1} 4-angulations with {short_s} faces, expected {expected}"
    for orbits in (False, True):
        with pytest.raises(InternalAssertionError, match=message):
            sweep(4, 5, orbits=orbits)
    assert main(["verify", "--p", "4", "--max-s", str(short_s)]) == 3
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# counts read off the walk's leaves and their faces; the even-rotation orbit sweep


def leaves(p, s_max):
    """Every leaf of the walk with s ≤ s_max, as a validated Dissection."""
    from friezes.polygon import _p_angulation_walk

    for s in range(1, s_max + 1):
        n, walk = _p_angulation_walk(s, p)
        for diagonals in walk:
            yield Dissection(n, diagonals)


def even_orbit(d):
    """D's orbit under the even rotations, named by its least sorted diagonals."""
    return min(rotate(d, c).diagonals_sorted for c in range(0, d.n, 2))


def test_leaf_counts_equal_the_refinements_counts():
    # `_counts` of a leaf's Dissection are the face counts of D and the
    # triangle counts of the associated triangulation, built and validated
    # here
    from friezes import quiddity_counts
    from friezes.verify import _counts

    for p, s_max in ((4, 6), (6, 4)):
        for d in leaves(p, s_max):
            expected = (
                quiddity_counts(d),
                quiddity_counts(Triangulation(d.n, associated_triangulation(d, p).diagonals)),
            )
            assert _counts(d, p) == expected


def test_counts_refuse_what_the_refinement_refused():
    # the same error class and message as when the counts came from building
    # the associated triangulation: p first, then the p-angulation test
    from friezes import NoncrossingTree, NotPAngulationError

    refused = [
        (Dissection(10, [(1, 4)]), 4, NotPAngulationError,
         "Dissection(n=10, diagonals=[(1, 4)]) is not a 4-angulation"),
        (Triangulation(6, [(0, 2), (2, 4), (0, 4)]), 6, NotPAngulationError,
         "Triangulation(n=6, diagonals=[(0, 2), (0, 4), (2, 4)]) is not a 6-angulation"),
        (NoncrossingTree(8, [(1, 3), (3, 5), (5, 7)]), 4, NotPAngulationError,
         "NoncrossingTree(host_n=8, edges=[(1, 3), (3, 5), (5, 7)]) is not a 4-angulation"),
        (Dissection(10, [(1, 4)]), 5, ValueError, "face size p must be 4 or 6, got 5"),
        (Dissection(9), 3, ValueError, "face size p must be 4 or 6, got 3"),
        (Dissection(10, [(1, 4)]), 4.0, ValueError, "face size p must be 4 or 6, got 4.0"),
        (Dissection(4), True, ValueError, "face size p must be 4 or 6, got True"),
    ]
    for d, p, error, message in refused:
        for check in (verify_dissection, check_lemma, associated_triangulation):
            with pytest.raises(error) as raised:
                check(d, p)
            assert type(raised.value) is error and str(raised.value) == message
    for p, message in ((2, "face size must be at least 3, got 2"),
                       (3, "face size p must be 4 or 6, got 3"),
                       (5, "face size p must be 4 or 6, got 5"),
                       (4.0, "face count and face size must be integers, got s=1, p=4.0")):
        for orbits in (False, True):
            with pytest.raises(ValueError) as raised:
                sweep(p, 2, orbits=orbits)
            assert str(raised.value) == message


def test_sweep_raises_what_a_leaf_that_is_no_p_angulation_raises(monkeypatch):
    # verify_dissection raises its error for a dissection that fails the
    # p-angulation test, naming it.  Both sweeps glue p-angulations, each one
    # by construction, and test none: with the test refusing everything they
    # still pass, and the p-angulations they glue are the walk's, each a
    # p-angulation (a p-angulation is fixed by its counts)
    import friezes.bijection
    from friezes import NotPAngulationError, is_p_angulation, quiddity_counts
    from friezes.polygon import _p_angulation_walk
    from friezes.ears import _ear_batches

    monkeypatch.setattr(friezes.bijection, "is_p_angulation", lambda dissection, p: False)
    with pytest.raises(NotPAngulationError) as alone:
        verify_dissection(Dissection(4), 4)
    assert str(alone.value) == "Dissection(n=4, diagonals=[]) is not a 4-angulation"
    for orbits in (False, True):
        summary = sweep(4, 2, orbits=orbits)
        assert summary.all_ok and summary.per_s == {1: 1, 2: 3}
    monkeypatch.undo()
    for p, s_max in ((4, 3), (6, 2)):
        walked = {}
        for s in range(1, s_max + 1):
            n, walk = _p_angulation_walk(s, p)
            for diagonals in walk:
                d = Dissection(n, diagonals)
                walked[quiddity_counts(d)] = d
        glued = [q for s, last, counts, _, _ in _ear_batches(p, s_max)
                 for _, q in ear_children(p, counts, 0, last)]
        assert sorted(glued) == sorted(walked)
        assert all(is_p_angulation(walked[q], p) for q in glued)


def test_faces_and_counts_commute_with_even_rotations():
    # rotating D by an even c keeps every vertex's color, so its faces, its
    # face counts and its refinement's triangle counts all move by c ((C) in
    # the verify docstring); an odd c swaps the colors and gives the mirror's
    from friezes import faces, quiddity_counts
    from friezes.verify import _counts

    for d in leaves(4, 6):
        n = d.n
        q, tc = _counts(d, 4)
        shapes = faces(d)
        for c in range(n):
            turned = rotate(d, c)
            shift = lambda seq: tuple(seq[(v - c) % n] for v in range(n))
            if c % 2:
                if c == 1:
                    assert _counts(turned, 4)[1] == shift(mirror_counts(d, 4))
                continue
            assert faces(turned) == sorted(tuple(sorted((v + c) % n for v in f)) for f in shapes)
            assert quiddity_counts(turned) == shift(q)
            assert _counts(turned, 4) == (shift(q), shift(tc))


def test_least_rotation_picks_one_leaf_per_orbit():
    # a p-angulation is fixed by its face counts, so exactly one leaf of
    # each even-rotation orbit has counts least among their even rotations
    from friezes import quiddity_counts
    from friezes.ears import _least_rotation

    for p, s_max in ((4, 6), (6, 4)):
        for s in range(1, s_max + 1):
            level = list(enumerate_p_angulations(s, p))
            chosen = [d for d in level if _least_rotation(list(quiddity_counts(d)))]
            assert len(chosen) == len({even_orbit(d) for d in level})
            assert {even_orbit(d) for d in chosen} == {even_orbit(d) for d in level}


def test_least_rotation_against_every_rotation():
    # every vector of 1..3 of a short even length, and the face counts of
    # every p-angulation the sweeps test for it (p = 4, s ≤ 7; p = 6, s ≤ 5)
    from itertools import product

    from friezes import quiddity_counts
    from friezes.polygon import _p_angulation_walk
    from friezes.ears import _least_rotation

    vectors = [list(c) for n in (2, 4, 6) for c in product(range(1, 4), repeat=n)]
    for p, s_max in ((4, 7), (6, 5)):
        for s in range(1, s_max + 1):
            n, walk = _p_angulation_walk(s, p)
            vectors += [list(quiddity_counts(Dissection(n, diags))) for diags in walk]
    assert len(vectors) == 819 + 9524 + 2856
    for counts in vectors:
        n = len(counts)
        least = all(counts <= counts[k:] + counts[:k] for k in range(0, n, 2))
        assert _least_rotation(counts) is least, counts


@pytest.mark.parametrize(
    "p, s_max, deep", [(4, 7, False), (6, 4, False), (4, 3, True), (6, 2, True)]
)
def test_orbit_sweep_summary_is_the_exhaustive_one(p, s_max, deep):
    exhaustive = sweep(p, s_max, deep=deep)
    orbits = sweep(p, s_max, deep=deep, orbits=True)
    assert exhaustive.orbits_checked is None
    assert 0 < orbits.orbits_checked < orbits.checked or orbits.checked == 1
    # one leaf checked per orbit, the orbits counted independently
    distinct = sum(
        len({even_orbit(d) for d in enumerate_p_angulations(s, p)}) for s in range(1, s_max + 1)
    )
    assert orbits.orbits_checked == distinct
    blob = orbits.to_json()
    assert list(blob).index("orbits_checked") == list(blob).index("checked") + 1
    del blob["orbits_checked"]
    assert blob == exhaustive.to_json() and "orbits_checked" not in exhaustive.to_json()


def test_corrupted_representative_gives_the_exhaustive_counterexamples(monkeypatch):
    # an orbit sweep checks every level below the top whole: a corrupted
    # representative there fails its batch, and the whole level is re-run
    # one dissection at a time, so a corrupted leaf it would not check on
    # the top level is reported too, in enumeration order
    from friezes import quiddity_counts
    from friezes.ears import _least_rotation
    from friezes.verify import _counts

    level = list(enumerate_p_angulations(5, 4))
    represents = [_least_rotation(list(quiddity_counts(d))) for d in level]
    chosen = [level[represents.index(False, 3)], level[represents.index(True, 150)]]
    chosen.append(level[represents.index(False, 200)])
    tc = list(_counts(chosen[1], 4)[1])
    mirrors = {(d.n, d.diagonals_sorted): mirror_counts(d, 4) for d in chosen}
    corrupt_triangle_counts(monkeypatch, mirrors)

    def blobs(summary):
        got = [report.to_json() for report in summary.counterexamples]
        for blob in got:
            del blob["timings_ms"]
        return got

    # in the ear tree a failing child marks its level, and level 6, which
    # holds its descendants ((E1)), inherits the mark: re-run, it passes,
    # as only the chosen leaves are corrupted, and that is no fault
    exhaustive = sweep(4, 6)
    orbits = sweep(4, 6, orbits=True)
    assert [r.dissection for r in exhaustive.counterexamples] == chosen
    assert blobs(orbits) == blobs(exhaustive)
    assert orbits.per_s == exhaustive.per_s and not orbits.all_ok
    # a kernel that raises on a representative raises what it raises alone
    tc[0] += 1
    corrupt_triangle_counts(monkeypatch, {(chosen[1].n, chosen[1].diagonals_sorted): tc})
    with pytest.raises(InternalAssertionError) as swept:
        sweep(4, 5)
    with pytest.raises(InternalAssertionError) as orbit_swept:
        sweep(4, 5, orbits=True)
    assert "frieze construction failed" in str(swept.value)
    assert str(orbit_swept.value) == str(swept.value)


def test_orbit_sweep_checks_every_level_below_the_top_whole(monkeypatch):
    # an orbit sweep checks every p-angulation of the levels below s_max, so
    # a corrupted one that represents no orbit is reported there (the orbit
    # sweep fed by the walk checked only representatives, on every level,
    # and missed it); on the top level it is left unchecked
    from friezes import quiddity_counts

    level = list(enumerate_p_angulations(5, 4))
    d = next(d for d in level[100:] if quiddity_counts(d)[0] >= 2)  # vertex 0 in two faces
    corrupt_triangle_counts(monkeypatch, {(d.n, d.diagonals_sorted): mirror_counts(d, 4)})
    for s_max in (5, 6):
        exhaustive = sweep(4, s_max)
        orbits = sweep(4, s_max, orbits=True)
        assert [r.dissection for r in exhaustive.counterexamples] == [d]
        reported = [r.to_json() for r in orbits.counterexamples]
        expected = [r.to_json() for r in exhaustive.counterexamples] if s_max == 6 else []
        for blob in reported + expected:
            del blob["timings_ms"]
        assert reported == expected, s_max


def test_orbit_top_level_checks_exactly_the_representatives(monkeypatch):
    # below s_max an orbit sweep checks whole batches; on the top level it
    # checks one child at a time, exactly the walk's leaves of that level
    # whose counts are least among their even rotations, one per orbit
    import friezes.ears
    from friezes import fuss_catalan, quiddity_counts
    from friezes.ears import _least_rotation
    from friezes.polygon import _p_angulation_walk

    ears_pass = friezes.ears._ears_pass
    runs = []

    def recorded(p, first, last, counts, rows):
        runs.append((first, last, [q for _, q in ear_children(p, counts, first, last)]))
        return ears_pass(p, first, last, counts, rows)

    monkeypatch.setattr(friezes.ears, "_ears_pass", recorded)
    for p, s_max in ((4, 1), (4, 2), (4, 6), (6, 1), (6, 4)):
        runs.clear()
        assert sweep(p, s_max, orbits=True).all_ok
        n = (p - 2) * s_max + 2
        top = [(first, last, children) for first, last, children in runs if len(children[0]) == n]
        below = [(first, last) for first, last, children in runs if len(children[0]) < n]
        assert all(first == last for first, last, _ in top)
        assert all(first == 0 for first, _ in below)
        # one whole batch per node below the top: the 2-gon, each p-angulation of s ≤ s_max − 2
        assert len(below) == (s_max > 1) + sum(fuss_catalan(s, p) for s in range(1, s_max - 1))
        n, walk = _p_angulation_walk(s_max, p)
        walked = [q for q in (quiddity_counts(Dissection(n, diags)) for diags in walk)
                  if _least_rotation(list(q))]
        assert sorted(q for _, _, children in top for q in children) == sorted(walked), (p, s_max)


def test_a_run_of_children_computes_the_batchs_entries():
    # the news `_ears_pass` computes for a run of one child, or of two, are
    # that slice of the whole batch's news, a run from child first reading
    # the coefficients from child first's place in the tables, and each run
    # passes: one call computes and checks the whole batch, inner or
    # leaf-level, and the orbit sweep's single representatives (7,088 and
    # 2,608 single-child lists compared)
    from friezes.ears import _ear_batches, _ears_pass

    for p, s_max, lists in ((4, 6, 7088), (6, 4, 2608)):
        compared = 0
        for s, last, counts, rows, checked in _ear_batches(p, s_max):
            n, rows = len(counts[0]), tuple(rows)
            packed, passed = _ears_pass(p, 0, last, counts, rows)
            assert passed and checked in (None, (packed, True))
            whole = unpacked_news(p, n, 0, last, packed)
            for first in range(last + 1):
                for end in range(first, min(first + 2, last + 1)):  # runs of one and of two
                    run, passed = _ears_pass(p, first, end, counts, rows)
                    run = unpacked_news(p, n, first, end, run)
                    for family_run, family_whole in zip(run, whole):
                        for got, want in zip(family_run, family_whole):
                            assert got == want[first * n : (end + 1) * n], (p, s, first, end)
                            compared += first == end
                    assert passed, (p, s, first, end)
        assert compared == lists


def unpacked_news(p, n, first, last, news):
    """The news `_ears_pass` returns for the children a = first..last of an
    n-gon node, one int of lanes per family, as lists: per family and inner
    corner t = 1..p − 2, child a's entry with the old vertex j at
    (a − first)·n + j."""
    from friezes.ears import _lanes_wide, _unpacked

    lanes, width = (last + 1 - first) * n, _lanes_wide(p, n + p - 2)
    unpacked = [list(_unpacked(new, (p - 2) * lanes, width)) for new in news]
    return [[family[i : i + lanes] for i in range(0, len(family), lanes)] for family in unpacked]


def e2_news(p, n, rows, first, last):
    """The news of the children a = first..last of a node with these rows,
    worked out entry by entry by (E2): e(x, j) = e(a, x)·e(b, j) + e(x, b)·e(a, j)
    for x = a + t, b the old a + 1, with the ear's entries e(a, x), e(x, b)
    from the face of a's colour, and m where two surds of the radical
    family meet (an even distance)."""
    from friezes.ears import _FACES

    m = {4: 2, 6: 3}[p]
    news = []
    for f, flat in enumerate(rows):
        news.append([])
        for t in range(1, p - 1):
            entries = []
            for a in range(first, last + 1):
                face = _FACES[p][a & 1][f][0]
                for j in range(n):
                    b_surds = f == 0 and t % 2 == 0 == (a + 1 - j) % 2
                    a_surds = f == 0 and (p - 1 - t) % 2 == 0 == (a - j) % 2
                    entries.append(face[0][t] * flat[(a + 1) * n + j] * (m if b_surds else 1)
                                   + face[t][p - 1] * flat[a * n + j] * (m if a_surds else 1))
            news[f].append(entries)
    return news


@pytest.mark.parametrize("p, s_max", [(4, 6), (6, 4)])
def test_ear_tables_grow_for_longer_runs(monkeypatch, p, s_max):
    # a node's news from a fresh memo: a short run, then a longer one, then
    # one from an odd child past both, each laid out on first use (one
    # table per run in the node's size); each is its slice of the news
    # built with the longest run alone, and (E2) entry by entry
    import friezes.ears
    from friezes.ears import _ear_batches, _ears_pass

    s, last, counts, rows, _ = next(b for b in _ear_batches(p, s_max) if b[1] >= 5)
    n, rows = len(counts[0]), tuple(rows)
    monkeypatch.setattr(friezes.ears, "_EARS", {})
    runs, got, tables = [(0, 1), (0, last - 2), (3, last)], [], []
    for first, end in runs:
        got.append(unpacked_news(p, n, first, end, _ears_pass(p, first, end, counts, rows)[0]))
        tables.append(friezes.ears._EARS[n, p][first, end])
    assert len(set(map(id, tables))) == 3 and len(friezes.ears._EARS[n, p]) == 3  # one per run
    monkeypatch.setattr(friezes.ears, "_EARS", {})
    whole = unpacked_news(p, n, 0, last, _ears_pass(p, 0, last, counts, rows)[0])
    assert whole == e2_news(p, n, rows, 0, last)
    for (first, end), run in zip(runs, got):
        want = [[new[first * n : (end + 1) * n] for new in family] for family in whole]
        assert run == want == e2_news(p, n, rows, first, end), (first, end)


def test_even_row_offsets_are_pinned():
    # odd-length continuants scale by λ^(±1), so every even-row offset ε_j
    # is 0 for the associated triangulation and 1 for its mirror (the
    # associated triangulation of D turned by one vertex, turned back)
    cases = [(d, 4) for s in range(1, 6) for d in enumerate_p_angulations(s, 4)]
    cases += [(d, 6) for s in range(1, 4) for d in enumerate_p_angulations(s, 6)]
    assert len(cases) == 385
    for d, p in cases:
        report = verify_dissection(d, p)
        assert report.ok and set(report.epsilons) == {0}
        mirror = rotate(associated_triangulation(rotate(d, 1), p), d.n - 1)
        flipped = even_rows_scaled(lambda_frieze(d, p), cc_frieze(mirror), p)
        assert flipped.ok and set(flipped.epsilons) == {1}


# ---------------------------------------------------------------------------
# the exhaustive sweep's ear tree: (E) in the verify docstring


def glued_levels(p, s_max):
    """Per level s: the sorted face counts of the children the ear batches glue."""
    from friezes.ears import _ear_batches

    levels = {s: [] for s in range(1, s_max + 1)}
    for s, last, counts, _, _ in _ear_batches(p, s_max):
        levels[s] += [q for _, q in ear_children(p, counts, 0, last)]
    return {s: sorted(qs) for s, qs in levels.items()}


def test_ear_tree_glues_each_of_the_walks_p_angulations_once():
    # per level, the glued count vectors are those of the walk's leaves,
    # Fuss–Catalan many and none twice; a p-angulation is fixed by its
    # counts, so the tree holds each p-angulation exactly once (a canonical
    # bound one too high glues some twice); the tree carries both friezes,
    # so it glues only the face sizes they are built for
    from friezes import fuss_catalan, quiddity_counts
    from friezes.ears import _ear_batches
    from friezes.polygon import _p_angulation_walk

    with pytest.raises(ValueError, match="^face size p must be 4 or 6, got 3$"):
        next(_ear_batches(3, 8))
    for p, s_max in ((4, 7), (6, 5)):
        glued = glued_levels(p, s_max)
        for s in range(1, s_max + 1):
            n, walk = _p_angulation_walk(s, p)
            walked = sorted(quiddity_counts(Dissection(n, diags)) for diags in walk)
            assert glued[s] == walked, (p, s)
            assert len(set(walked)) == len(walked) == fuss_catalan(s, p)


def pair_entry(rows, i, j):
    """The entry between vertices i and j of an n-gon's frieze rows: e(r, k)
    joins vertices k − 1 and k − 1 + r."""
    n = len(rows) - 1
    return rows[(j - i) % n][(i + 1) % n]


def test_ear_rows_and_new_entries_are_the_kernels():
    # both families: each node's rows 0..last + 1 (the rows its children
    # read) and each child's new entries, between its new corner a + t and
    # every old vertex, equal the entries of `_grow`'s rows grown from the
    # p-angulation's own counts, and the node's counts are its `_counts`; a
    # node whose children are leaves carries its rows unglued and no news,
    # which `_ears_pass` computes from the rows
    from friezes import quiddity_counts
    from friezes.ears import _ear_batches, _ears_pass
    from friezes.polygon import _glued, _p_angulation_walk
    from friezes.verify import _counts, _rows

    for p, s_max in ((4, 6), (6, 4)):
        m, k = {4: 2, 6: 3}[p], p - 2
        walked = {}
        for s in range(1, s_max + 1):
            n, walk = _p_angulation_walk(s, p)
            for diagonals in walk:
                d = Dissection(n, diagonals)
                walked[quiddity_counts(d)] = d

        def grids(q):
            q, tc = _counts(walked[tuple(q)], p)
            return (q, tc), (_rows(q, m, True), _rows(tc, 1, False))

        nodes = children = 0
        for s, last, counts, rows, checked in _ear_batches(p, s_max):
            n = len(counts[0])
            assert (checked is None) is (s == s_max)
            rows = tuple(rows)
            news = unpacked_news(p, n, 0, last, (checked or _ears_pass(p, 0, last, counts, rows))[0])
            if s > 1:  # past the 2-gon
                nodes += 1
                node_counts, node_grids = grids(counts[0])
                assert tuple(map(tuple, counts)) == node_counts
                for flat, grid in zip(rows, node_grids):
                    assert flat == [pair_entry(grid, u, j) for u in range(last + 2) for j in range(n)]
            for a in range(last + 1):
                children += 1
                _, child_grids = grids(_glued(counts[0], a, [1] * p))
                for new, grid in zip(news, child_grids):
                    for t in range(1, k + 1):
                        expected = [pair_entry(grid, a + t, j if j <= a else j + k) for j in range(n)]
                        assert new[t - 1][a * n : a * n + n] == expected, (p, s, a, t)
        assert (nodes, children) == {4: (344, 1772), 6: (41, 326)}[p]


def test_ear_faces_are_the_unit_p_gon_and_its_refinement():
    # ℓ_t = sin(tπ/p)/sin(π/p) between corners t apart: 1, √2, 1 for p = 4
    # and 1, √3, 2, √3, 1 for p = 6, in C values (C·√m read as C); the
    # integral face is the Conway–Coxeter frieze of the face cut along its
    # own black corners, whichever colour its first corner has
    from friezes.ears import _FACES

    pinned = {
        4: ([0, 1, 1, 1], [[0, 1, 2, 1], [0, 1, 1, 1]], [[1, 2, 1, 2], [2, 1, 2, 1]]),
        6: ([0, 1, 1, 2, 1, 1], [[0, 1, 3, 2, 3, 1], [0, 1, 1, 2, 1, 1]],
            [[1, 3, 1, 3, 1, 3], [3, 1, 3, 1, 3, 1]]),
    }
    for p, (ell, integral, counts) in pinned.items():
        faces = _FACES[p]
        assert [radical for (radical, _), _ in faces] == [radical for (radical, _), _ in faces[:1]] * 2
        assert [radical[0] for (radical, _), _ in faces] == [ell, ell]
        assert [ones for (_, ones), _ in faces] == [[1] * p] * 2
        assert [face[0] for _, (face, _) in faces] == integral
        assert [face_counts for _, (_, face_counts) in faces] == counts
        for family in faces:  # symmetric, zero on the diagonal
            for face, _ in family:
                assert all(face[i][j] == face[j][i] for i in range(p) for j in range(p))
                assert [face[i][i] for i in range(p)] == [0] * p


def test_each_ear_check_refuses_its_own_fault(monkeypatch):
    # every batch passes, and the tree's own check of each batch it glues
    # from is the same; one child's new entries moved in one family fail
    # the entry comparison, new entries that are 0 in both (equal, so only
    # the positivity test sees them) fail too, as does a changed face or
    # triangle count (row 2 of its family sees it); a face whose entries
    # disagree fails `_faces_pass`, and the sweep then marks level 1
    from friezes import quiddity_counts
    from friezes.ears import _FACES, _ear_batches, _ears_pass, _faces_pass

    for p, s_max in ((4, 4), (6, 3)):
        for batch in _ear_batches(p, s_max):
            checked = _ears_pass(*ear_run(p, batch))
            assert checked[1] and batch[4] in (None, checked)
        assert _faces_pass(p)
    run = ear_run(4, list(_ear_batches(4, 3))[1])  # the square's children, the 6-gons
    p, first, last, counts, rows = run
    assert (first, last) == (0, 2) and _ears_pass(*run)[1]
    for family in (0, 1):
        for by in (1, -1):
            assert not _ears_pass(*bump(run, family, 1, by))[1]
    assert [flat[a * 4 + a + 1] for flat in rows for a in range(3)] == [1] * 6  # the sides (a, a + 1)
    for a in range(last + 1):
        alone = p, a, a, counts, rows
        assert _ears_pass(*alone)[1] and not _ears_pass(*zeroed(alone, a))[1]
    for family in (0, 1):  # a face count or a triangle count moved, at a or at b
        for v in (0, last + 1):  # vertex last + 1 is only the last child's b
            moved = [list(c) for c in counts]
            moved[family][v] += 1
            assert not _ears_pass(p, first, last, moved, rows)[1]
    radical, (integral, face_counts) = _FACES[4][0]
    wrong = [list(row) for row in integral]
    wrong[1][3] += 1
    monkeypatch.setitem(_FACES, 4, [(radical, (wrong, face_counts)), _FACES[4][1]])
    assert not _faces_pass(4)
    with pytest.raises(InternalAssertionError, match="with 1 faces failed, but each passes alone"):
        sweep(4, 2)
    monkeypatch.undo()
    # a new entry that is 0 in both families, on one leaf of level 3: the
    # leaf passes alone, so the marked level is an internal fault
    leaf = list(enumerate_p_angulations(3, 4))[7]
    corrupt_ears(monkeypatch, {quiddity_counts(leaf)}, zeroed)
    with pytest.raises(InternalAssertionError, match="with 3 faces failed, but each passes alone"):
        sweep(4, 3)
    assert verify_dissection(leaf, 4).ok


def same_as_the_reference(run):
    """The lane kernel's verdict on a run of ear checks, `_ears_pass`'s
    arguments, once its news, unpacked, and its verdict are found equal to
    those of the list kernel in `ear_reference.py`."""
    from ear_reference import ears_pass
    from friezes.ears import _ears_pass

    p, first, last, counts, _ = run
    news, passed = _ears_pass(*run)
    want, want_passed = ears_pass(*run)
    assert unpacked_news(p, len(counts[0]), first, last, news) == want, run[:3]
    assert passed == want_passed, run[:3]
    return passed


def test_lane_kernel_matches_the_list_reference():
    # the news and verdicts of the lane kernel are those of the list kernel
    # it replaced, kept in tests/ear_reference.py: on every batch of
    # p = 4, s ≤ 7 and p = 6, s ≤ 5 (2,100 batches), whole and one child at
    # a time, as the orbit sweep checks its representatives (12,380 runs of
    # one child), and on the faulted runs of
    # test_each_ear_check_refuses_its_own_fault, which both refuse
    from friezes.ears import _ear_batches

    batches = singles = 0
    for p, s_max in ((4, 7), (6, 5)):
        for batch in _ear_batches(p, s_max):
            p, _, last, counts, rows = run = ear_run(p, batch)
            assert same_as_the_reference(run)
            for a in range(last + 1):
                assert same_as_the_reference((p, a, a, counts, rows))
            batches, singles = batches + 1, singles + last + 1
    assert (batches, singles) == (2100, 12380)
    run = ear_run(4, list(_ear_batches(4, 3))[1])  # the square's children, the 6-gons
    p, first, last, counts, rows = run
    for family in (0, 1):
        for by in (1, -1):
            assert not same_as_the_reference(bump(run, family, 1, by))
        for v in (0, last + 1):
            moved = [list(c) for c in counts]
            moved[family][v] += 1
            assert not same_as_the_reference((p, first, last, moved, rows))
    for a in range(last + 1):
        assert not same_as_the_reference(zeroed((p, a, a, counts, rows), a))


def test_every_entry_fits_below_its_lanes_guard_bit():
    # the lane width of the ears docstring: on every node of p = 4, s ≤ 7
    # and p = 6, s ≤ 5, the largest entry of its children's news, both
    # families, times p/2, stays below the guard bit of their lanes, and
    # within the bound M(p)·G^(s − 1) on the largest entry of an s-face
    # polygon; and for every polygon the grid admits, (p/2)·M(p)·G^(s − 1)
    # does too, with M(p) the lone p-gon's largest entry and G the largest
    # max α + max β of a corner, both read here from the list reference
    from ear_reference import ear_table
    from friezes.ears import _FACES, _ear_batches, _ears_pass, _lanes_wide
    from friezes.frieze import _MAX_FRIEZE_N

    for p, s_max, growth in ((4, 7, 3), (6, 5, 5)):
        h, k = p // 2, p - 2
        face = max(e for family in _FACES[p] for matrix, _ in family for row in matrix for e in row)
        coefs = ear_table(p, 2 * p, 2)[0]
        maxima = [max(c) if type(c) is list else c for family in coefs for pair in family for c in pair]
        assert growth == max(a + b for a, b in zip(maxima[::2], maxima[1::2]))
        for batch in _ear_batches(p, s_max):
            p, _, last, counts, rows = run = ear_run(p, batch)
            n = len(counts[0])
            news = unpacked_news(p, n, 0, last, _ears_pass(*run)[0])
            largest = max(max(map(max, family)) for family in news)
            assert largest <= face * growth ** ((n - 2) // k), (p, n)
            assert largest * h < 1 << (8 * _lanes_wide(p, n + k) - 1), (p, n)
        for n in range(p, _MAX_FRIEZE_N + 1, k):
            assert h * face * growth ** ((n - 2) // k - 1) < 1 << (8 * _lanes_wide(p, n) - 1), (p, n)


@pytest.mark.parametrize("width", [2, 3, 8, 9, 16])
def test_the_lane_kernel_at_any_width_that_holds_the_entries(monkeypatch, width):
    # lanes of 2 to 16 bytes, packed through `array` up to 8 and by
    # `int.to_bytes` past it, give the list reference's news and verdicts
    # on every batch of p = 4, s ≤ 5 and p = 6, s ≤ 3, whole and one child
    # at a time; an entry a lane cannot hold is refused, not wrapped
    import friezes.ears
    from friezes.ears import _ear_batches, _lane_bytes, _unpacked

    monkeypatch.setattr(friezes.ears, "_EARS", {})
    monkeypatch.setattr(friezes.ears, "_lanes_wide", lambda p, n: width)
    for p, s_max in ((4, 5), (6, 3)):
        for batch in _ear_batches(p, s_max):
            p, _, last, counts, rows = run = ear_run(p, batch)
            assert same_as_the_reference(run)
            for a in range(last + 1):
                assert same_as_the_reference((p, a, a, counts, rows))
    entries = [0, 1, (1 << 8 * width) - 1, 7]
    assert list(_unpacked(int.from_bytes(_lane_bytes(entries, width), "little"), 4, width)) == entries
    for wrong in (1 << 8 * width, -1):
        with pytest.raises(OverflowError):
            _lane_bytes([1, wrong], width)


def test_ear_memos_drop_the_largest_sizes_past_their_cap(monkeypatch):
    # capped at three polygon sizes, the ear memos keep the three smallest
    # they were asked for, the plans' index pool only what the kept plans
    # read, and every sweep's outcome is the one with the memos uncapped;
    # at the default cap, a walk down the a = 0 spine to the 82-gon drops
    # none of the sizes up to 14, the bench's
    import friezes.ears
    from friezes.ears import _ear_batches, _ear_levels

    runs = [(4, 6, False), (4, 6, True), (6, 4, False), (6, 4, True)]
    want = [_ear_levels(*run) for run in runs]
    for cap in (3, friezes.ears._MEMO_SIZES):
        monkeypatch.setattr(friezes.ears, "_MEMO_SIZES", cap)
        for memo in ("_EARS", "_PLANS"):
            monkeypatch.setattr(friezes.ears, memo, {})
        monkeypatch.setattr(friezes.ears, "_INDICES", [])
        assert [_ear_levels(*run) for run in runs] == want
        if cap == 3:
            for memo in (friezes.ears._EARS, friezes.ears._PLANS):
                assert {key[0] for key in memo} == {2, 4, 6}
            need = max((a + 2 + k) * n + k * k for n, a, k in friezes.ears._PLANS)
            assert friezes.ears._INDICES == list(range(need))
    spine = _ear_batches(4, 41)
    for _ in range(41):  # depth first: the a = 0 spine to the 82-gon's batch
        s, last, counts, rows, checked = next(spine)
        assert checked is None or checked[1]
    assert len(counts[0]) == 82
    for memo in (friezes.ears._EARS, friezes.ears._PLANS):
        sizes = {key[0] for key in memo}
        assert len(sizes) == cap and set(range(2, 16, 2)) <= sizes, sorted(sizes)


# ---------------------------------------------------------------------------
# the deep uniqueness scan
#
# The scan never reports a single match: refining each face along its white
# corners instead of its black ones moves the p/2 quiddity factor to the
# other parity, which changes even rows only.  Both refinements therefore
# reproduce every odd row, ok stays False, and the second match is labeled
# "mirror".


def test_deep_scan_square():
    result = deep_uniqueness(Dissection(4), 4)
    assert result.triangulations == 2
    assert result.expected == Dissection(4, [(1, 3)])
    assert set(result.matches) == {Dissection(4, [(0, 2)]), Dissection(4, [(1, 3)])}
    assert sorted(result.match_kinds) == ["associated", "mirror"]
    assert result.ok is False


def test_deep_scan_hexagon():
    result = deep_uniqueness(Dissection(6, [(1, 4)]), 4)
    assert result.triangulations == 14
    assert sorted(result.match_kinds) == ["associated", "mirror"]
    assert not result.ok


def test_deep_scan_json_shape():
    blob = deep_uniqueness(Dissection(4), 4).to_json()
    assert set(blob) == {"ok", "triangulations", "expected", "matches"}
    assert {m["kind"] for m in blob["matches"]} == {"associated", "mirror"}


def test_mirror_match_shares_odd_rows_only():
    # the white-corner refinement of the square, checked by hand
    radical = lambda_frieze(Dissection(4), 4)
    mirror = cc_frieze(Dissection(4, [(0, 2)]))
    associated = cc_frieze(Dissection(4, [(1, 3)]))
    assert odd_rows_coincide(radical, mirror).ok
    assert odd_rows_coincide(radical, associated).ok
    # the two integer friezes themselves differ (row 2 swaps 1s and 2s)
    assert [e.as_integer() for e in mirror.row(2)] == [2, 1, 2, 1]
    assert [e.as_integer() for e in associated.row(2)] == [1, 2, 1, 2]


def test_deep_scan_wraps_no_candidate(monkeypatch, quad10):
    # candidates are compared on the kernel's int rows: none of the 1430
    # integer friezes is wrapped in QuadNum (wrapping them all built 15,644
    # QuadNum values, about 11 per candidate after sharing)
    built = []
    init = QuadNum.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuadNum, "__init__", counting_init)
    result = deep_uniqueness(quad10, 4)
    monkeypatch.undo()
    assert result.triangulations == 1430
    assert result.match_kinds == ("associated", "mirror")
    assert len(built) < 1430


def test_deep_scan_grows_no_frieze(monkeypatch, quad10):
    # a candidate matches exactly when its row 3 does, and row 3 is read off
    # the counts (c_k·c_{k+1} against (p/2)·q_k·q_{k+1}): no kernel grow
    import friezes.verify

    grown = []
    rows = friezes.verify._rows

    def counted(*args):
        grown.append(args)
        return rows(*args)

    monkeypatch.setattr(friezes.verify, "_rows", counted)
    result = deep_uniqueness(quad10, 4)
    assert result.triangulations == 1430
    assert result.match_kinds == ("associated", "mirror")
    assert grown == []


def test_deep_scan_on_symmetric_inputs_finds_only_the_twins():
    # a rotation of D onto itself maps each twin to a twin, so symmetric
    # inputs add no match: every rotation-symmetric 4- and 6-angulation
    # with n ≤ 10
    cases = [(d, 4) for s in (1, 2, 3, 4) for d in enumerate_p_angulations(s, 4)]
    cases += [(d, 6) for s in (1, 2) for d in enumerate_p_angulations(s, 6)]
    symmetric = [(d, p) for d, p in cases if any(rotate(d, c) == d for c in range(1, d.n))]
    assert len(symmetric) == 29
    for d, p in symmetric:
        assert deep_uniqueness(d, p).match_kinds == ("associated", "mirror")


def test_deep_scan_matches_full_growth_reference(quad10):
    # the reference grows every candidate's whole frieze and compares it
    # through the public comparison: the row-3 filter changes no result.
    # Its matches are reordered as the scan reports them: associated, then
    # the mirror (the associated triangulation of D turned by one vertex,
    # turned back: the colours swap), then the rest in enumeration order
    cases = [(d, 4) for s in (1, 2, 3) for d in enumerate_p_angulations(s, 4)]
    cases += [(d, 6) for s in (1, 2) for d in enumerate_p_angulations(s, 6)]
    cases.append((quad10, 4))
    candidates = {}
    for d, p in cases:
        if d.n not in candidates:
            candidates[d.n] = [(t, cc_frieze(t)) for t in enumerate_p_angulations(d.n - 2, 3)]
        radical = lambda_frieze(d, p)
        expected = associated_triangulation(d, p)
        mirror = rotate(associated_triangulation(rotate(d, 1), p), d.n - 1)
        matches = [t for t, f in candidates[d.n] if odd_rows_coincide(radical, f).ok]
        matches.sort(key=lambda t: 0 if t == expected else 1 if t == mirror else 2)
        blob = deep_uniqueness(d, p).to_json()
        kinds = [match.pop("kind") for match in blob["matches"]]
        assert blob == {
            "ok": matches == [expected],
            "triangulations": len(candidates[d.n]),
            "expected": expected.to_json(),
            "matches": [t.to_json() for t in matches],
        }
        assert "associated" in kinds and "mirror" in kinds and "other" not in kinds


@pytest.mark.parametrize("d", [Dissection(4), Dissection(10, [(1, 4), (4, 9), (5, 8)])])
def test_deep_scan_lists_associated_first(d):
    # the count tree meets the mirror first on both; the scan still lists
    # the associated triangulation first, then the mirror
    result = deep_uniqueness(d, 4)
    assert result.match_kinds == ("associated", "mirror")
    assert result.matches[0] == associated_triangulation(d, 4)
    assert result.to_json()["matches"][0]["kind"] == "associated"


def test_check_lemma_grows_no_frieze(monkeypatch, quad10):
    def boom(*args):
        raise AssertionError("check_lemma grew a frieze")

    monkeypatch.setattr("friezes.verify._rows", boom)
    assert check_lemma(quad10, 4).ok
    with pytest.raises(AssertionError):
        check_odd_rows(quad10, 4)


def test_deep_scan_builds_only_row_3_survivors(monkeypatch, quad10):
    # candidates are the count tree's vectors; a Dissection is built for the
    # two survivors, not for each of the 1,430 candidates
    built = []
    init = Dissection.__init__

    def counting_init(self, *args):
        built.append(type(self).__name__)
        init(self, *args)

    monkeypatch.setattr(Dissection, "__init__", counting_init)
    result = deep_uniqueness(quad10, 4)
    monkeypatch.undo()
    assert result.triangulations == 1430
    assert result.match_kinds == ("associated", "mirror")
    assert len(built) < 30


def test_deep_scan_matches_brute_force_candidates():
    # every 4- and 6-angulation with n ≤ 8; the reference scans the oracle's
    # triangulations, not the count tree under test
    cases = [(d, 4) for s in (1, 2, 3) for d in enumerate_p_angulations(s, 4)]
    cases.append((Dissection(6), 6))
    candidates = {}
    for d, p in cases:
        n = d.n
        if n not in candidates:
            found = brute_force_p_angulations(n - 2, 3)
            candidates[n] = [(t, cc_frieze(Dissection(n, t))) for t in found]
        radical = lambda_frieze(d, p)
        expected = {t for t, f in candidates[n] if odd_rows_coincide(radical, f).ok}
        result = deep_uniqueness(d, p)
        assert result.triangulations == len(candidates[n])
        assert {m.diagonals_sorted for m in result.matches} == expected


def test_deep_scan_counts_its_candidates(monkeypatch, capsys):
    # most candidates are never grown, so a faulty count tree shows only in
    # the count: one triangulation dropped is an internal fault, exit 3
    import friezes.verify
    from friezes.cli import main

    counts_of = friezes.verify._ear_counts

    def drop_one_triangulation(s, p):
        found = counts_of(s, p)
        next(found)
        return found

    monkeypatch.setattr(friezes.verify, "_ear_counts", drop_one_triangulation)
    message = "scanned 13 triangulations of the 6-gon, expected 14"
    with pytest.raises(InternalAssertionError, match=message):
        deep_uniqueness(Dissection(6, [(1, 4)]), 4)
    assert main(["verify", "--p", "4", "--max-s", "1", "--deep-uniqueness"]) == 3
    assert "scanned 1 triangulations of the 4-gon, expected 2" in capsys.readouterr().err


def test_deep_sweep_flags_every_dissection():
    summary = sweep(4, 1, deep=True)
    assert summary.deep_checked
    assert summary.deep_failures == (Dissection(4),)
    assert not summary.all_ok


# ---------------------------------------------------------------------------
# verify_dissection on true, mirror and moved triangle counts


def test_true_counts_pass_the_mirrors_fail_the_lemma_and_moved_ones_raise(monkeypatch):
    # on the 77 p-angulations of p = 4, s ≤ 4 and p = 6, s ≤ 2: the true
    # triangle counts pass with every ε_j = 0, the mirror's fail only the
    # lemma (every row agrees, the even rows at ε = 1), and each of the 2n
    # counts of an n-gon moved by ±1 makes the kernel raise
    from friezes.verify import _counts

    wrong = {}  # read at each call: the loop sets each dissection's counts
    corrupt_triangle_counts(monkeypatch, wrong)
    outcomes = {"pass": 0, "lemma": 0, "raises": 0}
    for p, s_max in ((4, 4), (6, 2)):
        for s in range(1, s_max + 1):
            for d in enumerate_p_angulations(s, p):
                key = (d.n, d.diagonals_sorted)
                _, tc = _counts(d, p)
                report = verify_dissection(d, p)
                assert report.ok and set(report.epsilons) == {0}, d
                outcomes["pass"] += 1
                wrong[key] = mirror_counts(d, p)
                report = verify_dissection(d, p)
                assert not report.lemma_ok and report.odd_rows_ok and report.even_scaling_ok, d
                assert set(report.epsilons) == {1} and report.first_violation.claim == "lemma", d
                outcomes["lemma"] += 1
                for k, t in enumerate(tc):
                    for delta in (-1, 1):
                        wrong[key] = tc[:k] + (t + delta,) + tc[k + 1 :]
                        with pytest.raises(InternalAssertionError):
                            verify_dissection(d, p)
                        outcomes["raises"] += 1
    assert outcomes == {"pass": 77, "lemma": 77, "raises": 1448}


def test_passing_checks_walk_no_row_entry_by_entry(monkeypatch):
    # a passing sweep runs no per-entry loop, in the kernel or the checks
    import friezes.frieze
    import friezes.verify

    def no_enumerate(*args):
        raise AssertionError("a passing dissection was walked entry by entry")

    for module in (friezes.frieze, friezes.verify):
        monkeypatch.setattr(module, "enumerate", no_enumerate, raising=False)
    for p, s_max in ((4, 4), (6, 2)):
        assert sweep(p, s_max).all_ok



SWEEP_HEAD = {"p": 4, "s_max": 3, "checked": 16}
SWEEP_TAIL = {
    "per_s": {"1": 1, "2": 3, "3": 12},
    "all_ok": True,
    "counterexamples": [],
    "deep_checked": False,
    "deep_failures": [],
}
ASSOCIATED_10 = [[1, 3], [1, 4], [1, 9], [4, 9], [5, 7], [5, 8], [5, 9]]
# each record's JSON as the dataclass records wrote it, key order included;
# a report's timings vary, so only their keys are pinned
RECORD_JSON = {
    "verify_dissection": {
        "p": 4,
        "s": 4,
        "dissection": {"n": 10, "diagonals": [[1, 4], [4, 9], [5, 8]]},
        "lemma_ok": True,
        "odd_rows_ok": True,
        "even_scaling_ok": True,
        "epsilons": [0, 0, 0, 0],
        "epsilon_alternates": False,
        "first_violation": None,
        "timings_ms": ["build", "checks"],
    },
    "deep_uniqueness": {
        "ok": False,
        "triangulations": 1430,
        "expected": {"n": 10, "diagonals": ASSOCIATED_10},
        "matches": [
            {"kind": "associated", "n": 10, "diagonals": ASSOCIATED_10},
            {"kind": "mirror", "n": 10,
             "diagonals": [[0, 4], [1, 4], [2, 4], [4, 8], [4, 9], [5, 8], [6, 8]]},
        ],
    },
    "sweep": {**SWEEP_HEAD, **SWEEP_TAIL},
    "sweep_orbits": {**SWEEP_HEAD, "orbits_checked": 6, **SWEEP_TAIL},
    "validate": {"ok": True, "violations": []},
    "witness": {"claim": "odd_rows", "row": 3, "index": 0},
    "validate_bumped": {
        "ok": False,
        "violations": [
            {"kind": "diamond", "row": 2, "col": 0},
            {"kind": "diamond", "row": 2, "col": 1},
            {"kind": "recurrence", "row": 2, "col": 0},
            {"kind": "recurrence", "row": 2, "col": 1},
            {"kind": "recurrence", "row": 3, "col": 1},
            {"kind": "recurrence", "row": 3, "col": 3},
        ],
    },
}


def records(quad10):
    """Every kind of report record, by name, passing and failing."""
    from friezes import validate

    corrupted = Triangulation(10, [(1, 4), (4, 9), (5, 8), (2, 4), (1, 9), (5, 9), (5, 7)])
    radical = lambda_frieze(quad10, 4)
    bumped = lambda_frieze(Dissection(4), 4).to_json()
    bumped["rows"][2][1] = {"m": 2, "rat": "1", "rad": "1"}
    return {
        "verify_dissection": verify_dissection(quad10, 4),
        "deep_uniqueness": deep_uniqueness(quad10, 4),
        "sweep": sweep(4, 3),
        "sweep_orbits": sweep(4, 3, orbits=True),
        "validate": validate(lambda_frieze(quad10, 4)),
        "witness": odd_rows_coincide(radical, cc_frieze(corrupted)).witness,
        "even_scaling": even_rows_scaled(radical, radical, 4),
        "validate_bumped": validate(Frieze.from_json(bumped)),
    }


def test_records_pickle_refuse_assignment_and_keep_their_json(quad10):
    import pickle

    for name, record in records(quad10).items():
        assert pickle.loads(pickle.dumps(record)) == record, name
        with pytest.raises(AttributeError):
            setattr(record, next(iter(type(record).__annotations__)), None)  # the first field
        if name in RECORD_JSON:
            blob = record.to_json()
            if name == "verify_dissection":
                blob["timings_ms"] = list(blob["timings_ms"])
            assert blob == RECORD_JSON[name] and list(blob) == list(RECORD_JSON[name]), name


def test_records_are_the_tuples_of_their_fields(quad10):
    # NamedTuple records iterate, index and compare equal to plain tuples,
    # and refuse assignment to every field
    made = records(quad10)
    for name, record in made.items():
        assert record == tuple(record) and len(record) == len(record._fields), name
        assert [record[i] for i in range(len(record))] == [getattr(record, f) for f in record._fields]
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    assert made["even_scaling"] == (False, ("even_scaling", 2, 0), (), False)
