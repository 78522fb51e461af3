from roughmap.enumeration import (
    bell,
    canonical_table,
    canonical_table_count,
    iter_canonical_surjections,
    iter_canonical_tables,
    iter_rgs,
    iter_surjections,
    iter_tables,
    stirling2,
    surjection_count,
    table_count,
)

import oracles
from oracles import is_canonical_table


def test_rgs_stream_is_exactly_the_set_partitions():
    for n in range(1, 7):
        got = [oracles.blocks_of_rgs(r) for r in iter_rgs(n)]
        assert len(got) == len(set(got)) == bell(n)
        assert set(got) == set(oracles.set_partitions(n))


def test_rgs_stream_is_lexicographic():
    for n in range(1, 7):
        seq = list(iter_rgs(n))
        assert seq == sorted(seq)


def test_rgs_max_blocks_cap():
    for n in range(1, 7):
        for cap in range(1, n + 1):
            capped = list(iter_rgs(n, max_blocks=cap))
            want = [r for r in iter_rgs(n) if max(r) + 1 <= cap]
            assert capped == want


def test_tables_are_a_base_m_counter():
    for n in range(1, 5):
        for m in range(1, 4):
            seq = list(iter_tables(n, m))
            assert len(seq) == m**n == table_count(n, m)
            assert seq == sorted(seq)
            assert len(set(seq)) == len(seq)


def test_surjections_exhaustive_and_distinct():
    for n in range(1, 6):
        for m in range(1, n + 1):
            seq = list(iter_surjections(n, m))
            assert len(seq) == len(set(seq)) == oracles.surj_ie(n, m)
            assert all(set(t) == set(range(m)) for t in seq)
            assert seq == sorted(seq)
            # same stream as filtering all tables
            assert seq == [t for t in iter_tables(n, m) if set(t) == set(range(m))]


def test_surjections_empty_when_codomain_too_big():
    assert list(iter_surjections(2, 3)) == []


def test_canonical_tables_are_orbit_minima():
    for n in range(1, 5):
        for m in range(1, 4):
            got = set(iter_canonical_tables(n, m))
            want = oracles.orbit_minima(iter_tables(n, m), m)
            assert got == want
            assert len(got) == canonical_table_count(n, m)
            assert all(is_canonical_table(t) for t in got)


def test_canonical_surjections_are_orbit_minima():
    for n in range(1, 6):
        for m in range(1, n + 1):
            got = set(iter_canonical_surjections(n, m))
            want = oracles.orbit_minima(iter_surjections(n, m), m)
            assert got == want


def test_canonical_table_is_the_orbit_minimum_and_the_streams_its_fixed_points():
    for n in range(1, 7):
        for m in range(1, 5):
            for t in iter_tables(n, m):
                rep = canonical_table(t)
                assert rep == min(oracles.relabel_orbit(t, m))
                assert canonical_table(rep) == rep
            fixed = [t for t in iter_tables(n, m) if canonical_table(t) == t]
            assert list(iter_canonical_tables(n, m)) == fixed
            fixed = [t for t in iter_surjections(n, m) if canonical_table(t) == t]
            assert list(iter_canonical_surjections(n, m)) == fixed


def test_orbits_cover_everything_exactly_once():
    # distinct canonical representatives expand back to the full table set
    n, m = 4, 3
    seen = set()
    for rep in iter_canonical_tables(n, m):
        orbit = oracles.relabel_orbit(rep, m)
        assert not orbit & seen
        seen |= orbit
    assert seen == set(iter_tables(n, m))


def test_counts_against_independent_formulas():
    for n in range(0, 11):
        assert bell(n) == oracles.bell_binomial(n)
    for n in range(1, 9):
        for m in range(1, n + 1):
            assert stirling2(n, m) == oracles.stirling_ie(n, m)
            assert surjection_count(n, m) == oracles.surj_ie(n, m)
    assert bell(7) == 877
    assert surjection_count(6, 2) == 62


def test_stirling2_follows_its_recurrence():
    # S(0, 0) = 1, S(n, 0) = S(0, m) = 0 otherwise, S(n, m) = 0 for m > n and
    # S(n, m) = m·S(n-1, m) + S(n-1, m-1); computed row by row, so a deep
    # row needs no recursion
    for n in range(13):
        for m in range(14):
            if n == 0 or m == 0:
                want = int(n == m)
            else:
                want = m * stirling2(n - 1, m) + stirling2(n - 1, m - 1)
            assert stirling2(n, m) == want, (n, m)
    assert stirling2(2000, 3) == (3**2000 - 3 * 2**2000 + 3) // 6
