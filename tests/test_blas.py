"""Tests for the OpenBLAS thread-count scope that simplified Newton runs in."""

import threading

import numpy as np
import pytest

from chebpint import blas
from chebpint.errors import MaxIterationsError
from chebpint.solver import solve_semilinear_sni
from chebpint.spatial import make_benchmark
from chebpint.spectral import decompose


def _problem(on_f=None):
    """A small semilinear benchmark whose f calls on_f() before each
    evaluation; returns the problem and its decomposition."""
    bench = make_benchmark("semilinear", 5, n=6, T=2.0)
    prob = bench.semilinear()
    f = prob.f

    def spied(u):
        if on_f is not None:
            on_f()
        return f(u)

    prob.f = spied
    return prob, decompose(6, bench.grid.dt)


def _counts():
    return [get() for get, _ in blas._libraries()]


class _FakeBlas:
    """Stands in for the mapped libraries: one thread count, and the list
    of every count set."""

    def __init__(self, count):
        self.count = count
        self.sets = []

    def set(self, count):
        self.sets.append(count)
        self.count = count

    def libraries(self):
        return ((lambda: self.count, self.set),)


def test_a_solve_runs_at_one_thread_and_restores_the_callers_count():
    # on the OpenBLAS this process maps, when one is found; without one the
    # scope changes nothing and the solve runs all the same
    libs = blas._libraries()
    seen = []
    prob, dec = _problem(lambda: seen.append(_counts()))
    before = _counts()
    for _, set_ in libs:
        set_(2)
    try:
        rep = solve_semilinear_sni(prob, dec, tol=1e-8, max_iter=40)
        assert _counts() == [2] * len(libs)
        with pytest.raises(MaxIterationsError):
            solve_semilinear_sni(prob, dec, tol=1e-14, max_iter=1)
        assert _counts() == [2] * len(libs)
    finally:
        for (_, set_), count in zip(libs, before):
            set_(count)
    assert rep.iterations > 0 and seen
    if libs:
        assert all(counts == [1] * len(libs) for counts in seen)
    else:
        assert all(counts == [] for counts in seen)


def test_a_solve_that_raises_restores_the_count(monkeypatch):
    fake = _FakeBlas(4)
    monkeypatch.setattr(blas, "_libraries", fake.libraries)
    prob, dec = _problem()
    with pytest.raises(MaxIterationsError):
        solve_semilinear_sni(prob, dec, tol=1e-14, max_iter=1)
    assert fake.sets == [1, 4] and fake.count == 4


def test_two_concurrent_solves_set_and_restore_the_count_once(monkeypatch):
    # both solves wait for each other inside their scopes, so the scopes
    # overlap: the count is set to 1 once and restored once
    fake = _FakeBlas(3)
    monkeypatch.setattr(blas, "_libraries", fake.libraries)
    barrier = threading.Barrier(2, timeout=30)
    results, errors = [], []

    def solve():
        waited = []

        def meet():
            if not waited:
                waited.append(True)
                barrier.wait()

        prob, dec = _problem(meet)
        try:
            results.append(solve_semilinear_sni(prob, dec, tol=1e-8, max_iter=40))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=solve) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == [] and len(results) == 2
    assert np.array_equal(results[0].solution.values, results[1].solution.values)
    assert fake.sets == [1, 3] and fake.count == 3


def test_a_scope_without_a_library_changes_nothing(monkeypatch):
    mapped = blas._libraries()
    before = [get() for get, _ in mapped]
    monkeypatch.setattr(blas, "_libraries", lambda: ())
    with blas.single_threaded():
        with blas.single_threaded():
            assert [get() for get, _ in mapped] == before
    assert [get() for get, _ in mapped] == before
