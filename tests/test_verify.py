import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cknlab
from cknlab import verify
from cknlab.cylfield import CylinderField, PeriodicGrid
from cknlab.grids import RadialGrid, Workspace
from cknlab.params import derive_params
from cknlab.reporting import csv_text, json_text, ordered_map
from cknlab.verify import (
    run_estimates_suite,
    run_identities_suite,
    run_rigidity_suite,
    run_spectrum_suite,
)


class TestSuites:
    def test_identities_small_config(self):
        rep = run_identities_suite(n_fields=2)
        assert rep["pass"] and rep["first_failure"] is None
        assert rep["checks"][-1]["fields"] == 100
        names = {c["identity"] for c in rep["checks"]}
        assert names == {
            "bochner_decomposition_vs_definition",
            "divergence_identity_bubble",
            "pressure_equation_bubble",
            "sphere_inequality_margin",
        }

    def test_estimates_rows_and_pass(self):
        rep, rows = run_estimates_suite()
        assert rep["pass"]
        lemmas = {r[0] for r in rows}
        assert {"superharmonic_bound", "weak_energy", "defect_vs_gradient",
                "finite_energy_tail", "localized_defect"} <= lemmas
        text = csv_text(verify.ESTIMATES_HEADER, rows)
        assert text.count("\n") == len(rows) + 1

    def test_rigidity_suite(self):
        rep = run_rigidity_suite()
        assert rep["pass"]
        assert all(c["matched"] == "10/10" and c["tol"] == 1e-6 for c in rep["checks"])

    def test_spectrum_suite(self):
        rep = run_spectrum_suite()
        assert rep["pass"]
        gaps = [c["relative_gap"] for c in rep["checks"]
                if c["name"] == "threshold_crossing"]
        assert gaps and max(gaps) < 0.01

    def test_failure_is_named(self, monkeypatch):
        monkeypatch.setattr(verify, "IDENTITY_ORDER_FLOOR", 99.0)  # unreachable floor
        rep = run_identities_suite(n_fields=1)
        assert not rep["pass"]
        assert rep["first_failure"] == "bochner_decomposition_vs_definition"


def test_identities_suite_memory_is_bounded():
    # Each refinement level is computed in row slabs that evaluate their own
    # rows of the field into one workspace (4 MiB); whole-level arrays took
    # 29 MiB.  One field runs serially, so the peak is the same on every run.
    tracemalloc.start()
    try:
        run_identities_suite(n_fields=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def identity_field():
    """(table, grids, angular, params) of one field of the identities suite's Bochner
    check, and the bytes of a slab-sized array: the tallest slab's rows plus both halos."""
    ps = derive_params(*verify.D2_IDENTITY_PARAMS)
    angular = PeriodicGrid(verify.IDENTITY_ANGULAR)
    sizes = verify._refinement_sizes(verify.IDENTITY_LEVELS, verify.IDENTITY_BASE)
    grids = [RadialGrid(1e-3, 1e3, n) for n in sizes]
    table = verify.log_field_table(verify.random_log_field_coeffs(np.random.default_rng(1)),
                                   angular)
    height = verify.SLAB_BYTES // (8 * angular.size) + 2 * verify.SLAB_HALO
    return table, grids, angular, ps, 8 * angular.size * height


def test_identity_field_peak_is_slab_sized():
    # One field's Bochner check evaluates each refinement level slab by slab on
    # that level's grid, into one workspace, as the suite does.  Its traced peak
    # is that workspace: 9 buffers of the finest level's tallest window, which
    # is shorter than a slab-sized array (7.9 slab-sized arrays in all; 11.3
    # with the 11 buffers of a slab that held every Bochner term and |DP|^2 at
    # once).  Evaluating the finest level whole and slicing it peaked at 23.4
    # slab-sized arrays, and fresh arrays for every slab at 16.8.
    table, grids, angular, ps, slab_array = identity_field()
    tracemalloc.start()
    try:
        with verify.slab_workspace(grids, angular):
            for g in grids:
                verify.bochner_residual(table, g, angular, ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9 * slab_array


def test_a_slab_holds_at_most_nine_arrays():
    # The workspace grows to the most buffers a slab holds at once.  Each Bochner
    # term is dropped once added, |DP|^2 is formed only when k[P] reads it, and
    # P'' and Lap_theta P go before it does: 11 buffers took every term at once.
    table, grids, angular, ps, _ = identity_field()
    ws = verify.slab_workspace(grids, angular)
    with ws:
        for g in grids:
            verify.bochner_residual(table, g, angular, ps)
    assert len(ws._buffers) <= 9


@pytest.mark.parametrize("width", [2, 3])
def test_the_pool_shares_one_workspace_of_at_most_nine_buffers_a_thread(monkeypatch, width):
    # Every pool thread enters the suite's one slab_workspace and takes buffers
    # of its own; each holds a slab's live set, whatever fields it runs.
    monkeypatch.setattr(os, "cpu_count", lambda: width)
    made, held = [], {}
    make, empty = verify.slab_workspace, Workspace.empty

    def counted(*args):
        made.append(make(*args))
        return made[-1]

    def spied(ws, shape, dtype=float):
        a = empty(ws, shape, dtype)
        held[threading.get_ident()] = len(ws._buffers)
        return a

    monkeypatch.setattr(verify, "slab_workspace", counted)
    monkeypatch.setattr(Workspace, "empty", spied)
    run_identities_suite(n_fields=3)
    assert len(made) == 1
    assert len(held) == width and max(held.values()) <= 9


def test_a_later_slab_allocates_no_slab_sized_array():
    # Once the workspace holds its buffers, every slab of every level writes
    # into them: what the slabs allocate besides is small.
    table, grids, angular, ps, slab_array = identity_field()
    with verify.slab_workspace(grids, angular):
        verify.bochner_residual(table, grids[-1], angular, ps)
        tracemalloc.start()
        try:
            for g in grids:
                verify.bochner_residual(table, g, angular, ps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < slab_array


def count_fields(monkeypatch) -> list:
    """The CylinderField constructions from here on, each a full isfinite pass."""
    built = []
    post_init = CylinderField.__post_init__

    def counted(field):
        built.append(field)
        post_init(field)

    monkeypatch.setattr(CylinderField, "__post_init__", counted)
    return built


def test_bochner_residual_builds_no_field(monkeypatch):
    # A slab's samples stay arrays of its workspace: a CylinderField would copy
    # a view of it.
    grid = RadialGrid(1e-3, 1e3, 1025)
    angular = PeriodicGrid(verify.IDENTITY_ANGULAR)
    ps = derive_params(*verify.D2_IDENTITY_PARAMS)
    coeffs = verify.random_log_field_coeffs(np.random.default_rng(1))
    table = verify.log_field_table(coeffs, angular)
    built = count_fields(monkeypatch)
    with verify.slab_workspace([grid], angular):
        verify.bochner_residual(table, grid, angular, ps)
    assert len(verify._slabs(verify.interior_rows(grid), angular.size)) > 1
    assert built == []


def test_estimates_suite_builds_48_fields(monkeypatch):
    # weak_energy reads |Dw|^2 as samples (cylfield.grad_sq), so each of its six
    # calls builds only its two integrands; a |Dw|^2 field made it 54.
    built = count_fields(monkeypatch)
    run_estimates_suite()
    assert len(built) == 48


class TestDeterminism:
    def test_identities_reports_identical(self):
        a = json_text(run_identities_suite(seed=3, n_fields=2))
        b = json_text(run_identities_suite(seed=3, n_fields=2))
        assert a == b

    def test_seed_changes_fields(self):
        a = run_identities_suite(seed=3, n_fields=2)
        b = run_identities_suite(seed=4, n_fields=2)
        ma = a["checks"][-1]["min_margin"]
        mb = b["checks"][-1]["min_margin"]
        assert ma != mb

    def test_ordered_map_preserves_order(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # a pool even on a 1-core host
        items = list(range(64))
        out = ordered_map(lambda x: x * x, items)
        assert out == [x * x for x in items]

    @pytest.mark.parametrize("failing, first", [({6}, 6), ({1, 5}, 1), ({5, 7}, 5)])
    def test_ordered_map_raises_the_first_failing_item(self, failing, first, monkeypatch):
        # 8 items on 2 threads: the caller runs items 0-3 and a worker 4-7, each
        # up to its first failing item, and the first in input order is raised.
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        ran = {}

        def fn(x):
            ran[x] = threading.get_ident()
            if x in failing:
                raise ValueError(x)
            return x

        with pytest.raises(ValueError) as raised:
            ordered_map(fn, range(8))
        assert raised.value.args == (first,)
        caller = threading.get_ident()
        for chunk, on_caller in ((range(4), True), (range(4, 8), False)):
            stop = min((x for x in chunk if x in failing), default=chunk[-1])
            assert sorted(x for x in ran if x in chunk) == list(range(chunk[0], stop + 1))
            assert all((ran[x] == caller) == on_caller for x in ran if x in chunk)

    def test_identities_report_is_the_same_at_every_pool_width(self, monkeypatch):
        # 3 fields: chunks of 1 (the caller's) and 2 at width 2, one field a
        # thread at widths 3 and 8
        reports = set()
        for width in (1, 2, 3, 8):
            monkeypatch.setattr(os, "cpu_count", lambda width=width: width)
            reports.add(json_text(run_identities_suite(seed=3, n_fields=3)))
        assert len(reports) == 1


POLYNOMIAL_PROBE = """
import sys
from cknlab import verify

for suite in ("identities", "estimates", "rigidity", "spectrum"):
    getattr(verify, f"run_{suite}_suite")(seed=verify.DEFAULT_SEED)
print("numpy.polynomial" in sys.modules)
"""


def test_suites_never_import_numpy_polynomial():
    # the quadrature's cubic-cell weights are built on Python integers; a fresh
    # interpreter, since the bitwise oracles in test_grids load numpy.polynomial
    src = str(Path(cknlab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", POLYNOMIAL_PROBE],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
