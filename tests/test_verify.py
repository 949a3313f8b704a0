"""The randomized identity suite's own plumbing: corpus, records, report."""

import dataclasses
import os
import subprocess
import sys

import numpy as np

import decflow
from decflow import fields as fd
from decflow import verify as vf


def test_corpus_respects_the_requested_range():
    corpus = vf.mesh_corpus(seed=0, sizes=(20, 50, 200), count=51)
    assert len(corpus) == 51
    counts = [g.n for g in corpus]
    assert min(counts) >= 20 and max(counts) <= 200
    # Spread over the range, not clustered at one size.
    assert len({c // 20 for c in counts}) >= 4


def test_corpus_is_deterministic_and_seed_sensitive():
    a = vf.mesh_corpus(seed=5, sizes=(20, 40), count=6)
    b = vf.mesh_corpus(seed=5, sizes=(20, 40), count=6)
    c = vf.mesh_corpus(seed=6, sizes=(20, 40), count=6)
    for ga, gb in zip(a, b):
        np.testing.assert_array_equal(ga.mesh.nodes, gb.mesh.nodes)
    assert any(
        ga.mesh.nodes.shape != gc.mesh.nodes.shape
        or not np.array_equal(ga.mesh.nodes, gc.mesh.nodes)
        for ga, gc in zip(a, c)
    )


def test_a_corpus_whose_plain_mesh_has_right_triangles_ends():
    # At sizes 15..26 the corpus picks the 2x4 unit square without jitter,
    # whose zigzag triangles are right triangles (ly/ny = lx/(2 nx)) with
    # collapsed dual edges; the suite takes under a second once it ends.
    src = os.path.dirname(os.path.dirname(decflow.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, decflow.cli_io as cli; sys.exit(cli.main(['verify', '--sizes', '15,26']))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0
    assert out.stdout.splitlines()[-1] == "33 checks, all passed"


def test_check_record_pass_flag():
    assert vf.CheckRecord("x", 1e-12, 1e-11).passed
    assert not vf.CheckRecord("x", 1e-10, 1e-11).passed


def test_run_suite_covers_every_registered_check():
    records = vf.run_suite(seed=1, sizes=(20, 30), count=4)
    assert [r.name for r in records] == list(vf.all_check_names())
    assert vf.suite_passed(records)
    # Both group map kinds appear.
    names = {r.name for r in records}
    assert "dtau-roundtrip-exponential" in names
    assert "dtau-roundtrip-cayley" in names


def test_subset_reproduces_full_suite_residuals():
    # Residuals are streamed per (mesh, check), so filtering the check list
    # must not change the numbers of the remaining checks.
    full = {r.name: r.residual for r in vf.run_suite(seed=2, sizes=(20, 30), count=4)}
    sub = vf.run_suite(seed=2, sizes=(20, 30), count=4, names=vf.LEMMA_FAMILIES)
    assert len(sub) == len(vf.LEMMA_FAMILIES)
    for r in sub:
        assert r.residual == full[r.name]


def test_a_corpus_of_large_meshes_says_it_skipped_the_group_checks():
    records = vf.run_suite(seed=1, sizes=(150, 200), count=2)
    assert min(g.n for g in vf.mesh_corpus(seed=1, sizes=(150, 200), count=2)) > vf.GROUP_CELLS
    assert [r.name for r in records] == [name for name, _, _ in vf.FIELD_CHECKS]
    lines = vf.format_report(records).splitlines()
    assert lines[-2] == f"group checks skipped: no corpus mesh has at most {vf.GROUP_CELLS} cells"
    assert lines[-1] == f"{len(vf.FIELD_CHECKS)} checks, all passed"
    # a corpus that runs them says nothing of a skip
    assert "skipped" not in vf.format_report(vf.run_suite(seed=1, sizes=(20, 30), count=2))


def test_format_report_lists_every_check():
    records = vf.run_suite(seed=0, sizes=(20, 30), count=3)
    report = vf.format_report(records)
    for r in records:
        assert r.name in report
    assert "all passed" in report
    bad = records + [vf.CheckRecord("made-up", 1.0, 1e-11)]
    report = vf.format_report(bad)
    assert "FAIL" in report and "1 failed" in report


# ---------------------------------------------------------------------------
# The three identities about matrices see a broken operator
# ---------------------------------------------------------------------------


def test_the_kite_check_sees_a_dropped_term(jittered65, monkeypatch):
    assert vf.check_advection_kite(jittered65, np.random.default_rng(0)) <= 1e-10
    kite = fd.lie_deriv_oneform_density_kite

    def without_dabar(geom, a, b, d):  # the kite formula less its mean(D bullet A) B^flat term
        dabar = fd.pair_mean(fd.act_den(geom, d, a), geom.adj_i, geom.adj_j)
        return kite(geom, a, b, d) - dabar * fd.flat_pairs(geom, b)

    monkeypatch.setattr(fd, "lie_deriv_oneform_density_kite", without_dabar)
    assert vf.check_advection_kite(jittered65, np.random.default_rng(0)) > 1e-10


def test_the_projection_check_sees_a_dropped_diagonal(jittered65, monkeypatch):
    assert vf.check_projection_oneform(jittered65, np.random.default_rng(0)) <= 1e-11
    monkeypatch.setattr(fd, "proj_P", lambda l_ij, l_ji, l_ii, l_jj: 0.5 * (l_ij - l_ji))
    assert vf.check_projection_oneform(jittered65, np.random.default_rng(0)) > 1e-11


def test_the_bracket_check_needs_a_leak(gen65, rhombus, monkeypatch):
    assert vf.check_commutator_nonclosure(gen65, np.random.default_rng(0)) <= 1e-10
    assert len(rhombus.ta_row) == 0  # two cells: no two-away pair
    assert vf.check_commutator_nonclosure(rhombus, np.random.default_rng(0)) >= 1.0
    a = vf.random_tangent(gen65, np.random.default_rng(1))
    monkeypatch.setattr(vf, "random_tangent", lambda geom, rng: a)  # b = a: [A, A] = 0
    assert vf.check_commutator_nonclosure(gen65, np.random.default_rng(0)) >= 1.0


def test_the_bracket_check_reads_the_sparse_product(gen65, monkeypatch):
    # The leak comes from the product of the fields' CSR arrays: a product
    # of doubled arrays no longer matches the caption formula's entries.
    csr = fd.velocity_csr
    monkeypatch.setattr(fd, "velocity_csr", lambda geom, a: 2.0 * csr(geom, a))
    assert vf.check_commutator_nonclosure(gen65, np.random.default_rng(0)) > 1e-2


def test_the_bracket_check_sees_a_leak_off_the_two_away_list(gen65):
    # The two-away list is the bracket's whole support off the diagonal and
    # the pairs: with one pair dropped from it, the entry there is a leak
    # that the check reads nowhere else.
    short = dataclasses.replace(
        gen65,
        **{name: getattr(gen65, name)[1:] for name in ("ta_row", "ta_col", "ta_tri", "ta_sign")},
        kite_rows=gen65.kite_rows[:, 1:],
    )
    assert vf.check_commutator_nonclosure(short, np.random.default_rng(0)) > 1e-2
