"""The randomized identity suite's own plumbing: corpus, records, report."""

import os
import subprocess
import sys

import numpy as np

import decflow
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
