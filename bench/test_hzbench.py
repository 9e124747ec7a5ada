"""Tests of the benchmark itself: each correctness check must reject a
perturbed result, and self times must follow from the span tree."""

import dataclasses
import json
import signal
import time

import pytest

import hopfzero as hz
from hzbench import checks, speed, tracing, workloads

POINT = workloads.seed_point(7)


@pytest.fixture(scope="module")
def family37():
    return workloads.family37_field(hz)


def test_self_times_on_hand_made_tree():
    spans = [["a", 0.0, 10.0, -1, "p"],
             ["b", 1.0, 4.0, 0, "p"],
             ["c", 2.0, 3.0, 1, "p"],
             ["b", 5.0, 9.0, 0, "p"],
             ["a", 0.0, 2.0, -1, "q"]]
    assert tracing.self_times(spans) == {("p", "a"): 3.0, ("p", "b"): 6.0,
                                         ("p", "c"): 1.0, ("q", "a"): 2.0}


def test_layer_metrics_add_setup_and_pass_medians():
    tracer = tracing.Tracer()
    tracer.spans = [["homological.analyze", 0.0, 1.0, -1, "setup0"],
                    ["homological.analyze", 0.0, 2.0, -1, "pass0"],
                    ["homological.analyze", 2.0, 3.0, -1, "pass0"],
                    ["homological.analyze", 0.0, 4.0, -1, "pass1"],
                    ["homological.analyze", 4.0, 5.0, -1, "pass1"]]
    base = {"scale": 1.0, "homological.analyze.builds": 1, "coeffring.max_terms": 5}
    base.update({key: 0 for key in tracing.MAX_METRICS if key != "coeffring.max_terms"})
    tracer.ops = [dict(base, op="setup0"), dict(base, op="pass0"),
                  dict(base, op="pass1", scale=2.0, **{"coeffring.max_terms": 9})]
    out = tracer.layer_metrics(["setup0"])
    assert out["homological.analyze.calls"] == 1 + 2
    # pass self times 3 and 2 * 5; their median is 6.5
    assert out["homological.analyze.self_s"] == 1.0 + 6.5
    assert out["homological.cache_hit_ratio"] == (3 - 2) / 3
    assert out["coeffring.max_terms"] == 7


def test_probe_leaves_out_its_samples_and_restores_the_handler():
    probe = speed.SpeedProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with pytest.raises(ValueError):
        with probe.timed() as timing:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.7:
                pass
            wall = time.perf_counter() - start
            raise ValueError
    assert signal.getsignal(signal.SIGALRM) is previous
    assert probe.stolen > 0
    assert 0 < timing.raw < wall and timing.scaled > 0


def test_seed_point_is_nonzero_and_seeded():
    points = [workloads.seed_point(seed) for seed in range(40)]
    assert workloads.seed_point(3) == workloads.seed_point(3)
    assert len({tuple(p.values()) for p in points}) > 20
    assert all(0 < abs(v) <= 5 for p in points for v in p.values())


def test_h2_check_rejects_perturbed_sequence(family37):
    seq = hz.jacobi_obstructions(family37, 5, hz.Method.JACOBI_H2)
    assert checks.check_h2(hz, family37, seq, 5, POINT) == []
    one = hz.ParamPolynomial.constant(1, seq.params)
    bad_entry = dataclasses.replace(seq, entries={**seq.entries, 4: seq.entries[4] + one})
    failures = checks.check_h2(hz, family37, bad_entry, 5, POINT)
    assert any("recombination_defect" in f for f in failures)
    assert any("entry 4" in f for f in failures)
    bump = hz.QHPolynomial.monomial((0, 0, 3), 1, seq.params)
    bad_witness = dataclasses.replace(seq, witness=seq.witness + bump)
    assert checks.check_h2(hz, family37, bad_witness, 5, POINT)


def test_nf_check_rejects_perturbed_coefficients(family37):
    nf = hz.orbital_normal_form(family37.substitute_params(POINT), 3)
    assert checks.check_nf(hz, family37, nf, 3, POINT) == []
    one = hz.ParamPolynomial.constant(1, nf.params)
    bad = dataclasses.replace(nf, a_coeffs={**nf.a_coeffs, 2: nf.a_coeffs[2] + one})
    failures = checks.check_nf(hz, family37, bad, 3, POINT)
    assert any("normal_form_field" in f for f in failures)
    assert any(f.startswith("a_2") for f in failures)


def _fixture_report(name, tmp_path):
    case = next(c for c in hz.goldens.load_cases() if c.name == name)
    path = tmp_path / f"{name}.hz"
    path.write_text(case.system_text, encoding="utf-8")
    code, text = hz.run_cli(checks.cli_args(case, str(path)))
    assert code == 0, text
    return case, json.loads(text)


@pytest.mark.parametrize("name", ["family37_nf", "family38_b1_h", "b2_shape"])
def test_report_check_accepts_fixture_output(name, tmp_path):
    case, report = _fixture_report(name, tmp_path)
    assert checks.check_report(hz, case, json.dumps(report)) == []


def test_report_check_rejects_perturbed_reports(tmp_path):
    case, report = _fixture_report("family37_nf", tmp_path)
    wrong_value = json.loads(json.dumps(report))
    wrong_value["normal_form"]["a"]["2"] = "0"
    assert any(f.startswith("a_2") for f in
               checks.check_report(hz, case, json.dumps(wrong_value)))
    off_schema = dict(report, extra="field")
    assert any(f.startswith("schema") for f in
               checks.check_report(hz, case, json.dumps(off_schema)))
    assert checks.check_report(hz, case, "not json")

    case, report = _fixture_report("family38_b1_h", tmp_path)
    report["obstructions"][0]["entries"]["3"] = "a001"
    assert any("entries [3]" in f for f in checks.check_report(hz, case, json.dumps(report)))

    case, report = _fixture_report("b2_shape", tmp_path)
    del report["classification"]
    assert any("lacks" in f for f in checks.check_report(hz, case, json.dumps(report)))
