"""Golden report bytes: default-level ``n = 0`` verdicts must not change.

Per-node speedups of the quadrature route (the driver-law callables, the
pathwise functionals) are only admissible when every output bit stays the
same.  These strings are ``json.dumps(report.to_json(), sort_keys=True)``
of reports covering ``jacod`` and ``lemma1`` on all three models, and
``theorem1`` with constant and indicator controls and family times.  The
``theorem1`` constants reach every branch of the verdict table: finite,
single- and multi-factor inconclusive, and a multi-factor diverging
product scaled by its finite factor.  The two log-scale kinds on example2
carry the log integrand at each cut as their values.  The ``reproduce``
documents, Monte Carlo rows included, and the ``sample`` and ``exponential``
output are pinned by digest.

A re-pin is allowed only for a change that regroups the quadrature on
purpose, and only when a script compares every old and new report and
``reproduce`` document and shows that nothing but ``divergence.values``
and ``divergence.slope`` moved, each by at most 1e-11 relative, with the
moved values held to an independent oracle (``test_mpmath_oracle.py``).
Verdicts, levels and every ``finite`` value are never re-pinned.
"""

import hashlib
import json

import pytest

from doleans import (
    ConditionSpec,
    PredictableControl,
    control_indicator_after,
    evaluate_condition,
)
from doleans.cli import main, run_reproduction

CASES = {
    "example1_jacod": ("example1", ConditionSpec("jacod"), ()),
    "example1_theorem1_a1": (
        "example1", ConditionSpec("theorem1", PredictableControl.constant(1.0)), ()),
    "example2_theorem1_a05_times": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
        (0.5, 2.0)),
    "example3_theorem1_indicator": (
        "example3", ConditionSpec("theorem1", control_indicator_after(1.0)), ()),
    "example1_theorem1_a0999": (
        "example1", ConditionSpec("theorem1", PredictableControl.constant(0.999)), ()),
    "example3_theorem1_a001": (
        "example3", ConditionSpec("theorem1", PredictableControl.constant(0.01)), ()),
    "example3_theorem1_a05": (
        "example3", ConditionSpec("theorem1", PredictableControl.constant(0.5)), ()),
    "example2_jacod": ("example2", ConditionSpec("jacod"), ()),
    "example3_jacod": ("example3", ConditionSpec("jacod"), ()),
    "example1_lemma1": ("example1", ConditionSpec("lemma1"), ()),
    "example2_lemma1": ("example2", ConditionSpec("lemma1"), ()),
    "example3_lemma1": ("example3", ConditionSpec("lemma1"), ()),
    "example2_protter_shimbo": ("example2", ConditionSpec("protter_shimbo"), ()),
    "example2_lepingle_memin": ("example2", ConditionSpec("lepingle_memin"), ()),
}

GOLDEN = {
    "example1_jacod": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "jacod", "levels": null, '
        '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [0.01, 0.001, 0.0001, '
        '1e-05], "model": "log", "slope": 0.5000000000007447, '
        '"values": [2.832539947105569, 3.983832493602628, '
        '5.135125040099565, 6.286417586602383]}, "estimate": null, '
        '"quadrature": null, "verdict": "diverging"}'
    ),
    "example1_theorem1_a1": (
        '{"condition": {"control": "1.0", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": null, "estimate": null, '
        '"quadrature": 1.248740710242009, "verdict": "finite"}'
    ),
    "example2_theorem1_a05_times": (
        '{"condition": {"control": "0.5", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example2", "n": 0, "seed": 0, "streams": 1, '
        '"times": [0.5, 2.0]}, "divergence": null, "estimate": null, '
        '"quadrature": 1.5223976267766461, "verdict": "finite"}'
    ),
    "example3_theorem1_indicator": (
        '{"condition": {"control": "indicator:1.0", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example3", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": null, "estimate": null, '
        '"quadrature": 1.6398388435133684, "verdict": "finite"}'
    ),
    "example1_theorem1_a0999": (
        '{"condition": {"control": "0.999", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [0.01, 0.001, '
        '0.0001, 1e-05], "model": "log", "slope": '
        '0.0011696631992853814, "values": [1.2453295094788723, '
        '1.2509763020253697, 1.2525771445718665, '
        '1.2537733921183678]}, "estimate": null, "quadrature": '
        'null, "verdict": "inconclusive"}'
    ),
    "example3_theorem1_a001": (
        '{"condition": {"control": "0.01", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example3", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [0.01, 0.001, '
        '0.0001, 1e-05], "model": "log", "slope": '
        '0.0027933829743834733, "values": [3.1128635313662705, '
        '3.1207928954686377, 3.1266701849699214, '
        '3.1323444415186383]}, "estimate": null, "quadrature": null, '
        '"verdict": "inconclusive"}'
    ),
    "example3_theorem1_a05": (
        '{"condition": {"control": "0.5", "epsilon": 0.5, '
        '"estimator": null, "kind": "theorem1", "levels": null, '
        '"model": "example3", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [0.01, 0.001, '
        '0.0001, 1e-05], "model": "log", "slope": '
        '0.07038483575292255, "values": [2.0242168461774277, '
        '2.1879505974307105, 2.349400656950046, '
        '2.5106237382626957]}, "estimate": null, "quadrature": null, '
        '"verdict": "diverging"}'
    ),
    "example2_jacod": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "jacod", "levels": null, '
        '"model": "example2", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [10.0, 20.0, 40.0, '
        '80.0], "model": "linear", "slope": 0.3678797606932845, '
        '"values": [4.478695274907739, 8.15752308869679, '
        '15.515111913642155, 30.230289560499855]}, "estimate": '
        'null, "quadrature": null, "verdict": "diverging"}'
    ),
    "example3_jacod": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "jacod", "levels": null, '
        '"model": "example3", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [10.0, 20.0, 40.0, '
        '80.0], "model": "linear", "slope": 0.4282041940719589, '
        '"values": [5.213105763338525, 9.495182864194383, '
        '18.05925930906659, 35.187412195280615]}, "estimate": null, '
        '"quadrature": null, "verdict": "diverging"}'
    ),
    "example1_lemma1": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "lemma1", "levels": null, '
        '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": null, "estimate": null, '
        '"quadrature": 0.11362226127265654, "verdict": "finite"}'
    ),
    "example2_lemma1": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "lemma1", "levels": null, '
        '"model": "example2", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": null, "estimate": null, '
        '"quadrature": 0.3318185636717228, "verdict": "finite"}'
    ),
    "example3_lemma1": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "lemma1", "levels": null, '
        '"model": "example3", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": null, "estimate": null, '
        '"quadrature": 0.6049890133283415, "verdict": "finite"}'
    ),
    "example2_protter_shimbo": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "protter_shimbo", '
        '"levels": null, "model": "example2", "n": 0, "seed": 0, '
        '"streams": 1, "times": []}, '
        '"divergence": {"levels": [242582597.20489514, '
        '1.1769263341850998e+17, 2.770311192196755e+34, '
        '1.5349248203221212e+69], "model": "linear", "slope": 1.0, '
        '"values": [242582587.20489514, 1.1769263341850997e+17, '
        '2.770311192196755e+34, 1.5349248203221212e+69]}, '
        '"estimate": null, "quadrature": null, '
        '"verdict": "diverging"}'
    ),
    "example2_lepingle_memin": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "lepingle_memin", '
        '"levels": null, "model": "example2", "n": 0, "seed": 0, '
        '"streams": 1, "times": []}, '
        '"divergence": {"levels": [176274.1625084263, '
        '8732973739.812397, 8.944640139806761e+18, '
        '4.3216854598269374e+36], "model": "linear", '
        '"slope": 0.9999999999999999, '
        '"values": [176264.1625084263, 8732973719.812397, '
        '8.944640139806761e+18, 4.3216854598269374e+36]}, '
        '"estimate": null, "quadrature": null, '
        '"verdict": "diverging"}'
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, all_models):
    name, spec, times = CASES[case]
    model = {m.name: m for m in all_models}[name]
    report = evaluate_condition(model, spec, times=times)
    assert json.dumps(report.to_json(), sort_keys=True) == GOLDEN[case]


#: sha256 of the ``reproduce`` document as ``doleans reproduce --seed 7``
#: writes it (``json.dumps(doc, indent=2) + "\n"``) at the default 200k
#: Monte Carlo paths, one per counterexample suite.
REPRODUCE_SHA256 = {
    1: "45771ee7b66475b321702ab7ff78e3854fdb5322ec8a7bab3557c0b3c5be6d06",
    2: "02df755783552975f4adea3ddaed2b60a4018705a57c832a27769383ca129f88",
    3: "55dd4107ee933645a5fb7c6a48f300f4c2bbd9d9060a8b27400a50161b22aea4",
}


@pytest.mark.parametrize("which", sorted(REPRODUCE_SHA256))
def test_reproduce_bytes_unchanged(which):
    text = json.dumps(run_reproduction(which, 7, 200_000), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPRODUCE_SHA256[which]


#: sha256 of the stdout of ``doleans <command> --model <model> --n 5
#: --seed 7 --format <format>``: the sampler's paths and their exponentials.
SAMPLER_SHA256 = {
    ("sample", "example1", "json"):
        "5c766987f5abdb8449f5fb3c9fd13931f3ebf094fced2f26a326969c3874c649",
    ("sample", "example1", "csv"):
        "77cd5d2225bb1fbf39b54281388a04647cc0ff8bf22b14125613ffeefbd19e1b",
    ("sample", "example2", "json"):
        "bbd4c8de97948af9d33c661e18685298493c587fbfd429460ac8de9f0d365a92",
    ("sample", "example2", "csv"):
        "bd141233044c3a36b1cc068e93087f072ca8fcf7be56202b227a7af2f35aed94",
    ("sample", "example3", "json"):
        "84d3098e97d6485fdd87da3475df3d6de33c08bc581b208376307b0078f19dd2",
    ("sample", "example3", "csv"):
        "aa04975c492e33d0c55f483da66055db7e4a38b2176a72ed6a2d50e5276d5652",
    ("exponential", "example1", "json"):
        "8a2cb5b8d343942164db02ac38a99a1c8ebd3a169a254e58cc5f4f9814ef827d",
    ("exponential", "example1", "csv"):
        "2fede3b84a2d4ea6d04add111f59102aa106a47d4863a64113bd4e969b906842",
    ("exponential", "example2", "json"):
        "879887e8371274947d85f0f71994b6c4fb1c64ada3b94ef411afad4823ecbc99",
    ("exponential", "example2", "csv"):
        "d8c4f6561d581e398eca43f79baf0e226bd64d94fe049179e3fe4d269922a53e",
    ("exponential", "example3", "json"):
        "eac95e184dae24fcbeec51107136493ecc8bcf1b7fde6ca2cca3a9b88489f06c",
    ("exponential", "example3", "csv"):
        "65824234765f7cbe3efc10e3bcf48cab67d4906bb154bdfeb97b913a87dc9e92",
}


@pytest.mark.parametrize("command, model, fmt", sorted(SAMPLER_SHA256))
def test_sampler_bytes_unchanged(capsys, command, model, fmt):
    code = main([command, "--model", model, "--n", "5", "--seed", "7",
                 "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        SAMPLER_SHA256[(command, model, fmt)]
