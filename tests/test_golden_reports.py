"""Golden report bytes: default-level ``n = 0`` verdicts must not change.

Per-node speedups of the quadrature route (the driver-law callables, the
pathwise functionals) are only admissible when every output bit stays the
same.  These strings are ``json.dumps(report.to_json(), sort_keys=True)``
of reports covering ``jacod``, ``theorem1`` with constant and indicator
controls and family times, and ``lemma1`` on all three models.
"""

import json

import pytest

from doleans import (
    ConditionSpec,
    PredictableControl,
    control_indicator_after,
    evaluate_condition,
)

CASES = {
    "example1_jacod": ("example1", ConditionSpec("jacod"), ()),
    "example1_theorem1_a1": (
        "example1", ConditionSpec("theorem1", PredictableControl.constant(1.0)), ()),
    "example2_theorem1_a05_times": (
        "example2", ConditionSpec("theorem1", PredictableControl.constant(0.5)),
        (0.5, 2.0)),
    "example3_theorem1_indicator": (
        "example3", ConditionSpec("theorem1", control_indicator_after(1.0)), ()),
    "example1_lemma1": ("example1", ConditionSpec("lemma1"), ()),
    "example2_lemma1": ("example2", ConditionSpec("lemma1"), ()),
    "example3_lemma1": ("example3", ConditionSpec("lemma1"), ()),
}

GOLDEN = {
    "example1_jacod": (
        '{"condition": {"control": null, "epsilon": null, '
        '"estimator": null, "kind": "jacod", "levels": null, '
        '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
        '"times": []}, "divergence": {"levels": [0.01, 0.001, 0.0001, '
        '1e-05], "model": "log", "slope": 0.5000000000002042, '
        '"values": [2.832539947105569, 3.983832493602624, '
        '5.135125040099435, 6.286417586598278]}, "estimate": null, '
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
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, all_models):
    name, spec, times = CASES[case]
    model = {m.name: m for m in all_models}[name]
    report = evaluate_condition(model, spec, times=times)
    assert json.dumps(report.to_json(), sort_keys=True) == GOLDEN[case]
