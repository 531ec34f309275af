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
documents, Monte Carlo rows included, the ``n >= 2`` cross-check reports
of ``test_batch.CROSSCHECK_SPECS``, and the ``sample`` and ``exponential``
output are pinned by digest.

The bytes hold on one NumPy dispatch target (see ``dispatch.py``): each
table below is the base, and ``*_BY_TARGET`` holds, per target
fingerprint, the entries where that target's bytes differ from it.  An
unknown target fails every test here; ``test_dispatch.py`` runs this file
under every target the CPU can emulate.

A re-pin is allowed only for a change that regroups the quadrature or
changes the source of the transcendentals on purpose, and only when a
script compares every old and new report, ``reproduce`` document and
sampler output leaf by leaf and shows that no verdict, probe level,
count or seed moved, and that every moved number moved by at most 1e-11
relative, with the moved values held to an independent oracle
(``test_mpmath_oracle.py``).  The base tables are never edited: a new
target or a re-pin adds ``*_BY_TARGET`` entries.
"""

import hashlib
import json

import pytest

from doleans import (
    ConditionSpec,
    PredictableControl,
    SeedSpec,
    control_indicator_after,
    evaluate_condition,
)
from doleans.cli import main, run_reproduction
from dispatch import AVX512, NO_AVX512, pinned
from test_batch import CROSSCHECK_SPECS

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


GOLDEN_BY_TARGET = {
    AVX512: {
        "example1_theorem1_a0999": (
            '{"condition": {"control": "0.999", "epsilon": 0.5, '
            '"estimator": null, "kind": "theorem1", "levels": null, '
            '"model": "example1", "n": 0, "seed": 0, "streams": 1, '
            '"times": []}, "divergence": {"levels": [0.01, 0.001, '
            '0.0001, 1e-05], "model": "log", "slope": '
            '0.0011696631992854113, "values": [1.2453295094788723, '
            '1.2509763020253695, 1.2525771445718665, '
            '1.2537733921183678]}, "estimate": null, "quadrature": '
            'null, "verdict": "inconclusive"}'
        ),
        "example2_lemma1": (
            '{"condition": {"control": null, "epsilon": null, '
            '"estimator": null, "kind": "lemma1", "levels": null, '
            '"model": "example2", "n": 0, "seed": 0, "streams": 1, '
            '"times": []}, "divergence": null, "estimate": null, '
            '"quadrature": 0.3318185636717227, "verdict": "finite"}'
        ),
        "example2_lepingle_memin": (
            '{"condition": {"control": null, "epsilon": null, '
            '"estimator": null, "kind": "lepingle_memin", '
            '"levels": null, "model": "example2", "n": 0, "seed": 0, '
            '"streams": 1, "times": []}, '
            '"divergence": {"levels": [176274.1625084263, '
            '8732973739.812397, 8.944640139806759e+18, '
            '4.3216854598269374e+36], "model": "linear", '
            '"slope": 0.9999999999999999, '
            '"values": [176264.1625084263, 8732973719.812397, '
            '8.944640139806759e+18, 4.3216854598269374e+36]}, '
            '"estimate": null, "quadrature": null, '
            '"verdict": "diverging"}'
        ),
        "example2_protter_shimbo": (
            '{"condition": {"control": null, "epsilon": null, '
            '"estimator": null, "kind": "protter_shimbo", '
            '"levels": null, "model": "example2", "n": 0, "seed": 0, '
            '"streams": 1, "times": []}, '
            '"divergence": {"levels": [242582597.20489514, '
            '1.1769263341851e+17, 2.770311192196755e+34, '
            '1.5349248203221212e+69], "model": "linear", "slope": 1.0, '
            '"values": [242582587.20489514, 1.1769263341850998e+17, '
            '2.770311192196755e+34, 1.5349248203221212e+69]}, '
            '"estimate": null, "quadrature": null, '
            '"verdict": "diverging"}'
        ),
    },
    NO_AVX512: {},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_bytes_unchanged(case, all_models):
    name, spec, times = CASES[case]
    model = {m.name: m for m in all_models}[name]
    report = evaluate_condition(model, spec, times=times)
    assert json.dumps(report.to_json(), sort_keys=True) == \
        pinned(GOLDEN, GOLDEN_BY_TARGET)[case]


#: sha256 of ``json.dumps(report.to_json(), sort_keys=True)`` for each
#: Monte Carlo cross-check of ``CROSSCHECK_SPECS`` at ``SeedSpec(12345, 16)``
#: and ``n = 20_000``: the importance-sampled estimates (proposal, draws,
#: weights, batch kernels) and the plain ``lemma1`` ones.
CROSSCHECK_SHA256 = {
    ("example1", "theorem1(a=1.0, eps=0.5)"):
        "f1ab4a93a592fa14a3c26ceed3cfd5e4bad541072a1dcad99129cb6bd6930229",
    ("example2", "theorem1(a=0.6, eps=0.5)"):
        "e9d7058810238542b3a1675d89f3bb25555c4ff51c9c6febc326919ecfda078b",
    ("example3", "theorem1(a=indicator:1.0, eps=0.5)"):
        "d9319db475fdf798bc9ac829d093d46f0611c046fbd5c4902e18dd9a7dfc692f",
    ("example3", "theorem1(a=0.3, eps=0.5)"):
        "2c4e6beef85f24d36d909c80ecb596683b804e037fdd195c433c33a2a0c54a47",
    ("example1", "jacod"):
        "c19acee76e60da4b13008ea65eb977862bf6d9d1c50175ecf4988d27a63ca87d",
    ("example1", "lemma1"):
        "05d742d26092f42abf936c499aeee465e2a3b6c5073d2d84d62a34a4f4063ae1",
    ("example2", "lemma1"):
        "8acffdae55114d38708fc51dc8f82bfe211a7213814c9eb2589a44d88a19df2e",
    ("example3", "lemma1"):
        "9a6c059dc95deb9acd3c3f27b792d0066f0bf6a729f9bead0ef5a5a54ae50468",
}

CROSSCHECK_SHA256_BY_TARGET = {
    AVX512: {
        ("example2", "theorem1(a=0.6, eps=0.5)"):
            "19cf881a031d54cc33debf59fd7bfb2ea701a219b0b56ad94c25a4141cc768b8",
        ("example3", "theorem1(a=indicator:1.0, eps=0.5)"):
            "063b131c3a50c214cffa051628ca95ab32beae39306417fd2d595d761b47d28a",
        ("example3", "theorem1(a=0.3, eps=0.5)"):
            "dab6795cc183400707a01bea4a3ed5c74d7554ffdcb097800171110ec51520e9",
        ("example2", "lemma1"):
            "8de250998bdb40f8ad08272c6fc534d4ab3f58b73d0e9b3cff447ccd3c534f40",
    },
    NO_AVX512: {
        ("example1", "jacod"):
            "40918052b0217b6d21e8b00e88b43ef1dc535baebbccbc92c2d5f1f5be4166c7",
    },
}


@pytest.mark.parametrize("name, spec", CROSSCHECK_SPECS,
                         ids=[f"{n} {s.label()}" for n, s in CROSSCHECK_SPECS])
def test_crosscheck_bytes_unchanged(all_models, name, spec):
    model = {m.name: m for m in all_models}[name]
    report = evaluate_condition(model, spec, SeedSpec(12345, 16), 20_000)
    text = json.dumps(report.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        pinned(CROSSCHECK_SHA256, CROSSCHECK_SHA256_BY_TARGET)[(name, spec.label())]


#: sha256 of the ``reproduce`` document as ``doleans reproduce --seed 7``
#: writes it (``json.dumps(doc, indent=2) + "\n"``) at the default 200k
#: Monte Carlo paths, one per counterexample suite.
REPRODUCE_SHA256 = {
    1: "45771ee7b66475b321702ab7ff78e3854fdb5322ec8a7bab3557c0b3c5be6d06",
    2: "02df755783552975f4adea3ddaed2b60a4018705a57c832a27769383ca129f88",
    3: "55dd4107ee933645a5fb7c6a48f300f4c2bbd9d9060a8b27400a50161b22aea4",
}

REPRODUCE_SHA256_BY_TARGET = {
    AVX512: {
        2: "cb26799af94561565e537b3d1faa0771e72b42e4dce3793c52f45fd287683f2c",
        3: "79a04259e300267c4fe18be70e30bb23255793bbacb8e4568a5d9d68baa17e42",
    },
    NO_AVX512: {},
}


@pytest.mark.parametrize("which", sorted(REPRODUCE_SHA256))
def test_reproduce_bytes_unchanged(which):
    text = json.dumps(run_reproduction(which, 7, 200_000), indent=2) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == \
        pinned(REPRODUCE_SHA256, REPRODUCE_SHA256_BY_TARGET)[which]


#: sha256 of the stdout of ``doleans <command> --model <model> --n 5
#: --seed 7 --format <format>``: the sampler's paths and their exponentials.
SAMPLER_SHA256 = {
    ("sample", "example1", "json"):
        "fe386943a62c9b4008cc0a411f435502f41c7de49c8f1594d5ce7248f3626a2a",
    ("sample", "example1", "csv"):
        "9bdfe525066e1806b6b94df2a3c13e185c0b144a67858876544624502a50f110",
    ("sample", "example2", "json"):
        "2e981a3b6ad21c9127caffe960c3cc6d8a0db440aa776b5ac9f3242ab3e280ec",
    ("sample", "example2", "csv"):
        "10e315895a16c70cf25cac0749a536b04d7ee2e87836c94153f101c81b158950",
    ("sample", "example3", "json"):
        "6fe56031090cf8cea647972595fd667b7d0232a408bf9c54f9d5f9287bc39211",
    ("sample", "example3", "csv"):
        "6cd7dd91525ceae65a1826eb03590efbda55bf120b0262240b2815a3911613cf",
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

SAMPLER_SHA256_BY_TARGET = {
    AVX512: {
        ("exponential", "example2", "csv"):
            "8b630ca60033b53975a796fb87768584aa3d509d5a3ffa894c5b594a93dec899",
        ("exponential", "example2", "json"):
            "9c9e29ce1b2b28191c01168c08094beb2e7e4bed8bffd1e6d757511ebb39f06d",
        ("exponential", "example3", "csv"):
            "499dda6763fbd3fc8894e7b8163067151f08097e898e97db5db1fdc15fe37910",
        ("exponential", "example3", "json"):
            "65bc7c7908f2f0cc7e7bc38975f044dcd1ded4e10fd8aebb4453605f69af02f9",
    },
    NO_AVX512: {
        ("exponential", "example3", "csv"):
            "4d5a3eb6f49e2bb0e374d2a5f47061aa7e599fa1b2d4f95bc4c5bfc0c977235f",
        ("exponential", "example3", "json"):
            "ab43166244c109defc63f22efe8aeb5195160534798edf7e2c243772522b2c7f",
        ("sample", "example3", "csv"):
            "97a561787b6be8884263ed09fde85ac30d32a7cffe94837759b58d77ff5a9701",
        ("sample", "example3", "json"):
            "72285487f27e9f81a046586223f3841e24fd9e21ef17f460689f4590c4218e31",
    },
}


@pytest.mark.parametrize("command, model, fmt", sorted(SAMPLER_SHA256))
def test_sampler_bytes_unchanged(capsys, command, model, fmt):
    code = main([command, "--model", model, "--n", "5", "--seed", "7",
                 "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        pinned(SAMPLER_SHA256, SAMPLER_SHA256_BY_TARGET)[(command, model, fmt)]
