"""File format and CLI contract tests."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmod import cli, core, families, fileio, structure
from pmod.errors import ParseError, PythagoreanViolation, ShapeError, TooLarge

from conftest import d2_display_pair, atomic_emergence_pair, leg_defect


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env() -> dict:
    """The environment of a fresh interpreter that imports pmod from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


# ---------------------------------------------------------------------------
# File format.
# ---------------------------------------------------------------------------


def test_parse_unit_module_example():
    text = '{"arity":2,"dim":1,"legs":[[[[0.70710678,0]]],[[[0.70710678,0]]]]}'
    module, meta = fileio.parse_module_file(text)
    assert module.dim == 1 and module.arity == 2
    assert core.validate(module, tol=1e-8).passed
    assert meta == {}


def test_parse_rejects_identity_violation():
    text = '{"arity":2,"dim":1,"legs":[[[[1,0]]],[[[1,0]]]]}'
    with pytest.raises(PythagoreanViolation) as err:
        fileio.parse_module_file(text)
    assert abs(err.value.residual - 1.0) < 1e-12


def test_parse_position_annotated_errors():
    with pytest.raises(ParseError):
        fileio.parse_module_file("{not json")
    bad_entry = '{"arity":2,"dim":1,"legs":[[[[0.7,0,0]]],[[[0.7,0]]]]}'
    with pytest.raises(ShapeError) as err:
        fileio.parse_module_file(bad_entry)
    assert "legs[0][0][0]" in str(err.value)
    with pytest.raises(ShapeError):
        fileio.parse_module_file('{"arity":2,"dim":2,"legs":[[],[]]}')
    with pytest.raises(ShapeError):
        fileio.parse_module_file('{"arity":1,"dim":1,"legs":[[[[1,0]]]]}')


def test_serialize_parse_roundtrip_atomic():
    m = families.atomic_module(families.AtomicLabel("01", 1j))
    text = fileio.serialize_module(m, metadata={"name": "shift"})
    back, meta = fileio.parse_module_file(text)
    assert meta == {"name": "shift"}
    assert leg_defect(back, m) <= 1e-12


def test_roundtrip_12_significant_digits():
    m = families.random_module(3, "N", seed=9)
    back, _ = fileio.parse_module_file(fileio.serialize_module(m))
    for x, y in zip(m.legs, back.legs):
        assert np.max(np.abs(x - y)) <= 1e-11 * max(1.0, np.max(np.abs(x)))


def test_render_byte_identical():
    m = families.random_module(2, "N", seed=10)
    rep = core.validate(m)
    assert fileio.render_report(rep, "json") == fileio.render_report(rep, "json")
    assert fileio.serialize_module(m) == fileio.serialize_module(m)


def test_render_json_sorted_keys():
    payload = fileio.render_report(core.validate(core.unit_module()), "json")
    parsed = json.loads(payload)
    assert list(parsed) == sorted(parsed)


# JSON text with huge integer literals (("big", n) is n nines, past the float
# range and, beyond 4300 digits, past Python's int-parsing limit), NaN and
# Infinity, wrong types, ragged rows and deep nesting.
def _json_text(v) -> str:
    if isinstance(v, tuple):
        return "9" * v[1]
    if isinstance(v, list):
        return "[" + ",".join(map(_json_text, v)) + "]"
    if isinstance(v, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{_json_text(x)}" for k, x in v.items()) + "}"
    return json.dumps(v)


_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.tuples(st.just("big"), st.sampled_from([310, 400, 5000])),
)
_values = st.recursive(
    _scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)
_entries = st.one_of(
    *(st.lists(x, min_size=2, max_size=2) for x in (st.floats(-1, 1), st.floats(), _scalars)), _values
)
_modules = st.fixed_dictionaries(
    {"arity": st.one_of(st.just(2), _scalars), "dim": st.one_of(st.integers(0, 2), _scalars),
     "legs": st.lists(st.lists(st.lists(_entries, max_size=3), max_size=3), max_size=3)},
    optional={"metadata": _values},
)
_gp_vectors = st.one_of(st.lists(st.lists(_entries, min_size=2, max_size=2), max_size=3), _values)
_deep = st.tuples(st.integers(1, 5000), st.sampled_from(["", "1", "]", "{}"])).map(lambda t: "[" * t[0] + t[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=st.one_of(_modules.map(_json_text), _values.map(_json_text), _deep))
def test_parse_module_file_fuzz(text):
    with contextlib.suppress(ParseError):  # anything else fails the test
        fileio.parse_module_file(text)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(text=st.one_of(_gp_vectors.map(_json_text), _deep))
def test_parse_gp_vector_fuzz(text):
    with contextlib.suppress(ParseError):
        fileio.parse_gp_vector(text)


# ---------------------------------------------------------------------------
# Output bytes, pinned. Files and JSON reports are laid out as
# json.dumps(sort_keys=True, indent=2) lays out nested lists of floats rounded
# to 12 significant digits. The golden literals pin small cases byte for byte;
# the references rebuild larger ones with json.dumps itself.
# ---------------------------------------------------------------------------


def small_module():
    return core.PModule(
        legs=(np.array([[0.6, 0], [0, 0.8j]]), np.array([[0, 0.6j], [-0.8, 0]]))
    )


SMALL_META = {"class_tag": "N", "name": "shift", "seed": 7}


def edge_module():
    """Signed zeros, a small and a huge exponent, subnormals, 12-digit ties."""
    return core.PModule(
        legs=(
            np.array(
                [
                    [complex(0.0, -0.0), complex(-0.0, 1e-5)],
                    [complex(1e16, -1e16), complex(5e-324, 123456789012.5)],
                ]
            ),
            np.array(
                [
                    [complex(1 / 3, -2 / 3), complex(0.1 + 0.2, -2.5e-7)],
                    [complex(1e12, -5e-324), complex(999999999999.5, 1.0)],
                ]
            ),
        )
    )


SMALL_JSON = """\
{
  "arity": 2,
  "dim": 2,
  "legs": [
    [
      [
        [
          0.6,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ],
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.8
        ]
      ]
    ],
    [
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          0.6
        ]
      ],
      [
        [
          -0.8,
          0.0
        ],
        [
          0.0,
          0.0
        ]
      ]
    ]
  ],
  "metadata": {
    "class_tag": "N",
    "name": "shift",
    "seed": 7
  }
}"""

SMALL_TEXT = """\
arity: 2
dim: 2
legs: [[[[0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.8]]], [[[0.0, 0.0], [0.0, 0.6]], [[-0.8, 0.0], [0.0, 0.0]]]]
metadata:
  class_tag: "N"
  name: "shift"
  seed: 7"""

EDGE_JSON = """\
{
  "arity": 2,
  "dim": 2,
  "legs": [
    [
      [
        [
          0.0,
          0.0
        ],
        [
          0.0,
          1e-05
        ]
      ],
      [
        [
          1e+16,
          -1e+16
        ],
        [
          5e-324,
          123456789012.0
        ]
      ]
    ],
    [
      [
        [
          0.333333333333,
          -0.666666666667
        ],
        [
          0.3,
          -2.5e-07
        ]
      ],
      [
        [
          1000000000000.0,
          -5e-324
        ],
        [
          1000000000000.0,
          1.0
        ]
      ]
    ]
  ]
}"""

EDGE_TEXT = """\
arity: 2
dim: 2
legs: [[[[0.0, 0.0], [0.0, 1e-05]], [[1e+16, -1e+16], [5e-324, 123456789012.0]]], [[[0.333333333333, -0.666666666667], [0.3, -2.5e-07]], [[1000000000000.0, -5e-324], [1000000000000.0, 1.0]]]]"""


def test_render_golden_small_cases():
    m = small_module()
    assert fileio.serialize_module(m, SMALL_META) == SMALL_JSON
    assert fileio.render_module(m, SMALL_META, "json") == SMALL_JSON
    assert fileio.render_module(m, SMALL_META, "text") == SMALL_TEXT
    e = edge_module()
    assert fileio.serialize_module(e) == EDGE_JSON
    assert fileio.render_report(e, "json") == EDGE_JSON
    assert fileio.render_report(e, "text") == EDGE_TEXT


def ref_number(x):
    return float(f"{x:.12g}") or 0.0  # -0.0 is written as 0.0


def ref_pair(z):
    return [ref_number(z.real), ref_number(z.imag)]


def ref_matrix(m):
    return [[ref_pair(z) for z in row] for row in np.asarray(m)]


def ref_module(m):
    return {"arity": m.arity, "dim": m.dim, "legs": [ref_matrix(leg) for leg in m.legs]}


def ref_text(payload, indent=""):
    """Text layout: objects nest by indentation, lists of objects list their
    items, and every other value is one line of JSON."""
    lines = []
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines += [f"{indent}{key}:", *ref_text(value, indent + "  ")]
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            lines.append(f"{indent}{key}: ({len(value)})")
            for item in value:
                lines += [*ref_text(item, indent + "  "), f"{indent}  -"]
        else:
            lines.append(f"{indent}{key}: {json.dumps(value, sort_keys=True)}")
    return lines


def assert_renders_as(report, ref):
    assert fileio.render_report(report, "json") == json.dumps(ref, sort_keys=True, indent=2)
    assert fileio.render_report(report, "text") == "\n".join(ref_text(ref))


def test_render_matches_json_reference():
    p64 = core.boxtimes(
        families.random_module(8, "N", seed=1), families.random_module(8, "N", seed=2)
    )
    k4 = core.kawamura_tensor(
        families.random_module(3, "N", seed=3), families.random_module(2, "M", seed=4)
    )
    assert p64.dim == 64 and k4.arity == 4
    for m in (p64, k4):
        assert fileio.serialize_module(m) == json.dumps(ref_module(m), sort_keys=True, indent=2)
        assert_renders_as(m, ref_module(m))
    meta = {"seed": 4, "note": "arity 4", "tags": ["M", None, 2.5]}
    ref = {**ref_module(k4), "metadata": meta}
    assert fileio.render_module(k4, meta, "json") == json.dumps(ref, sort_keys=True, indent=2)
    assert fileio.render_module(k4, meta, "text") == "\n".join(ref_text(ref))

    d2 = families.d2_fuse(*d2_display_pair())
    splits = [
        None if split is None else [{"a": ref_pair(s.a), "b": ref_pair(s.b)} for s in split]
        for split in d2.scalar_splits
    ]
    blocks = [ref_module(b) for b in d2.blocks]
    assert_renders_as(d2, {"type": "d2-fusion", "blocks": blocks, "scalar_splits": splits})

    label = families.AtomicLabel("01", 1j)
    dec = structure.decompose_full(
        core.direct_sum(families.atomic_module(label), families.random_module(2, "N", seed=5)),
        seed=1,
    )
    assert {s.label is None for s in dec.summands} == {True, False}
    summands = [
        {
            "dimension": s.dimension,
            "tag": s.tag,
            "label": None
            if s.label is None
            else {"word": s.label.word, "phase": ref_pair(s.label.phase)},
            "isometry": ref_matrix(s.isometry),
        }
        for s in dec.summands
    ]
    assert_renders_as(
        dec,
        {
            "type": "decomposition",
            "summands": summands,
            "residual_dimension": dec.residual_dimension,
            "p_dimension": dec.p_dimension,
            "confidence": dec.confidence,
            "seed": dec.seed,
        },
    )

    m = families.random_module(3, "N", seed=6)
    eq = structure.equivalent(m, core.conjugate(m, np.eye(3)[[2, 0, 1]].astype(complex)))
    assert eq.verdict is True and eq.witness is not None
    witness = ref_matrix(eq.witness)
    assert_renders_as(
        eq, {"type": "equivalence", "verdict": True, "reason": eq.reason, "witness": witness}
    )


# ---------------------------------------------------------------------------
# CLI subcommands and exit codes.
# ---------------------------------------------------------------------------


@pytest.fixture
def files(tmp_path):
    def write(name, module, metadata=None):
        path = tmp_path / name
        path.write_text(fileio.serialize_module(module, metadata))
        return str(path)

    return tmp_path, write


def test_cli_validate_pass(files, capsys):
    _, write = files
    path = write("unit.json", core.unit_module())
    code, out, _ = run_cli(capsys, "validate", path)
    assert code == 0
    assert "passed: true" in out


def test_cli_validate_reports_failure(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"arity":2,"dim":1,"legs":[[[[1,0]]],[[[1,0]]]]}')
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert "passed: false" in out
    assert "1.0" in out


def test_cli_validate_overflow_is_standard_json(capsys, tmp_path, recwarn):
    # Squares of 1e155 leave the float range: the residual is infinite, which
    # JSON writes as null; the text layout still reads Infinity.
    bad = tmp_path / "huge.json"
    bad.write_text('{"arity":2,"dim":1,"legs":[[[[1e155,0]]],[[[0.5,0]]]]}')
    code, out, _ = run_cli(capsys, "validate", str(bad), "--format", "json")

    def reject(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    assert code == 1
    assert json.loads(out, parse_constant=reject)["residual"] is None
    code, out, _ = run_cli(capsys, "validate", str(bad))
    assert code == 1
    assert out == 'passed: false\nresidual: Infinity\ntol: 1e-09\ntype: "validation"\n'
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_cli_fuse_and_roundtrip(files, capsys):
    _, write = files
    a = write("a.json", families.random_module(2, "N", seed=1))
    b = write("b.json", families.random_module(2, "N", seed=2))
    code, out, _ = run_cli(capsys, "fuse", a, b, "--format", "json")
    assert code == 0
    fused, _ = fileio.parse_module_file(out)
    want = core.boxtimes(
        families.random_module(2, "N", seed=1), families.random_module(2, "N", seed=2)
    )
    assert leg_defect(fused, want) <= 1e-10


def test_cli_fuse_and_dual_at_tol_0(capsys, tmp_path):
    # The Gram matrices pmod forms itself are exactly Hermitian, so --tol 0
    # passes the Hermiticity gate and prints what the default tolerance does.
    path = str(tmp_path / "x.json")
    for dim, seed in ((3, 7), (3, 1), (2, 1), (6, 1)):
        code, sample, _ = run_cli(capsys, "sample", "--dim", str(dim), "--seed", str(seed), "--format", "json")
        assert code == 0
        Path(path).write_text(sample, encoding="utf-8")
        for argv in (("fuse", path, path), ("dual", path)):
            default = run_cli(capsys, *argv, "--format", "json")
            assert default[0] == 0
            assert run_cli(capsys, *argv, "--format", "json", "--tol", "0") == default


def test_cli_fuse_kernel_overlap_exit_1(files, capsys):
    _, write = files
    a = write("p10.json", core.scalar_module(1.0, 0.0))
    b = write("p01.json", core.scalar_module(0.0, 1.0))
    code, _, err = run_cli(capsys, "fuse", a, b)
    assert code == 1
    assert "KernelOverlap" in err


def test_cli_parse_error_exit_2(files, capsys, tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    good = tmp_path / "good.json"
    good.write_text(fileio.serialize_module(core.unit_module()))
    code, _, err = run_cli(capsys, "fuse", str(broken), str(good))
    assert code == 2
    assert "ParseError" in err
    code, _, err = run_cli(capsys, "fuse", str(tmp_path / "missing.json"), str(good))
    assert code == 2


def test_cli_deeply_nested_module_file_exit_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "validate", str(deep))
    assert (code, out) == (2, "")
    assert err.startswith("ERROR ParseError: malformed JSON")


def test_cli_deeply_nested_gp_vector_exit_2(capsys):
    code, out, err = run_cli(capsys, "gp-fuse", "--z", "[" * 200_000, "--zt", "[[[1,0],[0,0]]]")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR ParseError: malformed GP vector JSON")


def test_cli_huge_integer_module_entry_exit_2(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text('{"arity":2,"dim":1,"legs":[[[[1' + "0" * 400 + ',0]]],[[[0,0]]]]}')
    code, out, err = run_cli(capsys, "validate", str(huge))
    assert (code, out) == (2, "")
    assert err.startswith("ERROR ShapeError: legs[0][0][0]: integer entry too large")


def test_cli_huge_integer_gp_entry_exit_2(capsys):
    z = "[[[1" + "0" * 400 + ",0],[0,0]]]"
    code, out, err = run_cli(capsys, "gp-fuse", "--z", z, "--zt", "[[[1,0],[0,0]]]")
    assert (code, out) == (2, "")
    assert err.startswith("ERROR ShapeError: entry 0.a: integer entry too large")


def test_cli_pythagorean_violation_exit_2(files, capsys, tmp_path):
    bad = tmp_path / "viol.json"
    bad.write_text('{"arity":2,"dim":1,"legs":[[[[1,0]]],[[[1,0]]]]}')
    good = tmp_path / "good.json"
    good.write_text(fileio.serialize_module(core.unit_module()))
    code, _, err = run_cli(capsys, "fuse", str(bad), str(good))
    assert code == 2
    assert "PythagoreanViolation" in err


def test_cli_dual_not_invertible_exit_1(files, capsys):
    # A singular leg, and a --tol whose rank floor keeps no singular value.
    _, write = files
    singular = write("p10.json", core.scalar_module(1.0, 0.0))
    generic = write("n4.json", families.random_module(4, "N", seed=1))
    for argv in ((singular,), (generic, "--tol", "1"), (generic, "--tol", "inf")):
        code, _, err = run_cli(capsys, "dual", *argv)
        assert code == 1
        assert "NotInvertible" in err


def test_cli_refused_or_exhausted_solve_exits_1(files, capsys, monkeypatch):
    # A solve refused by its size cap, and numpy running out of memory where
    # no cap applies, are each exit 1 with one ERROR line.
    _, write = files
    path = write("a.json", families.random_module(2, "N", seed=1))
    for exc in (TooLarge("the commutation fold would need 2 GiB"), MemoryError("out of memory")):
        def refuse(*args, exc=exc):
            raise exc
        monkeypatch.setattr(core, "boxtimes", refuse)
        code, out, err = run_cli(capsys, "fuse", path, path)
        assert (code, out) == (1, "")
        assert err == f"ERROR {type(exc).__name__}: {exc}\n"


def test_cli_closed_stdout_exits_1_without_traceback(files):
    # The reader is gone before the child writes, as when ``pmod fuse ... | head``
    # has read its fill: exit 1 and no traceback on stderr.
    _, write = files
    path = write("a.json", families.random_module(4, "N", seed=1))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pmod.cli", "fuse", path, path, "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=child_env(), timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert b"Traceback" not in done.stderr


def test_cli_usage_error_exit_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main(["decompose"]) == 2  # missing file and --seed
    capsys.readouterr()


def test_cli_nan_tolerance_is_a_usage_error(files, capsys):
    # No comparison with NaN holds, so --tol nan is refused where it is
    # parsed, naming --tol, and not blamed on the file; so is a non-number.
    _, write = files
    path = write("unit.json", core.unit_module())
    for tol in ("nan", "NaN", "x"):
        code, out, err = run_cli(capsys, "validate", path, "--tol", tol)
        assert (code, out) == (2, "")
        assert f"argument --tol: expected a number other than NaN, got '{tol}'" in err


@pytest.mark.parametrize("tol", ["0.99", "1", "inf"])
def test_cli_structure_commands_at_a_large_tolerance(files, capsys, tol):
    # At such a tolerance the walk meets eigenvalues off the unit circle,
    # where the word is not isometric: no atom is read there, and the atom
    # 01 at phase i and the diffuse N(3) are still found.
    _, write = files
    atom = families.atomic_module(families.AtomicLabel("01", 1j))
    path = write("s.json", core.direct_sum(atom, families.random_module(3, "N")))
    code, out, _ = run_cli(capsys, "atomic", path, "--tol", tol, "--format", "json")
    assert code == 0
    got = [(x["word"], x["phase"], x["dimension"]) for x in json.loads(out)["summands"]]
    assert got == [("01", [0.0, 1.0], 2)]
    code, out, _ = run_cli(capsys, "classify", path, "--tol", tol, "--format", "json")
    r = json.loads(out)
    assert code == 0
    assert (r["atomic_dim"], r["diffuse_dim"], r["residual_dim"], r["confidence"]) == (2, 3, 0, "certified")
    code, out, _ = run_cli(capsys, "decompose", path, "--seed", "0", "--tol", tol, "--format", "json")
    r = json.loads(out)
    assert code == 0
    assert [(x["dimension"], x["tag"]) for x in r["summands"]] == [(2, "atomic"), (3, "diffuse")]
    assert r["confidence"] == "certified"


def test_cli_gp_fuse_lengths(capsys):
    z = json.dumps([[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0], [0.0, 0.6]]])
    zt = json.dumps(
        [[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]], [[0.0, 0.6], [0.8, 0.0]]]
    )
    code, out, _ = run_cli(capsys, "gp-fuse", "--z", z, "--zt", zt, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 1
    assert len(payload["vectors"][0]) == 6


def test_cli_decompose_d2_product(files, capsys):
    _, write = files
    m, mt = d2_display_pair()
    path = write("d2prod.json", core.boxtimes(m, mt))
    code, out, _ = run_cli(
        capsys, "decompose", path, "--seed", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["type"] == "decomposition"
    assert [s["dimension"] for s in payload["summands"]] == [1, 1, 1, 1]
    assert payload["p_dimension"] == 4


def test_cli_classify_atomic_emergence_product(files, capsys):
    _, write = files
    m, mt = atomic_emergence_pair()
    path = write("prod45.json", core.boxtimes(m, mt))
    code, out, _ = run_cli(capsys, "classify", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["atomic_dim"] == 1
    assert payload["diffuse_dim"] == 3
    assert payload["atomic"][0]["word"] == "1"


def test_cli_equiv_and_determinism(files, capsys):
    _, write = files
    a = write("a.json", families.random_module(2, "N", seed=21))
    b = write("b.json", families.random_module(2, "N", seed=22))
    code, out1, _ = run_cli(capsys, "equiv", a, a, "--seed", "1", "--format", "json")
    assert code == 0 and json.loads(out1)["verdict"] is True
    code, out2, _ = run_cli(capsys, "equiv", a, b, "--seed", "1", "--format", "json")
    assert code == 0 and json.loads(out2)["verdict"] is False
    _, rerun, _ = run_cli(capsys, "equiv", a, b, "--seed", "1", "--format", "json")
    assert rerun == out2


def test_cli_sample_deterministic_and_valid(capsys):
    code, out1, _ = run_cli(
        capsys, "sample", "--dim", "3", "--class-tag", "N", "--seed", "7", "--format", "json"
    )
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "sample", "--dim", "3", "--class-tag", "N", "--seed", "7", "--format", "json"
    )
    assert out1 == out2
    module, _ = fileio.parse_module_file(out1)
    assert core.validate(module).passed


def test_cli_atomic_and_kfuse(files, capsys):
    _, write = files
    path = write("atom.json", families.atomic_module(families.AtomicLabel("01", 1j)))
    code, out, _ = run_cli(capsys, "atomic", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summands"][0]["word"] == "01"

    unit = write("unit.json", core.unit_module())
    code, out, _ = run_cli(capsys, "kfuse", unit, unit, "--format", "json")
    assert code == 0
    assert json.loads(out)["arity"] == 4


def test_cli_atomic_huge_max_word_len(files, capsys):
    # The walk stops at the carrier dimension, so a huge bound returns at once.
    _, write = files
    path = write("atom011.json", families.atomic_module(families.AtomicLabel("011", 1j)))
    code, out, _ = run_cli(capsys, "atomic", path, "--format", "json")
    assert code == 0
    code, huge, _ = run_cli(capsys, "atomic", path, "--max-word-len", "1000000", "--format", "json")
    assert code == 0
    assert huge == out
    assert [s["word"] for s in json.loads(huge)["summands"]] == ["011"]


def test_cli_d2_fuse(files, capsys):
    _, write = files
    m, mt = d2_display_pair()
    a = write("d2a.json", m)
    b = write("d2b.json", mt)
    code, out, _ = run_cli(capsys, "d2-fuse", a, b, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["blocks"]) == 2
    assert all(split is not None for split in payload["scalar_splits"])


def test_cli_prime_words(capsys):
    code, out, _ = run_cli(capsys, "prime-words", "6", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 9


def test_cli_prime_words_above_the_cap_exit_1(capsys):
    # 2.7e10 words of length 40: refused at once instead of listed.
    code, out, err = run_cli(capsys, "prime-words", "40")
    assert code == 1 and out == ""
    assert err.startswith("ERROR TooLarge:")


def test_cli_arity_gate_exit_1(files, capsys, tmp_path):
    _, write = files
    four = write(
        "four.json", core.kawamura_tensor(core.unit_module(), core.unit_module())
    )
    code, _, err = run_cli(capsys, "fuse", four, four)
    assert code == 1
    assert "ArityUnsupported" in err


def test_cli_d2_shape_gate_exit_1(files, capsys):
    _, write = files
    path = write("notd2.json", families.random_module(2, "N", seed=33))
    code, _, err = run_cli(capsys, "d2-fuse", path, path)
    assert code == 1
    assert "NotD2Shape" in err


def test_arity_four_file_roundtrip():
    k = core.kawamura_tensor(
        families.random_module(2, "N", seed=3), core.unit_module()
    )
    back, meta = fileio.parse_module_file(fileio.serialize_module(k))
    assert back.arity == 4 and leg_defect(back, k) <= 1e-11


def test_cli_atomic_empty_result_renders(files, capsys):
    _, write = files
    path = write("diffuse.json", families.random_module(2, "N", seed=44))
    code, out, _ = run_cli(capsys, "atomic", path, "--format", "json")
    assert code == 0
    assert json.loads(out)["summands"] == []


def test_render_covers_every_report_type():
    m = families.random_module(2, "N", seed=4)
    d2a, d2b = d2_display_pair()
    reports = [
        m,
        core.validate(m),
        core.duality_check(m),
        structure.decompose_full(core.direct_sum(m, m), seed=1),
        structure.classify_parts(m),
        structure.equivalent(m, m),
        families.d2_fuse(d2a, d2b),
        structure.atomic_part(families.atomic_module(families.AtomicLabel("01", 1j))),
        families.gp_fuse(
            families.GPVector(entries=((0.6, 0.8),)),
            families.GPVector(entries=((0.8, 0.6),)),
        ),
        families.prime_words(3),
        [],
    ]
    for report in reports:
        for fmt in ("json", "text"):
            text = fileio.render_report(report, fmt)
            assert text == fileio.render_report(report, fmt)
            assert text.strip()
    with pytest.raises(TypeError):
        fileio.render_report(object())
    with pytest.raises(ValueError):
        fileio.render_report(core.validate(m), "yaml")


def test_cli_sample_records_metadata(capsys):
    code, out, _ = run_cli(
        capsys, "sample", "--dim", "2", "--class-tag", "M", "--seed", "4",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["metadata"] == {"class_tag": "M", "seed": 4}


# main() over every subcommand, on small valid and malformed files and bad
# numeric arguments. A ("file", text) item is written to a file whose path
# takes its place; ("file", None) names a missing file. prime-words lengths
# and word-length caps stay small so that no example can run long.
_module_texts = [
    fileio.serialize_module(m)
    for m in (
        core.unit_module(),
        families.random_module(2, seed=3),
        families.random_module(3, "M", seed=4, zero_eigenvalues=1),
        families.atomic_module(families.AtomicLabel("01", 1j)),
    )
]
_main_files = st.one_of(
    st.sampled_from(_module_texts),  # its own branch, so that most draws run an operation
    st.sampled_from(['{"arity":2,"dim":1,"legs":[[[[1e155,0]]],[[[0.5,0]]]]}', '{"arity":2', ""]),
    _modules.map(_json_text),
    _values.map(_json_text),
).map(lambda text: ("file", text)) | st.just(("file", None))
_numbers = st.sampled_from(["1", "2", "0", "3", "-1", "nan", "1e300", "x", ""])
_main_argv = st.one_of(
    st.tuples(st.sampled_from(["validate", "dual"]), _main_files),
    st.tuples(st.sampled_from(["fuse", "kfuse", "d2-fuse"]), _main_files, _main_files),
    st.tuples(st.just("decompose"), _main_files, st.just("--seed"), _numbers),
    st.tuples(st.just("equiv"), _main_files, _main_files, st.just("--seed"), _numbers),
    st.tuples(st.sampled_from(["classify", "atomic"]), _main_files, st.just("--max-word-len"), _numbers),
    st.tuples(st.just("gp-fuse"), st.just("--z"), _gp_vectors.map(_json_text), st.just("--zt"),
              _gp_vectors.map(_json_text)),
    st.tuples(st.just("sample"), st.just("--dim"), _numbers, st.just("--seed"), _numbers,
              st.just("--zeros"), _numbers, st.just("--class-tag"), st.sampled_from(["M", "N", "X"])),
    st.tuples(st.just("prime-words"), st.sampled_from(["-1", "0", "1", "5", "12", "x", "1.5"])),
    st.lists(st.sampled_from(["validate", "--tol", "--format", "xml", "-h", "nope", "1"]), max_size=3),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_main_argv, fmt=st.sampled_from(["text", "json"]),
       tol=st.sampled_from(["1e-9", "1e-7", "0", "-1", "nan", "inf", "1e-300", "x"]))
def test_main_fuzz(tmp_path_factory, argv, tol, fmt):
    folder = tmp_path_factory.getbasetemp()
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, tuple):
            path = folder / ("missing/none.json" if arg[1] is None else f"main_fuzz{k}.json")
            if arg[1] is not None:
                path.write_text(arg[1])
            arg = str(path)
        args.append(arg)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*args, "--tol", tol, "--format", fmt])
    assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# Layers load on first use, checked in fresh interpreters.
# ---------------------------------------------------------------------------

_PACKAGE_CONTRACT = """
import sys
import pmod.cli
loaded = {name for name in sys.modules if name.startswith("pmod.")}
assert not loaded & {"pmod.families", "pmod.structure"}, sorted(loaded)
import pmod
assert set(dir(pmod)) >= set(pmod.__all__)
for name in pmod.__all__:
    obj = getattr(pmod, name)
    home = obj.__module__.split(".")[1]
    assert obj is getattr(getattr(pmod, home), name), name
namespace = {}
exec("from pmod import *", namespace)
assert all(namespace[name] is getattr(pmod, name) for name in pmod.__all__)
assert not hasattr(pmod, "no_such_name")
try:
    pmod.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
print("ok")
"""


def test_package_names_load_on_first_use():
    done = subprocess.run(
        [sys.executable, "-c", _PACKAGE_CONTRACT], capture_output=True, env=child_env(), timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"ok\n"


# Runs the CLI, then names on stderr the pmod modules the run loaded.
_CLI_CHILD = """
import sys
import pmod.cli
code = pmod.cli.main(sys.argv[1:])
print(" ".join(sorted(name for name in sys.modules if name.startswith("pmod."))), file=sys.stderr)
sys.exit(code)
"""


def _child_render_cases(tmp_path):
    """(id, argv, in-process rendering, whether the run may load structure)."""

    def write(name, module):
        path = tmp_path / name
        path.write_text(fileio.serialize_module(module))
        return str(path)

    def load(path):
        return fileio.parse_module_file(Path(path).read_text())[0]

    z = json.dumps([[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0], [0.0, 0.6]]])
    zt = json.dumps([[[0.6, 0.0], [0.8, 0.0]], [[0.8, 0.0], [0.6, 0.0]], [[0.0, 0.6], [0.8, 0.0]]])
    d2a, d2b = (write(f"d2{k}.json", m) for k, m in zip("ab", d2_display_pair()))
    mixed = write("mixed.json", core.direct_sum(
        families.atomic_module(families.AtomicLabel("01", 1j)), families.random_module(3, "N", seed=1)))
    diffuse = write("diffuse.json", families.random_module(2, "N", seed=44))
    return [
        ("gp-fuse", ["gp-fuse", "--z", z, "--zt", zt, "--format", "json"],
         lambda: fileio.render_report(families.gp_fuse(fileio.parse_gp_vector(z), fileio.parse_gp_vector(zt)), "json"),
         False),
        ("d2-fuse", ["d2-fuse", d2a, d2b],
         lambda: fileio.render_report(families.d2_fuse(load(d2a), load(d2b)), "text"), False),
        ("prime-words", ["prime-words", "5"], lambda: fileio.render_report(families.prime_words(5), "text"), False),
        ("sample", ["sample", "--dim", "3", "--seed", "1"],
         lambda: fileio.render_module(families.random_module(3, "N", seed=1), {"class_tag": "N", "seed": 1}, "text"),
         False),
        ("classify", ["classify", mixed, "--format", "json"],
         lambda: fileio.render_report(structure.classify_parts(load(mixed)), "json"), True),
        ("atomic-empty", ["atomic", diffuse, "--format", "json"],
         lambda: fileio.render_report(structure.atomic_part(load(diffuse)), "json"), True),
    ]


def test_child_renders_lazily_dispatched_reports(tmp_path):
    # Each report type that fileio dispatches on after importing families or
    # structure renders in a fresh process exactly as it does in this one.
    for case, argv, render, needs_structure in _child_render_cases(tmp_path):
        done = subprocess.run(
            [sys.executable, "-c", _CLI_CHILD, *argv], capture_output=True, env=child_env(), timeout=120
        )
        assert done.returncode == 0, (case, done.stderr.decode())
        assert done.stdout.decode() == render() + "\n", case
        loaded = done.stderr.decode().split()
        assert ("pmod.structure" in loaded) == needs_structure, (case, loaded)
    assert json.loads(render()) == {"type": "atomic-part", "summands": []}  # the last case
