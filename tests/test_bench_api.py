"""The benchmark under bench/ runs against entnet's public API; check that API.

A name the benchmark uses but entnet no longer has would only show up as
failed benchmark operations.  These checks read the benchmark's source
text and change nothing.
"""

import re
from pathlib import Path

import entnet
import entnet.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"

# `en.<Name>` and `en.<Name>.<attr>`, as the benchmark writes them (`import entnet as en`)
_EN_REFERENCE = re.compile(r"\ben\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?")


def _bench_sources():
    return {path.name: path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))}


def test_every_en_reference_resolves():
    seen = set()
    missing = []
    for name, text in _bench_sources().items():
        for match in _EN_REFERENCE.finditer(text):
            head, attr = match.groups()
            seen.add(match.group(0))
            obj = getattr(entnet, head, missing)
            if obj is missing or (attr is not None and not hasattr(obj, attr)):
                missing.append(f"{name}: {match.group(0)}")
    assert len(seen) > 20  # the pattern still matches how bench/ spells entnet
    assert not missing


def test_cli_entry_points():
    assert len(entnet.cli.REPRODUCE_IDS) == 13
    assert callable(entnet.cli.run_subcommand)


def test_undistilled_spec_reads_none():
    # the tracer labels Monte Carlo spans by `spec.distill_policy.value != "none"`
    assert entnet.ProtocolSpec.fixed_tmbl(1).distill_policy.value == "none"
    assert [p.value for p in entnet.LeftoverPolicy] == ["none", "discard", "keep"]


def test_estimate_method_labels():
    # bench/workloads.py spells `en.DistillMethod.MONTE_CARLO`, and the
    # tracer labels spans by these values
    assert entnet.DistillMethod is entnet.EstimateMethod
    assert entnet.EstimateMethod.CLOSED_FORM.value == "closed_form"
    assert entnet.EstimateMethod.TRUNCATED_SERIES.value == "truncated_series"
    assert entnet.EstimateMethod.MONTE_CARLO.value == "monte_carlo"
