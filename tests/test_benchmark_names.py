"""The names the benchmark under `perfbench/` reaches into `hlsdbg` by.

perfbench's tracer wraps functions and methods by name, its checks call
a few library functions directly, and both read fields of what those calls
return. The benchmark does not change with the program, so a rename here
would break it; this guard fails first.
"""

import dataclasses
import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench.tracer import Tracer, install  # noqa: E402

from hlsdbg import corpus, mutate, training  # noqa: E402
from hlsdbg.autodiff import Tape  # noqa: E402
from hlsdbg.lexer import TokenStream  # noqa: E402
from hlsdbg.model import DebuggerModel, RecordPrediction  # noqa: E402


def test_tracer_finds_every_name_it_wraps():
    tracer = Tracer()
    try:
        install(tracer)  # a missing function or method raises here
    finally:
        tracer.uninstall()


# each name a check calls, with the arguments of that call
CALLED = [
    (corpus, "split", ("records", 0.75, 0)),
    (mutate, "verify_record", ("record",)),
    (training, "read_curve_csv", ("curve.csv",)),
    (DebuggerModel, "predict_source", ("model", "code")),
    (DebuggerModel, "encode_ids", ("model", [[10, 11]])),
]


@pytest.mark.parametrize("owner, name, args", CALLED, ids=[name for _, name, _ in CALLED])
def test_checks_find_the_names_they_call(owner, name, args):
    inspect.signature(getattr(owner, name)).bind(*args)


# each result attribute the tracer or a check reads, by the class that holds it
READ = [
    (corpus.SplitResult, "train"),
    (corpus.SplitResult, "held_out"),
    (mutate.GenerationReport, "records"),
    (mutate.GenerationReport, "n_calls"),
    (corpus.DedupReport, "n_checked"),
    (corpus.DedupReport, "removed"),
    (RecordPrediction, "token_probs"),
    (RecordPrediction, "generated_text"),
    (RecordPrediction, "generated_ids"),
    (TokenStream, "n_tokens"),
    (Tape, "nodes"),
    *((training.CurveRow, name) for name in ("l_type", "l_bug", "l_decoder", "l_all")),
]


@pytest.mark.parametrize("owner, name", READ, ids=[f"{owner.__name__}.{name}" for owner, name in READ])
def test_results_hold_the_fields_the_benchmark_reads(owner, name):
    fields = {f.name for f in dataclasses.fields(owner)}
    assert name in fields or isinstance(inspect.getattr_static(owner, name, None), property)
