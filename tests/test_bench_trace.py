"""The benchmark's per-layer trace (`bench/layers.py`) wraps program names
where the program looks them up. Installing it must find every one of them,
and leaving the tracer must put every original back."""

import sys
from pathlib import Path

from modnmt import corpus, model, objective, optim, tensor, tokenizer, trainer, translator

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _names() -> dict:
    """Every module-level name and class attribute of the traced modules."""
    out = {}
    for mod in (corpus, model, objective, optim, tensor, tokenizer, trainer, translator):
        for name, value in vars(mod).items():
            out[(mod.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    out[(mod.__name__, name, attr)] = member
    return out


def test_trace_installs_and_restores_every_wrapped_name():
    sys.path.insert(0, str(BENCH))
    try:
        import layers
        import spans
    finally:
        sys.path.remove(str(BENCH))
    before = _names()
    with spans.Tracer() as tracer:
        layers.install(tracer)
        during = _names()
    after = _names()
    wrapped = {key for key, value in before.items() if during[key] is not value}
    assert len(wrapped) >= 15
    assert {("modnmt.tensor", "Tensor", "backward"), ("modnmt.optim", "Adam", "step")} <= wrapped
    assert all(after[key] is value for key, value in before.items())
