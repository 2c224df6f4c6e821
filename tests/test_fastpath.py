"""The fast-path configuration surface (:mod:`repro.fastpath`): which
flags exist, how the environment resolves them, and that a malformed
integer knob fails loudly, naming its variable, instead of clamping."""

import dataclasses

import pytest

from repro import fastpath
from repro.dift import BoolTaintPolicy, DIFTEngine
from repro.fastpath import FastPathConfig


def test_config_has_exactly_two_flags():
    assert [f.name for f in dataclasses.fields(FastPathConfig)] == ["array_kernel", "summaries"]


def test_env_defaults(monkeypatch):
    monkeypatch.delenv("REPRO_FASTPATH_KERNEL", raising=False)
    monkeypatch.delenv("REPRO_FASTPATH_SUMMARIES", raising=False)
    assert fastpath.from_env() == FastPathConfig(array_kernel=True, summaries=False)


def test_reference_kernel_env_resolves_to_all_off(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH_KERNEL", "reference")
    monkeypatch.delenv("REPRO_FASTPATH_SUMMARIES", raising=False)
    assert fastpath.from_env() == FastPathConfig.all_off()


def test_unknown_kernel_env_raises(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH_KERNEL", "fast")
    with pytest.raises(ValueError, match="REPRO_FASTPATH_KERNEL='fast'"):
        fastpath.from_env()


KNOBS = {
    "REPRO_FASTPATH_KERNEL_BATCH": (fastpath.kernel_batch_size, fastpath.DEFAULT_KERNEL_BATCH),
    "REPRO_SERVICE_STREAM_CHUNK": (fastpath.stream_chunk_rows, fastpath.DEFAULT_STREAM_CHUNK_ROWS),
}


@pytest.mark.parametrize("name", sorted(KNOBS))
@pytest.mark.parametrize("raw", ["0", "-5", "abc", "1.5", ""])
def test_bad_env_knob_raises_naming_the_variable(monkeypatch, name, raw):
    resolve, _ = KNOBS[name]
    monkeypatch.setenv(name, raw)
    with pytest.raises(ValueError, match=f"{name}={raw!r}: expected a positive integer"):
        resolve()


@pytest.mark.parametrize("name", sorted(KNOBS))
def test_env_knob_resolution(monkeypatch, name):
    resolve, default = KNOBS[name]
    monkeypatch.delenv(name, raising=False)
    assert resolve() == default
    monkeypatch.setenv(name, "7")
    assert resolve() == 7
    assert resolve(3) == 3  # an explicit value wins over the environment
    with pytest.raises(ValueError):
        resolve(0)


def test_bad_kernel_batch_env_fails_engine_construction_clearly(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH_KERNEL_BATCH", "lots")
    with pytest.raises(ValueError, match="REPRO_FASTPATH_KERNEL_BATCH='lots'"):
        DIFTEngine(BoolTaintPolicy())
