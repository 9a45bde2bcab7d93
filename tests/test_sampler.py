"""The vectorised sampler against the one-record-at-a-time definition.

``ref_sample`` is the per-record inverse CDF that ``sample_outputs`` had
before it drew every uniform at once. The sampler must return the same
outputs (``==``) and leave the generator in the same state, for any kernel
the loader accepts, including rows with zeros (tied cumulative sums) and
rows whose mass ends below a draw (the clamp to the last output).

``ref_labels_to_csv`` is the row-at-a-time writer of the sampled labels,
which ``fileio.labels_to_csv`` must match byte for byte.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from distp import StochasticKernel, UnknownLabelError, sample_outputs
from distp.fileio import labels_to_csv
from conftest import labels

GENERATORS = {"philox": np.random.Philox, "pcg64": np.random.PCG64}


def ref_sample(kernel, records, rng):
    out = []
    for label in records:
        row = kernel.matrix[kernel.input_index(str(label))]
        cum = np.cumsum(row)
        u = rng.random()
        idx = int(np.searchsorted(cum, u, side="right"))
        out.append(kernel.outputs[min(idx, len(kernel.outputs) - 1)])
    return out


@st.composite
def kernels(draw):
    """Rows of small integer weights (zeros give tied cumulative sums),
    some scaled to mass 0.75 or 0.5 so that draws above it clamp."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    row = st.lists(st.integers(0, 3), min_size=n, max_size=n).filter(any)
    weights = np.array(draw(st.lists(row, min_size=m, max_size=m)), float)
    mass = draw(st.lists(st.sampled_from([1.0, 0.75, 0.5]), min_size=m,
                         max_size=m))
    matrix = weights / weights.sum(axis=1, keepdims=True)
    matrix *= np.array(mass)[:, None]
    return StochasticKernel(labels(m), labels(n, "y"), matrix, tau_mass=0.6)


@st.composite
def kernels_and_records(draw):
    kernel = draw(kernels())
    records = draw(st.lists(st.sampled_from(kernel.inputs), max_size=60))
    return kernel, records


def plain(state):
    """A generator state with its arrays as lists, so states compare."""
    if isinstance(state, dict):
        return {k: plain(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def both(kernel, records, make_rng):
    """Reference and sampler outputs, and the generator states after each."""
    rng_ref, rng_new = make_rng(), make_rng()
    expected = ref_sample(kernel, records, rng_ref)
    got = sample_outputs(kernel, records, rng_new)
    return (expected, plain(rng_ref.bit_generator.state)), (
        got, plain(rng_new.bit_generator.state)
    )


@pytest.mark.parametrize("name", sorted(GENERATORS))
@given(kernels_and_records(), st.integers(0, 2**32 - 1))
def test_sampler_equals_per_record_loop(name, case, key):
    kernel, records = case
    expected, got = both(
        kernel, records,
        lambda: np.random.Generator(GENERATORS[name](key)),
    )
    assert got == expected


class FixedDraws:
    """A stand-in generator that returns chosen uniforms in order, so a draw
    can land exactly on a cumulative sum."""

    def __init__(self, values):
        self.values = list(values)
        self.bit_generator = self

    @property
    def state(self):
        return tuple(self.values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        drawn, self.values = self.values[:size], self.values[size:]
        return np.array(drawn)


@given(kernels_and_records(), st.data())
def test_sampler_equals_loop_on_draws_at_cumulative_sums(case, data):
    kernel, records = case
    cums = sorted({float(c) for c in np.cumsum(kernel.matrix, axis=1).flat})
    edges = [0.0] + [c for c in cums if c < 1.0] + [np.nextafter(1.0, 0.0)]
    draws = data.draw(st.lists(st.sampled_from(edges),
                               min_size=len(records), max_size=len(records)))
    expected, got = both(kernel, records, lambda: FixedDraws(draws))
    assert got == expected


@pytest.mark.parametrize("name", sorted(GENERATORS))
@pytest.mark.parametrize("size", [0, 1, 2])
def test_sampler_on_zero_one_and_two_records(name, size):
    kernel = StochasticKernel(("a", "b"), ("u", "v", "w"),
                              np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]]))
    one_output = StochasticKernel(("a", "b"), ("u",), np.ones((2, 1)))
    for k in (kernel, one_output):
        records = ["b", "a"][:size]
        expected, got = both(k, records,
                             lambda: np.random.Generator(GENERATORS[name](9)))
        assert got == expected
        assert len(got[0]) == size


def test_unknown_label_mid_input_raises_the_same_error():
    kernel = StochasticKernel(("a", "b"), ("u", "v"),
                              np.array([[0.5, 0.5], [0.1, 0.9]]))
    records = ["a", "b", "zzz", "a"]
    raised = []
    for sampler in (ref_sample, sample_outputs):
        with pytest.raises(UnknownLabelError) as info:
            sampler(kernel, records, np.random.default_rng(0))
        raised.append((type(info.value), str(info.value)))
    assert raised[0] == raised[1]
    assert raised[1][1] == "input label 'zzz' not in kernel"


def ref_labels_to_csv(records, header="y"):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([header])
    writer.writerows(zip(records))
    return buf.getvalue()


# A comma, a double quote, CR, LF, a leading space and the empty label.
AWKWARD = st.one_of(st.sampled_from(["a", "b,c", 'say "hi"', "cr\rx",
                                     "lf\nx", " lead", ""]),
                    st.text(max_size=3))


@given(st.lists(AWKWARD, max_size=30), AWKWARD)
def test_labels_csv_matches_the_row_at_a_time_writer(records, header):
    assert labels_to_csv(records, header) == ref_labels_to_csv(records, header)
