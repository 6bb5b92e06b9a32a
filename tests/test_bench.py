import time

import pytest

from carmlab.bench import MAX_BENCH_BITS, run_benchmark
from carmlab.errors import CapExceededError


@pytest.mark.parametrize("bits", [(64, MAX_BENCH_BITS + 1), (64, 10**6)])
def test_bit_length_above_cap_rejected_at_once(bits):
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        run_benchmark(bit_lengths=bits)
    assert time.perf_counter() - start < 1
