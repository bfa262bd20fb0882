"""``multi_power`` evaluates one product two ways; both must be *the* product.

Below ``BUCKET_MIN_TERMS`` terms the kernel scans exponent bits, from there on
it fills byte-digit buckets.  The returned element has to be identical either
way -- batch verdicts, bisection and culprit lists hang off it -- so every
backend (the gmpy2 override included, on the CI leg that installs it) is held
to two references that share no code with the kernel: ``prod(base ** e)``
through each backend's own ``**``, and the bit scan as it stood before the
buckets, kept here.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.group import Group, SchnorrGroup
from repro.crypto.registry import get_group

BACKENDS = {
    name: get_group(name) for name in ("schnorr", "schnorr-gmpy2", "ed25519", "secp256k1")
}
POOL_SIZE = 12


def base_pool(group):
    """A few distinct bases plus the identity, cheap to build on any backend."""
    pool = [group.identity(), group.generator(), group.second_generator()]
    while len(pool) < POOL_SIZE:
        pool.append(pool[-1] * pool[-2] * group.generator())
    return pool


POOLS = {name: base_pool(group) for name, group in BACKENDS.items()}


def scan_reference(group, pairs):
    """The square-and-multiply pass over all exponent bits (the whole of
    ``Group.multi_power`` until the bucket kernel), on abstract elements."""
    reduced = [(base, exponent % group.order) for base, exponent in pairs]
    reduced = [(base, exponent) for base, exponent in reduced if exponent]
    result = group.identity()
    if not reduced:
        return result
    for bit in range(max(e.bit_length() for _, e in reduced) - 1, -1, -1):
        result = result * result
        for base, exponent in reduced:
            if (exponent >> bit) & 1:
                result = result * base
    return result


def product_of_powers(group, name, picks):
    """``prod(base ** e)`` with the exponents of a repeated base added up
    first, so the curve backends pay one ``**`` per pool entry."""
    totals = [0] * POOL_SIZE
    for index, exponent in picks:
        totals[index] += exponent
    result = group.identity()
    for base, total in zip(POOLS[name], totals, strict=True):
        result = result * base ** total
    return result


def term_counts(group):
    crossover = group.BUCKET_MIN_TERMS
    return [0, 1, crossover - 1, crossover, crossover + 1, 2 * crossover + 61]


def exponents_for(group):
    order = group.order
    return st.one_of(
        st.sampled_from([0, 1, order - 1, order, order + 1, 3 * order + 7]),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=order - 1),
    )


def check(name, picks):
    group = BACKENDS[name]
    pairs = [(POOLS[name][index], exponent) for index, exponent in picks]
    result = group.multi_power(pairs)
    assert result == product_of_powers(group, name, picks)
    assert result.serialize() == scan_reference(group, pairs).serialize()


@pytest.mark.parametrize("name", sorted(BACKENDS))
class TestKernelEqualsTheProduct:
    @settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
    @given(data=st.data())
    def test_random_terms_at_every_count(self, name, data):
        group = BACKENDS[name]
        count = data.draw(st.sampled_from(term_counts(group)))
        picks = data.draw(
            st.lists(
                st.tuples(st.integers(0, POOL_SIZE - 1), exponents_for(group)),
                min_size=count, max_size=count,
            )
        )
        check(name, picks)

    def test_each_count_with_mixed_widths_and_edge_exponents(self, name):
        """Deterministic: 64-bit and full-width exponents in one call, 0, 1,
        ``order - 1`` and values ``>= order``, every base repeated, the
        identity among the bases."""
        group = BACKENDS[name]
        order = group.order
        edge = [0, 1, order - 1, order, order + 2, 2**64 - 1, 2**63 + 5, order // 3, 255, 256]
        for count in term_counts(group):
            picks = [
                (position % POOL_SIZE, edge[(position * 7 + count) % len(edge)] + (position & 1))
                for position in range(count)
            ]
            check(name, picks)

    def test_all_exponents_zero_or_multiples_of_the_order(self, name):
        group = BACKENDS[name]
        count = group.BUCKET_MIN_TERMS + 3
        pairs = [(POOLS[name][i % POOL_SIZE], (i % 3) * group.order) for i in range(count)]
        assert group.multi_power(pairs) == group.identity()

    def test_one_live_term_among_dead_ones(self, name):
        """Digits that are all zero but one: every bucket but one stays empty."""
        group = BACKENDS[name]
        base = POOLS[name][5]
        pairs = [(POOLS[name][i % POOL_SIZE], 0) for i in range(group.BUCKET_MIN_TERMS)]
        pairs.append((base, 1 << 200))
        assert group.multi_power(pairs) == base ** (1 << 200)


class TestWhichEvaluationRuns:
    """Decided from ``len(pairs)`` alone: zero exponents count as terms, the
    width of the exponents does not enter."""

    @pytest.mark.parametrize("name", ["schnorr", "ed25519"])
    @pytest.mark.parametrize("exponent", [0, 3, 2**255 - 1], ids=["zero", "narrow", "wide"])
    def test_crossover_is_a_term_count(self, name, exponent, monkeypatch):
        group = BACKENDS[name]
        cls = SchnorrGroup if name == "schnorr" else Group
        ran = []
        for method in ("_scan_multi_power", "_bucket_multi_power"):
            original = getattr(cls, method)

            def spy(self, reduced, _original=original, _method=method):
                ran.append(_method)
                return _original(self, reduced)

            monkeypatch.setattr(cls, method, spy)
        live = (POOLS[name][3], 5)
        for count, expected in (
            (group.BUCKET_MIN_TERMS - 1, "_scan_multi_power"),
            (group.BUCKET_MIN_TERMS, "_bucket_multi_power"),
        ):
            del ran[:]
            pairs = [live] + [(POOLS[name][4], exponent)] * (count - 1)
            group.multi_power(pairs)
            assert ran == [expected]

    def test_the_cross_shard_commit_and_the_small_batches_stay_on_the_scan(self):
        """64 terms (the sharded merge), 32 (an endorsement batch) and 5 (a
        UCERT) are below every backend's crossover."""
        for group in BACKENDS.values():
            assert group.BUCKET_MIN_TERMS > 64

    @pytest.mark.parametrize("name", ["schnorr", "secp256k1"])
    def test_the_two_evaluations_agree_below_the_crossover_too(self, name):
        """The buckets are never *chosen* for a handful of terms, but they
        must not be wrong there: nothing about the method needs many terms."""
        group = BACKENDS[name]
        for count in (1, 2, 7):
            reduced = [
                (POOLS[name][1 + i], (group.order - 1 - i) if i % 2 else 2**64 - 1 - i)
                for i in range(count)
            ]
            if isinstance(group, SchnorrGroup):
                reduced = [(base.value, exponent) for base, exponent in reduced]
            assert group._bucket_multi_power(reduced) == group._scan_multi_power(reduced)
