import hashlib
import json
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bkd.etaseries import (
    ALGORITHM,
    EtaQuotientSpec,
    PartitionTable,
    broken_diamond_spec,
    delta_oracle_logderiv,
    delta_table,
    eta_oracle_coeffs,
    expand_eta_quotient,
    table_from_bytes,
)

PARTITION_NUMBERS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def spec(*factors):
    return EtaQuotientSpec.from_factors(factors)


class TestExpand:
    def test_euler_partition_numbers(self):
        assert expand_eta_quotient(spec((1, -1)), 5) == [1, 1, 2, 3, 5, 7]

    def test_k1_product_prefix(self):
        got = expand_eta_quotient(spec((1, -3), (2, 1), (3, 1), (6, -1)), 3)
        assert got == [1, 3, 8, 18]

    def test_single_multiplier(self):
        assert expand_eta_quotient(spec((2, 1)), 2) == [1, 0, -1]

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            expand_eta_quotient(spec((1, -1)), -1)

    def test_rejects_duplicate_moduli(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec(((1, -1), (1, 2)))

    def test_rejects_zero_exponent(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec(((2, 0),))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            EtaQuotientSpec(((3, 1), (2, 1)))

    def test_from_factors_merges(self):
        merged = EtaQuotientSpec.from_factors([(2, 1), (1, -1), (2, -1), (3, 2)])
        assert merged.factors == ((1, -1), (3, 2))


class TestBrokenDiamondSpec:
    def test_k1(self):
        assert broken_diamond_spec(1).factors == ((1, -3), (2, 1), (3, 1), (6, -1))

    def test_k0_collapses(self):
        # moduli collide at k=0: (2k+1)=1 and (4k+2)=2 merge away
        assert broken_diamond_spec(0).factors == ((1, -2),)

    def test_negative_k(self):
        with pytest.raises(ValueError):
            broken_diamond_spec(-1)


class TestDeltaTable:
    def test_k1_small(self):
        assert delta_table(1, 3).coeffs == (1, 3, 8, 18)

    def test_k2_small(self):
        assert delta_table(2, 3).coeffs == (1, 3, 8, 19)

    def test_k1_empty(self):
        assert delta_table(1, 0).coeffs == (1,)

    def test_k0_two_colored(self):
        assert delta_table(0, 6).coeffs == (1, 2, 5, 10, 20, 36, 65)

    def test_invariants(self):
        for k in range(4):
            delta_table(k, 300).check_invariants()

    def test_prefix_stability(self):
        small = delta_table(1, 50)
        large = delta_table(1, 120)
        assert large.coeffs[:51] == small.coeffs

    def test_bad_args(self):
        with pytest.raises(ValueError):
            delta_table(-1, 5)
        with pytest.raises(ValueError):
            delta_table(1, -5)


class TestOracle:
    def test_partition_numbers(self):
        got = eta_oracle_coeffs(spec((1, -1)), 10)
        assert got == PARTITION_NUMBERS

    def test_k1_matches_expansion(self):
        assert delta_oracle_logderiv(1, 3) == [1, 3, 8, 18]

    def test_k2_order_zero(self):
        assert delta_oracle_logderiv(2, 0) == [1]

    @pytest.mark.parametrize("k", range(7))
    def test_oracle_equivalence_medium(self, k):
        table = delta_table(k, 400)
        assert list(table.coeffs) == delta_oracle_logderiv(k, 400)

    @settings(max_examples=60, deadline=None)
    # a positive exponent of 3 or more multiplies by Jacobi's series
    @example(exps={1: 3}, order=400)
    @example(exps={1: -1, 2: 3}, order=400)
    @example(exps={1: -3, 3: 4, 5: -2}, order=400)
    @example(exps={1: -5, 2: 7, 4: 1}, order=400)
    @given(
        exps=st.dictionaries(
            st.integers(min_value=1, max_value=6),
            st.integers(min_value=-7, max_value=7).filter(lambda e: e != 0),
            min_size=1,
            max_size=4,
        ),
        order=st.integers(min_value=0, max_value=200),
    )
    def test_oracle_equivalence_random_specs(self, exps, order):
        s = EtaQuotientSpec.from_factors(exps.items())
        assert expand_eta_quotient(s, order) == eta_oracle_coeffs(s, order)

    @pytest.mark.parametrize("k", [1, 2])
    def test_oracle_equivalence_workload_size(self, k):
        # the largest tables the benchmark workloads build
        assert list(delta_table(k, 3600).coeffs) == delta_oracle_logderiv(k, 3600)


class TestSerialization:
    def test_csv(self):
        text = delta_table(1, 3).to_csv()
        assert text.splitlines() == ["n,delta", "0,1", "1,3", "2,8", "3,18"]

    def test_json_roundtrip(self):
        table = delta_table(2, 5)
        obj = json.loads(table.to_json())
        assert obj == {"k": 2, "N": 5, "coeffs": ["1", "3", "8", "19", "41", "82"]}
        assert obj == table.to_json_obj()

    def test_content_hash_changes_with_k(self):
        assert delta_table(1, 5).content_hash() != delta_table(2, 5).content_hash()

    def test_content_hash_is_hashlib_sha256(self):
        table = delta_table(1, 300)
        data = "%s:1:300:%s" % (ALGORITHM, ",".join(map(str, table.coeffs)))
        expected = hashlib.sha256(data.encode()).hexdigest()
        assert table.content_hash() == expected
        assert table.to_bytes() == expected.encode() + b"\n" + data.encode()

    def test_bytes_roundtrip(self):
        table = delta_table(1, 30)
        data = table.to_bytes()
        assert table_from_bytes(data, 1, 30) == table
        assert table_from_bytes(data, 1, 20) == delta_table(1, 20)
        assert table_from_bytes(data, 1, 31) is None
        assert table_from_bytes(data, 2, 5) is None

    def test_kept_digest_is_not_a_field(self):
        # a table read back knows its digest; one just built does not yet
        fresh = PartitionTable(k=1, N=30, coeffs=delta_table(1, 30).coeffs)
        read = table_from_bytes(delta_table(1, 30).to_bytes(), 1, 30)
        assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
        assert read.content_hash() == fresh.content_hash()
        assert pickle.loads(pickle.dumps(read)) == read

    @staticmethod
    def _stored(body: bytes) -> bytes:
        return hashlib.sha256(body).hexdigest().encode() + b"\n" + body

    @pytest.mark.parametrize("entry", [
        "018", "+18", "18 ", " 18", "1_8", "-18", "\u0661\u0668", "", "0", "1,8",
    ])
    def test_decoder_only_of_canonical_strings(self, entry):
        # each file's digest matches its bytes; only the entry is wrong
        entries = [str(v) for v in delta_table(1, 5).coeffs]
        entries[3] = entry
        body = ("%s:1:5:%s" % (ALGORITHM, ",".join(entries))).encode()
        assert table_from_bytes(self._stored(body), 1, 3) is None

    @pytest.mark.parametrize("head", [
        "eta-quotient:1:5:", "%s:01:5:", "%s:1:05:", "%s:1:+5:", "%s:1: 5:", "%s:1:6:",
    ])
    def test_decoder_only_of_canonical_header(self, head):
        digits = ",".join(map(str, delta_table(1, 5).coeffs))
        body = (head.replace("%s", ALGORITHM) + digits).encode()
        assert table_from_bytes(self._stored(body), 1, 5) is None
