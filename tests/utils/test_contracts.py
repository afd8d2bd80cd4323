"""Runtime behaviour of the @contract decorator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ContractViolationError, ReproError
from repro.utils.contracts import KNOWN_DTYPES, ArraySpec, _check, contract, parse_spec


class TestParseSpec:
    def test_plain_dtype(self):
        assert parse_spec("x", "int64") == ArraySpec("int64", None)

    def test_dtype_with_ndim(self):
        assert parse_spec("x", "float64[2d]") == ArraySpec("float64", 2)

    def test_concrete_dims(self):
        assert parse_spec("x", "int64[2]") == ArraySpec("int64", 1, (2,))

    def test_symbolic_dims_fix_rank_and_record_symbols(self):
        spec = parse_spec("x", "int64[T, R]")
        assert spec == ArraySpec("int64", 2, ("T", "R"))
        assert spec.symbols() == ("T", "R")

    def test_malformed_dim_raises(self):
        with pytest.raises(ContractViolationError):
            parse_spec("x", "int64[2!]")
        with pytest.raises(ContractViolationError):
            parse_spec("x", "int64[T,]")

    def test_unknown_dtype_raises(self):
        with pytest.raises(ContractViolationError):
            parse_spec("x", "floaty64")


def _value_dtypes():
    """Every known dtype in both byte orders, plus platform aliases."""
    dtypes = []
    for name in sorted(KNOWN_DTYPES):
        native = np.dtype(name)
        dtypes += [native, native.newbyteorder("<"), native.newbyteorder(">")]
    dtypes += [np.dtype(code) for code in ("q", "l", "p", "i", "d", "f", "?", ">q", ">l")]
    return dtypes


class TestDtypeFastPath:
    @pytest.mark.parametrize("spec_name", sorted(KNOWN_DTYPES))
    def test_verdict_equals_dtype_name_comparison(self, spec_name):
        # The fast accept (dtype equality) must never change a verdict:
        # the reference rule is "dtype.name equals the spec's dtype".
        spec = parse_spec("x", spec_name)
        for dtype in _value_dtypes():
            value = np.zeros(3, dtype=dtype)
            accepted = True
            try:
                _check("f", "argument 'x'", value, spec)
            except ContractViolationError:
                accepted = False
            assert accepted == (dtype.name == spec_name), (spec_name, dtype.str)

    def test_native_dtype_is_not_part_of_equality(self):
        assert ArraySpec("int64").native == np.dtype(np.int64)
        assert ArraySpec("int64") == ArraySpec("int64", None)
        assert "native" not in repr(ArraySpec("int64"))


class TestContractDecorator:
    def test_passes_matching_arrays_through(self):
        @contract(a="int64", returns="int64")
        def double(a):
            return a * 2

        out = double(np.arange(3, dtype=np.int64))
        assert out.dtype == np.int64

    def test_rejects_wrong_dtype_positional_and_keyword(self):
        @contract(a="int64")
        def f(a):
            return a

        bad = np.zeros(3, dtype=np.int32)
        with pytest.raises(ContractViolationError, match="int32"):
            f(bad)
        with pytest.raises(ContractViolationError, match="int32"):
            f(a=bad)

    def test_rejects_wrong_ndim(self):
        @contract(a="int64[2d]")
        def f(a):
            return a

        with pytest.raises(ContractViolationError, match="1-d"):
            f(np.zeros(3, dtype=np.int64))

    def test_checks_return_value(self):
        @contract(returns="float64[1d]")
        def f():
            return np.zeros((2, 2))

        with pytest.raises(ContractViolationError, match="return value"):
            f()

    def test_non_arrays_are_not_checked(self):
        @contract(a="int64")
        def f(a):
            return a

        assert f([1, 2, 3]) == [1, 2, 3]

    def test_methods_check_by_position(self):
        class K:
            @contract(positions="int64")
            def step(self, positions):
                return positions

        with pytest.raises(ContractViolationError):
            K().step(np.zeros(2, dtype=np.float64))

    def test_unknown_parameter_rejected_at_decoration_time(self):
        with pytest.raises(ContractViolationError, match="unknown parameter"):

            @contract(nope="int64")
            def f(a):
                return a

    def test_violation_is_both_repro_error_and_type_error(self):
        with pytest.raises(ReproError):
            parse_spec("x", "bad spec")
        assert issubclass(ContractViolationError, TypeError)

    def test_declaration_exposed_for_the_analyzer(self):
        @contract(a="int64", returns="float64[1d]")
        def f(a):
            return a

        decl = f.__contract__
        assert decl["params"] == {"a": ArraySpec("int64", None)}
        assert decl["returns"] == ArraySpec("float64", 1)
        assert decl["no_alloc"] is False

    def test_keyword_only_param_never_borrows_a_positional_slot(self):
        """Regression: a keyword-only spec'd param after *args must not be
        validated against whatever array happens to occupy args[i]."""

        @contract(extra="int64")
        def f(a, *args, extra=None):
            return extra

        # args[1] is a float64 array but `extra` was not passed — the old
        # positional lookup validated args[1] against extra's spec.
        assert f(1, np.zeros(3, dtype=np.float64)) is None
        with pytest.raises(ContractViolationError, match="float64"):
            f(1, extra=np.zeros(3, dtype=np.float64))

    def test_concrete_dims_enforced_without_sanitizer(self):
        @contract(a="float64[3]")
        def f(a):
            return a

        f(np.zeros(3))
        with pytest.raises(ContractViolationError, match="extent"):
            f(np.zeros(4))


class TestShapeSymbols:
    """Symbol binding is a sanitizer-mode check (rank holds always)."""

    def test_rank_enforced_even_without_sanitizer(self):
        @contract(a="int64[W]")
        def f(a):
            return a

        with pytest.raises(ContractViolationError, match="2-d"):
            f(np.zeros((2, 2), dtype=np.int64))

    def test_mismatched_symbols_pass_when_sanitizer_off(self):
        from repro.analysis import sanitizer

        if sanitizer.is_enabled():
            pytest.skip("this test pins the non-sanitized behaviour")

        @contract(a="int64[W]", b="float64[W]")
        def f(a, b):
            return a

        f(np.zeros(3, dtype=np.int64), np.zeros(5))  # lengths differ: no check

    def test_mismatched_symbols_raise_under_sanitizer(self):
        from repro.analysis import sanitizer

        @contract(a="int64[W]", b="float64[W]")
        def f(a, b):
            return a

        sanitizer.enable()
        try:
            f(np.zeros(3, dtype=np.int64), np.zeros(3))
            with pytest.raises(ContractViolationError, match="'W'"):
                f(np.zeros(3, dtype=np.int64), np.zeros(5))
        finally:
            sanitizer.disable()

    def test_return_value_participates_in_binding(self):
        from repro.analysis import sanitizer

        @contract(a="int64[W]", returns="int64[W]")
        def f(a):
            return a[:-1].copy()

        sanitizer.enable()
        try:
            with pytest.raises(ContractViolationError, match="'W'"):
                f(np.arange(4, dtype=np.int64))
        finally:
            sanitizer.disable()


class TestKernelContracts:
    """The shipped kernels reject silently-degrading inputs."""

    def test_walk_engine_step_rejects_float_positions(self):
        from repro.core.walks import WalkEngine
        from repro.graph.generators import cycle_graph

        engine = WalkEngine(cycle_graph(8), seed=0)
        with pytest.raises(ContractViolationError):
            engine.step(np.zeros(4, dtype=np.float64))

    def test_walk_engine_step_still_coerces_lists(self):
        from repro.core.walks import WalkEngine
        from repro.graph.generators import cycle_graph

        engine = WalkEngine(cycle_graph(8), seed=0)
        out = engine.step([0, 1, 2])
        assert out.dtype == np.int64
