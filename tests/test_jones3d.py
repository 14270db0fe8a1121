import importlib
import math
import pickle
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from pbcjones import jones3d
from pbcjones.diagram import Diagram
from pbcjones.errors import NonGenericDirectionError, PbcJonesError, StateSumTooLargeError
from pbcjones.fixtures import (figure_eight, hopf_link, jersey_system, open_trefoil,
                               trefoil, unlinked_circles)
from pbcjones.jones3d import (SamplingConfig, jones, jones_single_direction,
                              project_generic)
from pbcjones.geometry import project_many, sample_directions
from pbcjones.laurent import FLOAT, LaurentPoly, d_power
from pbcjones.pbc import link_curves, minimal_periodic_link


class TestClosedCurves:
    def test_single_direction_is_exact(self):
        res = jones(list(hopf_link()), SamplingConfig(directions=50))
        assert res.exact
        assert res.poly.mode == "exact"
        assert res.directions_used == 1

    def test_direction_count_does_not_matter_when_closed(self):
        a = jones([trefoil()], SamplingConfig(directions=1))
        b = jones([trefoil()], SamplingConfig(directions=200))
        assert a.poly == b.poly

    def test_hopf_values(self):
        plus = jones(list(hopf_link()), SamplingConfig())
        minus = jones(list(hopf_link(reverse_second=True)), SamplingConfig())
        assert plus.poly == LaurentPoly({-2: -1, -10: -1})
        assert minus.poly == LaurentPoly({2: -1, 10: -1})

    def test_figure_eight_published_value(self):
        res = jones([figure_eight()], SamplingConfig())
        assert res.poly == LaurentPoly({-8: 1, -4: -1, 0: 1, 4: -1, 8: 1})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_unlinks(self, n):
        res = jones(list(unlinked_circles(n)), SamplingConfig())
        assert res.poly == d_power(n - 1)

    def test_empty_input_gives_one(self):
        res = jones([], SamplingConfig())
        assert res.poly == LaurentPoly.one()
        assert res.exact

    def test_single_direction_needs_curves(self):
        with pytest.raises(PbcJonesError, match="no curves to project"):
            jones_single_direction([], [0, 0, 1])


class TestSphereAverage:
    def test_open_curves_average_in_float_mode(self):
        res = jones([open_trefoil(0.5)], SamplingConfig(directions=40))
        assert not res.exact
        assert res.poly.mode == "float"
        assert res.directions_used == 40

    def test_average_is_the_rounded_exact_mean(self):
        # each coefficient is an integer sum over the used directions divided once
        res = jones([open_trefoil(0.5)], SamplingConfig(directions=97))
        used = res.directions_used
        assert used == 97 and len(res.poly) > 1
        for _, v in res.poly.terms():
            assert v == float(Fraction(round(v * used), used))

    def test_same_seed_same_result(self):
        cfg = SamplingConfig(directions=30, mode="random", seed=9)
        a = jones([open_trefoil(0.3)], cfg)
        b = jones([open_trefoil(0.3)], cfg)
        assert a.poly == b.poly

    def test_worker_count_changes_nothing(self):
        cfg1 = SamplingConfig(directions=30, workers=1)
        cfg2 = SamplingConfig(directions=30, workers=2)
        cfg3 = SamplingConfig(directions=30, workers=5)
        r1 = jones([open_trefoil(0.4)], cfg1)
        r2 = jones([open_trefoil(0.4)], cfg2)
        r3 = jones([open_trefoil(0.4)], cfg3)
        assert r1.poly == r2.poly == r3.poly

    def test_coefficients_at_one_sum_to_unlink_value(self):
        # every per-direction polynomial evaluates to (-2)^(n-1) at A = 1
        curves = [open_trefoil(0.2), trefoil().translated([8, 0, 0])]
        res = jones(curves, SamplingConfig(directions=25))
        assert res.poly.evaluate(1.0) == pytest.approx(-2.0, abs=1e-9)

    def test_average_value_lies_in_per_direction_hull(self):
        res = jones([open_trefoil(0.5)], SamplingConfig(directions=60))
        lo = min(float(v) for _, v in res.poly.terms())
        hi = max(float(v) for _, v in res.poly.terms())
        assert -2.0 < lo <= hi < 2.0

    def test_gap_closing_approaches_closed_value(self):
        cfg = SamplingConfig(directions=200)
        closed = jones([trefoil()], cfg).poly

        def dist(gap):
            open_poly = jones([open_trefoil(gap)], cfg).poly
            exps = set(e for e, _ in open_poly.terms()) | set(e for e, _ in closed.terms())
            return max(abs(open_poly.coefficient(e) - closed.coefficient(e)) for e in exps)

        d_wide, d_tight = dist(0.5), dist(0.05)
        assert d_tight < d_wide


class TestCapHandling:
    def test_error_policy_raises(self):
        cfg = SamplingConfig(directions=5, crossing_cap=4, on_cap="error")
        with pytest.raises(StateSumTooLargeError):
            jones([figure_eight()], cfg)

    def test_skip_policy_accounts_directions(self):
        cfg = SamplingConfig(directions=24, crossing_cap=5, on_cap="skip")
        res = jones([open_trefoil(0.3)], cfg)
        assert res.directions_used + res.directions_skipped == 24
        assert res.directions_skipped > 0

    def test_all_skipped_raises(self):
        cfg = SamplingConfig(directions=5, crossing_cap=1, on_cap="skip")
        with pytest.raises(StateSumTooLargeError):
            jones([open_trefoil(0.3)], cfg)

    @pytest.mark.parametrize("err, attrs", [
        (StateSumTooLargeError(59, 48), {"count": 59, "cap": 48}),
        (NonGenericDirectionError("tangency"), {"feature": "tangency"}),
        (NonGenericDirectionError("fold_back"), {"feature": "fold_back"}),
    ])
    def test_errors_survive_pickling(self, err, attrs):
        # a process pool returns a worker's error pickled
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is type(err)
        assert str(back) == str(err)
        assert {k: getattr(back, k) for k in attrs} == attrs

    def test_single_direction_ignores_skip_policy(self):
        cfg = SamplingConfig(crossing_cap=2, on_cap="skip")
        with pytest.raises(StateSumTooLargeError):
            jones_single_direction([figure_eight()], [0.3, 0.4, 0.9], cfg)


class TestConfig:
    def test_bad_mode_rejected(self):
        with pytest.raises(PbcJonesError, match="unknown sampling mode 'radial'"):
            SamplingConfig(mode="radial")

    def test_bad_cap_policy_rejected(self):
        with pytest.raises(PbcJonesError, match="on_cap must be 'error' or 'skip', got 'ignore'"):
            SamplingConfig(on_cap="ignore")

    @pytest.mark.parametrize("field,value", [("directions", 0), ("directions", -3),
                                             ("workers", 0), ("workers", -1)])
    def test_counts_below_one_rejected(self, field, value):
        with pytest.raises(PbcJonesError, match=f"^{field} must be at least 1, got {value}$"):
            SamplingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tolerance", "prune"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_unusable_tolerances_rejected(self, field, value):
        with pytest.raises(PbcJonesError, match=f"^{field} must be finite and at least 0"):
            SamplingConfig(**{field: value})

    @pytest.mark.parametrize("field", ["tolerance", "prune"])
    @pytest.mark.parametrize("value", [True, "1", None])
    def test_non_real_tolerances_rejected(self, field, value):
        message = f"^{field} must be a real number, got {re.escape(repr(value))}$"
        with pytest.raises(PbcJonesError, match=message):
            SamplingConfig(**{field: value})

    def test_real_tolerances_accepted(self):
        cfg = SamplingConfig(tolerance=Fraction(1, 10**9), prune=np.float32(0))
        assert cfg.tolerance == Fraction(1, 10**9)

    @pytest.mark.parametrize("field,value", [("directions", 2.5), ("directions", True),
                                             ("workers", 1.0), ("seed", "0"),
                                             ("crossing_cap", 2.0), ("crossing_cap", False)])
    def test_non_integer_counts_rejected(self, field, value):
        message = f"^{field} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(PbcJonesError, match=message):
            SamplingConfig(**{field: value})

    def test_numpy_integer_counts_accepted(self):
        cfg = SamplingConfig(directions=np.int64(3), workers=np.int32(1), seed=np.uint8(2),
                             crossing_cap=np.int16(0))
        assert cfg.directions == 3 and cfg.crossing_cap == 0

    @pytest.mark.parametrize("value", [-1, -20])
    def test_negative_crossing_cap_rejected(self, value):
        with pytest.raises(PbcJonesError, match=f"^crossing_cap must be at least 0, got {value}$"):
            SamplingConfig(crossing_cap=value)

    def test_result_json_fields(self):
        res = jones(list(hopf_link()), SamplingConfig())
        obj = res.to_json_obj()
        assert obj["exact"] is True
        assert obj["polynomial"]["coeffs"] == {"-2": -1, "-10": -1}
        assert obj["directions_used"] == 1


class TestProjectGeneric:
    def test_returns_direction_actually_used(self):
        curves = [trefoil()]
        xi = np.array([0.2, 0.1, 0.95])
        diagram, used, tries = project_generic(curves, xi, 1e-9)
        assert tries == 0
        assert np.allclose(used / np.linalg.norm(used), xi / np.linalg.norm(xi))


class TestDiagramMemo:
    def test_each_distinct_diagram_is_solved_once(self, monkeypatch):
        bracket_mod = importlib.import_module("pbcjones.bracket")
        solved = []
        state_sum = bracket_mod._state_sum
        monkeypatch.setattr(bracket_mod, "_state_sum",
                            lambda *key: solved.append(key) or state_sum(*key))
        seen = []
        inner = jones3d.bracket
        monkeypatch.setattr(jones3d, "bracket",
                            lambda d, *a, **kw: seen.append((d, a, kw)) or inner(d, *a, **kw))
        cfg = SamplingConfig(directions=200)
        jones([open_trefoil(0.3)], cfg)

        # a direction whose diagram object came before reaches bracket() no more
        projected = list(project_many([open_trefoil(0.3)], sample_directions(200)))
        assert all(isinstance(d, Diagram) for d in projected)
        diagrams = [d for d, _, _ in seen]
        assert len({id(d) for d in diagrams}) == len(seen) == len(set(projected)) < 200
        # bracket() gets no memo, so every diagram object with crossings below
        # the cap runs its own state sum, shared terminal graph or not
        assert all(a == (cfg.crossing_cap,) and not kw for _, a, kw in seen)
        assert len(solved) == sum(0 < len(d.crossings) <= cfg.crossing_cap for d in diagrams)
        assert len(set(solved)) < len(solved)


class TestCounters:
    def test_cache_hits_sum_the_merges_of_every_solved_direction(self, monkeypatch):
        hits = []
        inner = jones3d.bracket

        def counted(d, *a, **kw):
            res = inner(d, *a, **kw)
            hits.append((d, res.cache_hits))
            return res

        projected = []
        inner_many = jones3d.project_many

        def listed(*a):
            projected.extend(inner_many(*a))
            return iter(projected)

        monkeypatch.setattr(jones3d, "bracket", counted)
        monkeypatch.setattr(jones3d, "project_many", listed)
        curves = link_curves(minimal_periodic_link(jersey_system()))
        res = jones(curves, SamplingConfig(directions=9, crossing_cap=64, on_cap="skip"))
        assert (res.directions_used, res.directions_skipped) == (8, 1)
        # each solved diagram counts once per direction that saw it; a nudged
        # direction's diagram is its own
        directions = Counter(projected)
        assert res.cache_hits == sum(h * directions.get(d, 1) for d, h in hits) > 0
        assert jones([]).cache_hits == 0


class TestRepeatedDiagrams:
    """Directions that see one diagram are solved once and counted."""

    def test_average_is_the_exact_sum_of_single_directions(self):
        curves = [open_trefoil(0.3)]
        cfg = SamplingConfig(directions=400)
        res = jones(curves, cfg)
        singles = [jones_single_direction(curves, xi, cfg) for xi in sample_directions(400)]
        total = LaurentPoly.zero()
        for r in singles:
            total = total + r.poly
        assert res.poly == LaurentPoly({e: c / 400 for e, c in total.terms()
                                        if abs(c / 400) > cfg.prune}, FLOAT)
        assert (res.directions_used, res.directions_skipped) == (400, 0)
        assert res.retries == sum(r.retries for r in singles)
        assert res.max_crossings == max(r.max_crossings for r in singles)
        assert res.states_expanded == sum(r.states_expanded for r in singles)
        assert res.cache_hits == sum(r.cache_hits for r in singles)

    def test_worker_count_changes_nothing(self):
        curves = [open_trefoil(0.3)]
        one = jones(curves, SamplingConfig(directions=400, workers=1))
        three = jones(curves, SamplingConfig(directions=400, workers=3))
        assert one == three
