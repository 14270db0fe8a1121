"""Cutoff links and the factorization of their Jones polynomial.

A cutoff of a singly-periodic system takes N translated copies of the
minimal periodic link, spaced by the smallest translate that makes the
copies disjoint.  Smoothing every copy-to-copy crossing along the
orientation disconnects the diagram into N intact copies; that state's
contribution factors in closed form through the base polynomial and the
periodic self-linking, and the remaining states are collected into a
correction term.  This module builds cutoffs and verifies the
factorization exactly, enumerating all shared-crossing states as an
independent oracle.

The writhe identity and the state-sum identity hold at every projection;
the closed form of the oriented state, and with it the factorization,
need not.  Oblique projections can pick up cancelling pairs of shared
crossings, whose oriented smoothing may leave extra crossingless loops:
on the chainmail with N = 2 along (0.05, 0.1, 1), ``state_oracle_ok``
and ``factorization_ok`` are False while the writhe and sum identities
hold.  ``disconnecting_unique_ok`` records whether the oriented state is
the only one that separates the copies; it does not predict failure.

The enumeration walks the shared-crossing states depth first in
lexicographic order of their A/B words, with A before B at each shared
crossing in name order.  Each prefix of smoothings is applied once and
shared by every state that extends it.  The oriented state is one of the
enumerated states, the one whose word smooths each shared crossing along
its sign, so a check with s shared crossings makes exactly 2^(s+1) - 2
smoothings and splits 2^s states.  Each state is split into pieces once,
and the same pieces give its bracket and decide whether it disconnects
the copies.  The N copies and many states split into the same pieces
up to component ids; one bracket memo per check solves each such piece
once.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Dict, Iterator, List, Sequence, Tuple

from .bracket import DEFAULT_CROSSING_CAP, bracket, writhe_prefactor
from .diagram import Diagram
from .errors import PbcJonesError, require_count
from .geometry import Curve, sample_directions
from .jones3d import project_generic
from .laurent import LaurentPoly, d_power
from .pbc import (MinimalPeriodicLink, PBCSystem, PlacedImage, UnfoldingBox,
                  minimal_periodic_link, present_translates, single_periodic_axis, slk_p)

DEFAULT_ENUMERATE_CAP = 16  # shared crossings past which the state enumeration refuses


@dataclass(frozen=True)
class CutoffLink:
    axis: int
    period_cells: int  # copy spacing along the axis, in cells
    cell_count: int  # cells in the cutoff window
    copies: Tuple[Tuple[PlacedImage, ...], ...]
    link: MinimalPeriodicLink

    def all_curves(self) -> List[Curve]:
        """Every copy's curves, copy by copy, each copy in link image order."""
        return [Curve(f"k{k}|{im.curve_id}", im.polyline, im.closed)
                for k, copy in enumerate(self.copies) for im in copy]


def build_cutoff(system: PBCSystem, n_copies: int) -> CutoffLink:
    """N copies of the periodic link spaced one disjointness period apart.

    Requires a single closed chain and exactly one periodic axis.  The
    union of copies is cross-checked against direct enumeration of image
    translates present in the cutoff window.
    """
    if isinstance(n_copies, numbers.Real) and n_copies < 1:
        raise PbcJonesError(f"need at least one copy, got {n_copies}")
    require_count("copy count", n_copies, 1)
    if len(system.chains) != 1 or system.chains[0].topology != "closed":
        raise PbcJonesError("cutoffs are defined here for a single closed chain")
    axis = single_periodic_axis(system.cell)
    link = minimal_periodic_link(system)
    period = link.mcu.copy_period(axis)
    copies: List[Tuple[PlacedImage, ...]] = []
    for k in range(n_copies):
        shift = [0, 0, 0]
        shift[axis] = k * period
        copies.append(tuple(im.shifted(system.cell, shift) for im in link.images))

    got = {im.translate for c in copies for im in c}
    if len(got) != sum(len(c) for c in copies):
        raise PbcJonesError("cutoff copies overlap; period too small for this system")

    # independent membership enumeration over the whole window
    dims = list(link.mcu.dims)
    dims[axis] += (n_copies - 1) * period
    window = UnfoldingBox(link.mcu.anchor, tuple(dims))
    base_img = link.base_images[system.chains[0].id]
    expected = set(present_translates(system.cell, system.cell.to_fractional(base_img.polyline),
                                      base_img.closed, window))
    if got != expected:
        raise PbcJonesError(
            f"cutoff window membership mismatch: copies give {sorted(got)}, "
            f"window enumeration gives {sorted(expected)}"
        )
    return CutoffLink(axis, period, window.cell_count, tuple(copies), link)


def split_bracket(pieces: Sequence[Diagram], crossing_cap: int = DEFAULT_CROSSING_CAP,
                  memo=None) -> LaurentPoly:
    """Bracket of a diagram given as its independent pieces (``Diagram.pieces``).

    Each piece is evaluated on its own, through ``memo`` when given, and
    one loop factor is charged per extra piece.
    """
    if not pieces:
        return LaurentPoly.one()
    total = LaurentPoly.one()
    for piece in pieces:
        total = total * bracket(piece, crossing_cap, memo=memo).poly
    return total * d_power(len(pieces) - 1)


@dataclass(frozen=True)
class CutoffReport:
    n_copies: int
    axis: int
    period_cells: int
    cell_count: int
    component_count: int
    shared_crossings: int
    slk: Fraction
    shared_sign_total: int
    writhe_total: int
    writhe_base: int
    writhe_identity_ok: bool
    v_cutoff: LaurentPoly
    v_base: LaurentPoly
    state_term: LaurentPoly
    lambda_tilde: LaurentPoly
    states_enumerated: int
    disconnecting_unique_ok: bool
    state_oracle_ok: bool
    sum_identity_ok: bool
    factorization_ok: bool

    def to_json_obj(self) -> dict:
        """Every field; polynomials serialized, the slk Fraction as a string."""
        obj = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, LaurentPoly):
                value = value.to_json_obj()
            elif isinstance(value, Fraction):
                value = str(value)
            obj[f.name] = value
        return obj


def verify_cutoff_factorization(system: PBCSystem, n_copies: int, xi=None,
                                tol: float = 1e-9, enumerate_cap: int = DEFAULT_ENUMERATE_CAP,
                                crossing_cap: int = DEFAULT_CROSSING_CAP) -> CutoffReport:
    """Check the cutoff factorization along one projection direction.

    All identities are exact polynomial equalities:
      - total writhe = N * base writhe + (N-1) * slk_p
      - the oriented state evaluates to one loop factor per extra copy
        times the base bracket to the N-th power
      - V(cutoff) = (-A^2)^(-(N-1)*slk_p) * d^(N-1) * V(base)^N plus the
        remainder enumerated over every other shared-crossing state
    """
    require_count("enumerate_cap", enumerate_cap, 0)
    require_count("crossing_cap", crossing_cap, 0)
    if xi is None:
        xi = sample_directions(1, "random", seed=0)[0]
    cut = build_cutoff(system, n_copies)
    curves = cut.all_curves()
    diagram, xi_used, _ = project_generic(curves, xi, tol)
    per_copy = len(cut.link.images)
    copy_of = {c.id: i // per_copy for i, c in enumerate(curves)}
    owner = diagram.passage_owner()
    # each crossing's copy is its over strand's; a shared crossing's under
    # strand lies in another copy
    crossing_copy = {cid: copy_of[owner[(cid, "o")]] for cid in diagram.crossings}
    shared = sorted(cid for cid, k in crossing_copy.items() if copy_of[owner[(cid, "u")]] != k)
    if len(shared) > enumerate_cap:
        raise PbcJonesError(
            f"{len(shared)} copy-to-copy crossings exceed the enumeration cap {enumerate_cap}"
        )

    memo: dict = {}  # copies and smoothed states repeat the same pieces
    base_diagram, _, _ = project_generic(curves[:per_copy], xi_used, tol)
    bracket_base = bracket(base_diagram, crossing_cap, memo=memo).poly
    v_base = writhe_prefactor(base_diagram.writhe) * bracket_base

    slk = slk_p(system, xi_used, link=cut.link, axis=cut.axis, tol=tol)
    n = n_copies
    shared_sign_total = sum(diagram.crossings[c] for c in shared)
    slk_term = (n - 1) * slk
    writhe_ok = (Fraction(shared_sign_total) == slk_term
                 and diagram.writhe == n * base_diagram.writhe + shared_sign_total)
    if slk_term.denominator != 1:
        raise PbcJonesError("copy-to-copy self-linking must be an integer for the factorization")
    m = -int(slk_term)
    state_term = (LaurentPoly.monomial(-1 if m % 2 else 1, 2 * m)
                  * d_power(n - 1) * v_base ** n)

    bracket_total = bracket(diagram, crossing_cap, memo=memo).poly
    v_cutoff = writhe_prefactor(diagram.writhe) * bracket_total

    # enumerate every shared-crossing state; the oriented one, which smooths
    # each shared crossing along its sign, disconnects the copies
    oriented_kinds = tuple("A" if diagram.crossings[c] > 0 else "B" for c in shared)
    states_sum = LaurentPoly.zero()
    disconnecting: List[Tuple[str, ...]] = []
    for kinds, exp, d_state in _shared_states(diagram, shared):
        pieces = d_state.pieces()
        state_bracket = split_bracket(pieces, crossing_cap, memo=memo)
        value = LaurentPoly.monomial(1, exp) * state_bracket
        states_sum = states_sum + value
        if kinds == oriented_kinds:
            state_oracle_ok = state_bracket == d_power(n - 1) * bracket_base ** n
            oriented_value = value
        if _is_disconnecting(pieces, crossing_copy, n):
            disconnecting.append(kinds)
    sum_ok = states_sum == bracket_total
    unique_ok = disconnecting == [oriented_kinds]
    lambda_tilde = writhe_prefactor(diagram.writhe) * (states_sum - oriented_value)
    factorization_ok = (state_term + lambda_tilde) == v_cutoff

    return CutoffReport(
        n_copies=n,
        axis=cut.axis,
        period_cells=cut.period_cells,
        cell_count=cut.cell_count,
        component_count=len(curves),
        shared_crossings=len(shared),
        slk=slk,
        shared_sign_total=shared_sign_total,
        writhe_total=diagram.writhe,
        writhe_base=base_diagram.writhe,
        writhe_identity_ok=writhe_ok,
        v_cutoff=v_cutoff,
        v_base=v_base,
        state_term=state_term,
        lambda_tilde=lambda_tilde,
        states_enumerated=2 ** len(shared),
        disconnecting_unique_ok=unique_ok,
        state_oracle_ok=state_oracle_ok,
        sum_identity_ok=sum_ok,
        factorization_ok=factorization_ok,
    )


def _shared_states(diagram: Diagram,
                   shared: Sequence[str]) -> Iterator[Tuple[Tuple[str, ...], int, Diagram]]:
    """Every A/B state of the shared crossings in lexicographic order.

    Yields (kinds, A-count minus B-count, smoothed diagram); the diagram
    smoothed at the first crossing is shared by all states below it.
    """
    if not shared:
        yield (), 0, diagram
        return
    for kind, shift in (("A", 1), ("B", -1)):
        for kinds, exp, d_state in _shared_states(diagram.smooth(shared[0], kind), shared[1:]):
            yield (kind,) + kinds, exp + shift, d_state


def _is_disconnecting(pieces: Sequence[Diagram], crossing_copy: Dict[str, int],
                      n_copies: int) -> bool:
    """True when every piece of a smoothed diagram carries crossings of
    at most one copy and the pieces realize all copies separately.

    Only crossings inside one copy survive the shared smoothings, so
    ``crossing_copy`` (the copy of each crossing's over strand) gives the
    copy of both strands.
    """
    seen: set = set()
    for piece in pieces:
        copies = {crossing_copy[cid] for cid in piece.crossings}
        if len(copies) > 1:
            return False
        seen |= copies
    return len(seen) == n_copies
