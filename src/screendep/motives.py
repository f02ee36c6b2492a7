"""Closed forms for multi-layer single-site patterns on the line (d = 2).

A pattern is a top-down binary word over the lowest layers of one vertex;
"0101" means layers 1 and 3 occupied, layers 2 and 4 empty.  Its
probability obeys a linear ODE whose inflow and outflow terms are the
probabilities of simpler local configurations, the pre-image motives:
windows around the vertex from which one more settlement completes or
caps the pattern.  Screening keeps the recursion finite, so the whole
system can be solved bottom-up inside the ExpPoly ring.

Each Motive records its name, a short description of the window it
counts, the defining equation (as a display string), and the exact
closed form.  The final motive of a system is the target pattern itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .analytic import s_conditional
from .exppoly import ExpPoly, solve_linear_ode


@dataclass(frozen=True)
class Motive:
    """One node of a pattern system: a named local configuration probability."""

    name: str
    description: str
    definition: str
    closed_form: ExpPoly

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "definition": self.definition,
            "closed_form": self.closed_form.to_json_dict(),
            "rendered": self.closed_form.render(),
        }


def _build_system_0101() -> tuple[Motive, ...]:
    # Window diagrams below list layers bottom-up per column
    # (left | center | right); "-" empty, "x" no arrivals at all.
    s2 = s_conditional(2)  # e^{-t} - e^{-2t}
    te3 = ExpPoly.term(1, power=1, rate=3)
    te4 = ExpPoly.term(1, power=1, rate=4)

    lone = Motive(
        name="lone",
        description=(
            "one particle at layer 1, both neighbors empty, second neighbor "
            "on one side untouched"
        ),
        definition="t*exp(-4t)",
        closed_form=te4,
    )
    pair = Motive(
        name="pair",
        description=(
            "two layer-1 particles two sites apart, the sites between and "
            "beyond empty"
        ),
        definition="S2(t) * t*exp(-3t)",
        closed_form=s2 * te3,
    )
    gain_open = Motive(
        name="gain_open",
        description=(
            "center holds layer 1 only, one neighbor capped at layer 2, the "
            "other untouched; a center settlement completes the target"
        ),
        definition="y' = -3y + lone + pair, y(0) = 0",
        closed_form=solve_linear_ode(
            lone.closed_form + pair.closed_form, 3, 0
        ),
    )
    cap_cond = Motive(
        name="cap_cond",
        description=(
            "given an untouched center, the neighbor holds one layer-1 "
            "particle and the next vertex out is capped at layer 2"
        ),
        definition="y' = -2y + t*exp(-3t) + t*exp(-2t)*S2(t), y(0) = 0",
        closed_form=solve_linear_ode(
            te3 + ExpPoly.term(1, power=1, rate=2) * s2, 2, 0
        ),
    )
    cap_open = Motive(
        name="cap_open",
        description="cap_cond window with the far side untouched",
        definition="cap_cond * exp(-2t)",
        closed_form=cap_cond.closed_form * ExpPoly.exp(2),
    )
    cap_paired = Motive(
        name="cap_paired",
        description="cap_cond window with a layer-1 particle on the far side",
        definition="cap_cond * S2(t) * exp(-t)",
        closed_form=cap_cond.closed_form * s2 * ExpPoly.exp(1),
    )
    gain_capped = Motive(
        name="gain_capped",
        description=(
            "center holds layer 1 only, both neighbors capped at layer 2; a "
            "center settlement completes the target"
        ),
        definition="y' = -3y + 2*cap_open + 2*cap_paired, y(0) = 0",
        closed_form=solve_linear_ode(
            (cap_open.closed_form + cap_paired.closed_form).scale(2), 3, 0
        ),
    )
    loss_open = Motive(
        name="loss_open",
        description=(
            "target at the center with one flank capped at layer 2 and the "
            "other low; a center settlement overshoots into layer 4"
        ),
        definition="y' = -3y + gain_open, y(0) = 0",
        closed_form=solve_linear_ode(gain_open.closed_form, 3, 0),
    )
    loss_capped = Motive(
        name="loss_capped",
        description=(
            "target at the center with both flanks capped at layer 2; a "
            "center settlement overshoots into layer 4"
        ),
        definition="y' = -3y + gain_capped, y(0) = 0",
        closed_form=solve_linear_ode(gain_capped.closed_form, 3, 0),
    )
    # Asymmetric motives count twice (mirror images), symmetric ones once.
    target = Motive(
        name="target",
        description="layers 1 and 3 occupied, layers 2 and 4 empty, at one vertex",
        definition="y' = 2*gain_open + gain_capped - 2*loss_open - loss_capped, y(0) = 0",
        closed_form=(
            gain_open.closed_form.scale(2)
            + gain_capped.closed_form
            - loss_open.closed_form.scale(2)
            - loss_capped.closed_form
        ).integrate0(),
    )
    return (
        lone,
        pair,
        gain_open,
        cap_cond,
        cap_open,
        cap_paired,
        gain_capped,
        loss_open,
        loss_capped,
        target,
    )


def pattern_system(pattern: str = "0101") -> tuple[Motive, ...]:
    """The solved motive system for a pattern, target motive last.

    Only "0101" has a system; any other word is a ValueError.
    """
    if pattern != "0101":
        raise ValueError(f"no motive system for pattern {pattern!r}; known: ('0101',)")
    return _build_system_0101()


def target_probability(pattern: str = "0101") -> ExpPoly:
    """Exact probability of the pattern at a vertex of the line."""
    return pattern_system(pattern)[-1].closed_form


def system_json(pattern: str = "0101") -> dict:
    system = pattern_system(pattern)
    return {
        "pattern": pattern,
        "motives": [m.to_json_dict() for m in system],
        "limit": str(system[-1].closed_form.limit_at_infinity()),
    }
