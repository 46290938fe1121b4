"""Rule catalog: stable anchor ids cited by every trace line.

Each decision condition carries an anchor naming the rule it instantiates.
The catalog below is the single source of truth; the README renders it as
the rulebook.  Anchors are stable identifiers, safe to pin in golden
files.
"""

RULEBOOK: dict[str, str] = {
    # hypotheses on the value spaces
    "hyp.umd": "every value space must carry the UMD flag",
    "hyp.alpha": "property-(alpha) flag required when the weight vector is "
                 "genuinely anisotropic",
    "hyp.signature": "the pointwise product of the value spaces must be "
                     "admissible (all scalar, scalars carrying one "
                     "vector-valued factor, or powers of one Banach algebra)",
    "hyp.algebra": "the value space must be a Banach algebra",
    "hyp.unital": "the value space must be a unital Banach algebra",

    # descriptor bookkeeping
    "space.index": "Sobolev index (s - (w.n) x) / lcm(w); adapted index "
                   "-(w.n)/lcm(w) x for the Lebesgue scale",
    "space.w-to-h": "Sobolev-Slobodeckij descriptor rewritten on the "
                    "Bessel-potential scale when s is a multiple of lcm(w)",
    "space.w-to-b": "Sobolev-Slobodeckij descriptor rewritten on the Besov "
                    "scale (micro-scale = integrability) when s > 0 and no "
                    "slice ratio s/w_k is an integer",
    "space.zero-order": "zero smoothness collapses to the Lebesgue scale",

    # embeddings
    "embed.identity": "every space embeds into itself",
    "embed.dispatch": "an embedding rule must exist for the scale pair",
    "embed.b-b": "Besov into Besov: smoothness and integrability ordered, "
                 "index ordered, index strict or micro-scale ordered",
    "embed.h-h": "Bessel-potential into Bessel-potential: smoothness, "
                 "integrability and index ordered",
    "embed.b-h": "Besov into Bessel-potential: smoothness strictly drops, "
                 "integrability and index ordered, index strict or source "
                 "micro-scale at most target integrability",
    "embed.h-b": "Bessel-potential into Besov: smoothness strictly drops, "
                 "integrability and index ordered, index strict or source "
                 "integrability at most target micro-scale",
    "embed.h-l": "Bessel-potential into Lebesgue: adapted target index at "
                 "most source index, integrability ordered, index strict or "
                 "finite target exponent",
    "embed.b-l": "Besov into Lebesgue: adapted target index at most source "
                 "index, integrability ordered, index strict or (micro-scale "
                 "at most integrability and finite target exponent)",
    "embed.c0": "positive index embeds into vanishing continuous functions",
    "embed.detour": "one deterministic intermediate space (midpoint "
                    "smoothness, target index) may bridge a side-condition gap",

    # interpolation identities
    "interp.complex.b": "complex interpolation of Besov spaces: all three "
                        "parameters interpolate as convex combinations of "
                        "reciprocals",
    "interp.complex.h": "complex interpolation of Bessel-potential spaces: "
                        "fixed integrability with convex smoothness, or "
                        "fixed smoothness with convex reciprocal integrability",
    "interp.complex.l": "complex interpolation of Lebesgue spaces",
    "interp.real.b": "real interpolation of Besov spaces: fixed integrability "
                     "and distinct smoothness orders, free micro-scale",
    "interp.real.b-coupled": "real interpolation of Besov spaces with the "
                             "functor parameter equal to the interpolated "
                             "integrability; micro-scales must satisfy the "
                             "same convex relation",
    "interp.real.h": "real interpolation of Bessel-potential spaces: fixed "
                     "integrability and distinct smoothness orders lands on "
                     "the Besov scale",
    "interp.real.h-coupled": "real interpolation of Bessel-potential spaces "
                             "with fixed smoothness and coupled functor "
                             "parameter",
    "interp.real.l": "real interpolation of Lebesgue spaces with coupled "
                     "functor parameter",

    # m-linear multiplication
    "mult.range": "smoothness parameters nonnegative and integrability "
                  "exponents in (1, oo)",
    "mult.besov-micro": "the multiplication results cover the one-parameter "
                        "Besov scale only (micro-scale = integrability)",
    "mult.i": "(i) target smoothness at most every factor smoothness",
    "mult.ii": "(ii) target reciprocal integrability at most the sum of the "
               "factor reciprocals",
    "mult.iii": "(iii) target index at most the factor index sum over every "
                "nonempty factor subset",
    "mult.a": "(a) strictly larger smoothness for factors on a different "
              "scale than the target",
    "mult.b": "(b) Besov target: positive smoothness and equal integrability "
              "for equal-smoothness factors",
    "mult.c": "(c) Besov target: index inequality strict, or no factor "
              "integrability exponent above the target one",
    "mult.d": "(d) Bessel-potential target: smoothness a multiple of lcm(w), "
              "or (i) strict, or equality in (ii)",
    "mult.e": "(e) mixed scales: at least one of (ii), (iii) strict",
    "mult.f": "(f) some factor of vanishing index: (iii) strict",

    # multiplier form
    "multiplier.pivot": "one factor must equal the target in scale, "
                        "smoothness and integrability",
    "multiplier.range": "target smoothness nonnegative and at most every "
                        "factor smoothness",
    "multiplier.index-positive": "every non-pivot factor has positive index",
    "multiplier.index-dominates": "every non-pivot factor index at least the "
                                  "target index",
    "multiplier.a": "(a) strictly larger smoothness for factors on a "
                    "different scale than the target",
    "multiplier.b": "(b) Besov target: positive smoothness and no factor "
                    "integrability exponent above the target one",
    "multiplier.c": "(c) Bessel-potential target: smoothness a multiple of "
                    "lcm(w)",

    # algebra criterion
    "algebra.criterion": "multiplication algebra iff positive index, and "
                         "smoothness a positive multiple of lcm(w) on the "
                         "Bessel-potential scale",

    # superposition (analytic composition) gate
    "nemytskij.vanishing": "the analytic function must vanish at the origin",
    "nemytskij.range": "positive target smoothness and integrability "
                       "exponents in (1, oo)",
    "nemytskij.index-positive": "the target index is strictly positive",
    "nemytskij.index-dominated": "the target index is at most every argument "
                                 "index",
    "nemytskij.smoothness": "target smoothness at most every argument "
                            "smoothness",
    "nemytskij.integrability": "no argument integrability exponent above the "
                               "target one",
    "nemytskij.a": "(a) strictly larger smoothness for arguments on a "
                   "different scale than the target",
    "nemytskij.b": "(b) Bessel-potential target: smoothness a positive "
                   "multiple of lcm(w), or strictly below every argument "
                   "smoothness",
    "nemytskij.constants": "admissible radius rho < min over arguments of "
                           "min(C_j^-1, M_j^-1) * r; the operator constant "
                           "depends on the product norm and the first-order "
                           "coefficients only",

    # closed-form exponent lemmas
    "lemma.realize": "feasible target sums split into per-factor exponents "
                     "via the monotone affine interpolant",
    "lemma.minimize": "piecewise-linear minimum over bounded integer "
                      "compositions with the three-case minimizer rule",

    # application suites
    "app.stefan.mixed-derivative": "mixed-derivative regularity facts for "
                                   "the one-phase supercooled interface "
                                   "problem, imported as axioms",
    "app.nvs.mixed-derivative": "mixed-derivative regularity facts for the "
                                "two-phase incompressible flow problem, "
                                "imported as axioms",
    "app.exclusions": "isolated exponents excluded by the linear solvability "
                      "theory, reported and not derived",
    "app.compat": "initial-data compatibility conditions are listed, not "
                  "checked",
}


def anchor_text(anchor: str) -> str:
    """Human-readable statement of a rule anchor."""
    return RULEBOOK.get(anchor, "(unknown rule)")
