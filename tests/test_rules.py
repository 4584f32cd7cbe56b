"""Rule language: parsing, validation, safety and monotonicity analysis."""

import pytest

from entres.errors import (
    ArityMismatch,
    SpecSyntaxError,
    SpecValidationError,
    UnknownRelation,
    UnknownSimFunction,
    UnsafeHeadVariable,
)
from entres.rules import (
    RuleKind,
    Var,
    analyse,
    join_vars,
    parse_spec,
    validate_sim_safety,
    var_positions,
)

from instances import generate_neq

BASE = "relation R(rid: id, a: val, b: val) merge [rid];\n"


def rule_of(text: str):
    return parse_spec(BASE + text).all_rules()[0]


class TestParsingGolden:
    def test_music_spec_shape(self, music_spec):
        names = [r.name for r in music_spec.schema.relations]
        assert names == ["Band", "Song", "Appear"]
        band = music_spec.schema.decl("Band")
        assert band.attributes == ("bid", "name", "genre", "year", "founder")
        assert band.hints == ("id", "short", "short", "num", "short")
        assert band.merge_positions == (0,)
        assert [r.label for r in music_spec.hard] == ["rho"]
        assert [r.label for r in music_spec.soft] == ["sigma"]
        assert [d.label for d in music_spec.dcs] == ["delta"]
        assert [s.name for s in music_spec.sim_decls] == ["approx"]

    def test_music_rule_bodies(self, music_spec):
        rho = music_spec.rule_by_label("rho")
        assert rho.kind is RuleKind.HARD
        assert len(rho.body.rel_atoms) == 2
        assert len(rho.body.sim_atoms) == 2
        assert all(sa.func_id == "approx" for sa in rho.body.sim_atoms)
        assert all(sa.threshold == 5000 for sa in rho.body.sim_atoms)
        sigma = music_spec.rule_by_label("sigma")
        assert sigma.kind is RuleKind.SOFT
        assert sigma.head == (Var("x"), Var("y"))
        delta = music_spec.rule_by_label("delta")
        assert delta is None  # constraints are not merge rules
        assert len(music_spec.dcs[0].body.neq_atoms) == 1

    def test_descriptions_carried(self, music_spec):
        assert music_spec.hard[0].description
        assert music_spec.dcs[0].description

    def test_terms(self):
        r = rule_of(
            'hard h: R(x, "alpha", b), R(y, a2, b), R(@r9, a2, b) => eq(x, y);'
        )
        a0 = r.body.rel_atoms[0]
        assert a0.args[1].kind.value == "value" and a0.args[1].text == "alpha"
        a2 = r.body.rel_atoms[2]
        assert a2.args[0].kind.value == "entity" and a2.args[0].text == "r9"

    def test_number_terms_are_values(self):
        r = rule_of("hard h: R(x, a, 7), R(y, a, 7) => eq(x, y);")
        assert r.body.rel_atoms[0].args[2].text == "7"
        assert r.body.rel_atoms[0].args[2].kind.value == "value"


class TestThresholds:
    def test_integer_and_decimals_scale_to_hundredths(self):
        r = rule_of(
            "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 85 => eq(x, y);"
        )
        assert r.body.sim_atoms[0].threshold == 8500
        r = rule_of(
            "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 85.55 => eq(x, y);"
        )
        assert r.body.sim_atoms[0].threshold == 8555

    def test_three_decimals_rejected(self):
        with pytest.raises(SpecSyntaxError, match="more than two decimals"):
            rule_of(
                "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 85.555 => eq(x, y);"
            )

    def test_range_enforced(self):
        with pytest.raises(SpecSyntaxError, match=r"outside \[0, 100\]"):
            rule_of(
                "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 101 => eq(x, y);"
            )


class TestValidation:
    def test_unknown_relation(self):
        with pytest.raises(UnknownRelation):
            rule_of("hard h: Z(x, a) => eq(x, y);")

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            rule_of("hard h: R(x, a) => eq(x, y);")

    def test_unsafe_head_variable(self):
        with pytest.raises(UnsafeHeadVariable):
            rule_of("hard h: R(x, a, b) => eq(x, y);")

    def test_head_must_touch_merge_position(self):
        with pytest.raises(SpecValidationError, match="merge position"):
            rule_of("hard h: R(x, a, b), R(y, a, b2) => eq(a, y);")

    def test_duplicate_labels(self):
        with pytest.raises(SpecValidationError, match="duplicate label"):
            parse_spec(
                BASE
                + "hard h: R(x, a, b), R(y, a, b2) => eq(x, y);\n"
                + "hard h: R(x, a, b), R(y, a2, b) => eq(x, y);"
            )

    def test_sim_atom_rejected_in_constraint(self):
        with pytest.raises(SpecValidationError, match="denial constraints"):
            parse_spec(BASE + "deny d: R(x, a, b), R(y, a2, b), sim(a, a2) >= 50;")

    def test_unknown_sim_function(self):
        with pytest.raises(UnknownSimFunction):
            rule_of(
                "hard h: R(x, a, b), R(y, a2, b), sim:zap(a, a2) >= 50 => eq(x, y);"
            )

    def test_unbound_sim_term(self):
        with pytest.raises(SpecValidationError, match="not bound"):
            rule_of(
                "hard h: R(x, a, b), R(y, a, b2), sim(a, zz) >= 50 => eq(x, y);"
            )

    def test_inequality_allowed_in_rule_bodies(self):
        r = rule_of("hard h: R(x, a, b), R(y, a, b2), b != b2 => eq(x, y);")
        assert len(r.body.neq_atoms) == 1


class TestSyntax:
    def test_arrows_match_rule_kind(self):
        with pytest.raises(SpecSyntaxError, match="soft rule must use ~>"):
            rule_of("soft h: R(x, a, b), R(y, a, b2) => eq(x, y);")
        with pytest.raises(SpecSyntaxError, match="hard rule must use =>"):
            rule_of("hard h: R(x, a, b), R(y, a, b2) ~> eq(x, y);")

    def test_error_carries_line_and_column(self):
        with pytest.raises(SpecSyntaxError, match=r"^2:\d+:"):
            parse_spec(BASE + "relation Broken(")

    def test_truncated_input(self):
        with pytest.raises(SpecSyntaxError):
            parse_spec("relation R(rid: id) merge [rid]")


class TestAutoRouting:
    def test_val_and_short_route_to_jw(self):
        r = rule_of(
            "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 50 => eq(x, y);"
        )
        assert (r.body.sim_atoms[0].func_id, r.body.sim_atoms[0].backend) == (
            "jw",
            "jw",
        )

    def test_num_routes_to_edit_distance(self):
        spec = parse_spec(
            "relation N(nid: id, y: num) merge [nid];\n"
            "hard h: N(x, y1), N(y, y2), sim(y1, y2) >= 50 => eq(x, y);"
        )
        sa = spec.hard[0].body.sim_atoms[0]
        assert (sa.func_id, sa.backend) == ("lev", "lev")

    def test_long_routes_to_token_cosine_per_position(self):
        spec = parse_spec(
            "relation L(lid: id, d: long) merge [lid];\n"
            "hard h: L(x, d1), L(y, d2), sim(d1, d2) >= 50 => eq(x, y);"
        )
        sa = spec.hard[0].body.sim_atoms[0]
        assert (sa.func_id, sa.backend) == ("tfidf@L.d", "tfidf")

    def test_declared_name_keeps_its_identity(self, music_spec):
        sa = music_spec.hard[0].body.sim_atoms[0]
        assert (sa.func_id, sa.backend) == ("approx", "table")


class TestSafetyAnalysis:
    def test_music_is_sim_safe(self, music_spec):
        assert validate_sim_safety(music_spec) == []

    def test_sim_over_merge_position_flagged(self):
        spec = parse_spec(
            BASE + "hard h: R(x, a, b), R(y, a, b2), sim(x, y) >= 50 => eq(x, y);"
        )
        bad = validate_sim_safety(spec)
        assert [(vi.rule_label, vi.relation, vi.attribute) for vi in bad] == [
            ("h", "R", "rid")
        ]


class TestBodyHelpers:
    def test_var_inventory(self):
        r = rule_of(
            "hard h: R(x, a, b), R(y, a2, b), sim(a, a2) >= 50 => eq(x, y);"
        )
        assert join_vars(r.body) == frozenset({Var("b")})
        assert var_positions(r.body)[Var("a2")] == (("R", 1),)


class TestTransforms:
    """The rule sets the analysis derives for the fixpoints and the chain."""

    def test_hard_only_projection(self, music_spec):
        an = analyse(music_spec)
        assert [r.label for r in an.lb] == ["rho"]
        # every body is monotone, so the constraint prunes the search
        assert an.breaks == {}
        assert an.pruning == music_spec.dcs and an.checked == ()

    def test_everything_promoted_to_hard(self, music_spec):
        an = analyse(music_spec)
        for rules in (an.promoted, an.ub):
            assert [r.label for r in rules] == ["rho", "sigma"]
            assert all(r.kind is RuleKind.HARD for r in rules)
        assert an.ub == an.promoted  # no inequality to drop

    def test_similarity_atoms_dropped(self, music_spec):
        an = analyse(music_spec)
        assert [r.label for r in an.loose_ub] == ["rho", "sigma"]
        assert all(not r.body.sim_atoms for r in an.loose_ub)
        assert [r.body.rel_atoms for r in an.loose_ub] == [
            r.body.rel_atoms for r in music_spec.all_rules()
        ]


TWO = (
    "relation R(rid: id, a: val, b: val) merge [rid];\n"
    "relation S(sid: id, t: val, r: id) merge [sid];\n"
)
#: an inequality per kind of operand: a value column, a reference column
#: and an entity constant
VALUE = "R(x, a, b), R(y, a, b2), b != b2"
COLUMN = "S(x, t, r), S(y, t, r2), r != r2"
CONSTANT = "S(x, t, r), S(y, t2, r), x != @s0"
PLAIN = "R(x, a, b), R(y, a, b)"
WHY = {
    COLUMN: "reads reference column S.r",
    CONSTANT: "compares with entity constant @s0",
}


#: the two kinds of inequality that can turn false as classes grow
breaking = pytest.mark.parametrize(
    "body", [COLUMN, CONSTANT], ids=["column", "constant"]
)


def stmt(kind: str, label: str, body: str) -> str:
    if kind == "deny":
        return f"deny {label}: {body};\n"
    arrow = "=>" if kind == "hard" else "~>"
    return f"{kind} {label}: {body} {arrow} eq(x, y);\n"


class TestAnalysis:
    @breaking
    def test_hard_rule_with_a_break(self, body):
        spec = parse_spec(
            TWO + stmt("hard", "h0", PLAIN) + stmt("hard", "h", body)
            + stmt("soft", "s", VALUE)
        )
        an = analyse(spec)
        natom = spec.hard[1].body.neq_atoms[0]
        assert an.breaks == {"h": (natom, WHY[body])}
        assert [r.label for r in an.lb] == ["h0"]
        assert not an.eager and not an.splits
        assert [r.label for r in an.branching] == ["s", "h0", "h"]
        # ub drops the break and keeps the value-column inequality
        assert [len(r.body.neq_atoms) for r in an.ub] == [0, 0, 1]
        assert [len(r.body.neq_atoms) for r in an.promoted] == [0, 1, 1]

    @breaking
    def test_soft_rule_with_a_break(self, body):
        spec = parse_spec(
            TWO + stmt("hard", "h", PLAIN) + stmt("soft", "s", body)
        )
        an = analyse(spec)
        assert an.breaks == {"s": (spec.soft[0].body.neq_atoms[0], WHY[body])}
        assert [r.label for r in an.lb] == ["h"]
        assert not an.eager and not an.splits
        assert [r.label for r in an.branching] == ["s", "h"]
        assert [len(r.body.neq_atoms) for r in an.ub] == [0, 0]

    @breaking
    def test_constraint_with_a_break(self, body):
        spec = parse_spec(
            TWO + stmt("soft", "s", PLAIN) + stmt("deny", "d0", VALUE)
            + stmt("deny", "d", body)
        )
        an = analyse(spec)
        assert an.breaks == {"d": (spec.dcs[1].body.neq_atoms[0], WHY[body])}
        assert an.eager and not an.splits
        assert [r.label for r in an.branching] == ["s"]
        assert [d.label for d in an.pruning] == ["d0"]
        assert [d.label for d in an.checked] == ["d"]

    def test_value_inequalities_stay_monotone(self):
        spec = parse_spec(
            TWO + stmt("hard", "h", VALUE) + stmt("soft", "s", VALUE)
            + stmt("deny", "d", "R(x, a, b), R(x, a2, b2), b != \"k\"")
        )
        an = analyse(spec)
        assert an.breaks == {}
        assert an.eager and an.splits
        assert [r.label for r in an.lb] == ["h"]
        assert [r.label for r in an.branching] == ["s"]
        assert an.pruning == spec.dcs and an.checked == ()
        assert an.ub == an.promoted

    def test_first_break_of_a_body_is_reported(self):
        spec = parse_spec(
            TWO + stmt("soft", "s", "S(x, t, r), S(y, t, r2), "
                       "t != \"u\", x != @s1, r != r2")
        )
        natom, why = analyse(spec).breaks["s"]
        assert repr(natom) == "?x != @s1"
        assert why == "compares with entity constant @s1"
        assert [repr(n) for n in analyse(spec).ub[0].body.neq_atoms] == [
            "?t != u"
        ]

    def test_computed_once_per_specification(self, music_spec):
        assert analyse(music_spec) is analyse(music_spec)

    def test_inequality_family_shapes(self):
        # generate_neq: r1 compares value columns, s1 a reference column,
        # s2 an entity constant; d1 value columns, d2 a reference column
        shapes = set()
        for seed in range(40):
            spec = generate_neq(seed).spec
            an = analyse(spec)
            labels = [r.label for r in spec.all_rules()]
            dcs = [d.label for d in spec.dcs]
            assert list(an.breaks) == [
                x for x in labels + dcs if x in ("s1", "s2", "d2")
            ]
            assert an.breaks["s1"][1] == "reads reference column S.r"
            if "s2" in labels:
                assert an.breaks["s2"][1] == (
                    "compares with entity constant @s0"
                )
            assert not an.eager and not an.splits
            assert an.branching == spec.soft + spec.hard
            assert an.lb == spec.hard
            assert [d.label for d in an.checked] == [
                x for x in dcs if x == "d2"
            ]
            assert [d.label for d in an.pruning] == [
                x for x in dcs if x == "d1"
            ]
            shapes.add((tuple(an.breaks), len(an.lb)))
        assert len(shapes) >= 6
