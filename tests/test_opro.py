"""Windowed scoring, meta-prompt construction, candidate validation, reflection."""

from __future__ import annotations

import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tradeloop.agents import read_fence
from tradeloop import opro as opro_module
from tradeloop.gateway import ChatMessage, Gateway, ScriptEntry, ScriptedProvider, message_fragment, text_id, text_part
from tradeloop.opro import (
    HISTORY_MARKER,
    AdaptiveOpro,
    OptimizerParseError,
    PromptRecord,
    build_history_text,
    build_meta_prompt,
    meta_prompt,
    parse_optimizer_response,
    reflect,
    validate_candidate,
    window_score,
)
from tradeloop.templates import asset_path, load_template

from conftest import fence_texts

OPTIMIZER_ASSET = asset_path("optimizer").read_text(encoding="utf-8")


def make_gateway(script):
    return Gateway(ScriptedProvider(script), sleep=lambda _s: None)


def optimizer_reply(template_text: str) -> str:
    payload = {
        "performance_analysis": "analysis",
        "optimized_prompt": template_text,
        "key_improvements": "improvements",
        "expected_impact": "impact",
    }
    return "```json\n" + json.dumps(payload) + "\n```"


def accepts(current, candidate_text: str) -> bool:
    """Whether `validate_candidate` lets the candidate go live."""
    try:
        validate_candidate(current, candidate_text)
    except OptimizerParseError:
        return False
    return True


def rejection(current, candidate_text: str) -> OptimizerParseError:
    """The error `validate_candidate` rejects the candidate with."""
    with pytest.raises(OptimizerParseError) as err:
        validate_candidate(current, candidate_text)
    return err.value


class TestWindowScore:
    def test_anchor_points_exact(self):
        assert window_score(-0.20) == 0.0
        assert window_score(0.0) == 50.0
        assert window_score(0.20) == 100.0

    def test_clipping(self):
        assert window_score(0.30) == 100.0
        assert window_score(-0.50) == 0.0
        assert window_score(10.0) == 100.0

    def test_interior_linear(self):
        assert window_score(0.02) == pytest.approx(55.0)
        assert window_score(-0.02) == pytest.approx(45.0)

    @given(st.floats(min_value=-2.0, max_value=2.0, allow_nan=False))
    @settings(max_examples=200)
    def test_bounded(self, roi):
        assert 0.0 <= window_score(roi) <= 100.0

    def test_monotone_over_random_sample(self):
        rng = random.Random(0)
        rois = sorted(rng.uniform(-1.0, 1.0) for _ in range(10_000))
        scores = [window_score(r) for r in rois]
        assert all(b >= a for a, b in zip(scores, scores[1:]))
        assert all(s == 0.0 for r, s in zip(rois, scores) if r < -0.20)
        assert all(s == 100.0 for r, s in zip(rois, scores) if r > 0.20)


class TestCloseWindow:
    def _opro(self, roi_mode="cumulative", k=5):
        return AdaptiveOpro(
            initial_template=load_template("cta_initial"),
            gateway=Gateway(ScriptedProvider([])),
            optimizer_asset=OPTIMIZER_ASSET,
            k=k,
            roi_mode=roi_mode,
        )

    def test_two_percent_gain_scores_55(self):
        opro = self._opro()
        window = opro.close_window(5, 100_000.0, 102_000.0)
        assert window.roi == pytest.approx(0.02)
        assert window.score == pytest.approx(55.0)
        assert (window.start_step, window.end_step) == (0, 5)

    def test_flat_portfolio_scores_50_every_window(self):
        opro = self._opro()
        for step in (5, 10, 15):
            assert opro.close_window(step, 100_000.0, 100_000.0).score == 50.0

    def test_boundaries_for_twelve_steps(self):
        opro = self._opro()
        boundaries = [s for s in range(1, 13) if opro.is_boundary(s)]
        assert boundaries == [5, 10]
        # the final partial window closes at run end regardless
        opro.close_window(5, 1.0, 1.0)
        opro.close_window(10, 1.0, 1.0)
        final = opro.close_window(12, 1.0, 1.0)
        assert (final.start_step, final.end_step) == (10, 12)

    def test_windowed_mode_uses_previous_window_end(self):
        opro = self._opro(roi_mode="windowed")
        opro.close_window(5, 100_000.0, 110_000.0)
        window = opro.close_window(10, 100_000.0, 99_000.0)
        assert window.v_start == pytest.approx(110_000.0)
        assert window.roi == pytest.approx((99_000.0 - 110_000.0) / 110_000.0)

    def test_windowed_mode_scores_from_inception_after_a_window_ends_at_or_below_zero(self):
        opro = self._opro(roi_mode="windowed")
        assert opro.close_window(5, 100_000.0, -50_000.0).roi == pytest.approx(-1.5)
        window = opro.close_window(10, 100_000.0, 20_000.0)
        assert (window.start_step, window.v_start) == (5, 100_000.0)
        assert window.roi == pytest.approx(-0.8)
        assert window.score == 0.0
        assert opro.close_window(15, 100_000.0, 30_000.0).v_start == 20_000.0

    def test_cumulative_mode_always_inception(self):
        opro = self._opro()
        opro.close_window(5, 100_000.0, 110_000.0)
        window = opro.close_window(10, 100_000.0, 99_000.0)
        assert window.v_start == pytest.approx(100_000.0)
        assert window.roi == pytest.approx(-0.01)

    def test_score_rounded_to_one_decimal_on_record(self):
        opro = self._opro()
        opro.close_window(5, 100_000.0, 101_234.0)  # roi 0.01234 -> 53.085
        assert opro.history[0].score == pytest.approx(53.1)


class TestHistoryText:
    def test_single_record(self):
        records = [PromptRecord(iteration=1, template_text="T1", score=43.2)]
        text = build_history_text(records)
        assert text == "### Prompt 1 | Score: 43.2\nT1"

    def test_ascending_by_score(self):
        # Trace-style fixture scores: 43.2 listed before 56.6.
        records = [
            PromptRecord(iteration=2, template_text="T2", score=56.6),
            PromptRecord(iteration=1, template_text="T1", score=43.2),
        ]
        text = build_history_text(records)
        assert text.index("43.2") < text.index("56.6")

    def test_ties_break_by_iteration(self):
        records = [
            PromptRecord(iteration=2, template_text="T2", score=50.0),
            PromptRecord(iteration=1, template_text="T1", score=50.0),
        ]
        text = build_history_text(records)
        assert text.index("Prompt 1") < text.index("Prompt 2")

    def test_every_prior_score_included_verbatim(self):
        records = [
            PromptRecord(iteration=i, template_text=f"T{i}", score=40.0 + i)
            for i in range(1, 6)
        ]
        text = build_history_text(records)
        for i in range(1, 6):
            assert f"Score: {40.0 + i:.1f}" in text

    def test_unscored_and_rejected_excluded(self):
        records = [
            PromptRecord(iteration=1, template_text="T1", score=50.0),
            PromptRecord(iteration=2, template_text="T2", score=None),
        ]
        assert "T2" not in build_history_text(records)
        # A rejected candidate never enters the history the meta-prompt lists.
        current = load_template("cta_initial")
        rejected = current.body + "\nWatch {{ sneaky_new_var }}."
        gateway = make_gateway([ScriptEntry(response=optimizer_reply(rejected), times=None)])
        opro = AdaptiveOpro(current, gateway, "{{ history_text }}", 5, "cumulative")
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is False
        opro.close_window(10, 100_000.0, 101_000.0)
        assert [r.iteration for r in opro.history] == [1]
        assert "sneaky_new_var" not in build_meta_prompt(opro.history, "{{ history_text }}")

    def test_meta_prompt_substitutes_only_history(self):
        records = [PromptRecord(iteration=1, template_text="BODY", score=50.0)]
        meta = build_meta_prompt(records, OPTIMIZER_ASSET)
        assert "BODY" in meta
        assert "{{ history_text }}" not in meta
        # the preservation warnings keep their literal placeholder examples
        assert "{{ variable_name }}" in meta


# Text that JSON escapes: quotes, backslashes, newlines, control characters,
# non-ASCII and astral characters, and lone surrogates of either half.
escapable_text = st.text(
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "\ud83d", "\ude00"])
    | st.characters(exclude_categories=()),
    max_size=10,
)
scores = st.none() | st.sampled_from([0.0, 50.0, 100.0]) | st.floats(0.0, 100.0)


class TestMetaPromptFragment:
    @settings(max_examples=200)
    @given(
        texts_scores=st.lists(st.tuples(escapable_text, scores), max_size=6),
        asset_pieces=st.lists(escapable_text, min_size=1, max_size=3),
        order=st.randoms(use_true_random=False),
    )
    # A body that ends in a high surrogate, then one that starts with a low
    # one; the last body (best score) meets a low surrogate after the marker.
    @example(
        texts_scores=[("a\ud83d", 10.0), ("\ude00b", 20.0), ("c\ud83d", 30.0)],
        asset_pieces=["x", "\ude00y"],
        order=random.Random(0),
    )
    # No scored history: the asset's pieces around the marker meet.
    @example(texts_scores=[("t", None)], asset_pieces=["\ud83d", "\ude00"], order=random.Random(0))
    def test_joined_fragment_is_the_meta_prompts_fragment(self, texts_scores, asset_pieces, order):
        """The fragment that a message joins from the records' and the
        asset's parts is the meta-prompt's own `message_fragment`, over tied
        and missing scores and assets with 0, 1 and 2 history markers."""
        records = [PromptRecord(i, text, score) for i, (text, score) in enumerate(texts_scores, start=1)]
        order.shuffle(records)
        asset = HISTORY_MARKER.join(asset_pieces)
        meta = build_meta_prompt(records, asset)
        joined = meta_prompt(records, tuple(map(text_part, asset.split(HISTORY_MARKER))))
        assert joined == ChatMessage("user", meta) and joined.fragment == message_fragment(ChatMessage("user", meta))


class TestParseOptimizerResponse:
    def test_well_formed(self):
        out = parse_optimizer_response(optimizer_reply("NEW TEMPLATE {{ x }}"))
        assert out.optimized_prompt == "NEW TEMPLATE {{ x }}"
        assert out.performance_analysis == "analysis"

    def test_escaped_newlines_unescaped(self):
        reply = (
            '```json\n{"performance_analysis": "a", "optimized_prompt": "line1\\nline2",'
            ' "key_improvements": "k", "expected_impact": "e"}\n```'
        )
        assert parse_optimizer_response(reply).optimized_prompt == "line1\nline2"

    def test_missing_fence(self):
        with pytest.raises(OptimizerParseError) as err:
            parse_optimizer_response('{"performance_analysis": "a"}')
        assert err.value.code == "BAD_FENCE"

    # The optimizer's fence regex before `read_fence`, kept as its oracle.
    OLD_JSON_FENCE = re.compile(r"```json\s*\n(.*?)\n?\s*```", re.DOTALL)

    @given(fence_texts)
    @example("```json\n[1]")  # never closed
    @example("```json \u3000[1]\n```")  # whitespace after the opener, but no newline
    @example("````json\n[1]\n```")
    @example("```json\n\r\n```")  # an empty body
    @example("```\n[0]\n```json\n[1] \n```\n```json\n[2]\n```")  # an untagged fence, then two fenced blocks
    @settings(max_examples=500)
    def test_fence_is_the_old_regex(self, text):
        m = self.OLD_JSON_FENCE.search(text)
        assert read_fence(text, require_json=True) == (m.group(1) if m else None)
        if m is None:
            with pytest.raises(OptimizerParseError, match="BAD_FENCE"):
                parse_optimizer_response(text)

    def test_missing_key(self):
        payload = {"performance_analysis": "a", "optimized_prompt": "p", "key_improvements": "k"}
        with pytest.raises(OptimizerParseError) as err:
            parse_optimizer_response("```json\n" + json.dumps(payload) + "\n```")
        assert err.value.code == "MISSING_KEY"

    def test_not_object(self):
        with pytest.raises(OptimizerParseError) as err:
            parse_optimizer_response("```json\n[1, 2]\n```")
        assert err.value.code == "NOT_OBJECT"

    def test_extra_keys_rejected(self):
        payload = {
            "performance_analysis": "a",
            "optimized_prompt": "p",
            "key_improvements": "k",
            "expected_impact": "e",
            "bonus": "?",
        }
        with pytest.raises(OptimizerParseError):
            parse_optimizer_response("```json\n" + json.dumps(payload) + "\n```")


class TestValidateCandidate:
    def test_identity_accepts(self):
        current = load_template("cta_initial")
        assert validate_candidate(current, current.body).placeholders() == current.placeholders()

    def test_text_only_edit_accepts(self):
        current = load_template("cta_initial")
        candidate = current.body.replace("STRATEGIC TRADER", "PATIENT OPERATOR")
        assert validate_candidate(current, candidate).body == candidate

    def test_dropping_placeholder_rejects(self):
        current = load_template("cta_initial")
        candidate = current.body.replace("${{ portfolio_cash }}", "$CASH")
        error = rejection(current, candidate)
        assert (error.code, str(error)) == ("MISSING_PLACEHOLDER", "MISSING_PLACEHOLDER: portfolio_cash")

    def test_adding_placeholder_rejects(self):
        current = load_template("cta_initial")
        candidate = current.body + "\nNew context: {{ new_var }}"
        error = rejection(current, candidate)
        assert (error.code, str(error)) == ("EXTRA_PLACEHOLDER", "EXTRA_PLACEHOLDER: new_var")

    def test_unparseable_candidate_rejects(self):
        current = load_template("cta_initial")
        error = rejection(current, current.body + "\n{% if broken %}")
        assert str(error) == "PARSE_ERROR: UNBALANCED_CONDITIONAL: unclosed {% if %}"

    @staticmethod
    def _substitute_name(body: str, name: str, replacement: str) -> str:
        """Swap `name` for `replacement` inside every {{ }} / {% if %} use."""
        return re.sub(
            rf"(\{{\{{\s*|\{{%\s*if\s+){name}(\s*[|%}}])",
            rf"\g<1>{replacement}\g<2>",
            body,
        )

    def test_fuzz_mutations(self):
        # 1000 placeholder-set mutations must reject; 1000 text-only
        # mutations must accept.
        current = load_template("cta_initial")
        body = current.body
        names = sorted(current.placeholders())
        rng = random.Random(2024)
        rejected = accepted = 0
        for i in range(1000):
            kind = rng.randrange(3)
            name = rng.choice(names)
            if kind == 0:  # fold one name into another: the set shrinks
                other = rng.choice([n for n in names if n != name])
                mutated = self._substitute_name(body, name, other)
            elif kind == 1:  # add a brand-new placeholder
                mutated = body + f"\n{{{{ fuzz_var_{i} }}}}"
            else:  # rename a placeholder: one name leaves, one arrives
                mutated = self._substitute_name(body, name, f"renamed_{i}")
            assert mutated != body
            if not accepts(current, mutated):
                rejected += 1
        assert rejected == 1000

        words = ["edge", "discipline", "patience", "conviction", "structure"]
        for i in range(1000):
            kind = rng.randrange(3)
            if kind == 0:
                mutated = body.replace("Trading Philosophy", f"Trading Philosophy {words[i % 5]} {i}")
            elif kind == 1:
                mutated = f"PREFIX NOTE {i}: stay {words[i % 5]}.\n" + body
            else:
                mutated = body + f"\nFooter guidance {i}: prioritize {words[i % 5]}."
            if accepts(current, mutated):
                accepted += 1
        assert accepted == 1000


class TestProposeUpdate:
    def _opro(self, gateway, k=5):
        return AdaptiveOpro(
            initial_template=load_template("cta_initial"),
            gateway=gateway,
            optimizer_asset=OPTIMIZER_ASSET,
            k=k,
            roi_mode="cumulative",
        )

    def test_accepted_candidate_becomes_live(self):
        current = load_template("cta_initial")
        improved = current.body.replace("Trading Philosophy", "Refined Philosophy")
        gateway = make_gateway([ScriptEntry(response=optimizer_reply(improved), times=None)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        assert opro.live_template.body == improved
        assert [(r.iteration, r.template_text) for r in opro.history] == [(1, current.body), (2, improved)]

    def test_rejected_candidate_keeps_current_after_retries(self):
        current = load_template("cta_initial")
        bad = current.body + "\n{{ sneaky_new_var }}"
        gateway = make_gateway([ScriptEntry(response=optimizer_reply(bad), times=None)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is False
        assert opro.live_template.body == current.body
        assert [r.iteration for r in opro.history] == [1]
        last = json.loads(opro.log.text().splitlines()[-1])
        assert (last["iteration"], last["accepted"]) == (2, False)
        assert last["reject_reason"] == "EXTRA_PLACEHOLDER: sneaky_new_var"
        assert last["template_text"] == bad
        # 1 initial ask + 2 re-asks
        assert gateway.provider.calls == 3

    def test_a_key_holding_no_string_is_reasked(self):
        """A reply whose key holds a number is re-asked like any malformed
        reply, and the ledger names the key (and the code twice, as every
        parse error's reason does)."""
        payload = {"performance_analysis": "a", "optimized_prompt": 5, "key_improvements": "k", "expected_impact": "e"}
        gateway = make_gateway([ScriptEntry(response="```json\n" + json.dumps(payload) + "\n```", times=None)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is False
        assert gateway.provider.calls == 3  # 1 initial ask + 2 re-asks
        last = json.loads(opro.log.text().splitlines()[-1])
        assert (last["accepted"], last["reject_reason"]) == (False, "MISSING_KEY: MISSING_KEY: optimized_prompt must be a string")

    def test_parse_failure_then_success_within_retries(self):
        current = load_template("cta_initial")
        improved = current.body + "\nStay disciplined."
        gateway = make_gateway(
            [
                ScriptEntry(response="no fence here", step=1),
                ScriptEntry(response=optimizer_reply(improved), step=2),
            ]
        )
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        assert opro.live_template.body == improved

    def test_deeply_nested_reply_is_reasked(self):
        current = load_template("cta_initial")
        improved = current.body + "\nStay disciplined."
        nested = "```json\n" + "[" * 100_000 + "]" * 100_000 + "\n```"
        gateway = make_gateway([ScriptEntry(response=nested, step=1), ScriptEntry(response=optimizer_reply(improved), step=2)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        assert opro.live_template.body == improved
        with pytest.raises(OptimizerParseError, match="NOT_OBJECT: fenced payload is nested too deeply"):
            parse_optimizer_response(nested)

    def test_an_integer_past_the_digit_limit_is_reasked(self):
        """`json.loads` raises a bare ValueError for an integer of more than
        4300 digits: a malformed reply like any other, whose reason holds no
        wording of CPython's."""
        current = load_template("cta_initial")
        improved = current.body + "\nStay disciplined."
        reply = '```json\n{"optimized_prompt": 1%s}\n```' % ("0" * 4300)
        gateway = make_gateway([ScriptEntry(response=reply, step=1), ScriptEntry(response=optimizer_reply(improved), step=2)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        assert opro.live_template.body == improved
        with pytest.raises(OptimizerParseError, match="^NOT_OBJECT: fenced payload has an integer with too many digits$"):
            parse_optimizer_response(reply)

    def test_candidate_with_unpaired_surrogate_is_logged(self):
        """A candidate may carry the JSON escape of an unpaired surrogate; its
        ledger line is written, accepted or not."""
        current = load_template("cta_initial")
        odd = current.body + "\nEdge \ud800 case."
        gateway = make_gateway(
            [
                ScriptEntry(response=optimizer_reply(odd), step=1),
                ScriptEntry(response=optimizer_reply(odd + " {{ extra }}"), times=None),
            ]
        )
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        opro.close_window(10, 100_000.0, 101_000.0)
        assert opro.propose_update() is False
        lines = [json.loads(line) for line in opro.log.text().splitlines()]
        assert [(line["accepted"], line["template_text"]) for line in lines[1:]] == [(True, odd), (False, odd + " {{ extra }}")]
        assert lines[1]["template_sha"] == hashlib.sha256(odd.encode("utf-8", "surrogatepass")).hexdigest()
        assert lines[0]["template_sha"] == hashlib.sha256(current.body.encode("utf-8")).hexdigest()

    def test_ledger_lines_append_only_with_shas(self):
        current = load_template("cta_initial")
        improved = current.body + "\nBe selective."
        gateway = make_gateway([ScriptEntry(response=optimizer_reply(improved), times=None)])
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 102_000.0)
        opro.propose_update()
        lines = [json.loads(line) for line in opro.log.text().splitlines()]
        assert [line["iteration"] for line in lines] == [1, 2]
        assert lines[0]["score"] is None
        assert lines[1]["score"] == pytest.approx(55.0)
        assert lines[1]["template_sha"] != lines[0]["template_sha"]
        assert lines[1]["analysis"] == "analysis"

    def test_an_accepted_template_is_hashed_once(self, monkeypatch):
        """The ledger takes the id of the initial and of an accepted template
        from its record's part, hashed when the record was made; only a
        rejected candidate is hashed for its line."""
        current = load_template("cta_initial")
        good, bad = current.body + "\nGood edit.", current.body + "\n{{ nope }}"
        gateway = make_gateway([ScriptEntry(response=optimizer_reply(good), step=1), ScriptEntry(response=optimizer_reply(bad), times=None)])
        hashed = []
        monkeypatch.setattr(opro_module, "text_id", lambda text: hashed.append(text) or text_id(text))
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        opro.close_window(10, 100_000.0, 102_000.0)
        assert opro.propose_update() is False
        lines = [json.loads(line) for line in opro.log.text().splitlines()]
        assert hashed == [bad] and [line["template_text"] for line in lines] == [current.body, good, bad]
        assert [line["template_sha"] for line in lines] == [text_id(line["template_text"]) for line in lines]

    def test_live_template_always_last_accepted(self):
        current = load_template("cta_initial")
        good = current.body + "\nGood edit."
        bad = current.body + "\n{{ nope }}"
        gateway = make_gateway(
            [
                ScriptEntry(response=optimizer_reply(good), step=1),
                ScriptEntry(response=optimizer_reply(bad), times=None),
            ]
        )
        opro = self._opro(gateway)
        opro.close_window(5, 100_000.0, 101_000.0)
        assert opro.propose_update() is True
        opro.close_window(10, 100_000.0, 102_000.0)
        assert opro.propose_update() is False
        assert opro.live_template.body == good == opro.history[-1].template_text
        assert [r.iteration for r in opro.history] == [1, 2]
        assert opro.iteration == 3


class TestReflect:
    def _context(self):
        return {
            "instrument": "SYNTH",
            "reflection_interval": "5",
            "current_time": "2025-05-05",
            "action_interval": "1 day",
            "period_summary": "flat week",
            "complete_history": "day1: no orders",
        }

    def test_returns_paragraph_verbatim(self):
        gateway = make_gateway([ScriptEntry(response="One compact paragraph.", times=None)])
        assert reflect(gateway, load_template("reflection"), self._context()) == "One compact paragraph."

    def test_never_touches_templates(self):
        gateway = make_gateway([ScriptEntry(response="para", times=None)])
        opro = AdaptiveOpro(
            initial_template=load_template("cta_initial"),
            gateway=gateway,
            optimizer_asset=OPTIMIZER_ASSET,
            k=5,
            roi_mode="cumulative",
        )
        before = opro.live_template.body
        reflect(gateway, load_template("reflection"), self._context())
        assert opro.live_template.body == before
        assert len(opro.history) == 1 and opro.iteration == 1
