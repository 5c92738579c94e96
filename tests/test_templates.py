"""The packaged prompt bodies and the ``template_dir`` override.

Cache keys hash the rendered prompt, so a one-character change to a body
makes every existing cache and replay directory miss; the digests below
pin each packaged body and one rendered prompt per family and stage.
"""

import hashlib

import pytest

from symchain.corpus import mini_corpus
from symchain.folparse import Severity
from symchain.pipeline import NO_KNOWLEDGE_BASE, extract_label, parse_translation, solve_translation
from symchain.templates import STAGE_MARKERS, Family, Stage, TemplateCatalog, TemplateError

PAIRS = [(family, stage) for family in Family for stage in Stage]
PAIR_IDS = [f"{family.value}/{stage.value}" for family, stage in PAIRS]

# (family, stage): SHA-256 of the packaged body
BODY_SHA256 = {
    ("fol-prontoqa", "translator"): "f8a8c9df601c029aca6619ecf34f2bfb58388fa102d3431c1a09bac3404c1a60",
    ("fol-prontoqa", "planner"): "4e1ed4e6ccf1eed79f8af3d201b25ee15385e0c94446c7a70c57a0654973ab37",
    ("fol-prontoqa", "solver"): "7bdd79b52c62e5fef6543038870b543140fd94b23a0494aba22c16e9f0a8eb99",
    ("fol-prontoqa", "verifier"): "53d154e9e04052ad6a8af1e5ad1ac1db37c932c92f99021f6d21754040f16789",
    ("fol-prontoqa", "naive"): "b8c01ef3f815f6963fe2cbf86aeafa79fa61c84431887e42a6d624f3388da770",
    ("fol-prontoqa", "cot"): "6249f1c709a045a9533165ea5135ac55606cf126aad31fd2a52e636608c29670",
    ("fol-proofwriter", "translator"): "f8a8c9df601c029aca6619ecf34f2bfb58388fa102d3431c1a09bac3404c1a60",
    ("fol-proofwriter", "planner"): "4e1ed4e6ccf1eed79f8af3d201b25ee15385e0c94446c7a70c57a0654973ab37",
    ("fol-proofwriter", "solver"): "7bdd79b52c62e5fef6543038870b543140fd94b23a0494aba22c16e9f0a8eb99",
    ("fol-proofwriter", "verifier"): "53d154e9e04052ad6a8af1e5ad1ac1db37c932c92f99021f6d21754040f16789",
    ("fol-proofwriter", "naive"): "b8c01ef3f815f6963fe2cbf86aeafa79fa61c84431887e42a6d624f3388da770",
    ("fol-proofwriter", "cot"): "6249f1c709a045a9533165ea5135ac55606cf126aad31fd2a52e636608c29670",
    ("fol-folio", "translator"): "7faa5c574adbec8029c67e95dfae9e7de34a2b3158f431ccd9fcef1e55b67b53",
    ("fol-folio", "planner"): "4e1ed4e6ccf1eed79f8af3d201b25ee15385e0c94446c7a70c57a0654973ab37",
    ("fol-folio", "solver"): "7bdd79b52c62e5fef6543038870b543140fd94b23a0494aba22c16e9f0a8eb99",
    ("fol-folio", "verifier"): "53d154e9e04052ad6a8af1e5ad1ac1db37c932c92f99021f6d21754040f16789",
    ("fol-folio", "naive"): "b8c01ef3f815f6963fe2cbf86aeafa79fa61c84431887e42a6d624f3388da770",
    ("fol-folio", "cot"): "6249f1c709a045a9533165ea5135ac55606cf126aad31fd2a52e636608c29670",
    ("csp-logicaldeduction", "translator"): "05f197eb577a81a099de1cede8c076e93192c23ccc6cf129685477b5cf34719d",
    ("csp-logicaldeduction", "planner"): "01dc5150156d8db27a6146fa4ac5126de62f0ebed409e430e5cf8f25aa992bae",
    ("csp-logicaldeduction", "solver"): "16b3e6e5dcbaba8ba5eefa64549bc54c167b46d188ada21ad0545f629b6273f3",
    ("csp-logicaldeduction", "verifier"): "6a82375e0cd99feade862acf0a26a4652cbc1d6274cb4e015630c230fb18a603",
    ("csp-logicaldeduction", "naive"): "b8c01ef3f815f6963fe2cbf86aeafa79fa61c84431887e42a6d624f3388da770",
    ("csp-logicaldeduction", "cot"): "6249f1c709a045a9533165ea5135ac55606cf126aad31fd2a52e636608c29670",
    ("csp-arlsat", "translator"): "05f197eb577a81a099de1cede8c076e93192c23ccc6cf129685477b5cf34719d",
    ("csp-arlsat", "planner"): "01dc5150156d8db27a6146fa4ac5126de62f0ebed409e430e5cf8f25aa992bae",
    ("csp-arlsat", "solver"): "16b3e6e5dcbaba8ba5eefa64549bc54c167b46d188ada21ad0545f629b6273f3",
    ("csp-arlsat", "verifier"): "6a82375e0cd99feade862acf0a26a4652cbc1d6274cb4e015630c230fb18a603",
    ("csp-arlsat", "naive"): "b8c01ef3f815f6963fe2cbf86aeafa79fa61c84431887e42a6d624f3388da770",
    ("csp-arlsat", "cot"): "6249f1c709a045a9533165ea5135ac55606cf126aad31fd2a52e636608c29670",
}

# (family, stage): SHA-256 of the prompt rendered with few_shot=2 for the
# family's problem in RENDERED_PROBLEM, bound to its mini-corpus stage texts
RENDERED_SHA256 = {
    ("fol-prontoqa", "translator"): "cbb26e17f06990bf7721907bfc6bc07a0fd101fe30d9c96fb9f7cd6e04259e5b",
    ("fol-prontoqa", "planner"): "5ef82c8a593ade92368bc7fea576279dfc8a5e021c8474ce84fdbf2d93982a93",
    ("fol-prontoqa", "solver"): "83dfc914d2ee81c6890ed3e394921640b424004f82793fdc472ab9a82a69cf6b",
    ("fol-prontoqa", "verifier"): "072adda59ddd8062ad1b344a2f76c227f807fcf58ac554235cc156c11842e74b",
    ("fol-prontoqa", "naive"): "44f1f15104b14e491ac40f4d1425337a215cb297c82d5fc2fc9e6bb1f7bf9976",
    ("fol-prontoqa", "cot"): "92f82e2c986946a6b7fb230c323770c26a2b09bd78a9cef2d3b31c2d37d8a709",
    ("fol-proofwriter", "translator"): "d198e901fc79af1fe05b124182431b853f2317b2a56ece2f3b7717285cd61a55",
    ("fol-proofwriter", "planner"): "bf9558b76e325477b9663fddff748602358e8ea6cf579f0199fa2cd8e98cbc77",
    ("fol-proofwriter", "solver"): "50fec313d4d96a07bb5617009f1694667fdb8467ac50daad9ef86cea7366df64",
    ("fol-proofwriter", "verifier"): "98366aab41b4c9c5e1922cb87931ba044401650500bd1676ab99692823f2e8e1",
    ("fol-proofwriter", "naive"): "977644e9dc67860ec37bb25c52f5834403c7944819f0e6f6ea3d78f9a0f85658",
    ("fol-proofwriter", "cot"): "fc909a982858a98e0b61b25c99d3da66ed4058a0f3b885367a79a17b5d4d23f9",
    ("fol-folio", "translator"): "5d5f99f2e0037d77b8a7f2e38bf565552851f6333b2b86b91f5904e628a619a6",
    ("fol-folio", "planner"): "015a6e85e5906c9ad08e3f9adfb843fe902b61a87da3f3293435ec892e769bfe",
    ("fol-folio", "solver"): "8127839b38f7c22cd3ea38a382e65b9e79530dff066f74b02952e5213d887ee4",
    ("fol-folio", "verifier"): "5c7fce6abc53c1b415d5c3d0ee2f8c9588f9d93f58f19393323fad2abdcec384",
    ("fol-folio", "naive"): "0182926aa35f79608ca45cf2db03e576f5c1431f21734933bf92f133ef59e2f3",
    ("fol-folio", "cot"): "8352b3eea6d4296b052cc4577c1476578c8a08362fd104dd894224a25fa7215e",
    ("csp-logicaldeduction", "translator"): "4d31ab4f6ee936d935486160bf71e40ea93b714fc4b9e70c1467b4ee481e0c9e",
    ("csp-logicaldeduction", "planner"): "362ea0f1345d63ea972d4e44fc83c298619d6413d4bbbb3276b69cc39f262aeb",
    ("csp-logicaldeduction", "solver"): "6bcdabdd03fdbde14a49a3878040acf42e38b80ee07a65f815f690bc5a21f183",
    ("csp-logicaldeduction", "verifier"): "dc7efd901068e84ce826bb1beb2bde90a89b4dfd6a4ba8b08280448963da7dc7",
    ("csp-logicaldeduction", "naive"): "be889ef06ab795847851f0b88b9c3ac049f0973e5c9ccf629143a618e961ddf2",
    ("csp-logicaldeduction", "cot"): "4475acb117fa84742c05aaa7fdcc1691ceab71dbf76346a479a81892661c5f86",
    ("csp-arlsat", "translator"): "11cb787bb44d74529291c3969b0af12e410e303831e7d56e7c6ff41cd4103fc8",
    ("csp-arlsat", "planner"): "062a235741d1d27193bc118adca1f1d52b44eaa1ad35ee4a352cae10e55798ad",
    ("csp-arlsat", "solver"): "d27da8b9911d0eaea7e82278918c7c76470d33ecd5bd00843c98b56d4b03402f",
    ("csp-arlsat", "verifier"): "695431f78ed1938e023831716e2f0b3e3ba25cc8541e472fa9ec78f3f1e991a8",
    ("csp-arlsat", "naive"): "aac7d0d85c5b1a8a5047f1b55759bd0954a277d52fd7ef81039a441ff9c8a72d",
    ("csp-arlsat", "cot"): "b63ea7771312d3032c5bf18db07146a358ed022086658514da220e0172b5eeca",
}

RENDERED_PROBLEM = {
    Family.FOL_PRONTOQA: "prontoqa-alex-shy",
    Family.FOL_PROOFWRITER: "proofwriter-anne-white",
    Family.FOL_FOLIO: "folio-miroslav-music",
    Family.CSP_LOGICALDEDUCTION: "logicaldeduction-antique-cars",
    Family.CSP_ARLSAT: "arlsat-lockers",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def catalog():
    return TemplateCatalog()


@pytest.mark.parametrize("family,stage", PAIRS, ids=PAIR_IDS)
def test_packaged_body_is_unchanged(catalog, family, stage):
    assert sha256(catalog.get(stage, family).text) == BODY_SHA256[(family.value, stage.value)]


@pytest.mark.parametrize("family,stage", PAIRS, ids=PAIR_IDS)
def test_rendered_prompt_is_unchanged(catalog, family, stage):
    corpus = mini_corpus()
    problem = corpus.problem(RENDERED_PROBLEM[family])
    bindings = {
        "context": problem.context, "question": problem.question, "options": problem.options_text(),
        "premises_sym": corpus.stage_text(problem.id, "translator"),
        "plan": corpus.stage_text(problem.id, "planner"),
        "reasoning": corpus.stage_text(problem.id, "solver"),
    }
    prompt = catalog.get(stage, family).render(bindings, few_shot=2)
    assert sha256(prompt) == RENDERED_SHA256[(family.value, stage.value)]


@pytest.mark.parametrize("family,stage", PAIRS, ids=PAIR_IDS)
def test_every_pair_ships_demos(catalog, family, stage):
    # the catalog reads each packaged demo file unconditionally
    assert catalog.get(stage, family).demos


@pytest.mark.parametrize("family,stage", PAIRS, ids=PAIR_IDS)
def test_body_starts_with_its_stage_marker(catalog, family, stage):
    # the scripted corpus backend tells a prompt's stage by this phrase
    assert catalog.get(stage, family).text.startswith(STAGE_MARKERS[stage])


@pytest.mark.parametrize("family,stage", PAIRS, ids=PAIR_IDS)
def test_rendered_prompt_holds_only_its_own_stage_marker(catalog, family, stage):
    """Every mini-corpus problem of the family, rendered with all its demos:
    the scripted corpus backend routes a prompt by the first marker it holds."""
    corpus = mini_corpus()
    template = catalog.get(stage, family)
    problems = [problem for problem in corpus.problems if problem.family is family]
    assert problems and template.demos
    for problem in problems:
        bindings = {
            "context": problem.context, "question": problem.question, "options": problem.options_text(),
            "premises_sym": corpus.stage_text(problem.id, "translator"),
            "plan": corpus.stage_text(problem.id, "planner"),
            "reasoning": corpus.stage_text(problem.id, "solver"),
        }
        prompt = template.render(bindings, few_shot=len(template.demos))
        assert [s for s, marker in STAGE_MARKERS.items() if marker in prompt] == [stage], problem.id


# ---------------------------------------------------------------------------
# template_dir: plain-text bodies laid out as <family>/<stage>.txt

# the placeholders an override body must hold, besides the {demos} slot
REQUIRED = {
    Stage.TRANSLATOR: ("context", "question"),
    Stage.PLANNER: ("context", "question", "premises_sym"),
    Stage.SOLVER: ("context", "question", "premises_sym", "plan"),
    Stage.VERIFIER: ("context", "question", "premises_sym", "reasoning"),
    Stage.NAIVE: ("context", "question", "options"),
    Stage.COT: ("context", "question", "options"),
}
ALL_NAMES = ("context", "question", "options", "premises_sym", "plan", "reasoning")


def override(tmp_path, family: Family, stage: Stage, body: str) -> TemplateCatalog:
    path = tmp_path / family.value / f"{stage.value}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(body, encoding="utf-8")
    return TemplateCatalog(template_dir=str(tmp_path))


def slots(names) -> str:
    return "".join(f"{name}:\n{{{name}}}\n" for name in names)


def test_override_replaces_only_its_own_pair(tmp_path, catalog):
    body = "Custom instructions.\n{demos}" + slots(REQUIRED[Stage.SOLVER])
    overridden = override(tmp_path, Family.FOL_FOLIO, Stage.SOLVER, body)
    for family, stage in PAIRS:
        template = overridden.get(stage, family)
        if (family, stage) == (Family.FOL_FOLIO, Stage.SOLVER):
            assert template.text == body
        else:
            assert sha256(template.text) == BODY_SHA256[(family.value, stage.value)], (family, stage)
        assert template.demos == catalog.get(stage, family).demos


@pytest.mark.parametrize("stage", list(Stage), ids=[s.value for s in Stage])
def test_override_holding_the_required_placeholders_is_accepted(tmp_path, stage):
    for i, names in enumerate((REQUIRED[stage], ALL_NAMES)):
        body = "{demos}" + slots(names)
        catalog = override(tmp_path / str(i), Family.CSP_ARLSAT, stage, body)
        assert catalog.get(stage, Family.CSP_ARLSAT).text == body


@pytest.mark.parametrize("stage,name", [(stage, name) for stage in Stage for name in REQUIRED[stage]],
                         ids=lambda v: v.value if isinstance(v, Stage) else v)
def test_override_lacking_a_placeholder_names_it(tmp_path, stage, name):
    others = [n for n in ALL_NAMES if n != name]
    # an escaped brace pair is text, not the placeholder
    for i, body in enumerate(("{demos}" + slots(others), "{demos}" + slots(others) + f"{{{{{name}}}}}")):
        catalog = override(tmp_path / str(i), Family.FOL_PRONTOQA, stage, body)
        with pytest.raises(TemplateError, match=rf"{stage.value}/fol-prontoqa lacks placeholders: \['{name}'\]"):
            catalog.get(stage, Family.FOL_PRONTOQA)


@pytest.mark.parametrize("stage", list(Stage), ids=[s.value for s in Stage])
def test_override_lacking_the_demos_slot_names_it(tmp_path, stage):
    catalog = override(tmp_path, Family.FOL_PROOFWRITER, stage, slots(ALL_NAMES) + "{{demos}}")
    with pytest.raises(TemplateError, match=f"{stage.value}/fol-proofwriter lacks the demos slot"):
        catalog.get(stage, Family.FOL_PROOFWRITER)


def test_override_with_a_byte_order_mark(tmp_path):
    body = "Custom instructions.\n{demos}" + slots(REQUIRED[Stage.COT])
    path = tmp_path / Family.FOL_FOLIO.value / f"{Stage.COT.value}.txt"
    path.parent.mkdir(parents=True)
    path.write_text(body, encoding="utf-8-sig")
    template = TemplateCatalog(template_dir=str(tmp_path)).get(Stage.COT, Family.FOL_FOLIO)
    prompt = template.render({"context": "c", "question": "q", "options": "o"}, few_shot=0)
    assert template.text == body and prompt.startswith("Custom instructions.")


def test_render_names_an_unbound_placeholder(catalog):
    template = catalog.get(Stage.COT, Family.FOL_FOLIO)
    with pytest.raises(TemplateError, match=r"^bindings missing for placeholders: \['question'\]$"):
        template.render({"context": "c", "options": "o"})


# demo_dir: demo files laid out as <family>/<stage>.txt


def test_demo_entry_without_its_markers(tmp_path):
    path = tmp_path / Family.FOL_FOLIO.value / f"{Stage.COT.value}.txt"
    path.parent.mkdir(parents=True)
    path.write_text("A question.\nAn answer.\n", encoding="utf-8")
    with pytest.raises(TemplateError, match="^demo file entry lacks '--- input' / '--- output' markers$"):
        TemplateCatalog(demo_dir=str(tmp_path)).get(Stage.COT, Family.FOL_FOLIO)


def test_demo_file_with_a_byte_order_mark(tmp_path):
    path = tmp_path / Family.FOL_FOLIO.value / f"{Stage.COT.value}.txt"
    path.parent.mkdir(parents=True)
    path.write_text("--- input\nA question.\n--- output\nAn answer.\n", encoding="utf-8-sig")
    template = TemplateCatalog(demo_dir=str(tmp_path)).get(Stage.COT, Family.FOL_FOLIO)
    assert template.demos == (("A question.", "An answer."),)


# The prompt <-> engine contract: the notation the translator demos teach is
# the notation the engines read, and the engines agree with the solver demos.


def _question(demo_input: str) -> str:
    """The text under a demo input's ``Question:`` heading."""
    return demo_input.split("Question:\n", 1)[1].split("\n\n", 1)[0]


@pytest.mark.parametrize("family", list(Family), ids=[f.value for f in Family])
def test_translator_demos_parse_and_agree_with_the_solver_demos(family):
    catalog = TemplateCatalog()
    translator = catalog.get(Stage.TRANSLATOR, family).demos
    solver = catalog.get(Stage.SOLVER, family).demos
    assert translator and len(translator) == len(solver)
    for (demo_input, output), (_, solved) in zip(translator, solver):
        heading, text = output.split("\n", 1)
        assert heading == "Translation:"
        artifact, diagnostics = parse_translation(text, family.is_csp)
        errors = [str(d) for d in diagnostics if d.severity is Severity.ERROR]
        assert not errors, errors
        result = solve_translation(artifact, _question(demo_input))
        if family is Family.FOL_FOLIO:
            # Premises: are not auto-decided yet; this flips once FOLIO
            # premises are decided by grounding (ROADMAP item 5)
            assert result.response == NO_KNOWLEDGE_BASE
            continue
        assert result.executed, result.response
        assert result.label is extract_label(solved)
