"""Seeded input generators for the benchmark workloads.

Every generator takes an explicit seed, so the same seed gives the same
inputs.  Three kinds of input are produced:

* renamed copies of the embedded mini-corpus (replay-scaled, live-latency);
* ProofWriter-style knowledge bases with a gold label fixed by construction;
* LogicalDeduction-style ordering puzzles with exactly one correct option.
"""

from __future__ import annotations

import dataclasses
import random
import re
from dataclasses import dataclass

from symchain.corpus import MiniCorpus, Problem
from symchain.logic import Label

# ---------------------------------------------------------------------------
# Pseudo-words

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"

# Words the pipeline reads for meaning: labels, section headers and the
# phrases label extraction keys on.  They are never renamed.
_RESERVED = {
    "true", "false", "unknown", "uncertain", "answer", "final", "correct",
    "option", "options", "verified", "remains", "step", "query", "facts",
    "rules", "predicates", "premises", "domain", "variables", "constraints",
    "and", "not", "the", "all", "some", "every", "each",
}


class WordSource:
    """Hands out distinct lowercase pseudo-words (consonant-vowel syllables)."""

    def __init__(self, rng: random.Random, taken: set[str] = frozenset()):
        self.rng = rng
        self.used = set(taken)

    def word(self, syllables: int = 3) -> str:
        while True:
            w = "".join(self.rng.choice(_CONSONANTS) + self.rng.choice(_VOWELS) for _ in range(syllables))
            if w not in self.used:
                self.used.add(w)
                return w


# ---------------------------------------------------------------------------
# Mini-corpus renamer

_ARGS_RE = re.compile(r"\b[A-Za-z]\w*\(([^()]*)\)")
_PRED_RE = re.compile(r"\b([A-Z][A-Za-z0-9_]*)\(")
_CSP_VAR_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*∈", re.MULTILINE)
_NAME_RE = re.compile(r"[A-Za-z][A-Za-z_]*")


def renameable_names(translation: str, is_csp: bool) -> list[str]:
    """Constants and predicates of a FOL translation, or the variables of a
    CSP translation: the symbols a renamed copy replaces."""
    if is_csp:
        names = set(_CSP_VAR_RE.findall(translation))
    else:
        names = set(_PRED_RE.findall(translation))
        for args in _ARGS_RE.findall(translation):
            for arg in args.split(","):
                arg = arg.strip()
                if re.fullmatch(r"[a-z][A-Za-z]*", arg) and not re.fullmatch(r"[xyz]", arg):
                    names.add(arg)
    keep = {n for n in names if _NAME_RE.fullmatch(n) and len(n) >= 3 and n.lower() not in _RESERVED}
    return sorted(keep, key=str.lower)


def _renamer(mapping: dict[str, str]):
    """Whole-token, case-insensitive substitution that keeps a leading capital."""
    keys = sorted(mapping, key=len, reverse=True)
    pattern = re.compile(
        r"(?<![A-Za-z0-9_])(" + "|".join(re.escape(k) for k in keys) + r")(?![A-Za-z0-9_])",
        re.IGNORECASE,
    )

    def repl(m: re.Match) -> str:
        new = mapping[m.group(1).lower()]
        return new.capitalize() if m.group(1)[0].isupper() else new

    return lambda text: pattern.sub(repl, text)


def rename_copies(base: MiniCorpus, copies: int, seed: int, start: int = 0) -> list[MiniCorpus]:
    """``copies`` renamed copies of ``base``, numbered from ``start``.

    Each copy replaces every constant and predicate (variables, for CSP
    problems) with a fresh pseudo-word in the context, question, options,
    translation and every canned stage text, so no two copies share a prompt
    or a translation.  Gold labels are unchanged: renaming symbols
    consistently keeps every problem's meaning.  Problem ids get a
    ``-<copy>`` suffix; each copy is a self-contained :class:`MiniCorpus`,
    so ``ScriptedCorpusBackend(copy)`` identifies its problems.
    """
    taken = set()
    for text in list(base.translations.values()) + list(base.stage_texts.values()):
        taken.update(w.lower() for w in _NAME_RE.findall(text))
    for p in base.problems:
        taken.update(w.lower() for w in _NAME_RE.findall(p.context + " " + p.question))
    words = WordSource(random.Random(f"rename:{seed}"), taken)
    symbols = {
        p.id: [n.lower() for n in renameable_names(base.translation(p.id), p.family.is_csp)]
        for p in base.problems
    }
    out = []
    for index in range(start, start + copies):
        problems, translations, stage_texts = [], {}, {}
        for p in base.problems:
            mapping = {}
            for name in symbols[p.id]:
                mapping.setdefault(name, words.word())
            rename = _renamer(mapping)
            new_id = f"{p.id}-{index:03d}"
            problems.append(dataclasses.replace(
                p,
                id=new_id,
                context=rename(p.context),
                question=rename(p.question),
                options=tuple((letter, rename(text)) for letter, text in p.options),
            ))
            translations[new_id] = rename(base.translation(p.id))
            for (pid, stage), text in base.stage_texts.items():
                if pid == p.id:
                    stage_texts[(new_id, stage)] = rename(text)
        out.append(MiniCorpus(tuple(problems), translations, stage_texts))
    return out


def merge_corpora(parts: list[MiniCorpus]) -> MiniCorpus:
    problems, translations, stage_texts = [], {}, {}
    for part in parts:
        problems.extend(part.problems)
        translations.update(part.translations)
        stage_texts.update(part.stage_texts)
    return MiniCorpus(tuple(problems), translations, stage_texts)


# ---------------------------------------------------------------------------
# Generated translate-then-solve problems


@dataclass(frozen=True)
class Generated:
    """A problem plus the translation a model would answer with."""

    problem: Problem
    translation: str


_PROOFWRITER_Q = "Based on the above information, is the following statement true, false, or unknown? "


def generate_kb(rng: random.Random, words: WordSource, rules: int, constants: int,
                gold: Label, problem_id: str) -> Generated:
    """A ProofWriter-style knowledge base whose answer is ``gold`` by construction.

    Structure, for R rules over C constants:

    * a chain P0 ⇒ P1 ⇒ … of ``R - R//10`` rules; every fifteenth link also
      needs an auxiliary positive fact and every thirtieth a negative one
      (multi-literal and negative-polarity bodies);
    * ``R//10`` negative-head rules ``Pi(x) ⇒ ¬Ni(x)``;
    * C-1 seeded constants carry P0 and the auxiliary facts; the last
      constant carries only an unrelated fact.

    True queries ask for the chain's end on a seeded constant (a chained
    fact); False queries ask for a positive Ni on a seeded constant (refuted
    by a negative-head rule); Unknown queries ask for the chain's end on the
    unseeded constant.
    """
    neg_rules = max(1, rules // 10)
    chain = rules - neg_rules
    chain_preds = [words.word().capitalize() for _ in range(chain + 1)]
    neg_preds = [words.word().capitalize() for _ in range(neg_rules)]
    aux_pos, aux_neg, tag = (words.word().capitalize() for _ in range(3))
    names = [words.word() for _ in range(constants)]
    seeded, unseeded = names[:-1], names[-1]

    facts, rule_lines = [], []
    for c in seeded:
        facts.append((f"{chain_preds[0]}({c}, True)", f"{c.capitalize()} is {chain_preds[0].lower()}."))
        facts.append((f"{aux_pos}({c}, True)", f"{c.capitalize()} is {aux_pos.lower()}."))
        facts.append((f"{aux_neg}({c}, False)", f"{c.capitalize()} is not {aux_neg.lower()}."))
    facts.append((f"{tag}({unseeded}, True)", f"{unseeded.capitalize()} is {tag.lower()}."))
    for i in range(chain):
        body = [f"{chain_preds[i]}($x, True)"]
        phrase = [chain_preds[i].lower()]
        if i % 15 == 14:
            body.append(f"{aux_pos}($x, True)")
            phrase.append(aux_pos.lower())
        if i % 30 == 29:
            body.append(f"{aux_neg}($x, False)")
            phrase.append(f"not {aux_neg.lower()}")
        head = f"{chain_preds[i + 1]}($x, True)"
        gloss = f"If something is {' and '.join(phrase)} then it is {chain_preds[i + 1].lower()}."
        rule_lines.append((" ∧ ".join(body) + " ⇒ " + head, gloss))
    neg_at = sorted(rng.sample(range(1, chain + 1), neg_rules))
    for pred, at in zip(neg_preds, neg_at):
        gloss = f"If something is {chain_preds[at].lower()} then it is not {pred.lower()}."
        rule_lines.append((f"{chain_preds[at]}($x, True) ⇒ {pred}($x, False)", gloss))

    if gold is Label.TRUE:
        c = rng.choice(seeded)
        query = (f"{chain_preds[-1]}({c}, True)", f"{c.capitalize()} is {chain_preds[-1].lower()}.")
    elif gold is Label.FALSE:
        c, pred = rng.choice(seeded), rng.choice(neg_preds)
        query = (f"{pred}({c}, True)", f"{c.capitalize()} is {pred.lower()}.")
    elif gold is Label.UNKNOWN:
        query = (f"{chain_preds[-1]}({unseeded}, True)", f"{unseeded.capitalize()} is {chain_preds[-1].lower()}.")
    else:
        raise ValueError(f"a knowledge-base problem has no {gold.value} answer")

    lines = ["Predicates:"]
    for pred in chain_preds + neg_preds + [aux_pos, aux_neg, tag]:
        lines.append(f"{pred}(x) ::: Is x {pred.lower()}?")
    lines.append("Facts:")
    lines.extend(f"{fact} ::: {gloss}" for fact, gloss in facts)
    lines.append("Rules:")
    lines.extend(f"{rule} ::: {gloss}" for rule, gloss in rule_lines)
    lines.append("Query:")
    lines.append(f"{query[0]} ::: {query[1]}")
    context = " ".join([g for _, g in facts] + [g for _, g in rule_lines])
    problem = Problem(
        id=problem_id,
        dataset="ProofWriter",
        context=context,
        question=_PROOFWRITER_Q + query[1],
        gold=gold,
    )
    return Generated(problem, "\n".join(lines))


_ORDINALS = ["first", "second", "third", "fourth", "fifth", "sixth", "seventh", "eighth", "ninth"]


def generate_lineup(rng: random.Random, words: WordSource, objects: int, tight: bool,
                    problem_id: str) -> Generated:
    """An n-object ordering puzzle with exactly one must-be-true option.

    A hidden left-to-right order is drawn from ``rng``; every constraint is
    true of it, so the model has at least one solution.  The correct option
    restates the pinned object's position, which therefore holds in every
    solution; the four distractors are false in the hidden order, so none of
    them holds in every solution.

    The structure depends only on ``objects`` and ``tight`` (not on the
    seed), which keeps the search cost of a shape the same across seeds.
    A loose puzzle pins the last-declared object only, so the backtracking
    search meets its first pruning constraint at the deepest level; a tight
    one pins the first-declared object and adds precedences between the
    early objects.
    """
    names = [words.word() for _ in range(objects)]
    order = list(range(1, objects + 1))
    rng.shuffle(order)
    position = dict(zip(names, order))

    pinned = names[0] if tight else names[-1]
    constraints = [(f"{pinned} == {position[pinned]}",
                    f"The {pinned} is the {_ORDINALS[position[pinned] - 1]} from the left.")]
    if tight:
        for a, b in zip(names[1:], names[2:objects - 1]):
            left, right = (a, b) if position[a] < position[b] else (b, a)
            constraints.append((f"{left} < {right}", f"The {left} is to the left of the {right}."))
    constraints.append((f"AllDifferentConstraint([{', '.join(names)}])",
                        "All objects have different positions."))

    correct = (f"{pinned} == {position[pinned]}",
               f"The {pinned} is the {_ORDINALS[position[pinned] - 1]} from the left.")
    distractors = []
    others = [n for n in names if n != pinned]
    rng.shuffle(others)
    for name in others[:4]:
        wrong = rng.choice([v for v in range(1, objects + 1) if v != position[name]])
        distractors.append((f"{name} == {wrong}", f"The {name} is the {_ORDINALS[wrong - 1]} from the left."))
    slot = rng.randrange(5)
    statements = distractors[:slot] + [correct] + distractors[slot:]
    letters = "ABCDE"

    lines = ["Domain:", "1: leftmost", f"{objects}: rightmost", "Variables:"]
    domain = ", ".join(str(v) for v in range(1, objects + 1))
    lines.extend(f"{n} ∈ {{{domain}}}" for n in names)
    lines.append("Constraints:")
    lines.extend(f"{expr} ::: {gloss}" for expr, gloss in constraints)
    lines.append("Query:")
    lines.extend(f"{letters[i]}) {expr} ::: {gloss}" for i, (expr, gloss) in enumerate(statements))

    intro = (f"The following paragraphs each describe a set of {objects} objects arranged in a fixed "
             f"order. On a shelf, there are {objects} objects: {', '.join('a ' + n for n in names)}.")
    context = " ".join([intro] + [gloss for _, gloss in constraints[:-1]])
    problem = Problem(
        id=problem_id,
        dataset="LogicalDeduction",
        context=context,
        question="Which of the following is true?",
        options=tuple((letters[i], gloss) for i, (_, gloss) in enumerate(statements)),
        gold=Label(letters[slot]),
    )
    return Generated(problem, "\n".join(lines))


# One engine-heavy cycle: every shape once.  The shapes, not the seed, set
# the cost of a cycle, so cycles cost the same on every seed.  Every problem
# solves in well under 0.1 s: on a shared host, longer units of work average
# over other tenants' bursts and cannot be timed steadily.
KB_SHAPES = ((20, 10), (30, 12), (40, 15))
LINEUP_SHAPES = ((5, False), (5, True), (6, True))
_KB_GOLDS = (Label.TRUE, Label.FALSE, Label.UNKNOWN)


def engine_cycle(seed: int, cycle: int) -> list[Generated]:
    """The ``cycle``-th batch of engine-heavy problems for ``seed``.

    Gold labels of the knowledge bases rotate with the cycle, so every shape
    meets every gold label across three consecutive cycles.
    """
    rng = random.Random(f"engine:{seed}:{cycle}")
    words = WordSource(rng)
    out = []
    for i, (rules, constants) in enumerate(KB_SHAPES):
        gold = _KB_GOLDS[(i + cycle) % len(_KB_GOLDS)]
        out.append(generate_kb(rng, words, rules, constants, gold, f"kb-{rules}x{constants}-{cycle:03d}"))
    for objects, tight in LINEUP_SHAPES:
        kind = "tight" if tight else "loose"
        out.append(generate_lineup(rng, words, objects, tight, f"lineup-{objects}-{kind}-{cycle:03d}"))
    return out


def baseline_problems(seed: int) -> list[Generated]:
    """The two ROADMAP baseline cases: a 100-rule x 30-constant KB and a
    loosely constrained 7-object puzzle (traced runs time them once)."""
    rng = random.Random(f"baseline:{seed}")
    words = WordSource(rng)
    return [generate_kb(rng, words, 100, 30, Label.TRUE, "kb-100x30-baseline"),
            generate_lineup(rng, words, 7, False, "lineup-7-loose-baseline")]
