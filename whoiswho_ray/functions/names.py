"""Person-name normalization and fuzzy form matching (operators M2/M3/M4/M5/M8).

From-scratch re-expressions of the reference's name toolkit, behavior-
matched to:

* ``tokenize_name`` — ``/root/reference/whoiswho/character/name_match/
  tool/token.py:102-119``: split glued 2-cap abbreviations, strip
  apostrophes, ASCII-fold, drop honorific stopwords, canonicalize common
  English nicknames, split multi-dot abbreviations.
* ``unify_name_order`` — ``whoiswho/utils.py:163-178``: a ``first_last``
  key and its order-swapped twin.
* ``match_name`` — ``whoiswho/character/match_name.py:31-94``: the 7-rule
  cascade deciding whether a surface form ("j smith", "smith john",
  "zhang x y") can denote a canonical ``first_last`` name, including the
  middle-name skip, the 2-letter-glued-abbreviation rule, reversed
  initials, and an alias table for known variant spellings
  (``names_wrong``, ``match_name.py:5-17``).
* ``best_author_slot`` — ``whoiswho/utils.py:99-161`` (``get_author_index``):
  locate which author slot of a record matches an ambiguous name, by token
  hits, then initial consumption, then a fractional gap score.
* ``is_chinese_name`` — the reference classifies via 3,310 lines of name
  dictionaries (``tool/const.py``); here it is an honest HEURISTIC: CJK
  codepoints, or every token segmentable into legal pinyin syllables.
  CJK→pinyin transliteration itself needs a character table the engine
  does not ship — pass one via ``set_pinyin_table``; without it CJK
  forms simply don't match.

All functions are pure Python over short strings — used inside
``map_batches`` loops and per-process memo caches, never on the hot
token-set path (which is hashed numpy).
"""

from __future__ import annotations

import re

from whoiswho_ray.functions.textnorm import ascii_fold

NAME_STOPWORDS = frozenset({"jr", "iii", "dr", "mr", "mrs", "ms", "prof", "junior"})

# Common English nickname → formal given name (public-knowledge list; the
# reference ships an equivalent table at token.py:7-100).
NICKNAMES = {
    "al": "albert", "andy": "andrew", "tony": "anthony", "art": "arthur",
    "bernie": "bernard", "charlie": "charles", "chuck": "charles",
    "danny": "daniel", "dan": "daniel", "don": "donald", "ed": "edward",
    "eddie": "edward", "gene": "eugene", "fred": "frederick",
    "freddy": "frederick", "hank": "henry", "harry": "henry",
    "jimmy": "james", "jim": "james", "joe": "joseph", "jack": "john",
    "jacky": "john", "jeff": "jeffrey", "ken": "kenneth",
    "larry": "lawrence", "leo": "leonard", "matt": "matthew",
    "mike": "michael", "nate": "nathan", "nick": "nicholas",
    "pat": "patrick", "pete": "peter", "ray": "raymond",
    "dick": "richard", "rick": "richard", "bob": "robert",
    "bobby": "robert", "rob": "robert", "ron": "ronald",
    "russ": "russell", "sam": "samuel", "steve": "stephen",
    "stu": "stuart", "ted": "theodore", "teddy": "theodore",
    "tom": "thomas", "tommy": "thomas", "tim": "timothy",
    "walt": "walter", "bill": "william", "billy": "william",
    "will": "william", "willy": "william",
    "mandy": "amanda", "cathy": "catherine", "chris": "christopher",
    "cindy": "cynthia", "debbie": "deborah", "deb": "deborah",
    "betty": "elizabeth", "beth": "elizabeth", "liz": "elizabeth",
    "kate": "katherine", "kathy": "katherine", "nan": "nancy",
    "pam": "pamela", "peggy": "margaret", "sally": "sarah",
    "sue": "susan", "suzie": "susan", "terry": "teresa", "val": "valerie",
}

# Known variant-spelling aliases: surface form → acceptable canonical given
# names (the role of the reference's mined ``names_wrong`` table,
# match_name.py:5-17 — regex alternations expanded to plain alternatives).
DEFAULT_ALIASES: dict[str, tuple[str, ...]] = {
    "takahiro": ("tadashi", "takashi"), "toshiyuki": ("tadashi", "takashi"),
    "takeshi": ("tadashi", "takashi"), "tomohiro": ("tadashi", "takashi"),
    "takamitsu": ("tadashi", "takashi"), "takahisa": ("tadashi", "takashi"),
    "takashi": ("tadashi", "takashi"), "takahiko": ("tadashi", "takashi"),
    "takayuki": ("tadashi", "takashi"),
    "akimasa": ("akira",), "akio": ("akira",), "akito": ("akira",),
    "kentarok": ("kentaro",),
    "xiaohuatony": ("xiaohua",), "tonyxiaohua": ("xiaohua",),
    "ulrich": ("ulrike",),
    "naoto": ("naoki",), "naomi": ("naoki",),
    "junko": ("junichi",),
    "isaku": ("isao",),
}

_NON_WORD_DOT_RE = re.compile(r"[^\w.]")
_NON_ALPHA_RE = re.compile(r"[^a-zA-Z]")
_CJK_RE = re.compile(r"[一-鿿]")
_CJK_RUN_RE = re.compile(r"[一-鿿]+")

# ---------------------------------------------------------------------------
# pinyin heuristics (M5 analog)
# ---------------------------------------------------------------------------

_PY_INITIALS = [
    "zh", "ch", "sh",
    "b", "p", "m", "f", "d", "t", "n", "l", "g", "k", "h",
    "j", "q", "x", "r", "z", "c", "s", "y", "w", "",
]
_PY_FINALS = [
    "iang", "iong", "uang", "ueng",
    "ang", "eng", "ing", "ong", "iao", "ian", "uai", "uan",
    "ai", "ei", "ui", "ao", "ou", "iu", "ie", "ue", "er",
    "an", "en", "in", "un", "ia", "ua", "uo", "ai",
    "a", "o", "e", "i", "u", "v",
]
_PY_SYLLABLES = frozenset(
    i + f for i in _PY_INITIALS for f in _PY_FINALS
) | frozenset(["er", "a", "o", "e", "ai", "ei", "ao", "ou", "an", "en", "ang", "eng"])

from whoiswho_ray.functions.pinyin_data import COMMON_PINYIN

_pinyin_table: dict[str, str] | None = COMMON_PINYIN


def set_pinyin_table(table: dict[str, str] | None) -> None:
    """Install a CJK-character → pinyin mapping, replacing the shipped
    seed table (``pinyin_data.COMMON_PINYIN``, ~100 common surnames +
    frequent given-name characters). Extend rather than replace with
    ``set_pinyin_table({**COMMON_PINYIN, **your_unihan_table})``; pass
    None to disable transliteration entirely. Characters absent from the
    installed table are never guessed: ``pinyin_of`` returns None and the
    match cascade treats the form as non-matching."""
    global _pinyin_table
    _pinyin_table = table


def pinyin_of(cjk: str) -> str | None:
    """Transliterate a CJK string via the installed table; None when the
    table is disabled or any character is missing from it."""
    if _pinyin_table is None:
        return None
    out = []
    for ch in cjk:
        p = _pinyin_table.get(ch)
        if p is None:
            return None
        out.append(p)
    return "".join(out)


def is_pinyin_token(tok: str) -> bool:
    """Does the token segment fully into legal pinyin syllables? (DP over
    the syllable set — greedy-with-backtracking.)"""
    n = len(tok)
    if n == 0:
        return False
    ok = [False] * (n + 1)
    ok[0] = True
    for i in range(1, n + 1):
        for l in range(min(6, i), 0, -1):
            if ok[i - l] and tok[i - l:i] in _PY_SYLLABLES:
                ok[i] = True
                break
    return ok[n]


def is_chinese_name(name: str) -> bool:
    """Dictionary classifier for romanized CJK-sphere names — the
    reference's rule shape (``tool/is_chinese.py:70-97``) over
    independently authored dictionaries (``functions/cjk_data.py``, the
    from-scratch analog of ``tool/const.py:1-3311``):

    * CJK codepoints present → True;
    * 1–2 multi-char tokens: True iff a token is a known CJK-sphere
      surname, or a given-name-token match co-occurs with a banned
      (ambiguous) surname form;
    * ≥3 tokens: count surname + given-token matches, re-crediting
      banned forms only when other CJK evidence exists; True iff all
      but at most one token matched.
    """
    from whoiswho_ray.functions.cjk_data import (BAN_NAME, BAN_TOKEN,
                                                 CJK_GIVEN_TOKENS,
                                                 CJK_SURNAMES)

    if _CJK_RE.search(name or ""):
        return True
    toks = [t for t in _NON_ALPHA_RE.sub(" ", ascii_fold(name or "").lower()).split() if t]
    full = [t for t in toks if len(t) > 1]
    fs = len(full)
    nm = [t for t in full if t in CJK_SURNAMES]
    tm = [t for t in full if t in CJK_GIVEN_TOKENS]
    if fs in (1, 2):
        if nm:
            return True
        if tm and any(t in BAN_NAME for t in full):
            return True
    elif fs >= 3:
        tex = [t for t in tm if t not in nm]
        cn, ct = len(nm), len(tex)
        if cn or tm:
            cn += sum(t in BAN_NAME for t in full)
            ct += sum(t in BAN_TOKEN for t in full)
        if cn + ct >= fs - 1:
            return True
    return False


# ---------------------------------------------------------------------------
# tokenization / ordering (M2 / M3)
# ---------------------------------------------------------------------------


def tokenize_name(name: str) -> list[str]:
    """Normalized given-name tokens (``token.py:102-119`` semantics):
    glued 2-cap abbreviations split ("XY" → "x y"), apostrophes removed,
    ASCII-folded, lowercased, honorifics dropped, nicknames canonicalized,
    multi-dot abbreviations split, dots stripped."""
    if not name:
        return []
    if _CJK_RE.search(name):
        # a CJK run is surname-first with no spaces: first character →
        # surname token, remaining characters → ONE glued given-name token
        # (so 张晓明 tokenizes like romanized "Zhang Xiaoming", not three
        # syllables). Transliterated via the installed pinyin table;
        # unknown characters pass through raw — deterministic, never guessed.
        table = _pinyin_table or {}

        def _run(m: re.Match) -> str:
            chars = m.group(0)
            py = [table.get(c, c) for c in chars]
            if len(py) == 1:
                return f" {py[0]} "
            return f" {py[0]} {''.join(py[1:])} "

        name = _CJK_RUN_RE.sub(_run, name)
    words = []
    for w in name.split():
        if len(w) == 2 and "." not in w and w.isupper():
            words.extend(list(w))
        else:
            words.append(w)
    s = " ".join(words).replace("'", "").replace("’", "")
    s = _NON_WORD_DOT_RE.sub(" ", s).lower()
    s = ascii_fold(s)
    out = []
    for w in s.split():
        bare = w.replace(".", "")
        if not bare or bare in NAME_STOPWORDS:
            continue
        parts = [p for p in w.split(".") if p]  # "a.b" → initials a, b
        for p in parts if len(parts) > 1 else [bare]:
            out.append(NICKNAMES.get(p, p))
    return out


def unify_name_order(name: str) -> tuple[str, str]:
    """``first_last`` (or space-separated) name → (collapsed, order-swapped
    collapsed) — ``utils.py:163-178`` semantics incl. the 3-token rule."""
    toks = (name or "").replace("_", " ").split()
    if not toks:
        return "", ""
    if len(toks) == 1:
        return toks[0], toks[0]
    if len(toks) > 2:
        return "".join(toks[:3]), toks[2] + toks[0] + toks[1]
    return toks[0] + toks[1], toks[1] + toks[0]


def name_block_key(name: str) -> str:
    """Order- and abbreviation-invariant blocking key.

    The r1 collapsed key sent "J. Smith" → ``jsmith`` and "John Smith" →
    ``johnsmith`` into DIFFERENT blocks, so abbreviated forms of one author
    were never compared (the reference never has this hole because its
    block keys are the dataset's canonical ``first_last`` names). Key =
    presumed surname in full + the FIRST initial of the remaining tokens:
    "John Smith" / "J. Smith" / "Smith, John" / "John A. Smith" all →
    ``smith.j``.

    Surname guess, two public-knowledge rules in order:

    1. Chinese surnames are (near-universally) monosyllabic while given
       names are usually disyllabic — when every token segments into legal
       pinyin and exactly one is a single syllable, that one is the
       surname: "Xiaoming Zhang" / "Zhang Xiaoming" / 张晓明 / "X. Zhang"
       all → ``zhang.x``.
    2. Otherwise the longest token (ties → lexicographically last), which
       handles western names where given names are commonly abbreviated
       and surnames are not.

    First-initial (not all-sorted-initials) keeps glued pinyin given names
    ("Xiaoming" → x) and middle-initial variants ("John A." vs "John") in
    ONE block. Blocking is recall-oriented — the pairwise cascade and the
    scoring features separate the j-Smiths inside the block."""
    toks = tokenize_name(name)
    if not toks:
        return ""
    if len(toks) == 1:
        return toks[0]
    si = -1
    if all(len(t) == 1 or is_pinyin_token(t) for t in toks):
        mono = [i for i, t in enumerate(toks) if len(t) > 1 and t in _PY_SYLLABLES]
        multi = [i for i, t in enumerate(toks)
                 if len(t) > 1 and t not in _PY_SYLLABLES and is_pinyin_token(t)]
        if len(mono) == 1 and multi:
            si = mono[0]
    if si < 0:
        si = max(range(len(toks)), key=lambda i: (len(toks[i]), toks[i]))
    given = [t for i, t in enumerate(toks) if i != si]
    return f"{toks[si]}.{given[0][0]}"


# ---------------------------------------------------------------------------
# the match cascade (M4)
# ---------------------------------------------------------------------------


def _starts(prefix: str, s: str) -> bool:
    return s.startswith(prefix)


def _inorder_anchored(parts: list[str], s: str) -> bool:
    """``re.match('.*'.join(parts)+'.*', s)`` semantics for literal parts:
    s starts with parts[0] and contains the rest in order after it."""
    if not parts:
        return True
    if not s.startswith(parts[0]):
        return False
    pos = len(parts[0])
    for p in parts[1:]:
        i = s.find(p, pos)
        if i < 0:
            return False
        pos = i + len(p)
    return True


def match_name(
    name: str,
    target: str,
    aliases: dict[str, tuple[str, ...]] | None = DEFAULT_ALIASES,
) -> bool:
    """Can surface form ``name`` denote canonical ``target`` =
    ``"first_last"``? The reference's cascade (``match_name.py:31-94``):

    1. CJK name → transliterate (gated on ``set_pinyin_table``) and compare
       to ``last+first`` collapsed.
    2. ASCII-fold, lowercase, non-alpha → space; <2 tokens never match.
    3. 3 tokens: first/last prefix match ignoring the middle name; a
       trailing single 'a'/'c' noise token is dropped.
    4. Name in "Last First..." order (token 0 prefixes the surname):
       glued 2-letter abbreviation ("zhang xy" → x*y* against first),
       in-order prefix chain, reversed single-letter initials.
    5. Name in "First... Last" order (last token prefixes the surname):
       alias-table lookup for known variant spellings, else the in-order
       prefix chain, then reversed initials.
    """
    if "_" not in (target or ""):
        return False
    first, last = target.split("_", 1)
    first = first.replace("-", "")
    name = name or ""

    if _CJK_RE.search(name):
        cjk = "".join(_CJK_RE.findall(name))
        p = pinyin_of(cjk)
        return p is not None and p == last + first

    cleaned = _NON_ALPHA_RE.sub(" ", ascii_fold(name).lower())
    tokens = cleaned.split()
    if len(tokens) < 2:
        return False
    if len(tokens) == 3:
        if _starts(tokens[0], first) and _starts(tokens[-1], last):
            return True
        if tokens[-1] in ("a", "c"):
            tokens = tokens[:-1]

    if _starts(tokens[0], last):
        if len(tokens) == 2 and len(tokens[1]) == 2:
            # glued two-letter abbreviation of the given name
            t = tokens[1]
            if first.startswith(t[0]) and t[1] in first[1:]:
                return True
        if _inorder_anchored(tokens[1:], first):
            return True
        if len(tokens) == 3 and len(tokens[1]) == 1 and len(tokens[2]) == 1:
            if _inorder_anchored([tokens[2], tokens[1]], first):
                return True
    if _starts(tokens[-1], last):
        candidate = "".join(tokens[:-1])
        alts = (aliases or {}).get(candidate)
        if alts is not None:
            if any(_starts(a, first) or _inorder_anchored([a], first) for a in alts):
                return True
        elif _inorder_anchored(tokens[:-1], first):
            return True
        if len(tokens) == 3 and len(tokens[0]) == 1 and len(tokens[1]) == 1:
            if _inorder_anchored([tokens[1], tokens[0]], first):
                return True
    return False


def match_name_pair(a: str, b: str) -> bool:
    """Symmetric convenience: try each side as the canonical form in both
    token orders (``unify_name_order`` variants) against the other."""
    ta, tb = tokenize_name(a), tokenize_name(b)
    if not ta or not tb:
        return False
    for surface, canon in ((a, tb), (b, ta)):
        if len(canon) < 2:
            continue
        orders = [
            (canon[0], canon[-1]),                     # first..., last
            (canon[-1], canon[0]),                     # reversed
        ]
        for f, l in orders:
            mid = [t for t in canon if t not in (f, l)]
            target = f"{''.join([f] + mid)}_{l}"
            if match_name(surface, target):
                return True
    return False


# ---------------------------------------------------------------------------
# author-slot resolution (M8)
# ---------------------------------------------------------------------------


def best_author_slot(name: str, slot_names: list[str]) -> int:
    """Which author slot does ``name`` occupy? -1 when ambiguous.

    The reference's ``get_author_index`` (``utils.py:99-161``) staged
    resolution: (1) slots sharing a full token with the name; if unique,
    done. (2) Consume shared tokens, then require an unconsumed initial to
    match; if unique, done. (3) Fractional gap score over leftover initials
    (0.9 for an initial that appears inside a token); unique minimum wins;
    ties → (4) slots whose name contains every query token as substrings.
    """
    qtok = tokenize_name(name)
    if not qtok:
        return -1
    slots = [tokenize_name(s) for s in slot_names]

    hits = []
    for idx, st in enumerate(slots):
        if any(q in st for q in qtok):
            hits.append(idx)
    if len(hits) == 1:
        return hits[0]

    stage2 = []
    for idx in hits:
        st = slots[idx]
        first_chars = [t[0] for t in st]
        for i, t in enumerate(st):
            if t in qtok:
                first_chars[i] = ""
        leftover_q = [q for q in qtok if q not in st]
        if any(q[0] in first_chars for q in leftover_q):
            stage2.append((idx, [c for c in first_chars if c], leftover_q))
    if len(stage2) == 1:
        return stage2[0][0]

    best, best_gap = -1, float("inf")
    for idx, fchars, leftover_q in stage2:
        qf = [q[0] for q in leftover_q]
        gap = sum(1 for c in qf if c not in fchars)
        joined = "".join(leftover_q)
        for c in fchars:
            gap += 0.9 if (c not in qf and c in joined) else (1 if c not in qf else 0)
        if gap < best_gap:
            best_gap, best = gap, idx
        elif gap == best_gap:
            best = -1

    if best == -1:
        contains = [i for i, s in enumerate(slot_names)
                    if all(q in (s or "").lower() for q in qtok)]
        if len(contains) == 1:
            return contains[0]
    return best
