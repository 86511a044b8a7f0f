"""The line-oriented readers: what each does with edge-case lines, and that
every mutated input file either loads or fails naming its path."""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peprank.cli import main
from peprank.masses import load_mass_table, parse_peptide
from peprank.pipeline import load_candidates, load_predictions, read_selections

SELECTIONS_HEADER = "spectrum_id\tselected_index\tselected_model\tselected_peptide\tscores"

# Each reader's two data lines; a probe goes between them or replaces the first.
BASE_LINES = {
    "mass_table": ["G\t57.02146", "A\t71.03711"],
    "candidates": [json.dumps({"spectrum_id": s, "candidates": [{"model": "m1", "peptide": "GA"}]})
                   for s in ("a", "b")],
    "predictions": [json.dumps({"spectrum_id": s, "pred": "GA", "truth": "AG"}) for s in ("a", "b")],
    "selections": ["a\t0\tm1\tGA\t0.5,0.25", "b\t1\tm2\tAG\t0.5,0.25"],
    "pairs": ["GA\tAG", "G\tA"],
}
INSERTED = {"blank": "", "spaces": "   ", "tab": "\t", "tabs": "\t\t\t\t", "comment": "# note",
            "indented_comment": "  # note"}
APPENDED = {"trailing_tab": "\t", "trailing_spaces": "  ", "extra_field": "\tx"}
MISSING_FIELD = {  # the first data line with its last field gone
    "mass_table": "G",
    "candidates": json.dumps({"spectrum_id": "a"}),
    "predictions": json.dumps({"spectrum_id": "a", "pred": "GA"}),
    "selections": "a\t0\tm1\tGA",
    "pairs": "GA",
}


def probe_text(reader, probe):
    """The reader's file with one probe applied, as text."""
    lines = list(BASE_LINES[reader])
    if probe in INSERTED:
        lines.insert(1, INSERTED[probe])
    elif probe in APPENDED:
        lines[0] += APPENDED[probe]
    elif probe == "missing_field":
        lines[0] = MISSING_FIELD[reader]
    if reader == "selections":
        lines.insert(0, SELECTIONS_HEADER)
    ending = "\r\n" if probe == "crlf" else "\n"
    return "".join(line + ending for line in lines)


def library_outcome(reader, text):
    """``ok`` and what the reader returned, or ``error`` and its message."""
    source = io.StringIO(text)
    try:
        if reader == "mass_table":
            got = list(load_mass_table(source).tokens)
        elif reader == "candidates":
            got = [(cs.spectrum_id, cs.candidates) for cs in load_candidates(source)]
        elif reader == "predictions":
            got = [(r["spectrum_id"], r["pred"], r["truth"]) for r in load_predictions(source)]
        else:
            got = [(s.spectrum_id, s.index, s.model_name, s.peptide, s.scores)
                   for s in read_selections(source)]
    except ValueError as exc:
        return f"error {exc}"
    return f"ok {got!r}"


def pairs_outcome(tmp_path, capsys, text):
    """``metrics --pairs``'s output, or ``error`` and its message without the path."""
    path = tmp_path / "pairs.tsv"
    path.write_bytes(text.encode())
    code = main(["metrics", "--pairs", str(path)])
    captured = capsys.readouterr()
    if code:
        return "error " + captured.err.splitlines()[-1].removeprefix("error: ").replace(
            str(path), "PATH")
    return f"ok {captured.out!r}"


PROBES = ["none", *INSERTED, *APPENDED, "missing_field", "crlf"]

MASS_TABLE_OK = "ok ['G', 'A']"
CANDIDATES_OK = "ok [('a', [('m1', 'GA')]), ('b', [('m1', 'GA')])]"
PREDICTIONS_OK = "ok [('a', 'GA', 'AG'), ('b', 'GA', 'AG')]"
SELECTIONS_OK = "ok [('a', 0, 'm1', 'GA', [0.5, 0.25]), ('b', 1, 'm2', 'AG', [0.5, 0.25])]"
PAIRS_OK = ("ok 'query\\ttarget\\tpmd\\trmd\\nGA\\tAG\\t0.8429747213119496\\t-14.01565,0.0\\n"
            "G\\tA\\t0.4214873606559748\\t-14.01565\\n'")

# Recorded before the readers shared one line-numbered loop; the library
# readers see CRLF endings, `metrics` reads through universal newlines.
OUTCOMES = {
    ('mass_table', 'none'): MASS_TABLE_OK,
    ('mass_table', 'blank'): MASS_TABLE_OK,
    ('mass_table', 'spaces'): MASS_TABLE_OK,
    ('mass_table', 'tab'): MASS_TABLE_OK,
    ('mass_table', 'tabs'): MASS_TABLE_OK,
    ('mass_table', 'comment'): MASS_TABLE_OK,
    ('mass_table', 'indented_comment'): MASS_TABLE_OK,
    ('mass_table', 'trailing_tab'): MASS_TABLE_OK,
    ('mass_table', 'trailing_spaces'): MASS_TABLE_OK,
    ('mass_table', 'extra_field'): "error line 1: expected 'token<TAB>mass', got 'G\\t57.02146\\tx'",
    ('mass_table', 'missing_field'): "error line 1: expected 'token<TAB>mass', got 'G'",
    ('mass_table', 'crlf'): MASS_TABLE_OK,
    ('candidates', 'none'): CANDIDATES_OK,
    ('candidates', 'blank'): CANDIDATES_OK,
    ('candidates', 'spaces'): CANDIDATES_OK,
    ('candidates', 'tab'): CANDIDATES_OK,
    ('candidates', 'tabs'): CANDIDATES_OK,
    ('candidates', 'comment'): 'error line 2: malformed JSON (Expecting value)',
    ('candidates', 'indented_comment'): 'error line 2: malformed JSON (Expecting value)',
    ('candidates', 'trailing_tab'): CANDIDATES_OK,
    ('candidates', 'trailing_spaces'): CANDIDATES_OK,
    ('candidates', 'extra_field'): 'error line 1: malformed JSON (Extra data)',
    ('candidates', 'missing_field'): 'error line 1: candidates must be a non-empty list',
    ('candidates', 'crlf'): CANDIDATES_OK,
    ('predictions', 'none'): PREDICTIONS_OK,
    ('predictions', 'blank'): PREDICTIONS_OK,
    ('predictions', 'spaces'): PREDICTIONS_OK,
    ('predictions', 'tab'): PREDICTIONS_OK,
    ('predictions', 'tabs'): PREDICTIONS_OK,
    ('predictions', 'comment'): 'error line 2: malformed JSON (Expecting value)',
    ('predictions', 'indented_comment'): 'error line 2: malformed JSON (Expecting value)',
    ('predictions', 'trailing_tab'): PREDICTIONS_OK,
    ('predictions', 'trailing_spaces'): PREDICTIONS_OK,
    ('predictions', 'extra_field'): 'error line 1: malformed JSON (Extra data)',
    ('predictions', 'missing_field'): "error line 1: missing field 'truth'",
    ('predictions', 'crlf'): PREDICTIONS_OK,
    ('selections', 'none'): SELECTIONS_OK,
    ('selections', 'blank'): SELECTIONS_OK,
    ('selections', 'spaces'): 'error line 3: expected 5 tab-separated fields',
    ('selections', 'tab'): 'error line 3: expected 5 tab-separated fields',
    ('selections', 'tabs'): "error line 3: invalid literal for int() with base 10: ''",
    ('selections', 'comment'): 'error line 3: expected 5 tab-separated fields',
    ('selections', 'indented_comment'): 'error line 3: expected 5 tab-separated fields',
    ('selections', 'trailing_tab'): 'error line 2: expected 5 tab-separated fields',
    ('selections', 'trailing_spaces'): SELECTIONS_OK,
    ('selections', 'extra_field'): 'error line 2: expected 5 tab-separated fields',
    ('selections', 'missing_field'): 'error line 2: expected 5 tab-separated fields',
    ('selections', 'crlf'): SELECTIONS_OK,
    ('pairs', 'none'): PAIRS_OK,
    ('pairs', 'blank'): PAIRS_OK,
    ('pairs', 'spaces'): "error PATH:2: expected 'query<TAB>target'",
    ('pairs', 'tab'): ("ok 'query\\ttarget\\tpmd\\trmd\\nGA\\tAG\\t0.8429747213119496\\t-14.01565,0.0\\n"
                       "\\t\\t0.0\\t\\nG\\tA\\t0.4214873606559748\\t-14.01565\\n'"),  # two empty peptides
    ('pairs', 'tabs'): "error PATH:2: expected 'query<TAB>target'",
    ('pairs', 'comment'): PAIRS_OK,
    ('pairs', 'indented_comment'): "error PATH:2: expected 'query<TAB>target'",
    ('pairs', 'trailing_tab'): "error PATH:1: expected 'query<TAB>target'",
    ('pairs', 'trailing_spaces'): "error PATH:1: unknown residue token ' ' in 'AG  '",
    ('pairs', 'extra_field'): "error PATH:1: expected 'query<TAB>target'",
    ('pairs', 'missing_field'): "error PATH:1: expected 'query<TAB>target'",
    ('pairs', 'crlf'): PAIRS_OK,
}


@pytest.mark.parametrize("reader, probe", list(OUTCOMES))
def test_edge_case_lines_keep_their_outcome(tmp_path, capsys, reader, probe):
    text = probe_text(reader, probe)
    if reader == "pairs":
        assert pairs_outcome(tmp_path, capsys, text) == OUTCOMES[reader, probe]
    else:
        assert library_outcome(reader, text) == OUTCOMES[reader, probe]


# ---------------------------------------------------------------------------
# through the CLI: every reader error names its file


def run(*argv):
    """Exit code, stdout and the last stderr line of one ``peprank`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    return code, out.getvalue(), (err.getvalue().splitlines() or [""])[-1]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_a_bad_line_names_its_file_among_several(tmp_path):
    cands = write(tmp_path / "c.jsonl", BASE_LINES["candidates"][0] + "\n")
    sel = write(tmp_path / "sel.tsv", f"{SELECTIONS_HEADER}\na\t0\tm1\tGA\n")
    assert run("evaluate", "--selections", sel, "--candidates", cands) == (
        2, "", f"error: {sel}:2: expected 5 tab-separated fields")


@pytest.mark.parametrize("name, text, message", [
    ("s.mgf", "BEGIN IONS\nPEPMASS=500\nCHARGE=2+\n100.0 x\nEND IONS\n",
     ":4: malformed peak line '100.0 x'"),
    ("s.mgf", "BEGIN IONS\nCHARGE=2+\nEND IONS\n", ": block at line 1: missing PEPMASS"),
    ("t.tsv", "# no tokens\n", ": mass table is empty"),
    ("t.tsv", "G\t57.02146\nGA\t128.05858\n",
     ":2: residue token 'GA' is not one character with an optional (modification)"),
    ("config.json", "[1]", ": config must be a JSON object"),
    ("config.json", "{", ": Expecting property name enclosed in double quotes: line 1 column 2 "
                         "(char 1)"),
])
def test_whole_file_and_line_errors_name_the_file(tmp_path, name, text, message):
    path = write(tmp_path / name, text)
    argv = {"s.mgf": ["preprocess", "--mgf", path, "--out", tmp_path / "o.mgf"],
            "t.tsv": ["metrics", "--mass-table", path, "--pairs", path],
            "config.json": ["train", "--mgf", "-", "--candidates", "-", "--config", path,
                            "--out", tmp_path / "m.ckpt"]}[name]
    assert run(*argv) == (2, "", f"error: {path}{message}")


def test_undecodable_bytes_name_the_file(tmp_path):
    path = tmp_path / "pairs.tsv"
    path.write_bytes(b"GA\tAG\n\xff\n")
    code, _, err = run("metrics", "--pairs", path)
    assert (code, err) == (2, f"error: {path}: 'utf-8' codec can't decode byte 0xff in "
                              "position 6: invalid start byte")


def test_duplicate_selection_rows_are_rejected(tmp_path):
    cands = write(tmp_path / "c.jsonl", json.dumps(
        {"spectrum_id": "a", "label": "GA", "candidates": [{"model": "m1", "peptide": "GA"},
                                                           {"model": "m2", "peptide": "AG"}]}) + "\n")
    row = "a\t0\tm1\tGA\t0.5,0.25\n"
    sel = write(tmp_path / "sel.tsv", f"{SELECTIONS_HEADER}\n{row}")
    assert run("evaluate", "--selections", sel, "--candidates", cands)[0] == 0
    write(sel, f"{SELECTIONS_HEADER}\n{row}{row}{row}")  # counted three times before
    assert run("evaluate", "--selections", sel, "--candidates", cands) == (
        2, "", f"error: {sel}:3: duplicate spectrum_id 'a'")


def test_duplicate_prediction_ids_are_rejected(tmp_path):
    preds = write(tmp_path / "p.jsonl", "".join(
        json.dumps({"spectrum_id": s, "pred": "GA", "truth": "GA"}) + "\n" for s in "aba"))
    assert run("evaluate", "--predictions", preds) == (
        2, "", f"error: {preds}:3: duplicate spectrum_id 'a'")


@pytest.mark.parametrize("token", ["AB", "(x)", "M(O)(P)", "M(O", "M(O))", ")"])
def test_mass_table_tokens_must_tokenize_back_to_themselves(token):
    text = f"G\t57.02146\n# a comment\n{token}\t100.0\n"
    message = f"line 3: residue token {token!r} is not one character with an optional"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_mass_table(io.StringIO(text))


def test_mass_table_token_forms_the_tokenizer_reads():
    text = "G\t57.02146\nM(O)\t147.0354\nX()\t100.0\n1\t50.0\nC(+57.02)\t160.03\n"
    table = load_mass_table(io.StringIO(text))
    assert table.tokens == ("G", "M(O)", "X()", "1", "C(+57.02)")
    assert parse_peptide("GM(O)X()1C(+57.02)", table).residues == table.tokens


def test_analyze_writes_no_report_when_an_input_is_bad(tmp_path):
    preds = write(tmp_path / "p.jsonl", "{\n")
    out = tmp_path / "out.tsv"
    code, _, err = run("analyze", "--analysis", "confusion", "--predictions", preds, "--out", out)
    assert (code, err) == (2, f"error: {preds}:1: malformed JSON (Expecting property name "
                              "enclosed in double quotes)")
    assert not out.exists()


# Mutation properties: 1-8 byte flips, truncations or insertions of a valid
# file, run through the CLI. Each mutant exits 0, or exits 2 naming the file,
# and the line (``path:N:``) unless the reason is one of the file's whole-file
# reasons or names a record by its spectrum id.
MUTATION_CASES = {
    "mass_table": (
        "# residues\nG\t57.02146\nA\t71.03711\nS\t87.03203\nV\t99.06841\nM(O)\t147.0354\n",
        r"mass table is empty"),
    "selections": (
        f"{SELECTIONS_HEADER}\ns1\t0\tm1\tGAV\t0.5,0.25\ns2\t1\tm2\tSM(O)A\t0.125,0.75\n",
        r"selections file missing header row|corpus is empty|selection '.*' has no candidate "
        r"record|spectrum '.*': selection .* does not match its \d+ candidates"),
    "predictions": (
        "".join(json.dumps({"spectrum_id": s, "pred": p, "truth": t}) + "\n"
                for s, p, t in [("s1", "GAV", "GAV"), ("s2", "SM(O)A", "SAM(O)")]),
        r"corpus is empty|spectrum '.*': .*"),
    "pairs": ("query\ttarget\nGAV\tGAS\n# pairs\n\tV\nM(O)A\tSG\n", r"(?!)"),
}
CANDIDATES = "".join(json.dumps({"spectrum_id": s, "label": label, "candidates": [
    {"model": "m1", "peptide": first}, {"model": "m2", "peptide": second}]}) + "\n"
    for s, label, first, second in [("s1", "GAV", "GAV", "GAS"), ("s2", "SAM(O)", "GAV", "SM(O)A")])
PREDICTIONS = MUTATION_CASES["predictions"][0]


@st.composite
def mutants(draw, original: bytes) -> bytes:
    """1-8 mutations, each at any byte or (to get past headers) in the second
    half; inserted bytes are arbitrary or drawn from the formats' own text."""
    data = original
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
        last = max(len(data) - 1, 0)
        at = draw(st.integers(0, last) | st.integers(last // 2, last))
        if kind == "flip" and data:
            data = data[:at] + bytes([data[at] ^ (1 << draw(st.integers(0, 7)))]) + data[at + 1:]
        elif kind == "truncate":
            data = data[:at]
        else:
            data = data[:at] + draw(st.binary(min_size=1, max_size=8) | st.text(
                "\t\n #()\"{}:,.-e0123456789GASVM", min_size=1, max_size=8).map(str.encode)) + data[at:]
    return data


@pytest.mark.parametrize("reader", list(MUTATION_CASES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_files_load_or_name_their_path(tmp_path_factory, reader, data):
    original, whole_file = MUTATION_CASES[reader]
    directory = tmp_path_factory.mktemp(reader)
    path = directory / "mutant"
    path.write_bytes(data.draw(mutants(original.encode())))
    others = {"preds": write(directory / "preds.jsonl", PREDICTIONS),
              "cands": write(directory / "cands.jsonl", CANDIDATES)}
    argv = {"mass_table": ["evaluate", "--mass-table", path, "--predictions", others["preds"]],
            "selections": ["evaluate", "--selections", path, "--candidates", others["cands"]],
            "predictions": ["evaluate", "--predictions", path],
            "pairs": ["metrics", "--pairs", path]}[reader]
    code, _, err = run(*argv)
    if code == 0:
        return
    assert code == 2, err
    if reader == "mass_table" and err.startswith(f"error: {others['preds']}: "):
        # the mutant lost a token that a prediction uses
        assert re.match(r"spectrum '.*': unknown residue token", err.split(": ", 2)[2]), err
        return
    located = re.fullmatch(rf"error: {re.escape(str(path))}:(?:\d+: (.+)| (.+))", err)
    assert located, err
    reason = located[2]
    assert reason is None or re.fullmatch(whole_file + r"|'utf-8' codec can't decode .*",
                                          reason), err
