"""train, eval, classify, rank and report read their corpus in parts, one process each
(see corpus.map_corpus): any part count writes the same bytes and fails the same way."""

import contextlib
import io
import json
import logging
import os
import random
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sensor_rank import classify as classify_module
from sensor_rank import cli
from sensor_rank import corpus as corpus_module
from sensor_rank import rank as rank_module
from sensor_rank import text as text_module
from sensor_rank.cli import main
from sensor_rank.text import ReplacementTable

# Most texts hold 2-byte and 4-byte UTF-8 characters, so a cut has them next to it,
# and some hold U+2028, which ends a str.splitlines line but not a text-mode line.
WORDS = ["zika", "dengue", "febre", "mosquito", "doença", "saúde", "aedes", "chuva", "🦟",
         "casa", "rua", "hoje", "notícia", "jornal", "kkkk", "http://t.co/x", "fim\u2028"]
LABELS = ["Relevant", "News", "Noise"]
MNNB = ["--classifier", "mnnb", "--ngrams", "1", "--smote-percent", "0", "--seed", "3"]
RF = ["--classifier", "rf", "--ngrams", "3", "--smote-percent", "100", "--trees", "4",
      "--seed", "3"]


def record(i, **fields):
    rng = random.Random(i)
    rec = {"id": f"t{i}", "user": f"u{i % 17}", "text": " ".join(rng.choices(WORDS, k=7)),
           "created_at": "2016-09-01T00:00:00Z", "label": LABELS[i % 3], **fields}
    return json.dumps({k: v for k, v in rec.items() if v is not None}, ensure_ascii=False)


def lines(n=240):
    return [record(i) + "\n" for i in range(n)]


# corpora in the forms that meet a cut
CORPORA = {
    "plain": "".join(lines()),
    "crlf": "".join(lines()).replace("\n", "\r\n"),
    "no final line end": "".join(lines()).rstrip("\n"),
    "blank lines": "".join(line + "\n  \r\n" for line in lines()),
    "unlabelled tail": "".join(lines(60)) + "".join(record(i, label=None) + "\n"
                                                   for i in range(60, 240)),
    "no label": "".join(record(i, label=None) + "\n" for i in range(240)),
    # the first line holds most bytes, so 2 and 3 processes both cut after it
    "fewer lines than processes": record(0, text="zika " * 200) + "\n" + record(1) + "\n",
}


def in_parts(monkeypatch, jobs):
    """Cut every corpus into at most jobs parts, one per byte of file at most."""
    monkeypatch.setattr(corpus_module, "_PART_BYTES", 1)
    monkeypatch.setattr(corpus_module, "_jobs", lambda n: min(jobs, n))


def run(argv, tmp_path, capsys, caplog):
    """main(argv), its {out} and {model} placed under tmp_path: exit code, stdout,
    stderr, the bytes of every file it wrote, and the parts it read."""
    tmp_path.mkdir()
    argv = [a.format(out=tmp_path / "out", model=tmp_path / "model.json") for a in argv]
    caplog.clear()
    with caplog.at_level(logging.INFO, logger="sensor_rank"):
        code = main(argv)
    out, err = capsys.readouterr()
    files = {str(p.relative_to(tmp_path)): p.read_bytes()
             for p in sorted(tmp_path.rglob("*")) if p.is_file()}
    parts = [int(m) for m in re.findall(r"map_corpus: (\d+) parts", "\n".join(caplog.messages))]
    return (code, out, err, files), parts


# follow edges among the 17 users, with some to and from users outside the corpus
GRAPH = "".join(f"u{i},u{(i + d) % 17}\n" for i in range(17) for d in (1, 5, 6)) + \
    "x1,u3\nu4,x2\nx1,x2\n"


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """An MNNB and a forest model, trained on the plain corpus in one part, and the
    follower graph."""
    root = tmp_path_factory.mktemp("models")
    corpus = root / "corpus.jsonl"
    corpus.write_text(CORPORA["plain"], encoding="utf-8")
    paths = {"graph": root / "graph.csv"}
    paths["graph"].write_text(GRAPH, encoding="utf-8")
    for name, flags in (("mnnb", MNNB), ("rf", RF)):
        paths[name] = root / f"{name}.json"
        assert main(["train", "--corpus", str(corpus), "--model", str(paths[name]), *flags]) == 0
    return paths


COMMANDS = {
    "classify mnnb": ["classify", "--model", "<mnnb>", "--out", "{out}"],
    "classify rf": ["classify", "--model", "<rf>", "--out", "{out}"],
    "train mnnb": ["train", "--model", "{model}", *MNNB],
    "train rf smote": ["train", "--model", "{model}", *RF],
    "eval": ["eval", "--out", "{out}", "--folds", "2", *MNNB],
    "rank": ["rank", "--graph", "<graph>", "--out", "{out}"],
    "report": ["report", "--graph", "<graph>"],
}
RANKS = ["rank", "report"]


def command(name, corpus, models):
    argv = [str(models[a[1:-1]]) if a.startswith("<") else a for a in COMMANDS[name]]
    return [argv[0], "--corpus", str(corpus), *argv[1:]]


@pytest.mark.parametrize("name", COMMANDS)
@pytest.mark.parametrize("form", CORPORA)
def test_any_part_count_writes_the_same_bytes(models, tmp_path, capsys, caplog, monkeypatch,
                                              form, name):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(CORPORA[form].encode("utf-8"))
    argv = command(name, corpus, models)
    runs = []
    for jobs in (1, 2, 3):
        in_parts(monkeypatch, jobs)
        got, parts = run(argv, tmp_path / str(jobs), capsys, caplog)
        assert (parts == [1]) if jobs == 1 else (parts[0] > 1)
        runs.append(got)
    # too few records to train on or to rank; no label to train or rank by
    fails = (form in ("fewer lines than processes", "no label") and not name.startswith("classify")
             or form == "unlabelled tail" and name in RANKS)
    assert runs[0][0] == (2 if fails else 0)
    if form in ("unlabelled tail", "no label") and name in RANKS:
        first = 60 if form == "unlabelled tail" else 0
        assert runs[0][2] == f"error: record t{first} has no label; classify the corpus first\n"
    elif form == "no label" and fails:
        assert runs[0][2] == "error: corpus contains no labeled records\n"
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_one_part_forks_no_process(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPORA["plain"], encoding="utf-8")
    monkeypatch.setattr(corpus_module, "_in_processes", None)
    assert main(["train", "--corpus", str(corpus), "--model", str(tmp_path / "m.json"),
                 *MNNB]) == 0


def test_the_parts_are_cut_at_line_ends_near_equal_shares(tmp_path, monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    text = CORPORA["crlf"].encode("utf-8")
    corpus.write_bytes(text)
    for jobs in (2, 3):
        in_parts(monkeypatch, jobs)
        cuts = corpus_module._cuts(corpus)
        assert cuts[0] == 0 and cuts[-1] == len(text) and len(cuts) == jobs + 1
        assert all(text[c - 1:c] == b"\n" for c in cuts[1:-1])
        share = len(text) / jobs
        assert all(abs(c - k * share) < 400 for k, c in enumerate(cuts))
    monkeypatch.setattr(corpus_module, "_PART_BYTES", len(text))  # too few bytes for two
    assert corpus_module._cuts(corpus) == [0, len(text)]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_named_pipe_is_read_once_in_one_part(tmp_path, capsys, caplog, monkeypatch):
    data = "".join(lines(800)).encode("utf-8")
    assert len(data) > 1 << 16  # more than a pipe holds, so a writer waits for its reader
    fifo = tmp_path / "corpus.fifo"
    os.mkfifo(fifo)
    broken = []

    def write():
        while True:  # a reader that closes the pipe unread breaks it; write to the next
            try:
                with open(fifo, "wb") as fh:
                    fh.write(data)
                return
            except BrokenPipeError:
                broken.append(1)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    in_parts(monkeypatch, 2)
    argv = ["train", "--corpus", str(fifo), "--model", "{model}", *MNNB]
    got, parts = run(argv, tmp_path / "fifo", capsys, caplog)
    writer.join(timeout=10)
    assert not writer.is_alive() and broken == [] and parts == [1]
    (tmp_path / "plain.jsonl").write_bytes(data)
    argv[2] = str(tmp_path / "plain.jsonl")
    assert got == run(argv, tmp_path / "file", capsys, caplog)[0]


# Run in a fresh interpreter: main(argv[2:]) over at most argv[1] parts; prints the
# exit code and every module loaded in this process.
_MODULES = """
import json, sys
from sensor_rank import corpus
from sensor_rank.cli import main
corpus._PART_BYTES = 1
corpus._jobs = lambda n: min(int(sys.argv[1]), n)
code = main(sys.argv[2:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.mark.parametrize("name", ["classify mnnb", "train mnnb", "rank"])
def test_joining_the_parts_loads_no_module_one_part_does_not(models, tmp_path, name):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPORA["plain"], encoding="utf-8")
    path = [str(Path(corpus_module.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = []
    for jobs in (1, 2):
        argv = [a.format(out=tmp_path / str(jobs), model=tmp_path / f"{jobs}.json")
                for a in command(name, corpus, models)]
        proc = subprocess.run([sys.executable, "-c", _MODULES, str(jobs), *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.splitlines()[-1]))
    assert runs[0][0] == 0 and runs[1] == runs[0]


# a fault on the last line, always in the last part
FAULTS = {
    "malformed JSON": b"{not json}\n",
    "not UTF-8": record(240, text="zi\udcffka").encode("utf-8", "surrogateescape") + b"\n",
    "lone surrogate": record(240, text="zi@ka").replace("@", "\\ud800").encode() + b"\n",
    "unknown label": (record(240, label="Spam") + "\n").encode(),
    "duplicate id": (record(0) + "\n").encode(),
    "byte-order mark": ("\ufeff" + record(240) + "\n").encode(),
}


def corpus_bytes(fault):
    return CORPORA["plain"].encode("utf-8") + FAULTS[fault]


@pytest.mark.parametrize("name", ["classify mnnb", "train mnnb", "eval", *RANKS])
@pytest.mark.parametrize("fault", FAULTS)
def test_a_fault_in_the_last_part_is_the_one_part_error(models, tmp_path, capsys, caplog,
                                                        monkeypatch, fault, name):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(corpus_bytes(fault))
    argv = command(name, corpus, models)
    runs = []
    for jobs in (1, 2, 3):
        in_parts(monkeypatch, jobs)
        got, _ = run(argv, tmp_path / str(jobs), capsys, caplog)
        runs.append(got)
    code, out, err, files = runs[0]
    assert (code, out, files) == (2, "", {})  # no --out directory, no model file
    assert re.fullmatch(rf"error: {re.escape(str(corpus))}: line 241: .*\n", err), err
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_a_byte_order_mark_in_part_0_is_the_one_part_error(models, tmp_path, capsys, caplog,
                                                           monkeypatch):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(b"\xef\xbb\xbf" + CORPORA["plain"].encode("utf-8"))
    runs = []
    for jobs in (1, 2):
        in_parts(monkeypatch, jobs)
        runs.append(run(command("classify mnnb", corpus, models), tmp_path / str(jobs),
                        capsys, caplog)[0])
    assert runs[0][0] == 2 and "line 1: invalid JSON" in runs[0][2]
    assert runs[1] == runs[0]


@pytest.mark.parametrize("model_fault", ["bad model", "table mismatch", "no model"])
def test_a_bad_corpus_wins_over_a_bad_model(models, tmp_path, capsys, caplog, monkeypatch,
                                            model_fault):
    bad_model = tmp_path / "bad.json"
    bad_model.write_text("{}", encoding="utf-8")
    table = tmp_path / "table.csv"
    table.write_text("zika,virus\n", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"table": str(table)}), encoding="utf-8")
    flags, model_error = {
        "bad model": (["--model", str(bad_model)], str(bad_model)),
        "table mismatch": (["--model", str(models["mnnb"]), "--config", str(config)],
                           str(models["mnnb"])),
        "no model": ([], "--model"),
    }[model_fault]
    good, bad = tmp_path / "good.jsonl", tmp_path / "corpus.jsonl"
    good.write_text(CORPORA["plain"], encoding="utf-8")
    bad.write_bytes(corpus_bytes("unknown label"))
    in_parts(monkeypatch, 2)
    for corpus, blamed in ((bad, str(bad)), (good, model_error)):
        argv = ["classify", "--corpus", str(corpus), *flags, "--out", "{out}"]
        (code, out, err, files), _ = run(argv, tmp_path / corpus.stem, capsys, caplog)
        assert (code, out, files) == (2, "", {})
        assert err.startswith(f"error: {blamed}"), err


# how a part process other than this one fails while it counts its records
PART_FAULTS = {
    "raises": "no part today",
    "exits": "a corpus-reading process exited with status 3 before sending its parts",
    "killed": "a corpus-reading process was killed by SIGKILL before sending its parts",
}


def fail(how):
    if how == "raises":
        raise ValueError("no part today")
    if how == "exits":
        os._exit(3)
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("name", ["classify mnnb", "train mnnb", "eval", *RANKS])
@pytest.mark.parametrize("how", PART_FAULTS)
def test_a_failing_part_process_ends_the_command(models, tmp_path, capsys, caplog, monkeypatch,
                                                 how, name):
    parent = os.getpid()

    def or_fail(work):
        def work_or_fail(*args, **kwargs):
            if os.getpid() != parent:
                fail(how)
            return work(*args, **kwargs)
        return work_or_fail

    # the work a part process does: counting its texts, or tallying its users
    for module, attr in ((text_module, "count_ngrams"), (classify_module, "count_ngrams"),
                         (rank_module, "user_tally")):
        monkeypatch.setattr(module, attr, or_fail(getattr(module, attr)))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(CORPORA["plain"], encoding="utf-8")
    in_parts(monkeypatch, 2)
    (code, out, err, files), _ = run(command(name, corpus, models), tmp_path / "run", capsys,
                                     caplog)
    assert (code, out, err, files) == (2, "", f"error: {PART_FAULTS[how]}\n", {})
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("name", RANKS)
def test_a_bad_graph_wins_over_an_unlabelled_corpus(models, tmp_path, capsys, caplog,
                                                    monkeypatch, name):
    corpus, graph = tmp_path / "corpus.jsonl", tmp_path / "graph.csv"
    corpus.write_text(CORPORA["unlabelled tail"], encoding="utf-8")
    graph.write_text("u1,u2\nu3\n", encoding="utf-8")
    argv = command(name, corpus, models)
    argv[argv.index("--graph") + 1] = str(graph)
    runs = []
    for jobs in (1, 2):
        in_parts(monkeypatch, jobs)
        got, parts = run(argv, tmp_path / str(jobs), capsys, caplog)
        assert parts == [jobs]
        runs.append(got)
    assert runs[0] == (2, "", f"error: {graph}: line 2: expected 'follower_id,friend_id', "
                              "got 'u3'\n", {})
    assert runs[1] == runs[0]


# Lines of no record: each is blank to str.strip, though json.loads refuses U+2028,
# U+0085, \x0b and \x0c around a record.
BLANKS = ["", " ", "\t", " \t ", "\u2028", "\x85", "\x0b\x0c"]


def fault(i):
    """Record lines that load_corpus refuses, as bytes."""
    return [b"{not json}", record(i, text="zi@ka").replace("@", "\\ud800").encode(),
            record(i, text="zi@ka").encode().replace(b"@", b"\xff"),
            ("\ufeff" + record(i)).encode(), record(i, label="Spam").encode(),
            record(i, created_at="yesterday").encode()]


@st.composite
def cut_corpus(draw):
    """Corpus bytes, and 1-3 offsets after line feeds where its later parts begin;
    none when no line feed has a byte after it."""
    lines = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["record"] * 8 + ["blank", "repeat", "fault"]))
        if kind == "blank":
            line = draw(st.sampled_from(BLANKS)).encode()
        elif kind == "fault":
            line = draw(st.sampled_from(fault(i)))
        else:
            # text with 2- and 4-byte characters and U+2028; written escaped, the
            # 4-byte one is a surrogate pair; no label leaves the record unlabelled
            rid = draw(st.integers(0, i - 1)) if kind == "repeat" and i else i
            line = record(rid, label=draw(st.sampled_from([*LABELS, None])))
            if draw(st.booleans()):
                line = json.dumps(json.loads(line))
            pad = draw(st.sampled_from(["", "", " ", "\t", " \t"]))
            line = (pad + line + draw(st.sampled_from(["", "", pad]))).encode()
        lines.append(line + draw(st.sampled_from([b"\n", b"\n", b"\r\n", b"\r"])))
    data = b"".join(lines)
    if data and draw(st.booleans()):  # no final line end
        data = data[:-1]
    feeds = [i + 1 for i in range(len(data) - 1) if data[i] == ord("\n")]
    if not feeds:
        return data, []
    return data, sorted(draw(st.lists(st.sampled_from(feeds), min_size=1, max_size=3,
                                      unique=True)))


def merged_results(corpus, model, out):
    """The merged results of each command's part function over corpus: _dataset's
    counts, classify's output, and the user stats from rank.user_tally; a fault is
    its `error:` line."""
    def outcome(call, view):
        try:
            return view(call())
        except ValueError as exc:
            return f"error: {exc}"

    def dataset():
        return cli._dataset({"corpus": str(corpus)}, ReplacementTable.default(), 2)

    def stats():
        return rank_module.merge_user_tallies(corpus_module.map_corpus(corpus,
                                                                       rank_module.user_tally))

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["classify", "--corpus", str(corpus), "--model", str(model),
                     "--out", str(out)])
    written = out / "classified.jsonl"
    return [
        outcome(dataset, lambda d: (d.matrix.indptr.tolist(), d.matrix.indices.tolist(),
                                    d.matrix.data.tolist(), d.y.tolist(), d.vocab.term_to_id)),
        (code, stdout.getvalue(), stderr.getvalue(), written.exists() and written.read_bytes()),
        outcome(stats, lambda u: (u.users, u.relevant.tolist(), u.harvest.tolist(),
                                  u.total.tolist(), u.defaulted.tolist())),
    ]


def in_process(work, n, role, item):
    return [work(i) for i in range(n)]


# the first part of each @example below: one holds an id that the second part
# repeats, the other a padded record before a part of lone-CR lines
_HEAD = (record(0) + "\n \n").encode()
_PADDED_HEAD = ("\t" + record(0) + " \r\n").encode()


@settings(max_examples=150, deadline=None)
@given(cut_corpus())
@example(drawn=(_HEAD + (record(1) + "\n" + record(0) + "\n").encode(), [len(_HEAD)]))
@example(drawn=(_PADDED_HEAD + ("\u2028\r" + record(1, label=None) + "\r").encode(),
                [len(_PADDED_HEAD)]))
def test_parts_read_in_process_merge_into_the_one_part_result(models, tmp_path_factory, drawn):
    data, cuts = drawn
    root = tmp_path_factory.mktemp("cut")
    corpus = root / "corpus.jsonl"
    corpus.write_bytes(data)
    runs = []
    for offsets in ([], cuts):
        with (mock.patch.object(corpus_module, "_cuts", lambda path: [0, *offsets, len(data)]),
              mock.patch.object(corpus_module, "_in_processes", in_process)):
            runs.append(merged_results(corpus, models["mnnb"], root / f"out{len(offsets)}"))
    assert runs[1] == runs[0]
