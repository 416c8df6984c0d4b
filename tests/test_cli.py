import collections
import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

import weylab
from weylab.cli import (_CONVERTERS, CSV_HEADER, Scenario, bundled_scenarios,
                        list_registry, main, parse_scenarios)
from weylab.core import ScenarioError
from weylab.systems import orbits


def _read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_parse_scenarios_minimal():
    scs = parse_scenarios(
        "[scenario:alpha]\n"
        "operation = estimate\n"
        "system = odometer\n"
        "pair = int:0 | int:5\n"
        "max_exponent = 3\n"
        "kinds = weyl, hat\n")
    assert len(scs) == 1
    sc = scs[0]
    assert sc.name == "alpha" and sc.operation == "estimate"
    assert sc.pairs == (("int:0", "int:5"),)
    assert sc.kinds == ("weyl", "hat")
    assert sc.seed is None and sc.lo_exponent is None


def test_parse_scenarios_rejects_unknowns():
    with pytest.raises(ScenarioError):
        parse_scenarios("[scenario:x]\noperation = transmogrify\n")
    with pytest.raises(ScenarioError):
        parse_scenarios("[scenario:x]\noperation = estimate\nwobble = 3\n")
    with pytest.raises(ScenarioError):
        parse_scenarios("[other:x]\noperation = estimate\n")
    with pytest.raises(ScenarioError):
        parse_scenarios("[scenario:x]\noperation = estimate\n"
                        "pair = int:0 | int:1\npairs = int:0 | int:1\n")
    with pytest.raises(ScenarioError):
        parse_scenarios("[scenario:x]\noperation = estimate\n"
                        "pair = int:0\n")


def test_parse_tolerances_key():
    scs = parse_scenarios(
        "[scenario:t]\noperation = estimate\nsystem = odometer\n"
        "pair = int:0 | int:1\nmax_exponent = 2\n"
        "tolerances = zero=0.02 sep=0.2 ratio=0.5\n")
    tol = scs[0].tolerances
    assert (tol.zero_tol, tol.sep_tol, tol.delta_ratio) == (0.02, 0.2, 0.5)
    with pytest.raises(ScenarioError):
        parse_scenarios("[scenario:t]\noperation = estimate\n"
                        "tolerances = fuzz=1\n")


def test_list_command_contents():
    text = list_registry()
    assert "thuemorse" in text
    assert "tm.pi" in text
    assert main(["list"]) == 0


def test_python_dash_m_runs_the_command_line():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylab.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    done = subprocess.run([sys.executable, "-m", "weylab", "list"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "shells62" in done.stdout and "shells-meq" in done.stdout


def test_registry_listing_is_sorted():
    text = list_registry()
    lines = text.splitlines()
    sys_block = lines[lines.index("systems:") + 1:lines.index("factor maps:")]
    ids = [ln.split()[0] for ln in sys_block]
    assert ids == sorted(ids)
    fac_block = lines[lines.index("factor maps:") + 1:
                      lines.index("bundled scenarios:")]
    fids = [ln.split()[0] for ln in fac_block]
    assert fids == sorted(fids)
    assert list(bundled_scenarios()) == sorted(bundled_scenarios())


def test_run_bundled_tm_fibre(tmp_path):
    out = tmp_path / "a"
    assert main(["run", "tm-fibre-D", "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    assert rows[0] == list(CSV_HEADER)
    weyl_rows = [r for r in rows[1:] if r[4] == "weyl"]
    assert weyl_rows[-1][5] == "1.0"  # final weyl value
    assert all(r[5] == "1.0" for r in weyl_rows)
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["tm-fibre-D"]["pairs"]["p000"]["weyl"] == 1.0


def test_run_is_bit_identical_across_runs(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "tm-fibre-D", "--out", str(out1)]) == 0
    assert main(["run", "tm-fibre-D", "--out", str(out2), "--threads",
                 "3"]) == 0
    assert (out1 / "results.csv").read_bytes() \
        == (out2 / "results.csv").read_bytes()
    assert (out1 / "verdicts.json").read_bytes() \
        == (out2 / "verdicts.json").read_bytes()


def test_run_bundled_interval_weyl(tmp_path):
    out = tmp_path / "b"
    assert main(["run", "ex61-weyl", "--out", str(out)]) == 0
    rows = _read_csv(out / "results.csv")
    final = [r for r in rows[1:] if r[4] == "weyl"][-1]
    assert abs(float(final[5]) - 2 / 3) <= 0.05 * (2 / 3)


def test_empty_scenario_file_is_a_clean_noop(tmp_path):
    path = tmp_path / "empty.ini"
    path.write_text("# no scenarios here\n")
    out = tmp_path / "never"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert not out.exists()


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.ini")]) == 1
    assert main(["frobnicate"]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario:x]\noperation = estimate\nbogus = 1\n")
    assert main(["run", str(bad)]) == 1
    unparseable = tmp_path / "broken.ini"
    unparseable.write_text("not an ini file at all\n")
    assert main(["run", str(unparseable)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("kinds,message", [
    ("weyl frobnicate", "unknown estimate kind"),
    ("weyl banach-density", "needs an eps key"),
    ("banach-density\neps = 0", "needs an eps key"),
    ("banach-density\neps = nan", "needs an eps key"),
])
def test_estimate_rejects_bad_kinds_before_any_build(tmp_path, capsys,
                                                     count_builds, kinds,
                                                     message):
    counts = count_builds("toeplitz")
    path = tmp_path / "bad.ini"
    path.write_text(
        "[scenario:bad]\noperation = estimate\nsystem = toeplitz\n"
        "pair = addr=int:1 flag=plain | addr=int:1 flag=primed\n"
        "max_exponent = 4\nkinds = %s\n" % kinds)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not counts and not out.exists()


def test_every_scenario_field_has_a_converter():
    # 'pair' is the one-pair spelling of the pairs field
    fields = {f.name for f in dataclasses.fields(Scenario)}
    assert set(_CONVERTERS) == fields - {"name"} | {"pair"}


def _estimate(system, pair, extra=""):
    return ("operation = estimate\nsystem = %s\npair = %s\n"
            "max_exponent = 2\nkinds = weyl\n%s" % (system, pair, extra))


_SAMPLED = ("operation = classify\nfactor = tm.psi\nmax_exponent = 4\n"
            "count = 2\nsequences = 1\n")
_LANGUAGE = ("operation = language-check\nsystem = toeplitz\n"
             "point = addr=int:0\nradius = 4096\n")

# (scenario body, extra command-line arguments); every keyed point literal
# is tried with a missing key, an unknown key and a token without '='
# (shellbase62 has one key, so a literal without it has an unknown key)
_BAD_INPUTS = {
    "shells62-missing": (_estimate("shells62", "t=0.5 | level=1 t=0.5"), ()),
    "shells62-unknown": (_estimate("shells62", "level=1 t=0.5 spin=2 | "
                                               "level=1 t=0.5"), ()),
    "shells62-no-eq": (_estimate("shells62", "level=1 t=0.5 off | "
                                             "level=1 t=0.5"), ()),
    "shells62-infinite-t": (_estimate("shells62", "level=1 t=inf | "
                                                  "level=1 t=0.5"), ()),
    "shellbase62-unknown": (_estimate("shellbase62", "level=2 t=1 | level=2"),
                            ()),
    "shellbase62-no-eq": (_estimate("shellbase62", "level=2 x | level=2"), ()),
    "shellbase62-level-0": (_estimate("shellbase62", "level=0 | level=2"), ()),
    "interval61-missing": (_estimate("interval61", "branch=hat | y=0.3"), ()),
    "interval61-unknown": (_estimate("interval61", "y=0.3 z=1 | y=0.3"), ()),
    "interval61-no-eq": (_estimate("interval61", "y=0.3 hat | y=0.3"), ()),
    "sturmian-missing": (_estimate("sturmian", "side=upper | orbit=0"), ()),
    "sturmian-unknown": (_estimate("sturmian", "orbit=0 k=1 | orbit=0"), ()),
    "sturmian-no-eq": (_estimate("sturmian", "orbit=0 upper | orbit=0"), ()),
    "toeplitz-missing": (_estimate("toeplitz", "flag=plain | addr=int:0"), ()),
    "toeplitz-unknown": (_estimate("toeplitz", "addr=int:0 bit=1 | "
                                               "addr=int:0"), ()),
    "toeplitz-no-eq": (_estimate("toeplitz", "addr=int:0 primed | "
                                             "addr=int:0"), ()),
    "toeplitz-bad-addr": (_estimate("toeplitz", "addr=int:zz | addr=int:0"),
                          ()),
    "thuemorse-missing": (_estimate("thuemorse", "bit=1 | addr=int:0"), ()),
    "thuemorse-unknown": (_estimate("thuemorse", "addr=int:0 side=upper | "
                                                 "addr=int:0"), ()),
    "thuemorse-no-eq": (_estimate("thuemorse", "addr=int:0 1 | addr=int:0"),
                        ()),
    "odometer-zero-denominator": (_estimate("odometer", "frac:1/0 | int:0"),
                                  ()),
    "language-point": (_LANGUAGE.replace("addr=int:0", "addr=int:0 bit=1"),
                       ()),
    "lo-above-max": (_estimate("odometer", "int:0 | int:1",
                               "lo_exponent = 3\n"), ()),
    "family-sideways": (_estimate("odometer", "int:0 | int:1",
                                  "family = sideways\n"), ()),
    "max-exponent-0": (_estimate("odometer", "int:0 | int:1")
                       .replace("max_exponent = 2", "max_exponent = 0"), ()),
    "kinds-empty": (_estimate("odometer", "int:0 | int:1")
                    .replace("kinds = weyl", "kinds ="), ()),
    "seed-negative": (_SAMPLED + "seed = -1\n", ()),
    "seed-flag-negative": (_SAMPLED + "seed = 3\n", ("--seed", "-1")),
    "word-length-80": (_LANGUAGE + "max_word_length = 80\n", ()),
    "word-length-0": (_LANGUAGE + "max_word_length = 0\n", ()),
    "count-negative": (_SAMPLED.replace("count = 2", "count = -1")
                       + "seed = 3\n", ()),
    "sequences-0": (_SAMPLED.replace("sequences = 1", "sequences = 0")
                    + "seed = 3\n", ()),
    "tolerances-zero-above-sep": (_SAMPLED + "seed = 3\n"
                                  "tolerances = zero=0.5 sep=0.1\n", ()),
}


@pytest.mark.parametrize("body,extra", _BAD_INPUTS.values(),
                         ids=_BAD_INPUTS.keys())
def test_bad_input_is_a_usage_error(tmp_path, capsys, body, extra):
    path = tmp_path / "bad.ini"
    path.write_text("[scenario:bad]\n" + body)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out), *extra]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: scenario 'bad': ")
    assert not out.exists()


def test_seed_is_mandatory_for_sampled_operations(tmp_path, capsys):
    path = tmp_path / "s.ini"
    path.write_text("[scenario:x]\noperation = classify\nfactor = tm.psi\n"
                    "max_exponent = 6\n")
    assert main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert "seed is mandatory" in err
    # --seed on the command line satisfies the requirement
    out = tmp_path / "o"
    assert main(["run", str(path), "--seed", "4", "--out", str(out)]) == 0


def test_verdict_failure_exits_two(tmp_path):
    path = tmp_path / "fail.ini"
    path.write_text(
        "[scenario:gamma-plain]\n"
        "operation = language-check\n"
        "system = toeplitz\n"
        "point = addr=int:0 flag=plain\n"
        "radius = 64\n"
        "max_word_length = 2\n"
        "substitution = period-doubling\n"
        "exchanged = no\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert verdicts["gamma-plain"]["passed"] is False
    assert verdicts["gamma-plain"]["fractions"]["2"] < 1.0


def test_language_check_passes_with_exchange(tmp_path):
    path = tmp_path / "ok.ini"
    path.write_text(
        "[scenario:gamma-exchanged]\n"
        "operation = language-check\n"
        "system = toeplitz\n"
        "point = addr=int:0 flag=plain\n"
        "radius = 4096\n"
        "max_word_length = 6\n"
        "substitution = period-doubling\n"
        "exchanged = yes\n"
        "out = gamma.csv\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 0
    own = _read_csv(out / "gamma.csv")
    assert own[0] == list(CSV_HEADER)
    assert len(own) == 7  # header + one row per word length
    assert all(r[5] == "1.0" for r in own[1:])


def test_stdout_mode_prints_csv_then_json(tmp_path, capsys):
    path = tmp_path / "tiny.ini"
    path.write_text("[scenario:tiny]\noperation = estimate\n"
                    "system = odometer\npair = int:0 | int:1\n"
                    "max_exponent = 2\nkinds = besicovitch\n")
    assert main(["run", str(path)]) == 0
    outtext = capsys.readouterr().out
    assert outtext.startswith(",".join(CSV_HEADER))
    assert '"tiny"' in outtext


# byte-identity baseline: first 16 hex digits of the sha256 of results.csv
# followed by verdicts.json, for each bundled scenario
BASELINE_DIGESTS = {
    "ex61-weyl": "68b17bfc5977d8a5",
    "pd-language": "c88e68b6a7ff3f45",
    "shells-meq": "d2c79f470f6247f0",
    "sturmian-decomposition": "a2af97aa045024ed",
    "tm-chain-classify": "10c18c95277abb87",
    "tm-chain-decomposition-fail": "9537b6b2b5f418a5",
    "tm-fibre-D": "3e6921c729138b5f",
}


@pytest.mark.parametrize("name,threads,cpus",
                         [pytest.param(name, 1, None, id="%s-1" % name)
                          for name in BASELINE_DIGESTS]
                         + [pytest.param("tm-fibre-D", 2, None, id="tm-fibre-D-2"),
                            pytest.param("shells-meq", 1, 1, id="shells-meq-1-one-cpu")])
def test_bundled_scenarios_reproduce_baseline_digests(tmp_path, monkeypatch, name,
                                                      threads, cpus):
    if cpus is not None:  # every orbit walked on that many CPUs
        monkeypatch.setattr(orbits, "usable_cpus", lambda: cpus)
    out = tmp_path / "out"
    code = main(["run", name, "--out", str(out), "--threads", str(threads)])
    assert code == (2 if name == "tm-chain-decomposition-fail" else 0)
    data = (out / "results.csv").read_bytes() \
        + (out / "verdicts.json").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == BASELINE_DIGESTS[name]


# banach-density bytes, which no bundled scenario writes: all five kinds on
# Toeplitz fibres (runs), a dense sturm.pi pair (about one run a sample)
# and a shell pair (floats) at eps = 0.25, and the other dense sturm.pi
# pair at eps = 0.75, where its worst translates move
DENSITY_SCENARIOS = """
[scenario:fibres]
operation = estimate
system = toeplitz
pairs =
    addr=int:7 flag=plain | addr=int:7 flag=primed
    addr=int:-13 flag=plain | addr=int:-13 flag=primed
    addr=int:0 flag=plain | addr=int:0 flag=primed
lo_exponent = 8
max_exponent = 13
kinds = besicovitch weyl check hat banach-density
eps = 0.25

[scenario:sturm]
operation = estimate
system = sturmian
pair = orbit=62 side=upper | orbit=64 side=upper
lo_exponent = 8
max_exponent = 13
kinds = besicovitch weyl check hat banach-density
eps = 0.25

[scenario:shells]
operation = estimate
system = shells62
pair = level=1 t=0.3 | level=1 t=4.0
lo_exponent = 8
max_exponent = 13
kinds = besicovitch weyl check hat banach-density
eps = 0.25

[scenario:sturm-eps]
operation = estimate
system = sturmian
pair = orbit=0 side=upper | orbit=1 side=upper
lo_exponent = 8
max_exponent = 13
kinds = banach-density
eps = 0.75
"""


def test_banach_density_scenario_reproduces_its_digest(tmp_path):
    path = tmp_path / "density.ini"
    path.write_text(DENSITY_SCENARIOS)
    out = tmp_path / "out"
    assert main(["run", str(path), "--out", str(out)]) == 0
    data = (out / "results.csv").read_bytes() \
        + (out / "verdicts.json").read_bytes()
    assert hashlib.sha256(data).hexdigest()[:16] == "8d814f55daf01ac9"


def test_estimate_builds_one_profile_per_pair_for_all_kinds(tmp_path,
                                                            count_builds):
    counts = count_builds("toeplitz")
    path = tmp_path / "five.ini"
    path.write_text(
        "[scenario:five]\n"
        "operation = estimate\n"
        "system = toeplitz\n"
        "pairs =\n"
        "    addr=int:1 flag=plain | addr=int:1 flag=primed\n"
        "    addr=int:-6 flag=plain | addr=int:-6 flag=primed\n"
        "    addr=int:0 flag=plain | addr=int:5 flag=plain\n"
        "max_exponent = 8\n"
        "kinds = besicovitch weyl check hat banach-density\n"
        "eps = 0.01\n")
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 0
    assert len(counts) == 3 and set(counts.values()) == {1}
    pairs = json.loads((out / "verdicts.json").read_text())["five"]["pairs"]
    assert all({"besicovitch", "weyl", "check", "hat", "banach-density"}
               <= set(entry) for entry in pairs.values())


def test_scenarios_on_one_schedule_share_one_memo(tmp_path, count_builds):
    # tm.phi and tm.pi both sample thuemorse complement pairs; on one
    # schedule the run estimates each unordered pair once, in either order
    counts = count_builds("thuemorse")
    body = "factor = %s\nlo_exponent = 4\nmax_exponent = 6\nseed = 3\n"
    path = tmp_path / "chain.ini"
    path.write_text("".join(
        "[scenario:%s]\noperation = classify\n" % name + body % name
        for name in ("tm.phi", "tm.pi")))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    unordered = collections.Counter()
    for (p, q), n in counts.items():
        unordered[frozenset((p, q))] += n
    assert unordered and set(unordered.values()) == {1}


def test_scenarios_on_nested_schedules_share_one_memo(tmp_path,
                                                      count_builds):
    # the second scenario's windows are among the first's, so the run's one
    # memo serves its pairs without a build
    counts = count_builds("thuemorse")
    path = tmp_path / "chain.ini"
    path.write_text("".join(
        "[scenario:%s]\noperation = classify\nfactor = %s\n"
        "lo_exponent = %d\nmax_exponent = 6\nseed = 3\n" % (name, name, lo)
        for name, lo in (("tm.phi", 4), ("tm.pi", 5))))
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    unordered = collections.Counter()
    for (p, q), n in counts.items():
        unordered[frozenset((p, q))] += n
    assert unordered and set(unordered.values()) == {1}


@pytest.mark.parametrize("operation, draws", [
    ("test-M", {"pairs": 1, "sequences": 1}),
    ("test-meq", {"sequences": 1}),
])
def test_sequence_tests_draw_once(tmp_path, monkeypatch, operation, draws):
    from weylab import core

    fm, calls = core.get_factor("tm.pi"), collections.Counter()

    def counted(name, sampler):
        def draw(seed, count):
            calls[name] += 1
            return sampler(seed, count)
        return draw

    monkeypatch.setitem(core._FACTORS, "tm.pi", dataclasses.replace(
        fm, pair_sampler=counted("pairs", fm.pair_sampler),
        sequence_sampler=counted("sequences", fm.sequence_sampler)))
    path = tmp_path / "draw.ini"
    path.write_text("[scenario:draw]\noperation = %s\nfactor = tm.pi\n"
                    "lo_exponent = 4\nmax_exponent = 6\nseed = 3\n" % operation)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 0
    assert calls == draws
    assert len(_read_csv(tmp_path / "o" / "results.csv")) > 1
