"""The scenario registry is complete, and is the only list.

``repro.scenarios`` is what ``python -m repro`` builds its family
subcommands from and what ``trace``/``explain``/``profile`` resolve
names through.  These tests hold the table to today's scenario set, pin
the three shared bare names to their owners, and drive ``run_family``
through the behaviours that differ between families.
"""

from __future__ import annotations

import argparse
import sys
import types
from importlib import import_module
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.scenarios import FAMILIES, Family, run_family, table

#: family -> scenario names, in name-resolution order.
EXPECTED = {
    "trace": {"quickstart", "newscast", "contention", "faults", "overload",
              "cluster", "cache", "herd", "query"},
    "faults": {"disk-outage", "lossy-channel", "crash-recovery",
               "degraded-session"},
    "overload": {"surge", "priority-mix", "device-outage"},
    "watch": {"leak", "node-kill", "slo-burn", "cache-crowd"},
    "cluster": {"read-storm", "node-kill", "rebalance"},
    "cache": {"zipf-crowd", "churn"},
    "soak": {"day"},
    "herd": {"surge", "flash", "day"},
    "query": {"speech", "dance", "planner"},
}


class TestTable:
    def test_every_scenarios_module_is_reached(self):
        reached = {id(family.scenarios()) for family in FAMILIES.values()}
        modules = sorted(Path(repro.__file__).parent.glob("*/scenarios.py"))
        assert len(modules) == len(FAMILIES)
        for path in modules:
            module = import_module(f"repro.{path.parent.name}.scenarios")
            assert id(module.SCENARIOS) in reached, path

    def test_holds_exactly_todays_names(self):
        assert list(FAMILIES) == list(EXPECTED)
        names = table()
        rows = {(s.family.name, s.name) for s in names.values()}
        assert rows == {(family, name) for family, members in EXPECTED.items()
                        for name in members}
        assert len(rows) == 32
        bare = set().union(*EXPECTED.values())
        qualified = {f"{family}-{name}" for family, name in rows}
        assert not bare & qualified
        assert set(names) == bare | qualified
        for family, name in rows:
            scenario = names[f"{family}-{name}"]
            assert (scenario.family.name, scenario.name) == (family, name)
            assert scenario.fn is FAMILIES[family].scenarios()[name]

    def test_shared_bare_names_have_one_owner(self):
        owners = {}
        for family, members in EXPECTED.items():
            for name in members:
                owners.setdefault(name, []).append(family)
        shared = {name: families for name, families in owners.items()
                  if len(families) > 1}
        assert shared == {"surge": ["overload", "herd"],
                          "day": ["soak", "herd"],
                          "node-kill": ["watch", "cluster"]}
        names = table()
        for name, families in owners.items():
            assert names[name].family.name == families[0]

    def test_profile_resolves_through_the_table(self):
        names = table()
        assert names["node-kill"].family.name == "watch"
        assert names["cluster-node-kill"].family.name == "cluster"
        assert names["herd-surge"].family.name == "herd"

    def test_presets_name_real_scenarios(self):
        for family in FAMILIES.values():
            if family.preset is not None:
                assert family.preset[0] in family.scenarios()
                assert family.name in EXPECTED["trace"]

    def test_tracing_is_per_family(self):
        assert FAMILIES["watch"].tracing
        assert not FAMILIES["query"].tracing
        assert not FAMILIES["soak"].tracing


class TestReachGate:
    """``tools/check_reach.py``'s verdicts on a synthetic tree; nothing is run."""

    @pytest.fixture(scope="class")
    def check_reach(self):
        path = Path(__file__).parents[1] / "tools" / "check_reach.py"
        spec = spec_from_file_location("check_reach", path)
        module = module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    @pytest.fixture
    def reach(self, check_reach, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("")
        live = package / "live.py"
        live.write_text(
            "import abc\n"
            "class Used:\n"
            "    @property\n"               # line 3 is co_firstlineno
            "    def run(self):\n"
            "        return 1\n"
            "class Unused:\n"
            "    def run(self):\n"
            "        return 2\n"
            "class Interface(abc.ABC):\n"
            "    @abc.abstractmethod\n"
            "    def run(self): ...\n"
            "    def also(self):\n"
            "        raise NotImplementedError\n"
            "def helper():\n"
            "    return 3\n"
            "class Pair:\n"
            "    def used(self):\n"         # line 17
            "        return 5\n"
            "    def idle(self):\n"
            "        return 6\n")
        (package / "dead.py").write_text(
            "class Inside:\n"
            "    def run(self):\n"
            "        return 4\n")
        tree = check_reach.parse_tree(tmp_path)
        return check_reach.measure(tree, {(str(live), 3), (str(live), 17)},
                                   set())

    def test_what_counts_as_unreached(self, reach):
        assert reach.modules == ["repro.dead"]
        # Not Interface (declarations only), not Inside (its module is listed).
        assert reach.classes == ["repro.live.Unused"]
        assert reach.functions == ["repro.live.Pair.idle", "repro.live.helper"]
        # Six statements, all in functions no driver ran past the entry.
        assert reach.packages == [("repro", 23, 13, 8, 6, 0, 6)]
        assert {"repro", "repro.live.Interface", "repro.dead.Inside",
                "repro.live.Pair.used", "repro.live.helper"} <= reach.known

    def test_three_verdicts(self, check_reach, reach, tmp_path):
        unreached = (set(reach.modules) | set(reach.classes)
                     | set(reach.functions))
        keep = {"repro.dead": "kept", "repro.live.Unused": "kept",
                "repro.live.helper": "kept", "repro.live.Pair.idle": "kept"}

        def problems(keep):
            return check_reach.verdicts(unreached, reach.known, keep)

        def read(line):
            path = tmp_path / "keep.txt"
            path.write_text(f"# a comment\n\n{line}\n")
            return check_reach.read_keep(path)

        assert problems(keep) == []
        [unlisted] = problems({"repro.dead": "kept",
                               "repro.live.helper": "kept",
                               "repro.live.Pair.idle": "kept"})
        assert unlisted.startswith("repro.live.Unused: never entered")
        [stale] = problems({**keep, "repro.live.Used": "kept"})
        assert stale.startswith("repro.live.Used:") and "reached" in stale
        [nothing] = problems({**keep, "repro.gone.Thing": "kept"})
        assert nothing.startswith("repro.gone.Thing:") \
            and "no such module, class or function" in nothing
        # Functions: an unreached one that is not kept fails.
        [function] = problems({k: v for k, v in keep.items()
                               if k != "repro.live.helper"})
        assert function.startswith("repro.live.helper: never entered")
        # A brace line names each member, and each is checked on its own.
        assert read("repro.live.Pair.{idle}  kept") == {
            "repro.live.Pair.idle": "kept"}
        braced = read("repro.live.Pair.{idle,used}  kept")
        [stale] = problems({**keep, **braced})
        assert stale.startswith("repro.live.Pair.used:") and "reached" in stale
        [nothing] = problems({**keep, **read("repro.live.Pair.{idle,gone}  kept")})
        assert nothing.startswith("repro.live.Pair.gone:") \
            and "no such module, class or function" in nothing

    def test_statement_classes_and_ceilings(self, check_reach, tmp_path):
        package = tmp_path / "repro"
        package.mkdir()
        (package / "__init__.py").write_text("")
        path = package / "lines.py"
        path.write_text(
            "def work(flag, mode):\n"      # 1
            "    total = (flag +\n"        # 2: one statement, two lines
            "             mode)\n"         # 3
            "    if flag:\n"               # 4
            "        total += 10\n"        # 5: drivers only
            "    elif mode:\n"             # 6: tier-1 only
            "        total += 20\n"        # 7: tier-1 only
            "    else:\n"
            "        raise ValueError(\n"  # 9: nothing, a raise
            "            'neither')\n"
            "    def inner():\n"           # 11: the header runs
            "        return total\n"       # 12: nothing
            "    return total + 1\n")      # 13
        tree = check_reach.parse_tree(tmp_path)
        [two_lines] = [s for s in tree.statements if s.line == 2]
        assert two_lines.lines == {2, 3}

        def lines(*numbers):
            return {(str(path), n) for n in numbers}

        # The drivers trace only line 3 of the two-line statement.
        reach = check_reach.measure(tree, lines(1, 3, 4, 5, 11, 13),
                                    lines(1, 2, 3, 4, 6, 7, 13))
        assert [(s.line, s.function.name, s.is_raise)
                for s in reach.tier1_only] == [(6, "work", False),
                                               (7, "work", False)]
        assert [(s.line, s.function.name, s.is_raise)
                for s in reach.nothing] == [(9, "work", True),
                                            (12, "work.inner", False)]
        # inner's entry is its header line, which work ran: a nested
        # function (never gated) counts as entered where it is defined.
        assert reach.packages == [("repro", 13, 13, 0, 9, 2, 2)]
        ceilings = check_reach.ceilings
        assert ceilings(reach, nothing=1, tier1_only=2) == ([], [])
        [over], lower = ceilings(reach, nothing=0, tier1_only=2)
        assert "NOTHING_CEILING = 0" in over and lower == []
        assert ceilings(reach, nothing=4, tier1_only=3) == ([], [
            "NOTHING_CEILING can drop to 1",
            "TIER1_ONLY_CEILING can drop to 2"])

    def test_every_kept_name_exists_and_cites_the_paper_or_the_design(
            self, check_reach):
        keep = check_reach.read_keep()
        tree = check_reach.parse_tree()
        functions = {f"{f.module}.{f.name}" for f in tree.functions.values()}
        assert set(keep) <= set(tree.lines) | set(tree.classes) | functions
        for name, reason in keep.items():
            assert ("DESIGN.md §" in reason or "PAPER.md" in reason
                    or "ROADMAP.md item" in reason), name
            assert "test" not in reason.lower(), name


class TestRunFamily:
    """One handler, driven through a stub package."""

    @pytest.fixture
    def stub(self, monkeypatch):
        seen = []

        def plain(seed=0):
            seen.append(("plain", seed))
            return {"b": 2, "a": 1}

        def passing(seed=0):
            seen.append(("passing", seed))
            return {"ok": True}

        module = types.SimpleNamespace(
            SCENARIOS={"plain": plain, "passing": passing})
        monkeypatch.setitem(sys.modules, "stub_family", module)
        return module, seen

    @staticmethod
    def _args(**options):
        return argparse.Namespace(**{"scenario": "all", "seed": 3, **options})

    def test_no_summary_line_and_no_exit_fact(self, stub, capsys):
        family = Family("stub", "stub_family", "plain")
        assert run_family(family, self._args(scenario="plain")) == 0
        assert capsys.readouterr().out == (
            "scenario 'plain' (seed 3):\n  b = 2\n  a = 1\n")

    def test_exit_fact_counts_only_when_present_and_false(self, stub, capsys):
        module, seen = stub
        module.summary_line = lambda name, facts: f"stub {name}: {len(facts)}"
        family = Family("stub", "stub_family", "plain", exit_fact="ok")
        assert run_family(family, self._args(scenario="plain")) == 0
        assert run_family(family, self._args(scenario="passing")) == 0
        assert "stub passing: 1\n" in capsys.readouterr().out
        module.SCENARIOS["failing"] = lambda seed=0: {"ok": False}
        assert run_family(family, self._args()) == 1
        assert seen[-2:] == [("passing", 3), ("plain", 3)]

    def test_unknown_name_exits_2(self, stub, capsys):
        family = Family("stub", "stub_family", "plain")
        assert run_family(family, self._args(scenario="nope")) == 2
        assert ("unknown stub scenario 'nope'; pick one of: passing, plain, "
                "all") in capsys.readouterr().err


class TestCLI:
    @pytest.mark.parametrize("command", [
        "cluster read-storm --nodes 0",
        "herd surge --clients -5",
        "soak day --scale 0",
        "soak search --chaos-seeds 0",
    ])
    def test_out_of_domain_numbers_are_usage_errors(self, command, capsys):
        with pytest.raises(SystemExit) as refused:
            main(command.split())
        assert refused.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >" in err

    @pytest.mark.parametrize("flag", ["--no-cache", "--compare"])
    def test_cache_churn_has_no_cacheless_run(self, flag, capsys):
        assert main(["cache", "churn", flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "drop --no-cache/--compare" in captured.err
