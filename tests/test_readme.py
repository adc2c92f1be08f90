"""The README's library quickstart and command-line block run as written."""

import re
import shlex
from pathlib import Path

import dce
from dce.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    assert namespace["result"].converged
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(namespace["report"].entries)


def test_command_line_block_runs(tmp_path, monkeypatch):
    # every `dce ...` line of the block, its comments dropped and its
    # backslash continuations joined, from a directory that sees the
    # shipped schemas and fixtures under their relative paths
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [argv for line in block.replace("\\\n", " ").splitlines()
                if (argv := shlex.split(line, comments=True))]
    assert [argv[:2] for argv in commands] == [
        ["dce", "design"], ["dce", "simulate"], ["dce", "estimate"], ["dce", "estimate"],
        ["dce", "postest"], ["dce", "postest"], ["dce", "postest"]]
    for name in ("schemas", "fixtures"):
        (tmp_path / name).symlink_to(ROOT / name)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, shlex.join(argv)
    for name in ("design.csv", "choices.csv", "mnl.json", "mmnl.json", "grid.csv"):
        assert (tmp_path / name).is_file(), name


def test_public_name_count_is_the_packages():
    stated = re.search(r"`dce\.__all__` holds the package's (\d+) public names",
                       README.read_text(encoding="utf-8")).group(1)
    assert int(stated) == len(dce.__all__)
