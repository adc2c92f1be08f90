"""The README's library quickstart runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quickstart_runs(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    exec(compile(code, "README.md quickstart", "exec"), namespace)
    assert namespace["result"].converged
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(namespace["report"].entries)
