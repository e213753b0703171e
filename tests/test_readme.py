"""The README's quick start runs as written and prints what it shows."""

import re
import shlex
from pathlib import Path

from ipdkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start(text):
    """The README's sh blocks as steps: ("run", argv, expected stdout lines
    from the `# ` comments under the command) or ("write", path, text) for
    a heredoc. Lines ending in a backslash are joined to the next."""
    steps = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        lines = iter(block.replace("\\\n", " ").splitlines())
        expected = None  # the stdout lines of the command just read
        for line in lines:
            if line.startswith("# ") and expected is not None:
                expected.append(line[2:])
                continue
            expected = None
            if heredoc := re.fullmatch(r"cat > (\S+) <<'(\w+)'", line):
                path, end = heredoc.groups()
                body = "".join(f"{body_line}\n" for body_line in iter(lines.__next__, end))
                steps.append(("write", path, body))
            elif line.startswith("ipdkit "):
                expected = []
                steps.append(("run", shlex.split(line)[1:], expected))
    return steps


def test_readme_quick_start_runs_and_prints_what_it_shows(tmp_path, capsys, monkeypatch):
    text = README.read_text(encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    steps = _quick_start(text)
    outputs = {}
    for kind, target, payload in steps:
        if kind == "write":
            Path(target).write_text(payload, encoding="utf-8")
            continue
        code = main(target)
        out, err = capsys.readouterr()
        assert code == 0, (target, err)
        outputs[target[0]] = out
        for expected in payload:
            assert expected in out.splitlines(), (target, expected)
    assert sorted(outputs) == ["crossval", "ipd", "register", "scenegen"]
    assert "IPD 0.300006" in outputs["ipd"].splitlines()
    table = re.search(r"```\n(\| Train\\Eval .*?)```", text, re.S).group(1)
    assert outputs["crossval"] == table
