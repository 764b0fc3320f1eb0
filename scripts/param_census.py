"""Defaulted engine parameters that no production caller sets.

Usage:
    python scripts/param_census.py [--repo CHECKOUT] [--list]

A static AST scan; it imports nothing and starts no Ray session. The
engine functions are the module-level functions and the class methods of
`dygiepp_ray/` (`oracle.py` excluded: it is the independent SQL/Python
re-walk). Nested functions are left out: their defaults bind loop or
closure values and Ray calls them, not a caller by name. Production callers
are the engine itself, `__ray_entry__.py`, `scripts/`, `perfbench/` and
`bench.py`; tests are not.

A call counts for every engine function of that name (a bare `name(...)`,
an attribute `obj.name(...)`, or a class name for its `__init__`). It sets
a defaulted parameter when it passes it by keyword or by position (a
method's positions skip `self`); a `*args` call sets every positional
parameter and a `**kwargs` call every one. Calls through references
(`map_batches(fn)`, `getattr`) are invisible, so a parameter listed here
is a candidate for deletion, not a proof.

Prints the totals (defaulted parameters; unset ones; the unset ones on
functions that no production caller calls at all), and with `--list` one
`file:line function(param)` line per unset parameter.
"""

from __future__ import annotations

import argparse
import ast
import os
from collections import defaultdict

ENGINE = "dygiepp_ray"
CALLER_ROOTS = (ENGINE, "__ray_entry__.py", "scripts", "perfbench", "bench.py")


def _py_files(repo: str, rel: str) -> list[str]:
    path = os.path.join(repo, rel)
    if os.path.isfile(path):
        return [rel]
    out = []
    for d, _, names in os.walk(path):
        out += [os.path.relpath(os.path.join(d, n), repo)
                for n in names if n.endswith(".py")]
    return sorted(out)


def _engine_functions(repo: str) -> list[dict]:
    """One record per module-level function or class method."""
    out = []
    for rel in _py_files(repo, ENGINE):
        if os.path.basename(rel) == "oracle.py":
            continue
        with open(os.path.join(repo, rel)) as fh:
            tree = ast.parse(fh.read())
        scopes = [(None, tree.body)]
        scopes += [(n.name, n.body) for n in tree.body
                   if isinstance(n, ast.ClassDef)]
        for cls, body in scopes:
            for fn in body:
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                a = fn.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                if cls is not None and positional[:1] in (["self"], ["cls"]):
                    positional = positional[1:]
                n_pos_defaults = len(a.defaults)
                defaulted = positional[len(positional) - n_pos_defaults:] \
                    if n_pos_defaults else []
                defaulted += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                out.append({"file": rel, "line": fn.lineno, "cls": cls,
                            "name": cls if fn.name == "__init__" else fn.name,
                            "label": f"{cls}.{fn.name}" if cls else fn.name,
                            "positional": positional,
                            "defaulted": defaulted})
    return out


def _calls(repo: str) -> dict[str, list[tuple[int, set, bool, bool]]]:
    """{called name: [(n positional args, keyword names, *args, **kwargs)]}
    over every production caller file."""
    out = defaultdict(list)
    for root in CALLER_ROOTS:
        for rel in _py_files(repo, root):
            with open(os.path.join(repo, rel)) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                if name is None:
                    continue
                star = any(isinstance(a, ast.Starred) for a in node.args)
                n_pos = sum(not isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords if k.arg is not None}
                dstar = any(k.arg is None for k in node.keywords)
                out[name].append((n_pos, kws, star, dstar))
    return out


def census(repo: str) -> dict:
    calls = _calls(repo)
    unset = []
    n_defaulted = 0
    for fn in _engine_functions(repo):
        sites = calls.get(fn["name"], [])
        for param in fn["defaulted"]:
            n_defaulted += 1
            pos = (fn["positional"].index(param)
                   if param in fn["positional"] else None)
            is_set = any(
                dstar or param in kws
                or (pos is not None and (star or n_pos > pos))
                for n_pos, kws, star, dstar in sites)
            if not is_set:
                unset.append({**fn, "param": param, "called": bool(sites)})
    return {"defaulted": n_defaulted, "unset": unset,
            "unset_uncalled": sum(not u["called"] for u in unset)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--repo", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    ap.add_argument("--list", action="store_true",
                    help="print one line per unset parameter")
    args = ap.parse_args()
    res = census(args.repo)
    if args.list:
        for u in res["unset"]:
            mark = "" if u["called"] else "  [no production call]"
            print(f"{u['file']}:{u['line']} {u['label']}({u['param']}){mark}")
    print(f"defaulted parameters: {res['defaulted']}; "
          f"set by no production caller: {len(res['unset'])}, "
          f"of which on functions no production caller calls: "
          f"{res['unset_uncalled']}")


if __name__ == "__main__":
    main()
