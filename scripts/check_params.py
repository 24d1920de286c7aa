#!/usr/bin/env python3
"""Fail on *Params / *Config fields that no caller sets.

Usage: check_params.py [repo_root]

Lists every field of every struct named *Params or *Config declared under
src/, then searches the C++ sources under src/, bench/, tests/ and
pipebench/ for an assignment to it outside the header that declares it:
`var.field = ...` (also `->`, compound assignment and nested chains such
as `pc.game.phi_target = ...`, resolved through the declared types of `var` and
of each member on the way) or a designated initializer
`Struct{.field = ...}`. A field no caller ever assigns is a constant in
disguise: make it an `inline constexpr` next to its one use instead.

The "N structs with M fields remain" sentence in docs/ARCHITECTURE.md
must state the counts found here, so the documented surface cannot drift
from the code.

Offline and build-free: plain regular expressions over comment- and
string-stripped sources. Exit code 1 lists the unset fields or the stale
sentence; 0 means every field has a setter and the sentence is current.
"""
import os
import re
import sys

SCAN_DIRS = ("src", "bench", "tests", "pipebench")
SUFFIXES = (".hpp", ".cpp", ".h")
STRUCT = re.compile(r"\bstruct\s+(\w+(?:Params|Config))\s*\{")
NOISE = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])'", re.S)
IDENT = re.compile(r"[A-Za-z_]\w*")
ASSIGN = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)((?:\s*(?:\.|->)\s*[A-Za-z_]\w*)+)"
    r"\s*(?:<<|>>|[-+*/%|&^])?=(?!=)")
DESIGNATED = re.compile(r"\.\s*([A-Za-z_]\w*)\s*=(?!=)")
DOC = os.path.join("docs", "ARCHITECTURE.md")
DOC_COUNT = re.compile(r"(\d+)\s+structs\s+with\s+(\d+)\s+fields\s+remain")


def strip_noise(text):
    """Blank comments and literals, keeping line numbers intact."""
    return NOISE.sub(lambda m: "\n" * m.group(0).count("\n") + " ", text)


def matching_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text)


def body_statements(body):
    """Top-level statements of a struct body; member-function bodies and
    nested types are dropped."""
    stmts, cur, i = [], [], 0
    while i < len(body):
        ch = body[i]
        if ch == "{":
            end = matching_brace(body, i)
            head = "".join(cur)
            nested = re.search(r"\b(struct|enum|union)\b", head)
            if "(" in head.split("=")[0] or nested:
                cur = []  # function body or nested type: not a field
            else:
                cur.append(body[i:end + 1])  # brace initializer
            i = end + 1
            continue
        if ch == ";":
            stmts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(ch)
        i += 1
    return [s for s in stmts if s]


def parse_fields(stmt):
    """(type, names) of a data-member declaration, or None."""
    if re.match(r"(static|using|friend|typedef|enum|struct)\b", stmt):
        return None
    decl = re.split(r"=|\{", stmt, maxsplit=1)[0]
    if "(" in decl or ":" in decl.replace("::", ""):
        return None  # function, bit-field or access specifier
    parts = [p.strip() for p in decl.split(",")]
    names = IDENT.findall(parts[0])
    if len(names) < 2:
        return None
    type_text = parts[0][: parts[0].rfind(names[-1])].strip()
    fields = [names[-1]] + [IDENT.findall(p)[-1] for p in parts[1:]
                            if IDENT.findall(p)]
    return type_text, fields


def collect_structs(root):
    structs = {}  # name -> {"header", "line", "fields": [(field, type)]}
    src = os.path.join(root, "src")
    for path in sorted(source_files(src)):
        text = strip_noise(open(path, encoding="utf-8").read())
        for m in STRUCT.finditer(text):
            open_pos = m.end() - 1
            body = text[open_pos + 1: matching_brace(text, open_pos)]
            fields = []
            for stmt in body_statements(body):
                parsed = parse_fields(stmt)
                if parsed is None:
                    continue
                type_text, names = parsed
                base = type_text.split("::")[-1].strip(" &*")
                fields.extend((name, base) for name in names)
            structs[m.group(1)] = {
                "header": os.path.relpath(path, root),
                "line": text.count("\n", 0, m.start()) + 1,
                "fields": fields,
            }
    return structs


def source_files(top):
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = [d for d in dirnames if not d.startswith(("build", "."))]
        for name in filenames:
            if name.endswith(SUFFIXES):
                yield os.path.join(dirpath, name)


def variable_types(text, structs):
    """Variable name -> set of *Params/*Config types it is declared with."""
    types = {}
    for s in structs:
        decl = re.compile(r"\b" + s + r"\b(?!\s*(?:::|\{|\())\s*"
                          r"(?:const\s*)?[&*]*\s*([A-Za-z_]\w*)")
        for m in decl.finditer(text):
            types.setdefault(m.group(1), set()).add(s)
            # `S a, b;` at statement level declares b as well.
            rest = text[m.end():]
            stop = re.search(r"[;()]", rest)
            if stop and stop.group(0) == ";":
                for extra in re.findall(r",\s*[&*]*\s*([A-Za-z_]\w*)",
                                        rest[: stop.start()]):
                    types.setdefault(extra, set()).add(s)
    return types


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    structs = collect_structs(root)
    member_type = {(s, f): t for s, info in structs.items()
                   for f, t in info["fields"] if t in structs}
    setters = {}  # (struct, field) -> first "file:line" that assigns it

    def note(s, f, rel, text, pos):
        if rel == structs[s]["header"]:
            return
        if f in {name for name, _ in structs[s]["fields"]}:
            setters.setdefault((s, f),
                               "%s:%d" % (rel, text.count("\n", 0, pos) + 1))

    for top in SCAN_DIRS:
        for path in sorted(source_files(os.path.join(root, top))):
            rel = os.path.relpath(path, root)
            text = strip_noise(open(path, encoding="utf-8").read())
            types = variable_types(text, structs)
            for m in ASSIGN.finditer(text):
                chain = re.split(r"\s*(?:\.|->)\s*", m.group(2).strip())[1:]
                for s in types.get(m.group(1), ()):
                    # Writing pc.game.phi_target sets phi_target and, through it, game.
                    for member in chain:
                        if s is None:
                            break
                        note(s, member, rel, text, m.start())
                        s = member_type.get((s, member))
            for s in structs:
                opener = re.compile(r"\b" + s + r"\b\s*(?:[A-Za-z_]\w*\s*)?\{")
                for m in opener.finditer(text):
                    inits = text[m.end() - 1: matching_brace(text, m.end() - 1)]
                    for d in DESIGNATED.finditer(inits):
                        note(s, d.group(1), rel, text, m.start())

    total = unset = 0
    for s in sorted(structs, key=lambda name: structs[name]["header"]):
        info = structs[s]
        print("%s (%s:%d)" % (s, info["header"], info["line"]))
        for f, _ in info["fields"]:
            total += 1
            where = setters.get((s, f))
            if where is None:
                unset += 1
            print("  %-24s %s" % (f, where or "UNSET"))
    print("%d structs, %d fields, %d set outside their header, %d unset"
          % (len(structs), total, total - unset, unset))
    status = 0
    if unset:
        print("check_params: %d field(s) are assigned nowhere outside their "
              "declaring header; make them named constants" % unset,
              file=sys.stderr)
        status = 1
    doc = open(os.path.join(root, DOC), encoding="utf-8").read()
    stated = DOC_COUNT.search(doc)
    if stated is None:
        print("check_params: %s lost its \"N structs with M fields remain\" "
              "sentence" % DOC, file=sys.stderr)
        status = 1
    elif (int(stated.group(1)), int(stated.group(2))) != (len(structs), total):
        print("check_params: %s says %s structs with %s fields, the sources "
              "have %d with %d" % (DOC, stated.group(1), stated.group(2),
                                   len(structs), total), file=sys.stderr)
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
