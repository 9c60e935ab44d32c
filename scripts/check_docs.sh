#!/usr/bin/env bash
# Docs-vs-tree consistency gate.
#
# The docs (README/DESIGN/EXPERIMENTS/ROADMAP) name concrete artifacts:
# bench binaries, source files, CLI flags. Those references rot silently
# when code moves, so CI runs this script and fails the build if any doc
# references a bench target, file path, or flag that no longer exists.
# It also fails on orphan modules: a src/ header that nothing but its own
# .cpp and the unit tests includes and uses (rule 7), and on docs that name
# a C++ API the code no longer has (rule 8).
set -u
cd "$(dirname "$0")/.."

DOCS=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md)
fail=0

err() {
  echo "check_docs: $1" >&2
  fail=1
}

# 1. Every `bench_<name>` token must have a matching bench/bench_<name>.cpp.
#    (`bench_foo.txt` style capture-file names are not targets.)
for doc in "${DOCS[@]}"; do
  for tok in $(grep -oE 'bench_[a-z0-9_]+(\.[a-z]+)?' "$doc" | sort -u); do
    case "$tok" in
      *.cpp) tok=${tok%.cpp} ;;
      *.*) continue ;;
    esac
    [[ -f "bench/${tok}.cpp" ]] ||
      err "$doc references bench target '$tok' but bench/${tok}.cpp does not exist"
  done
done

# 2. Every slash-containing source-file path mentioned in a doc must exist,
#    either verbatim or under src/ (docs use module-relative includes like
#    sim/runner.h). Generated artifacts (build*/, *.json) and URLs are skipped.
for doc in "${DOCS[@]}"; do
  for path in $(grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.(cpp|h|sh)' "$doc" | sort -u); do
    case "$path" in
      */*) ;;
      *) continue ;;           # bare filenames are prose, not paths
    esac
    case "$path" in
      build*/*) continue ;;
    esac
    [[ -e "$path" || -e "src/$path" ]] ||
      err "$doc references '$path' but neither it nor src/$path exists"
  done
done

# 3. Every --flag the docs attribute to a bench (a flag on the same line as
#    a bench_* invocation) must appear in bench/ sources. cmake/ctest flags
#    on non-bench lines are not ours to check.
for doc in "${DOCS[@]}"; do
  for flag in $(grep -E 'bench_[a-z0-9_]+ +--' "$doc" |
                grep -oE '\-\-[a-z][a-z0-9-]+' | sort -u); do
    grep -rqF -- "$flag" bench/ ||
      err "$doc references bench flag '$flag' but no bench/ source mentions it"
  done
done

# 4. Every `BENCH_<name>.json` artifact the docs cite must actually be
#    produced by some bench source. The common case is the eponymous
#    bench/bench_<name>.cpp, but one binary may write several artifacts
#    (bench_serve also writes BENCH_serve_restart.json), so fall back to
#    searching all of bench/ for the filename.
for doc in "${DOCS[@]}"; do
  for art in $(grep -oE 'BENCH_[A-Za-z0-9_]+\.json' "$doc" | sort -u); do
    name=${art#BENCH_}
    name=${name%.json}
    src="bench/bench_${name}.cpp"
    if [[ -f "$src" ]]; then
      grep -qF "$art" "$src" ||
        err "$doc cites artifact '$art' but $src never writes it"
    else
      grep -rqF "$art" bench/ ||
        err "$doc cites artifact '$art' but no bench/ source writes it"
    fi
  done
done

# 5. Every src/ module directory must be listed in the README architecture
#    block and the DESIGN repository layout — new subsystems must be
#    documented, not just merged.
for mod in src/*/; do
  mod=$(basename "$mod")
  grep -qE "^${mod}/" README.md ||
    err "README.md architecture block is missing module '${mod}/'"
  grep -qE "(^|[ \`(])${mod}/" DESIGN.md ||
    err "DESIGN.md repository layout is missing module '${mod}/'"
done

# 6. The reverse of rule 1: every bench target registered in
#    bench/CMakeLists.txt must be cited by at least one doc — a bench no
#    doc names is an experiment nobody can find.
for tgt in $(grep -oE 'iobt_bench\([a-z0-9_]+\)' bench/CMakeLists.txt |
             sed -E 's/iobt_bench\(([a-z0-9_]+)\)/\1/' | sort -u); do
  cited=0
  for doc in "${DOCS[@]}"; do
    grep -qF "$tgt" "$doc" && cited=1 && break
  done
  [[ $cited -eq 1 ]] ||
    err "bench target '$tgt' (bench/CMakeLists.txt) is not cited by any doc"
done

# 7. Every src/ header must have a consumer beyond its own .cpp and the unit
#    tests: a file under src/, bench/, examples/ or perfbench/ that includes
#    it AND names, as a whole word outside comments and strings, something
#    the header declares — a class, struct, union, enum or `using` alias it
#    defines, or a namespace-scope function. An include nothing uses does
#    not count. A module that only its tests reach is an orphan: give it a
#    runtime, bench or example consumer, or delete it.
orphans=$(python3 - <<'EOF'
import pathlib
import re

ROOTS = ("src", "bench", "examples", "perfbench")
# Raw strings, comments, string and char literals, in one left-to-right pass.
NOISE = re.compile(r'R"([^(\s]*)\(.*?\)\1"|//[^\n]*|/\*.*?\*/'
                   r'|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)
PREPROCESSOR = re.compile(r'^[ \t]*#.*(?:\\\n.*)*', re.M)
TEMPLATE_HEAD = re.compile(r'\btemplate\s*<(?:[^<>]|<[^<>]*>)*>')
TYPE_DEF = re.compile(r'\b(?:class|struct|union|enum(?:\s+class|\s+struct)?)\s+'
                      r'([A-Za-z_]\w*)\s*(?:final\s*)?[:{]')
ALIAS = re.compile(r'\busing\s+([A-Za-z_]\w*)\s*=')
NOT_FUNCTION = re.compile(r'^(?:class|struct|union|enum|using|namespace|typedef|'
                          r'static_assert|friend|extern)\b')
KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "decltype",
            "alignof", "noexcept", "operator"}


def code(text):
    """Text with comments, literals and preprocessor lines blanked out."""
    return PREPROCESSOR.sub(" ", NOISE.sub(" ", text))


def namespace_functions(body):
    """Names of functions declared or defined at namespace scope of `body`
    (code() output with template heads removed)."""
    names, stack, start = set(), [], 0
    for i, ch in enumerate(body):
        if ch not in "{};":
            continue
        stmt = body[start:i].strip()
        start = i + 1
        if ch == "}":
            if stack:
                stack.pop()
            continue
        at_namespace_scope = all(kind == "ns" for kind in stack)
        if ch == "{":
            stack.append("ns" if re.match(r'(?:inline\s+)?namespace\b', stmt)
                         else "block")
        if not at_namespace_scope or not stmt or NOT_FUNCTION.match(stmt):
            continue
        prefix = stmt.split("(", 1)[0]
        if "(" not in stmt or "=" in prefix:
            continue
        m = re.search(r'(::\s*)?([A-Za-z_]\w*)\s*$', prefix)
        if m and not m.group(1) and m.group(2) not in KEYWORDS:
            names.add(m.group(2))
    return names


def declared(header_text):
    body = TEMPLATE_HEAD.sub(" ", code(header_text))
    return (set(TYPE_DEF.findall(body)) | set(ALIAS.findall(body))
            | namespace_functions(body))


files = sorted(p for root in ROOTS for p in pathlib.Path(root).rglob("*")
               if p.suffix in (".h", ".cpp"))
texts = {p: p.read_text() for p in files}
words = {}


def names_any(p, names):
    if p not in words:
        words[p] = set(re.findall(r'\w+', code(texts[p])))
    return bool(names & words[p])


for hdr in sorted(pathlib.Path("src").rglob("*.h")):
    include = '#include "%s"' % hdr.relative_to("src").as_posix()
    names = declared(texts[hdr])
    own = hdr.with_suffix(".cpp")
    if not any(p not in (hdr, own) and include in texts[p] and names_any(p, names)
               for p in files):
        print(hdr.as_posix())
EOF
) || err "rule 7 scanner (python3) failed"
for hdr in $orphans; do
  err "$hdr is orphaned: no file outside its own .cpp and tests/ includes it and uses what it declares"
done

# 8. Every backticked qualified name (`A::b`, `ns::A::b`) in README, DESIGN
#    or EXPERIMENTS must name something the code still has: its last
#    component must appear as a word under src/, bench/ or perfbench/.
#    ROADMAP is exempt because it names planned work.
for doc in README.md DESIGN.md EXPERIMENTS.md; do
  for name in $(grep -oE '`[^`]+`' "$doc" |
                grep -oE '[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+' |
                sort -u); do
    grep -rqw -- "${name##*::}" src bench perfbench ||
      err "$doc names '$name' but '${name##*::}' appears nowhere in src/, bench/ or perfbench/"
  done
done

if [[ $fail -ne 0 ]]; then
  echo "check_docs: FAILED — docs or src/ headers out of step with the tree" >&2
  exit 1
fi
echo "check_docs: OK (${#DOCS[@]} docs checked against the tree)"
