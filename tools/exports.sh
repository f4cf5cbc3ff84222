#!/bin/sh
# Lists each top-level `val` of an .mli under lib/ that no code in lib/,
# bin/, bench/ or examples/ outside its own module names, one
# `path name` line each, sorted.  A value counts as named in a file when
# the file says `Mod.name` (also as `Lib.Mod.name`, or `A.name` after
# `module A = Mod`), or says `name` where `open Mod`, `include Mod` or a
# local `Mod.( ... )` is in scope anywhere in the file.  Comments, string
# and character literals are ignored.  The scan is by name: a use of an
# equal name from another opened module also counts, so it can miss an
# unused value but never lists a used one named this way.  A value used
# only as a functor argument's member (`Hashtbl.Make (Oid)`) is listed.
#
# Usage: sh tools/exports.sh      (from any directory)
set -eu
cd "$(dirname "$0")/.."
# shellcheck disable=SC2046
awk '
function modname(path,   b) {
  b = path
  sub(/.*\//, "", b)
  sub(/\.mli?$/, "", b)
  return toupper(substr(b, 1, 1)) substr(b, 2)
}
function last(path,   n, parts) {
  n = split(path, parts, ".")
  return parts[n]
}
# Blanks comments (nested), string, quoted-string and character literals
# out of one line; the lexer state carries across lines.
function clean(s,   out, i, n, c, c2, j) {
  out = ""
  n = length(s)
  i = 1
  while (i <= n) {
    c = substr(s, i, 1)
    c2 = substr(s, i, 2)
    if (instr) {
      if (c == "\\") { i += 2; continue }
      if (c == "\"") instr = 0
      i++
      continue
    }
    if (inq) {
      if (c2 == "|}") { inq = 0; i += 2; continue }
      i++
      continue
    }
    if (c2 == "(*") { depth++; i += 2; out = out " "; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
    if (c == "\"") { instr = 1; i++; out = out " "; continue }
    if (depth > 0) { i++; continue }
    if (c2 == "{|") { inq = 1; i += 2; out = out " "; continue }
    if (c == "\x27" && (i == 1 || substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/)) {
      if (substr(s, i + 2, 1) == "\x27") { i += 3; out = out " "; continue }
      if (substr(s, i + 1, 1) == "\\") {
        j = i + 3
        while (j <= n && substr(s, j, 1) != "\x27") j++
        i = j + 1
        out = out " "
        continue
      }
    }
    out = out c
    i++
  }
  return out
}
FNR == 1 { depth = 0; instr = 0; inq = 0; file = FILENAME }
file ~ /\.mli$/ {
  if (match($0, /^val +[a-z_][A-Za-z0-9_\x27]*/) ||
      match($0, /^val +\( *[^ )]+ *\)/)) {
    name = substr($0, RSTART, RLENGTH)
    sub(/^val +/, "", name)
    gsub(/[() ]/, "", name)
    nvals++
    val_path[nvals] = file
    val_mod[nvals] = modname(file)
    val_name[nvals] = name
    own[modname(file)] = substr(file, 1, length(file) - 1)
  }
  next
}
{
  line = clean($0)
  text[file] = text[file] "\n" line
  files[file] = 1
  rest = line
  while (match(rest, /(open|include)!? +[A-Z][A-Za-z0-9_.]*/)) {
    m = substr(rest, RSTART, RLENGTH)
    sub(/^[a-z]+!? +/, "", m)
    opens[file, last(m)] = 1
    rest = substr(rest, RSTART + RLENGTH)
  }
  rest = line
  while (match(rest, /module +[A-Z][A-Za-z0-9_]* *= *[A-Z][A-Za-z0-9_.]*[ (]*/)) {
    m = substr(rest, RSTART, RLENGTH)
    rest = substr(rest, RSTART + RLENGTH)
    if (m ~ /\($/) continue
    a = m
    sub(/^module +/, "", a)
    sub(/ *=.*/, "", a)
    sub(/^module +[A-Z][A-Za-z0-9_]* *= */, "", m)
    sub(/[ (]*$/, "", m)
    alias[file, a] = last(m)
  }
  rest = line
  while (match(rest, /[A-Za-z_][A-Za-z0-9_\x27.]*/)) {
    tok = substr(rest, RSTART, RLENGTH)
    after = substr(rest, RSTART + RLENGTH, 1)
    rest = substr(rest, RSTART + RLENGTH)
    n = split(tok, parts, ".")
    if (n == 1) { if (tok ~ /^[a-z_]/) bare[file, tok] = 1; continue }
    if (parts[n] == "" && after ~ /[([{]/) opens[file, parts[n - 1]] = 1
    for (k = 1; k < n; k++)
      if (parts[k] ~ /^[A-Z]/ && parts[k + 1] ~ /^[a-z_]/)
        qual[file, parts[k], parts[k + 1]] = 1
  }
}
END {
  for (key in qual) {
    split(key, kp, SUBSEP)
    f = kp[1]; m = kp[2]
    if ((f, m) in alias) m = alias[f, m]
    if (own[m] != f) used[m, kp[3]] = 1
  }
  for (key in opens) {
    split(key, kp, SUBSEP)
    f = kp[1]; m = kp[2]
    if (!(m in own) || own[m] == f) continue
    for (i = 1; i <= nvals; i++)
      if (val_mod[i] == m && (f, val_name[i]) in bare) used[m, val_name[i]] = 1
  }
  for (i = 1; i <= nvals; i++) {
    m = val_mod[i]; v = val_name[i]
    if ((m, v) in used) continue
    if (v !~ /^[a-z_]/) {
      hit = 0
      for (f in files)
        if ((f, m) in opens && own[m] != f && index(text[f], v) > 0) hit = 1
      if (hit) continue
    }
    print val_path[i], v
  }
}
' $(find lib -name '*.mli' | sort) \
  $(find lib bin bench examples -name '*.ml' -not -path '*/_build/*' | sort) \
  | LC_ALL=C sort
