"""Command-line entry points with machine-readable output.

Every subcommand prints human-readable text by default and a structured
record (schema ``foamlab.v1``) with ``--json``.  Exit status is 0 when the
requested computation or check succeeds, 1 on a mathematical failure (a
check that does not hold), and 2 on an input error.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from random import Random

import click

from .actions import (
    ActionParams,
    apply_operator,
    commutator_check,
    verify_compat,
)
from .corpus import basic_open_movies, closed_corpus, spherical_corpus
from .dsl import parse, parse_pack, parse_ring, parse_witt_spec
from .errors import FoamlabError, InputError
from .foamcore import (
    Movie,
    Saddle,
    compile_movie,
    enumerate_colorings,
    bichrome_data,
    local_counts,
)
from .foameval import degree, evaluate
from .polyring import GF, QQ, ZZ, CoefRing, kill_equivariance
from .statespace import (
    MOY_RELATIONS,
    WEB_FAMILIES,
    Presentation,
    _require_rank_inputs,
    circle_presentation,
    graded_rank,
    gram_matrix,
    induced_action,
    moy_check,
    operator_power,
    mat_is_zero,
)

SCHEMA = "foamlab.v1"


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def laurent_text(L: dict[int, int]) -> str:
    """Render ``{exponent: coefficient}`` as e.g. ``q^-1 + q``."""
    if not L:
        return "0"
    parts: list[str] = []
    for e in sorted(L):
        c = L[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        c = abs(c)
        if e == 0:
            body = str(c)
        else:
            power = "q" if e == 1 else f"q^{e}"
            body = power if c == 1 else f"{c}*{power}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"


def _emit(record: dict, as_json: bool, human: str) -> None:
    if as_json:
        payload = {"schema": SCHEMA, **record}
        click.echo(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        click.echo(human)


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def _load_movie(target: str, N: int | None) -> Movie:
    file_part, sep, movie_part = target.rpartition("#")
    if not sep or not file_part or not movie_part:
        raise InputError(f"expected <file>#<movie>, got {target!r}")
    try:
        with open(file_part, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {file_part!r}: {exc}") from exc
    return parse(text).build_movie(movie_part, N)


def parse_presentation(
    spec: str, N: int, ring: CoefRing, base: str
) -> Presentation:
    """A generator family of :data:`~foamlab.statespace.WEB_FAMILIES` named
    as ``<family>:<a>,<b>,...``, e.g. ``digon:1,2``; a family without
    arguments is named alone (``necklace``)."""
    name, _, rest = spec.partition(":")
    if name not in WEB_FAMILIES:
        raise InputError(
            f"unknown web family {name!r} (choose from {sorted(WEB_FAMILIES)})"
        )
    try:
        args = [int(x) for x in rest.split(",")] if rest else []
    except ValueError:
        raise InputError(f"bad web arguments in {spec!r}") from None
    count, build = WEB_FAMILIES[name]
    if len(args) != count:
        raise InputError(f"web family {name!r} takes {count} argument(s)")
    return build(*args, N, ring, base)


def _options(*opts):
    """One decorator applying ``opts`` in the order given."""

    def apply(fn):
        for opt in reversed(opts):
            fn = opt(fn)
        return fn

    return apply


# the pack options, named by the keys of a ``params`` block
_pack_options = _options(
    click.option("--s", default="0", show_default=True,
                 help="Seam parameter (integer or a/b)."),
    click.option("--nu1", default=None, help="Sequence spec lin:<v> or tab:[...]."),
    click.option("--nu2", default=None, help="Sequence spec lin:<v> or tab:[...]."),
    click.option("--nu3", default=None, help="Sequence spec lin:<v> or tab:[...]."),
    click.option("--t1", default="0", show_default=True),
    click.option("--t2", default="0", show_default=True),
    click.option("--t3", default=None,
                 help="Defaults to 1/2 when the ring has it."),
    click.option("--spherical/--no-spherical", default=True, show_default=True),
)
_ring_base_options = _options(
    click.option("--ring", "ring_text", default="Z", show_default=True),
    click.option("--base", type=click.Choice(["equivariant", "phi0"]),
                 default="equivariant", show_default=True),
)


def _build_pack(N: int, ring: str, spherical: bool, **texts: str | None) -> ActionParams:
    """The pack of the command-line options, read as a ``params`` block is."""
    texts = {key: text for key, text in texts.items() if text is not None}
    spherical_text = "true" if spherical else "false"
    return parse_pack({**texts, "ring": ring, "N": str(N), "spherical": spherical_text})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


@click.group()
def cli() -> None:
    """Exact evaluation of decorated foams and their state spaces."""


@cli.command("eval")
@click.argument("target")
@click.option("--N", "n_pigments", type=int, required=True, help="Number of pigments.")
@click.option("--mod", type=int, default=None, help="Work over F<p>.")
@click.option("--phi0", is_flag=True, help="Specialize the symmetric base to 0.")
@click.option("--breakdown", is_flag=True, help="Also print per-coloring values.")
@click.option("--json", "as_json", is_flag=True)
def eval_cmd(target, n_pigments, mod, phi0, breakdown, as_json) -> None:
    """Evaluate a closed movie from FILE#MOVIE to a symmetric polynomial."""
    if mod is not None and phi0:
        raise InputError("--mod and --phi0 are mutually exclusive")
    ring = GF(mod) if mod is not None else ZZ
    mov = _load_movie(target, n_pigments)
    res = evaluate(mov, n_pigments, ring)
    if phi0:
        out = str(kill_equivariance(res.value))
    else:
        out = str(res.value)
    record = {
        "command": "eval",
        "N": n_pigments,
        "ring": str(ring),
        "base": "phi0" if phi0 else "equivariant",
        "value": out,
    }
    lines = [out]
    if breakdown:
        parts = [str(v) for v in res.breakdown]
        record["breakdown"] = parts
        lines += [f"  coloring {i}: {v}" for i, v in enumerate(parts)]
    _emit(record, as_json, "\n".join(lines))


@cli.command("degree")
@click.argument("target")
@click.option("--N", "n_pigments", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def degree_cmd(target, n_pigments, as_json) -> None:
    """Quantum degree of a movie from FILE#MOVIE."""
    mov = _load_movie(target, n_pigments)
    d = degree(mov, n_pigments)
    _emit({"command": "degree", "N": n_pigments, "degree": d}, as_json, str(d))


@cli.command("act")
@click.argument("target")
@click.option("--op", required=True, help="Operator: L:<n>, e, h, f or d.")
@click.option("--N", "n_pigments", type=int, required=True)
@click.option("--ring", "ring_text", default="Q", show_default=True,
              help="Coefficient ring: Z, Q or F<p>.")
@_pack_options
@click.option("--json", "as_json", is_flag=True)
def act_cmd(target, op, n_pigments, ring_text, as_json, **pack) -> None:
    """Apply an operator to a movie; prints the resulting formal sum."""
    params = _build_pack(n_pigments, ring_text, **pack)
    mov = _load_movie(target, n_pigments)
    S = apply_operator(op, params, mov)
    record = {
        "command": "act",
        "op": op,
        "N": n_pigments,
        "ring": str(params.ring),
        "terms": [list(t) for t in S.term_texts()],
    }
    _emit(record, as_json, str(S))


_presentation_options = _options(
    click.option("--web", "web_spec", required=True,
                 help="Generator family, e.g. circle:1 or digon:1,1."),
    click.option("--N", "n_pigments", type=int, required=True),
    _ring_base_options,
)


@cli.command("gram")
@_presentation_options
@click.option("--json", "as_json", is_flag=True)
def gram_cmd(web_spec, n_pigments, ring_text, base, as_json) -> None:
    """Pairing matrix of a generator family."""
    ring = parse_ring(ring_text)
    pres = parse_presentation(web_spec, n_pigments, ring, base)
    G = gram_matrix(pres)
    entries = [[str(e) for e in row] for row in G.entries]
    record = {
        "command": "gram",
        "web": web_spec,
        "N": n_pigments,
        "ring": str(ring),
        "base": base,
        "degrees": list(G.row_degrees),
        "entries": entries,
    }
    lines = [f"degrees: {list(G.row_degrees)}"]
    lines += ["[" + ", ".join(row) + "]" for row in entries]
    _emit(record, as_json, "\n".join(lines))


@cli.command("rank")
@_presentation_options
@click.option("--trials", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def rank_cmd(web_spec, n_pigments, ring_text, base, trials, seed, as_json) -> None:
    """Graded rank of a web state space presented by a generator family."""
    ring = parse_ring(ring_text)
    # graded_rank's own input checks, before the web is built
    _require_rank_inputs(ring, trials)
    pres = parse_presentation(web_spec, n_pigments, ring, base)
    L = graded_rank(pres, trials=trials, seed=seed)
    record = {
        "command": "rank",
        "web": web_spec,
        "N": n_pigments,
        "ring": str(ring),
        "base": base,
        "rank": sorted(map(list, L.items())),
        "rank_text": laurent_text(L),
    }
    _emit(record, as_json, laurent_text(L))


@cli.command("moy-check")
@click.option("--relation", required=True, type=click.Choice(list(MOY_RELATIONS)))
@click.option("--N", "n_pigments", type=int, required=True)
@click.option("--a", type=int, default=1, show_default=True)
@click.option("--b", type=int, default=1, show_default=True)
@click.option("--c", type=int, default=1, show_default=True)
@_ring_base_options
@click.option("--trials", type=int, default=3, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def moy_cmd(
    relation, n_pigments, a, b, c, ring_text, base, trials, seed, as_json
) -> None:
    """Check one graded-rank relation of web state spaces."""
    rep = moy_check(
        relation, n_pigments, a=a, b=b, c=c,
        ring=parse_ring(ring_text), base=base, trials=trials, seed=seed,
    )
    status = "pass" if rep.ok else "fail"
    record = {
        "command": "moy-check",
        "relation": relation,
        "N": n_pigments,
        "ok": rep.ok,
        "detail": rep.detail or "",
    }
    human = status if not rep.detail else f"{status}: {rep.detail}"
    _emit(record, as_json, human)
    if not rep.ok:
        sys.exit(1)


@cli.command("induced")
@click.option("--op", required=True, help="Operator: L:<n>, e, h, f or d.")
@_presentation_options
@_pack_options
@click.option("--json", "as_json", is_flag=True)
def induced_cmd(op, web_spec, n_pigments, ring_text, base, as_json, **pack) -> None:
    """Matrix of an operator in a generator family, with a certificate."""
    # the presentation and the parameter pack share one --ring flag
    params = _build_pack(n_pigments, ring_text, **pack)
    pres = parse_presentation(web_spec, n_pigments, params.ring, base)
    act = induced_action(op, params, pres)
    matrix = [[str(e) for e in row] for row in act.matrix]
    record = {
        "command": "induced",
        "op": op,
        "web": web_spec,
        "N": n_pigments,
        "ring": str(params.ring),
        "base": base,
        "matrix": matrix,
        "certificate": act.certificate.detail or "exact solution",
    }
    lines = ["[" + ", ".join(row) + "]" for row in matrix]
    lines.append(f"certificate: {record['certificate']}")
    _emit(record, as_json, "\n".join(lines))


# ---------------------------------------------------------------------------
# Check suites
# ---------------------------------------------------------------------------


def _random_pack(rng: Random, N: int, nu3_zero: bool = False) -> ActionParams:
    frac = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))  # noqa: E731
    return ActionParams(
        ring=QQ,
        N=N,
        s=frac(),
        nu1=parse_witt_spec(f"lin:{frac()}", QQ),
        nu2=parse_witt_spec(f"lin:{frac()}", QQ),
        nu3=None if nu3_zero else parse_witt_spec(f"lin:{frac()}", QQ),
        t1=frac(),
        t2=frac(),
    )


def _suite_euler(count: int, seed: int) -> list[tuple[str, bool, str]]:
    results = []

    def tally(F, c, i, j):
        cij = local_counts(F, c, i, j)
        cji = local_counts(F, c, j, i)
        total = (
            cij.A + cji.A + cij.U + cji.U + cij.Lam + cji.Lam
            - cij.Z - cji.Z + cij.V + cji.V - cij.Y - cji.Y
        )
        return total, cij, cji

    ok1, ok2, ok3 = True, True, True
    for mov in spherical_corpus(seed=seed, count=count):
        F = compile_movie(mov)
        for c in enumerate_colorings(F, 2):
            chi, _ = bichrome_data(F, c, 1, 2)
            t, cij, cji = tally(F, c, 1, 2)
            ok1 = ok1 and chi == t
            for i in (1, 2):
                cups = sum(
                    1 for tr in F.traces if tr.kind == "cup" and i in c[tr.facets[0]]
                )
                caps = sum(
                    1 for tr in F.traces if tr.kind == "cap" and i in c[tr.facets[0]]
                )
                ok2 = ok2 and cups == caps
            ok3 = ok3 and cij.U + cji.A == cji.U + cij.A
    results.append(("monochrome cup/cap balance", ok2, "spherical corpus"))
    results.append(("bichrome cup/cap balance", ok3, "spherical corpus"))
    results.append(("spherical Euler tally", ok1, "spherical corpus"))
    ok4 = True
    for mov in closed_corpus(seed=seed + 1, count=count):
        F = compile_movie(mov)
        for c in enumerate_colorings(F, 2):
            chi, _ = bichrome_data(F, c, 1, 2)
            t, tij, tji = tally(F, c, 1, 2)
            ok4 = ok4 and chi == t - tij.S - tji.S
    results.append(("saddle Euler correction", ok4, "closed corpus"))
    return results


def _suite_commutators(nmax: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = Random(seed)
    movies = dict(basic_open_movies(1, 1))
    movies.update({f"{k}/1,2": m for k, m in basic_open_movies(1, 2).items()})
    results = []
    for trial in range(3):
        frac = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))  # noqa: E731
        vals = {"s": frac(), "n1": frac(), "n2": frac(), "n3": frac()}
        ok = True
        witness = ""
        for mov in movies.values():
            thick = max(
                (f.thickness for f in compile_movie(mov).facets.values()), default=1
            )
            # movies with saddles need a vanishing third sequence
            has_saddle = any(isinstance(m, Saddle) for m in mov.moves)
            pack = ActionParams(
                ring=QQ,
                N=max(3, thick),
                s=vals["s"],
                nu1=parse_witt_spec(f"lin:{vals['n1']}", QQ),
                nu2=parse_witt_spec(f"lin:{vals['n2']}", QQ),
                nu3=None if has_saddle else parse_witt_spec(f"lin:{vals['n3']}", QQ),
            )
            for n in range(-1, nmax + 1):
                for m in range(n, nmax + 1):
                    rep = commutator_check(n, m, pack, mov)
                    if not rep.ok:
                        ok = False
                        witness = rep.detail or f"[L_{n}, L_{m}]"
        results.append((f"pack {trial}: Witt brackets up to {nmax}", ok, witness))
    return results


def _suite_compat(count: int, seed: int) -> list[tuple[str, bool, str]]:
    rng = Random(seed)
    results = []
    pack = _random_pack(rng, N=2)
    ok = True
    witness = ""
    for mov in spherical_corpus(seed=seed, count=count, ring=QQ):
        for n in range(4):
            rep = verify_compat(mov, n, pack)
            if not rep.ok:
                ok, witness = False, rep.detail or ""
    results.append(("spherical evaluation compatibility", ok, witness))
    pack0 = _random_pack(rng, N=2, nu3_zero=True)
    ok = True
    witness = ""
    saddled = [
        mov
        for mov in closed_corpus(seed=seed + 1, count=4 * count, ring=QQ)
        if any(isinstance(m, Saddle) for m in mov.moves)
    ][:count]
    for mov in saddled:
        for n in range(4):
            rep = verify_compat(mov, n, pack0)
            if not rep.ok:
                ok, witness = False, rep.detail or ""
    results.append(
        (f"saddle compatibility (nu3 = 0, {len(saddled)} movies)", ok, witness)
    )
    return results


def _suite_pdg() -> list[tuple[str, bool, str]]:
    results = []
    for p in (3, 5):
        for N, a in ((2, 1), (3, 1)):
            pack = ActionParams(ring=GF(p), N=N, t1=1, t2=2, t3=0)
            for base in ("equivariant", "phi0"):
                pres = circle_presentation(a, N, GF(p), base)
                act = induced_action("d", pack, pres)
                ok = mat_is_zero(operator_power(act, p))
                results.append(
                    (f"d^{p} = 0 on circle({a}), N={N}, {base}", ok, "")
                )
    return results


@cli.command("check")
@click.option("--suite", required=True,
              type=click.Choice(["euler", "commutators", "compat", "pdg"]))
@click.option("--nmax", type=int, default=3, show_default=True,
              help="Largest operator index for the commutator suite.")
@click.option("--count", type=int, default=30, show_default=True,
              help="Corpus size for the sampling suites.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def check_cmd(suite, nmax, count, seed, as_json) -> None:
    """Run a named property suite; exit status 1 if any check fails."""
    if nmax < -1:
        raise InputError(f"--nmax must be at least -1, got {nmax}")
    if count < 1:
        raise InputError(f"--count must be at least 1, got {count}")
    if suite == "euler":
        results = _suite_euler(count, seed)
    elif suite == "commutators":
        results = _suite_commutators(nmax, seed)
    elif suite == "compat":
        results = _suite_compat(count, seed)
    else:
        results = _suite_pdg()
    all_ok = all(ok for _, ok, _ in results)
    record = {
        "command": "check",
        "suite": suite,
        "ok": all_ok,
        "results": [
            {"name": name, "ok": ok, "detail": detail}
            for name, ok, detail in results
        ],
    }
    lines = [
        f"{'ok  ' if ok else 'FAIL'} {name}" + (f" ({detail})" if detail and not ok else "")
        for name, ok, detail in results
    ]
    lines.append("pass" if all_ok else "fail")
    _emit(record, as_json, "\n".join(lines))
    if not all_ok:
        sys.exit(1)


# ---------------------------------------------------------------------------
# Entry point with the shared error taxonomy
# ---------------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        exc.show()
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(130)
    except InputError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    except FoamlabError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
