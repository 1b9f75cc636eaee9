"""Command-line front-end: fit models from surveys, evaluate TX chains.

The workflow is file driven: ``fit`` turns a survey CSV into a model
JSON once, then ``breakdown``, ``sweep``, and ``recommend`` evaluate any
number of operating points from those files. Every emitted result file
is accompanied by a ``<file>.manifest.json`` recording the command, its
resolved parameters, digests of all input files, the tool version, and a
timestamp, so results stay traceable to their inputs. Apart from that
timestamp, reruns with identical inputs produce byte-identical outputs.
Result files and manifests are written atomically (a temporary file
renamed into place), so a failed run leaves no partial file.

Exit codes are stable: 0 success, 1 usage error, 2 data or validation
error, 3 extrapolation under --strict or no admissible frequency.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from collections.abc import Sequence
from functools import cache, partial
from itertools import islice
from pathlib import Path

from . import __version__
from .blocks import MixerModel, OscModel, PaModel
from .chain import (
    ChainConfig,
    NoAdmissiblePointError,
    PowerBreakdown,
    _admissible_interval,
    _check_increasing,
    _terms,
    breakdown_to_dict,
    breakdowns_to_csv,
    chain_breakdown,
    frequency_grid,
    recommend_frequency,
    sweep,
)
from .exampledata import bundle_at, default_bundle, validate_bundle
from .fileio import sha256_hex, write_text_atomic
from .regression import fit_survey, load_model, save_model
from .survey import (
    _METRIC_RANGE,
    BinnedMax,
    BlockKind,
    FrontierStrategy,
    ParetoUpper,
    dataset_digest,
)
from .units import FrequencyGhz, PowerDbm

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_EXTRAPOLATION = 3

# Grid points per sweep() call: peak memory of a CLI sweep is set by this, not by
# the row count. A point holds ~650 bytes (tracemalloc) while its chunk's CSV is built:
# its row tuple and floats, its row string and its part of the text. Cold 20,000-row
# sweeps, medians of 11 interleaved runs on a 2-vCPU Linux host under Python 3.11, where
# the import alone peaks at 15.3 MiB:
#   chunk  128: peak RSS 15.59 MiB, 224 ms
#   chunk  256: peak RSS 15.71 MiB, 227 ms
#   chunk  512: peak RSS 15.84 MiB, 225 ms
# The times do not differ beyond the host's noise; a chunk's fixed cost is ~18 us.
_SWEEP_CHUNK = 128

_BLOCK_LABEL = {BlockKind.PA: "PA", BlockKind.OSCILLATOR: "oscillator", BlockKind.MIXER: "mixer"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through exit code 1: every parser, top level
    and subcommands. ``--help`` and ``--version`` raise ``SystemExit(0)``, which ``main``
    returns as its code."""

    def error(self, message):  # noqa: D102
        raise _UsageError(f"{self.prog}: {message}")


def _write_result(path: Path, write, args: argparse.Namespace) -> None:
    """Run ``write``, an atomic write of ``path``, then write its provenance manifest.

    The manifest, ``<path>.manifest.json``, accompanies every emitted
    result file. It records the command, its resolved parameters, the
    SHA-256 of each input file in ``args`` (a survey CSV or model JSONs)
    as read before ``write`` runs, the tool version, and a UTC timestamp
    to the second. A failed ``write`` leaves the old result and its
    manifest as they were. A failed manifest write removes the old
    manifest, so a result may lack one but no manifest describes another
    file.
    """
    inputs = map(vars(args).get, ("survey_csv", "pa_model", "osc_model", "mixer_model"))
    manifest = {
        "command": args.command,
        "parameters": {k: (str(v) if isinstance(v, Path) else v)
                       for k, v in vars(args).items() if k != "func" and v is not None},
        "input_digests": {str(p): sha256_hex(p.read_bytes()) for p in inputs if p is not None},
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S+00:00", time.gmtime(time.time())),
    }
    write()
    sidecar = Path(f"{path}.manifest.json")
    try:
        write_text_atomic(sidecar, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    except BaseException:
        sidecar.unlink(missing_ok=True)
        raise


# --- flag parsing helpers -------------------------------------------------


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated number list: {text!r}")


def _colon_spec(*types):
    """An argparse type for ``lo:hi`` or ``lo:hi:n``: one field per entry of ``types``."""
    shape = ":".join(("lo", "hi", "n")[:len(types)])

    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != len(types):
            raise argparse.ArgumentTypeError(f"expected {shape} (got {text!r})")
        try:
            return tuple(t(part) for t, part in zip(types, parts))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {shape} with numeric fields (got {text!r})")

    return parse


def _strategy_from_args(args: argparse.Namespace) -> FrontierStrategy:
    if args.strategy == "binned-max":
        if args.bins is None:
            raise _UsageError("fit: --strategy binned-max requires --bins")
        return BinnedMax(bins=args.bins)
    if args.bins is not None:
        raise _UsageError("fit: --bins only applies to --strategy binned-max")
    return ParetoUpper()


def _load_block_model(path: Path, model_class):
    kind, fit, _digest = load_model(path)
    if kind is not model_class.kind:
        raise ValueError(
            f"{path} holds a {kind.token} model but was passed for the "
            f"{model_class.kind.token} role"
        )
    return model_class(fit)


def _load_chain_models(args: argparse.Namespace):
    pa = _load_block_model(args.pa_model, PaModel) if args.pa_model else None
    osc = _load_block_model(args.osc_model, OscModel)
    mix = _load_block_model(args.mixer_model, MixerModel)
    return pa, osc, mix


def _chain_config(args: argparse.Namespace, frequency: float, p_mixer_out: float) -> ChainConfig:
    """The chain at ``frequency`` and mixer output ``p_mixer_out`` with the other levels of
    ``args``. Equal PA output and input means zero gain: that is a chain without a PA, not a
    degenerate PA stage."""
    p_pa_out = args.p_pa_out
    return ChainConfig(
        frequency=FrequencyGhz(frequency),
        p_mixer_out=PowerDbm(p_mixer_out),
        p_if_in=PowerDbm(args.p_if),
        p_pa_out=None if p_pa_out is None or p_pa_out == p_mixer_out else PowerDbm(p_pa_out),
        p_osc_rf=PowerDbm(args.p_osc_rf),
    )


# --- output formatting ----------------------------------------------------


def _print_breakdown(bd: PowerBreakdown) -> None:
    cfg = bd.config
    pa_out = "absent" if cfg.p_pa_out is None else f"{cfg.p_pa_out.value:g} dBm"
    print(f"TX chain DC power at {cfg.frequency.value:g} GHz")
    print(
        f"  P_IF = {cfg.p_if_in.value:g} dBm, mixer out = {cfg.p_mixer_out.value:g} dBm, "
        f"PA out = {pa_out}, oscillator RF out = {cfg.p_osc_rf.value:g} dBm"
    )
    print(f"  {'block':<12} {'P_DC [mW]':>14} {'share [%]':>11}   extrapolated")
    for kind, mw, share, ex in bd.per_block:
        print(f"  {_BLOCK_LABEL[kind]:<12} {mw.value:>14.6f} {100.0 * share:>11.2f}   "
              f"{'yes' if ex else '-'}")
    print(f"  {'total':<12} {bd.total_mw.value:>14.6f} {100.0:>11.2f}")


def _warn_extrapolated(bd: PowerBreakdown) -> None:
    if bd.any_extrapolated:
        names = ", ".join(kind.token for kind in bd.extrapolated_blocks)
        print(
            f"warning: model evaluated outside its fitted range at "
            f"{bd.config.frequency.value:g} GHz: {names}",
            file=sys.stderr,
        )


# --- subcommands ----------------------------------------------------------


def _cmd_fit(args: argparse.Namespace) -> int:
    strategy = _strategy_from_args(args)
    block = BlockKind.from_token(args.block)
    data, model = fit_survey(args.survey_csv, block, strategy)
    digest = dataset_digest(data)
    _write_result(args.out, lambda: save_model(args.out, block, model, digest), args)

    _hi, unit, _scale, _problem = _METRIC_RANGE[block]
    print(f"fitted {block.token} model from {args.survey_csv}")
    print(f"  points fitted    = {model.n_points} of {len(data)} ({strategy.tag} frontier)")
    print(f"  a                = {model.a:.6g} {unit}")
    print(f"  b                = {model.b:.6g} 1/GHz")
    print(f"  R^2 (log domain) = {model.r_squared_log:.4f}")
    print(f"  R^2 (linear)     = {model.r_squared_linear:.4f}")
    print(f"  validity range   = [{model.valid_lo.value:g}, {model.valid_hi.value:g}] GHz")
    print(f"  wrote {args.out} and {args.out}.manifest.json")
    return EXIT_OK


def _cmd_breakdown(args: argparse.Namespace) -> int:
    pa, osc, mix = _load_chain_models(args)
    cfg = _chain_config(args, args.freq, args.p_mixer_out)
    bd = chain_breakdown(pa, osc, mix, cfg)
    _print_breakdown(bd)
    outputs = (
        (args.out_csv, lambda: breakdowns_to_csv([bd])),
        (args.out_json, lambda: json.dumps(breakdown_to_dict(bd), indent=2, sort_keys=True) + "\n"),
    )
    for path, render in outputs:
        if path is not None:
            text = render()
            _write_result(path, lambda: write_text_atomic(path, text), args)
            print(f"wrote {path} and {path}.manifest.json")
    _warn_extrapolated(bd)  # after the writes: a failed write is the only stderr line
    if args.strict and bd.any_extrapolated:
        return EXIT_EXTRAPOLATION
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.freqs is not None:
        grid = partial(iter, args.freqs)
        first, last, n = args.freqs[0], args.freqs[-1], len(args.freqs)
    else:
        grid = partial(frequency_grid, *args.range)
        first, last, n = args.range
    levels = args.levels or [args.p_mixer_out]
    # The whole grid, and a --range's ends and size, are checked before the first row: a
    # chunk cannot see a repeat at its boundary, and a --range step below one ulp repeats a
    # frequency. Every frequency is validated in the same pass, so it is reported before a
    # model file is read or a bad level is.
    _check_increasing(FrequencyGhz(f).value for f in grid())
    pa, osc, mix = _load_chain_models(args)
    bases = [_chain_config(args, first, level) for level in levels]
    extrapolated, header = False, True

    def chunk_csv(base: ChainConfig, points) -> str:
        """The CSV of the next chunk of ``points`` at ``base``'s levels, "" once ``points`` is
        spent, with the header line only in the file's first chunk. Nothing else of the chunk,
        its frequencies or its result, outlives the call."""
        nonlocal extrapolated, header
        freqs = list(islice(points, _SWEEP_CHUNK))
        if not freqs:
            return ""
        result = sweep(pa, osc, mix, base, [FrequencyGhz(f) for f in freqs])
        extrapolated = extrapolated or any(row[8] for row in result.rows)
        text = breakdowns_to_csv(result)
        if header:
            header = False
            return text
        return text[text.index("\n") + 1:]

    def chunks():
        for base in bases:  # yield from names no text, so none outlives its write
            yield from iter(partial(chunk_csv, base, grid()), "")

    _write_result(args.out, lambda: write_text_atomic(args.out, chunks()), args)
    levels_txt = ", ".join(f"{lv:g} dBm" for lv in levels)
    print(
        f"swept {n} frequencies from {first:g} to {last:g} GHz "
        f"at mixer output level(s) {levels_txt}"
    )
    print(f"wrote {n * len(levels)} rows to {args.out} and {args.out}.manifest.json")
    if extrapolated:
        print("warning: some rows evaluate models outside their fitted range "
              "(see extrapolated_blocks column)", file=sys.stderr)
        if args.strict:
            return EXIT_EXTRAPOLATION
    return EXIT_OK


def _cmd_recommend(args: argparse.Namespace) -> int:
    pa, osc, mix = _load_chain_models(args)
    lo, hi = args.range
    base = _chain_config(args, lo, args.p_mixer_out)
    f_best, bd = recommend_frequency(
        pa, osc, mix, base,
        FrequencyGhz(lo), FrequencyGhz(hi),
        n_grid=args.n_grid,
        allow_extrapolation=args.allow_extrapolation,
    )
    f_lo, f_hi = _admissible_interval(_terms(pa, osc, mix, base), lo, hi, args.allow_extrapolation)
    # Later keys win, so a range end outranks an admissible end at the same frequency.
    labels = {f_lo: "at admissible bound: lower", f_hi: "at admissible bound: upper",
              lo: "at range boundary: lower", hi: "at range boundary: upper"}
    position = labels.get(f_best.value, "interior minimum")
    print(f"recommended operating frequency: {f_best.value:g} GHz ({position})")
    _print_breakdown(bd)
    _warn_extrapolated(bd)
    return EXIT_OK


def _cmd_validate_examples(args: argparse.Namespace) -> int:
    bundle = default_bundle() if args.data_dir is None else bundle_at(args.data_dir)
    report = validate_bundle(bundle)
    for check in report.checks:
        status = "ok " if check.passed else "FAIL"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"[{status}] {check.name}{detail}")
    if not report.ok:
        print(f"{len(report.failures)} of {len(report.checks)} checks failed", file=sys.stderr)
        return EXIT_DATA
    print(f"all {len(report.checks)} checks passed")
    return EXIT_OK


# --- parser ---------------------------------------------------------------


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--pa-model", type=Path,
                   help="fitted PA model JSON (omit for a PA-less chain)")
    p.add_argument("--osc-model", type=Path, required=True, help="fitted oscillator model JSON")
    p.add_argument("--mixer-model", type=Path, required=True, help="fitted mixer model JSON")


def _add_scenario_flags(p: argparse.ArgumentParser, level_source=None) -> None:
    """The chain's levels; ``--p-mixer-out`` is required, or joins the ``level_source`` group."""
    p.add_argument("--p-if", type=float, default=-5.0,
                   help="mixer IF input power in dBm (default -5)")
    p.add_argument("--p-pa-out", type=float, default=None,
                   help="PA output power in dBm; omit it, or set it equal to "
                        "--p-mixer-out (zero gain), for a chain without a PA")
    p.add_argument("--p-osc-rf", type=float, default=0.0,
                   help="oscillator RF output power in dBm (default 0)")
    # last: argparse shows a group in the usage line only if its members were added in a row
    (level_source or p).add_argument("--p-mixer-out", type=float, required=level_source is None,
                                     help="mixer output power in dBm (doubles as PA input)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="wnocpower",
        description="TX front-end DC power budgeting from prototype surveys.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("fit", help="fit a block model from a survey CSV")
    p.add_argument("survey_csv", type=Path, help="survey CSV (schema: block,frequency_ghz,metric,label[,technology_node][,notes])")
    p.add_argument("--block", required=True, choices=[k.token for k in BlockKind],
                   help="expected block kind of the survey")
    p.add_argument("--strategy", choices=["pareto-upper", "binned-max"],
                   default="pareto-upper", help="best-in-class selection strategy")
    p.add_argument("--bins", type=int, default=None,
                   help="bin count for --strategy binned-max")
    p.add_argument("--out", type=Path, required=True, help="output model JSON path")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("breakdown", help="per-block DC power at one operating point")
    _add_model_flags(p)
    p.add_argument("--freq", type=float, required=True, help="operating frequency in GHz")
    _add_scenario_flags(p)
    p.add_argument("--out-csv", type=Path, default=None, help="also write a one-row plot CSV")
    p.add_argument("--out-json", type=Path, default=None, help="also write the breakdown as JSON")
    p.add_argument("--strict", action="store_true",
                   help="exit with status 3 if any model had to extrapolate")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("sweep", help="breakdowns over a frequency grid, written as plot CSV")
    _add_model_flags(p)
    grid = p.add_mutually_exclusive_group(required=True)
    grid.add_argument("--freqs", type=_float_list, default=None,
                      help="explicit comma-separated frequencies in GHz, strictly increasing")
    grid.add_argument("--range", type=_colon_spec(float, float, int), metavar="LO:HI:N",
                      help="uniform grid of N points from LO to HI GHz")
    level_source = p.add_mutually_exclusive_group(required=True)
    _add_scenario_flags(p, level_source)
    level_source.add_argument("--levels", type=_float_list, default=None,
                              help="repeat the sweep for each mixer output level "
                                   "(dBm, comma-separated)")
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--strict", action="store_true",
                   help="exit with status 3 if any row had to extrapolate")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("recommend", help="minimum-total-power frequency over a range")
    _add_model_flags(p)
    p.add_argument("--range", type=_colon_spec(float, float), required=True, metavar="LO:HI",
                   help="search range in GHz")
    p.add_argument("--n-grid", type=int, default=64,
                   help="checked (>= 2) but no effect on the answer (default 64)")
    p.add_argument("--allow-extrapolation", action="store_true",
                   help="admit frequencies outside the models' fitted ranges")
    _add_scenario_flags(p)
    p.set_defaults(func=_cmd_recommend)

    p = sub.add_parser("validate-examples", help="re-check the shipped example bundle")
    p.add_argument("--data-dir", type=Path, default=None,
                   help="directory holding the bundle (default: packaged data)")
    p.set_defaults(func=_cmd_validate_examples)

    return parser


# One parser per process: argparse's parser is a web of reference cycles, which a parser built
# per call would leave to the cyclic collector (~50 KiB a call).
_parser = cache(build_parser)


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    # argparse reads "-1e1" or "-15,-10" as an option, not as the value of the option
    # before it: fold a token that starts like a negative number into "--opt=tok".
    out: list[str] = []
    for tok in argv:
        if out and re.match(r"-[\d.]", tok) and re.fullmatch(r"--[^=]+", out[-1]):
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
        return args.func(args)
    except SystemExit as exc:  # --help or --version, at the top level or on a subcommand
        return exc.code
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except NoAdmissiblePointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EXTRAPOLATION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
