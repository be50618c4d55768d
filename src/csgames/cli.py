"""Command-line front end: evaluate, simulate, best-respond, verify, solve,
discretize, transform, and correlated-sequence over JSON documents.

Exit codes: 0 success (and verification passed), 1 a verification or solve
target was not certified (outputs are still written), 2 input could not be
parsed (or is not UTF-8 text), 3 input parsed but failed validation or a
precondition, 4 the solver failed numerically.

`verify` certifies every concept at --epsilon: each budget excess and gap
may exceed it by no more than its tolerance, whatever the concept.

Documents are JSON with explicit shapes.  Their keys are the field names of
the dataclass they hold, next to a schema tag and the sizes it declares
(_sizes), so one encoder writes them and one constructor reads them.  A
declared size other than the built object's, and a string or boolean where a
number goes, is a parse error.  Floats are serialized with Python's shortest
round-trip representation, so write-read-write is byte-stable.  Every
document is byte for byte what json.dumps(payload, indent=2, sort_keys=True)
writes, with numpy values and dataclasses in their _plain form; _dump only
writes number lists faster.  All randomness derives from --seed (default 0).
Reports are byte-identical for identical inputs and seed, except for the
timing block.
"""

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .best_response import constrained_best_response
from .discretization import build_partition, resolution_for, surrogate_game
from .equilibrium import (
    SearchConfig,
    _induced_mdp,
    correlated_limit_sequence,
    search_equilibrium,
    verify_approx_equilibrium,
    verify_statewise_equilibrium,
    verify_weak_correlated,
)
from .evaluation import _check_psi, evaluate_correlated, evaluate_markov, evaluate_profile, simulate
from .evaluation import induced_mdp  # noqa: F401  (only for perfbench's tracer hook)
from .game import (
    ContinuousGameSpec,
    CorrelatedStrategy,
    FiniteCSG,
    MarkovStrategy,
    StationaryProfile,
    _frozen_array,
    _integer,
    _real,
    product_strategy,
    validate_game,
    validate_spec,
)
from .transform import wessels_transform

GAME_SCHEMA = "csgames-game-v1"
STRATEGY_SCHEMA = "csgames-strategy-v1"
CERTIFICATE_SCHEMA = "csgames-certificate-v1"
REPORT_SCHEMA = "csgames-report-v1"

EXIT_OK = 0
EXIT_CERTIFIED_FAIL = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

# Strategy documents name their dataclass in "class"; game documents in "kind".
_CLASSES = {"stationary": StationaryProfile, "correlated": CorrelatedStrategy,
            "markov": MarkovStrategy}
_CLASS_NAMES = {cls: name for name, cls in _CLASSES.items()}


class ParseError(Exception):
    pass


class ValidationFailure(Exception):
    pass


def _plain(value):
    """JSON form of a numpy array or scalar, a tuple, or a dataclass (its
    fields by name, read with getattr so no array is deep-copied); any other
    value is returned as is.  Also the `default` hook of _dump."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


# The repr of each entry of a list whose entries all have one of these types.
_NUMBER_REPRS = {float: float.__repr__, int: int.__repr__}


def _encode(value, indent):
    """JSON text of `value` as json.dumps(value, indent=2, sort_keys=True,
    default=_plain) writes it nested at `indent`.

    Only the document's skeleton is walked here: nonempty dicts with string
    keys, nonempty lists and tuples, and, through _plain, numpy values and
    dataclasses.  A list whose entries are all finite floats or all ints
    (bools excluded) is written in one join of their reprs, which is what
    json writes for each of them.  Every other value, NaN and infinities
    among them, is json.dumps's own text; its newlines are all structural,
    since json escapes them in strings, so indenting it is a replace.
    """
    inner = indent + "  "
    if isinstance(value, (list, tuple)) and value:
        kinds = set(map(type, value))
        number = _NUMBER_REPRS.get(kinds.pop()) if len(kinds) == 1 else None
        if number is int.__repr__ or number and all(map(math.isfinite, value)):
            items = map(number, value)
        else:
            items = (_encode(v, inner) for v in value)
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}]"
    if isinstance(value, dict) and value and all(type(k) is str for k in value):
        items = (f"{encode_basestring_ascii(k)}: {_encode(v, inner)}"
                 for k, v in sorted(value.items()))
        return f"{{\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}}}"
    if isinstance(value, (str, int, float)) or value is None:
        return json.dumps(value)  # a scalar's text has no indent
    if isinstance(value, (np.ndarray, np.generic)) or is_dataclass(value):
        return _encode(_plain(value), indent)
    text = json.dumps(value, indent=2, sort_keys=True, default=_plain)
    return text.replace("\n", "\n" + indent)


def _dump(payload):
    """The JSON document of `payload` with a final newline, byte for byte
    json.dumps(payload, indent=2, sort_keys=True, default=_plain) + "\\n";
    _encode writes number lists a list at a time, where json.dumps's indented
    encoder, written in Python, takes them an entry at a time."""
    return _encode(payload, "") + "\n"


def _write(path, payload, made):
    """Write a document; its path joins `made` once the file is open."""
    text = _dump(payload)
    with open(path, "w") as file:
        made.append(path)
        file.write(text)


# SHA-256 of each file _load_json read, by path, for the report of the run
# that read it: _run clears it first, and runs one command at a time.
_DIGESTS = {}


def _digest(path):
    return _DIGESTS[str(path)]


def _load_json(path):
    """Parse a JSON file, read once: the digest of its bytes is kept for the
    report, and a file that is not UTF-8 text is a parse error."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    _DIGESTS[str(path)] = hashlib.sha256(data).hexdigest()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from exc
    del data  # a game document can be tens of MB: drop the bytes before parsing
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _field(doc, key, path):
    if key not in doc:
        raise ParseError(f"{path}: missing field {key!r}")
    return doc.pop(key)


def _sizes(obj):
    """The sizes a game or grid spec document declares next to its fields."""
    if isinstance(obj, FiniteCSG):
        return {"n_states": obj.n_states, "n_constraint_layers": obj.n_layers}
    if isinstance(obj, ContinuousGameSpec):
        return {"n_points": obj.n_points, "n_constraint_layers": obj.game.n_layers}
    return {}


def game_to_payload(game, extra=None):
    payload = {"schema": GAME_SCHEMA, "kind": "finite", **_sizes(game), **_plain(game)}
    if extra:
        payload.update(extra)
    return payload


def spec_to_payload(spec):
    return {"schema": GAME_SCHEMA, "kind": "grid", **_sizes(spec), **_plain(spec)}


def strategy_to_payload(strategy):
    """A strategy's document; a subclass is written as its document class."""
    cls = next((c for c in type(strategy).__mro__ if c in _CLASS_NAMES), None)
    if cls is None:
        raise TypeError(f"cannot serialize strategy of type {type(strategy)!r}")
    return {"schema": STRATEGY_SCHEMA, "class": _CLASS_NAMES[cls],
            **{f.name: _plain(getattr(strategy, f.name)) for f in fields(cls)}}


def certificate_to_payload(cert):
    return {"schema": CERTIFICATE_SCHEMA, **_plain(cert)}


def _load(path, schema, tag, classes):
    """Parse a document of `schema` whose `tag` entry names one of `classes`,
    and build that dataclass from the document fields of the same names,
    which leave the document: a game's nested lists of floats die as soon as
    the constructor has copied them.  Each size the document declares must be
    the built object's (_sizes).  Returns the dataclass and the rest."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be a JSON object")
    if doc.get("schema") != schema:
        raise ParseError(f"{path}: expected schema {schema!r}, found {doc.get('schema')!r}")
    name = doc.get(tag)
    cls = classes.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ParseError(f"{path}: expected {tag} {' or '.join(map(repr, classes))}, "
                         f"found {name!r}")
    try:
        obj = cls(**{f.name: _field(doc, f.name, path) for f in fields(cls)})
        for key, size in _sizes(obj).items():
            if key in doc and _integer(doc[key], key) != size:
                raise ValueError(f"declares {key} {doc[key]}, but its arrays give {size}")
        return obj, doc
    except (TypeError, ValueError, OverflowError) as exc:  # int(Infinity) overflows
        raise ParseError(f"{path}: {exc}") from exc


def _require_valid(report, path):
    if not report.ok:
        raise ValidationFailure(f"{path}:\n{report}")


def load_game(path):
    """Parse and validate a finite game document; parse errors and validation
    errors are distinguished for the exit-code contract.  Returns the game and
    the document's entries that are not its fields, such as a transform
    block."""
    game, doc = _load(path, GAME_SCHEMA, "kind", {"finite": FiniteCSG})
    _require_valid(validate_game(game), path)
    return game, doc


def load_spec(path):
    spec, doc = _load(path, GAME_SCHEMA, "kind", {"grid": ContinuousGameSpec})
    _require_valid(validate_spec(spec), path)
    return spec, doc


def load_strategy(path):
    """Parse a strategy document; returns the tagged object."""
    return _load(path, STRATEGY_SCHEMA, "class", _CLASSES)[0]


def _require_class(strategy, path, *wanted):
    actual = _CLASS_NAMES.get(type(strategy), "unknown")
    if actual not in wanted:
        raise ValidationFailure(f"{path}: this command needs a "
                                f"{' or '.join(map(repr, wanted))} strategy, found {actual!r}")
    return strategy


def _number(flag, convert=float, low=-math.inf, strict=False):
    """argparse type of a numeric flag.  Text that `convert` cannot parse stays
    argparse's usage error (exit 2).  A value that is not finite, or lies below
    `low` (or at it, if strict), raises ValidationFailure, which argparse does
    not catch and main reports as a validation error (exit 3)."""
    def parse(text):
        value = convert(text)
        # Compared, not converted to float, so a huge int is not an overflow.
        if not -math.inf < value < math.inf:
            raise ValidationFailure(f"{flag} must be finite; got {value}")
        if value < low or (strict and value == low):
            if low == 0:
                need = "positive" if strict else "nonnegative"
            else:
                need = f"{'greater than' if strict else 'at least'} {low}"
            raise ValidationFailure(f"{flag} must be {need}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


def _run(args):
    """Run one command and write its outputs to --out-dir.

    A command returns (results, documents, exit code).  Each document NAME is
    written to <command>.NAME.json and listed in the results as NAME_file.
    The report adds the digests of the positional inputs (game, spec,
    strategy) and the --seed of commands that take one; its timing block is
    excluded from the determinism contract.

    --out-dir is made before the command runs, so an unusable one fails at
    once; a run that fails removes the files and folders it made.
    """
    started = time.perf_counter()
    _DIGESTS.clear()
    out = Path(args.out_dir)
    made = [folder for folder in (out, *out.parents) if not folder.exists()][::-1]
    out.mkdir(parents=True, exist_ok=True)
    try:
        results, documents, code = args.func(args)
        for name, payload in documents.items():
            results[f"{name}_file"] = f"{args.command}.{name}.json"
            _write(out / results[f"{name}_file"], payload, made)
        inputs = [getattr(args, key) for key in ("game", "spec", "strategy") if hasattr(args, key)]
        report = {
            "schema": REPORT_SCHEMA,
            "version": __version__,
            "command": args.command,
            "inputs": {str(p): _digest(p) for p in inputs},
            "results": results,
        }
        if hasattr(args, "seed"):
            report["seed"] = args.seed
        report["timing"] = {"seconds": time.perf_counter() - started}
        path = out / f"{args.command}.report.json"
        _write(path, report, made)
    except BaseException:
        for path in reversed(made):
            if path.is_dir():
                path.rmdir()
            else:
                path.unlink()
        raise
    print(f"report: {path}")
    return code


def cmd_evaluate(args):
    game, _ = load_game(args.game)
    strategy = load_strategy(args.strategy)
    if isinstance(strategy, StationaryProfile):
        cv = evaluate_profile(game, strategy)
    elif isinstance(strategy, CorrelatedStrategy):
        cv = evaluate_correlated(game, strategy)
    else:
        if game.n_players != 1:
            raise ValidationFailure(
                "a markov strategy alone determines play only in a one-player game")
        cv = evaluate_markov(game, [], strategy)
    for i in range(game.n_players):
        print(f"player {i}: " + "  ".join(f"J{l}={cv.J[i, l]:.12g}"
                                          for l in range(game.n_layers + 1)))
    return {"values": cv.J, "values_per_state": cv.Jx}, {}, EXIT_OK


def cmd_simulate(args):
    game, _ = load_game(args.game)
    psi = _require_class(load_strategy(args.strategy), args.strategy, "stationary", "correlated")
    if isinstance(psi, StationaryProfile):
        psi = product_strategy(psi)
    sim = simulate(game, psi, n_trajectories=args.trajectories,
                   tol=args.tol, seed=args.seed)
    for i in range(game.n_players):
        line = "  ".join(
            f"J{l}={sim.estimates[i, l]:.6g}+-{sim.radii[i, l]:.2g}"
            for l in range(game.n_layers + 1))
        print(f"player {i}: {line}")
    print(f"horizon {sim.horizon}, truncation bias <= {sim.bias_bound:.3g}")
    return {
        "estimates": sim.estimates,
        "confidence_radii": sim.radii,
        "trajectories": sim.n_trajectories,
        "horizon": sim.horizon,
        "truncation_bias_bound": sim.bias_bound,
    }, {}, EXIT_OK


def cmd_best_respond(args):
    game, _ = load_game(args.game)
    profile = _require_class(load_strategy(args.strategy), args.strategy, "stationary")
    _check_psi(game, profile)
    result = constrained_best_response(_induced_mdp(game, profile, args.player))
    if not result.feasible:
        print("no strategy meets the budgets against this profile")
        return {"status": result.status}, {}, EXIT_CERTIFIED_FAIL
    print(f"best response value {result.value:.12g} "
          f"(layers {np.array2string(result.layer_values, precision=6)})")
    return {
        "status": result.status,
        "value": result.value,
        "layer_values": result.layer_values,
        "residuals": result.residuals,
    }, {"strategy": strategy_to_payload(StationaryProfile((result.strategy,)))}, EXIT_OK


def cmd_verify(args):
    game, _ = load_game(args.game)
    # Looked up at each call, so a wrapper put in this module's namespace runs.
    verify, wanted = {"approx": (verify_approx_equilibrium, "stationary"),
                      "statewise": (verify_statewise_equilibrium, "stationary"),
                      "weak-correlated": (verify_weak_correlated, "correlated")}[args.concept]
    strategy = _require_class(load_strategy(args.strategy), args.strategy, wanted)
    cert = verify(game, strategy, args.epsilon)
    payload = certificate_to_payload(cert)
    verdict = "PASS" if cert.passed else "FAIL"
    print(f"{verdict} {payload['concept']}: certified epsilon {cert.epsilon:.6g} "
          f"(threshold {cert.threshold:.6g})")
    return {
        "concept": payload["concept"],
        "epsilon": cert.epsilon,
        "threshold": cert.threshold,
        "passed": cert.passed,
    }, {"certificate": payload}, EXIT_OK if cert.passed else EXIT_CERTIFIED_FAIL


def cmd_solve(args):
    game, _ = load_game(args.game)
    config = SearchConfig(restarts=args.restarts, target_epsilon=args.target_eps,
                          seed=args.seed)
    result = search_equilibrium(game, config)
    verdict = "reached" if result.converged else "missed"
    print(f"certified epsilon {result.certificate.epsilon:.6g}; target "
          f"{args.target_eps:.6g} {verdict} after {result.iterations} iterations and "
          f"{result.newton_attempts} Newton attempts ({result.newton_adopted} adopted)")
    return {
        "epsilon": result.certificate.epsilon,
        "target": args.target_eps,
        "achieved": result.converged,
        "iterations": result.iterations,
        "restarts_used": result.restarts_used,
        "skipped_updates": len(result.skipped),
        "newton_attempts": result.newton_attempts,
        "newton_adopted": result.newton_adopted,
    }, {
        "strategy": strategy_to_payload(result.profile),
        "certificate": certificate_to_payload(result.certificate),
    }, EXIT_OK if result.converged else EXIT_CERTIFIED_FAIL


def cmd_discretize(args):
    spec, _ = load_spec(args.spec)
    resolution = (args.gamma if args.gamma is not None
                  else resolution_for(args.epsilon, spec.discount, spec.cost_bound))
    partition = build_partition(spec, resolution)
    disc = surrogate_game(spec, partition)
    print(f"{partition.n_cells} cells at resolution {resolution:.6g}; "
          f"certified error {disc.certified_error:.6g}")
    return {
        "resolution": partition.resolution,
        "certified_error": disc.certified_error,
        "n_cells": partition.n_cells,
    }, {
        "game": game_to_payload(disc.game, extra={"certified_error": disc.certified_error}),
        "partition": {"schema": "csgames-partition-v1",
                      "certified_error": disc.certified_error, **_plain(partition)},
    }, EXIT_OK


def cmd_transform(args):
    game, doc = load_game(args.game)
    block = doc.get("transform")
    if not isinstance(block, dict) or "omega" not in block or "beta" not in block:
        raise ValidationFailure(
            f"{args.game}: transform needs a 'transform' block with 'omega' and 'beta'")
    try:
        omega = _frozen_array(block["omega"])
        beta = _real(block["beta"], "beta")
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{args.game}: malformed transform block: {exc}") from exc
    wg = wessels_transform(game, omega, beta)
    print(f"bounded game with discount {wg.game.discount:.6g}, cost bound {wg.c0:.6g}, "
          f"value scale {wg.value_scale:.6g}")
    return {
        "eta_omega": wg.eta_omega,
        "c0": wg.c0,
        "beta": beta,
        "discount": wg.game.discount,
        "value_scale": wg.value_scale,
    }, {
        "game": game_to_payload(wg.game, extra={
            "transform_of": str(args.game),
            "eta_omega": wg.eta_omega,
            "c0": wg.c0,
            "value_scale": wg.value_scale,
        }),
    }, EXIT_OK


def cmd_correlated_sequence(args):
    game, _ = load_game(args.game)
    seq = correlated_limit_sequence(game, args.eps0, args.n, SearchConfig(seed=args.seed))
    levels = [{
        "n": level.index,
        "epsilon_target": level.epsilon_target,
        "resolution": level.resolution,
        "certified_epsilon": level.certificate.epsilon,
        "passed": level.certificate.passed,
    } for level in seq.levels]
    for row in levels:
        print(f"n={row['n']}: target {row['epsilon_target']:.6g}, certified "
              f"{row['certified_epsilon']:.6g}, resolution {row['resolution']:.6g}")
    results = {"levels": levels, "completed": seq.completed}
    if not seq.levels:
        return results, {}, EXIT_CERTIFIED_FAIL
    final = seq.final_certificate
    print(f"final weak-correlated epsilon {final.epsilon:.6g}")
    results.update({"final_epsilon": final.epsilon, "final_passed": final.passed})
    return results, {
        "strategy": strategy_to_payload(product_strategy(seq.levels[-1].profile)),
        "certificate": certificate_to_payload(final),
    }, EXIT_OK if seq.completed and final.passed else EXIT_CERTIFIED_FAIL


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and returned by every
    later one: a build costs more than many commands' work.  So the cmd_*
    functions its set_defaults(func=...) names are bound at that first build.
    """
    parser = argparse.ArgumentParser(
        prog="csgames",
        description="Constrained discounted stochastic games: evaluate, verify, "
                    "solve, discretize, transform.",
    )
    parser.add_argument("--version", action="version", version=f"csgames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(func, help, *inputs):
        p = sub.add_parser(func.__name__[len("cmd_"):].replace("_", "-"), help=help)
        for name in inputs:
            p.add_argument(name)
        p.add_argument("--out-dir", default=".", help="directory for outputs (default: .)")
        p.set_defaults(func=func)
        return p

    seed = {"type": _number("--seed", int, low=0), "default": SearchConfig.seed}
    command(cmd_evaluate, "exact discounted costs of a strategy", "game", "strategy")

    p = command(cmd_simulate, "Monte Carlo estimate of discounted costs", "game", "strategy")
    p.add_argument("--seed", **seed)
    p.add_argument("--trajectories", type=_number("--trajectories", int, low=2), default=10000)
    p.add_argument("--tol", type=_number("--tol", low=0, strict=True), default=1e-6,
                   help="truncation bias target (sets the horizon)")

    p = command(cmd_best_respond, "constrained best response of one player", "game", "strategy")
    p.add_argument("--player", type=int, required=True)

    p = command(cmd_verify, "certify a strategy as an equilibrium", "game", "strategy")
    p.add_argument("--concept", choices=["approx", "statewise", "weak-correlated"],
                   default="approx")
    p.add_argument("--epsilon", type=_number("--epsilon"), default=0.0,
                   help="accuracy to certify")

    p = command(cmd_solve, "search for an approximate equilibrium", "game")
    p.add_argument("--target-eps", type=_number("--target-eps"),
                   default=SearchConfig.target_epsilon)
    p.add_argument("--restarts", type=_number("--restarts", int, low=1),
                   default=SearchConfig.restarts)
    p.add_argument("--seed", **seed)

    p = command(cmd_discretize, "partition a gridded game and emit the surrogate", "spec")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--gamma", type=_number("--gamma", low=0, strict=True),
                       help="partition resolution")
    group.add_argument("--epsilon", type=_number("--epsilon", low=0, strict=True),
                       help="target certified error (sets the resolution)")

    p = command(cmd_transform, "rescale weighted costs into a bounded game")
    p.add_argument("game", help="game document with a 'transform' block (omega, beta)")

    p = command(cmd_correlated_sequence,
                "halving-target equilibrium sequence with a final weak-correlated certificate",
                "game")
    p.add_argument("--eps0", type=_number("--eps0", low=0, strict=True), required=True)
    p.add_argument("--n", type=_number("--n", int, low=0), required=True,
                   help="last level index")
    p.add_argument("--seed", **seed)

    return parser


def main(argv=None):
    try:
        return _run(build_parser().parse_args(argv))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (np.linalg.LinAlgError, RuntimeError) as exc:
        # Ahead of ValueError, which LinAlgError subclasses.
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (ValidationFailure, ValueError, MemoryError) as exc:
        # MemoryError: an input too large to hold, such as the per-trajectory
        # totals of `simulate --trajectories 10000000000000`.
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:  # --out-dir or an output in it cannot be made; the text names it
        print(f"cannot write output: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
