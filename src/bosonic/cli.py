"""Command-line front end.

Exit codes: 0 success, then one table, ``_EXIT_CODES``, for every error a
command raises: 1 I/O or parse error, 2 domain validation error, 3 resource
cap exceeded or out of memory, 4 a Fock block whose trace fails its
certificate check (``FockTraceError``).  The group's ``invoke`` prints
``error: <message>`` and exits with the first matching row's code; an error
in no row propagates.  click's usage errors keep click's exit 2, and ``state
validate`` exits 2 after printing a failed report.  All JSON floats carry 17
significant digits so payloads round-trip exactly; wall-clock time is
reported in a separate field so data payloads stay byte-identical across
runs.
"""

from __future__ import annotations

import json
import math
import sys
import time

import click
import numpy as np

from . import capacity as cap_mod
from .states import (
    GaussianState,
    PureAmplifier,
    PureLoss,
    beam_splitter,
    displacement,
    apply_transform,
    mean_photon_number,
    reduce_state,
    state_from_dict,
    state_to_dict,
    thermal_state,
    tmsv_state,
    two_mode_squeezer,
    validate_state,
)
from .tail import (
    CutoffCapError,
    DimensionCapError,
    FockTraceError,
    cutoff_for_error,
    tail_bound_closed,
    tail_bound_optimized,
)

# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats


def _fmt_float(x: float) -> str:
    if math.isfinite(x):
        s = format(float(x), ".17g")  # "g" writes its exponent with a lowercase e
        return s if "." in s or "e" in s else s + ".0"
    if math.isnan(x):
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def _encode(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {_encode(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_encode(v) for v in seq) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(payload) -> None:
    click.echo(_encode(payload))


def _load_state(path: str) -> GaussianState:
    with open(path, "r", encoding="utf-8") as fh:
        return state_from_dict(json.load(fh))


#: channel name -> (the option that sets its parameter, the channel type)
_CHANNELS = {"loss": ("lam", PureLoss), "amp": ("g", PureAmplifier)}


def _check_channel_options(channel: str, values: dict) -> None:
    """Refuse a given channel-parameter option, one whose value in ``values``
    (by option name) is not None, that ``channel`` does not read, with a
    domain error that names both options: nothing would read it."""
    option = _CHANNELS[channel][0]
    for other, value in values.items():
        if value is not None and other != option:
            raise ValueError(f"--{other} does not apply to --channel {channel}, "
                             f"which reads --{option}")


def _parse_channel(channel: str, lam: float | None, g: float | None):
    values = {"lam": lam, "g": g}
    option, make = _CHANNELS[channel]
    if values[option] is None:
        raise ValueError(f"--channel {channel} needs --{option}")
    made = make(values[option])  # its value checks come first, as in sweep
    _check_channel_options(channel, values)
    return made


def _split(option: str, text: str, cast=str) -> list:
    """The comma-separated entries of ``option``'s value, each stripped and
    read by ``cast``; an empty or unreadable entry is a domain error that
    names the option."""
    values = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            raise ValueError(f"{option}: empty entry in {text!r}")
        try:
            values.append(cast(token))
        except ValueError:
            raise ValueError(f"{option}: cannot read {token!r} as {cast.__name__}") from None
    return values


def _distinct(option: str, text: str) -> list[str]:
    """``_split`` of a list of names, each at most once: a repeated name is
    a domain error that names the option, as its rows would be written
    twice."""
    names = _split(option, text)
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"{option}: {name!r} is listed twice in {text!r}")
    return names


# ---------------------------------------------------------------------------

#: the exit code of each error a command raises: the first row that names
#: its type wins, and an error in no row propagates
_EXIT_CODES = (
    ((CutoffCapError, DimensionCapError, MemoryError), 3),
    ((FockTraceError,), 4),
    ((OSError, json.JSONDecodeError), 1),
    ((ValueError, TypeError, RuntimeError), 2),
)
#: what follows "out of memory", by command
_MEMORY_HINTS = {"tracedist": "; a lower BOSONIC_FOCK_CAP stops a Fock basis before it "
                              "outgrows memory, or raise eps"}


class _Guarded(click.Group):
    """A group whose commands' errors end as ``error: <message>`` on stderr
    and the exit code ``_EXIT_CODES`` gives them."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise  # click's own RuntimeErrors, --help's among them
        except Exception as exc:
            code = next((code for kinds, code in _EXIT_CODES if isinstance(exc, kinds)), None)
            if code is None:
                raise
            message = str(exc)
            if isinstance(exc, MemoryError):
                message = "out of memory" + _MEMORY_HINTS.get(ctx.invoked_subcommand, "")
            click.echo(f"error: {message}", err=True)
            sys.exit(code)


@click.group(cls=_Guarded)
def main():
    """Gaussian-state numerics: tail bounds, trace distances, capacity bounds."""


# ----------------------------------------------------------------- state ---


@main.group()
def state():
    """Create, validate and manipulate Gaussian state files."""


@state.command("thermal")
@click.option("--n", "photons", type=float, required=True, help="Mean photon number.")
def state_thermal(photons):
    _emit(state_to_dict(thermal_state(photons)))


@state.command("tmsv")
@click.option("--n", "photons", type=float, required=True, help="Mean photon number per arm.")
def state_tmsv(photons):
    _emit(state_to_dict(tmsv_state(photons)))


@state.command("validate")
@click.argument("path", type=click.Path())
def state_validate(path):
    report = validate_state(_load_state(path))
    _emit(report.to_dict())
    if not report.ok:
        sys.exit(2)


@state.command("photon")
@click.argument("path", type=click.Path())
def state_photon(path):
    _emit(mean_photon_number(_load_state(path)))


@state.command("reduce")
@click.argument("path", type=click.Path())
@click.option("--keep", required=True, help="Comma-separated mode indices to keep.")
def state_reduce(path, keep):
    _emit(state_to_dict(reduce_state(_load_state(path), _split("--keep", keep, int))))


@state.command("evolve")
@click.argument("path", type=click.Path())
@click.option("--beam-splitter", "bs", type=float, default=None,
              help="Apply a beam splitter of this transmissivity.")
@click.option("--two-mode-squeezer", "tms", type=float, default=None,
              help="Apply a two-mode squeezer of this gain.")
@click.option("--displace", default=None,
              help="Comma-separated phase-space shift (length 2k).")
@click.option("--modes", default=None, help="Comma-separated target modes.")
def state_evolve(path, bs, tms, displace, modes):
    chosen = [x for x in (bs, tms, displace) if x is not None]
    if len(chosen) != 1:
        raise ValueError("pick exactly one of --beam-splitter, "
                         "--two-mode-squeezer, --displace")
    if bs is not None:
        transform = beam_splitter(bs)
    elif tms is not None:
        transform = two_mode_squeezer(tms)
    else:
        transform = displacement(_split("--displace", displace, float))
    targets = None if modes is None else _split("--modes", modes, int)
    _emit(state_to_dict(apply_transform(_load_state(path), transform, targets)))


# ------------------------------------------------------------------ tail ---


@main.command("tail")
@click.argument("path", type=click.Path())
@click.option("--m", "cutoff", type=int, default=None, help="Photon cutoff M.")
@click.option("--target-eps", type=float, default=None,
              help="Pick the smallest cutoff certifying this truncation error.")
def tail_cmd(path, cutoff, target_eps):
    """Photon-number tail bounds for a Gaussian state file."""
    if (cutoff is None) == (target_eps is None):
        raise ValueError("give exactly one of --m or --target-eps")
    s = _load_state(path)
    m = cutoff if cutoff is not None else cutoff_for_error(s, target_eps)
    closed = tail_bound_closed(s, m)
    optimized = tail_bound_optimized(s, m)
    _emit(
        {
            "closed": closed.bound,
            "optimized": optimized.bound,
            "optimizer_x": optimized.optimizer_x,
            "cutoff": m,
        }
    )


# ------------------------------------------------------------- tracedist ---


@main.command("tracedist")
@click.argument("path_a", type=click.Path())
@click.argument("path_b", type=click.Path())
@click.option("--eps", type=float, required=True, help="Certified accuracy target.")
@click.option("--dump-fock", "dump_prefix", default=None,
              help="Write the raw (unnormalized) truncated Fock blocks to "
                   "PREFIX.a.json / PREFIX.b.json.")
def tracedist_cmd(path_a, path_b, eps, dump_prefix):
    """Certified trace distance between two Gaussian state files."""
    # the Fock build loads for this command only
    from .fock import fock_matrix_elements, fock_to_dict
    from .tracedist import gaussian_trace_distance

    sa = _load_state(path_a)
    sb = _load_state(path_b)
    start = time.perf_counter()
    result = gaussian_trace_distance(sa, sb, eps)
    seconds = time.perf_counter() - start
    if dump_prefix is not None:
        for suffix, st in (("a", sa), ("b", sb)):
            block = fock_matrix_elements(st, result.cutoff)
            with open(f"{dump_prefix}.{suffix}.json", "w", encoding="utf-8") as fh:
                fh.write(_encode(fock_to_dict(block)) + "\n")
    _emit(
        {
            "estimate": result.estimate,
            "certified_error": result.certified_error,
            "cutoff": result.cutoff,
            "fock_dim": result.fock_dim,
            "seconds": seconds,
        }
    )


# -------------------------------------------------------------- capacity ---

_METHODS = ("asymptotic", "aep", "improved", "ec-aep", "ec-variance", "best", "upper")


def _check_method(method: str) -> None:
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}, got {method!r}")


def _rate(channel, task, photons):
    """The asymptotic rate: unconstrained, or at ``photons`` input photons."""
    if photons is None:
        return cap_mod.asymptotic_capacity(channel, task)
    return cap_mod.ec_asymptotic(channel, task, photons)


def _evaluate_method(method, channel, task, n, eps, photons):
    if method == "asymptotic":
        result = {"value": _rate(channel, task, photons), "task": task, "method": "asymptotic"}
        return result if photons is None else result | {"Ns": photons}
    if n is None or eps is None:
        raise ValueError(f"method {method} needs --n and --eps")
    if method in cap_mod.BOUND_FAMILIES:
        return cap_mod.BOUND_FAMILIES[method].evaluate(channel, n, eps, task, photons)
    if method == "best":
        return cap_mod.best_lower_bound(channel, n, eps, task, photons=photons)
    return cap_mod.upper_bound_nshot(channel, n, eps, task)


@main.command("capacity")
@click.option("--channel", required=True, type=click.Choice(list(_CHANNELS)))
@click.option("--lam", type=float, default=None, help="Loss transmissivity (--channel loss).")
@click.option("--g", type=float, default=None, help="Amplifier gain (--channel amp).")
@click.option("--task", required=True, type=click.Choice(list(cap_mod.TASKS)))
@click.option("--method", required=True, type=click.Choice(list(_METHODS)))
@click.option("--n", type=int, default=None, help="Number of channel uses.")
@click.option("--eps", type=float, default=None, help="Error tolerance.")
@click.option("--ns", type=float, default=None, help="Input mean photon number.")
def capacity_cmd(channel, lam, g, task, method, n, eps, ns):
    """Evaluate one capacity bound; emits the bound with its breakdown."""
    ch = _parse_channel(channel, lam, g)
    # every given Ns, n and eps is checked, whether or not the method reads it, as in sweep
    for check, value in ((cap_mod.check_photons, ns), (cap_mod.check_n, n),
                         (cap_mod.check_eps, eps)):
        if value is not None:
            check(value)
    result = _evaluate_method(method, ch, task, n, eps, ns)
    payload = result.to_dict() if isinstance(result, cap_mod.CapacityBound) else result
    _emit(payload)


@main.command("complexity")
@click.option("--channel", required=True, type=click.Choice(list(_CHANNELS)))
@click.option("--lam", type=float, default=None, help="Loss transmissivity (--channel loss).")
@click.option("--g", type=float, default=None, help="Amplifier gain (--channel amp).")
@click.option("--task", required=True, type=click.Choice(list(cap_mod.TASKS)))
@click.option("--k", type=float, required=True, help="Bits to transmit/generate.")
@click.option("--eps", type=float, required=True)
@click.option("--ns", type=float, default=None, help="Input mean photon number.")
def complexity_cmd(channel, lam, g, task, k, eps, ns):
    """Channel uses that suffice, and are necessary, for k bits at error eps."""
    ch = _parse_channel(channel, lam, g)
    sufficient = cap_mod.channel_uses_sufficient(ch, k, eps, task, photons=ns)
    necessary = cap_mod.channel_uses_necessary(ch, k, eps)
    _emit({"sufficient_n": sufficient, "necessary_n": necessary})


# ----------------------------------------------------------------- sweep ---


def _parse_range(option: str, spec: str) -> list[float]:
    """``option``'s start:stop:count[:log] or single value; a malformed
    range is a domain error that names the option."""
    try:
        parts = spec.split(":")
        if len(parts) == 1:
            return [float(parts[0])]
        if len(parts) not in (3, 4):
            raise ValueError(f"range must be start:stop:count[:log], got {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"range count must be >= 1, got {count}")
        for text, value in zip(parts, (start, stop)):
            if not math.isfinite(value):
                raise ValueError(f"range endpoints must be finite, got {text!r} in {spec!r}")
        if len(parts) == 4:
            if parts[3] != "log":
                raise ValueError(f"range suffix must be 'log', got {parts[3]!r}")
            if start <= 0 or stop <= 0:
                raise ValueError("log spacing needs positive endpoints")
            vals = np.geomspace(start, stop, count)
        else:
            vals = np.linspace(start, stop, count)
    except ValueError as exc:
        raise ValueError(f"{option}: {exc}") from None
    return [float(v) for v in vals]


#: the vacuous and preconditions_met cells that end a row, by 2 * vacuous + met
_ROW_ENDS = (",false,false\n", ",false,true\n", ",true,false\n", ",true,true\n")


def _block_coeffs(method, channel, task, ns_list, eps_list):
    """Per Ns and eps the (a, b, c, n_min) of every candidate family, at one
    (method, task, channel parameter).  Each family's eps-free rate is
    computed once per Ns, and only its eps terms once per eps; a family
    that does not read Ns (``improved``, ``aep``, the converse) is computed
    at the first Ns and reused for the rest.  An asymptotic rate r is the
    one row (0, 0, -r, 0): ``bound_value`` sums 0 n - 0 sqrt(n) + r to r bit
    for bit, and n_min = 0 leaves every row's preconditions met.

    The method, task, channel and photon checks run in the order the per-row
    library calls make them, so the first error is theirs: a reused family
    passed the same checks at the first Ns.  The n, eps and Ns axes are
    checked before any block.
    """
    _check_method(method)
    if method == "asymptotic":  # a bare rate: reads neither n nor eps
        return [[[(0.0, 0.0, -_rate(channel, task, ns), 0.0)]] * len(eps_list)
                for ns in ns_list]
    if method == "upper":
        return [[[cap_mod.converse_coeffs(channel, eps, task)] for eps in eps_list]] * len(ns_list)
    if method == "best":
        families = cap_mod.best_families(type(channel), ns_list[0] is not None)
    else:
        families = [cap_mod.BOUND_FAMILIES[method]]
        families[0].check_applies(channel, ns_list[0])
    shared = {}  # by method: the eps terms of a family that does not read Ns
    blocks = []
    for ns in ns_list:
        columns = []
        for family in families:
            terms = shared.get(family.method)
            if terms is None:
                a, spread = family.rate(channel, task, ns)
                terms = [(a, *family.eps_terms(spread, eps, task)) for eps in eps_list]
                if not family.needs_photons:
                    shared[family.method] = terms
            columns.append(terms)
        blocks.append(list(zip(*columns)))  # (eps, family)
    return blocks


def _grid_values(method, blocks, n_list) -> tuple[np.ndarray, np.ndarray]:
    """The values of the rows of one (method, task), shaped (channel
    parameter, Ns, n, eps), and their ``_ROW_ENDS`` indices, from the
    ``_block_coeffs`` of every channel parameter.

    Every method's whole grid is one ``bound_value`` call and one ``first_max``
    over the family axis, so every value has the bits of the per-row call.
    """
    a, b, c, n_min = np.moveaxis(np.array(blocks, dtype=float), -1, 0)[:, :, :, None]
    n = np.array(n_list, dtype=float)[:, None, None]
    values, _ = cap_mod.bound_value(a, b, c, n)  # (parameter, Ns, n, eps, family)
    best = cap_mod.first_max(values)[..., None]
    value = np.take_along_axis(values, best, -1)[..., 0]
    met = np.take_along_axis(n >= n_min, best, -1)[..., 0]
    return value, 2 * ((method != "upper") & (value < 0)) + met


def _sweep_grids(methods, tasks, kind, params, ns_list, n_list, eps_list):
    """Every (method, task) grid of a sweep, in row order, as the cells its
    rows start with, its values shaped (channel parameter, Ns, n, eps) and
    their ``_ROW_ENDS`` indices; the first invalid input raises before any
    grid is returned."""
    make_channel = _CHANNELS[kind][1]
    channels = {}  # by position, built at first use as the per-row calls would
    grids = []
    for method in methods:
        family = cap_mod.BOUND_FAMILIES.get(method)
        if family is not None and not family.covers(make_channel):
            continue  # a family skips the channel it does not cover
        direction = {"asymptotic": "exact", "upper": "upper"}.get(method, "lower")
        for task in tasks:
            if method == "upper" and task in cap_mod.TASKS and task not in cap_mod.CONVERSE_TASKS:
                continue  # a task the converse does not cover; an unknown one is refused
            blocks = []
            for i, param in enumerate(params):
                if i not in channels:
                    channels[i] = make_channel(param)
                blocks.append(_block_coeffs(method, channels[i], task, ns_list, eps_list))
            grids.append((f"{method},{task},{direction},", *_grid_values(method, blocks, n_list)))
    return grids


def _fmt_floats(values: np.ndarray) -> np.ndarray:
    """``_fmt_float`` of every entry of a float64 array, as an object array
    of the same shape.  Each distinct bit pattern is formatted once, so 0.0
    and -0.0 keep their own text and every NaN reads NaN."""
    keys, inverse = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    texts = np.array([_fmt_float(x) for x in keys.view(np.float64).tolist()], dtype=object)
    return texts[inverse.reshape(-1)].reshape(values.shape)


def _sweep_text(grids, kind, params, ns_list, n_list, eps_list):
    """The CSV rows of each grid of ``_sweep_grids``, one string per grid.

    A row is joined from four pieces: its (method, task, direction, channel
    parameter, Ns) cells, its (n, eps) cells, its value and its flag cells.
    Every value of the sweep is formatted by one ``_fmt_floats``.
    """
    param_cells = [f"{_fmt_float(p)}," if kind == "loss" else f",{_fmt_float(p)}"
                   for p in params]
    ns_cells = ["" if ns is None else _fmt_float(ns) for ns in ns_list]
    heads = [f"{param_cell},{ns_cell}," for param_cell in param_cells for ns_cell in ns_cells]
    mids = np.array([f"{n},{_fmt_float(eps)}," for n in n_list for eps in eps_list], dtype=object)
    ends = np.array(_ROW_ENDS, dtype=object)
    texts = _fmt_floats(np.concatenate([np.empty(0), *(value.ravel() for _, value, _ in grids)]))
    start = 0
    for prefix, value, flags in grids:
        pieces = np.empty((len(heads), mids.size, 4), dtype=object)
        pieces[..., 0] = np.array([prefix + head for head in heads], dtype=object)[:, None]
        pieces[..., 1] = mids
        pieces[..., 2] = texts[start:start + value.size].reshape(len(heads), -1)
        pieces[..., 3] = ends[flags].reshape(len(heads), -1)
        start += value.size
        yield "".join(pieces.ravel().tolist())


_SWEEP_HEADER = "method,task,direction,lambda,g,Ns,n,eps,value,vacuous,preconditions_met"

#: sweep's range of each channel parameter when its option is not given
_SWEEP_DEFAULTS = {"lam": "0.5", "g": "2.0"}


@main.command("sweep")
@click.option("--channel", required=True, type=click.Choice(list(_CHANNELS)))
@click.option("--methods", default="best", show_default=True,
              help="Comma-separated method names.")
@click.option("--tasks", default="Q2", show_default=True, help="Comma-separated tasks.")
@click.option("--lam", help="Transmissivity range start:stop:count[:log] "
              f"(--channel loss; default {_SWEEP_DEFAULTS['lam']}).")
@click.option("--g", help="Gain range start:stop:count[:log] "
              f"(--channel amp; default {_SWEEP_DEFAULTS['g']}).")
@click.option("--ns", default=None, help="Photon-number range (optional).")
@click.option("--n", default="100", show_default=True,
              help="Channel-use range; range points are truncated toward zero, "
                   "a single value must be an integer.")
@click.option("--eps", default="0.1", show_default=True, help="Error range.")
@click.option("--out", required=True, type=click.Path(), help="CSV output path.")
def sweep_cmd(channel, methods, tasks, lam, g, ns, n, eps, out):
    """Evaluate bounds over a parameter grid and write CSV.

    Row order follows the nested loops (method, task, channel parameter,
    Ns, n, eps).  Each family's eps-free rate is computed once per (method,
    task, channel parameter, Ns) and its eps terms once per eps; a family
    that does not read Ns (``improved``, ``aep``, the converse) is computed
    once per (method, task, channel parameter).  The grid of one (method,
    task) is then evaluated as arrays, each value digit for digit the one
    ``bosonic capacity`` reports, and each distinct value is formatted once.
    Nothing is written until every value is computed; then the rows of each
    grid are written as one string.  A repeated --methods or --tasks entry,
    or a given option of the other channel, is refused.
    """
    values = {"lam": lam, "g": g}
    method_list = _distinct("--methods", methods)
    task_list = _distinct("--tasks", tasks)
    option = _CHANNELS[channel][0]
    params = _parse_range(f"--{option}", _SWEEP_DEFAULTS[option] if values[option] is None
                          else values[option])
    # every listed n, eps and Ns is checked, whether or not a method reads it;
    # n range points are truncated toward zero, a single n must be an integer
    ns_list = [None] if ns is None else [cap_mod.check_photons(v)
                                         for v in _parse_range("--ns", ns)]
    n_list = [cap_mod.check_n(int(v) if ":" in n and math.isfinite(v) else v)
              for v in _parse_range("--n", n)]
    eps_list = [cap_mod.check_eps(v) for v in _parse_range("--eps", eps)]
    grids = _sweep_grids(method_list, task_list, channel, params, ns_list, n_list, eps_list)
    # after every value check, which keeps its place before this one
    _check_channel_options(channel, values)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write(_SWEEP_HEADER + "\n")
        for text in _sweep_text(grids, channel, params, ns_list, n_list, eps_list):
            fh.write(text)
    click.echo(f"wrote {sum(value.size for _, value, _ in grids)} rows to {out}")


if __name__ == "__main__":
    main()
