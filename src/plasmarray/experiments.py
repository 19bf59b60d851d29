"""Named batch experiments behind the CLI subcommands.

Each `run_*` function takes an ExperimentConfig, returns the rows it
computed and (optionally) writes them as CSV: comma separated, header
row, `.` decimal separator, LF line endings, floats at the configured
significant-digit precision.  Re-running with the same config reproduces
the CSV byte for byte: grids are fixed tuples, solvers are deterministic
and rows are emitted in a fixed order.  `write_csv` formats the rows
column-wise in blocks of CSV_BLOCK_ROWS rows, all-float columns in numpy;
every cell keeps the bytes of the per-cell rule `_format_value` (`%e` for
floats).

Every experiment derives the material once per run and makes one
mediated-parameter call per chain and drive axis: `couplings` one per
chain length n, `spectra` one per n over the whole frequency grid, and
the concurrence and decay sweeps one per (n, detuning) intensity column.
Such a column then goes through the steady-state solve, the state
checks, the concurrence and the Dicke rotation as one stack (see
steadystate).

The concurrence and decay sweeps dispatch chain lengths to a process
pool when jobs > 1; workers share nothing mutable and results are
collected in task order.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ExperimentConfig
from .constants import NM, W_CM2_TO_W_M2, omega_to_wavelength_nm, wavelength_nm_to_omega
from .effective import decay_spectrum, mediated_params
from .exceptions import ConfigError, MemoryBudgetError
from .numerics import fit_exponential_decay, fit_quadratic
from .plasmonics import (
    ArrayGeometry,
    DrudeMetal,
    HostMedium,
    MaterialSystem,
    QdParams,
    derive_material,
    drive_rates,
)
from .steadystate import concurrence, dicke_populations, steady_state

__all__ = [
    "material_from",
    "geometry_from",
    "detuning_pair",
    "run_couplings",
    "run_spectra",
    "run_concurrence_sweep",
    "run_decay",
    "run_validate",
    "write_csv",
]

SEQUENCE_OF = {1: "1", 2: "2-6-10-14", 3: "3-7-11-15", 0: "4-8-12-16"}
SEQUENCE_OF_ODD1 = "5-9-13-17"  # n = 1 mod 4, n > 1


def material_from(cfg: ExperimentConfig) -> MaterialSystem:
    metal = DrudeMetal.from_ev(cfg.metal.omega_p_ev, cfg.metal.eps_inf, cfg.metal.gamma_p_ev)
    medium = HostMedium(cfg.medium.eps_m)
    return derive_material(
        metal, medium, cfg.geometry.r_nm * NM,
        include_radiative=cfg.metal.radiative_damping,
    )


def geometry_from(cfg: ExperimentConfig, n: int) -> ArrayGeometry:
    return ArrayGeometry(
        r=cfg.geometry.r_nm * NM,
        r0=cfg.geometry.r0_nm * NM,
        s=cfg.geometry.s_nm * NM,
        n=n,
        s_z=cfg.geometry.s_z,
    )


def detuning_pair(mode: str, delta_over_gamma: float, gamma_i: float) -> tuple:
    """Per-dot detunings (rad/s) for a named detuning mode."""
    delta = delta_over_gamma * gamma_i
    if mode == "none":
        return 0.0, 0.0
    if mode == "symmetric":
        return delta, delta
    if mode == "antisymmetric":
        return delta, -delta
    raise ConfigError(f"unknown detuning mode {mode!r}")


def _dots(cfg: ExperimentConfig, mat: MaterialSystem, mode: str,
          delta_over_gamma: float) -> QdParams:
    """The two dots at the single-particle resonance, detuned by `mode`."""
    d1, d2 = detuning_pair(mode, delta_over_gamma, cfg.qd.gamma_i)
    return QdParams.at_resonance(mat, cfg.geometry.r0_nm * NM, cfg.qd.gamma_i, d1, d2)


def _check_omega_mode(cfg: ExperimentConfig, experiment: str) -> None:
    """Refuse a run whose drive.omega_mode its experiment cannot use:
    spectra scans the wavelength grid (`grid`), every other experiment
    drives at the single-particle resonance omega_0 (`lspr`)."""
    needed = "grid" if experiment == "spectra" else "lspr"
    if cfg.drive.omega_mode != needed:
        raise ConfigError(f"{experiment} needs drive.omega_mode = {needed}, "
                          f"got {cfg.drive.omega_mode}")


def _sequence_label(n: int) -> str:
    if n == 1:
        return SEQUENCE_OF[1]
    if n % 4 == 1:
        return SEQUENCE_OF_ODD1
    return SEQUENCE_OF[n % 4]


def _format_value(value, precision: int) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.{precision - 1}e}"
    return str(value)


# Row blocks bound the writer's buffers: each is a (rows, bytes per row) uint8
# array and a keep-mask of the same shape.
CSV_BLOCK_ROWS = 1024

_FLOAT_TYPES = {float, np.float64}
_STR_TYPES = {int, str}  # cells that _format_value writes as str(cell)
_POW10 = np.array([float(10**i) for i in range(23)])  # exact up to 10**22
_PAIRS = np.array([b"%02d" % i for i in range(100)]).view(np.uint16)  # b"00" .. b"99"
_MINUS, _PLUS, _DOT, _E = b"-+.e"


def _text_cells(texts):
    """Left-aligned utf-8 bytes of each text and the mask of those bytes."""
    data = "".join(texts).encode("utf-8")
    lengths = np.fromiter(map(len, texts), np.intp, len(texts))
    if len(data) != lengths.sum():  # not all ASCII: count bytes, not characters
        lengths = np.fromiter((len(text.encode("utf-8")) for text in texts), np.intp,
                              len(texts))
    keep = np.arange(lengths.max(initial=0)) < lengths[:, None]
    chars = np.empty(keep.shape, np.uint8)
    chars[keep] = np.frombuffer(data, np.uint8)
    return chars, keep


def _float_cells(cells, precision: int):
    """The `%.{precision-1}e` bytes of a column of floats, decided in float64.

    With e = floor(log10|x|), the digits are rint(m) for m = |x| 10^k,
    k = precision - 1 - e, computed as one correctly rounded product or
    quotient by an exact power of ten (|k| <= 22).  Such an m is within half
    an ulp of the exact one, so rint(m) is the correctly rounded digit
    string unless m lies within that of a half-integer; and m strictly
    between 10^(p-1) and 10^p (both exact floats) proves e.  A cell is
    decided when all of that holds with a margin of 2 to 4 ulp, which
    leaves out every m >= 2^50 (so precision <= 16).  Digits that round up
    to 10^p carry into the exponent, and zero gets zero digits.  Every
    other cell (non-finite, |k| > 22, a tie or near-tie, or a log10 that
    landed one off next to a power of ten) takes `_format_value`.  A cell
    is [-]d[.ddd]e±dd plus one byte for the third exponent digit that only
    a `_format_value` cell can use.
    """
    p = precision
    x = np.fromiter(cells, np.float64, len(cells))
    a = np.abs(x)
    zero = a == 0.0
    usable = np.isfinite(a) & ~zero
    a[~usable] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    k = p - 1 - e
    power = _POW10[np.minimum(np.abs(k), 22)]
    m = np.multiply(a, power, where=k >= 0, out=np.empty_like(a))
    np.divide(a, power, where=k < 0, out=m)
    frac = m - np.floor(m)
    decided = usable & (np.abs(k) <= 22) & (m > float(10 ** (p - 1))) & (m < float(10**p))
    decided &= np.abs(frac - 0.5) > m * 2.0**-51  # 2 to 4 ulp of m off a tie
    digits = np.rint(m, where=decided, out=np.zeros_like(m)).astype(np.int64)
    carry = digits == 10**p
    digits[carry] //= 10
    e = np.where(decided, e + carry, 0)
    decided |= zero

    pairs = (p + 1) // 2
    words = np.empty((len(x), pairs), np.uint16)
    for j in range(pairs - 1, -1, -1):
        rest = digits // 100
        words[:, j] = _PAIRS[digits - 100 * rest]
        digits = rest
    digits = words.view(np.uint8)[:, 2 * pairs - p:]

    point = 1 if p > 1 else 0
    width = p + point + 6
    chars = np.empty((len(x), width), np.uint8)
    chars[:, 0] = _MINUS
    chars[:, 1] = digits[:, 0]
    chars[:, 2:2 + point] = _DOT
    chars[:, 2 + point:p + 1 + point] = digits[:, 1:]
    chars[:, p + 1 + point] = _E
    chars[:, p + 2 + point] = np.where(e < 0, _MINUS, _PLUS)
    chars[:, p + 3 + point:p + 5 + point] = _PAIRS[np.abs(e)].view(np.uint8).reshape(-1, 2)
    keep = np.ones((len(x), width), bool)
    keep[:, 0] = np.signbit(x)
    keep[:, -1] = False

    undecided = np.flatnonzero(~decided)
    if undecided.size:
        text, text_keep = _text_cells([_format_value(cells[i], p) for i in undecided.tolist()])
        chars[undecided, :text.shape[1]] = text
        keep[undecided] = False
        keep[undecided, :text.shape[1]] = text_keep
    return chars, keep


def _column_cells(column, precision: int):
    kinds = set(map(type, column))
    if kinds <= _FLOAT_TYPES and precision <= 16:  # m < 2^50 has at most 16 digits
        return _float_cells(column, precision)
    if kinds <= _STR_TYPES:
        return _text_cells(list(map(str, column)))
    return _text_cells([_format_value(cell, precision) for cell in column])


def write_csv(path: str, header, rows, precision: int = 12) -> None:
    """Write rows (a list or tuple of sequences of cells) with a header, LF
    endings.

    Each cell is written as `_format_value` gives it: floats in `%e` form at
    `precision` significant digits, ints and strings by `str`, None empty,
    booleans `true`/`false`, any other cell by `str`.  The rows are taken in
    blocks of at most CSV_BLOCK_ROWS and formatted column-wise: a column
    whose cells are all float or numpy float64 by `_float_cells` (at
    precision <= 16), one of ints and strings by `str`, any other cell by
    cell.  Each block is one
    uint8 buffer and keep-mask, written with one `write`.

    Raises ValueError, before the file is opened, for a precision below 1
    or a row whose length differs from the header's.
    """
    if precision < 1:
        raise ValueError(f"precision must be at least 1, got {precision}")
    lengths = set(map(len, rows)) - {len(header)}
    if lengths:
        raise ValueError(f"rows of {sorted(lengths)} cells under a header of {len(header)}")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, len(rows), CSV_BLOCK_ROWS):
            block = rows[start:start + CSV_BLOCK_ROWS]
            columns = [_column_cells(column, precision) for column in zip(*block)]
            ends = np.full((len(block), 1), ord(","), np.uint8)
            chars = np.concatenate([part for column, _ in columns for part in (column, ends)],
                                   axis=1)
            chars[:, -1] = ord("\n")
            keep = np.concatenate([part for _, mask in columns for part in (mask, ends > 0)],
                                  axis=1)
            fh.write(chars[keep].tobytes())


def _map_tasks(fn, tasks, jobs: int):
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# couplings: mediated G12/Gamma12 vs inter-dot distance at the resonance
# ---------------------------------------------------------------------------

COUPLINGS_HEADER = (
    "n", "d_qq_minus_2r0_um", "g_coh_rad_s", "gamma_diss_rad_s",
    "sequence", "fit_a0", "fit_a1", "fit_a2", "fit_rms",
)


def run_couplings(cfg: ExperimentConfig):
    """Mediated couplings at omega = omega_0 for each configured n.

    Per four-step sequence the dominant coupling (coherent for even n,
    dissipative for odd) is fit quadratically against d_qq - 2 r0; the fit
    columns repeat on every row of the sequence.
    """
    _check_omega_mode(cfg, "couplings")
    mat = material_from(cfg)
    qd = _dots(cfg, mat, "none", 0.0)
    drive = drive_rates(0.0, mat, qd, mat.omega_0)
    points = []
    for n in sorted(set(cfg.geometry.n)):
        geom = geometry_from(cfg, n)
        mp = mediated_params(geom, mat, qd, drive)
        dist_um = (geom.d_qq - 2.0 * geom.r0) / 1e-6
        points.append((n, dist_um, float(mp.g_coh), float(mp.gamma_diss)))

    fits = {}
    for label in set(_sequence_label(n) for n, *_ in points):
        members = [p for p in points if _sequence_label(p[0]) == label]
        if len(members) < 3:
            continue
        xs = [p[1] for p in members]
        # fit the coupling that is non-zero on this sequence
        ys = [p[2] if members[0][0] % 2 == 0 else p[3] for p in members]
        fits[label] = fit_quadratic(xs, ys)

    rows = []
    for n, dist_um, g_coh, gamma_diss in points:
        label = _sequence_label(n)
        fit = fits.get(label)
        rows.append((
            n, dist_um, g_coh, gamma_diss, label,
            fit.coefficients[0] if fit else None,
            fit.coefficients[1] if fit else None,
            fit.coefficients[2] if fit else None,
            fit.rms_residual if fit else None,
        ))
    if cfg.output.csv:
        write_csv(cfg.output.csv, COUPLINGS_HEADER, rows, cfg.output.precision)
    return rows


# ---------------------------------------------------------------------------
# spectra: collective decay rates across the frequency grid
# ---------------------------------------------------------------------------

SPECTRA_HEADER = (
    "n", "omega_rad_s", "lambda_nm", "gamma_s_rad_s", "gamma_a_rad_s",
    "gamma_tilde_rad_s", "g_coh_rad_s", "gamma_diss_rad_s", "omega_0_rad_s",
)


def run_spectra(cfg: ExperimentConfig):
    """Symmetric/antisymmetric decay rates over the wavelength grid."""
    _check_omega_mode(cfg, "spectra")
    if cfg.drive.lambda_max_nm <= cfg.drive.lambda_min_nm:
        raise ConfigError("lambda_max_nm must exceed lambda_min_nm")
    mat = material_from(cfg)
    qd = _dots(cfg, mat, "none", 0.0)
    # wavelength grid descending in lambda gives an ascending omega grid
    lam_lo, lam_hi = cfg.drive.lambda_min_nm, cfg.drive.lambda_max_nm
    npts = cfg.drive.lambda_points
    lambdas = lam_hi - np.arange(npts) * (lam_hi - lam_lo) / (npts - 1)
    omegas = wavelength_nm_to_omega(lambdas)
    rows = []
    for n in sorted(set(cfg.geometry.n)):
        spec = decay_spectrum(omegas, geometry_from(cfg, n), mat, qd)
        columns = (spec.omega, omega_to_wavelength_nm(spec.omega), spec.gamma_s,
                   spec.gamma_a, spec.gamma_tilde, spec.g_coh, spec.gamma_diss)
        rows += [(n, *values, mat.omega_0)
                 for values in zip(*(column.tolist() for column in columns))]
    if cfg.output.csv:
        write_csv(cfg.output.csv, SPECTRA_HEADER, rows, cfg.output.precision)
    return rows


# ---------------------------------------------------------------------------
# concurrence: stationary concurrence over (n, intensity, detuning)
# ---------------------------------------------------------------------------

CONCURRENCE_HEADER = (
    "n", "intensity_w_cm2", "delta_over_gamma", "concurrence",
    "rho_gg", "rho_ss", "rho_aa", "rho_ee",
)


def _concurrence_rows(cfg, mat, geom, deltas, phi, detuning_mode):
    """Rows of every (detuning, intensity) point of one chain driven at
    omega_0, detuning-major.

    Each detuning's intensity column is one mediated-parameter call and
    one steady-state stack.
    """
    intensities = np.array(cfg.drive.intensity_w_cm2, dtype=float)
    rows = []
    for delta_over_gamma in deltas:
        qd = _dots(cfg, mat, detuning_mode, delta_over_gamma)
        drive = drive_rates(intensities * W_CM2_TO_W_M2, mat, qd, mat.omega_0, phi)
        state = steady_state(mediated_params(geom, mat, qd, drive,
                                             phi_mode=cfg.drive.phi_mode))
        pops = dicke_populations(state)
        columns = zip(intensities.tolist(), concurrence(state).tolist(),
                      pops.rho_gg.tolist(), pops.rho_ss.tolist(),
                      pops.rho_aa.tolist(), pops.rho_ee.tolist())
        rows += [(geom.n, intensity, float(delta_over_gamma), *values)
                 for intensity, *values in columns]
    return rows


def _concurrence_task(args):
    """All (detuning, intensity) points of one n."""
    cfg, mat, n, deltas, phi, detuning_mode = args
    return _concurrence_rows(cfg, mat, geometry_from(cfg, n), deltas, phi, detuning_mode)


def run_concurrence_sweep(cfg: ExperimentConfig, jobs: int = 1):
    """Full (n, intensity, detuning) grid with Dicke populations.

    Returns (rows, optima) where optima maps n to the grid argmax
    (intensity*, delta*, concurrence*).
    """
    _check_omega_mode(cfg, "concurrence")
    deltas = cfg.qd.delta_over_gamma if cfg.qd.detuning_mode != "none" else (0.0,)
    phi = cfg.drive.phi_over_pi * math.pi
    mat = material_from(cfg)
    tasks = [
        (cfg, mat, n, deltas, phi, cfg.qd.detuning_mode)
        for n in sorted(set(cfg.geometry.n))
    ]
    chunks = _map_tasks(_concurrence_task, tasks, jobs)
    rows = [row for chunk in chunks for row in chunk]
    optima = {}
    for row in rows:
        n, intensity, delta, conc = row[0], row[1], row[2], row[3]
        if n not in optima or conc > optima[n][2]:
            optima[n] = (intensity, delta, conc)
    if cfg.output.csv:
        write_csv(cfg.output.csv, CONCURRENCE_HEADER, rows, cfg.output.precision)
    return rows, optima


# ---------------------------------------------------------------------------
# decay: optimal concurrence per n and per-sequence exponential fits
# ---------------------------------------------------------------------------

DECAY_HEADER = (
    "sequence", "n", "c_opt", "i_opt_w_cm2", "delta_opt_over_gamma",
    "fit_c0", "fit_tau",
)


def _decay_scheme(cfg: ExperimentConfig, n: int, g_coh_sign: float):
    """Drive scheme for the per-n optimization: (mode, delta grid, phi)."""
    deltas = cfg.qd.delta_over_gamma
    if n == 1:
        return "antisymmetric", tuple(d for d in deltas if d != 0.0) or (80.0,), 0.0
    if n % 2 == 0:
        matching = tuple(d for d in deltas if d * g_coh_sign > 0)
        return "symmetric", matching or (math.copysign(80.0, g_coh_sign),), 0.0
    if n % 4 == 3:
        return "none", (0.0,), 0.0
    return "none", (0.0,), math.pi


def _decay_task(args):
    """Optimize one n over its scheme's (intensity, detuning) grid."""
    cfg, mat, n = args
    geom = geometry_from(cfg, n)
    qd0 = _dots(cfg, mat, "none", 0.0)
    drive0 = drive_rates(0.0, mat, qd0, mat.omega_0)
    g_sign = math.copysign(1.0, mediated_params(geom, mat, qd0, drive0).g_coh or 1.0)
    mode, deltas, phi = _decay_scheme(cfg, n, g_sign)
    best = (-1.0, 0.0, 0.0)
    for row in _concurrence_rows(cfg, mat, geom, deltas, phi, mode):
        if row[3] > best[0]:
            best = (row[3], row[1], row[2])
    return n, _sequence_label(n), best[0], best[1], best[2]


def run_decay(cfg: ExperimentConfig, jobs: int = 1):
    """Optimal concurrence per n plus per-sequence exponential decay fits.

    The per-n drive scheme follows the parity rules: even n uses symmetric
    drive with detunings restricted to the sign of the coherent coupling;
    n = 3, 7, ... uses symmetric drive at zero detuning; n = 5, 9, ...
    uses the pi-phased (antisymmetric) drive; n = 1 uses antisymmetric
    detuning.  Fits use only strictly positive optima and need at least
    two of them per sequence.
    """
    _check_omega_mode(cfg, "decay")
    mat = material_from(cfg)
    tasks = [(cfg, mat, n) for n in sorted(set(cfg.geometry.n))]
    results = _map_tasks(_decay_task, tasks, jobs)

    fits = {}
    for label in set(r[1] for r in results):
        members = [(r[0], r[2]) for r in results if r[1] == label and r[2] > 0.0]
        if len(members) >= 2:
            fits[label] = fit_exponential_decay(
                [m[0] for m in members], [m[1] for m in members]
            )
    rows = []
    for n, label, c_opt, i_opt, delta_opt in sorted(results):
        fit = fits.get(label) if label != "1" else None
        rows.append((
            label, n, c_opt, i_opt, delta_opt,
            fit.coefficients[0] if fit else None,
            fit.coefficients[1] if fit else None,
        ))
    if cfg.output.csv:
        write_csv(cfg.output.csv, DECAY_HEADER, rows, cfg.output.precision)
    return rows, fits


# ---------------------------------------------------------------------------
# validate: effective model against the explicit-mode simulation
# ---------------------------------------------------------------------------

VALIDATE_HEADER = (
    "n", "fock_levels", "intensity_w_cm2", "c_eff", "c_full", "abs_diff", "error",
)


def run_validate(cfg: ExperimentConfig):
    """Concurrence discrepancy table, effective vs explicit-mode model,
    over drive.intensity_w_cm2.

    Each chain length is one explicit-model case: it contributes a row per
    intensity, or, when its estimate exceeds solver.memory_budget_gb, one
    structured error row instead of aborting the whole run.
    """
    # the explicit-mode model serves this subcommand alone; import it on demand
    from .fullmodel import FockConfig, validate_against_effective

    _check_omega_mode(cfg, "validate")
    mat = material_from(cfg)
    if cfg.qd.detuning_mode != "none" and len(cfg.qd.delta_over_gamma) != 1:
        raise ConfigError("validate expects a single qd.delta_over_gamma value")
    delta = cfg.qd.delta_over_gamma[0] if cfg.qd.detuning_mode != "none" else 0.0
    qd = _dots(cfg, mat, cfg.qd.detuning_mode, delta)
    phi = cfg.drive.phi_over_pi * math.pi
    budget = int(cfg.solver.memory_budget_gb * 2**30)
    rows = []
    summaries = {}
    for n in sorted(set(cfg.geometry.n)):
        geom = geometry_from(cfg, n)
        fock = FockConfig(n=n, fock_levels=cfg.solver.fock_levels,
                          memory_budget_bytes=budget)
        try:
            table = validate_against_effective(
                geom, mat, qd, fock,
                [i * W_CM2_TO_W_M2 for i in cfg.drive.intensity_w_cm2], phi=phi,
            )
        except MemoryBudgetError as exc:
            rows.append((n, cfg.solver.fock_levels, None, None, None, None, str(exc)))
            continue
        for intensity, row in zip(cfg.drive.intensity_w_cm2, table.rows):
            rows.append((n, cfg.solver.fock_levels, float(intensity),
                         row.c_eff, row.c_full, row.abs_diff, ""))
        summaries[n] = table.max_abs_diff
    if cfg.output.csv:
        write_csv(cfg.output.csv, VALIDATE_HEADER, rows, cfg.output.precision)
    return rows, summaries
