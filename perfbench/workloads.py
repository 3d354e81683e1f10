"""Seeded inputs for the four benchmark workloads.

A workload is a sequence of rounds.  Round r of a workload is a list of
points, each a call of one public fse function on a generated config and
coordinate.  Rounds are a pure function of (seed, r), so the same seed
gives the same inputs, and every round has the same shape (the same
strata of alpha and the same grids of the scaled coordinates), so the
route mix hardly varies with the seed.  A timed run evaluates a fixed
number of rounds (see run.py).

- delta-grid: six skewed delta wells (one per alpha stratum) and the
  README's well, fixed for the whole run, each on a grid in the scaled
  coordinate zeta; the wells' grids are staggered so a round covers zeta
  evenly, and each round shifts them by a van der Corput offset, so
  successive rounds refine them.
- param-sweep: fresh configs every round (no reuse across rounds),
  alternating delta wells (2 points, one each side of zeta = 5) and linear
  ramps (4 points, two on each side of the turning point).
- time-grid: eight time factors, fixed for the run, on t-grids spanning
  twice the radius of the Mittag-Leffler series ball.
- oracle: eight delta wells and four ramps, fixed for the run, on shifted
  grids like delta-grid's, through the two quadrature oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from fse import DeltaConfig, LinearConfig, TimeConfig

# CLI defaults: --tol 1e-9 is rel_tol for the closed forms and abs_tol for
# the quadrature route
REL_TOL = 1e-9
ABS_TOL = 1e-9

ALPHA_LO, ALPHA_HI = 1.0, 2.0     # alpha is drawn from the open interval
# the README's `fse delta --theta 0.25` well.  Its alpha = 1.5 makes pole
# chains collide exactly, so the confluent residue terms and digamma run;
# at a generic alpha they never do.
README_WELL = DeltaConfig(alpha=1.5, theta=0.25, c_alpha=1.0, energy=-1.0)

ZETA_MIN, ZETA_MAX = 0.05, 10.0   # the float64 series refuses past ~8
DELTA_GRID_CONFIGS = 6            # drawn wells, one per alpha stratum
DELTA_GRID_POINTS = 2             # per well per round, one per zeta half

SWEEP_PAIRS = 6                   # delta + linear config pairs per round
RAMP_Y_MIN, RAMP_Y_MAX = -6.0, 9.0

TIME_CONFIGS = 8                  # seven stratified beta < 1, plus beta = 1
TIME_POINTS = 50                  # per config per round
TAU_MAX = 2.0                     # t-grid end, in units of the ball edge

ORACLE_WELLS = 8                  # one per alpha stratum, fixed for the run
ORACLE_WELL_POINTS = 1            # per well per round
ORACLE_RAMPS = 4                  # fixed for the run, one per round in turn
ORACLE_RAMP_POINTS = 3            # per round, one per y third

@dataclass(frozen=True)
class Point:
    """One call: route is the public fse function name, coord its x or t."""

    route: str
    cfg: object
    coord: float
    scaled: float   # zeta (delta), y (linear) or t over the ball edge (time)

    @property
    def tol_kwargs(self) -> dict:
        if self.route.endswith("_quadrature"):
            return {"abs_tol": ABS_TOL}
        return {"rel_tol": REL_TOL}


def van_der_corput(n: int) -> float:
    """Base-2 radical inverse: 0, 1/2, 1/4, 3/4, 1/8, ..."""
    out, denom = 0.0, 1.0
    while n:
        denom *= 2.0
        n, bit = divmod(n, 2)
        out += bit / denom
    return out


def _alpha(rng, stratum: int, strata: int) -> float:
    """A uniform draw from stratum (lo, hi] of (ALPHA_LO, ALPHA_HI)."""
    width = (ALPHA_HI - ALPHA_LO) / strata
    # 1 - uniform lies in (0, 1], so alpha is never ALPHA_LO
    return float(ALPHA_LO + width * (stratum + 1.0 - rng.uniform()))


def _grid(lo: float, hi: float, n: int, offset: float) -> np.ndarray:
    """n evenly spaced points of [lo, hi), shifted by offset in [0, 1) cells."""
    return lo + (np.arange(n) + offset) * (hi - lo) / n


def _shuffled_grid(rng, lo: float, hi: float, n: int, r: int) -> np.ndarray:
    """Round r's shifted grid of n points in [lo, hi), in random order: the
    same set for every seed, so the route mix does not vary with the seed."""
    return rng.permutation(_grid(lo, hi, n, van_der_corput(r)))


def _skewed_delta(rng, alpha: float) -> DeltaConfig:
    lim = min(alpha, 2.0 - alpha)
    theta = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.9) * lim)
    return DeltaConfig(alpha=alpha, theta=theta,
                       c_alpha=float(rng.uniform(0.5, 2.0)),
                       energy=-float(rng.uniform(0.5, 2.0)))


def _ramp(rng, alpha: float) -> LinearConfig:
    lim = min(alpha, 2.0 - alpha)
    return LinearConfig(alpha=alpha,
                        theta=float(rng.uniform(-0.9, 0.9) * lim),
                        c_alpha=float(rng.uniform(0.5, 2.0)),
                        energy=float(rng.uniform(-1.0, 1.0)),
                        slope=float(rng.uniform(0.5, 2.0)))


def delta_x(cfg: DeltaConfig, zeta: float) -> float:
    """Coordinate whose scaled |x| is zeta (the inverse of the H argument map)."""
    return zeta * (cfg.hbar ** cfg.alpha * cfg.c_alpha / -cfg.energy) ** (
        1.0 / cfg.alpha)


def ramp_x(cfg: LinearConfig, y: float) -> float:
    """Coordinate whose scaled, turning-point-shifted value is y."""
    scale = (cfg.c_alpha / (cfg.hbar * cfg.slope * (cfg.alpha + 1.0))) ** (
        1.0 / (cfg.alpha + 1.0))
    return cfg.energy / cfg.slope + y * cfg.hbar * scale


def ball_edge_t(cfg: TimeConfig) -> float:
    """Time at which |z| leaves the ml_eval series ball.

    The radius 10 and root cap 12 are mittag.py's SERIES_RADIUS and
    SERIES_ROOT_CAP, written out so the inputs stay put if those change.
    """
    z_edge = min(10.0, 12.0 ** cfg.beta)
    return cfg.hbar * (z_edge / abs(cfg.energy)) ** (1.0 / cfg.beta)


def _delta_points(cfg, zetas, signs):
    return [Point("delta_closed_form", cfg, float(s * delta_x(cfg, z)), float(z))
            for z, s in zip(zetas, signs)]


def _ramp_points(route, cfg, ys):
    return [Point(route, cfg, float(ramp_x(cfg, y)), float(y)) for y in ys]


def delta_grid(seed: int, r: int) -> list[Point]:
    rng = np.random.default_rng([seed, 0])
    configs = [_skewed_delta(rng, _alpha(rng, i, DELTA_GRID_CONFIGS))
               for i in range(DELTA_GRID_CONFIGS)] + [README_WELL]
    signs = [1.0 if (j + r) % 2 == 0 else -1.0 for j in range(DELTA_GRID_POINTS)]
    out = []
    for c, cfg in enumerate(configs):
        offset = (van_der_corput(r) + c / len(configs)) % 1.0
        zetas = _grid(ZETA_MIN, ZETA_MAX, DELTA_GRID_POINTS, offset)
        out += _delta_points(cfg, zetas, signs)
    return out


def param_sweep(seed: int, r: int) -> list[Point]:
    rng = np.random.default_rng([seed, 1, r])
    n = SWEEP_PAIRS
    # every round covers each alpha stratum and the same zeta and y grids
    near = _shuffled_grid(rng, ZETA_MIN, 5.0, n, r)
    far = _shuffled_grid(rng, 5.0, ZETA_MAX, n, r)
    left = _shuffled_grid(rng, RAMP_Y_MIN, -0.2, 2 * n, r)
    right = _shuffled_grid(rng, 0.2, RAMP_Y_MAX, 2 * n, r)
    ramp_strata = rng.permutation(n)
    out = []
    for k in range(n):
        cfg = _skewed_delta(rng, _alpha(rng, k, n))
        out += _delta_points(cfg, (near[k], far[k]),
                             rng.choice((-1.0, 1.0), size=2))
        ramp = _ramp(rng, _alpha(rng, int(ramp_strata[k]), n))
        ys = (left[2 * k], left[2 * k + 1], right[2 * k], right[2 * k + 1])
        out += _ramp_points("linear_closed_form", ramp, ys)
    return out


def _time_configs(seed: int) -> list[TimeConfig]:
    rng = np.random.default_rng([seed, 2])
    strata = TIME_CONFIGS - 1
    betas = [0.3 + 0.7 * (i + rng.uniform(0.05, 0.95)) / strata
             for i in range(strata)] + [1.0]
    return [TimeConfig(beta=float(b), energy=-float(rng.uniform(0.5, 2.0)))
            for b in betas]


def time_grid(seed: int, r: int) -> list[Point]:
    # offsets 1/2, 1/4, 3/4, ... never put a point at t = 0
    taus = _grid(0.0, TAU_MAX, TIME_POINTS, van_der_corput(r + 1))
    out = []
    for cfg in _time_configs(seed):
        edge = ball_edge_t(cfg)
        out += [Point("time_factor", cfg, float(tau * edge), float(tau))
                for tau in taus]
    return out


def oracle(seed: int, r: int) -> list[Point]:
    rng = np.random.default_rng([seed, 3])
    wells = [_skewed_delta(rng, _alpha(rng, i, ORACLE_WELLS))
             for i in range(ORACLE_WELLS)]
    ramps = [_ramp(rng, _alpha(rng, i, ORACLE_RAMPS)) for i in range(ORACLE_RAMPS)]
    out = []
    for c, cfg in enumerate(wells):
        offset = (van_der_corput(r) + c / ORACLE_WELLS) % 1.0
        zetas = _grid(ZETA_MIN, ZETA_MAX, ORACLE_WELL_POINTS, offset)
        signs = [1.0 if (j + r) % 2 == 0 else -1.0 for j in range(len(zetas))]
        out += [Point("delta_quadrature", p.cfg, p.coord, p.scaled)
                for p in _delta_points(cfg, zetas, signs)]
    # x = 0 takes the non-oscillatory adaptive + algebraic-tail branch.  It
    # skips the first well (alpha <= 1.125): below alpha ~1.04 that branch
    # builds a non-finite EvalResult and raises an untyped ValidationError
    # instead of a typed refusal, a defect of fse, not a slow point.
    out.append(Point("delta_quadrature", wells[1 + r % (ORACLE_WELLS - 1)], 0.0, 0.0))
    ys = _grid(RAMP_Y_MIN, RAMP_Y_MAX, ORACLE_RAMP_POINTS, van_der_corput(r))
    out += _ramp_points("linear_quadrature", ramps[r % ORACLE_RAMPS], ys)
    return out


ROUNDS = {"delta-grid": delta_grid, "param-sweep": param_sweep,
          "time-grid": time_grid, "oracle": oracle}
WORKLOADS = tuple(ROUNDS)


def describe(points) -> dict:
    """Parameter ranges and counts of a point list, for the run record."""
    def span(values):
        return [min(values), max(values)] if values else None

    cfgs = list({id(p.cfg): p.cfg for p in points}.values())
    routes = {}
    for p in points:
        routes[p.route] = routes.get(p.route, 0) + 1
    out = {"points": len(points), "configs": len(cfgs), "routes": routes}
    for key in ("alpha", "theta", "beta"):
        vals = [getattr(c, key) for c in cfgs if hasattr(c, key)]
        if vals:
            out[key] = span(vals)
    energies = [complex(c.energy).real for c in cfgs]
    out["energy"] = span(energies)
    by_kind = {"delta": "zeta", "linear": "y", "time": "t_over_ball_edge"}
    for p in points:
        kind = p.route.split("_")[0]
        out.setdefault(by_kind[kind], []).append(p.scaled)
    for key in by_kind.values():
        if key in out:
            out[key] = span(out[key])
    return out
