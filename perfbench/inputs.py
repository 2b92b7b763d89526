"""Seeded inputs for the benchmark workloads.

Uses numpy only and never imports zesolver: the solver receives nothing but
the configs and arguments built from these values.  Every input is a pure
function of the seed.

Draws come from a Halton sequence rotated by a seeded random shift
(Cranley-Patterson rotation).  Each prefix of it is spread evenly over the
sampled ranges, so a run that stops after any number of ops has seen about
the same mix of inputs whatever the seed; that keeps run-to-run spread low.
"""

from __future__ import annotations

import math

import numpy as np

PRIMES = (2, 3, 5, 7, 11, 13, 17, 19)

#: The README instance: T_int = 0.0125, T_fin = 2/15, masses (4, -2).
README_PARAMS = {"mu1": 5.0, "mu2": 8.0, "q1": 2.0, "q2": 10.0, "x1": -1.0, "x2": 1.0}


def halton(n, dims, rng):
    """First n points of the shifted Halton sequence in [0, 1)^dims, as lists."""
    index = np.arange(1, n + 1)
    cols = []
    for base in PRIMES[:dims]:
        col = np.zeros(n)
        k = index.copy()
        f = 1.0 / base
        while k.any():
            col += f * (k % base)
            k //= base
            f /= base
        cols.append(col)
    return ((np.stack(cols, axis=1) + rng.random(dims)) % 1.0).tolist()


def cone_params(u):
    """Instance of the valid cone from six uniforms (acceptance 9's law).

    mu1~U(1,6), mu2=mu1+U(0.5,5), q1~U(0.5,mu1), q2~U(mu2,3mu2),
    x1~U(-2,0), x2=x1+U(0.5,3).
    """
    mu1 = 1.0 + 5.0 * u[0]
    mu2 = mu1 + 0.5 + 4.5 * u[1]
    q1 = 0.5 + (mu1 - 0.5) * u[2]
    q2 = mu2 + 2.0 * mu2 * u[3]
    x1 = -2.0 + 2.0 * u[4]
    x2 = x1 + 0.5 + 2.5 * u[5]
    return {"mu1": mu1, "mu2": mu2, "q1": q1, "q2": q2, "x1": x1, "x2": x2}


def event_times(p):
    """Closed-form event times of the two-plateau scenario."""
    mu1, mu2, q1, q2, x1, x2 = (p[k] for k in ("mu1", "mu2", "q1", "q2", "x1", "x2"))
    t_int = (x2 - x1) / (q1 * q2 * (q2 - q1))
    t3 = t_int * (q2 - q1) ** 2 / (q1 - mu2) ** 2
    t6 = t_int * (q2 - q1) ** 2 / (q2 - mu1) ** 2
    num = 2.0 * mu1 * mu2 + 2.0 * q1 * q2 - (q1 + q2) * (mu1 + mu2)
    t_fin = (x2 - x1) * num / (q1 * q2 * (mu1 - mu2) ** 3)
    return {
        "T_int": t_int,
        "T_3": t3,
        "T_6": t6,
        "T_9": t3 * (mu2 - q1) / (mu1 - q1),
        "T_10": t6 * (mu1 - q2) / (mu2 - q2),
        "T_fin": t_fin,
    }


def exact_mass(p):
    """Initial (integral u1 dx, integral u2 dx) of the plateau on [x1, x2]."""
    mu1, mu2, q1, q2 = p["mu1"], p["mu2"], p["q1"], p["q2"]
    width = p["x2"] - p["x1"]
    u1 = mu2 * (q1 - mu1) * (q2 - mu1) / (q1 * q2 * (mu1 - mu2))
    u2 = mu1 * (q1 - mu2) * (q2 - mu2) / (q1 * q2 * (mu2 - mu1))
    return [u1 * width, u2 * width]


def scenario_sweep(seed, n=1024):
    """Cone instances, each with one Z5-era time and one time past T_fin."""
    u = halton(n, 8, np.random.default_rng(seed))
    ops = []
    for row in u:
        p = cone_params(row)
        T = event_times(p)
        t_z5 = T["T_int"] + (0.1 + 0.8 * row[6]) * (T["T_fin"] - T["T_int"])
        t_late = T["T_fin"] * (1.1 + 1.9 * row[7])
        ops.append({"params": p, "times": [t_z5, t_late], "mass": exact_mass(p)})
    return {"samples": 4096, "ops": ops}


def profile_frames(seed, n=8192):
    """README instance; times log-uniform on [0.05 T_int, 3 T_fin]."""
    p = README_PARAMS
    T = event_times(p)
    lo, hi = math.log(0.05 * T["T_int"]), math.log(3.0 * T["T_fin"])
    return {
        "params": p,
        "mass": exact_mass(p),
        "samples": 1024,
        "t_max": 3.0 * T["T_fin"],
        "times": [math.exp(lo + (hi - lo) * x)
                  for (x,) in halton(n, 1, np.random.default_rng(seed))],
    }


#: Margins of the general data's domain, in plateau widths.  The seed scan
#: walks rows of a from the domain's left edge, so the left margin sets its
#: length: at 10 widths an op takes 0.5-1.2 s and only 14-22 complete in a
#: 20 s run, too few for a tail; at 2 widths ops take 0.05-0.5 s and 60-80
#: complete.  About one march in six then stops at the domain's left edge.
DOMAIN_LEFT = 2.0
DOMAIN_RIGHT = 10.0


def general_march(seed, n=256):
    """Two-plateau data of cone instances at one time in (T_int, min(T_3, T_6)).

    The window reaches 5% of its width beyond the outer shocks
    x1 + q1 mu1 mu2 t and x2 + q2 mu1 mu2 t.  The data's domain reaches
    DOMAIN_LEFT plateau widths left of x1 and DOMAIN_RIGHT right of x2.
    """
    u = halton(n, 7, np.random.default_rng(seed))
    ops = []
    for row in u:
        p = cone_params(row)
        T = event_times(p)
        t_end = min(T["T_3"], T["T_6"])
        t = T["T_int"] + (0.1 + 0.8 * row[6]) * (t_end - T["T_int"])
        speed = p["mu1"] * p["mu2"]
        lo = p["x1"] + p["q1"] * speed * t
        hi = p["x2"] + p["q2"] * speed * t
        pad = 0.05 * (hi - lo)
        width = p["x2"] - p["x1"]
        ops.append({
            "params": p,
            "t": t,
            "window": [lo - pad, hi + pad],
            "domain": [p["x1"] - DOMAIN_LEFT * width, p["x2"] + DOMAIN_RIGHT * width],
        })
    return {"ops": ops}


#: Coarse grids N of the FV comparison; each op runs N and 2N.
FV_CELLS = (200, 250, 300)


def fv_compare(seed, n=1024):
    """README instance; one time in [0.005, 0.02] and grids N, 2N per op."""
    u = halton(n, 2, np.random.default_rng(seed))
    ops = []
    for row in u:
        cells = FV_CELLS[min(int(row[1] * len(FV_CELLS)), len(FV_CELLS) - 1)]
        ops.append({"t": 0.005 + 0.015 * row[0], "cells": [cells, 2 * cells]})
    return {
        "params": README_PARAMS,
        "fv": {"cfl": 0.45, "x_min": -3.0, "x_max": 7.0},
        "ops": ops,
    }


GENERATORS = {
    "scenario_sweep": scenario_sweep,
    "profile_frames": profile_frames,
    "general_march": general_march,
    "fv_compare": fv_compare,
}
