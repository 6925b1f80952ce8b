"""Ground-truth numerics: quadrature, the grid curves and dense-grid monotonicity checks.

Everything in here works straight from the order definitions, independently of
the theorem machinery in :mod:`qorder.orders`, so it can arbitrate whenever the
certified path is in doubt.  Its authority is bounded by grid resolution; every
verdict records the grid size used.  Every curve read on the grid is one row of
one table, read through ``curve`` by the oracle, the ratio scans, aging and --curves.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ModelIntegrityError, QorderError, QuadratureError

__all__ = [
    "P_MIN",
    "GridVerdict",
    "quadrature",
    "logit_grid",
    "panel_nodes",
    "grid_sign",
    "hazard_rate",
    "curve",
    "lower_cumulative",
    "upper_cumulative",
    "order_oracle",
]

ORACLE_REL_TOL = 1e-9  # looser than quadrature tolerance by design
P_MIN = 1e-6  # the edge of every grid: logit_grid(n) runs from P_MIN to 1 - P_MIN
PANEL_SLICE = 512  # panels per slice of the node pass: 3,584 nodes, 28 KB

# the 7-point Gauss-Legendre rule of every grid panel, equal to leggauss(7) bit for
# bit; the panels are narrow enough that roundoff in p, not the rule's order, sets
# the panel error from n = 64 on
_GL_NODES = np.array((
    -0.9491079123427586, -0.7415311855993945, -0.4058451513773972, 0.0,
    0.4058451513773972, 0.7415311855993945, 0.9491079123427586,
))
_GL_WEIGHTS = np.array((
    0.12948496616886973, 0.27970539148927687, 0.3818300505051187, 0.4179591836734693,
    0.3818300505051187, 0.27970539148927687, 0.12948496616886973,
))

# quadrature is QUADPACK's dqagse (with dqk21, dqpsrt and dqelg) ported step for
# step; the comments name QUADPACK's labels, and the variables keep its names.
# dqk21's sums are taken as small matrix products, in another order than
# QUADPACK's, so they can differ from it in the last bits
_EPSABS = 1e-13
_LIMIT = 300
_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# dqk21: Kronrod abscissae x_1 > ... > x_10 > x_11 = 0 and their weights; the
# 10-point Gauss rule uses x_2, x_4, ..., x_10
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077600525452540, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _kronrod_tables():
    """The 21 abscissae in increasing order, -x_1 ... 0 ... x_1, and two matrices
    for the values f at them: f @ _SUMS is (f - reskh, f, resk, resg), reskh =
    resk / 2 being dqk21's mean value, and |f @ _SUMS| @ _ABS_SUMS is (resasc,
    resabs), all before scaling by the half-length."""
    off = np.array([-x for x in _XGK[:10]] + list(_XGK[::-1]))
    wk = np.array(_WGK + _WGK[9::-1])
    wg = np.zeros(21)
    for j, w in enumerate(_WG):  # x_(2j+2) sits at 2j+1 and 19-2j
        wg[2 * j + 1] = wg[19 - 2 * j] = w
    eye = np.eye(21)
    sums = np.hstack((eye - 0.5 * wk[:, None], eye, wk[:, None], wg[:, None]))
    abs_sums = np.zeros((44, 2))
    abs_sums[:21, 0] = abs_sums[21:42, 1] = wk
    return off, sums, abs_sums


_OFF, _SUMS, _ABS_SUMS = _kronrod_tables()
_X1 = _XGK[0]  # the outermost abscissa
_RESABS_MIN = _UFLOW / (50.0 * _EPMACH)  # dqk21 raises abserr to 50 eps resabs above it

_REASONS = {  # QUADPACK's ier codes
    1: f"the subdivision limit ({_LIMIT}) was reached",
    2: "roundoff error keeps the requested tolerance out of reach",
    3: "the integrand behaves extremely badly at some point of the interval",
    4: "roundoff error in the extrapolation table stops convergence",
    5: "the integral is probably divergent, or converges too slowly",
}

# what an integrand may raise on the node array, a model's DomainError among them
_INTEGRAND_FAULTS = (ZeroDivisionError, ValueError, FloatingPointError, DomainError)


def quadrature(fn, a, b, rel_tol=1e-8):
    """Adaptive quadrature of ``fn`` over (a, b); endpoint singularities allowed.

    ``fn`` takes an array of points in (a, b) and returns their values; it is
    called once per bisection step.  Raises QuadratureError when the requested
    relative tolerance cannot be achieved, which is also how divergent integrals
    surface, and when ``fn`` fails on the points.
    """
    if not a < b:
        raise DomainError(f"quadrature needs a < b, got ({a}, {b})")
    try:
        value, abserr, ier = _qagse(fn, float(a), float(b), rel_tol)
    except _INTEGRAND_FAULTS as exc:
        raise QuadratureError(
            f"quadrature on ({a}, {b}) did not converge: the integrand failed ({exc})"
        ) from exc
    if ier:
        raise QuadratureError(
            f"quadrature on ({a}, {b}) did not converge (possibly divergent): {_REASONS[ier]}"
        )
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature on ({a}, {b}) produced a non-finite value")
    if abserr > rel_tol * max(abs(value), 1.0) * 10.0:
        raise QuadratureError(
            f"quadrature on ({a}, {b}) error estimate {abserr:g} exceeds tolerance"
        )
    return value


def _kronrod(fn, a, b, hlgth, centr):
    """dqk21 on the intervals centr[i] -+ hlgth[i], one or the two halves of a
    bisection, with one call of fn on all their nodes: (result, abserr, resabs,
    resasc) per interval.  A node that rounds onto a or b, the ends of the whole
    integral, moves one ulp inside."""
    nodes = np.concatenate([_OFF * h + c for h, c in zip(hlgth, centr)])  # c -+ h * x_j
    if centr[0] - hlgth[0] * _X1 <= a or centr[-1] + hlgth[-1] * _X1 >= b:
        nodes = np.clip(nodes, math.nextafter(a, b), math.nextafter(b, a))
    vals = np.asarray(fn(nodes), dtype=float)
    if vals.shape != nodes.shape:  # a constant integrand, say
        vals = np.broadcast_to(vals, nodes.shape)
    sums = np.dot(vals.reshape(len(hlgth), 21), _SUMS)
    kg = sums[:, 42:].tolist()
    abs_sums = np.dot(np.abs(sums, out=sums), _ABS_SUMS).tolist()
    out = []
    for h, (resasc, resabs), (resk, resg) in zip(hlgth, abs_sums, kg):
        dhlgth = abs(h)
        resabs *= dhlgth
        resasc *= dhlgth
        abserr = abs((resk - resg) * h)
        if resasc != 0.0 and abserr != 0.0:
            scale = 200.0 * abserr / resasc
            abserr = resasc * (scale**1.5 if scale < 1.0 else 1.0)  # min(1, scale^1.5)
        if resabs > _RESABS_MIN:
            abserr = max(_EPMACH * 50.0 * resabs, abserr)
        out.append((resk * h, abserr, resabs, resasc))
    return out


def _qagse(fn, a, b, epsrel):
    """QUADPACK dqagse with epsabs = _EPSABS and limit = _LIMIT: (result, abserr, ier).

    Lists are 1-based, as in QUADPACK, with an unused slot 0; those of the
    subintervals grow by one entry per bisection."""
    epsabs, limit = _EPSABS, _LIMIT
    ier = 0
    # first approximation to the integral
    ((result, abserr, defabs, resabs),) = _kronrod(fn, a, b, [0.5 * (b - a)], [0.5 * (a + b)])
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier
    # initialization
    alist, blist, rlist, elist, iord = [0.0, a], [0.0, b], [0.0, result], [0.0, abserr], [0, 1]
    rlist2, res3la = [0.0, result] + [0.0] * 51, [0.0] * 4
    errmax, maxerr, area, errsum, abserr = abserr, 1, result, abserr, _OFLOW
    nrmax, nres, numrl2, ktmin = 1, 0, 2, 0
    extrap = noext = False
    iroff1 = iroff2 = iroff3 = ierro = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * defabs else -1
    to_sum = False  # leave through label 115 rather than 100
    bad_point, tiny = 1.0 + 100.0 * _EPMACH, 1000.0 * _UFLOW
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2, b2 = b1, blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = _kronrod(
            fn, a, b, [0.5 * (b1 - a1), 0.5 * (b2 - a2)], [0.5 * (a1 + b1), 0.5 * (a2 + b2)]
        )
        # improve previous approximations to integral and error, test for accuracy
        area12, erro12 = area1 + area2, error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12) or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)  # rlist[last]
        errbnd = max(epsabs, epsrel * abs(area))
        # roundoff, the subdivision limit and bad integrand behaviour at a point
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= bad_point * (abs(a2) + tiny):
            ier = 4
        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr], rlist[last] = area2, area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            to_sum = True
            break
        if ier != 0:
            break
        if last == 2:  # label 80
            small, erlarg, ertest = abs(b - a) * 0.375, errsum, errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap, nrmax = True, 2
        if not (ierro == 3 or erlarg <= ertest):  # label 40
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals (erlarg)
            # and extrapolate
            jupbnd = last if last <= 2 + limit // 2 else limit + 3 - last
            larger = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger = True
                    break
                nrmax += 1
            if larger:
                continue
        # label 60: extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # label 70: prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax, extrap = 1, False
        small *= 0.5
        erlarg = errsum
    if not to_sum:
        # label 100: set final result and error estimate
        if abserr == _OFLOW:
            to_sum = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr += correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                to_sum = abserr / abs(result) > errsum / abs(area)  # label 105
            elif abserr > errsum:
                to_sum = True
            elif area == 0.0:
                return result, abserr, ier - 1 if ier > 2 else ier
        if not to_sum and not (
            ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01
        ):
            # label 110: test on divergence
            ratio = result / area if area != 0.0 else (math.nan if result == 0.0 else math.inf)
            if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
                ier = 6
    if to_sum:  # label 115: compute global integral sum
        result = 0.0
        for k in range(1, last + 1):
            result += rlist[k]
        abserr = errsum
    return result, abserr, ier - 1 if ier > 2 else ier  # label 130


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """QUADPACK dqpsrt: keep iord, the indices of the error estimates elist, in
    descending order of error, and return (maxerr, errmax, nrmax) of the
    subinterval to bisect next."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        # after a difficult subdivision the error may have grown: the insert
        # starts above the nrmax-th largest error estimate
        errmax = elist[maxerr]
        while nrmax > 1:
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # the number of elements kept in descending order depends on the
        # number of subdivisions still allowed
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        # insert errmax by traversing the list top-down
        for i in range(nrmax + 1, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd], iord[jupbn] = maxerr, last
            maxerr = iord[nrmax]
            return maxerr, elist[maxerr], nrmax
        # label 60: insert errmin by traversing the list bottom-up
        iord[i - 1] = maxerr
        k = jbnd
        for _ in range(i, jbnd + 1):
            isucc = iord[k]
            if errmin < elist[isucc]:
                break
            iord[k + 1] = isucc
            k -= 1
        else:
            k = i - 1
        iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """QUADPACK dqelg, Wynn's epsilon algorithm on epstab[1..n]: (n, result,
    abserr, nres), updating epstab and res3la (the last three results) in place."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        limexp = 50
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = k1 = n
        converged = False
        for i in range(1, newelm + 1):
            k2, k3 = k1 - 1, k1 - 2
            res = epstab[k1 + 2]
            e0, e1, e2 = epstab[k3], epstab[k2], res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to within machine accuracy
                result, abserr, converged = res, err2 + err3, True
                break
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            # two elements very close to each other, or irregular behaviour:
            # omit a part of the table by adjusting n
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            if not abs(ss * e1) > 1e-4:
                n = i + i - 1
                break
            # label 30: a new element, which may replace the result
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 -= 2
            error = err2 + abs(res - e2) + err3
            if not error > abserr:
                abserr, result = error, res
        if not converged:
            # label 50: shift the table
            if n == limexp:
                n = 2 * (limexp // 2) - 1
            ib = 2 if num % 2 == 0 else 1
            for _ in range(newelm + 1):
                epstab[ib] = epstab[ib + 2]
                ib += 2
            if num != n:
                epstab[1 : n + 1] = epstab[num - n + 1 : num + 1]
            if nres < 4:
                res3la[nres] = result
                abserr = _OFLOW
            else:  # label 90
                abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                          + abs(result - res3la[1]))
                res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def logit_grid(n):
    """n points from P_MIN to 1 - P_MIN, uniform on the logit scale (dense near 0 and 1).

    Built once per n and shared by every caller, so the array is read-only."""
    return _logit_grid(n)[0]


def panel_nodes(n):
    """logit_grid(n)'s 7-point Gauss-Legendre panel nodes, flat: shared, read-only."""
    return _logit_grid(n)[2]


@functools.lru_cache(maxsize=32)
def _logit_grid(n):
    """(grid, panel half-widths, panel nodes)."""
    lo = math.log(P_MIN / (1.0 - P_MIN))
    t = np.linspace(lo, -lo, n)
    grid = 1.0 / (1.0 + np.exp(-t))
    half = 0.5 * np.diff(grid)
    mid = 0.5 * (grid[:-1] + grid[1:])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    for arr in (grid, half, nodes):
        arr.flags.writeable = False
    return grid, half, nodes


def _node_pass(qd, n):
    """(lower, upper): the 7-point Gauss-Legendre integrals of q*qd(q) and (1-q)*qd(q)
    on every panel of logit_grid(n).

    One pass over panel_nodes(n), PANEL_SLICE panels at a time: qd runs once per
    slice, on a read-only view of the nodes, and both integrands are reduced from its
    values, so no array larger than a slice of nodes is made.  Every panel's integral is
    the one a pass over the whole node array gives, bit for bit: a slice holds a
    multiple of 8 panels, so a BLAS kernel that reduces panels 4 or 8 at a time groups
    them as it would in the whole array."""
    half, nodes, k = _logit_grid(n)[1], panel_nodes(n), _GL_NODES.size
    lower, upper = np.empty_like(half), np.empty_like(half)
    for start in range(0, half.size, PANEL_SLICE):
        span = slice(start, start + PANEL_SLICE)
        q = nodes[start * k:(start + PANEL_SLICE) * k]
        vals = qd(q)
        part = q * vals
        lower[span] = half[span] * (part.reshape(-1, k) @ _GL_WEIGHTS)
        np.subtract(1.0, q, out=part)
        part *= vals
        upper[span] = half[span] * (part.reshape(-1, k) @ _GL_WEIGHTS)
        del vals, part  # so that qd on the next slice runs beside none of this one's arrays
    return lower, upper


def _panels(qd, n, shared, side):
    """The panel integrals ``side`` (0 lower, 1 upper) of _node_pass(qd, n), taken out
    of the dict ``shared``, where a pass run for the other side leaves them.  The caller
    owns the array it gets, so it may sum in place."""
    if side not in shared:
        shared.update(enumerate(_node_pass(qd, n)))
    return shared.pop(side)


def lower_cumulative(qd, n, shared):
    """I_k = integral of q*qd(q) over (0, grid[k]) on grid = logit_grid(n).

    The head (0, grid[0]) is integrated first, then the panels in one node pass.  A
    caller that reads upper_cumulative of the same qd too passes both calls one dict
    as ``shared``: the first to reach its panels runs the pass for both."""
    grid = logit_grid(n)
    head = quadrature(lambda q: q * qd(q), 0.0, float(grid[0]), rel_tol=1e-10)
    panels = _panels(qd, n, shared, 0)
    out = np.empty_like(grid)
    out[0] = head
    np.add(head, np.cumsum(panels, out=panels), out=out[1:])
    return out


def upper_cumulative(qd, n, shared):
    """U_k = integral of (1-q)*qd(q) over (grid[k], 1) on grid = logit_grid(n).

    The tail (grid[-1], 1) is integrated first; ``shared`` is lower_cumulative's."""
    grid = logit_grid(n)
    tail = quadrature(lambda q: (1.0 - q) * qd(q), float(grid[-1]), 1.0, rel_tol=1e-10)
    panels = _panels(qd, n, shared, 1)[::-1]
    out = np.empty_like(grid)
    out[-1] = tail
    np.add(tail, np.cumsum(panels, out=panels)[::-1], out=out[:-1])
    return out


@dataclass(frozen=True)
class GridVerdict:
    """Outcome of a dense-grid check.

    status is one of "Increasing", "Decreasing", "Constant", "Mixed".  For the
    pointwise-sign checks (ps, nbue) "Increasing" means the defining inequality
    holds in the forward direction everywhere, "Decreasing" in the reversed
    one, "Constant" means indistinguishable from equality.
    """

    status: str
    margin: float
    worst_violation: tuple | None
    n: int


def _classify_signs(lo, hi, deltas, scales):
    """Status, margin and worst violation of the steps ``deltas`` at ``scales``.

    The counting rule lives here alone: a step rises when it exceeds
    ORACLE_REL_TOL * scale and falls when it is below the negated bound, each an
    exact comparison (|d|/s > ORACLE_REL_TOL is a different test where a margin
    sits at the tolerance).  The margin is the least |d|/s over the counted
    steps; a worst violation, of a Mixed status, is the largest |d| among the
    minority's steps, as (lo[i], hi[i], |d|): a monotone verdict's step i spans
    (grid[i], grid[i + 1]), and grid_sign's value i is taken at the point
    (grid[i], grid[i])."""
    bound = np.multiply(scales, ORACLE_REL_TOL)
    rising = deltas > bound
    np.negative(bound, out=bound)
    falling = deltas < bound
    n_pos, n_neg = np.count_nonzero(rising), np.count_nonzero(falling)
    if not (n_pos or n_neg):
        return "Constant", 0.0, None
    size = np.abs(deltas)
    margin = float(np.divide(size, scales, out=bound).min(where=rising | falling,
                                                          initial=np.inf))
    if not (n_pos and n_neg):
        return ("Increasing" if n_pos else "Decreasing"), margin, None
    size *= falling if n_pos >= n_neg else rising
    idx = int(size.argmax())
    return "Mixed", margin, (float(lo[idx]), float(hi[idx]), float(abs(deltas[idx])))


def _monotone_verdict(grid, vals):
    """Adjacent-pair monotonicity of the values vals taken on grid."""
    mags = np.abs(vals)
    scales = np.maximum(mags[:-1], mags[1:])
    np.maximum(scales, 1e-300, out=scales)
    deltas = np.subtract(vals[1:], vals[:-1], out=mags[:-1])
    return GridVerdict(*_classify_signs(grid, grid[1:], deltas, scales), len(grid))


def grid_sign(grid, values, scales):
    """Pointwise sign check: all-positive maps to "Increasing" (forward holds).  A worst
    violation names its point i, as (grid[i], grid[i], |values[i]|)."""
    values = np.asarray(values, dtype=float)
    scales = np.maximum(np.asarray(scales, dtype=float), 1e-300)
    return GridVerdict(*_classify_signs(grid, grid, values, scales), len(grid))


def hazard_rate(qd, p):
    """The hazard rate 1/qd/(1-p) at the p-th quantile; qd, a point or an array, must be > 0."""
    if np.any(np.asarray(qd) <= 0.0):
        raise ModelIntegrityError("quantile density must be positive")
    return 1.0 / qd / (1.0 - p)


def _over(den, num):
    """num / den, den read first."""
    return num / den


def _known(obj, attr):
    """obj.attr, or nan when it fails: the mean or U that delta_ps or EPS only reports."""
    try:
        return getattr(obj, attr)
    except QorderError:
        return math.nan


# every curve read on the grid, by its --curves column name: its values on logit_grid(n)
# from profiles px of X and py of Y (or None), read in order; U/Q at Q <= 0, Q_Y/0 are +inf
_CURVES = {
    "p": lambda px, py: px.grid,
    "ratio_qd": lambda px, py: py.qd / px.qd,
    "delta": lambda px, py: px.q * curve("ratio_qd", px, py) - py.q,
    "delta_ps": lambda px, py: (px.q / _known(px.model(), "mean")
                                - py.q / _known(py.model(), "mean")),
    "quantile_ratio": lambda px, py: np.where(px.q != 0.0, py.q / px.q, math.inf),
    "lower_ratio": lambda px, py: _over(px.lower, py.lower),
    "upper_ratio": lambda px, py: _over(px.upper, py.upper),
    "eps_x": lambda px, py: np.where(px.q > 0.0, _known(px, "upper") / px.q, math.inf),
    "eps_y": lambda px, py: np.where(py.q > 0.0, _known(py, "upper") / py.q, math.inf),
    "hazard": lambda px, py: hazard_rate(px.qd, px.grid),
    "mrl": lambda px, py: px.upper / (1.0 - px.grid),
    # the integral of q/(1-q) over (0, p), over L
    "wa_surrogate": lambda px, py: (-np.log1p(-px.grid) - px.grid) / px.lower,
}


def curve(name, px, py=None):
    """The grid curve ``name`` from the grid profiles px of X and py of Y."""
    return _CURVES[name](px, py)


def order_oracle(X, Y, order, n=4096):
    """Grid-check the defining ratio/inequality of a transform order.

    Monotone-ratio orders (convex, star, qmit, dmrl) return the monotonicity
    verdict of the defining ratio; ps and nbue return a pointwise sign
    verdict (see GridVerdict).
    """
    px, py = X.profile(n), Y.profile(n)
    if order == "convex":
        vals = curve("ratio_qd", px, py)
        if np.any(~np.isfinite(vals)):
            raise DomainError("function not finite on the working grid")
        return _monotone_verdict(px.grid, vals)
    if order == "star":
        if np.any(px.q <= 0.0):
            raise DomainError("star oracle requires strictly positive quantiles of X")
        return _monotone_verdict(px.grid, curve("quantile_ratio", px, py))
    if order == "qmit":
        return _monotone_verdict(px.grid, curve("lower_ratio", px, py))
    if order == "ps":
        px.upper, py.upper  # a failing U fails ps here, before EPS reads it as nan
        if np.any(px.q <= 0.0) or np.any(py.q <= 0.0):
            raise DomainError("ps oracle requires strictly positive quantiles")
        eps_x, eps_y = curve("eps_x", px, py), curve("eps_y", px, py)
        return grid_sign(px.grid, eps_y - eps_x, np.maximum(eps_x, eps_y))
    if order not in ("dmrl", "nbue"):
        raise ValueError(f"unknown order {order!r}")
    ratio = curve("upper_ratio", px, py)
    if order == "dmrl":
        return _monotone_verdict(px.grid, ratio)
    const = Y.mean / X.mean
    return grid_sign(px.grid, ratio - const, np.maximum(ratio, const))
