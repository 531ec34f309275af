"""Adaptive Gauss-Kronrod quadrature: a port of QUADPACK's QAGS and QAGI.

Piessens, de Doncker-Kapenga, Ueberhuber and Kahaner, *QUADPACK* (1983):
``dqagse`` on a finite interval with the 21-point Kronrod rule, ``dqagie``
on an infinite one with the 15-point rule after ``x = bound + (1 - t)/t``,
each bisecting the interval of largest error (``dqpsrt`` keeps the error
list ordered) and extrapolating with the epsilon algorithm (``dqelg``).
Every operation is a Python float operation in QUADPACK's order, so a
value and its error bound equal ``scipy.integrate.quad``'s bit for bit.

The adaptive loop is written once, as a step machine per piece (a
generator that yields the two halves it bisects next and receives their
rule results).  :func:`integrate` advances many pieces round by round and
hands every node of a round to one call of a vector node function, so a
caller that evaluates nodes as a batch pays one call per round.  A piece
whose first rule already meets QUADPACK's exit test never starts a
machine.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Collection, Generator, Sequence

__all__ = ["NodeFunction", "integrate", "quad"]

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max
_LIMEXP = 50

# 21-point Kronrod abscissae and weights, and the 10-point Gauss weights
# of the abscissae XGK21[1::2]
_XGK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_WGK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# 15-point Kronrod rule and the 7-point Gauss weights (zero off its nodes)
_XGK15 = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK15 = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_WG7 = (
    0.0, 0.129484966168869693270611432679082,
    0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975,
    0.0, 0.417959183673469387755102040816327,
)

_ABS_FLOOR = _UFLOW / (50.0 * _EPMACH)

#: ``f(xs, owners) -> (values, failed)``: the integrand at every node of a
#: round, ``owners[k]`` the index of the piece node ``k`` belongs to, and
#: the pieces whose nodes could not be evaluated (they stop, unfinished).
NodeFunction = Callable[[list, list], tuple[Sequence[float], Collection[int]]]


def _error_bound(resk: float, resg: float, hlgth: float, resabs: float,
                 resasc: float) -> float:
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        q = 200.0 * abserr / resasc
        # min(1, q**1.5), without the float power overflowing for huge q
        abserr = resasc * q ** 1.5 if q < 1.0 else resasc * 1.0
    if resabs > _ABS_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return abserr


class _Finite:
    """``dqk21`` on ``(a, b)``: 21 nodes, the centre first, then
    ``centr - absc`` and ``centr + absc`` for each abscissa."""

    count = 21

    @staticmethod
    def nodes(a: float, b: float) -> list:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        x0, x1, x2, x3, x4, x5, x6, x7, x8, x9 = _XGK21
        d0, d1, d2, d3, d4 = hlgth * x0, hlgth * x1, hlgth * x2, hlgth * x3, hlgth * x4
        d5, d6, d7, d8, d9 = hlgth * x5, hlgth * x6, hlgth * x7, hlgth * x8, hlgth * x9
        return [centr,
                centr - d0, centr - d1, centr - d2, centr - d3, centr - d4,
                centr - d5, centr - d6, centr - d7, centr - d8, centr - d9,
                centr + d0, centr + d1, centr + d2, centr + d3, centr + d4,
                centr + d5, centr + d6, centr + d7, centr + d8, centr + d9]

    @staticmethod
    def rule(a: float, b: float, f: Sequence[float]) -> tuple:
        # the sums run in dqk21's order: Gauss pairs (odd j) first, then
        # the Kronrod pairs; resasc runs over j in order
        (fc, l0, l1, l2, l3, l4, l5, l6, l7, l8, l9,
         r0, r1, r2, r3, r4, r5, r6, r7, r8, r9) = f
        w0, w1, w2, w3, w4, w5, w6, w7, w8, w9, w10 = _WGK21
        g1, g3, g5, g7, g9 = _WG10
        s0, s1, s2, s3, s4 = l0 + r0, l1 + r1, l2 + r2, l3 + r3, l4 + r4
        s5, s6, s7, s8, s9 = l5 + r5, l6 + r6, l7 + r7, l8 + r8, l9 + r9
        resg = 0.0 + g1 * s1 + g3 * s3 + g5 * s5 + g7 * s7 + g9 * s9
        resk = (w10 * fc + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9
                + w0 * s0 + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8)
        resabs = (abs(w10 * fc) + w1 * (abs(l1) + abs(r1)) + w3 * (abs(l3) + abs(r3))
                  + w5 * (abs(l5) + abs(r5)) + w7 * (abs(l7) + abs(r7))
                  + w9 * (abs(l9) + abs(r9)) + w0 * (abs(l0) + abs(r0))
                  + w2 * (abs(l2) + abs(r2)) + w4 * (abs(l4) + abs(r4))
                  + w6 * (abs(l6) + abs(r6)) + w8 * (abs(l8) + abs(r8)))
        h = resk * 0.5
        resasc = (w10 * abs(fc - h) + w0 * (abs(l0 - h) + abs(r0 - h))
                  + w1 * (abs(l1 - h) + abs(r1 - h)) + w2 * (abs(l2 - h) + abs(r2 - h))
                  + w3 * (abs(l3 - h) + abs(r3 - h)) + w4 * (abs(l4 - h) + abs(r4 - h))
                  + w5 * (abs(l5 - h) + abs(r5 - h)) + w6 * (abs(l6 - h) + abs(r6 - h))
                  + w7 * (abs(l7 - h) + abs(r7 - h)) + w8 * (abs(l8 - h) + abs(r8 - h))
                  + w9 * (abs(l9 - h) + abs(r9 - h)))
        hlgth = 0.5 * (b - a)
        dhlgth = abs(hlgth)
        resabs = resabs * dhlgth
        resasc = resasc * dhlgth
        return (resk * hlgth, _error_bound(resk, resg, hlgth, resabs, resasc),
                resabs, resasc)


class _Infinite:
    """``dqk15i`` on ``(a, b)`` in ``t``, which maps to
    ``x = boun + dinf (1 - t)/t``; with ``inf == 2`` each node adds ``f(-x)``."""

    def __init__(self, boun: float, inf: int):
        self.boun = boun
        self.inf = inf
        self.dinf = float(min(1, inf))
        self.count = 30 if inf == 2 else 15

    @staticmethod
    def _ts(a: float, b: float) -> list:
        centr = 0.5 * (a + b)
        hlgth = 0.5 * (b - a)
        x0, x1, x2, x3, x4, x5, x6 = _XGK15
        d0, d1, d2, d3 = hlgth * x0, hlgth * x1, hlgth * x2, hlgth * x3
        d4, d5, d6 = hlgth * x4, hlgth * x5, hlgth * x6
        return [centr,
                centr - d0, centr - d1, centr - d2, centr - d3, centr - d4,
                centr - d5, centr - d6,
                centr + d0, centr + d1, centr + d2, centr + d3, centr + d4,
                centr + d5, centr + d6]

    def nodes(self, a: float, b: float) -> list:
        boun, dinf = self.boun, self.dinf
        xs = [boun + dinf * (1.0 - t) / t for t in self._ts(a, b)]
        return xs + [-x for x in xs] if self.inf == 2 else xs

    def rule(self, a: float, b: float, f: Sequence[float]) -> tuple:
        # dqk15i's order; the Gauss weights include its zeros, as
        # 0 * inf is nan there too
        ts = self._ts(a, b)
        if self.inf == 2:
            f = [f[k] + f[15 + k] for k in range(15)]
        (fc, l0, l1, l2, l3, l4, l5, l6,
         r0, r1, r2, r3, r4, r5, r6) = [(v / t) / t for v, t in zip(f, ts)]
        w0, w1, w2, w3, w4, w5, w6, w7 = _WGK15
        g0, g1, g2, g3, g4, g5, g6, g7 = _WG7
        s0, s1, s2, s3 = l0 + r0, l1 + r1, l2 + r2, l3 + r3
        s4, s5, s6 = l4 + r4, l5 + r5, l6 + r6
        resg = (g7 * fc + g0 * s0 + g1 * s1 + g2 * s2 + g3 * s3 + g4 * s4
                + g5 * s5 + g6 * s6)
        resk = (w7 * fc + w0 * s0 + w1 * s1 + w2 * s2 + w3 * s3 + w4 * s4
                + w5 * s5 + w6 * s6)
        resabs = (abs(w7 * fc) + w0 * (abs(l0) + abs(r0)) + w1 * (abs(l1) + abs(r1))
                  + w2 * (abs(l2) + abs(r2)) + w3 * (abs(l3) + abs(r3))
                  + w4 * (abs(l4) + abs(r4)) + w5 * (abs(l5) + abs(r5))
                  + w6 * (abs(l6) + abs(r6)))
        h = resk * 0.5
        resasc = (w7 * abs(fc - h) + w0 * (abs(l0 - h) + abs(r0 - h))
                  + w1 * (abs(l1 - h) + abs(r1 - h)) + w2 * (abs(l2 - h) + abs(r2 - h))
                  + w3 * (abs(l3 - h) + abs(r3 - h)) + w4 * (abs(l4 - h) + abs(r4 - h))
                  + w5 * (abs(l5 - h) + abs(r5 - h)) + w6 * (abs(l6 - h) + abs(r6 - h)))
        hlgth = 0.5 * (b - a)
        resasc = resasc * hlgth
        resabs = resabs * hlgth
        return (resk * hlgth, _error_bound(resk, resg, hlgth, resabs, resasc),
                resabs, resasc)


def _first_exit(first: tuple, epsabs: float, epsrel: float,
                limit: int) -> tuple[float, float] | None:
    """``(result, abserr)`` when QUADPACK stops after its first rule."""
    result, abserr, defabs, resabs = first
    errbnd = max(epsabs, epsrel * abs(result))
    if ((abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd) or limit == 1
            or (abserr <= errbnd and abserr != resabs) or abserr == 0.0):
        return result, abserr
    return None


def _dqpsrt(limit: int, last: int, maxerr: int, elist: list, iord: list,
            nrmax: int) -> tuple[int, float, int]:
    """Keep ``iord`` ordered by decreasing error; gives the next
    ``(maxerr, errmax, nrmax)``.  Lists are 1-based."""
    if last <= 2:
        iord[1] = 1
        iord[2] = 2
    else:
        errmax = elist[maxerr]
        if nrmax != 1:
            for _ in range(nrmax - 1):
                isucc = iord[nrmax - 1]
                if errmax <= elist[isucc]:
                    break
                iord[nrmax] = isucc
                nrmax -= 1
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        jbnd = jupbn - 1
        ibeg = nrmax + 1
        for i in range(ibeg, jbnd + 1):
            isucc = iord[i]
            if errmax >= elist[isucc]:
                # insert errmin by traversing the list bottom-up
                iord[i - 1] = maxerr
                k = jbnd
                for _ in range(i, jbnd + 1):
                    isucc = iord[k]
                    if errmin < elist[isucc]:
                        iord[k + 1] = last
                        break
                    iord[k + 1] = isucc
                    k -= 1
                else:
                    iord[i] = last
                break
            iord[i - 1] = isucc
        else:
            iord[jbnd] = maxerr
            iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(n: int, epstab: list, res3la: list, nres: int
           ) -> tuple[int, float, float, int]:
    """One step of the epsilon algorithm on ``epstab[1..n]`` (1-based);
    gives ``(n, result, abserr, nres)``."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n >= 3:
        epstab[n + 2] = epstab[n]
        newelm = (n - 1) // 2
        epstab[n] = _OFLOW
        num = n
        k1 = n
        for i in range(1, newelm + 1):
            k2 = k1 - 1
            k3 = k1 - 2
            res = epstab[k1 + 2]
            e0 = epstab[k3]
            e1 = epstab[k2]
            e2 = res
            e1abs = abs(e1)
            delta2 = e2 - e1
            err2 = abs(delta2)
            tol2 = max(abs(e2), e1abs) * _EPMACH
            delta3 = e1 - e0
            err3 = abs(delta3)
            tol3 = max(e1abs, abs(e0)) * _EPMACH
            if not (err2 > tol2 or err3 > tol3):
                # e0, e1 and e2 are equal to within machine accuracy
                result = res
                abserr = err2 + err3
                return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
            e3 = epstab[k1]
            epstab[k1] = e1
            delta1 = e1 - e3
            err1 = abs(delta1)
            tol1 = max(e1abs, abs(e3)) * _EPMACH
            if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
                n = i + i - 1
                break
            ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
            epsinf = abs(ss * e1)
            if not epsinf > 1e-4:
                n = i + i - 1
                break
            res = e1 + 1.0 / ss
            epstab[k1] = res
            k1 = k1 - 2
            error = err2 + abs(res - e2) + err3
            if error > abserr:
                continue
            abserr = error
            result = res
        # shift the table
        if n == _LIMEXP:
            n = 2 * (_LIMEXP // 2) - 1
        ib = 2 if num % 2 == 0 else 1
        for _ in range(newelm + 1):
            epstab[ib] = epstab[ib + 2]
            ib += 2
        if num != n:
            indx = num - n + 1
            for i in range(1, n + 1):
                epstab[i] = epstab[indx]
                indx += 1
        if nres >= 4:
            abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                      + abs(result - res3la[1]))
            res3la[1] = res3la[2]
            res3la[2] = res3la[3]
            res3la[3] = result
        else:
            res3la[nres] = result
            abserr = _OFLOW
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


Step = Generator[tuple[float, float, float, float], tuple[tuple, tuple],
                 tuple[float, float]]


def _adapt(a: float, b: float, first: tuple, epsabs: float, epsrel: float,
           limit: int) -> Step:
    """QUADPACK's loop after a first rule that did not exit.

    Yields ``(a1, b1, a2, b2)``, the halves of the interval it bisects,
    receives their two rule results and returns ``(result, abserr)``.
    ``(a, b)`` is the piece in rule coordinates (``(0, 1)`` in ``t`` for
    an infinite piece, where ``dqagie``'s ``small = 0.375`` is the same
    ``|b - a| * 0.375``).
    """
    result, abserr, _, _ = first
    alist = [0.0, a]
    blist = [0.0, b]
    rlist = [0.0, result]
    elist = [0.0, abserr]
    iord = [0] * (limit + 2)
    iord[1] = 1
    rlist2 = [0.0] * (_LIMEXP + 3)
    res3la = [0.0] * 4
    ier = 0
    ierro = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0

    last = 1
    sum_rlist = False
    for last in range(2, limit + 1):
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        (area1, error1, _, defab1), (area2, error2, _, defab2) = \
            yield a1, b1, a2, b2

        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if defab1 != error1 and defab2 != error2:
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW):
            ier = 4
        if error2 > error1:
            alist[maxerr] = a2
            alist.append(a1)
            blist.append(b1)
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist.append(error1)
        else:
            alist.append(a2)
            blist[maxerr] = b1
            blist.append(b2)
            elist[maxerr] = error1
            elist.append(error2)
        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: before
            # bisecting, work down the larger intervals first
            jupbnd = limit + 3 - last if last > 2 + limit // 2 else last
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
        # extrapolate
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if not abseps >= abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    if not sum_rlist:
        # set the final result and error estimate
        if abserr == _OFLOW:
            sum_rlist = True
        elif ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if result != 0.0 and area != 0.0:
                sum_rlist = abserr / abs(result) > errsum / abs(area)
            elif abserr > errsum:
                sum_rlist = True
    if sum_rlist:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    return result, abserr


def _rule_of(a: float, b: float):
    """The rule of a piece and its bounds in rule coordinates."""
    if -math.inf < a and b < math.inf:
        return _Finite, a, b
    if -math.inf < a:
        return _Infinite(a, 1), 0.0, 1.0
    if b < math.inf:
        return _Infinite(b, -1), 0.0, 1.0
    return _Infinite(0.0, 2), 0.0, 1.0


def integrate(f: NodeFunction, pieces: Sequence[tuple[float, float]],
              epsabs: float, epsrel: float, limit: int
              ) -> list[tuple[float, float] | None]:
    """``(value, error bound)`` of every piece ``(a, b)``, ``a < b``, as
    ``scipy.integrate.quad(g, a, b, epsabs=epsabs, epsrel=epsrel,
    limit=limit)[:2]`` gives it for the integrand ``g`` that ``f``
    evaluates; ``None`` for a piece that ``f`` reports failed.

    Each round calls ``f`` once with the nodes of every open piece: first
    the whole piece, then the two halves its machine bisects.  Pieces
    share no arithmetic, so each one gets the bits of a run on its own.
    An exception ``f`` raises propagates.
    """
    rules = [_rule_of(a, b) for a, b in pieces]
    firsts = _round(f, [(i, lo, hi) for i, (_, lo, hi) in enumerate(rules)], rules)
    return _advance(f, rules, {i: first for i, (first,) in firsts.items()},
                    epsabs, epsrel, limit)


def _advance(f: NodeFunction, rules: list, firsts: dict[int, tuple],
             epsabs: float, epsrel: float, limit: int
             ) -> list[tuple[float, float] | None]:
    """The runner: from each piece's first rule, exit or start its machine,
    then advance every machine one round at a time until all have ended."""
    out: list[tuple[float, float] | None] = [None] * len(rules)
    running: dict[int, tuple[Step, tuple]] = {}
    for i, first in firsts.items():
        out[i] = _first_exit(first, epsabs, epsrel, limit)
        if out[i] is None:
            _, lo, hi = rules[i]
            machine = _adapt(lo, hi, first, epsabs, epsrel, limit)
            running[i] = machine, next(machine)
    while running:
        results = _round(f, [(i, *half) for i, (_, (a1, b1, a2, b2)) in running.items()
                             for half in ((a1, b1), (a2, b2))], rules)
        for i, (machine, _) in list(running.items()):
            if i not in results:  # failed in this round
                del running[i]
                continue
            try:
                running[i] = machine, machine.send(results[i])
            except StopIteration as stop:
                out[i] = stop.value
                del running[i]
    return out


def _round(f: NodeFunction, intervals: list, rules: list) -> dict[int, list]:
    """Rule results of ``(piece, lo, hi)`` intervals, listed per piece in
    interval order, from one call of ``f``; failed pieces are left out."""
    xs: list[float] = []
    owners: list[int] = []
    for i, lo, hi in intervals:
        rule = rules[i][0]
        xs += rule.nodes(lo, hi)
        owners += [i] * rule.count
    values, failed = f(xs, owners)
    results: dict[int, list] = {}
    k = 0
    for i, lo, hi in intervals:
        rule = rules[i][0]
        if i not in failed:
            results.setdefault(i, []).append(rule.rule(lo, hi, values[k:k + rule.count]))
        k += rule.count
    return results


def quad(f: Callable[[list], Sequence[float]], a: float, b: float,
         epsabs: float, epsrel: float, limit: int) -> tuple[float, float]:
    """:func:`integrate` on the one piece ``(a, b)``, where ``f`` maps a
    list of nodes to their values.

    The first rule and QUADPACK's exit test run before the runner's
    bookkeeping; a piece that goes on hands that rule to the runner.
    """
    rule, lo, hi = rules = _rule_of(a, b)
    first = rule.rule(lo, hi, f(rule.nodes(lo, hi)))
    done = _first_exit(first, epsabs, epsrel, limit)
    if done is not None:
        return done
    return _advance(lambda xs, owners: (f(xs), ()), [rules], {0: first},
                    epsabs, epsrel, limit)[0]
