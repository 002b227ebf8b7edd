"""Exception hierarchy and the argument contract of all nilcone modules.

The contract: every public function, those of `nilcone.__all__` and of
`nilcone.sl2`, returns an exact result or raises a NilconeError, whatever
its arguments.  Each checks its arguments on entry with the require_*
functions below.  They return the argument in the form the caller works
on (a weight as a tuple, an int as it is), and they raise DomainError
with one message, "<what> <value>: expected <what it must be>".  Only
`build_datum` raises ConfigurationError instead, for a preset name.  The
weight checks run on hot paths: on success they read no more of the datum
than its weight_dim, and on failure a datum that is no RootDatum is named
first.

The CLI maps the classes onto exit codes: DomainError and
ConfigurationError exit with 1, ResourceError with 2.
"""


class NilconeError(Exception):
    pass


class ConfigurationError(NilconeError):
    """Bad preset name or malformed configuration."""


class DomainError(NilconeError):
    """Input outside an operation's mathematical domain."""


class ResourceError(NilconeError):
    """A configured size cap was exceeded (e.g. representation too large)."""


def refuse(what, value, expected):
    """Raise the contract's DomainError for an argument value."""
    raise DomainError("%s %r: expected %s" % (what, value, expected))


def require_instance(value, cls, what):
    """value, once it is an instance of cls."""
    if not isinstance(value, cls):
        refuse(what, value, "a " + cls.__name__)
    return value


def require_int(value, what, least, most):
    """value, once it is an int (not a bool) in [least, most]; a bound of
    None is open."""
    if (type(value) is not int or (least is not None and value < least)
            or (most is not None and value > most)):
        refuse(what, value, "an int" + _bounds(least, most))
    return value


def require_even(value, what, least):
    """value, once it is an even int (not a bool) of at least least, unless
    least is None."""
    if (type(value) is not int or value % 2
            or (least is not None and value < least)):
        refuse(what, value, "an even int" + _bounds(least, None))
    return value


def _bounds(least, most):
    return (("" if least is None else " >= %d" % least)
            + ("" if most is None else " <= %d" % most))


def require_items(value, what, length):
    """tuple(value), once value is iterable, with length items unless
    length is None."""
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or length is not None and len(items) != length:
        refuse(what, value, "an iterable" if length is None
               else "%d items" % length)
    return items


def require_indices(values, bound, what):
    """require_items(values, what, None), once every item is an int (not
    a bool) in range(bound)."""
    items = require_items(values, what, None)
    for i in items:
        if type(i) is not int or not 0 <= i < bound:
            refuse(what, values, "ints in range(%d)" % bound)
    return items


def require_summand(summand):
    """(weight tuple, degree), once summand is a pair of a sequence of ints
    and an int (no bools): a summand of a free object."""
    try:
        weight, degree = summand
        weight = tuple(weight)
    except (TypeError, ValueError):  # not a pair, or a weight of no length
        refuse("summand", summand, "a (weight, degree) pair")
    if type(degree) is not int:
        refuse("internal degree", degree, "an int")
    for c in weight:
        if type(c) is not int:
            refuse("summand weight", weight, "int coordinates")
    return weight, degree


def require_int_map(value, what):
    """value, once it is a dict from ints to ints (not bools)."""
    if not (isinstance(value, dict)
            and all(type(k) is int and type(v) is int
                    for k, v in value.items())):
        refuse(what, value, "a dict from ints to ints")
    return value


def require_choice(value, choices, what):
    """value, once it is one of the str keys of choices."""
    if not isinstance(value, str) or value not in choices:
        refuse("unknown " + what, value, "one of " + ", ".join(sorted(choices)))
    return value


def require_weight(datum, weight):
    """tuple(weight), once it is datum.weight_dim exact entries: ints (not
    bools), or Fractions for a vector off the lattice, where every
    multiplicity and q-analog is 0.  An int entry is accepted first, so
    only another entry loads fractions; a caller that passes a Fraction
    has loaded it already."""
    try:
        ok = len(weight) == datum.weight_dim
    except (TypeError, AttributeError):  # no length, or no datum
        ok = False
    if ok:
        for c in weight:
            if type(c) is not int and not _is_fraction(c):
                break
        else:
            return tuple(weight)
    from .roots import RootDatum  # roots imports this module
    require_instance(datum, RootDatum, "datum")
    refuse("weight", weight, "%d exact coordinates for %s"
           % (datum.weight_dim, datum.name))


def _is_fraction(c):
    from fractions import Fraction
    return isinstance(c, Fraction)


def require_dominant(datum, weight):
    """tuple(weight), once it is a dominant weight of ints (not bools).
    Every hot path runs this check, so require_weight, which gives a
    malformed weight or datum its own message, runs only on failure."""
    try:
        ok = len(weight) == datum.weight_dim
    except (TypeError, AttributeError):  # no length, or no datum
        ok = False
    if ok:
        for c in weight:
            if type(c) is not int:
                break
        else:
            if datum.is_dominant(weight):
                return tuple(weight)
    require_weight(datum, weight)
    refuse("weight", weight, "a dominant lattice weight for %s" % datum.name)
