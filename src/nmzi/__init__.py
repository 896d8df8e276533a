"""Paired noninterfering Mach-Zehnder interferometers.

Jones-calculus element models, the per-station closed forms, cross-station
correlation functions, a photon-counting Monte Carlo with doubly-bunched-pair
post-selection, and a CSV-emitting command line around them.  Import from
the submodules: ``nmzi.correlation``, ``nmzi.montecarlo``, ``nmzi.output``,
``nmzi.station``, ``nmzi.elements``, ``nmzi.config``, ``nmzi.verify`` and
``nmzi.cli``.
"""


class _Record:
    """Base of the package's immutable records.

    A subclass's fields are its own annotations, in order (read as names,
    never evaluated), and a field's default is the class attribute of that
    name.  ``__init__`` takes the fields by position or keyword and then
    calls ``__post_init__`` if the class has one.  Records compare and hash
    by their fields, within one class, and refuse assignment and deletion.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._required = frozenset(n for n in cls._fields if not hasattr(cls, n))

    def __init__(self, *args, **kwargs) -> None:
        # Written past __setattr__; a default stays a class attribute.
        state = self.__dict__
        state.update(zip(self._fields, args))
        if len(args) > len(state) or any(n in state or n not in self._fields for n in kwargs):
            raise TypeError(f"{type(self).__name__}: too many, unknown or repeated fields")
        state.update(kwargs)
        if not self._required <= state.keys():
            raise TypeError(f"{type(self).__name__}: missing {self._required - state.keys()}")
        if hasattr(self, "__post_init__"):
            self.__post_init__()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def _refuse(self, *_) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __setattr__ = __delattr__ = _refuse
