"""A base for immutable value records that builds no code at import.

A subclass lists its fields as class annotations, in order, after those of
the record it extends; a class attribute of the same name is the field's
default. Instances take their fields by position or keyword, compare equal
when they are of the same class with equal fields, hash as the tuple of
their fields, print as ``Name(field=value, ...)`` and refuse assignment and
deletion.
"""

from operator import attrgetter


class Record:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [f for f in cls.__dict__.get("__annotations__", ()) if f not in cls._fields]
        fields = cls._fields + tuple(own)
        cls._fields = cls.__match_args__ = fields
        cls._defaults = {f: getattr(cls, f) for f in fields if hasattr(cls, f)}
        # One getter per class: the field tuple, or the bare value of a
        # single field, whose hash is then taken as a 1-tuple's.
        if len(fields) == 1:
            cls._get = attrgetter(fields[0])
            cls.__hash__ = _hash_single
        else:
            cls._get = attrgetter(*fields) if fields else staticmethod(lambda obj: ())

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        self.__dict__.update(zip(fields, args))

    @classmethod
    def _complete(cls, args, kwargs):
        """Every field value in order, from leading positional values,
        keywords and defaults."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for name in fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in cls._defaults:
                values.append(cls._defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected arguments {sorted(kwargs)}")
        return values

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({inner})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            get = self._get
            return get(self) == get(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._get(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _hash_single(self):
    return hash((self._get(self),))
