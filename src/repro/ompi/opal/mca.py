"""Modular Component Architecture (MCA).

Open MPI assembles itself from frameworks (pml, btl, coll, ...) each
holding selectable components.  The sessions prototype's
``MPI_Session_init`` opens only the frameworks the session needs, so
the registry here tracks open/close cycles and selection and charges a
component-load cost on first open (component shared objects come off
the filesystem — part of the NFS story in the paper's init numbers).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional


class MCAError(RuntimeError):
    pass


class MCAComponent:
    """One selectable component (e.g. pml/ob1, btl/sm)."""

    __slots__ = ("name", "priority")

    def __init__(self, name: str, priority: int = 0) -> None:
        self.name = name
        self.priority = priority

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MCAComponent {self.name} prio={self.priority}>"


_NO_COMPONENTS: Mapping[str, MCAComponent] = {}


class MCAFramework:
    """A named framework holding components; selection picks by priority.

    Which components exist is the same for every rank of every world, so
    the table is a value a framework holds by reference and never writes
    (:meth:`register` replaces it); what a rank owns is its open/close
    count and its selection.
    """

    __slots__ = ("name", "_components", "open_count", "is_open", "selected")

    def __init__(self, name: str,
                 components: Mapping[str, MCAComponent] = _NO_COMPONENTS) -> None:
        self.name = name
        self._components = components
        self.open_count = 0
        self.is_open = False
        self.selected: Optional[MCAComponent] = None

    def register(self, component: MCAComponent) -> None:
        if component.name in self._components:
            raise MCAError(f"{self.name}/{component.name} registered twice")
        self._components = {**self._components, component.name: component}

    def components(self) -> List[MCAComponent]:
        return sorted(self._components.values(), key=lambda c: (-c.priority, c.name))

    def open(self) -> None:
        self.is_open = True
        self.open_count += 1

    def select(self, prefer: Optional[str] = None) -> MCAComponent:
        if not self.is_open:
            raise MCAError(f"select on closed framework {self.name}")
        if prefer is not None:
            comp = self._components.get(prefer)
            if comp is None:
                raise MCAError(f"no component {self.name}/{prefer}")
            self.selected = comp
            return comp
        comps = self.components()
        if not comps:
            raise MCAError(f"framework {self.name} has no components")
        self.selected = comps[0]
        return comps[0]

    def close(self) -> None:
        if not self.is_open:
            raise MCAError(f"close on closed framework {self.name}")
        self.is_open = False
        self.selected = None


class MCARegistry:
    """Per-process registry of frameworks and MCA parameters."""

    __slots__ = ("_frameworks", "_params")

    def __init__(self) -> None:
        self._frameworks: Dict[str, MCAFramework] = {}
        self._params: Dict[str, Any] = {}

    def framework(self, name: str,
                  components: Mapping[str, MCAComponent] = _NO_COMPONENTS) -> MCAFramework:
        """The framework ``name``; created on first use, then holding the
        ``components`` table (by reference) this call passes."""
        fw = self._frameworks.get(name)
        if fw is None:
            fw = self._frameworks[name] = MCAFramework(name, components)
        return fw

    def open_frameworks(self) -> List[str]:
        return sorted(n for n, f in self._frameworks.items() if f.is_open)

    # -- parameter system (mca_base_var) -------------------------------------
    def set_param(self, name: str, value: Any) -> None:
        self._params[name] = value

    def get_param(self, name: str, default: Any = None) -> Any:
        return self._params.get(name, default)
