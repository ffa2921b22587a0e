"""Containers whose ``forward`` is their declared structure: chains and residual blocks."""

from __future__ import annotations

from typing import Iterator, Sequence, Tuple

from repro.nn.module import Module
from repro.tensor import Tensor


class Sequential(Module):
    """Chain of modules applied in order.

    Children are registered under their string index so
    ``state_dict`` keys are stable (``"0.weight"``, ``"3.gamma"``, ...).
    """

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        for idx, module in enumerate(modules):
            setattr(self, str(idx), module)

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def __len__(self) -> int:
        return len(self._modules)

    def append(self, module: Module) -> "Sequential":
        setattr(self, str(len(self._modules)), module)
        return self


class Residual(Module):
    """``post(main(x) + shortcut(x))`` over registered children.

    A subclass registers its children and names the three parts in
    :meth:`parts`; :meth:`forward` runs exactly that declaration, so a
    block's structure can be read without reading code (the time-batched
    engines compile it into their layer schedule).
    """

    def parts(self) -> Tuple[Sequence[Module], Module, Module]:
        """``(main branch, in call order; shortcut; post-add module)``."""
        raise NotImplementedError

    def forward(self, x: Tensor) -> Tensor:
        main, shortcut, post = self.parts()
        out = x
        for module in main:
            out = module(out)
        return post(out + shortcut(x))
