"""Neural-network modules built on :class:`repro.nn.tensor.Tensor`.

The module system mirrors the familiar ``torch.nn`` conventions (parameters
registered by attribute assignment, ``state_dict`` round-trips, train/eval
mode for dropout) so the TURL model code above reads like standard deep
learning code.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.hooks import FORWARD_HOOK
from repro.nn.sanitize import SANITIZER, SanitizerError
from repro.nn.tensor import Parameter, Tensor, dropout_mask, linear


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__``; these are discovered automatically for optimization and
    serialization.
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter/module discovery -----------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(dotted.path, module)`` pairs, this module included.

        List/tuple children are addressed by index, matching the naming of
        :meth:`named_parameters` (``encoder.blocks.3.attention``).
        """
        yield prefix.rstrip("."), self
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Module):
                yield from value.named_modules(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_modules(prefix=f"{full}.{i}.")

    # -- train/eval mode ----------------------------------------------
    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        for parameter in self.parameters():
            parameter.grad = None

    # -- serialization --------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray], strict: bool = True,
                        copy: bool = True) -> None:
        """Load ``state`` into this module's parameters.

        ``copy=False`` binds the checkpoint arrays directly instead of
        heap-copying them — the zero-copy path for serving workers reading a
        memory-mapped state dict (:func:`repro.nn.serialization.load_state`
        with ``mmap=True``): every worker then shares the file-backed pages.
        Such parameters are read-only; training rebinds them to fresh heap
        arrays on the first optimizer step, so inference-only use is the
        intended regime.
        """
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            if name not in state:
                continue
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: checkpoint {value.shape} vs model {parameter.data.shape}"
                )
            parameter.data = value.copy() if copy else value

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # -- call protocol ---------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def _instrumented_call(self, *args, **kwargs):
        hooked = FORWARD_HOOK.enabled
        if hooked:
            FORWARD_HOOK.enter(self)
        try:
            if SANITIZER.enabled:
                # Attribute sanitizer failures to the module path: each
                # enclosing module prepends its class name, so a NaN raised
                # deep inside an op surfaces as e.g.
                # "TURLModel: TransformerBlock: ...".
                try:
                    return self.forward(*args, **kwargs)
                except SanitizerError as error:
                    raise SanitizerError(
                        f"{type(self).__name__}: {error}") from None
            return self.forward(*args, **kwargs)
        finally:
            if hooked:
                FORWARD_HOOK.exit(self)

    def __call__(self, *args, **kwargs):
        if SANITIZER.enabled or FORWARD_HOOK.enabled:
            return self._instrumented_call(*args, **kwargs)
        return self.forward(*args, **kwargs)


@contextmanager
def eval_mode(module: Module):
    """Run a block with ``module`` in eval mode, restoring the caller's mode.

    Every inference path (``predict`` / ``rank`` / evaluation probes) must use
    this instead of a bare ``module.eval()`` so that interleaving evaluation
    with training never silently leaves the model in the wrong mode.
    """
    was_training = module.training
    module.eval()
    try:
        yield module
    finally:
        if was_training:
            module.train()


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine transform ``y = x W + b`` over the last axis."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator,
                 bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(_glorot(rng, in_features, out_features))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, dim: int, rng: np.random.Generator,
                 scale: float = 0.02):
        super().__init__()
        self.num_embeddings = num_embeddings
        self.dim = dim
        self.weight = Parameter(rng.normal(0.0, scale, size=(num_embeddings, dim)))

    def forward(self, ids: np.ndarray) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding id out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        return self.weight.take_rows(ids)


class LayerNorm(Module):
    """Layer normalization over the last axis."""

    def __init__(self, dim: int, eps: float = 1e-5):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim))
        self.bias = Parameter(np.zeros(dim))

    def forward(self, x: Tensor) -> Tensor:
        return x.layer_norm(self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout, active only in training mode."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x: Tensor) -> Tensor:
        mask = self.keep_mask(x.shape)
        return x if mask is None else x * Tensor(mask)

    def keep_mask(self, shape: Tuple[int, ...]) -> Optional[np.ndarray]:
        """The scaled keep-mask this layer applies to an input of ``shape``,
        or ``None`` when dropout is inactive (eval mode or rate 0).

        Fused ops that apply dropout inside their own tape node call this
        instead of the layer, drawing from the same RNG stream.
        """
        if not self.training or self.rate == 0.0:
            return None
        return dropout_mask(self.rate, self.rng, shape)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.steps = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for step in self.steps:
            x = step(x)
        return x


class ModuleList(Module):
    """Container registering a list of sub-modules."""

    def __init__(self, modules: Sequence[Module] = ()):
        super().__init__()
        self.items = list(modules)

    def append(self, module: Module) -> None:
        self.items.append(module)

    def __iter__(self):
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __getitem__(self, index: int) -> Module:
        return self.items[index]
