"""Reference code that only the tests use: the central finite-difference gradient
check, the taped ops the per-record oracles are built from, an independent
recomputation of a caption's log-probability, and the xoshiro256** block draw
as one inline Python loop. The tests compare the package against these, so
their numerics must not change.
"""

from dataclasses import dataclass, field

import numpy as np

from retinapipe.autodiff import ShapeError, Tape, Tensor, _emit, backward, zero_grads
from retinapipe.rng import _MASK, Xoshiro256
from retinapipe.textgen import DecoderParams, _DecoderState


class InlineLoopXoshiro(Xoshiro256):
    """Block draws with the whole xoshiro256** step, scrambler included, inline
    in one Python loop: the reference for the package's array scrambler."""

    def _next_u64s(self, n: int) -> list[int]:
        s0, s1, s2, s3 = self._s
        out = []
        for _ in range(n):
            x = (s1 * 5) & _MASK
            out.append(((((x << 7) | (x >> 57)) & _MASK) * 9) & _MASK)
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
        self._s = [s0, s1, s2, s3]
        return out


def sum_all(x: Tensor) -> Tensor:
    out = Tensor(x.data.sum())

    def bwd(gs):
        x.accumulate(np.full_like(x.data, float(gs[0])))

    _emit((out,), bwd)
    return out


def mean_scalars(terms: list[Tensor]) -> Tensor:
    """Mean of scalar tensors as a single op (used for per-step losses)."""
    if not terms:
        raise ValueError("mean_scalars needs at least one term")
    n = len(terms)
    out = Tensor(sum(float(t.data) for t in terms) / n)

    def bwd(gs):
        g = float(gs[0]) / n
        for t in terms:
            t.accumulate(np.full_like(t.data, g))

    _emit((out,), bwd)
    return out


def as_row(x: Tensor) -> Tensor:
    """A D vector as a 1 x D batch, for the batched ops."""
    out = Tensor(x.data[None])

    def bwd(gs):
        x.accumulate(gs[0][0])

    _emit((out,), bwd)
    return out


def embedding_row(table: Tensor, index: int) -> Tensor:
    if table.data.ndim != 2:
        raise ShapeError(f"embedding_row: table must be 2-D, got {table.data.shape}")
    if not 0 <= index < table.data.shape[0]:
        raise ValueError(f"embedding_row: index {index} out of range")
    out = Tensor(table.data[index])

    def bwd(gs):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        table.grad[index] += gs[0]

    _emit((out,), bwd)
    return out


def sequence_log_prob(fused, params: DecoderParams, tokens: tuple[int, ...]) -> float:
    """Independent recomputation of a hypothesis' cumulative log-probability."""
    dec = _DecoderState(params)
    h, c = dec.start_state(np.asarray(fused, dtype=np.float64)[None])
    total = 0.0
    for i, tok in enumerate(tokens):
        total += float(dec.log_probs(h)[0, tok])
        if i + 1 < len(tokens):
            h, c = dec.step([tok], h, c)
    return total


@dataclass
class BlockCheck:
    max_rel_error: float
    passed: bool
    detail: str = ""


@dataclass
class FiniteDifferenceReport:
    blocks: dict[str, BlockCheck] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.blocks.values())

    @property
    def max_rel_error(self) -> float:
        return max((b.max_rel_error for b in self.blocks.values()), default=0.0)


def finite_difference_check(model_fn, params: dict[str, Tensor],
                            eps: float = 1e-5, tol: float = 1e-4) -> FiniteDifferenceReport:
    """Compare analytic gradients of a scalar model_fn against central differences.

    model_fn must be deterministic and read parameter values afresh on each
    call. Relative error uses max(|analytic|, |fd|, 1e-4) as denominator so
    near-zero gradients are judged on an absolute scale.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    zero_grads(list(params.values()))
    with Tape() as tape:
        loss = model_fn()
    backward(tape, loss)
    analytic = {
        name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    report = FiniteDifferenceReport()
    for name, p in params.items():
        flat = p.data.reshape(-1)
        aflat = analytic[name].reshape(-1)
        worst, detail = 0.0, ""
        failed = False
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            fp = float(model_fn().data)
            flat[j] = orig - eps
            fm = float(model_fn().data)
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                report.blocks[name] = BlockCheck(
                    max_rel_error=np.inf, passed=False,
                    detail=f"non-finite probe at {name}[{j}]",
                )
                failed = True
                break
            fd = (fp - fm) / (2.0 * eps)
            err = abs(aflat[j] - fd) / max(abs(aflat[j]), abs(fd), 1e-4)
            if err > worst:
                worst, detail = err, f"worst at {name}[{j}]: analytic={aflat[j]:.6g} fd={fd:.6g}"
        if not failed:
            report.blocks[name] = BlockCheck(max_rel_error=worst, passed=worst < tol, detail=detail)
    return report
