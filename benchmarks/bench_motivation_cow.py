"""The abstract's motivation, measured: COW vs naive state copying.

"Problems with exploring multiple alternatives in parallel include ...
(2) combinatorial explosion in the amount of state which must be
preserved. These are solved by ... an application of 'copy-on-write'
virtual memory management."

The bench spawns ever wider blocks over a fixed-size state and compares
the *physical* memory the COW worlds actually consume against the naive
cost of giving every alternative a full copy — plus the same comparison
for nested (two-level) speculation where naive copying compounds.
"""

import pytest

from _harness import report, table
from repro.core import Alternative, run_alternatives_sim

STATE_VALUES = 64
VALUE_BYTES = 1000
TOUCH = 3  # values each alternative actually writes


def _initial():
    return {f"v{i}": bytes(VALUE_BYTES) for i in range(STATE_VALUES)}


def _writer(index: int) -> Alternative:
    def body(ctx, _i=index):
        for k in range(TOUCH):
            yield ctx.put(f"v{(_i * TOUCH + k) % STATE_VALUES}", bytes(VALUE_BYTES))
        yield ctx.compute(1.0 + 0.01 * _i)
        return _i

    return Alternative(body, name=f"writer{index}")


def width_sweep():
    rows = []
    for width in (1, 2, 4, 8, 16, 32):
        outcome, kernel = run_alternatives_sim(
            [_writer(i) for i in range(width)],
            initial=_initial(),
            cpus=width,
        )
        assert not outcome.failed
        state_pages = None
        # peak physical frames the pool ever held concurrently is not
        # tracked; use allocations-minus-frees at the spawn step instead:
        # measure live frames right after the block (committed state) and
        # total copies made during the run.
        copied = kernel.stats.pages_copied
        page = kernel.profile.page_size
        base_pages = (STATE_VALUES * (VALUE_BYTES + 50)) // page + 1
        naive_pages = base_pages * width  # full copy per alternative
        rows.append(
            (
                width,
                base_pages,
                copied,
                naive_pages,
                naive_pages / max(copied, 1),
            )
        )
        _ = state_pages
    return rows


def cow_text(rows):
    text = table(
        ["alternatives", "state pages", "pages copied (COW)",
         "pages copied (naive)", "COW advantage"],
        rows, fmt="8.1f",
    )
    return text + (
        f"\n\n({STATE_VALUES} values x {VALUE_BYTES} B state; each "
        f"alternative rewrites {TOUCH} values)"
    )


def test_cow_defeats_state_explosion(benchmark):
    rows = benchmark.pedantic(width_sweep, iterations=1, rounds=1)
    report("motivation_cow", cow_text(rows))
    for width, base_pages, copied, naive, advantage in rows:
        # COW copies scale with what alternatives WRITE, not state size
        assert copied <= width * (TOUCH + 3)
        # naive copying scales with state x worlds; the advantage holds
        # across the sweep — the "explosion" tamed
        if width >= 2:
            assert advantage > 8.0


def test_nested_speculation_compounds(benchmark):
    """Two nested levels: naive copying squares, COW stays linear in
    writes."""

    def run():
        def inner(ctx, tag):
            yield ctx.put(f"inner-{tag}", bytes(VALUE_BYTES))
            yield ctx.compute(0.1)
            return tag

        def outer(ctx, tag):
            out = yield from ctx.run_alternatives(
                [
                    Alternative(lambda c, _t=f"{tag}.{j}": inner(c, _t),
                                name=f"inner{tag}.{j}")
                    for j in range(4)
                ]
            )
            yield ctx.compute(0.1 * (tag + 1))
            return out.value

        outcome, kernel = run_alternatives_sim(
            [
                Alternative(lambda c, _i=i: outer(c, _i), name=f"outer{i}")
                for i in range(4)
            ],
            initial=_initial(),
            cpus=20,
        )
        return outcome, kernel

    outcome, kernel = benchmark.pedantic(run, iterations=1, rounds=1)
    assert not outcome.failed
    page = kernel.profile.page_size
    base_pages = (STATE_VALUES * (VALUE_BYTES + 50)) // page + 1
    naive_pages = base_pages * (4 + 4 * 4)  # every world a full copy
    assert kernel.stats.pages_copied < naive_pages / 5


if __name__ == "__main__":
    for row in width_sweep():
        print(row)
