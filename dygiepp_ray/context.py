"""Session/DataContext tuning for scale runs.

One place for the execution knobs every entrypoint (bench, job script, tests)
would otherwise duplicate. Call after `ray.init`; never calls `ray.init`
itself (the driver owns the session).
"""

from __future__ import annotations

import logging


class _EmptyBlockSchemaFilter(logging.Filter):
    """Drop the per-empty-partition 'different schema than the previous one
    ... names=[], types=[]' warning: Ray's sort-based map_groups emits a
    columnless pandas block for every partition that received no groups
    (inevitable when a coarse bucket count exceeds the live key count), and
    the streaming executor logs one warning per such block. Only that exact
    empty-schema variant is filtered — real schema mismatches still log."""

    def filter(self, record: logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        if "different schema than the previous" not in msg:
            return True
        if "names=[], types=[]" in msg:
            return False
        # empty-schema side renders as nothing / None after "new schema: "
        tail = msg.split("new schema: ", 1)[-1].strip()
        return not (tail.startswith(". This may lead") or tail.startswith("None"))


def _install_log_filters() -> None:
    logging.getLogger(
        "ray.data._internal.execution.streaming_executor_state"
    ).addFilter(_EmptyBlockSchemaFilter())


_install_log_filters()


def configure_for_scale(target_max_block_size_mb: int = 128,
                        preserve_order: bool = False,
                        progress_bars: bool = False) -> None:
    """Set the DataContext the way the 100 TB design assumes:

    - block size bounds batch × concurrency memory (wide nested prediction
      columns want ≤128 MiB blocks);
    - order preservation OFF — every pipeline here is row-order-free by
      design (documents are self-contained rows; counts/joins key-based), and
      preserve_order serializes the streaming executor;
    - progress bars off for headless runs;
    - Ray Data's per-operator resource reservation OFF. That allocator
      reserves for each operator a share of the Data object-store budget
      (half the store: 256 MiB of a 512 MiB store, so about 43 MiB per
      operator of a three-operator build) and prices each pending task's
      output at 2 × `target_max_block_size` (256 MiB) until the operator
      has produced output. Every pending task is then far over its
      operator's share, so each operator runs about one task at a time:
      on 4 CPUs a `perfbench` build stretched 8 read tasks (about 60 ms of
      work) over 0.45 s, and its second extraction task waited for the
      read to end. Off, the executor's global limits alone bound the
      build, and its concurrency comes from the plan. The flagship
      therefore plans its work units (`pipelines/kg.py:read_corpus`): with
      reservation off and the 8 read tasks of the plan before units,
      `perfbench` `peak_rss_mb` rose 31–35%, as more workers ran Ray Data
      tasks and a worker that has run one holds about 160–190 MB, against
      80 MB for one that has not.
    """
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.target_max_block_size = target_max_block_size_mb * 1024 * 1024
    ctx.execution_options.preserve_order = preserve_order
    ctx.enable_progress_bars = progress_bars
    ctx.op_resource_reservation_enabled = False
