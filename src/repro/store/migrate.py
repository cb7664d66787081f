"""Lift results between backends (``repro-ldp migrate-store``).

The canonical use is promoting a directory of historical sweep CSVs into a
queryable SQLite database, but either direction works: rows are
read through the source backend's ``load_rows`` (canonical cell strings) and
re-appended through the destination's ``append_rows``, so the migrated rows
are byte-identical to the originals and header comments — including the
``sweep_spec_fingerprint=…`` convention that guards ``sweep --resume`` —
carry over verbatim.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from ..exceptions import ExperimentError
from .backends import make_backend

__all__ = ["migrate_store"]


def migrate_store(
    source_root: Union[str, Path],
    dest_root: Union[str, Path],
    source_kind: str,
    dest_kind: str,
    experiments: Optional[List[str]] = None,
) -> Dict[str, int]:
    """Copy experiments from one backend to another; returns row counts.

    Parameters
    ----------
    source_root, dest_root:
        Results directories (may be the same directory — e.g. adding a
        ``results.sqlite`` next to the CSVs it was lifted from).
    source_kind, dest_kind:
        Backend kinds, keys of :data:`~repro.store.backends.BACKENDS`.
    experiments:
        Identifiers to migrate; every experiment in the source when omitted.

    The migration is append-only.  A destination experiment whose rows and
    header comment already equal the source's is skipped (and left out of
    the returned counts), so rerunning after a partial failure migrates only
    the experiments that are still missing; one that holds different rows is
    refused.
    """
    with make_backend(source_kind, source_root) as source, make_backend(
        dest_kind, dest_root
    ) as dest:
        identifiers = (
            list(experiments) if experiments is not None else source.list_experiments()
        )
        if not identifiers:
            raise ExperimentError(
                f"no experiments to migrate from {source_root} ({source_kind})"
            )
        migrated: Dict[str, int] = {}
        for experiment_id in identifiers:
            rows = source.load_rows(experiment_id)
            header_comment = source.read_header_comment(experiment_id)
            if dest.has_rows(experiment_id):
                if (
                    dest.load_rows(experiment_id) == rows
                    and dest.read_header_comment(experiment_id) == header_comment
                ):
                    continue
                raise ExperimentError(
                    f"destination already holds rows for {experiment_id!r} at "
                    f"{dest.location(experiment_id)}; refusing to mix stores"
                )
            if not rows:
                migrated[experiment_id] = 0
                continue
            dest.append_rows(experiment_id, rows, header_comment=header_comment)
            migrated[experiment_id] = len(rows)
        return migrated
