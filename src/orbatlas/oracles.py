"""The oracle section of an atlas document, as a plain record.

In a reduced atlas two chart points are identified exactly when some chart
embeds into both charts carrying one marked point to each, so the stored charts
and embeddings already determine every identification.  ``Atlas.refine`` and
``Atlas.locate`` answer all of them by one walk over the stored embeddings; the
spans recorded here are document data that validation checks against that walk
and that no query consults.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidRelabelingError


@dataclass(frozen=True)
class Oracle:
    """What an atlas document records beyond its charts and embeddings.

    spans: the recorded identification spans (the ``span_table`` kind,
    possibly empty), each of which must be realized by stored embeddings, or
    None for the plain search (the ``span_search`` kind).
    relabels: the pushforward relabelings of the underlying space, outermost
    first, each as sorted (label, new label) pairs; they change no
    identification, and each must be injective.
    """

    spans: tuple | None = None
    relabels: tuple[tuple[tuple[str, str], ...], ...] = ()

    def __post_init__(self):
        for relabel in self.relabels:
            values = [v for _, v in relabel]
            if len(set(values)) != len(values):
                raise InvalidRelabelingError("relabeling is not injective")

    def pushed(self, relabel: dict[str, str]) -> Oracle:
        """The record of a pushforward by relabel: the same spans, with relabel
        outermost."""
        return Oracle(self.spans, (tuple(sorted(relabel.items())), *self.relabels))
