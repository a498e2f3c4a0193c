"""The oracle section of an atlas document.

In a reduced atlas two chart points are identified exactly when some chart
embeds into both charts carrying one marked point to each, so the stored charts
and embeddings are an atlas's only identification data: ``Atlas.refine`` and
``Atlas.locate`` answer every identification by one walk over them.  An atlas
document still carries the one fixed section below, written byte-for-byte for
every atlas, because the benchmark's golden digests (``bench/golden.json``) hash
serialized atlases; the reader accepts it or its absence and nothing else.
"""

SPAN_SEARCH = {"kind": "span_search", "params": {}}
