"""File recipes: how the director reconstructs files from chunks.

"File recipe management module keeps the mapping from files to chunk
fingerprints and all other information required to reconstruct the file."
(paper Section 3.1)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import RecipeError


class ChunkLocation(NamedTuple):
    """Where one chunk of a file lives in the cluster: one row of a
    :class:`FileRecipe`, built when the recipe is indexed or iterated."""

    fingerprint: bytes
    length: int
    node_id: int
    container_id: Optional[int] = None


@dataclass
class FileRecipe:
    """The chunks that reconstruct one file of one backup session, in file
    order, as four aligned columns (no per-chunk object is stored)."""

    path: str
    session_id: str
    fingerprints: List[bytes] = field(default_factory=list)
    lengths: List[int] = field(default_factory=list)
    node_ids: List[int] = field(default_factory=list)
    container_ids: List[Optional[int]] = field(default_factory=list)

    @property
    def columns(self) -> Tuple[List[bytes], List[int], List[int], List[Optional[int]]]:
        """The four columns, in :class:`ChunkLocation` field order."""
        return self.fingerprints, self.lengths, self.node_ids, self.container_ids

    def __len__(self) -> int:
        return len(self.fingerprints)

    def __getitem__(self, index: int) -> ChunkLocation:
        return ChunkLocation(*[column[index] for column in self.columns])

    def __iter__(self) -> Iterator[ChunkLocation]:
        return map(ChunkLocation, *self.columns)

    @property
    def logical_size(self) -> int:
        return sum(self.lengths)

    @property
    def chunk_count(self) -> int:
        return len(self.fingerprints)

    def extend(
        self, fingerprints: Sequence[bytes], lengths: Sequence[int], node_ids: Sequence[int],
        container_ids: Sequence[Optional[int]],
    ) -> None:
        """Append four aligned columns (columns of unequal length raise
        :class:`RecipeError` and append nothing)."""
        if not len(fingerprints) == len(lengths) == len(node_ids) == len(container_ids):
            raise RecipeError(f"recipe columns for {self.path} differ in length")
        self.fingerprints.extend(fingerprints)
        self.lengths.extend(lengths)
        self.node_ids.extend(node_ids)
        self.container_ids.extend(container_ids)

    def validate(self) -> None:
        """Raise :class:`RecipeError` if the recipe is structurally broken."""
        fingerprints, lengths = self.fingerprints, self.lengths
        if not len(fingerprints) == len(lengths) == len(self.node_ids) == len(self.container_ids):
            raise RecipeError(f"recipe for {self.path} has columns of unequal length")
        if lengths and min(lengths) < 0:
            raise RecipeError(f"recipe for {self.path} has a negative-length chunk")
        if not all(fingerprints):
            raise RecipeError(f"recipe for {self.path} has an empty fingerprint")
